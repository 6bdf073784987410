//go:build unix

package wal

import (
	"errors"
	"os"
	"syscall"
)

// tryLock takes an exclusive flock on f without blocking and reports
// false when another open of the file holds it — a second open in the
// same process counts. The kernel drops the lock with the descriptor,
// so a crashed process leaves no stale lock behind.
func tryLock(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return false, nil
	}
	return err == nil, err
}
