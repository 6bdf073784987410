//go:build !unix

package wal

import "os"

// tryLock always succeeds where flock is unavailable: the owner record
// still refuses a sibling snapshot path, but two live logs on the same
// directory are not detected.
func tryLock(*os.File) (bool, error) { return true, nil }
