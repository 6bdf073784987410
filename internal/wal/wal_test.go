package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mincore/internal/faultinject"
)

// testOpts returns small-dimension options rooted in a temp dir.
func testOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:        filepath.Join(t.TempDir(), "wal"),
		Dim:        2,
		Directions: 8,
		Seed:       7,
	}
}

// mkBatch builds a deterministic batch of n 2-d points starting at
// absolute stream position seq: each point's first coordinate IS its
// position, which lets tests check replay contiguity without knowing
// batch boundaries.
func mkBatch(seq uint64, n int) [][]float64 {
	b := make([][]float64, n)
	for i := range b {
		v := float64(seq + uint64(i))
		b[i] = []float64{v, -v}
	}
	return b
}

// collect replays the whole log into a flat point slice.
func collect(t *testing.T, l *Log, after uint64) ([][]float64, uint64) {
	t.Helper()
	var pts [][]float64
	delivered, pos, err := l.Replay(after, func(batch [][]float64) error {
		pts = append(pts, batch...)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if delivered != uint64(len(pts)) {
		t.Fatalf("replay reported %d points, delivered %d", delivered, len(pts))
	}
	return pts, pos
}

func TestWALRoundTrip(t *testing.T) {
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var want [][]float64
	seq := uint64(0)
	for i := 0; i < 10; i++ {
		b := mkBatch(seq, 3+i)
		end, err := l.Append(b)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		seq += uint64(len(b))
		if end != seq {
			t.Fatalf("append %d: endSeq %d, want %d", i, end, seq)
		}
		want = append(want, b...)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.LastSeq() != seq {
		t.Fatalf("reopened LastSeq %d, want %d", l2.LastSeq(), seq)
	}
	got, pos := collect(t, l2, 0)
	if pos != seq {
		t.Fatalf("replay position %d, want %d", pos, seq)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d points, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("point %d coordinate %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestWALReplayPartialSkip(t *testing.T) {
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	// Three records of 5 points: seq ranges (0,5], (5,10], (10,15].
	for i := uint64(0); i < 3; i++ {
		if _, err := l.Append(mkBatch(i*5, 5)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// afterSeq=7 straddles the middle record: replay must skip its first
	// 2 points and deliver exactly 8.
	pts, pos := collect(t, l, 7)
	if len(pts) != 8 || pos != 15 {
		t.Fatalf("partial replay delivered %d points to position %d, want 8 to 15", len(pts), pos)
	}
	// The first delivered point is point index 7 of the stream: the
	// middle record started at seq 5, so its offset-2 point.
	if want := mkBatch(5, 5)[2]; pts[0][0] != want[0] || pts[0][1] != want[1] {
		t.Fatalf("first replayed point %v, want %v", pts[0], want)
	}
	// afterSeq at or past the end delivers nothing.
	if pts, _ := collect(t, l, 15); len(pts) != 0 {
		t.Fatalf("replay past end delivered %d points", len(pts))
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		tear func(path string, cleanSize int64) error
	}{
		{"truncate-mid-record", func(path string, cleanSize int64) error {
			return os.Truncate(path, cleanSize-5)
		}},
		{"garbage-appended", func(path string, cleanSize int64) error {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
			return err
		}},
		{"bitflip-last-record", func(path string, cleanSize int64) error {
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt([]byte{0xff}, cleanSize-3)
			return err
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			opts := testOpts(t)
			l, err := Open(opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := uint64(0); i < 4; i++ {
				if _, err := l.Append(mkBatch(i*3, 3)); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			path := l.active.path
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			if err := tear.tear(path, fi.Size()); err != nil {
				t.Fatalf("tear: %v", err)
			}

			l2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			defer l2.Close()
			st := l2.Stats()
			// The bitflip and truncate tears kill the last record; the
			// garbage tear leaves all 12 points and drops only the junk.
			if tear.name == "garbage-appended" {
				if l2.LastSeq() != 12 {
					t.Fatalf("LastSeq %d, want 12", l2.LastSeq())
				}
			} else if l2.LastSeq() != 9 {
				t.Fatalf("LastSeq %d, want 9 (last record torn)", l2.LastSeq())
			}
			if st.TornTruncations == 0 {
				t.Fatalf("torn tail not counted: %+v", st)
			}
			// Appends continue cleanly past the repair.
			if _, err := l2.Append(mkBatch(l2.LastSeq(), 2)); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			pts, pos := collect(t, l2, 0)
			if uint64(len(pts)) != pos || pos != l2.LastSeq() {
				t.Fatalf("replay after repair: %d points to %d, LastSeq %d", len(pts), pos, l2.LastSeq())
			}
		})
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	opts := testOpts(t)
	opts.SegmentBytes = 200 // a few records per segment
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 20; i++ {
		if _, err := l.Append(mkBatch(i*2, 2)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", st.Segments)
	}
	// Truncate through the middle: covered segments vanish, the rest
	// still replays every point past the truncation horizon.
	if err := l.TruncateThrough(20); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if got := l.Stats().Segments; got >= st.Segments {
		t.Fatalf("truncation removed nothing: %d -> %d segments", st.Segments, got)
	}
	pts, pos := collect(t, l, 20)
	if uint64(len(pts)) != 20 || pos != 40 {
		t.Fatalf("post-truncate replay: %d points to %d, want 20 to 40", len(pts), pos)
	}
	// Truncate through everything: the active segment rolls into a fresh
	// empty one and appends continue at the same position.
	if err := l.TruncateThrough(40); err != nil {
		t.Fatalf("truncate all: %v", err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("full truncation left %d segments, want 1 empty active", got)
	}
	if end, err := l.Append(mkBatch(40, 2)); err != nil || end != 42 {
		t.Fatalf("append after full truncate: end %d err %v", end, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.LastSeq() != 42 || l2.OldestSeq() != 40 {
		t.Fatalf("reopened LastSeq %d OldestSeq %d, want 42/40", l2.LastSeq(), l2.OldestSeq())
	}
}

func TestWALSetStartDropsStaleLog(t *testing.T) {
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(mkBatch(0, 4)); err != nil {
		t.Fatalf("append: %v", err)
	}
	// A snapshot at position 10 supersedes every record: the log drops
	// its files and continues from 10.
	if err := l.SetStart(10); err != nil {
		t.Fatalf("set start: %v", err)
	}
	if l.LastSeq() != 10 || l.Stats().Segments != 0 {
		t.Fatalf("after SetStart: LastSeq %d, %d segments", l.LastSeq(), l.Stats().Segments)
	}
	if err := l.SetStart(9); err == nil {
		t.Fatalf("SetStart below last record must fail")
	}
	if end, err := l.Append(mkBatch(10, 2)); err != nil || end != 12 {
		t.Fatalf("append after SetStart: end %d err %v", end, err)
	}
	l.Close()
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.OldestSeq() != 10 || l2.LastSeq() != 12 {
		t.Fatalf("reopened OldestSeq %d LastSeq %d, want 10/12", l2.OldestSeq(), l2.LastSeq())
	}
}

func TestWALAppendFaultLeavesTornRecord(t *testing.T) {
	defer faultinject.Disable()
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(mkBatch(0, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	faultinject.Enable(faultinject.Config{Rate: 1, Times: 1,
		Sites: []faultinject.Site{faultinject.SiteWALAppend}})
	if _, err := l.Append(mkBatch(3, 3)); err == nil {
		t.Fatalf("injected append fault did not surface")
	}
	if l.LastSeq() != 3 {
		t.Fatalf("failed append consumed sequence numbers: LastSeq %d, want 3", l.LastSeq())
	}
	// Crash before any repair: recovery must truncate the half-written
	// frame and land exactly on the last acknowledged record.
	l.Abandon()
	faultinject.Disable()
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen over torn append: %v", err)
	}
	defer l2.Close()
	if l2.LastSeq() != 3 {
		t.Fatalf("recovered LastSeq %d, want 3", l2.LastSeq())
	}
	if l2.Stats().TornTruncations == 0 {
		t.Fatalf("torn append not repaired at open")
	}
}

func TestWALAppendFaultRepairedInPlace(t *testing.T) {
	defer faultinject.Disable()
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	faultinject.Enable(faultinject.Config{Rate: 1, Times: 1,
		Sites: []faultinject.Site{faultinject.SiteWALAppend}})
	if _, err := l.Append(mkBatch(0, 3)); err == nil {
		t.Fatalf("injected append fault did not surface")
	}
	faultinject.Disable()
	// The next append repairs the torn frame and lands the batch.
	if end, err := l.Append(mkBatch(0, 3)); err != nil || end != 3 {
		t.Fatalf("append after repair: end %d err %v", end, err)
	}
	pts, pos := collect(t, l, 0)
	if len(pts) != 3 || pos != 3 {
		t.Fatalf("replay after in-place repair: %d points to %d", len(pts), pos)
	}
}

func TestWALFsyncFaultRefusesBatch(t *testing.T) {
	defer faultinject.Disable()
	opts := testOpts(t)
	opts.Policy = SyncEveryBatch
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(mkBatch(0, 2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	faultinject.Enable(faultinject.Config{Rate: 1, Times: 1,
		Sites: []faultinject.Site{faultinject.SiteWALFsync}})
	if _, err := l.Append(mkBatch(2, 2)); err == nil {
		t.Fatalf("injected fsync fault did not surface")
	}
	faultinject.Disable()
	if l.LastSeq() != 2 || l.SyncedSeq() != 2 {
		t.Fatalf("fsync failure did not roll back: LastSeq %d SyncedSeq %d", l.LastSeq(), l.SyncedSeq())
	}
	// Retry lands the batch exactly once.
	if end, err := l.Append(mkBatch(2, 2)); err != nil || end != 4 {
		t.Fatalf("retry append: end %d err %v", end, err)
	}
	pts, pos := collect(t, l, 0)
	if len(pts) != 4 || pos != 4 {
		t.Fatalf("replay after fsync retry: %d points to %d, want 4 to 4", len(pts), pos)
	}
}

func TestWALReplayFaultSurfaces(t *testing.T) {
	defer faultinject.Disable()
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(mkBatch(0, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()
	faultinject.Enable(faultinject.Config{Rate: 1,
		Sites: []faultinject.Site{faultinject.SiteWALReplay}})
	if _, err := Open(opts); err == nil {
		t.Fatalf("injected replay read fault did not surface at open")
	} else if errors.Is(err, ErrBadLog) {
		t.Fatalf("environmental read failure misclassified as bad log: %v", err)
	}
	faultinject.Disable()
	if _, err := Open(opts); err != nil {
		t.Fatalf("healthy reopen after read fault: %v", err)
	}
}

func TestWALGroupCommitWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var fsyncs int
	opts := testOpts(t)
	opts.Policy = SyncInterval
	opts.Interval = time.Second
	opts.Now = clock
	opts.OnFsync = func(time.Duration) { fsyncs++ }
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Inside the window: appends land but do not fsync.
	for i := uint64(0); i < 3; i++ {
		if _, err := l.Append(mkBatch(i*2, 2)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if fsyncs != 0 || l.SyncedSeq() != 0 {
		t.Fatalf("group commit synced early: %d fsyncs, SyncedSeq %d", fsyncs, l.SyncedSeq())
	}
	// The window elapses: the next append group-commits everything.
	now = now.Add(2 * time.Second)
	if _, err := l.Append(mkBatch(6, 2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if fsyncs != 1 || l.SyncedSeq() != 8 {
		t.Fatalf("group commit missed the window: %d fsyncs, SyncedSeq %d", fsyncs, l.SyncedSeq())
	}
	// More un-synced appends, then a crash: the loss is bounded by the
	// group-commit window — everything synced survives.
	for i := uint64(4); i < 40; i++ {
		if _, err := l.Append(mkBatch(i*2, 2)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	synced := l.SyncedSeq()
	last := l.LastSeq()
	l.Abandon()
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got < synced || got > last {
		t.Fatalf("recovered position %d outside [synced %d, last %d]", got, synced, last)
	}
}

func TestWALParamMismatch(t *testing.T) {
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(mkBatch(0, 2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()
	bad := opts
	bad.Seed = 8
	if _, err := Open(bad); !errors.Is(err, ErrBadLog) {
		t.Fatalf("param mismatch not rejected: %v", err)
	}
}

func TestWALMidRotateCrash(t *testing.T) {
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(mkBatch(0, 4)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()
	// Crash after the rotation created (and synced) the next segment's
	// header but before any record landed in it: a header-only segment.
	next := filepath.Join(opts.Dir, segmentName(4))
	if err := os.WriteFile(next, encodeHeader(Options{Dim: 2, Directions: 8, Seed: 7}, 4), 0o644); err != nil {
		t.Fatalf("write header-only segment: %v", err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen mid-rotate: %v", err)
	}
	if l2.LastSeq() != 4 {
		t.Fatalf("mid-rotate LastSeq %d, want 4", l2.LastSeq())
	}
	if end, err := l2.Append(mkBatch(4, 2)); err != nil || end != 6 {
		t.Fatalf("append into recovered rotation: end %d err %v", end, err)
	}
	l2.Close()

	// Crash earlier still: the new segment's header itself is torn (short
	// write). Open drops the unusable header-only file.
	l3, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	l3.Close()
	torn := filepath.Join(opts.Dir, segmentName(6))
	if err := os.WriteFile(torn, []byte(Magic+"\x01\x00"), 0o644); err != nil {
		t.Fatalf("write torn header: %v", err)
	}
	l4, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen over torn rotation header: %v", err)
	}
	defer l4.Close()
	if l4.LastSeq() != 6 {
		t.Fatalf("torn-rotation LastSeq %d, want 6", l4.LastSeq())
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn rotation header not removed")
	}
}

// TestWALDirectoryLockAndOwner pins the one-log-per-directory guard: a
// second Open of a live directory and an Open by another owner both fail
// with ErrDirInUse, and so does Remove; Close and Abandon release the
// lock; a directory without a lock file, as a build without the lock
// left it, is adopted by its first owner.
func TestWALDirectoryLockAndOwner(t *testing.T) {
	opts := testOpts(t)
	opts.Owner = "a.snap"
	other := opts
	other.Owner = "b.snap"
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(mkBatch(0, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := Open(opts); !errors.Is(err, ErrDirInUse) {
		t.Fatalf("second open of a live directory: %v, want ErrDirInUse", err)
	}
	if err := Remove(opts.Dir, opts.Owner); !errors.Is(err, ErrDirInUse) {
		t.Fatalf("remove of a live directory: %v, want ErrDirInUse", err)
	}
	l.Abandon()

	if _, err := Open(other); !errors.Is(err, ErrDirInUse) {
		t.Fatalf("open by another owner: %v, want ErrDirInUse", err)
	}
	if err := Remove(other.Dir, other.Owner); !errors.Is(err, ErrDirInUse) {
		t.Fatalf("remove by another owner: %v, want ErrDirInUse", err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after Abandon: %v", err)
	}
	if l2.LastSeq() != 3 {
		t.Fatalf("reopened log ends at %d, want 3", l2.LastSeq())
	}
	l2.Close()

	if err := os.Remove(filepath.Join(opts.Dir, lockName)); err != nil {
		t.Fatalf("remove lock file: %v", err)
	}
	l3, err := Open(other)
	if err != nil {
		t.Fatalf("adopt a log without a lock file: %v", err)
	}
	if l3.LastSeq() != 3 {
		t.Fatalf("adopted log ends at %d, want 3", l3.LastSeq())
	}
	l3.Close()
	if err := Remove(other.Dir, other.Owner); err != nil {
		t.Fatalf("remove by the owner: %v", err)
	}
	if _, err := os.Stat(other.Dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("log directory survived Remove: %v", err)
	}
	if err := Remove(other.Dir, other.Owner); err != nil {
		t.Fatalf("remove of a missing directory: %v", err)
	}
}

func TestWALMidTruncateCrash(t *testing.T) {
	opts := testOpts(t)
	opts.SegmentBytes = 150
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 12; i++ {
		if _, err := l.Append(mkBatch(i*2, 2)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	segs := append(append([]segment{}, l.segments...), l.active)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	l.Close()
	// Crash after truncation removed only the oldest file: the remaining
	// log starts mid-stream but is still contiguous.
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatalf("remove oldest: %v", err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen mid-truncate: %v", err)
	}
	if l2.OldestSeq() != segs[1].baseSeq || l2.LastSeq() != 24 {
		t.Fatalf("mid-truncate OldestSeq %d LastSeq %d, want %d/24",
			l2.OldestSeq(), l2.LastSeq(), segs[1].baseSeq)
	}
	l2.Close()
	// A hole in the MIDDLE is corruption, not truncation: removing a
	// non-prefix segment must refuse to open.
	if err := os.Remove(segs[2].path); err != nil {
		t.Fatalf("remove middle: %v", err)
	}
	if len(segs) > 3 {
		if _, err := Open(opts); !errors.Is(err, ErrBadLog) {
			t.Fatalf("mid-log hole not rejected: %v", err)
		}
	}
}

func TestWALStartsAtZeroAndPeekHeader(t *testing.T) {
	opts := testOpts(t)
	if StartsAtZero(opts.Dir) {
		t.Fatalf("empty dir claims stream coverage")
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if StartsAtZero(opts.Dir) {
		t.Fatalf("recordless log claims stream coverage")
	}
	if _, err := l.Append(mkBatch(0, 2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()
	if !StartsAtZero(opts.Dir) {
		t.Fatalf("log with records from 0 not recognized")
	}
	d, m, seed, ok := PeekHeader(opts.Dir)
	if !ok || d != 2 || m != 8 || seed != 7 {
		t.Fatalf("PeekHeader = (%d, %d, %d, %v), want (2, 8, 7, true)", d, m, seed, ok)
	}

	// After SetStart (snapshot ahead of log) the log no longer covers 0.
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l2.SetStart(5); err != nil {
		t.Fatalf("set start: %v", err)
	}
	if _, err := l2.Append(mkBatch(5, 2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l2.Close()
	if StartsAtZero(opts.Dir) {
		t.Fatalf("log starting at 5 claims coverage from 0")
	}
}

// TestWALReplayGapRejected pins the gap guard: when the log's
// replayable records start past the replay position — points that exist
// in neither the snapshot nor the log — Replay must refuse with
// ErrBadLog instead of silently skipping the hole and reporting the
// log's end as the restored position.
func TestWALReplayGapRejected(t *testing.T) {
	opts := testOpts(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	// A log whose oldest record starts at 10 (a checkpoint at 10
	// truncated everything before it).
	if err := l.SetStart(10); err != nil {
		t.Fatalf("set start: %v", err)
	}
	if _, err := l.Append(mkBatch(10, 4)); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Replaying onto a snapshot at position 5 would skip points 5..10.
	if _, _, err := l.Replay(5, func([][]float64) error { return nil }); !errors.Is(err, ErrBadLog) {
		t.Fatalf("replay across gap returned %v, want ErrBadLog", err)
	}
	// At or past the log's start the replay is sound.
	pts, pos := collect(t, l, 10)
	if len(pts) != 4 || pos != 14 {
		t.Fatalf("aligned replay: %d points to %d, want 4 to 14", len(pts), pos)
	}
}

// TestWALMidLogTornHeaderIsBadLog pins the corruption classification: a
// truncated or empty segment header in the MIDDLE of the log is a hole
// — ErrBadLog, the class the recovery ladder's replay_wal rung keys on
// — not a bare read error that would quarantine as start_failed and
// escalate recovery to a full stream reset.
func TestWALMidLogTornHeaderIsBadLog(t *testing.T) {
	for _, tear := range []struct {
		name string
		size int64
	}{
		{"truncated-header", headerSize / 2},
		{"empty-file", 0},
	} {
		t.Run(tear.name, func(t *testing.T) {
			opts := testOpts(t)
			opts.SegmentBytes = 150 // several records per segment
			l, err := Open(opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := uint64(0); i < 12; i++ {
				if _, err := l.Append(mkBatch(i*2, 2)); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if len(l.segments) < 1 {
				t.Fatalf("need a sealed segment, have %d", len(l.segments))
			}
			first := l.segments[0].path
			l.Close()
			if err := os.Truncate(first, tear.size); err != nil {
				t.Fatalf("tear header: %v", err)
			}
			if _, err := Open(opts); !errors.Is(err, ErrBadLog) {
				t.Fatalf("mid-log torn header classified as %v, want ErrBadLog", err)
			}
		})
	}
}

// hostileCountSegment encodes a CRC-valid segment whose single record
// carries an inflated count chosen so count*uint32(8*dim) wraps uint32
// back to the true payload size: 32-bit validation passes, and decoding
// the record's points would index far past the payload's end.
func hostileCountSegment() []byte {
	const count = 1<<28 + 1 // count*16 == 1<<32 + 16, wraps to 16
	payload := make([]byte, recFixedSize+16)
	binary.LittleEndian.PutUint64(payload[0:8], count) // endSeq = prevEnd + count
	binary.LittleEndian.PutUint32(payload[8:12], count)
	frame := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[recHeaderSize:], payload)
	return append(encodeHeader(Options{Dim: 2, Directions: 8, Seed: 7}, 0), frame...)
}

// TestWALHostileCountOverflow pins the widened count check: the crafted
// record must be rejected as torn (truncated at Open, erroring cleanly
// in DecodeSegment) — with 32-bit arithmetic it passed validation and
// the point decode panicked indexing past the payload during replay.
func TestWALHostileCountOverflow(t *testing.T) {
	opts := testOpts(t)
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	data := hostileCountSegment()
	if err := os.WriteFile(filepath.Join(opts.Dir, segmentName(0)), data, 0o644); err != nil {
		t.Fatalf("write hostile segment: %v", err)
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open over hostile record: %v", err)
	}
	defer l.Close()
	if l.LastSeq() != 0 || l.Stats().TornTruncations == 0 {
		t.Fatalf("hostile record not truncated: LastSeq %d, torn %d",
			l.LastSeq(), l.Stats().TornTruncations)
	}
	if pts, pos := collect(t, l, 0); len(pts) != 0 || pos != 0 {
		t.Fatalf("replay after hostile truncation: %d points to %d", len(pts), pos)
	}
	if _, _, valid, _ := DecodeSegment(data, 2); valid != headerSize {
		t.Fatalf("DecodeSegment accepted %d bytes of hostile record, want %d (header only)", valid, headerSize)
	}
}

// TestWALFileTracksAckedBytes pins the no-user-space-buffer invariant
// repairActive's safety depends on: after every acknowledged append —
// fsynced or not — the active file is exactly active.size bytes, so
// truncating to active.size after a torn frame can only shrink the
// file. (With buffered writes, acked records could sit in the buffer
// while active.size counted them; a repair's truncate then EXTENDED the
// shorter file with zeros, and recovery treated the hole as a torn tail
// — losing records acked and fsynced after the repair.)
func TestWALFileTracksAckedBytes(t *testing.T) {
	defer faultinject.Disable()
	opts := testOpts(t)
	opts.Policy = SyncOff // nothing fsyncs: the invariant must not depend on Sync
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	checkSize := func(when string) {
		t.Helper()
		fi, err := os.Stat(l.active.path)
		if err != nil {
			t.Fatalf("%s: stat: %v", when, err)
		}
		if fi.Size() != l.active.size {
			t.Fatalf("%s: file %d bytes, active.size %d — acked records not on file", when, fi.Size(), l.active.size)
		}
	}
	seq := uint64(0)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(mkBatch(seq, 3)); err != nil {
			t.Fatalf("append: %v", err)
		}
		seq += 3
		checkSize("after unsynced append")
	}
	// A torn frame, then a repair: the truncation lands exactly on the
	// acked prefix and every earlier unsynced record survives.
	faultinject.Enable(faultinject.Config{Rate: 1, Times: 1,
		Sites: []faultinject.Site{faultinject.SiteWALAppend}})
	if _, err := l.Append(mkBatch(seq, 3)); err == nil {
		t.Fatalf("injected append fault did not surface")
	}
	faultinject.Disable()
	if _, err := l.Append(mkBatch(seq, 3)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	seq += 3
	checkSize("after repair")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	pts, pos := collect(t, l2, 0)
	if pos != seq || uint64(len(pts)) != seq {
		t.Fatalf("replay after repair: %d points to %d, want %d", len(pts), pos, seq)
	}
	for i, p := range pts {
		if p[0] != float64(i) {
			t.Fatalf("replayed point %d = %v: hole or reorder in the log", i, p)
		}
	}
}

// TestWALCrashPointMatrix drives a seeded schedule of appends, syncs,
// truncations, rotations, and crashes — with append/fsync faults
// injected at random — and asserts the fundamental invariant after
// every recovery: the reopened log's position equals the last
// successfully acknowledged append (per-batch sync), and replay yields
// exactly the acknowledged prefix of the stream.
func TestWALCrashPointMatrix(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer faultinject.Disable()
			rng := rand.New(rand.NewSource(seed))
			opts := testOpts(t)
			opts.Policy = SyncEveryBatch
			opts.SegmentBytes = 256 // rotate often so kills land mid-everything

			acked := uint64(0) // last successfully acknowledged position
			// A failed-fsync append leaves a fully-flushed valid frame on
			// disk that in-memory rollback refuses to ack; if the process
			// dies before the next append repairs it, recovery may land
			// on its end — the documented restored >= acked window.
			overhang := uint64(0)
			for round := 0; round < 8; round++ {
				l, err := Open(opts)
				if err != nil {
					t.Fatalf("round %d: open: %v", round, err)
				}
				if got := l.LastSeq(); got != acked && got != overhang {
					t.Fatalf("round %d: recovered position %d, want acknowledged %d (or unacked overhang %d)",
						round, got, acked, overhang)
				} else if got > acked {
					acked = got // adopt the recovered unacked frame
				}
				overhang = 0
				for op := 0; op < 6+rng.Intn(10); op++ {
					switch rng.Intn(10) {
					case 0: // injected append fault: torn frame, no ack
						faultinject.Enable(faultinject.Config{Seed: seed, Rate: 1, Times: 1,
							Sites: []faultinject.Site{faultinject.SiteWALAppend}})
						if _, err := l.Append(mkBatch(acked, 1+rng.Intn(4))); err == nil {
							t.Fatalf("round %d: injected append fault did not surface", round)
						}
						faultinject.Disable()
						overhang = 0 // repair dropped any earlier overhang; the torn half-frame never decodes
					case 1: // injected fsync fault: rollback, no ack
						n := 1 + rng.Intn(4)
						faultinject.Enable(faultinject.Config{Seed: seed, Rate: 1, Times: 1,
							Sites: []faultinject.Site{faultinject.SiteWALFsync}})
						if _, err := l.Append(mkBatch(acked, n)); err == nil {
							t.Fatalf("round %d: injected fsync fault did not surface", round)
						}
						faultinject.Disable()
						overhang = acked + uint64(n) // flushed but unacked frame may survive a crash
					case 2: // checkpoint: truncate through a durable prefix
						cut := acked - uint64(rng.Intn(int(acked)+1))
						if err := l.TruncateThrough(cut); err != nil {
							t.Fatalf("round %d: truncate(%d): %v", round, cut, err)
						}
					default: // normal acknowledged append
						n := 1 + rng.Intn(5)
						end, err := l.Append(mkBatch(acked, n))
						if err != nil {
							t.Fatalf("round %d: append: %v", round, err)
						}
						if end != acked+uint64(n) {
							t.Fatalf("round %d: end %d, want %d", round, end, acked+uint64(n))
						}
						acked = end
						overhang = 0 // a successful append repaired any unacked frame first
					}
				}
				// Crash or clean close — per-batch sync makes them equal.
				if rng.Intn(2) == 0 {
					l.Abandon()
				} else if err := l.Close(); err != nil {
					t.Fatalf("round %d: close: %v", round, err)
				}
			}

			// Final recovery: position == acknowledged (or the one
			// permissible unacked overhang), replay contiguous.
			l, err := Open(opts)
			if err != nil {
				t.Fatalf("final open: %v", err)
			}
			defer l.Close()
			if got := l.LastSeq(); got != acked && got != overhang {
				t.Fatalf("final position %d, acknowledged %d (overhang %d)", got, acked, overhang)
			} else if got > acked {
				acked = got
			}
			after := l.OldestSeq()
			pts, pos := collect(t, l, after)
			if pos != acked || uint64(len(pts)) != acked-after {
				t.Fatalf("final replay: %d points to %d, want %d to %d", len(pts), pos, acked-after, acked)
			}
			// Each replayed point carries its own absolute stream
			// position in its first coordinate — check contiguity.
			for i, p := range pts {
				if want := float64(after + uint64(i)); p[0] != want {
					t.Fatalf("replayed point %d = %v, want first coord %v", i, p, want)
				}
			}
		})
	}
}
