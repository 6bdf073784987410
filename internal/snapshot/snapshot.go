// Package snapshot makes the streaming layer's mergeable summaries
// durable: a versioned binary codec for stream.Summary and a two-
// generation on-disk store with crash-safe writes.
//
// Codec (format v1, little-endian):
//
//	magic   [4]byte  "MCSS"
//	version uint16   1
//	reserved uint16  0
//	generation uint64
//	savedAt int64    unix nanoseconds of the save (0 = unknown)
//	d       uint32   point dimension
//	m       uint32   requested direction count
//	seed    int64    direction-net seed
//	n       uint64   stream points consumed
//	slots   uint32   number of non-empty champion slots
//	slots × {index uint32, value uint64 (float64 bits),
//	         point d × uint64 (float64 bits)}
//	crc     uint32   IEEE CRC-32 of every preceding byte
//
// The direction net is NOT serialized: it is a pure function of
// (m, d, seed), so Decode rebuilds it deterministically and a restored
// summary merges with any live summary built from the same parameters.
// Round-trips are bitwise exact (champion coordinates and inner products
// travel as raw float64 bits).
//
// The Store writes each generation to a temp file, fsyncs it, rotates
// the current snapshot to a ".prev" generation, renames the temp file
// into place, and fsyncs the directory. Load verifies magic, framing,
// and CRC, and falls back to the previous generation when the current
// one is missing, truncated, torn, or corrupt — so a crash at any point
// of the write protocol loses at most the points since the last
// durable generation. Fault-injection hooks (faultinject's
// SiteSnapshotWrite / SiteSnapshotFsync / SiteSnapshotRead) cover every
// syscall edge so the recovery path is testable without a real disk
// failure.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"mincore/internal/faultinject"
	"mincore/internal/stream"
)

// Format constants.
const (
	// Magic identifies a mincore stream-summary snapshot.
	Magic = "MCSS"
	// Version is the current (and only) format version.
	Version uint16 = 1
	// PrevSuffix is appended to a store path for the previous good
	// generation kept as the crash-recovery fallback.
	PrevSuffix = ".prev"

	// maxDim bounds the header dimension field so a corrupt header
	// cannot drive a giant allocation before the CRC is checked.
	maxDim = 1 << 20
)

// ErrBadSnapshot marks a snapshot that cannot be decoded: wrong magic,
// an unsupported (future) version, a truncated or torn payload, a CRC
// mismatch, or a structurally invalid summary state. Loaders must treat
// it as "this generation is gone", never panic.
var ErrBadSnapshot = errors.New("snapshot: bad snapshot")

// Meta is the store-level metadata stamped into each snapshot file.
type Meta struct {
	// Generation is a monotonically increasing save counter; higher
	// generations supersede lower ones.
	Generation uint64
	// SavedAt is the wall-clock time of the save (zero when unknown).
	SavedAt time.Time
}

// Encode writes a summary's state as a format-v1 snapshot to w.
func Encode(w io.Writer, st stream.State, meta Meta) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	var savedAt int64
	if !meta.SavedAt.IsZero() {
		savedAt = meta.SavedAt.UnixNano()
	}
	if _, err := mw.Write([]byte(Magic)); err != nil {
		return err
	}
	for _, v := range []any{
		Version, uint16(0), meta.Generation, savedAt,
		uint32(st.D), uint32(st.M), st.Seed, uint64(st.N), uint32(len(st.Slots)),
	} {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, sl := range st.Slots {
		if err := binary.Write(mw, binary.LittleEndian, uint32(sl.Index)); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, math.Float64bits(sl.Value)); err != nil {
			return err
		}
		for _, c := range sl.Point {
			if err := binary.Write(mw, binary.LittleEndian, math.Float64bits(c)); err != nil {
				return err
			}
		}
	}
	// Trailer: CRC of everything above, written to w only.
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// crcReader tees every byte read into a CRC so Decode can verify the
// trailer without buffering the payload.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.crc.Write(p[:n])
	}
	return n, err
}

// readLE reads one little-endian value, mapping io.EOF /
// io.ErrUnexpectedEOF to ErrBadSnapshot (a short read is a truncated or
// torn snapshot, not an I/O environment failure).
func readLE(r io.Reader, v any) error {
	if err := binary.Read(r, binary.LittleEndian, v); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: truncated (%v)", ErrBadSnapshot, err)
		}
		return err
	}
	return nil
}

// Decode reads a snapshot from r and rebuilds the summary. Malformed
// input of any kind — wrong magic, future version, short read, flipped
// bits — returns an error wrapping ErrBadSnapshot; errors from the
// reader itself (other than premature EOF) pass through untouched.
func Decode(r io.Reader) (*stream.Summary, Meta, error) {
	cr := &crcReader{r: r, crc: crc32.NewIEEE()}

	var magic [4]byte
	if err := readLE(cr, &magic); err != nil {
		return nil, Meta{}, err
	}
	if string(magic[:]) != Magic {
		return nil, Meta{}, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	var version, reserved uint16
	if err := readLE(cr, &version); err != nil {
		return nil, Meta{}, err
	}
	if version != Version {
		return nil, Meta{}, fmt.Errorf("%w: unsupported format version %d (max %d)", ErrBadSnapshot, version, Version)
	}
	if err := readLE(cr, &reserved); err != nil {
		return nil, Meta{}, err
	}

	var meta Meta
	var savedAt int64
	var d, m, slots uint32
	var seed int64
	var n uint64
	for _, v := range []any{&meta.Generation, &savedAt, &d, &m, &seed, &n, &slots} {
		if err := readLE(cr, v); err != nil {
			return nil, Meta{}, err
		}
	}
	if savedAt != 0 {
		meta.SavedAt = time.Unix(0, savedAt)
	}
	if d == 0 || d > maxDim {
		return nil, Meta{}, fmt.Errorf("%w: dimension %d out of range", ErrBadSnapshot, d)
	}
	if n > math.MaxInt64 {
		return nil, Meta{}, fmt.Errorf("%w: point count %d out of range", ErrBadSnapshot, n)
	}

	st := stream.State{M: int(m), D: int(d), Seed: seed, N: int(n)}
	for i := uint32(0); i < slots; i++ {
		var idx uint32
		var bits uint64
		if err := readLE(cr, &idx); err != nil {
			return nil, Meta{}, err
		}
		if err := readLE(cr, &bits); err != nil {
			return nil, Meta{}, err
		}
		sl := stream.Slot{Index: int(idx), Value: math.Float64frombits(bits), Point: make([]float64, d)}
		for j := range sl.Point {
			if err := readLE(cr, &bits); err != nil {
				return nil, Meta{}, err
			}
			sl.Point[j] = math.Float64frombits(bits)
		}
		st.Slots = append(st.Slots, sl)
	}

	sum := cr.crc.Sum32() // CRC of everything up to (not including) the trailer
	var trailer uint32
	if err := readLE(cr, &trailer); err != nil {
		return nil, Meta{}, err
	}
	if trailer != sum {
		return nil, Meta{}, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrBadSnapshot, trailer, sum)
	}

	s, err := stream.FromState(st)
	if err != nil {
		// CRC-valid but semantically impossible: an encoder bug or a
		// hand-crafted file; either way the generation is unusable.
		return nil, Meta{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s, meta, nil
}

// Store persists summary generations at a fixed path. It is not
// goroutine-safe; the ingest service serializes access to it.
type Store struct {
	path string
	gen  uint64 // last generation observed (loaded or saved)
	now  func() time.Time
}

// NewStore returns a store writing snapshots to path (the previous
// generation lives at path + PrevSuffix).
func NewStore(path string) *Store {
	return &Store{path: path, now: time.Now}
}

// Path returns the store's primary snapshot path.
func (st *Store) Path() string { return st.path }

// Generation returns the last generation saved or loaded.
func (st *Store) Generation() uint64 { return st.gen }

// faultyWriter injects SiteSnapshotWrite failures: a firing hit writes
// only half the buffer and reports an error, leaving a torn temp file
// exactly as a failing disk would.
type faultyWriter struct{ w io.Writer }

func (fw faultyWriter) Write(p []byte) (int, error) {
	if faultinject.Fail(faultinject.SiteSnapshotWrite) {
		n, _ := fw.w.Write(p[:len(p)/2])
		return n, fmt.Errorf("snapshot: injected write failure")
	}
	return fw.w.Write(p)
}

// faultyReader injects SiteSnapshotRead failures on each Read call.
type faultyReader struct{ r io.Reader }

func (fr faultyReader) Read(p []byte) (int, error) {
	if faultinject.Fail(faultinject.SiteSnapshotRead) {
		return 0, fmt.Errorf("snapshot: injected read failure")
	}
	return fr.r.Read(p)
}

// Save writes a summary's state as the next generation using the
// crash-safe protocol: temp file, fsync, rotate current → previous,
// rename temp into place, fsync directory. On any error the current and previous generations on
// disk are untouched (the temp file may remain and is reclaimed by the
// next successful Save). The generation counter advances only on
// success, so a failed save retried later reuses the same number.
func (st *Store) Save(s stream.State) (Meta, error) {
	meta := Meta{Generation: st.gen + 1, SavedAt: st.now()}
	tmp := st.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Meta{}, err
	}
	bw := bufio.NewWriter(faultyWriter{w: f})
	if err := Encode(bw, s, meta); err != nil {
		f.Close()
		return Meta{}, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return Meta{}, err
	}
	if faultinject.Fail(faultinject.SiteSnapshotFsync) {
		f.Close()
		return Meta{}, fmt.Errorf("snapshot: injected fsync failure")
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Meta{}, err
	}
	if err := f.Close(); err != nil {
		return Meta{}, err
	}
	// Rotate: the current generation becomes the fallback. A crash
	// between the two renames leaves only ".prev", which Load finds.
	if _, err := os.Stat(st.path); err == nil {
		if err := os.Rename(st.path, st.path+PrevSuffix); err != nil {
			return Meta{}, err
		}
	}
	if err := os.Rename(tmp, st.path); err != nil {
		return Meta{}, err
	}
	syncDir(filepath.Dir(st.path))
	st.gen = meta.Generation
	return meta, nil
}

// Load restores the newest decodable generation: the current snapshot,
// or — when it is missing, truncated, torn, or corrupt — the previous
// one. os.ErrNotExist (wrapped) means no generation exists at all;
// ErrBadSnapshot means generations exist but none is usable.
func (st *Store) Load() (*stream.Summary, Meta, error) {
	s, meta, errCur := st.loadFile(st.path)
	if errCur == nil {
		st.gen = meta.Generation
		return s, meta, nil
	}
	s, meta, errPrev := st.loadFile(st.path + PrevSuffix)
	if errPrev == nil {
		st.gen = meta.Generation
		return s, meta, nil
	}
	if errors.Is(errCur, os.ErrNotExist) && errors.Is(errPrev, os.ErrNotExist) {
		return nil, Meta{}, fmt.Errorf("snapshot: no generation at %s: %w", st.path, os.ErrNotExist)
	}
	// At least one generation exists but none decodes. Keep only the
	// substantive errors in the join: letting an ENOENT member through
	// would make errors.Is(err, os.ErrNotExist) true for the combined
	// error, and callers distinguishing "no snapshot, fresh start" from
	// "snapshot present but unusable" would silently start empty over a
	// corrupt-but-possibly-salvageable generation.
	errs := make([]error, 0, 2)
	for _, e := range []error{errCur, errPrev} {
		if !errors.Is(e, os.ErrNotExist) {
			errs = append(errs, e)
		}
	}
	return nil, Meta{}, fmt.Errorf("snapshot: no loadable generation at %s: %w", st.path, errors.Join(errs...))
}

// DiscardCurrent removes the current generation so the next Load falls
// back to the previous one — the "go back one generation" arm of tenant
// recovery, used when the current snapshot is corrupt beyond Load's own
// automatic fallback (e.g. the manifest and snapshot disagree). The
// previous generation and any temp file are untouched. Removing a
// snapshot that does not exist is not an error.
func (st *Store) DiscardCurrent() error {
	if err := os.Remove(st.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	syncDir(filepath.Dir(st.path))
	return nil
}

// Reset removes every generation (current, previous, and temp) — the
// last-resort arm of tenant recovery: the stream restarts empty and
// producers must replay from offset 0. The first removal error is
// returned, but all three paths are attempted.
func (st *Store) Reset() error {
	var firstErr error
	for _, p := range []string{st.path, st.path + PrevSuffix, st.path + ".tmp"} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	syncDir(filepath.Dir(st.path))
	if firstErr == nil {
		st.gen = 0
	}
	return firstErr
}

func (st *Store) loadFile(path string) (*stream.Summary, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	return Decode(bufio.NewReader(faultyReader{r: f}))
}

// syncDir fsyncs a directory so a rename survives power loss;
// best-effort because some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	d.Sync()
}
