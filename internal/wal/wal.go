// Package wal provides the per-tenant write-ahead log that closes the
// serve layer's ack-vs-durable gap: a segmented, append-only,
// CRC32-framed record log that `Feed` appends to (and syncs per policy)
// before acknowledging a batch, so the happy-path ack means durable.
//
// Segment files are named %016x.wal by the stream position (sequence
// number) before their first record, and carry a versioned header
// mirroring the MCSS snapshot header fields (format v1, little-endian):
//
//	magic    [4]byte  "MCWL"
//	version  uint16   1
//	reserved uint16   0
//	d        uint32   point dimension
//	m        uint32   requested direction count
//	seed     int64    direction-net seed
//	baseSeq  uint64   stream position before the first record
//	crc      uint32   IEEE CRC-32 of every preceding header byte
//
// followed by zero or more length-prefixed records:
//
//	recLen  uint32   payload length = 12 + count·d·8
//	recCRC  uint32   IEEE CRC-32 of the payload
//	payload          endSeq uint64, count uint32,
//	                 count × d × uint64 (float64 bits)
//
// endSeq is the absolute cumulative stream position (in points) after
// the record's batch; successive records are contiguous (endSeq ==
// prevEnd + count), so the sequence number doubles as the idempotence
// key: replay skips whole records at or below the snapshot position and
// partially skips a straddling record, making at-least-once replay
// effectively-once and the restored stream position exact.
//
// The directory also holds a LOCK file that Open flocks for the log's
// lifetime and stamps with its Owner, so one directory never carries
// two streams (see ErrDirInUse).
//
// A decode failure at the tail of the newest segment — a short frame, a
// CRC mismatch, a sequence discontinuity — is a torn tail: Open
// truncates the file back to the last valid record and continues. The
// same failure in an older segment is a hole in the middle of the log
// and surfaces as ErrBadLog. Reads through injected faults
// (faultinject.SiteWALReplay) surface as plain errors, never as silent
// truncation.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mincore/internal/faultinject"
)

// Format constants.
const (
	// Magic identifies a mincore write-ahead-log segment.
	Magic = "MCWL"
	// Version is the current (and only) segment format version.
	Version uint16 = 1

	// headerSize is the fixed encoded size of a segment header.
	headerSize = 4 + 2 + 2 + 4 + 4 + 8 + 8 + 4

	// recHeaderSize is the length+CRC frame prefix of each record.
	recHeaderSize = 8
	// recFixedSize is the fixed (endSeq, count) prefix of a payload.
	recFixedSize = 12

	// maxRecBytes bounds a record frame so a corrupt length field
	// cannot drive a giant allocation before the CRC is checked.
	maxRecBytes = 1 << 26

	// maxDim mirrors the snapshot codec's header-dimension bound.
	maxDim = 1 << 20

	// DefaultSegmentBytes is the rotation threshold when Options does
	// not set one.
	DefaultSegmentBytes = 4 << 20
)

// ErrDirInUse marks a log directory that Open and Remove refuse because
// another live log holds its lock, or because its lock file records a
// different owner. Either way a second stream would mix its records
// into this one's log, so the caller must fail rather than recover.
var ErrDirInUse = errors.New("wal: log directory in use")

// ErrBadLog marks a log that cannot be opened or replayed: a segment
// header with the wrong magic, a future version, parameters that do not
// match the stream, or a hole (sequence discontinuity) in the middle of
// the log. A torn tail on the newest segment is NOT ErrBadLog — Open
// repairs it silently.
var ErrBadLog = errors.New("wal: bad log")

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs before Append returns: acknowledged means
	// durable, at one fsync per batch.
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval group-commits: Append fsyncs only when at least
	// Interval has elapsed since the last sync, bounding loss by the
	// group-commit window.
	SyncInterval
	// SyncOff never fsyncs on append (only on rotate and Close); loss
	// on crash is bounded by the OS page cache. Records are written
	// straight to the file on every append — there is no user-space
	// write buffer.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a log.
type Options struct {
	// Dir is the directory holding the segment files; created if
	// missing.
	Dir string
	// Dim is the point dimension; required, stamped into segment
	// headers and used to validate record framing.
	Dim int
	// Directions and Seed mirror the MCSS snapshot header fields so a
	// segment can be matched to its stream.
	Directions int
	Seed       int64
	// Owner names the stream the directory belongs to; the ingest
	// service passes its snapshot file's base name. Open records it in
	// the directory's lock file on first use and refuses a directory
	// recorded for another owner.
	Owner string
	// SegmentBytes is the rotation threshold; DefaultSegmentBytes when
	// zero or negative.
	SegmentBytes int64
	// Policy selects the sync policy; Interval applies to SyncInterval.
	Policy   SyncPolicy
	Interval time.Duration
	// OnFsync, when non-nil, is invoked after every successful fsync
	// with the wall time the barrier took (metrics hook: fsync counters
	// and latency histograms).
	OnFsync func(d time.Duration)
	// Now is the clock for the group-commit window; time.Now when nil.
	Now func() time.Time
}

// Stats is a point-in-time snapshot of the log's footprint.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int
	// Bytes is the total size of all live segment files.
	Bytes int64
	// LastSeq is the stream position after the last appended record.
	LastSeq uint64
	// SyncedSeq is the stream position known durable (fsynced).
	SyncedSeq uint64
	// TornTruncations counts torn tails repaired at Open.
	TornTruncations uint64
}

// segment is one live segment file.
type segment struct {
	path    string
	baseSeq uint64
	endSeq  uint64
	size    int64
}

// Log is a segmented write-ahead log. It is not goroutine-safe; the
// ingest service serializes access to it.
//
// Record frames are written directly to the file — never via a
// user-space buffer — so the active file always holds every
// acknowledged record in full. That invariant is what makes
// repairActive's truncation safe: the file can only be LONGER than
// active.size (by one torn frame), never shorter, so truncating to
// active.size can never zero-extend the file and punch a hole in the
// middle of the log.
type Log struct {
	opts     Options
	segments []segment // sealed segments, oldest first
	active   segment
	f        *os.File
	lock     *os.File // holds the directory lock until Close or Abandon

	nextSeq   uint64 // stream position after the last appended record
	syncedSeq uint64 // position after the last record fsynced
	torn      uint64 // torn tails repaired at Open
	lastSync  time.Time
	broken    bool // active file may hold a torn frame; repair before next append
	closed    bool
}

// Open locks dir, scans it, repairs a torn tail on the newest segment,
// and returns a log positioned after the last valid record. A missing or
// empty dir is a fresh log at sequence 0. A directory another live log
// holds, or one recorded for another Owner, fails with ErrDirInUse.
func Open(opts Options) (*Log, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("wal: dimension must be positive, got %d", opts.Dim)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(opts.Dir, opts.Owner)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, lock: lock}
	if err := l.scan(); err != nil {
		lock.Close()
		return nil, err
	}
	l.lastSync = opts.Now()
	return l, nil
}

// lockName is the lock file inside a log directory. It is not a
// segment: scans skip it.
const lockName = "LOCK"

// lockDir opens dir's lock file and takes its exclusive lock, so two
// live logs never append to one directory. The first owner to lock the
// directory is recorded in the file; a later owner with another name
// is refused, which keeps a stream from replaying a log that a sibling
// snapshot path left behind. A log directory from a build without the
// lock file is adopted by its first owner.
func lockDir(dir, owner string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	ok, err := tryLock(f)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %s is held by another open log", ErrDirInUse, dir)
	}
	if err == nil {
		err = claim(f, dir, owner)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// claim checks the owner recorded in the lock file f, recording owner
// when the file is still empty.
func claim(f *os.File, dir, owner string) error {
	got, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	switch string(got) {
	case owner:
		return nil
	case "":
		if _, err := f.WriteAt([]byte(owner), 0); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		syncDir(dir)
		return nil
	default:
		return fmt.Errorf("%w: %s belongs to %q, not %q — each snapshot path needs a directory of its own",
			ErrDirInUse, dir, got, owner)
	}
}

// segmentName returns the file name for a segment starting at baseSeq.
func segmentName(baseSeq uint64) string {
	return fmt.Sprintf("%016x.wal", baseSeq)
}

// scan reads every segment in order, validating headers and record
// contiguity, truncating a torn tail on the newest segment, and leaves
// the log positioned for appends (active file open at its end).
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), ".wal"), 16, 64); err != nil {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	prevEnd := uint64(0)
	for i, name := range names {
		path := filepath.Join(l.opts.Dir, name)
		last := i == len(names)-1
		seg, err := l.scanSegment(path, last)
		if err != nil {
			if last && errors.Is(err, errTornHeader) {
				// A crash during rotation can leave a newest segment
				// with a torn header and no records: drop it.
				if rmErr := os.Remove(path); rmErr != nil {
					return rmErr
				}
				l.torn++
				continue
			}
			return err
		}
		if i > 0 && seg.baseSeq != prevEnd {
			return fmt.Errorf("%w: segment %s starts at seq %d, previous ends at %d", ErrBadLog, name, seg.baseSeq, prevEnd)
		}
		prevEnd = seg.endSeq
		l.segments = append(l.segments, seg)
	}
	if n := len(l.segments); n > 0 {
		l.active = l.segments[n-1]
		l.segments = l.segments[:n-1]
		l.nextSeq = l.active.endSeq
		f, err := os.OpenFile(l.active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Seek(l.active.size, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		l.f = f
	}
	l.syncedSeq = l.nextSeq
	return nil
}

// errTornHeader marks a segment too short to hold a valid header.
var errTornHeader = errors.New("wal: torn segment header")

// replayReader injects SiteWALReplay failures on each Read call.
type replayReader struct{ r io.Reader }

func (rr replayReader) Read(p []byte) (int, error) {
	if faultinject.Fail(faultinject.SiteWALReplay) {
		return 0, fmt.Errorf("wal: injected replay read failure")
	}
	return rr.r.Read(p)
}

// scanSegment validates one segment file. For the newest segment
// (tail=true) a torn or corrupt record tail is truncated back to the
// last valid record; for older segments it is a hole and an error.
func (l *Log) scanSegment(path string, tail bool) (segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return segment{}, err
	}
	defer f.Close()
	br := bufio.NewReader(replayReader{r: f})

	hdr, err := readHeader(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			if tail {
				return segment{}, errTornHeader
			}
			// A truncated (or empty) header mid-log is a hole, the same
			// class as a corrupt mid-log record: ErrBadLog, so the
			// recovery ladder's replay_wal rung can drop just the log
			// instead of escalating to a full stream reset.
			return segment{}, fmt.Errorf("%w: truncated segment header in %s", ErrBadLog, filepath.Base(path))
		}
		return segment{}, err
	}
	if err := l.checkHeader(path, hdr); err != nil {
		return segment{}, err
	}

	seg := segment{path: path, baseSeq: hdr.baseSeq, endSeq: hdr.baseSeq, size: headerSize}
	for {
		n, endSeq, err := scanRecord(br, l.opts.Dim, seg.endSeq)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if errors.Is(err, errTornRecord) {
				if !tail {
					return segment{}, fmt.Errorf("%w: corrupt record mid-log in %s at offset %d: %v", ErrBadLog, path, seg.size, err)
				}
				// Torn tail: truncate back to the last valid record.
				if terr := os.Truncate(path, seg.size); terr != nil {
					return segment{}, terr
				}
				l.torn++
				break
			}
			return segment{}, err
		}
		seg.size += int64(n)
		seg.endSeq = endSeq
	}
	return seg, nil
}

type header struct {
	d, m    uint32
	seed    int64
	baseSeq uint64
}

func readHeader(r io.Reader) (header, error) {
	var buf [headerSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return header{}, err
	}
	if string(buf[:4]) != Magic {
		return header{}, fmt.Errorf("%w: bad segment magic %q", ErrBadLog, buf[:4])
	}
	version := binary.LittleEndian.Uint16(buf[4:6])
	if version != Version {
		return header{}, fmt.Errorf("%w: unsupported segment version %d (max %d)", ErrBadLog, version, Version)
	}
	h := header{
		d:       binary.LittleEndian.Uint32(buf[8:12]),
		m:       binary.LittleEndian.Uint32(buf[12:16]),
		seed:    int64(binary.LittleEndian.Uint64(buf[16:24])),
		baseSeq: binary.LittleEndian.Uint64(buf[24:32]),
	}
	sum := crc32.ChecksumIEEE(buf[:headerSize-4])
	if got := binary.LittleEndian.Uint32(buf[headerSize-4:]); got != sum {
		return header{}, fmt.Errorf("%w: segment header CRC mismatch (stored %08x, computed %08x)", ErrBadLog, got, sum)
	}
	if h.d == 0 || h.d > maxDim {
		return header{}, fmt.Errorf("%w: segment dimension %d out of range", ErrBadLog, h.d)
	}
	return h, nil
}

func (l *Log) checkHeader(path string, h header) error {
	if int(h.d) != l.opts.Dim || int(h.m) != l.opts.Directions || h.seed != l.opts.Seed {
		return fmt.Errorf("%w: segment %s params (d=%d m=%d seed=%d) do not match stream (d=%d m=%d seed=%d)",
			ErrBadLog, filepath.Base(path), h.d, h.m, h.seed, l.opts.Dim, l.opts.Directions, l.opts.Seed)
	}
	return nil
}

func encodeHeader(opts Options, baseSeq uint64) []byte {
	buf := make([]byte, headerSize)
	copy(buf, Magic)
	binary.LittleEndian.PutUint16(buf[4:6], Version)
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(opts.Dim))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(opts.Directions))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(opts.Seed))
	binary.LittleEndian.PutUint64(buf[24:32], baseSeq)
	binary.LittleEndian.PutUint32(buf[headerSize-4:], crc32.ChecksumIEEE(buf[:headerSize-4]))
	return buf
}

// errTornRecord marks a record frame that is short, corrupt, or
// discontiguous — a torn tail when it is the last thing in the log.
var errTornRecord = errors.New("wal: torn record")

// scanRecord reads and validates one record frame, returning the frame
// size and the new stream position. io.EOF at a clean frame boundary is
// returned as-is; any malformed frame is errTornRecord.
func scanRecord(r io.Reader, dim int, prevEnd uint64) (int, uint64, error) {
	endSeq, _, n, err := decodeRecord(r, dim, prevEnd, nil)
	return n, endSeq, err
}

// decodeRecord reads one record frame. When points is non-nil the
// decoded batch is appended to *points; otherwise coordinates are
// validated but discarded. Returns the stream position after the
// record and the total frame size consumed.
func decodeRecord(r io.Reader, dim int, prevEnd uint64, points *[][]float64) (uint64, int, int, error) {
	var frame [recHeaderSize]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, 0, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, 0, fmt.Errorf("%w: short frame header", errTornRecord)
		}
		return 0, 0, 0, err
	}
	recLen := binary.LittleEndian.Uint32(frame[0:4])
	recCRC := binary.LittleEndian.Uint32(frame[4:8])
	if recLen < recFixedSize || recLen > maxRecBytes || (recLen-recFixedSize)%uint32(8*dim) != 0 {
		return 0, 0, 0, fmt.Errorf("%w: implausible record length %d", errTornRecord, recLen)
	}
	payload := make([]byte, recLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, 0, fmt.Errorf("%w: short payload", errTornRecord)
		}
		return 0, 0, 0, err
	}
	if sum := crc32.ChecksumIEEE(payload); sum != recCRC {
		return 0, 0, 0, fmt.Errorf("%w: record CRC mismatch (stored %08x, computed %08x)", errTornRecord, recCRC, sum)
	}
	endSeq := binary.LittleEndian.Uint64(payload[0:8])
	count := binary.LittleEndian.Uint32(payload[8:12])
	// Widen before multiplying: count*uint32(8*dim) can wrap uint32, so
	// a CRC-valid crafted record with an inflated count would pass a
	// 32-bit check and drive the decode loop past the payload's end.
	if count == 0 || uint64(len(payload)-recFixedSize) != uint64(count)*uint64(8*dim) {
		return 0, 0, 0, fmt.Errorf("%w: record count %d does not match payload", errTornRecord, count)
	}
	if endSeq != prevEnd+uint64(count) {
		return 0, 0, 0, fmt.Errorf("%w: sequence discontinuity (endSeq %d, want %d)", errTornRecord, endSeq, prevEnd+uint64(count))
	}
	if points != nil {
		off := recFixedSize
		for i := uint32(0); i < count; i++ {
			p := make([]float64, dim)
			for j := 0; j < dim; j++ {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off : off+8]))
				off += 8
			}
			*points = append(*points, p)
		}
	}
	return endSeq, int(count), recHeaderSize + int(recLen), nil
}

// encodeRecord frames one batch ending at endSeq.
func encodeRecord(batch [][]float64, dim int, endSeq uint64) []byte {
	recLen := recFixedSize + len(batch)*dim*8
	buf := make([]byte, recHeaderSize+recLen)
	payload := buf[recHeaderSize:]
	binary.LittleEndian.PutUint64(payload[0:8], endSeq)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(batch)))
	off := recFixedSize
	for _, p := range batch {
		for _, c := range p {
			binary.LittleEndian.PutUint64(payload[off:off+8], math.Float64bits(c))
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(recLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

// LastSeq returns the stream position after the last appended record.
func (l *Log) LastSeq() uint64 { return l.nextSeq }

// SyncedSeq returns the stream position known durable (fsynced).
func (l *Log) SyncedSeq() uint64 { return l.syncedSeq }

// Stats returns the log's current footprint.
func (l *Log) Stats() Stats {
	st := Stats{LastSeq: l.nextSeq, SyncedSeq: l.syncedSeq, TornTruncations: l.torn}
	for _, seg := range l.segments {
		st.Segments++
		st.Bytes += seg.size
	}
	if l.f != nil {
		st.Segments++
		st.Bytes += l.active.size
	}
	return st
}

// SetStart aligns an idle log with a snapshot at stream position n.
// When the snapshot is ahead of the log (every record is already
// covered by the snapshot) the stale segments are dropped and new
// appends continue from n. It is an error to rewind below the log's
// last record.
func (l *Log) SetStart(n uint64) error {
	if n < l.nextSeq {
		return fmt.Errorf("wal: cannot rewind start to %d below last record at %d", n, l.nextSeq)
	}
	if n == l.nextSeq {
		return nil
	}
	if err := l.dropAllSegments(); err != nil {
		return err
	}
	l.nextSeq = n
	l.syncedSeq = n
	return nil
}

func (l *Log) dropAllSegments() error {
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	for _, seg := range append(append([]segment{}, l.segments...), l.active) {
		if seg.path == "" {
			continue
		}
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	l.segments = nil
	l.active = segment{}
	syncDir(l.opts.Dir)
	return nil
}

// Append frames batch, writes it to the active segment (rotating
// first when the segment is full), and syncs per policy. On success it
// returns the stream position after the batch — under SyncEveryBatch
// that position is durable before Append returns. On failure no
// sequence number is consumed and the batch is NOT acknowledged; the
// active file may hold a torn frame, which the next successful Append
// repairs (and which crash recovery truncates).
func (l *Log) Append(batch [][]float64) (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if len(batch) == 0 {
		return l.nextSeq, nil
	}
	for _, p := range batch {
		if len(p) != l.opts.Dim {
			return 0, fmt.Errorf("wal: point dimension %d, want %d", len(p), l.opts.Dim)
		}
	}
	if l.broken {
		if err := l.repairActive(); err != nil {
			return 0, err
		}
	}
	if l.f == nil || l.active.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}

	endSeq := l.nextSeq + uint64(len(batch))
	frame := encodeRecord(batch, l.opts.Dim, endSeq)
	if faultinject.Fail(faultinject.SiteWALAppend) {
		// A firing hit lands half the frame in the file and reports an
		// error, leaving a torn record exactly as a crash mid-append
		// would. The sequence number is not consumed.
		l.f.Write(frame[:len(frame)/2])
		l.broken = true
		return 0, fmt.Errorf("wal: injected append failure")
	}
	if _, err := l.f.Write(frame); err != nil {
		// A short write leaves a partial frame after the last good
		// record — strictly past active.size, so repairActive's
		// truncation removes exactly the torn frame.
		l.broken = true
		return 0, err
	}
	l.nextSeq = endSeq
	l.active.size += int64(len(frame))
	l.active.endSeq = endSeq

	switch l.opts.Policy {
	case SyncEveryBatch:
		if err := l.Sync(); err != nil {
			// The record is written but not durable; the sequence
			// number rolls back so the caller can refuse the ack and
			// the frame is rewritten (identically or not) on retry.
			l.nextSeq = endSeq - uint64(len(batch))
			l.active.size -= int64(len(frame))
			l.active.endSeq = l.nextSeq
			l.broken = true
			return 0, err
		}
	case SyncInterval:
		if l.opts.Interval <= 0 || l.opts.Now().Sub(l.lastSync) >= l.opts.Interval {
			if err := l.Sync(); err != nil {
				l.nextSeq = endSeq - uint64(len(batch))
				l.active.size -= int64(len(frame))
				l.active.endSeq = l.nextSeq
				l.broken = true
				return 0, err
			}
		}
	}
	return endSeq, nil
}

// repairActive truncates the active file back to the last good record
// after a failed append left a possibly-torn frame. Because every
// acknowledged record was written to the file in full by its own
// Append, the file is exactly active.size bytes of good records plus at
// most one torn frame: the truncation can only shrink the file, never
// extend it (an extension would zero-fill a hole mid-segment that later
// fsynced appends would land past, and crash recovery would then
// truncate at the hole — losing records acked after the repair).
func (l *Log) repairActive() error {
	if l.f == nil {
		l.broken = false
		return nil
	}
	if err := l.f.Truncate(l.active.size); err != nil {
		return err
	}
	if _, err := l.f.Seek(l.active.size, io.SeekStart); err != nil {
		return err
	}
	l.broken = false
	return nil
}

// rotate seals the active segment (flush + fsync + close) and opens a
// fresh one starting at the current sequence position.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.segments = append(l.segments, l.active)
		l.f = nil
		l.active = segment{}
	}
	path := filepath.Join(l.opts.Dir, segmentName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeHeader(l.opts, l.nextSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	syncDir(l.opts.Dir)
	l.f = f
	l.active = segment{path: path, baseSeq: l.nextSeq, endSeq: l.nextSeq, size: headerSize}
	return nil
}

// Sync fsyncs the active segment, making every appended record durable.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	if faultinject.Fail(faultinject.SiteWALFsync) {
		return fmt.Errorf("wal: injected fsync failure")
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncedSeq = l.nextSeq
	l.lastSync = l.opts.Now()
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start))
	}
	return nil
}

// Replay re-reads every segment and invokes fn for each batch whose
// records lie past afterSeq, partially skipping a record that straddles
// it — so replaying on top of a snapshot at position afterSeq feeds
// each surviving point exactly once. Returns the number of points
// delivered and the final stream position.
func (l *Log) Replay(afterSeq uint64, fn func(batch [][]float64) error) (uint64, uint64, error) {
	var delivered uint64
	pos := afterSeq
	segs := append(append([]segment{}, l.segments...), l.active)
	for _, seg := range segs {
		if seg.path == "" || seg.endSeq <= afterSeq {
			if seg.endSeq > pos {
				pos = seg.endSeq
			}
			continue
		}
		if seg.baseSeq > pos {
			// The log's replayable records start past the position
			// already covered (snapshot + preceding segments): points
			// pos..baseSeq exist in neither half of the durable pair.
			// Replaying over the hole would produce a summary that
			// matches no prefix of the true stream and report a restored
			// position telling producers NOT to replay the gap — silent
			// acknowledged-data loss. Refuse instead.
			return delivered, pos, fmt.Errorf("%w: segment %s starts at seq %d but replay position is %d — points %d..%d are missing",
				ErrBadLog, filepath.Base(seg.path), seg.baseSeq, pos, pos, seg.baseSeq)
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return delivered, pos, err
		}
		br := bufio.NewReader(replayReader{r: f})
		if _, err := io.ReadFull(br, make([]byte, headerSize)); err != nil {
			f.Close()
			return delivered, pos, err
		}
		prevEnd := seg.baseSeq
		for prevEnd < seg.endSeq {
			var batch [][]float64
			endSeq, count, _, err := decodeRecord(br, l.opts.Dim, prevEnd, &batch)
			if err != nil {
				f.Close()
				if errors.Is(err, io.EOF) || errors.Is(err, errTornRecord) {
					// Open already truncated torn tails; hitting one
					// here means the file changed underneath us.
					return delivered, pos, fmt.Errorf("%w: segment %s shorter than scanned", ErrBadLog, filepath.Base(seg.path))
				}
				return delivered, pos, err
			}
			startSeq := endSeq - uint64(count)
			if endSeq > afterSeq {
				if startSeq < afterSeq {
					batch = batch[afterSeq-startSeq:]
				}
				if len(batch) > 0 {
					if err := fn(batch); err != nil {
						f.Close()
						return delivered, pos, err
					}
					delivered += uint64(len(batch))
				}
			}
			if endSeq > pos {
				pos = endSeq
			}
			prevEnd = endSeq
		}
		f.Close()
	}
	return delivered, pos, nil
}

// TruncateThrough drops log data wholly covered by a snapshot at
// stream position seq: sealed segments ending at or before seq are
// removed, and when the active segment is itself fully covered it is
// sealed and replaced by a fresh empty segment. Durability ordering:
// the replacement segment is created and synced before old files are
// unlinked, so a crash at any point leaves a contiguous log.
func (l *Log) TruncateThrough(seq uint64) error {
	if l.closed {
		return fmt.Errorf("wal: truncate on closed log")
	}
	// Roll the active segment first if it is fully covered and non-empty.
	if l.f != nil && l.active.endSeq <= seq && l.active.size > headerSize {
		if l.broken {
			if err := l.repairActive(); err != nil {
				return err
			}
		}
		if err := l.rotate(); err != nil {
			return err
		}
	}
	keep := l.segments[:0]
	for _, seg := range l.segments {
		if seg.endSeq <= seq {
			if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			continue
		}
		keep = append(keep, seg)
	}
	l.segments = keep
	syncDir(l.opts.Dir)
	return nil
}

// Close flushes, fsyncs, and closes the active segment.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	defer l.lock.Close()
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Abandon closes the active segment WITHOUT a final fsync, modeling a
// crash: records appended since the last Sync live only in the OS page
// cache and carry no durability promise — recovery may land anywhere at
// or past syncedSeq, which is exactly the window the sync policy
// bounds. Used by the ingest service's Kill path so chaos tests
// exercise real durability windows.
func (l *Log) Abandon() {
	if l.closed {
		return
	}
	l.closed = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.lock.Close()
}

// Remove deletes the log's directory and every segment in it — the
// tenant-deletion and reset paths. It takes the directory lock first,
// so it fails with ErrDirInUse while a live log holds the directory or
// when the directory is recorded for an owner other than owner. A
// missing directory is not an error.
func Remove(dir, owner string) error {
	lock, err := lockDir(dir, owner)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer lock.Close()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	syncDir(filepath.Dir(dir))
	return nil
}

// OldestSeq returns the stream position before the log's first record,
// or 0 when the log is empty. A log whose OldestSeq is 0 covers the
// whole stream from the beginning — the precondition for the recovery
// ladder's replay_wal rung to rebuild a tenant with no snapshot.
func (l *Log) OldestSeq() uint64 {
	if len(l.segments) > 0 {
		return l.segments[0].baseSeq
	}
	if l.f != nil {
		return l.active.baseSeq
	}
	return l.nextSeq
}

// oldestSegment returns the path of the lowest-numbered segment in dir,
// or "" when the directory holds none.
func oldestSegment(dir string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), ".wal"), 16, 64); err != nil {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return filepath.Join(dir, names[0])
}

// StartsAtZero reports whether the log in dir reaches back to stream
// position 0 with at least one decodable record — the precondition for
// rebuilding a stream from the log alone (the recovery ladder's
// replay_wal rung when no snapshot survives).
func StartsAtZero(dir string) bool {
	path := oldestSegment(dir)
	if path == "" {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr, err := readHeader(br)
	if err != nil || hdr.baseSeq != 0 {
		return false
	}
	_, _, err = scanRecord(br, int(hdr.d), 0)
	return err == nil
}

// PeekHeader returns the stream parameters stamped in the log's oldest
// segment header — the same fields the MCSS snapshot header carries, so
// a tenant whose manifest and snapshots are all gone can still recover
// its stream-critical config from the log.
func PeekHeader(dir string) (dim, directions int, seed int64, ok bool) {
	path := oldestSegment(dir)
	if path == "" {
		return 0, 0, 0, false
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, false
	}
	defer f.Close()
	hdr, err := readHeader(bufio.NewReader(f))
	if err != nil {
		return 0, 0, 0, false
	}
	return int(hdr.d), int(hdr.m), hdr.seed, true
}

// DecodeSegment scans one segment file standalone (no log state),
// returning the base and end sequence plus how many valid record bytes
// it holds. Used by fuzzing and external inspection; never panics on
// malformed input.
func DecodeSegment(data []byte, dim int) (baseSeq, endSeq uint64, validBytes int, err error) {
	br := bytes.NewReader(data)
	hdr, err := readHeader(br)
	if err != nil {
		return 0, 0, 0, err
	}
	if int(hdr.d) != dim {
		return 0, 0, 0, fmt.Errorf("%w: segment dimension %d, want %d", ErrBadLog, hdr.d, dim)
	}
	baseSeq, endSeq = hdr.baseSeq, hdr.baseSeq
	validBytes = headerSize
	for {
		n, e, err := scanRecord(br, dim, endSeq)
		if err != nil {
			return baseSeq, endSeq, validBytes, nil
		}
		validBytes += n
		endSeq = e
	}
}

// syncDir fsyncs a directory so unlink/rename survive power loss;
// best-effort because some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	d.Sync()
}
