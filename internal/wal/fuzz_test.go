package wal

import (
	"os"
	"testing"
)

// realSegment encodes a healthy segment (header + three records) to use
// as the fuzz corpus seed, so mutations explore the interesting
// neighborhood of the format instead of random noise.
func realSegment(t interface{ Fatalf(string, ...interface{}) }) []byte {
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		t.Fatalf("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	l, err := Open(Options{Dir: dir, Dim: 2, Directions: 8, Seed: 7})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := l.Append(mkBatch(i*2, 2)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	path := l.active.path
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	return data
}

// FuzzWALDecode asserts the segment reader is total: any byte string —
// torn tails, bit flips, hostile lengths — either decodes to a valid
// record prefix or fails cleanly. It must never panic, never report
// more valid bytes than it was given, and the valid prefix it reports
// must itself re-decode to the same stream range (truncate-and-retry
// convergence, which is exactly what Open's torn-tail repair relies on).
func FuzzWALDecode(f *testing.F) {
	seg := realSegment(f)
	f.Add(seg)
	f.Add(seg[:headerSize])                                   // header only
	f.Add(seg[:len(seg)-5])                                   // torn tail
	f.Add(seg[:headerSize/2])                                 // torn header
	f.Add([]byte{})                                           // empty
	f.Add([]byte("MCWL"))                                     // magic only
	f.Add(append(append([]byte{}, seg...), 0xff, 0x00, 0xff)) // garbage tail
	mut := append([]byte{}, seg...)
	mut[headerSize+3] ^= 0x40 // hostile record length
	f.Add(mut)
	f.Add(hostileCountSegment()) // CRC-valid count that wraps uint32 validation

	f.Fuzz(func(t *testing.T, data []byte) {
		base, end, valid, err := DecodeSegment(data, 2)
		if valid < 0 || valid > len(data) {
			t.Fatalf("validBytes %d out of range [0, %d]", valid, len(data))
		}
		if err != nil && valid == 0 {
			return // rejected outright (bad header) — nothing to re-check
		}
		if end < base {
			t.Fatalf("endSeq %d < baseSeq %d", end, base)
		}
		// The reported valid prefix must re-decode identically: this is
		// the fixpoint Open's truncation repair converges to.
		b2, e2, v2, err2 := DecodeSegment(data[:valid], 2)
		if err2 != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err2)
		}
		if b2 != base || e2 != end || v2 != valid {
			t.Fatalf("re-decode diverged: (%d,%d,%d) vs (%d,%d,%d)", b2, e2, v2, base, end, valid)
		}
	})
}

// TestWALDecodeSegmentCorpus runs the fuzz seeds as a plain test so the
// property is exercised on every `go test` without -fuzz.
func TestWALDecodeSegmentCorpus(t *testing.T) {
	seg := realSegment(t)
	base, end, valid, err := DecodeSegment(seg, 2)
	if err != nil || base != 0 || end != 6 || valid != len(seg) {
		t.Fatalf("healthy segment: base %d end %d valid %d err %v", base, end, valid, err)
	}
	// Every truncation point of a healthy segment yields a clean prefix.
	for cut := 0; cut <= len(seg); cut++ {
		_, e, v, err := DecodeSegment(seg[:cut], 2)
		if cut < headerSize {
			if err == nil {
				t.Fatalf("cut %d: torn header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if v > cut || e > 6 {
			t.Fatalf("cut %d: valid %d end %d", cut, v, e)
		}
	}
	// Wrong dimension is rejected as a bad log, not misdecoded.
	if _, _, _, err := DecodeSegment(seg, 3); err == nil {
		t.Fatalf("dimension mismatch accepted")
	}
}
