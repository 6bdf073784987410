package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mincore/internal/faultinject"
	"mincore/internal/geom"
	"mincore/internal/stream"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSummary builds a deterministic summary with a mix of filled and
// empty champion slots.
func testSummary(t *testing.T, d, npts int, seed int64) *stream.Summary {
	t.Helper()
	s := stream.NewSummary(16, d, seed)
	rng := seed
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(int64(rng>>17))/float64(1<<46) - 0.5
	}
	for i := 0; i < npts; i++ {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = next()
		}
		if err := s.Feed(p); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	return s
}

func encodeToBytes(t *testing.T, s *stream.Summary, meta Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s.State(), meta); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripBitwiseExact(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		s := testSummary(t, d, 200, int64(100+d))
		meta := Meta{Generation: 7, SavedAt: time.Unix(1700000000, 12345)}
		raw := encodeToBytes(t, s, meta)

		got, gotMeta, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("d=%d Decode: %v", d, err)
		}
		if gotMeta.Generation != meta.Generation || !gotMeta.SavedAt.Equal(meta.SavedAt) {
			t.Fatalf("d=%d meta mismatch: got %+v want %+v", d, gotMeta, meta)
		}
		if !reflect.DeepEqual(got.State(), s.State()) {
			t.Fatalf("d=%d restored state differs from original", d)
		}
		// Bitwise: re-encoding must reproduce the identical byte stream.
		if !bytes.Equal(encodeToBytes(t, got, meta), raw) {
			t.Fatalf("d=%d re-encoded snapshot differs bitwise", d)
		}
	}
}

func TestRestoredSummaryMergesWithLive(t *testing.T) {
	const d = 3
	s1 := testSummary(t, d, 150, 42)
	raw := encodeToBytes(t, s1, Meta{Generation: 1})
	restored, _, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	// A live summary over a different substream, same parameters.
	live := stream.NewSummary(16, d, 42)
	for _, p := range testPoints(d, 90, 99) {
		if err := live.Feed(p); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	if err := restored.Merge(live); err != nil {
		t.Fatalf("restored.Merge(live): %v", err)
	}

	// Ground truth: one summary over the concatenated stream
	// (testSummary feeds the testPoints stream for its seed).
	want := stream.NewSummary(16, d, 42)
	for _, p := range testPoints(d, 150, 42) {
		want.Add(p)
	}
	for _, p := range testPoints(d, 90, 99) {
		want.Add(p)
	}
	if !reflect.DeepEqual(restored.State(), want.State()) {
		t.Fatalf("merged restored summary differs from direct summary of concatenated stream")
	}
}

// testPoints generates the deterministic point stream testSummary feeds
// for a given seed.
func testPoints(d, npts int, seed int64) []geom.Vector {
	rng := seed
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(int64(rng>>17))/float64(1<<46) - 0.5
	}
	pts := make([]geom.Vector, npts)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = next()
		}
		pts[i] = p
	}
	return pts
}

func TestGoldenV1(t *testing.T) {
	s := testSummary(t, 3, 64, 7)
	meta := Meta{Generation: 3, SavedAt: time.Unix(1719500000, 0)}
	raw := encodeToBytes(t, s, meta)

	golden := filepath.Join("testdata", "v1-d3.snap")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("v1 encoding changed: got %d bytes, golden %d bytes — the format is frozen; bump Version instead", len(raw), len(want))
	}
	got, gotMeta, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if gotMeta.Generation != 3 || got.N() != 64 {
		t.Fatalf("golden decode: gen=%d n=%d, want gen=3 n=64", gotMeta.Generation, got.N())
	}
	if !reflect.DeepEqual(got.State(), s.State()) {
		t.Fatalf("golden decode differs from freshly built summary")
	}
}

func TestGoldenEmptySummaryV1(t *testing.T) {
	s := stream.NewSummary(8, 2, 5) // no points fed: zero champion slots
	raw := encodeToBytes(t, s, Meta{Generation: 1})

	golden := filepath.Join("testdata", "v1-empty.snap")
	if *update {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("v1 empty-summary encoding changed")
	}
	got, _, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if got.N() != 0 || got.Size() != 0 {
		t.Fatalf("empty golden decoded to n=%d size=%d", got.N(), got.Size())
	}
}

// TestDecodeCorruption drives the decoder through every malformed-input
// class; all must return ErrBadSnapshot and none may panic.
func TestDecodeCorruption(t *testing.T) {
	s := testSummary(t, 2, 80, 11)
	raw := encodeToBytes(t, s, Meta{Generation: 9})

	t.Run("short-reads", func(t *testing.T) {
		// Truncation at every prefix length must be detected: either by
		// framing (header/payload) or by the missing CRC trailer.
		for cut := 0; cut < len(raw); cut++ {
			_, _, err := Decode(bytes.NewReader(raw[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(raw))
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("truncation at %d: err = %v, want ErrBadSnapshot", cut, err)
			}
		}
	})

	t.Run("flipped-crc", func(t *testing.T) {
		for i := 1; i <= 4; i++ { // each trailer byte
			bad := append([]byte(nil), raw...)
			bad[len(bad)-i] ^= 0xFF
			_, _, err := Decode(bytes.NewReader(bad))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("flipped CRC byte -%d: err = %v, want ErrBadSnapshot", i, err)
			}
		}
	})

	t.Run("flipped-payload-bit", func(t *testing.T) {
		for _, pos := range []int{8, 20, 40, len(raw) / 2, len(raw) - 8} {
			bad := append([]byte(nil), raw...)
			bad[pos] ^= 0x01
			_, _, err := Decode(bytes.NewReader(bad))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("flipped bit at %d: err = %v, want ErrBadSnapshot", pos, err)
			}
		}
	})

	t.Run("wrong-magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		copy(bad, "NOPE")
		_, _, err := Decode(bytes.NewReader(bad))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("wrong magic: err = %v, want ErrBadSnapshot", err)
		}
	})

	t.Run("future-version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint16(bad[4:], Version+1)
		_, _, err := Decode(bytes.NewReader(bad))
		if !errors.Is(err, ErrBadSnapshot) || err == nil {
			t.Fatalf("future version: err = %v, want ErrBadSnapshot", err)
		}
	})

	t.Run("huge-dimension", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		// d field lives after magic(4)+ver(2)+res(2)+gen(8)+savedAt(8).
		binary.LittleEndian.PutUint32(bad[24:], math.MaxUint32)
		_, _, err := Decode(bytes.NewReader(bad))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("huge dimension: err = %v, want ErrBadSnapshot", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		_, _, err := Decode(bytes.NewReader(nil))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("empty input: err = %v, want ErrBadSnapshot", err)
		}
	})
}

func TestStoreSaveLoadGenerations(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(filepath.Join(dir, "stream.snap"))

	if _, _, err := st.Load(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load on empty store: err = %v, want os.ErrNotExist", err)
	}

	s := testSummary(t, 2, 50, 3)
	meta1, err := st.Save(s.State())
	if err != nil {
		t.Fatalf("Save #1: %v", err)
	}
	if meta1.Generation != 1 {
		t.Fatalf("first generation = %d, want 1", meta1.Generation)
	}

	for _, p := range testPoints(2, 30, 77) {
		s.Add(p)
	}
	meta2, err := st.Save(s.State())
	if err != nil {
		t.Fatalf("Save #2: %v", err)
	}
	if meta2.Generation != 2 {
		t.Fatalf("second generation = %d, want 2", meta2.Generation)
	}

	// Fresh store (as after a restart) loads the newest generation.
	st2 := NewStore(st.Path())
	got, meta, err := st2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if meta.Generation != 2 || got.N() != 80 {
		t.Fatalf("loaded gen=%d n=%d, want gen=2 n=80", meta.Generation, got.N())
	}
	if !reflect.DeepEqual(got.State(), s.State()) {
		t.Fatalf("loaded state differs")
	}
}

func TestStoreFallbackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(filepath.Join(dir, "stream.snap"))
	s := testSummary(t, 2, 40, 3)
	if _, err := st.Save(s.State()); err != nil {
		t.Fatal(err)
	}
	for _, p := range testPoints(2, 10, 5) {
		s.Add(p)
	}
	if _, err := st.Save(s.State()); err != nil {
		t.Fatal(err)
	}

	// Corrupt the current generation as a torn write would.
	raw, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, meta, err := NewStore(st.Path()).Load()
	if err != nil {
		t.Fatalf("Load with torn current generation: %v", err)
	}
	if meta.Generation != 1 || got.N() != 40 {
		t.Fatalf("fallback loaded gen=%d n=%d, want gen=1 n=40", meta.Generation, got.N())
	}

	// Both generations corrupt: typed failure, no panic.
	if err := os.WriteFile(st.Path()+PrevSuffix, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewStore(st.Path()).Load(); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("both generations corrupt: err = %v, want ErrBadSnapshot", err)
	}
}

func TestStoreInjectedWriteFaultLeavesDiskIntact(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(filepath.Join(dir, "stream.snap"))
	s := testSummary(t, 2, 40, 3)
	if _, err := st.Save(s.State()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []faultinject.Site{faultinject.SiteSnapshotWrite, faultinject.SiteSnapshotFsync} {
		faultinject.Enable(faultinject.Config{Seed: 1, Rate: 1, Sites: []faultinject.Site{site}})
		_, err = st.Save(s.State())
		faultinject.Disable()
		if err == nil {
			t.Fatalf("site %v: Save succeeded under injected fault", site)
		}
		got, rerr := os.ReadFile(st.Path())
		if rerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("site %v: current generation damaged by failed save (err=%v)", site, rerr)
		}
		if _, _, lerr := NewStore(st.Path()).Load(); lerr != nil {
			t.Fatalf("site %v: Load after failed save: %v", site, lerr)
		}
	}

	// The failed saves must not have consumed generation numbers.
	meta, err := st.Save(s.State())
	if err != nil {
		t.Fatalf("Save after faults: %v", err)
	}
	if meta.Generation != 2 {
		t.Fatalf("generation after failed saves = %d, want 2", meta.Generation)
	}
}

func TestStoreInjectedReadFaultFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(filepath.Join(dir, "stream.snap"))
	s := testSummary(t, 2, 40, 3)
	if _, err := st.Save(s.State()); err != nil {
		t.Fatal(err)
	}
	for _, p := range testPoints(2, 10, 5) {
		s.Add(p)
	}
	if _, err := st.Save(s.State()); err != nil {
		t.Fatal(err)
	}

	// First read (current generation) fails, second (previous) succeeds.
	faultinject.Enable(faultinject.Config{Seed: 1, Rate: 1, Times: 1,
		Sites: []faultinject.Site{faultinject.SiteSnapshotRead}})
	defer faultinject.Disable()
	got, meta, err := NewStore(st.Path()).Load()
	if err != nil {
		t.Fatalf("Load under one-shot read fault: %v", err)
	}
	if meta.Generation != 1 || got.N() != 40 {
		t.Fatalf("read-fault fallback loaded gen=%d n=%d, want gen=1 n=40", meta.Generation, got.N())
	}
	if faultinject.Hits(faultinject.SiteSnapshotRead) == 0 {
		t.Fatal("read failpoint never evaluated — hook not wired")
	}
}

// Ensure decode of a file with trailing garbage still succeeds on the
// framed prefix (the store never writes one, but a partially overwritten
// sector can leave old bytes beyond the new trailer).
func TestDecodeIgnoresTrailingBytes(t *testing.T) {
	s := testSummary(t, 2, 20, 1)
	raw := encodeToBytes(t, s, Meta{Generation: 1})
	raw = append(raw, []byte("trailing-junk")...)
	got, _, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode with trailing bytes: %v", err)
	}
	if got.N() != 20 {
		t.Fatalf("n = %d, want 20", got.N())
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		defer faultinject.Disable()
		return m.Run()
	}())
}
