package mincore

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestStreamSummaryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ss := NewStreamSummary(3, 0.1, 0.5, 7)
	pts := make([]Point, 5000)
	for i := range pts {
		pts[i] = Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ss.Add(pts[i])
	}
	if ss.N() != 5000 {
		t.Fatalf("N = %d", ss.N())
	}
	q := ss.Coreset()
	if len(q) == 0 || len(q) != ss.Size() {
		t.Fatalf("coreset size %d vs Size() %d", len(q), ss.Size())
	}
	// The summary's maxima approximate the stream's for random queries.
	for trial := 0; trial < 100; trial++ {
		u := Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		approx := ss.Omega(u)
		best := approx
		for _, p := range pts {
			v := p[0]*u[0] + p[1]*u[1] + p[2]*u[2]
			if v > best {
				best = v
			}
		}
		if best > 0 && approx < 0.85*best {
			t.Fatalf("summary omega %v far below exact %v", approx, best)
		}
	}
}

func TestStreamSummaryMergeFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewStreamSummary(2, 0.1, 0.5, 9)
	b := NewStreamSummary(2, 0.1, 0.5, 9)
	for i := 0; i < 1000; i++ {
		a.Add(Point{rng.NormFloat64(), rng.NormFloat64()})
		b.Add(Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 2000 {
		t.Fatalf("merged N = %d", a.N())
	}
	mismatch := NewStreamSummary(2, 0.01, 0.5, 9)
	if err := a.Merge(mismatch); err == nil {
		t.Fatal("parameter mismatch should error")
	}
}

func TestStreamSummaryMergeErrors(t *testing.T) {
	base := func() *StreamSummary { return NewStreamSummary(3, 0.1, 0.5, 9) }
	for _, tc := range []struct {
		name  string
		other func(ss *StreamSummary) *StreamSummary
		want  error
	}{
		{"nil-summary", func(*StreamSummary) *StreamSummary { return nil }, ErrBadMerge},
		{"nil-inner", func(*StreamSummary) *StreamSummary { return &StreamSummary{} }, ErrBadMerge},
		{"self-merge", func(ss *StreamSummary) *StreamSummary { return ss }, ErrBadMerge},
		{"different-dimension", func(*StreamSummary) *StreamSummary {
			return NewStreamSummary(2, 0.1, 0.5, 9)
		}, ErrIncompatibleSummaries},
		{"different-eps-direction-count", func(*StreamSummary) *StreamSummary {
			return NewStreamSummary(3, 0.01, 0.5, 9)
		}, ErrIncompatibleSummaries},
		{"different-seed", func(*StreamSummary) *StreamSummary {
			return NewStreamSummary(3, 0.1, 0.5, 10)
		}, ErrIncompatibleSummaries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := base()
			ss.Add(Point{1, 2, 3})
			err := ss.Merge(tc.other(ss))
			if err == nil {
				t.Fatalf("merge should fail with %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is %v", err, tc.want)
			}
			if ss.N() != 1 {
				t.Fatalf("failed merge mutated the summary: N = %d", ss.N())
			}
		})
	}
	// A compatible merge still works and is exact.
	a, b := base(), base()
	a.Add(Point{1, 0, 0})
	b.Add(Point{0, 1, 0})
	if err := a.Merge(b); err != nil {
		t.Fatalf("compatible merge: %v", err)
	}
	if a.N() != 2 {
		t.Fatalf("merged N = %d", a.N())
	}
}

func TestStreamSummaryDefaultAlpha(t *testing.T) {
	ss := NewStreamSummary(2, 0.1, 0, 1) // alpha ≤ 0 → default
	ss.Add(Point{1, 0})
	if ss.Size() != 1 {
		t.Fatalf("size = %d", ss.Size())
	}
}

func TestStreamSummaryFeedValidation(t *testing.T) {
	ss := NewStreamSummary(2, 0.1, 0.5, 3)
	bad := []Point{
		{math.NaN(), 0},
		{0, math.Inf(1)},
		{1, 2, 3}, // wrong dimension
		{1},
	}
	for _, p := range bad {
		if err := ss.Feed(p); !errors.Is(err, ErrInvalidPoint) {
			t.Errorf("Feed(%v) = %v, want ErrInvalidPoint", p, err)
		}
	}
	if ss.N() != 0 {
		t.Fatalf("rejected points were ingested: N = %d", ss.N())
	}
	if err := ss.Feed(Point{0.5, -0.25}); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	if ss.N() != 1 {
		t.Fatalf("N = %d after one valid Feed", ss.N())
	}
}

func TestStreamSummarySnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ss := NewStreamSummary(2, 0.1, 0.5, 11)
	for i := 0; i < 500; i++ {
		ss.Add(Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	var buf bytes.Buffer
	if err := ss.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStreamSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ss.N() || got.Size() != ss.Size() {
		t.Fatalf("restored N=%d Size=%d, want N=%d Size=%d",
			got.N(), got.Size(), ss.N(), ss.Size())
	}
	// Restored summaries stay mergeable with live ones of the same
	// parameters, and the coreset survives bitwise.
	want := ss.Coreset()
	have := got.Coreset()
	for i := range want {
		for j := range want[i] {
			if want[i][j] != have[i][j] {
				t.Fatalf("champion %d differs after round trip", i)
			}
		}
	}
	live := NewStreamSummary(2, 0.1, 0.5, 11)
	live.Add(Point{3, 3})
	if err := got.Merge(live); err != nil {
		t.Fatalf("restored summary should merge with live: %v", err)
	}

	// Corrupt trailer: flip a byte and expect a decode error.
	var buf2 bytes.Buffer
	if err := ss.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	raw := buf2.Bytes()
	raw[len(raw)-1] ^= 0xFF
	if _, err := ReadStreamSummary(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt snapshot should fail to decode")
	}
}

// TestStreamSummaryCoresetReturnsCopies checks that the points Coreset
// hands out are the caller's: writing to them changes neither the
// summary's Omega nor its snapshot bytes.
func TestStreamSummaryCoresetReturnsCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ss := NewStreamSummary(2, 0.1, 0.5, 13)
	for i := 0; i < 500; i++ {
		ss.Add(Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	snap := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ss.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	u := Point{1, 0}
	omega, before := ss.Omega(u), snap()
	for _, p := range ss.Coreset() {
		for j := range p {
			p[j] = 1000
		}
	}
	if got := ss.Omega(u); got != omega {
		t.Fatalf("Omega moved from %v to %v after the caller wrote to Coreset's points", omega, got)
	}
	if !bytes.Equal(snap(), before) {
		t.Fatal("snapshot bytes changed after the caller wrote to Coreset's points")
	}
}
