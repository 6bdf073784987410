package stream

import (
	"math/rand"
	"testing"

	"mincore/internal/core"
	"mincore/internal/geom"
	"mincore/internal/sphere"
)

func gauss(n, d int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	return pts
}

func TestSummaryBasics(t *testing.T) {
	s := NewSummary(64, 2, 1)
	pts := gauss(1000, 2, 2)
	s.AddAll(pts)
	if s.N() != 1000 {
		t.Fatalf("N = %d", s.N())
	}
	q := s.Coreset()
	if len(q) == 0 || len(q) > 64+4 {
		t.Fatalf("coreset size %d out of range", len(q))
	}
	// Champions are stream members.
	in := make(map[string]bool, len(pts))
	for _, p := range pts {
		in[string(geom.AppendKey(nil, p))] = true
	}
	for _, p := range q {
		if !in[string(geom.AppendKey(nil, p))] {
			t.Fatal("champion is not a stream point")
		}
	}
}

func TestSummaryMatchesBatchChampions(t *testing.T) {
	// Streaming result equals the batch per-direction argmax.
	pts := gauss(2000, 3, 3)
	s := NewSummary(128, 3, 4)
	s.AddAll(pts)
	for k, u := range s.dirs {
		_, want := geom.MaxDot(pts, u)
		if s.bestV[k] != want {
			t.Fatalf("direction %d: champion %v vs batch %v", k, s.bestV[k], want)
		}
	}
}

func TestSummaryOrderIndependence(t *testing.T) {
	pts := gauss(500, 3, 5)
	s1 := NewSummary(64, 3, 6)
	s1.AddAll(pts)
	rev := make([]geom.Vector, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	s2 := NewSummary(64, 3, 6)
	s2.AddAll(rev)
	for k := range s1.dirs {
		if s1.bestV[k] != s2.bestV[k] {
			t.Fatal("summary depends on stream order")
		}
	}
}

func TestSummaryMergeEqualsConcat(t *testing.T) {
	a := gauss(800, 3, 7)
	b := gauss(700, 3, 8)
	s1 := NewSummary(96, 3, 9)
	s1.AddAll(a)
	s2 := NewSummary(96, 3, 9)
	s2.AddAll(b)
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	whole := NewSummary(96, 3, 9)
	whole.AddAll(append(append([]geom.Vector(nil), a...), b...))
	for k := range whole.dirs {
		if s1.bestV[k] != whole.bestV[k] {
			t.Fatal("merge differs from concatenated stream")
		}
	}
	if s1.N() != 1500 {
		t.Fatalf("merged N = %d", s1.N())
	}
}

func TestSummaryMergeRejectsMismatch(t *testing.T) {
	s1 := NewSummary(64, 3, 1)
	s2 := NewSummary(96, 3, 1)
	if err := s1.Merge(s2); err == nil {
		t.Fatal("mismatched direction counts should error")
	}
	// Different seeds give different directions for d > 3 (d = 3 uses a
	// deterministic Fibonacci spiral, so mismatch is only detectable via
	// the count there).
	s4a := NewSummary(64, 4, 1)
	s4b := NewSummary(64, 4, 2)
	if err := s4a.Merge(s4b); err == nil {
		t.Fatal("mismatched directions should error")
	}
}

func TestSummaryCoresetLoss(t *testing.T) {
	// The streamed coreset of a fat set achieves a small exact loss.
	pts := gauss(3000, 3, 10)
	inst, err := core.NewInstance(pts)
	if err != nil {
		t.Fatal(err)
	}
	m := SuggestDirections(0.1, inst.Alpha, 3)
	s := NewSummary(m, 3, 11)
	s.AddAll(pts)
	q := s.Coreset()
	// Map champions back to indices.
	idx := make(map[string]int, len(pts))
	for i, p := range pts {
		idx[string(geom.AppendKey(nil, p))] = i
	}
	ids := make([]int, len(q))
	for i, p := range q {
		ids[i] = idx[string(geom.AppendKey(nil, p))]
	}
	if l := inst.Loss(ids); l > 0.1 {
		t.Fatalf("streamed coreset loss %v > 0.1 (m=%d, |Q|=%d)", l, m, len(q))
	}
}

func TestSummaryOmega(t *testing.T) {
	pts := gauss(2000, 2, 12)
	s := NewSummary(256, 2, 13)
	s.AddAll(pts)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 100; i++ {
		u := sphere.RandomDirection(rng, 2)
		_, exact := geom.MaxDot(pts, u)
		approx := s.Omega(u)
		if approx > exact+1e-12 {
			t.Fatal("summary omega exceeds exact")
		}
		if exact > 0 && approx < 0.97*exact {
			t.Fatalf("summary omega %v far below exact %v", approx, exact)
		}
	}
}

func TestSummaryDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSummary(64, 2, 1).Add(geom.Vector{1, 2, 3})
}

func TestSuggestDirections(t *testing.T) {
	if SuggestDirections(0.01, 0.5, 3) <= SuggestDirections(0.2, 0.5, 3) {
		t.Fatal("smaller ε needs more directions")
	}
	if SuggestDirections(0, 0.5, 3) <= 0 {
		t.Fatal("degenerate input should fall back to a positive default")
	}
	if SuggestDirections(1e-9, 0.5, 9) > 1<<22 {
		t.Fatal("direction count must be capped")
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewSummary(32, 2, 1)
	if q := s.Coreset(); len(q) != 0 {
		t.Fatalf("empty summary coreset %v", q)
	}
}
