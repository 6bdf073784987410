package mincore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// messyPoints builds a seeded random cloud salted with exact duplicates
// and collinear (segment-midpoint) points — the inputs most likely to
// expose a prefilter that mishandles non-extreme or degenerate points.
func messyPoints(n, d int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, 0, n+n/2)
	for i := 0; i < n; i++ {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.NormFloat64()*2 + 3
		}
		pts = append(pts, p)
	}
	// Exact duplicates of existing points.
	for i := 0; i < n/4; i++ {
		src := pts[rng.Intn(n)]
		pts = append(pts, append(Point(nil), src...))
	}
	// Midpoints of random pairs: collinear with (and dominated by) their
	// endpoints, so they are never hull vertices.
	for i := 0; i < n/4; i++ {
		a, b := pts[rng.Intn(n)], pts[rng.Intn(n)]
		m := make(Point, d)
		for j := range m {
			m[j] = (a[j] + b[j]) / 2
		}
		pts = append(pts, m)
	}
	return pts
}

// withHooks sets the unexported reference-path hooks: noPrefilter runs
// DSMC and SCMC on the full instance, coldLP solves every dominance-graph
// edge LP cold.
func withHooks(noPrefilter, coldLP bool) Option {
	return optionFunc(func(o *Options) { o.noPrefilter, o.coldLP = noPrefilter, coldLP })
}

// coresetsEqualBitwise asserts two coresets are identical: same indices
// in the same order and bitwise-equal measured loss.
func coresetsEqualBitwise(t *testing.T, a, b *Coreset, label string) {
	t.Helper()
	if len(a.Indices) != len(b.Indices) {
		t.Fatalf("%s: |Q| %d vs %d", label, len(a.Indices), len(b.Indices))
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("%s: index %d: %d vs %d", label, i, a.Indices[i], b.Indices[i])
		}
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
		t.Fatalf("%s: loss %v (%x) vs %v (%x)", label,
			a.Loss, math.Float64bits(a.Loss), b.Loss, math.Float64bits(b.Loss))
	}
}

// The prefilter is exact: for random instances with duplicates and
// collinear interior points, builds with the prefilter on and off must
// return identical indices and bitwise-identical measured loss, for
// every extreme-point algorithm.
func TestPrefilterExactness(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		pts := messyPoints(300, d, int64(100+d))
		on, err := New(pts, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		off, err := New(pts, WithSeed(7), withHooks(true, false))
		if err != nil {
			t.Fatal(err)
		}
		if !on.prefiltered() {
			t.Fatalf("d=%d: prefilter inactive (ξ=%d, n=%d)", d, on.NumExtreme(), on.N())
		}
		if off.prefiltered() {
			t.Fatalf("d=%d: the noPrefilter hook left the prefilter on", d)
		}
		for _, algo := range []Algorithm{Auto, DSMC, SCMC} {
			qOn, err := on.Coreset(0.1, algo)
			if err != nil {
				t.Fatalf("d=%d %s prefilter on: %v", d, algo, err)
			}
			qOff, err := off.Coreset(0.1, algo)
			if err != nil {
				t.Fatalf("d=%d %s prefilter off: %v", d, algo, err)
			}
			coresetsEqualBitwise(t, qOn, qOff, fmt.Sprintf("d=%d %s", d, algo))
			if !qOn.Report.Prefiltered {
				t.Fatalf("d=%d %s: report does not mark the prefiltered build", d, algo)
			}
			if qOff.Report.Prefiltered {
				t.Fatalf("d=%d %s: unfiltered build marked prefiltered", d, algo)
			}
		}
	}
}

// Degenerate inputs must behave identically with the prefilter on and
// off: a single point and an all-duplicate set (both collapse to one
// point, rejected as all-constant), and an all-collinear set.
func TestPrefilterDegenerateInputs(t *testing.T) {
	single := []Point{{1, 2, 3}}
	dup := make([]Point, 50)
	for i := range dup {
		dup[i] = Point{4, 5}
	}
	line := make([]Point, 80)
	for i := range line {
		s := float64(i) / 79
		line[i] = Point{s, 2 * s, -s} // non-axis-aligned line through origin
	}
	cases := []struct {
		name string
		pts  []Point
	}{{"single", single}, {"all-duplicate", dup}, {"all-collinear", line}}
	for _, tc := range cases {
		csOn, errOn := New(tc.pts, WithSeed(3))
		csOff, errOff := New(tc.pts, WithSeed(3), withHooks(true, false))
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%s: construction disagrees: on=%v off=%v", tc.name, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		qOn, errOn := csOn.Coreset(0.2, Auto)
		qOff, errOff := csOff.Coreset(0.2, Auto)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%s: build disagrees: on=%v off=%v", tc.name, errOn, errOff)
		}
		if errOn != nil {
			continue
		}
		coresetsEqualBitwise(t, qOn, qOff, tc.name)
	}
}

// The full determinism matrix: {prefilter on/off} × {warm-start on/off}
// × worker counts must all produce the same coreset, index for index and
// loss bit for bit.
func TestPrefilterWarmStartWorkerMatrix(t *testing.T) {
	pts := messyPoints(250, 3, 55)
	var ref *Coreset
	for _, noPf := range []bool{false, true} {
		for _, noWarm := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				cs, err := New(pts, WithSeed(7), WithWorkers(workers), withHooks(noPf, noWarm))
				if err != nil {
					t.Fatal(err)
				}
				q, err := cs.Coreset(0.1, Auto)
				if err != nil {
					t.Fatalf("pf=%v warm=%v workers=%d: %v", !noPf, !noWarm, workers, err)
				}
				if ref == nil {
					ref = q
					continue
				}
				coresetsEqualBitwise(t, q, ref,
					fmt.Sprintf("pf=%v warm=%v workers=%d", !noPf, !noWarm, workers))
			}
		}
	}
}
