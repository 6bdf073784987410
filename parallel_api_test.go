package mincore_test

// Tests for the parallel execution layer surfaced through the public
// API: bitwise determinism across worker counts, context cancellation,
// the functional-options constructor, and the typed sentinel errors.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mincore"
)

func gaussianPoints(n, d int, seed int64) []mincore.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]mincore.Point, n)
	for i := range pts {
		p := make(mincore.Point, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

func sameCoreset(t *testing.T, label string, a, b *mincore.Coreset) {
	t.Helper()
	if len(a.Indices) != len(b.Indices) {
		t.Fatalf("%s: sizes differ: %d vs %d", label, len(a.Indices), len(b.Indices))
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("%s: index %d differs: %d vs %d", label, i, a.Indices[i], b.Indices[i])
		}
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
		t.Fatalf("%s: losses differ bitwise: %v vs %v", label, a.Loss, b.Loss)
	}
}

// TestWorkerCountDeterminism is the acceptance check of the parallel
// layer: coreset indices and measured losses must be bitwise identical
// for Workers=1 and Workers=8 on every algorithm and dimension. The d=5,
// ε=0.02 case runs SCMC's cut loop through several rounds.
func TestWorkerCountDeterminism(t *testing.T) {
	cases := []struct {
		n, d int
		eps  float64
	}{
		{1500, 2, 0.1},
		{1200, 3, 0.1},
		{900, 4, 0.1},
		{5000, 5, 0.02},
	}
	for _, tc := range cases {
		pts := gaussianPoints(tc.n, tc.d, 11)
		cs1, err := mincore.New(pts, mincore.WithSeed(7), mincore.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		cs8, err := mincore.New(pts, mincore.WithSeed(7), mincore.WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		algos := []mincore.Algorithm{mincore.DSMC, mincore.SCMC, mincore.Auto}
		if tc.d == 2 {
			algos = append(algos, mincore.OptMC)
		}
		for _, algo := range algos {
			q1, err1 := cs1.Coreset(tc.eps, algo)
			q8, err8 := cs8.Coreset(tc.eps, algo)
			if err1 != nil || err8 != nil {
				t.Fatalf("d=%d %s: errors %v / %v", tc.d, algo, err1, err8)
			}
			sameCoreset(t, string(algo), q1, q8)
		}
		// The build stats (LPs solved, edges found) must agree too: the
		// witness prefilter and LP loop are partitioned, not re-ordered.
		l1, e1, g1, _ := cs1.DominanceGraphStats()
		l8, e8, g8, _ := cs8.DominanceGraphStats()
		if l1 != l8 || e1 != e8 || g1 != g8 {
			t.Fatalf("d=%d: dominance-graph stats differ: (%d,%d,%d) vs (%d,%d,%d)",
				tc.d, l1, e1, g1, l8, e8, g8)
		}
	}
}

// TestWorkerCountDeterminismLoss checks the loss evaluators directly:
// exact and sampled losses of an arbitrary subset must not depend on the
// worker count.
func TestWorkerCountDeterminismLoss(t *testing.T) {
	pts := gaussianPoints(1000, 3, 5)
	cs1, err := mincore.New(pts, mincore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cs8, err := mincore.New(pts, mincore.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	sub := []int{0, 5, 17, 99, 200, 412, 700}
	if a, b := cs1.Loss(sub), cs8.Loss(sub); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("exact loss differs: %v vs %v", a, b)
	}
	p1 := cs1.LossProfile(sub, 500)
	p8 := cs8.LossProfile(sub, 500)
	for i := range p1 {
		if math.Float64bits(p1[i]) != math.Float64bits(p8[i]) {
			t.Fatalf("sampled loss %d differs: %v vs %v", i, p1[i], p8[i])
		}
	}
}

func TestCoresetCtxPreCancelled(t *testing.T) {
	cs, err := mincore.New(gaussianPoints(500, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []mincore.Algorithm{mincore.DSMC, mincore.SCMC, mincore.OptMC, mincore.ANN} {
		if _, err := cs.CoresetCtx(ctx, 0.1, algo); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
	if _, err := cs.FixedSizeCtx(ctx, 10, mincore.DSMC); !errors.Is(err, context.Canceled) {
		t.Fatalf("FixedSizeCtx: err = %v, want context.Canceled", err)
	}
}

// TestCoresetCtxCancelMidBuild cancels during the dominance-graph build
// — thousands of LP solves — and during SCMC's cut loop, and requires the
// deadline error to surface. A cancelled build must not poison the cache:
// a later call with a live context must succeed.
func TestCoresetCtxCancelMidBuild(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		eps  float64
		algo mincore.Algorithm
	}{
		{4000, 4, 0.1, mincore.DSMC},
		{5000, 5, 0.02, mincore.SCMC},
	} {
		cs, err := mincore.New(gaussianPoints(tc.n, tc.d, 9), mincore.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if _, err := cs.CoresetCtx(ctx, tc.eps, tc.algo); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", tc.algo, err)
		}
		cancel()
		q, err := cs.Coreset(tc.eps, tc.algo)
		if err != nil {
			t.Fatalf("%s: retry after cancelled build: %v", tc.algo, err)
		}
		if q.Loss > tc.eps+1e-6 {
			t.Fatalf("%s: retry loss %v", tc.algo, q.Loss)
		}
	}
}

// TestAutoReportsAllFailures exercises the errors.Join path: with an
// illegal ε in 2D, every attempted algorithm (OptMC, then the DSMC/SCMC
// fallback pair) must appear in the composite error.
func TestAutoReportsAllFailures(t *testing.T) {
	cs, err := mincore.New(gaussianPoints(300, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cs.Coreset(-0.5, mincore.Auto)
	if err == nil {
		t.Fatal("Auto accepted ε=-0.5")
	}
	msg := err.Error()
	for _, frag := range []string{"OptMC", "DSMC", "SCMC"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("composite error misses %s: %q", frag, msg)
		}
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := mincore.New(nil); !errors.Is(err, mincore.ErrEmptyInput) {
		t.Fatalf("New(nil): err = %v, want ErrEmptyInput", err)
	}
	cs, err := mincore.New(gaussianPoints(100, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Coreset(0.1, mincore.Algorithm("bogus")); !errors.Is(err, mincore.ErrUnknownAlgorithm) {
		t.Fatalf("bogus algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestFunctionalOptions checks that the option styles are equivalent and
// composable, and that the legacy struct form still works.
func TestFunctionalOptions(t *testing.T) {
	pts := gaussianPoints(400, 3, 6)
	legacy, err := mincore.New(pts, mincore.Options{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	functional, err := mincore.New(pts, mincore.WithSeed(42), mincore.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	adapter, err := mincore.New(pts, mincore.WithOptions(mincore.Options{Seed: 42}), mincore.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ql, err := legacy.Coreset(0.1, mincore.SCMC)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := functional.Coreset(0.1, mincore.SCMC)
	if err != nil {
		t.Fatal(err)
	}
	qa, err := adapter.Coreset(0.1, mincore.SCMC)
	if err != nil {
		t.Fatal(err)
	}
	sameCoreset(t, "legacy-vs-functional", ql, qf)
	sameCoreset(t, "legacy-vs-adapter", ql, qa)
}

// TestCoreseterConcurrentUse hammers one Coreseter from many goroutines
// (the documented thread-safety contract); run with -race this verifies
// the dominance-graph cache and the parallel loops are race-clean.
func TestCoreseterConcurrentUse(t *testing.T) {
	cs, err := mincore.New(gaussianPoints(800, 3, 8), mincore.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	algos := []mincore.Algorithm{mincore.DSMC, mincore.SCMC, mincore.DSMC, mincore.Auto}
	var wg sync.WaitGroup
	results := make([]*mincore.Coreset, len(algos))
	errs := make([]error, len(algos))
	for i, algo := range algos {
		wg.Add(1)
		go func(i int, algo mincore.Algorithm) {
			defer wg.Done()
			results[i], errs[i] = cs.Coreset(0.15, algo)
		}(i, algo)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", algos[i], err)
		}
		if results[i].Loss > 0.15+1e-6 {
			t.Fatalf("%s: loss %v", algos[i], results[i].Loss)
		}
	}
	sameCoreset(t, "repeated DSMC", results[0], results[2])
}
