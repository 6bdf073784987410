package core

import (
	"math/rand"
	"testing"

	"mincore/internal/geom"
	"mincore/internal/sphere"
	"mincore/internal/voronoi"
)

func mustDG(t testing.TB, inst *Instance, ipdg *voronoi.IPDG) *DominanceGraph {
	t.Helper()
	dg, err := inst.BuildDominanceGraph(ipdg)
	if err != nil {
		t.Fatalf("BuildDominanceGraph: %v", err)
	}
	return dg
}

func fatRandom(t testing.TB, n, d int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	inst, err := NewInstance(pts)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestDSMCValid2D(t *testing.T) {
	inst := fatRandom(t, 400, 2, 1)
	ipdg := inst.BuildIPDG(0, 1)
	dg := mustDG(t, inst, ipdg)
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		q, err := inst.DSMC(dg, eps)
		if err != nil {
			t.Fatal(err)
		}
		if l := inst.lossExact2D(q); l > eps+1e-9 {
			t.Fatalf("ε=%v: DSMC loss %v exceeds ε (|Q|=%d)", eps, l, len(q))
		}
	}
}

func TestDSMCValid3DExactIPDG(t *testing.T) {
	inst := fatRandom(t, 300, 3, 2)
	ipdg := inst.BuildIPDG(0, 1)
	dg := mustDG(t, inst, ipdg)
	for _, eps := range []float64{0.05, 0.15} {
		q, err := inst.DSMC(dg, eps)
		if err != nil {
			t.Fatal(err)
		}
		if l := inst.Loss(q); l > eps+1e-6 {
			t.Fatalf("ε=%v: DSMC loss %v exceeds ε (|Q|=%d)", eps, l, len(q))
		}
	}
}

func TestDSMCValidHigherDApproxIPDG(t *testing.T) {
	for _, d := range []int{4, 6} {
		inst := fatRandom(t, 300, d, int64(d))
		ipdg := inst.BuildIPDG(0, 7)
		dg := mustDG(t, inst, ipdg)
		for _, eps := range []float64{0.1, 0.2} {
			q, err := inst.DSMC(dg, eps)
			if err != nil {
				t.Fatal(err)
			}
			if l := inst.Loss(q); l > eps+1e-6 {
				t.Fatalf("d=%d ε=%v: DSMC loss %v exceeds ε (|Q|=%d)", d, eps, l, len(q))
			}
		}
	}
}

func TestDSMCNearOptimal2D(t *testing.T) {
	// Figure 4: DSMC is near-optimal in 2D. Allow a modest factor over
	// OptMC.
	inst := fatRandom(t, 500, 2, 3)
	ipdg := inst.BuildIPDG(0, 1)
	dg := mustDG(t, inst, ipdg)
	for _, eps := range []float64{0.05, 0.1} {
		opt, err := inst.OptMC(eps)
		if err != nil {
			t.Fatal(err)
		}
		q, err := inst.DSMCRefined(dg, eps, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(q) < len(opt) {
			t.Fatalf("ε=%v: DSMC (%d) beat the optimum (%d)?!", eps, len(q), len(opt))
		}
		if len(q) > 3*len(opt)+2 {
			t.Fatalf("ε=%v: DSMC size %d far above optimal %d", eps, len(q), len(opt))
		}
	}
}

func TestDSMCRefinedNoWorse(t *testing.T) {
	inst := fatRandom(t, 400, 3, 5)
	ipdg := inst.BuildIPDG(0, 1)
	dg := mustDG(t, inst, ipdg)
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		plain, err := inst.DSMC(dg, eps)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := inst.DSMCRefined(dg, eps, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(refined) > len(plain) {
			t.Fatalf("ε=%v: refined %d > plain %d", eps, len(refined), len(plain))
		}
		if l := inst.Loss(refined); l > eps+1e-6 {
			t.Fatalf("ε=%v: refined loss %v exceeds ε", eps, l)
		}
	}
}

func TestDSMCMonotoneInEps(t *testing.T) {
	inst := fatRandom(t, 400, 3, 7)
	dg := mustDG(t, inst, inst.BuildIPDG(0, 1))
	prev := 1 << 30
	for _, eps := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		q, err := inst.DSMC(dg, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(q) > prev {
			t.Fatalf("DSMC size grew with ε at %v: %d > %d", eps, len(q), prev)
		}
		prev = len(q)
	}
}

func TestDominanceGraphWeightsAreLossBounds(t *testing.T) {
	// For an exact IPDG, ε_ij is the max loss of t_i over R(t_j); verify
	// by sampling directions in R(t_j) and checking the loss never
	// exceeds ε_ij.
	inst := fatRandom(t, 200, 2, 9)
	ipdg := inst.BuildIPDG(0, 1)
	dg := mustDG(t, inst, ipdg)
	dirs := sphere.Circle(3600)
	xi := inst.Xi()
	for _, u := range dirs {
		// Find the owner t_j of u among extreme points.
		j, w := geom.MaxDot(inst.ExtPts, u)
		if w <= 0 {
			continue
		}
		for i := 0; i < xi; i++ {
			if i == j {
				continue
			}
			eij, ok := dg.Weight(i, j)
			if !ok {
				continue
			}
			loss := 1 - geom.Dot(inst.ExtPts[i], u)/w
			if loss > eij+1e-7 {
				t.Fatalf("pair (%d→%d): sampled loss %v exceeds ε_ij=%v", i, j, loss, eij)
			}
		}
	}
}

func TestDominanceGraphStats(t *testing.T) {
	inst := fatRandom(t, 300, 2, 11)
	ipdg := inst.BuildIPDG(0, 1)
	dg := mustDG(t, inst, ipdg)
	xi := inst.Xi()
	if dg.NumLPs <= 0 || dg.NumLPs > xi*(xi-1) {
		t.Fatalf("NumLPs = %d outside (0, %d] (witness prefilter skips the rest)",
			dg.NumLPs, xi*(xi-1))
	}
	if dg.IPDGEdges != ipdg.NumEdges() {
		t.Fatal("IPDGEdges mismatch")
	}
	if dg.NumEdges == 0 {
		t.Fatal("no dominance edges at all")
	}
}

func TestDSMCRejectsBadEps(t *testing.T) {
	inst := fatRandom(t, 100, 2, 13)
	dg := mustDG(t, inst, inst.BuildIPDG(0, 1))
	if _, err := inst.DSMC(dg, 0); err == nil {
		t.Fatal("ε=0 should error")
	}
	if _, err := inst.DSMC(dg, 1.5); err == nil {
		t.Fatal("ε>1 should error")
	}
}

func TestDSMCCoversAllExtremesAtTinyEps(t *testing.T) {
	// At ε below every edge weight, the dominating set degenerates to all
	// of X.
	inst := fatRandom(t, 200, 2, 15)
	dg := mustDG(t, inst, inst.BuildIPDG(0, 1))
	q, err := inst.DSMC(dg, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) > inst.Xi() {
		t.Fatalf("|Q| = %d exceeds ξ = %d", len(q), inst.Xi())
	}
	if l := inst.lossExact2D(q); l > 1e-9 {
		t.Fatalf("near-zero ε solution has loss %v", l)
	}
}
