package reduction

import (
	"math/rand"
	"testing"

	"mincore/internal/core"
	"mincore/internal/geom"
)

func randomRMSInstance(n int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		// Keep coordinates bounded away from 0 so every point can reach
		// ⟨p,u⟩ = 1 with u ≥ 0 (general-position RMS instances).
		pts[i] = geom.Vector{
			0.1 + 0.9*rng.Float64(),
			0.1 + 0.9*rng.Float64(),
			0.1 + 0.9*rng.Float64(),
		}
	}
	return pts
}

func TestReduceShape(t *testing.T) {
	p0 := randomRMSInstance(5, 1)
	p1, err := Reduce(p0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 8 {
		t.Fatalf("len = %d", len(p1))
	}
	// Gadgets in the last three slots.
	if p1[5][0] != 1-10.0 || p1[6][1] != 1-10.0 || p1[7][2] != 1-10.0 {
		t.Fatalf("gadgets wrong: %v %v %v", p1[5], p1[6], p1[7])
	}
}

func TestReduceRejectsBadInput(t *testing.T) {
	if _, err := Reduce(randomRMSInstance(3, 2), 3); err == nil {
		t.Fatal("η=3 should error")
	}
	if _, err := Reduce([]geom.Vector{{2, 0, 0}}, 10); err == nil {
		t.Fatal("point outside [0,1]³ should error")
	}
	if _, err := Reduce([]geom.Vector{{0.5, 0.5}}, 10); err == nil {
		t.Fatal("2D point should error")
	}
}

func TestRMSLossBasics(t *testing.T) {
	p0 := randomRMSInstance(6, 3)
	all := make([]int, len(p0))
	for i := range all {
		all[i] = i
	}
	if l := RMSLoss(p0, all); l > 1e-7 {
		t.Fatalf("full set RMS loss = %v want 0", l)
	}
	if l := RMSLoss(p0, nil); l != 1 {
		t.Fatalf("empty RMS loss = %v want 1", l)
	}
	// Loss shrinks (weakly) as the subset grows.
	l1 := RMSLoss(p0, []int{0})
	l2 := RMSLoss(p0, []int{0, 1})
	if l2 > l1+1e-9 {
		t.Fatalf("loss grew with more points: %v -> %v", l1, l2)
	}
}

func TestRMSLossDominatedPointFree(t *testing.T) {
	// A point dominating all others makes a singleton 0-loss solution.
	p0 := []geom.Vector{{1, 1, 1}, {0.5, 0.5, 0.5}, {0.3, 0.7, 0.2}}
	if l := RMSLoss(p0, []int{0}); l > 1e-7 {
		t.Fatalf("dominating singleton loss = %v want 0", l)
	}
	if got := OptimalRMS(p0, 0.01); got != 1 {
		t.Fatalf("OptimalRMS = %d want 1", got)
	}
}

// The central theorem: OPT_MC(P₁, ε) = OPT_RMS(P₀, ε) + 3.
func TestReductionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search")
	}
	for trial := 0; trial < 6; trial++ {
		n := 5 + trial%3
		p0 := randomRMSInstance(n, int64(100+trial))
		eps := 0.05 + 0.2*float64(trial)/6
		eta := EtaFor(0.05)
		p1, err := Reduce(p0, eta)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := core.NewInstance(p1)
		if err != nil {
			t.Fatalf("trial %d: reduced instance not usable: %v", trial, err)
		}
		optRMS := OptimalRMS(p0, eps)
		optMC := OptimalMC(len(p1), eps, inst.Loss)
		if optMC != optRMS+GadgetCount {
			t.Fatalf("trial %d (ε=%v, η=%v): OPT_MC=%d, OPT_RMS=%d — want OPT_MC = OPT_RMS+3",
				trial, eps, eta, optMC, optRMS)
		}
	}
}

// Claim (a) of the proof: any solution missing a gadget point has loss
// close to 1 (the gadget owns directions like (−1,0,0)).
func TestGadgetsAreMandatory(t *testing.T) {
	p0 := randomRMSInstance(5, 7)
	p1, err := Reduce(p0, EtaFor(0.05))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(p1)
	if err != nil {
		t.Fatal(err)
	}
	// All of P₀ plus only two gadgets.
	q := []int{0, 1, 2, 3, 4, 5, 6} // missing gadget index 7 (b_z)
	if l := inst.Loss(q); l < 0.99 {
		t.Fatalf("solution missing b_z has loss %v, want ≈ 1", l)
	}
}

// Claim (i): gadgets plus an RMS solution form a valid ε-coreset.
func TestRMSSolutionPlusGadgetsIsCoreset(t *testing.T) {
	p0 := randomRMSInstance(7, 9)
	eps := 0.15
	// Find some RMS solution greedily by exhaustive search.
	optSize := OptimalRMS(p0, eps)
	if optSize > len(p0) {
		t.Skip("no RMS solution at this ε")
	}
	// Recover one optimal subset.
	var sol []int
	var rec func(start int, cur []int) bool
	rec = func(start int, cur []int) bool {
		if len(cur) == optSize {
			if RMSLoss(p0, cur) <= eps {
				sol = append([]int(nil), cur...)
				return true
			}
			return false
		}
		for i := start; i < len(p0); i++ {
			if rec(i+1, append(cur, i)) {
				return true
			}
		}
		return false
	}
	if !rec(0, nil) {
		t.Fatal("could not recover optimal RMS subset")
	}
	p1, err := Reduce(p0, EtaFor(0.05))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(p1)
	if err != nil {
		t.Fatal(err)
	}
	q := append(append([]int(nil), sol...), len(p0), len(p0)+1, len(p0)+2)
	if l := inst.Loss(q); l > eps+1e-6 {
		t.Fatalf("RMS solution ∪ B has MC loss %v > ε=%v", l, eps)
	}
}

func TestSmallestSubset(t *testing.T) {
	got := smallestSubset(4, func(q []int) bool { return len(q) >= 2 && q[0] == 0 })
	if got != 2 {
		t.Fatalf("smallestSubset = %d want 2", got)
	}
	if got := smallestSubset(3, func(q []int) bool { return false }); got != 4 {
		t.Fatalf("infeasible should give n+1, got %d", got)
	}
}
