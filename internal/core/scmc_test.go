package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"mincore/internal/geom"
	"mincore/internal/lp"
)

func TestSCMCValidAcrossDims(t *testing.T) {
	for _, d := range []int{2, 3, 4, 6} {
		inst := fatRandom(t, 400, d, int64(d)*31)
		for _, eps := range []float64{0.1, 0.2} {
			q, m, err := inst.SCMC(eps, SCMCOptions{})
			if err != nil {
				t.Fatalf("d=%d ε=%v: %v", d, eps, err)
			}
			if m <= 0 || len(q) == 0 {
				t.Fatalf("d=%d ε=%v: degenerate result |Q|=%d m=%d", d, eps, len(q), m)
			}
			if l := inst.Loss(q); l > eps+1e-9 {
				t.Fatalf("d=%d ε=%v: SCMC loss %v exceeds ε (|Q|=%d)", d, eps, l, len(q))
			}
		}
	}
}

// scmcPins are the SCMC coreset sizes the sample-doubling loop returned
// on fatRandom(n, d, 1000·d+n) with default options, before it was
// replaced by cut generation. At d=6, n=1500, ε=0.05 doubling gave up and
// returned all ξ = 343 extreme points.
var scmcPins = []struct {
	d, n int
	eps  float64
	size int
}{
	{2, 400, 0.2, 5}, {2, 400, 0.1, 7}, {2, 400, 0.05, 8},
	{2, 1500, 0.2, 6}, {2, 1500, 0.1, 6}, {2, 1500, 0.05, 8},
	{3, 400, 0.2, 18}, {3, 400, 0.1, 24}, {3, 400, 0.05, 29},
	{3, 1500, 0.2, 19}, {3, 1500, 0.1, 28}, {3, 1500, 0.05, 38},
	{4, 400, 0.2, 30}, {4, 400, 0.1, 39}, {4, 400, 0.05, 52},
	{4, 1500, 0.2, 37}, {4, 1500, 0.1, 50}, {4, 1500, 0.05, 75},
	{5, 400, 0.2, 53}, {5, 400, 0.1, 85}, {5, 400, 0.05, 92},
	{5, 1500, 0.2, 79}, {5, 1500, 0.1, 140}, {5, 1500, 0.05, 166},
	{6, 400, 0.2, 91}, {6, 400, 0.1, 121}, {6, 400, 0.05, 140},
	{6, 1500, 0.2, 128}, {6, 1500, 0.1, 223}, {6, 1500, 0.05, 343},
}

// TestSCMCGoldenSizes holds SCMC to its pinned sizes: never larger, and
// the exact loss certifies (the 2D reference sweep in 2D, Loss elsewhere).
func TestSCMCGoldenSizes(t *testing.T) {
	insts := map[[2]int]*Instance{}
	for _, pin := range scmcPins {
		key := [2]int{pin.d, pin.n}
		inst := insts[key]
		if inst == nil {
			inst = fatRandom(t, pin.n, pin.d, int64(1000*pin.d+pin.n))
			insts[key] = inst
		}
		q, _, err := inst.SCMC(pin.eps, SCMCOptions{})
		if err != nil {
			t.Fatalf("d=%d n=%d ε=%v: %v", pin.d, pin.n, pin.eps, err)
		}
		if len(q) > pin.size {
			t.Errorf("d=%d n=%d ε=%v: |Q|=%d above its pin %d", pin.d, pin.n, pin.eps, len(q), pin.size)
		}
		var l float64
		if pin.d == 2 {
			l = inst.lossExact2D(q)
		} else {
			l = inst.Loss(q)
		}
		if l > pin.eps+1e-9 {
			t.Errorf("d=%d n=%d ε=%v: loss %v exceeds ε (|Q|=%d)", pin.d, pin.n, pin.eps, l, len(q))
		}
	}
}

// An owner whose gauge LP is infeasible (t ∉ cone(Q)) yields a Farkas
// ray u with ⟨t,u⟩ > 0 < ω(P,u) and ⟨q,u⟩ ≤ 0 for every q ∈ Q: a
// direction Q leaves unrepresented. The ray is orthogonal to every
// column basic at the end of phase 1, so in exact arithmetic
// ω(Q,u) = 0; after rounding it may read a few ulps above, hence the
// 1e-12 slack. That is loss(Q,u) = 1 to rounding, the owner's value the
// cut must meet.
func TestOwnerLPFarkasCuts(t *testing.T) {
	inst := fatRandom(t, 400, 4, 61)
	// Q on one side of a hyperplane through the origin, so the owners on
	// the other side see a whole uncovered cone.
	var qx []geom.Vector
	for _, p := range inst.ExtPts {
		if p[0] > 0.3 {
			qx = append(qx, p)
		}
	}
	g := gaugeWorker{prob: gaugeProblem(qx, inst.D)}
	infeasible := 0
	for _, owner := range inst.ExtPts {
		sol, err := g.solve(owner)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Infeasible {
			continue
		}
		infeasible++
		u := geom.Vector(sol.Farkas)
		u = u.Scale(1 / u.Norm())
		wq := geom.Dot(qx[0], u)
		for _, q := range qx[1:] {
			wq = max(wq, geom.Dot(q, u))
		}
		if tu, wp := geom.Dot(owner, u), inst.Omega(u); !(tu > 0 && wp > 0 && wq <= 1e-12) {
			t.Fatalf("Farkas ray %v: ⟨t,u⟩ = %v, ω(P,u) = %v, ω(Q,u) = %v", u, tu, wp, wq)
		}
	}
	if infeasible == 0 {
		t.Fatal("no infeasible owner LP; test is vacuous")
	}
}

// A cut loop seeded with one direction starts from a one-point cover,
// against which every other owner proves loss 1: its Farkas cut u has
// ⟨t,u⟩ > 0 < ω(P,u) and ω(Q,u) = 0 to rounding, as in
// TestOwnerLPFarkasCuts. The Farkas cuts alone grow the cover to a
// certified coreset well below ξ.
func TestSCMCCutsFromOneDirection(t *testing.T) {
	inst := fatRandom(t, 600, 4, 67)
	eps := 0.1
	seed := []geom.Vector{{1, 0, 0, 0}}
	hits, err := inst.scmcHits(context.Background(), seed, eps/2)
	if err != nil {
		t.Fatal(err)
	}
	q1 := inst.scmcCover(hits)
	if len(q1) != 1 {
		t.Fatalf("one-direction cover has %d points", len(q1))
	}
	vals, cuts, err := inst.ownerLPsCtx(context.Background(), q1, eps, true)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range vals {
		if inst.X[k] == q1[0] {
			continue
		}
		if v != 1 || cuts[k] == nil {
			t.Fatalf("owner %d: loss %v, cut %v; want a loss-1 cut", k, v, cuts[k])
		}
		u := cuts[k]
		tu, wp, wq := geom.Dot(inst.ExtPts[k], u), inst.Omega(u), geom.Dot(inst.Pts[q1[0]], u)
		if !(tu > 0 && wp > 0 && wq <= 1e-12) {
			t.Fatalf("owner %d: cut %v does not miss Q (⟨t,u⟩ = %v, ω(P,u) = %v, ω(Q,u) = %v)", k, u, tu, wp, wq)
		}
	}
	q, total, err := inst.scmcCuts(context.Background(), eps, eps/2, seed, scmcRounds)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 1 || len(q) >= inst.Xi() {
		t.Fatalf("loop did not converge: |Q|=%d of ξ=%d after %d directions", len(q), inst.Xi(), total)
	}
	if l := inst.Loss(q); l > eps+1e-9 {
		t.Fatalf("loss %v exceeds ε", l)
	}
}

// Past the round bound the loop gives up with X, which certifies.
func TestSCMCRoundBoundGivesUpWithX(t *testing.T) {
	inst := fatRandom(t, 600, 4, 67)
	eps := 0.1
	q, total, err := inst.scmcCuts(context.Background(), eps, eps/2, []geom.Vector{{1, 0, 0, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 || !slices.Equal(q, inst.X) {
		t.Fatalf("gave up with |Q|=%d after %d directions, want X (ξ=%d)", len(q), total, inst.Xi())
	}
	if l, err := inst.LossCtx(context.Background(), q); err != nil || l != 0 {
		t.Fatalf("X loss %v (err %v), want 0", l, err)
	}
}

// countdownCtx reports cancellation from its n-th Err check on.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A cancellation at any point of the loop — between rounds, inside the
// range queries or the owner fan-out — surfaces as the context's error,
// never as a partial coreset.
func TestSCMCCancelMidLoop(t *testing.T) {
	inst := fatRandom(t, 1500, 5, 71)
	inst.Workers = 1
	probe := &countdownCtx{Context: context.Background()}
	probe.left.Store(1 << 40)
	if _, _, err := inst.SCMCCtx(probe, 0.05, SCMCOptions{}); err != nil {
		t.Fatal(err)
	}
	checks := 1<<40 - probe.left.Load()
	if checks < 8 {
		t.Fatalf("only %d context checks in a full build", checks)
	}
	for _, n := range []int64{0, 1, checks / 3, checks / 2, checks - 2} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(n)
		if q, _, err := inst.SCMCCtx(ctx, 0.05, SCMCOptions{}); !errors.Is(err, context.Canceled) || q != nil {
			t.Fatalf("cancel after %d of %d checks: |Q|=%d, err %v", n, checks, len(q), err)
		}
	}
}

func TestSCMCSmallerThanXi(t *testing.T) {
	inst := fatRandom(t, 1000, 3, 17)
	q, _, err := inst.SCMC(0.1, SCMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q) >= inst.Xi() {
		t.Fatalf("SCMC |Q|=%d not smaller than ξ=%d at ε=0.1", len(q), inst.Xi())
	}
}

func TestSCMCNet2D(t *testing.T) {
	inst := fatRandom(t, 300, 2, 19)
	eps := 0.15
	q, netSize, err := inst.SCMCNet(eps, 0, SCMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if netSize <= 0 || len(q) == 0 {
		t.Fatalf("net=%d |Q|=%d", netSize, len(q))
	}
	// Lemma A.1: with the full deterministic net, the result satisfies
	// l(Q) ≤ 2δ + γ = ε by construction.
	if l := inst.lossExact2D(q); l > eps+1e-9 {
		t.Fatalf("SCMCNet loss %v exceeds ε=%v", l, eps)
	}
}

func TestSCMCRejectsBadEps(t *testing.T) {
	inst := fatRandom(t, 100, 2, 23)
	if _, _, err := inst.SCMC(0, SCMCOptions{}); err == nil {
		t.Fatal("ε=0 should error")
	}
	if _, _, err := inst.SCMC(1, SCMCOptions{}); err == nil {
		t.Fatal("ε=1 should error")
	}
	if _, _, err := inst.SCMCNet(-0.1, 0, SCMCOptions{}); err == nil {
		t.Fatal("negative ε should error")
	}
}

func TestSCMCGammaTradeoff(t *testing.T) {
	// Larger γ (closer to ε) admits smaller coresets at the cost of more
	// samples; both settings must stay valid (Appendix A remark).
	inst := fatRandom(t, 600, 3, 29)
	eps := 0.1
	qSmallGamma, _, err := inst.SCMC(eps, SCMCOptions{Gamma: eps / 4})
	if err != nil {
		t.Fatal(err)
	}
	qBigGamma, _, err := inst.SCMC(eps, SCMCOptions{Gamma: eps * 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]int{qSmallGamma, qBigGamma} {
		if l := inst.Loss(q); l > eps+1e-9 {
			t.Fatalf("γ-variant invalid: loss %v", l)
		}
	}
}

func TestSCMCExpectedSamplesGrowth(t *testing.T) {
	inst2 := fatRandom(t, 200, 2, 41)
	inst5 := fatRandom(t, 200, 5, 43)
	if inst2.SCMCExpectedSamples(0.1) <= 0 {
		t.Fatal("2D net size must be positive")
	}
	// Exponential growth with d: the d=5 net dwarfs the d=2 net.
	if inst5.SCMCExpectedSamples(0.1) < 100*inst2.SCMCExpectedSamples(0.1) {
		t.Fatalf("net size growth too small: d2=%d d5=%d",
			inst2.SCMCExpectedSamples(0.1), inst5.SCMCExpectedSamples(0.1))
	}
}

func TestDualSolveOptMC(t *testing.T) {
	inst := fatRandom2D(t, 400, 47)
	for _, r := range []int{3, 5, 8} {
		q, eps, err := DualSolve(r, func(e float64) ([]int, error) { return inst.OptMC(e) }, 25)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if len(q) > r {
			t.Fatalf("r=%d: |Q|=%d exceeds budget", r, len(q))
		}
		if l := inst.lossExact2D(q); l > eps+1e-9 {
			t.Fatalf("r=%d: returned coreset has loss %v above its ε=%v", r, l, eps)
		}
	}
}

func TestDualSolveMonotoneBudget(t *testing.T) {
	// Larger budgets admit smaller ε.
	inst := fatRandom2D(t, 400, 53)
	_, eps3, err := DualSolve(3, func(e float64) ([]int, error) { return inst.OptMC(e) }, 25)
	if err != nil {
		t.Fatal(err)
	}
	_, eps8, err := DualSolve(8, func(e float64) ([]int, error) { return inst.OptMC(e) }, 25)
	if err != nil {
		t.Fatal(err)
	}
	if eps8 > eps3+1e-9 {
		t.Fatalf("ε(r=8)=%v > ε(r=3)=%v", eps8, eps3)
	}
}

func TestDualSolveBadBudget(t *testing.T) {
	inst := fatRandom2D(t, 100, 59)
	if _, _, err := DualSolve(0, func(e float64) ([]int, error) { return inst.OptMC(e) }, 10); err == nil {
		t.Fatal("r=0 should error")
	}
	// r below the d+1 floor: no ε works.
	if _, _, err := DualSolve(2, func(e float64) ([]int, error) { return inst.OptMC(e) }, 10); err == nil {
		t.Fatal("r=2 in 2D should be infeasible")
	}
}
