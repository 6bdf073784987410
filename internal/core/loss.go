package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"mincore/internal/faultinject"
	"mincore/internal/geom"
	"mincore/internal/lp"
	"mincore/internal/mips"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/sphere"
)

// Loss evaluation: l(Q,P) = max_{u∈S^{d-1}} 1 − ω(Q,u)/ω(P,u)
// (Definition 2.2). Two evaluators:
//
//   - Loss: exact in any dimension via the gauge of conv(Q): one LP per
//     extreme point t, min Σλⱼ s.t. Σλⱼqⱼ = t, λ ≥ 0, whose matrix is Q
//     for every owner, so one warm-started solver per worker serves the
//     whole owner scan (DESIGN.md §15.6). Its 2D test reference is the
//     critical-direction sweep in loss2d_ref_test.go.
//   - LossSampled: per-direction losses over a direction sample, used for
//     the loss-distribution experiments (Appendix B) and quick validation.
//
// Both evaluators require a fat instance (ω(P,u) > 0 everywhere) and
// report losses clamped to [0,1]: a loss of 1 means some direction's
// maximum is entirely unrepresented (ω(Q,u) ≤ 0).
//
// The Ctx variants report solver failures (numerical instability in the
// LP oracle, unexpected statuses) as typed errors; the plain variants
// degrade conservatively instead, reporting the worst-case loss 1 for a
// subset whose loss cannot be measured — an unmeasurable coreset is
// never certified, only ever over-rejected.
//
// Each evaluator fans its independent per-direction (or per-owner) work
// out over Instance.Workers goroutines; every unit writes into its own
// slot and the maxima are reduced sequentially, so results are bitwise
// identical for every worker count. The Ctx variants additionally stop
// early — returning ctx.Err() — when the context is cancelled.

// Loss returns the exact maximum loss of Q (indices into inst.Pts).
// Comparing support functions, l(Q,P) ≤ ε holds exactly when
// conv(Q) ⊇ (1−ε)·conv(P), so the loss is read off the gauge of conv(Q)
// at the extreme points: for each t ∈ X solve
//
//	g(t) = min Σⱼ λⱼ  s.t.  Σⱼ λⱼ·qⱼ = t,  λ ≥ 0,
//
// whose LP dual is max ⟨t,y⟩ s.t. ⟨q,y⟩ ≤ 1 ∀q ∈ Q. Owner t's loss
// 1 − 1/g(t) is the largest 1 − ω(Q,u) over the directions u with
// ⟨t,u⟩ = 1: it lower-bounds the loss everywhere and matches it at the
// true worst direction's owner, so the maximum over t ∈ X is l(Q,P). An
// infeasible gauge LP (t ∉ cone(Q)) means the coreset misses a whole
// direction cone (loss 1). When the LP oracle fails (numerical
// instability), the conservative worst case 1 is reported; use LossCtx
// to distinguish failure from loss.
func (inst *Instance) Loss(q []int) float64 {
	l, err := inst.LossCtx(context.Background(), q)
	if err != nil {
		return 1
	}
	return l
}

// LossCtx is Loss with cooperative cancellation. The per-owner LPs run
// in parallel; once any owner proves loss 1 the remaining LPs are
// skipped (the result is 1 regardless of which owners were skipped, so
// the early exit preserves determinism).
func (inst *Instance) LossCtx(ctx context.Context, q []int) (float64, error) {
	vals, _, err := inst.ownerLPsCtx(ctx, q, 0, false)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, v := range vals {
		if v > worst {
			worst = v
		}
	}
	return clampLoss(worst), nil
}

// gaugeChunk is the length of one warm chain of the gauge oracle: the
// scan tour is cut into chunks of this many owners, and each chunk is
// one unit of parallel work whose first solve is cold.
const gaugeChunk = 32

// ownerLPsCtx is the exact oracle's per-owner fan-out, shared by
// LossCtx and SCMC's cut loop. vals[k] is the loss extreme point
// k's gauge LP proves: 1 − 1/g(t), or 1 when the LP is infeasible (an
// uncovered direction cone, also every owner's verdict when Q is empty);
// owners that coincide with a point of Q prove 0 without a solve.
//
// The LP matrix is Q for every owner and only the right-hand side t
// changes, so each worker builds one Problem per call and solves its
// owners on one warm-started lp.Solver (DESIGN.md §15.2). Owners run in
// scan-tour order (scanOrder), so consecutive right-hand sides are
// close, cut into fixed chunks of gaugeChunk owners. A chunk is one unit
// of parallel work and starts cold, so no value depends on the worker
// count; each owner writes only its own slots.
//
// Without cuts the fan-out stops as soon as some owner proves loss 1. With
// cuts every owner is solved, and cuts[k] is a unit direction u with
// loss(Q,u) ≥ vals[k] for each owner above eps, read off the LP already
// solved: the simplex multipliers y of an optimal solve (the dual's
// maximizer, ⟨q,y⟩ ≤ 1 for every q and ⟨t,y⟩ = g(t)), or an infeasible
// solve's Farkas ray y (⟨q,y⟩ ≤ 0 for every q and ⟨t,y⟩ > 0). cuts[k]
// stays nil when that vector cannot be normalized.
func (inst *Instance) ownerLPsCtx(ctx context.Context, q []int, eps float64, cuts bool) ([]float64, []geom.Vector, error) {
	if obs.On() {
		mLossExact.Inc()
	}
	vals := make([]float64, len(inst.ExtPts))
	var dirs []geom.Vector
	if cuts {
		dirs = make([]geom.Vector, len(inst.ExtPts))
	}
	if len(q) == 0 {
		for k := range vals {
			vals[k] = 1
		}
		return vals, dirs, nil
	}
	d := inst.D
	qpts := make([]geom.Vector, len(q))
	inQ := make(map[string]bool, len(q))
	var key []byte
	for i, id := range q {
		qpts[i] = inst.Pts[id]
		key = geom.AppendKey(key[:0], qpts[i])
		inQ[string(key)] = true
	}
	tour := inst.scanOrder()
	chunks := (len(tour) + gaugeChunk - 1) / gaugeChunk
	workers := make([]gaugeWorker, parallel.WorkersFor(inst.Workers, chunks))
	errs := make([]error, len(inst.ExtPts))
	var lossOne atomic.Bool
	err := parallel.ForWorker(ctx, inst.Workers, chunks, func(w, c int) {
		g := &workers[w]
		if g.prob == nil {
			g.prob = gaugeProblem(qpts, d)
			g.solver = lp.Solver{SkipFarkas: !cuts, ValueOnly: true, NoWarm: inst.DisableLPWarmStart}
		}
		g.solver.Reset() // a cold chain start keeps values independent of scheduling
		for _, k := range tour[c*gaugeChunk : min((c+1)*gaugeChunk, len(tour))] {
			if !cuts && lossOne.Load() {
				return
			}
			t := inst.ExtPts[k]
			// An owner in Q is represented exactly: g(t) = 1, loss 0.
			g.key = geom.AppendKey(g.key[:0], t)
			if inQ[string(g.key)] {
				continue
			}
			sol, lerr := g.solve(t)
			if lerr != nil {
				errs[k] = lerr
				continue
			}
			if sol.Status == lp.Infeasible {
				vals[k] = 1
				lossOne.Store(true)
			} else {
				vals[k] = 1 - 1/sol.Value
			}
			if !cuts || vals[k] <= eps {
				continue
			}
			u := sol.Farkas
			if sol.Status == lp.Optimal {
				g.pi = g.solver.Multipliers(g.pi)
				u = g.pi
			}
			if len(u) == d {
				v := geom.Vector(u)
				if n := v.Norm(); n > 0 && n <= math.MaxFloat64 {
					dirs[k] = v.Scale(1 / n)
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// A failed owner LP wins over any result: a loss assembled from a
	// partially failed oracle must never certify a coreset.
	if lerr := firstError(errs); lerr != nil {
		return nil, nil, lerr
	}
	return vals, dirs, nil
}

// gaugeWorker is one worker's arena for the gauge oracle: its solver,
// the gauge Problem over Q it warm-starts on (built on the worker's
// first chunk), and the multiplier and coordinate-key buffers.
type gaugeWorker struct {
	solver lp.Solver
	prob   *lp.Problem
	pi     []float64
	key    []byte
}

// gaugeProblem builds the gauge LP of conv(Q): one column λⱼ ≥ 0 per
// point of Q, the objective min Σλⱼ, and d equality rows Σλⱼqⱼ = t whose
// right-hand sides each solve retargets. Interior points of Q are
// harmless columns: they never lower the minimum.
func gaugeProblem(qpts []geom.Vector, d int) *lp.Problem {
	nq := len(qpts)
	prob := lp.NewProblem(nq)
	row := make([]float64, nq)
	for j := range row {
		prob.SetNonNegative(j)
		row[j] = 1
	}
	prob.SetObjective(row, false)
	for i := 0; i < d; i++ {
		for j, qp := range qpts {
			row[j] = qp[i]
		}
		prob.AddEQ(row, 0)
	}
	return prob
}

// solve runs owner t's gauge LP on the worker's problem and returns its
// solution: Optimal with g(t) > 0, or Infeasible (t ∉ cone(Q): loss 1).
// Any other outcome is a solver failure returned as an error, whose
// value must not be trusted.
func (g *gaugeWorker) solve(t geom.Vector) (lp.Solution, error) {
	if faultinject.Fail(faultinject.SiteLossLP) {
		return lp.Solution{}, fmt.Errorf("core: loss-LP failpoint: %w", ErrNumericalInstability)
	}
	for i, v := range t {
		g.prob.SetConstraintRHS(i, v)
	}
	sol := g.solver.Solve(g.prob)
	switch sol.Status {
	case lp.Infeasible:
		return sol, nil
	case lp.Optimal:
		if !(sol.Value > 0) {
			// g(t) = Σλ is 0 only at t = 0, impossible on a fat
			// instance: a misread 1 − 1/g must never turn into a loss.
			return sol, fmt.Errorf("core: gauge LP optimum %g: %w", sol.Value, ErrNumericalInstability)
		}
		return sol, nil
	case lp.Unbounded:
		// Σλ over λ ≥ 0 is bounded below by 0: a misread, not a loss.
		return sol, fmt.Errorf("core: gauge LP unbounded: %w", ErrInfeasible)
	default:
		return sol, lpFailure(sol.Status)
	}
}

// LossSampled returns the per-direction losses of Q over the given
// directions, each clamped to [0,1]. On an evaluator failure every
// direction reports the conservative worst case 1.
func (inst *Instance) LossSampled(q []int, dirs []geom.Vector) []float64 {
	out, err := inst.LossSampledCtx(context.Background(), q, dirs)
	if err != nil {
		out = make([]float64, len(dirs))
		for i := range out {
			out[i] = 1
		}
	}
	return out
}

// LossSampledCtx is LossSampled with cooperative cancellation; each
// direction's loss is written to its own slot.
func (inst *Instance) LossSampledCtx(ctx context.Context, q []int, dirs []geom.Vector) ([]float64, error) {
	if obs.On() {
		mLossSampled.Inc()
	}
	qpts := make([]geom.Vector, len(q))
	for i, id := range q {
		qpts[i] = inst.Pts[id]
	}
	qTree := mips.NewKDTree(qpts)
	out := make([]float64, len(dirs))
	err := parallel.For(ctx, inst.Workers, len(dirs), func(k int) {
		u := dirs[k]
		wp := inst.Omega(u)
		if wp <= 0 {
			out[k] = 0
			return
		}
		if len(qpts) == 0 {
			out[k] = 1
			return
		}
		_, wq := qTree.MaxDot(u)
		out[k] = clampLoss(1 - wq/wp)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaxLossSampled is the maximum of LossSampled — a lower bound on the
// true loss that converges as the sample densifies (conservatively 1
// when the evaluator fails).
func (inst *Instance) MaxLossSampled(q []int, samples int, seed int64) float64 {
	worst := 0.0
	for _, l := range inst.LossSampled(q, sphere.RandomDirections(samples, inst.D, seed)) {
		worst = math.Max(worst, l)
	}
	return worst
}

func clampLoss(l float64) float64 {
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
