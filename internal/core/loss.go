package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"mincore/internal/faultinject"
	"mincore/internal/geom"
	"mincore/internal/hull"
	"mincore/internal/lp"
	"mincore/internal/mips"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/sphere"
	"mincore/internal/voronoi"
)

// Loss evaluation: l(Q,P) = max_{u∈S^{d-1}} 1 − ω(Q,u)/ω(P,u)
// (Definition 2.2). Three evaluators:
//
//   - LossExact2D: exact in R² by enumerating the critical directions —
//     the Voronoi boundary vectors of X and of the hull of Q, where the
//     piecewise-monotone loss attains its maxima.
//   - LossExactLP: exact in any dimension via one LP per extreme point,
//     the linear program of Nanongkai et al. [35] cited in the hardness
//     proof (Section 3).
//   - LossSampled: per-direction losses over a direction sample, used for
//     the loss-distribution experiments (Appendix B) and quick validation.
//
// All evaluators require a fat instance (ω(P,u) > 0 everywhere) and
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

// LossExact2D returns the exact maximum loss of Q (indices into inst.Pts)
// in two dimensions, or the conservative worst case 1 when the loss
// cannot be measured (use LossExact2DCtx to distinguish).
func (inst *Instance) LossExact2D(q []int) float64 {
	l, err := inst.LossExact2DCtx(context.Background(), q)
	if err != nil {
		return 1
	}
	return l
}

// LossExact2DCtx is LossExact2D with cooperative cancellation.
func (inst *Instance) LossExact2DCtx(ctx context.Context, q []int) (float64, error) {
	if obs.On() {
		mLossExact2D.Inc()
	}
	if inst.D != 2 {
		return 0, fmt.Errorf("core: LossExact2D on %dD instance", inst.D)
	}
	if len(q) == 0 {
		return 1, nil
	}
	qpts := make([]geom.Vector, len(q))
	for i, id := range q {
		qpts[i] = inst.Pts[id]
	}
	// Upper envelope of Q is realized by the hull of Q; its boundary
	// vectors are the argmax breakpoints.
	qh, err := hull.Hull2D(qpts)
	if err != nil {
		return 0, fmt.Errorf("core: loss evaluation: %w", err)
	}
	qExt := make([]geom.Vector, len(qh))
	for i, id := range qh {
		qExt[i] = qpts[id]
	}
	qExtSorted, err := hull.SortCCWByAngle(qExt, identity(len(qExt)))
	if err != nil {
		return 0, fmt.Errorf("core: loss evaluation: %w", err)
	}
	ordered := make([]geom.Vector, len(qExtSorted))
	for i, id := range qExtSorted {
		ordered[i] = qExt[id]
	}

	candidates := append([]geom.Vector(nil), inst.BoundaryVecs...)
	if len(ordered) >= 2 {
		if bv, err := voronoi.BoundaryVectors2D(ordered); err == nil {
			candidates = append(candidates, bv...)
		}
	}
	// Guard directions: perpendiculars to each coreset point (where its
	// own contribution crosses zero) catch the loss-=1 coverage gaps.
	for _, p := range ordered {
		th := geom.Theta(p)
		candidates = append(candidates,
			geom.UnitFromTheta(th+math.Pi/2), geom.UnitFromTheta(th-math.Pi/2))
	}

	qTree := mips.NewKDTree(ordered)
	losses := make([]float64, len(candidates))
	err = parallel.For(ctx, inst.Workers, len(candidates), func(k int) {
		u := candidates[k]
		wp := inst.Omega(u)
		if wp <= 0 {
			return // cannot happen on a fat instance
		}
		_, wq := qTree.MaxDot(u)
		losses[k] = 1 - wq/wp
	})
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, l := range losses {
		if l > worst {
			worst = l
		}
	}
	return clampLoss(worst), nil
}

// LossExactLP returns the exact maximum loss of Q in any dimension: for
// each extreme point t, solve
//
//	max x  s.t.  ⟨q,u⟩ ≤ 1−x ∀q∈Q,  ⟨t,u⟩ = 1,
//
// whose optimum lower-bounds the loss everywhere and matches it at the
// true worst direction's owner; the maximum over t ∈ X is l(Q,P).
// Unbounded LPs mean the coreset misses a whole direction cone (loss 1).
// When the LP oracle fails (numerical instability), the conservative
// worst case 1 is reported; use LossExactLPCtx to distinguish.
func (inst *Instance) LossExactLP(q []int) float64 {
	l, err := inst.LossExactLPCtx(context.Background(), q)
	if err != nil {
		return 1
	}
	return l
}

// LossExactLPCtx is LossExactLP with cooperative cancellation. The
// per-owner LPs run in parallel; once any owner proves loss 1 the
// remaining LPs are skipped (the result is 1 regardless of which owners
// were skipped, so the early exit preserves determinism).
func (inst *Instance) LossExactLPCtx(ctx context.Context, q []int) (float64, error) {
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

// ownerLPsCtx is the exact oracle's per-owner fan-out, shared by
// LossExactLPCtx and SCMC's cut loop. vals[k] is the loss the LP of
// extreme point k proves: its optimum, or 1 for an infeasible dual (an
// uncovered direction cone, also every owner's verdict when Q is empty);
// owners in Q prove 0. Each owner writes only its own slots and owners
// are independent, so the result is bitwise identical for every worker
// count.
//
// Without cuts the fan-out stops as soon as some owner proves loss 1. With
// cuts every owner is solved, and cuts[k] is a unit direction u with
// loss(Q,u) ≥ vals[k] for each owner above eps, read off the LP already
// solved: the first d simplex multipliers of an optimal dual (the primal's
// maximizing u), or the first d entries of an infeasible dual's Farkas
// ray, which satisfies ω(Q,u) < 0 < ω(P,u). cuts[k] stays nil when that
// vector cannot be normalized.
func (inst *Instance) ownerLPsCtx(ctx context.Context, q []int, eps float64, cuts bool) ([]float64, []geom.Vector, error) {
	if obs.On() {
		mLossExactLP.Inc()
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
	for i, id := range q {
		qpts[i] = inst.Pts[id]
	}
	// Restrict to the hull of Q: interior points never realize ω(Q,u).
	qh, err := hull.ExtremePoints(qpts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: loss evaluation: %w", err)
	}
	qx := make([]geom.Vector, len(qh))
	for i, id := range qh {
		qx[i] = qpts[id]
	}

	inQ := make(map[string]bool, len(qx))
	for _, qp := range qx {
		inQ[string(geom.AppendKey(nil, qp))] = true
	}
	errs := make([]error, len(inst.ExtPts))
	var lossOne atomic.Bool
	// Per-worker scratch: the owner LPs differ in their coefficient
	// matrix (the owner point is a column), so no warm-starting — but the
	// pooled solver still reuses the tableau and extraction buffers
	// across every owner the worker evaluates.
	scratch := make([]lossScratch, parallel.WorkersFor(inst.Workers, len(inst.ExtPts)))
	err = parallel.ForWorker(ctx, inst.Workers, len(inst.ExtPts), func(w, k int) {
		if !cuts && lossOne.Load() {
			return
		}
		t := inst.ExtPts[k]
		// Owners that are themselves in Q contribute nothing: the
		// constraint ⟨t,u⟩ ≤ 1−x with ⟨t,u⟩ = 1 forces x ≤ 0.
		if inQ[string(geom.AppendKey(nil, t))] {
			return
		}
		scr := &scratch[w]
		sol, lerr := scr.lossLPForOwner(t, qx, d, cuts)
		if lerr != nil {
			errs[k] = lerr
			return
		}
		if sol.Status == lp.Infeasible || sol.Value >= 1 {
			vals[k] = 1
			lossOne.Store(true)
		} else {
			vals[k] = sol.Value
		}
		if !cuts || vals[k] <= eps {
			return
		}
		var u []float64
		if sol.Status == lp.Infeasible {
			u = sol.Farkas
		} else {
			scr.pi = scr.solver.Multipliers(scr.pi)
			u = scr.pi
		}
		if len(u) > d {
			v := geom.Vector(u[:d])
			if n := v.Norm(); n > 0 && n <= math.MaxFloat64 {
				dirs[k] = v.Scale(1 / n)
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

// lossScratch is the per-worker arena for the owner LPs: a pooled solver
// plus the objective/row coefficient buffers (the Problem clones what it
// keeps, so the buffers never alias solver state) and the multiplier
// buffer cuts are read into.
type lossScratch struct {
	solver lp.Solver
	obj    []float64
	row    []float64
	pi     []float64
}

// lossLPForOwner solves the per-owner loss LP and returns its solution,
// Optimal or Infeasible (an unbounded primal: loss 1); any other outcome
// is a solver failure (iteration limit, malformed tableau, or an
// impossible status) returned as an error, whose value must not be
// trusted. farkas asks for the infeasibility ray the cut loop reads.
//
// The primal — max x s.t. ⟨q,u⟩ + x ≤ 1 ∀q, ⟨t,u⟩ = 1 over free (u,x) —
// has |Q|+1 rows and d+1 variables; a tableau simplex pays per-row for
// the basis, so we solve the LP dual instead, which has only d+1 rows:
//
//	min Σ_q y_q + z   s.t.  Σ_q y_q·q + z·t = 0,  Σ_q y_q = 1,
//	                        y ≥ 0, z free.
//
// By strong duality the optimum equals the primal maximum, and the
// dual's simplex multipliers on its d+1 rows are the primal optimum
// (u, x); an infeasible dual means an unbounded primal (the coreset
// leaves a whole direction cone uncovered).
func (scr *lossScratch) lossLPForOwner(t geom.Vector, qx []geom.Vector, d int, farkas bool) (lp.Solution, error) {
	if faultinject.Fail(faultinject.SiteLossLP) {
		return lp.Solution{}, fmt.Errorf("core: loss-LP failpoint: %w", ErrNumericalInstability)
	}
	scr.solver.SkipFarkas = !farkas
	scr.solver.ValueOnly = true
	nq := len(qx)
	prob := lp.NewProblem(nq + 1) // vars: y_q ≥ 0, z free
	for j := 0; j < nq; j++ {
		prob.SetNonNegative(j)
	}
	if cap(scr.obj) < nq+1 {
		scr.obj = make([]float64, nq+1)
	}
	obj := scr.obj[:nq+1]
	for j := range obj {
		obj[j] = 1
	}
	prob.SetObjective(obj, false)
	if cap(scr.row) < nq+1 {
		scr.row = make([]float64, nq+1)
	}
	row := scr.row[:nq+1]
	for i := 0; i < d; i++ {
		for j, qp := range qx {
			row[j] = qp[i]
		}
		row[nq] = t[i]
		prob.AddEQ(row, 0)
	}
	for j := 0; j < nq; j++ {
		row[j] = 1
	}
	row[nq] = 0
	prob.AddEQ(row, 1)
	sol := scr.solver.Solve(prob)
	switch sol.Status {
	case lp.Optimal, lp.Infeasible:
		return sol, nil
	case lp.Unbounded:
		// Dual unbounded would mean a primal with no feasible u, i.e.
		// t = 0, impossible on a fat instance: a misread, not a loss.
		return sol, fmt.Errorf("core: loss LP dual unbounded: %w", ErrInfeasible)
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
	l, err := inst.maxLossSampledCtx(context.Background(), q, samples, seed)
	if err != nil {
		return 1
	}
	return l
}

func (inst *Instance) maxLossSampledCtx(ctx context.Context, q []int, samples int, seed int64) (float64, error) {
	dirs := sphere.RandomDirections(samples, inst.D, seed)
	losses, err := inst.LossSampledCtx(ctx, q, dirs)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, l := range losses {
		if l > worst {
			worst = l
		}
	}
	return worst, nil
}

// Loss picks the exact evaluator for the instance dimension: the critical
// direction sweep in 2D, the LP elsewhere. When the loss cannot be
// measured (a numerical failure in the LP oracle) the conservative worst
// case 1 is reported; use LossCtx to distinguish failure from loss.
func (inst *Instance) Loss(q []int) float64 {
	if inst.D == 2 {
		return inst.LossExact2D(q)
	}
	return inst.LossExactLP(q)
}

// LossCtx is Loss with cooperative cancellation.
func (inst *Instance) LossCtx(ctx context.Context, q []int) (float64, error) {
	if inst.D == 2 {
		return inst.LossExact2DCtx(ctx, q)
	}
	return inst.LossExactLPCtx(ctx, q)
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
