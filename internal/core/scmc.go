package core

import (
	"context"
	"fmt"
	"math"

	"mincore/internal/geom"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/setcover"
	"mincore/internal/sphere"
)

// SCMC: the set-cover approximation of Appendix A. Voronoi cells are
// discretized by a set N of directions; the set system has universe N and
// one set per point p — the sampled vectors lying in p's γ-approximate
// cell, S_p = {u ∈ N : ⟨p,u⟩ ≥ (1−γ)·ω(P,u)} — and a greedy set cover is
// a feasible MC solution (Lemma A.1 with 2δ + γ ≤ ε).
//
// Two variants are provided:
//
//   - SCMCNet follows Algorithm 4 literally with a deterministic
//     (αδ/d)-net, practical only in low dimensions where the net size
//     O(1/δ^{d-1}) is manageable.
//   - SCMC (the default) replaces the net by constraint generation: it
//     covers a small uniform sample, asks the exact loss oracle which
//     directions the cover misses by more than ε, adds exactly those to
//     N, and covers again until none remain. It pays only for the
//     directions that matter, where the Appendix A remark doubles a blind
//     uniform sample.

// SCMCOptions tunes the algorithm. Zero values select the paper's
// defaults.
type SCMCOptions struct {
	Gamma float64 // cell approximation; default ε/2
	Seed  int64
}

func (o *SCMCOptions) defaults(eps float64) {
	if o.Gamma == 0 {
		o.Gamma = eps / 2
	}
}

// scmcRounds bounds SCMC's cut rounds. Every instance measured, up to
// d = 9 and down to ε = 0.02, converges within 8; past the bound SCMC
// gives up and returns X.
const scmcRounds = 32

// SCMC computes an ε-coreset by growing the set-cover universe from
// exact-oracle cuts. Returns the coreset (indices into inst.Pts) and the
// number of directions in the final universe.
func (inst *Instance) SCMC(eps float64, opts SCMCOptions) ([]int, int, error) {
	return inst.SCMCCtx(context.Background(), eps, opts)
}

// SCMCCtx is SCMC with cooperative cancellation: the context is checked
// between cut rounds and propagated into the parallel range queries and
// the oracle's gauge LPs.
//
// The universe starts as 32·(d+1) uniform directions drawn from
// opts.Seed. Each round covers it greedily at γ and runs the exact loss
// oracle (Loss's per-owner gauge LPs) on the cover; every owner
// whose loss exceeds ε contributes one cut — the direction its LP proves
// the loss in — and the next round covers the grown universe. Every later
// cover represents a cut u to within γ, below ε at the default γ = ε/2,
// so no direction the oracle named is violated again; the loop ends when
// no owner exceeds ε, which is Loss(Q) ≤ ε. After scmcRounds
// rounds, or when a violating owner yields no usable cut, it gives up and
// returns X, a 0-coreset. Cuts are collected in owner order, so the
// result is identical for every worker count.
func (inst *Instance) SCMCCtx(ctx context.Context, eps float64, opts SCMCOptions) ([]int, int, error) {
	if eps <= 0 || eps >= 1 {
		return nil, 0, fmt.Errorf("core: SCMC requires ε ∈ (0,1), got %g", eps)
	}
	opts.defaults(eps)
	dirs := sphere.RandomDirections(32*(inst.D+1), inst.D, opts.Seed)
	return inst.scmcCuts(ctx, eps, opts.Gamma, dirs, scmcRounds)
}

// scmcCuts is SCMCCtx's cut loop from the given initial directions with
// at most maxRounds rounds.
func (inst *Instance) scmcCuts(ctx context.Context, eps, gamma float64, dirs []geom.Vector, maxRounds int) ([]int, int, error) {
	var hits [][]int
	total := 0
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if obs.On() {
			mSCMCRounds.Inc()
		}
		h, err := inst.scmcHits(ctx, dirs, gamma)
		if err != nil {
			return nil, 0, err
		}
		hits = append(hits, h...)
		total += len(dirs)
		q := inst.scmcCover(hits)
		vals, cuts, err := inst.ownerLPsCtx(ctx, q, eps, true)
		if err != nil {
			return nil, 0, err
		}
		violated := false
		dirs = nil
		for k, v := range vals {
			if v > eps {
				violated = true
				if cuts[k] != nil {
					dirs = append(dirs, cuts[k])
				}
			}
		}
		if !violated {
			return q, total, nil
		}
		if len(dirs) == 0 {
			break
		}
	}
	// Give up: X itself is a 0-coreset and always valid.
	return append([]int(nil), inst.X...), total, nil
}

// SCMCNet runs Algorithm 4 with the deterministic (αδ/d)-net, δ = ε/4,
// γ = ε/2 (or the provided overrides via opts.Gamma and delta ≤ 0 for the
// default). Practical for d ≤ 3; the net size grows as O(1/δ^{d-1}).
func (inst *Instance) SCMCNet(eps, delta float64, opts SCMCOptions) ([]int, int, error) {
	if eps <= 0 || eps >= 1 {
		return nil, 0, fmt.Errorf("core: SCMCNet requires ε ∈ (0,1), got %g", eps)
	}
	opts.defaults(eps)
	if delta <= 0 {
		delta = eps / 4
	}
	radius := inst.Alpha * delta / float64(inst.D)
	net := sphere.Net(inst.D, radius)
	hits, err := inst.scmcHits(context.Background(), net, opts.Gamma)
	if err != nil {
		return nil, 0, err
	}
	return inst.scmcCover(hits), len(net), nil
}

// scmcHits runs the range queries of Algorithm 4: for each direction u,
// one exact MIPS for ω(P,u) and one threshold query for the extreme
// points p with ⟨p,u⟩ ≥ (1−γ)·ω(P,u). Directions run in parallel, each
// writing its own slot; a direction with no hit (a nonpositive maximum,
// impossible on fat instances) is dropped, in order, so the result is
// identical for every worker count.
//
// Candidates are restricted to the extreme points: every direction's
// exact maximizer is extreme and lies in its own γ-approximate set, so a
// cover over extreme candidates always exists, and the cut loop's exact
// oracle vets every cover — the restriction never costs correctness. It
// also keys the whole computation (threshold queries, owner ordering,
// greedy tie-breaks) to the extreme-point indexing, so the cover depends
// only on X and ExtPts, never on the interior points, and the range
// queries run over ξ points instead of n.
func (inst *Instance) scmcHits(ctx context.Context, dirs []geom.Vector, gamma float64) ([][]int, error) {
	hits := make([][]int, len(dirs))
	bufs := make([][]int, parallel.WorkersFor(inst.Workers, len(dirs)))
	err := parallel.ForWorker(ctx, inst.Workers, len(dirs), func(w, k int) {
		u := dirs[k]
		wmax := inst.Omega(u)
		if wmax <= 0 {
			return
		}
		bufs[w] = inst.extTree.AboveThreshold(u, (1-gamma)*wmax, bufs[w][:0])
		hits[k] = append([]int(nil), bufs[w]...)
	})
	if err != nil {
		return nil, err
	}
	kept := hits[:0]
	for _, h := range hits {
		if len(h) > 0 {
			kept = append(kept, h)
		}
	}
	return kept, nil
}

// scmcCover inverts the hit lists into one set per extreme point — the
// directions its γ-approximate cell contains, in direction order — and
// returns the greedy cover's points (Lines 7–11 of Algorithm 4). Every
// direction has a hit, so the cover is complete.
func (inst *Instance) scmcCover(hits [][]int) []int {
	perPoint := make([][]int, inst.Xi())
	for k, h := range hits {
		for _, e := range h {
			perPoint[e] = append(perPoint[e], k)
		}
	}
	// Fixed greedy tie-breaking in extreme-point index order, independent
	// of the instance's original point numbering.
	var owners []int
	var sets [][]int
	for e, set := range perPoint {
		if len(set) > 0 {
			owners = append(owners, e)
			sets = append(sets, set)
		}
	}
	chosen, _ := setcover.Greedy(len(hits), sets)
	out := make([]int, len(chosen))
	for i, s := range chosen {
		out[i] = inst.X[owners[s]]
	}
	return out
}

// SCMCExpectedSamples reports the δ-net size Algorithm 4 would need
// (O(1/δ^{d-1}) with δ = ε/4 and radius αδ/d) — the quantity that makes
// the literal algorithm impractical in high dimensions and motivates
// SCMC's cut generation.
func (inst *Instance) SCMCExpectedSamples(eps float64) int {
	radius := inst.Alpha * (eps / 4) / float64(inst.D)
	return sphere.NetSize(inst.D, math.Max(radius, 1e-9))
}
