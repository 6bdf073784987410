package core

import (
	"fmt"
	"sort"

	"mincore/internal/geom"
)

// MC1D solves MC in R¹, which the paper notes is trivial (Section 3):
// the two extreme points — maximum and minimum value — are always an
// optimal solution on a fat instance (both directions +1 and −1 must be
// covered with positive maxima, and no single point has both the largest
// and smallest value unless n = 1).
func (inst *Instance) MC1D() ([]int, error) {
	if inst.D != 1 {
		return nil, fmt.Errorf("core: MC1D requires a 1D instance (d=%d)", inst.D)
	}
	lo, _ := geom.MinDot(inst.Pts, geom.Vector{1})
	hi, _ := geom.MaxDot(inst.Pts, geom.Vector{1})
	if lo == hi {
		return []int{lo}, nil
	}
	return []int{lo, hi}, nil
}

// OptMC is the optimal polynomial-time algorithm for MC in R² (Section 5
// of the paper). Every ε-approximate Voronoi cell is a single arc of S¹,
// so a minimum ε-coreset is a minimum circular arc cover by the cells of
// the candidates. It proceeds in three steps:
//
//  1. Candidate selection (Algorithm 1, Lines 1–6) — keep exactly the
//     points with a non-empty cell (Lemma 5.1): p survives iff its loss
//     at some cell-boundary vector u*_i is at most ε.
//  2. Cell arcs — each candidate's cell, with endpoints in closed form
//     (cellArc).
//  3. Cover — the optimal greedy circular arc cover
//     (minCircularArcCover).
//
// Algorithm 1's overlap graph (Lines 7–12) and its shortest directed
// cycle reach the same optimum; they are kept as the test reference.
//
// The returned indices refer to inst.Pts. OptMC requires a fat 2D
// instance.
func (inst *Instance) OptMC(eps float64) ([]int, error) {
	if inst.D != 2 {
		return nil, fmt.Errorf("core: OptMC requires a 2D instance (d=%d)", inst.D)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: OptMC requires ε ∈ (0,1), got %g", eps)
	}
	cand, seeds := inst.optMCCandidates(eps)
	arcs := make([]arc, len(cand))
	for i, id := range cand {
		arcs[i] = inst.cellArc(id, seeds[i], eps)
	}
	sol := minCircularArcCover(arcs)
	if sol == nil {
		return nil, fmt.Errorf("core: no feasible ε-coreset (ε=%g too small for tolerance?)", eps)
	}
	return sol, nil
}

// optMCCandidates implements Lines 1–6: S = X ∪ {p : ∃u*_i with loss of p
// at u*_i at most ε}, returned sorted CCW by angle. seeds[j] is the index
// of a boundary vector where the test of cand[j] passes: the first such
// u*_i, or u*_i itself for t_i ∈ X.
//
// The paper locates the relevant u*_i by binary search (O(log ξ) per
// point); we evaluate the ξ boundary vectors per point until one passes,
// which is exact by the same Lemma 5.1 argument and costs O(nξ).
func (inst *Instance) optMCCandidates(eps float64) (cand, seeds []int) {
	type candidate struct {
		id, seed int
		theta    float64
	}
	inX := make(map[int]bool, len(inst.X))
	cs := make([]candidate, 0, len(inst.X))
	for i, id := range inst.X {
		inX[id] = true
		cs = append(cs, candidate{id, i, geom.Theta(inst.Pts[id])})
	}
	// ω(P, u*_i) is ⟨t_i, u*_i⟩ by definition of the boundary vector.
	omega := make([]float64, len(inst.BoundaryVecs))
	for i, u := range inst.BoundaryVecs {
		omega[i] = geom.Dot(inst.ExtPts[i], u)
	}
	for id, p := range inst.Pts {
		if inX[id] {
			continue
		}
		for i, u := range inst.BoundaryVecs {
			if geom.Dot(p, u) >= (1-eps)*omega[i] {
				cs = append(cs, candidate{id, i, geom.Theta(p)})
				break
			}
		}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].theta < cs[b].theta })
	cand, seeds = make([]int, len(cs)), make([]int, len(cs))
	for j, c := range cs {
		cand[j], seeds[j] = c.id, c.seed
	}
	return cand, seeds
}
