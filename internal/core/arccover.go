package core

import (
	"math"
	"sort"

	"mincore/internal/geom"
)

// The arc-cover formulation of MC in R² (Section 5, opening paragraphs):
// every ε-approximate Voronoi cell is a single arc of S¹ — it is the
// intersection with S¹ of the polar cone of p/(1−ε) w.r.t. conv(P),
// which is convex — so MC is exactly the minimum circular arc-cover
// problem, solvable optimally by the classical greedy
// (farthest-reaching extension from every possible starting arc).
//
// OptMC is this cover over the candidates' cells. Each cell is computed
// in closed form by a walk over the Voronoi arcs it spans; the cover then
// costs O(ς log ς + ς·OPT·log ς). Algorithm 1's overlap graph, which
// never computes the arcs but pays O(ς²ξ) edges plus a shortest-cycle
// search, is the test reference OptMC is checked against.

// arc is a candidate's ε-approximate cell [start, end] (CCW, may wrap),
// with end ∈ [start, start+π).
type arc struct {
	start, end float64
	id         int // index into inst.Pts
}

// cellArc returns the cell R_ε(p) of point id as an arc, given the index
// k of a boundary vector u*_k inside it. On t_i's Voronoi arc
// [u*_{i−1}, u*_i] the envelope ω(X,u) is ⟨t_i,u⟩, so there the cell is
// the half-circle ⟨p−(1−ε)t_i, u⟩ ≥ 0, which ends at the polar angle of
// p−(1−ε)t_i ± π/2. The walk steps over whole Voronoi arcs while the
// candidate test passes at the next boundary vector — the cell is one
// arc shorter than π, so it holds every Voronoi arc between two passing
// boundary vectors — and solves the crossing on the first arc where the
// test fails.
func (inst *Instance) cellArc(id, k int, eps float64) arc {
	p, bv, ext := inst.Pts[id], inst.BoundaryVecs, inst.ExtPts
	xi := len(bv)
	in := func(i int) bool { return geom.Dot(p, bv[i]) >= (1-eps)*geom.Dot(ext[i], bv[i]) }
	edge := func(i int) float64 { // polar angle of p − (1−ε)t_i
		return math.Atan2(p[1]-(1-eps)*ext[i][1], p[0]-(1-eps)*ext[i][0])
	}
	hi, lo := k, k
	for s := 1; s < xi && in((hi+1)%xi); s++ {
		hi = (hi + 1) % xi
	}
	for s := 1; s < xi && in((lo+xi-1)%xi); s++ {
		lo = (lo + xi - 1) % xi
	}
	// The cell leaves through t_{hi+1}'s arc going CCW and through t_lo's
	// going CW. Both endpoints are measured from u*_k, which lies inside,
	// as angles in [0, π) (clamped: rounding may put u*_k a hair outside).
	seed := geom.Theta(bv[k])
	ccw := func(from, to float64) float64 { return math.Max(0, math.Remainder(to-from, 2*math.Pi)) }
	return arc{
		start: seed - ccw(edge(lo)-math.Pi/2, seed),
		end:   seed + ccw(seed, edge((hi+1)%xi)+math.Pi/2),
		id:    id,
	}
}

// minCircularArcCover returns the point ids of a minimum subset of arcs
// covering the whole circle, or nil if no subset covers it. Classical
// optimal greedy: for every arc taken as the start, repeatedly extend
// with the arc that begins inside the covered range and reaches
// farthest; the best chain over all starts is optimal.
func minCircularArcCover(arcs []arc) []int {
	m := len(arcs)
	if m == 0 {
		return nil
	}
	// Unroll: normalize starts into [0,2π), duplicate shifted by 2π.
	type uarc struct {
		s, e float64
		id   int
	}
	un := make([]uarc, 0, 2*m)
	for _, a := range arcs {
		s := geom.NormalizeAngle(a.start)
		e := s + (a.end - a.start)
		un = append(un, uarc{s, e, a.id}, uarc{s + 2*math.Pi, e + 2*math.Pi, a.id})
	}
	sort.Slice(un, func(i, j int) bool { return un[i].s < un[j].s })
	// Prefix argmax of end over sorted starts.
	bestEnd := make([]float64, len(un))
	bestIdx := make([]int, len(un))
	for i := range un {
		bestEnd[i] = un[i].e
		bestIdx[i] = i
		if i > 0 && bestEnd[i-1] > bestEnd[i] {
			bestEnd[i] = bestEnd[i-1]
			bestIdx[i] = bestIdx[i-1]
		}
	}
	starts := make([]float64, len(un))
	for i := range un {
		starts[i] = un[i].s
	}
	// jump(x): the arc with start ≤ x reaching farthest.
	jump := func(x float64) (float64, int, bool) {
		k := sort.Search(len(starts), func(i int) bool { return starts[i] > x })
		if k == 0 {
			return 0, -1, false
		}
		return bestEnd[k-1], bestIdx[k-1], true
	}

	const tol = 1e-12
	best := -1
	var bestChain []int
	// Sorted ascending with starts normalized to [0,2π), the first m
	// entries are exactly the original (non-shifted) arcs.
	for k := 0; k < m; k++ {
		start := un[k]
		if start.s >= 2*math.Pi {
			continue
		}
		target := start.s + 2*math.Pi
		cur := start.e
		chain := []int{start.id}
		ok := true
		for cur < target-tol {
			e, idx, found := jump(cur + tol)
			if !found || e <= cur+tol {
				ok = false
				break
			}
			cur = e
			chain = append(chain, un[idx].id)
			if best > 0 && len(chain) >= best+1 {
				ok = false // cannot improve
				break
			}
		}
		if !ok {
			continue
		}
		// Dedupe ids (the closing arc may be the start's copy).
		seen := map[int]bool{}
		var ids []int
		for _, id := range chain {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		if best < 0 || len(ids) < best {
			best = len(ids)
			bestChain = ids
		}
	}
	return bestChain
}
