package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mincore/internal/geom"
	"mincore/internal/graph"
)

// Algorithm 1 of the paper as written: the overlap graph over the
// candidates (Lines 7–12) and its shortest directed cycle. OptMC solves
// the same problem as a circular arc cover (arccover.go); this is the
// reference it is checked against, as SCMCNet is for Appendix A.

// optMCAlgorithm1 returns the vertices of the shortest directed cycle of
// the overlap graph, an optimal ε-coreset (Lemma 5.3 and Theorem 5.4), or
// nil when the graph has no cycle.
func (inst *Instance) optMCAlgorithm1(eps float64) []int {
	cand, _ := inst.optMCCandidates(eps)
	g, ids := inst.optMCGraph(cand, eps)
	cyc := g.ShortestCycle()
	if cyc == nil {
		return nil
	}
	out := make([]int, len(cyc))
	for i, v := range cyc {
		out[i] = ids[v]
	}
	return out
}

// optMCGraph implements Lines 7–12: vertices are the candidates in CCW
// order; a directed edge (i → j) exists iff the CCW angle from s_i to s_j
// is below π and the ε-approximate cells overlap, witnessed at some
// u ∈ U* ∪ {u*_{ij}}. Edges only point counterclockwise across less than
// π (Line 9), so every directed cycle winds around the circle.
func (inst *Instance) optMCGraph(cand []int, eps float64) (*graph.Digraph, []int) {
	n := len(cand)
	g := graph.NewDigraph(n)
	theta := make([]float64, n)
	pts := make([]geom.Vector, n)
	for i, id := range cand {
		pts[i] = inst.Pts[id]
		theta[i] = geom.Theta(pts[i])
	}
	// Precompute losses of every candidate at every boundary vector.
	bv := inst.BoundaryVecs
	omega := make([]float64, len(bv))
	for k, u := range bv {
		omega[k] = geom.Dot(inst.ExtPts[k], u)
	}
	lossAt := make([][]float64, n)
	for i := range lossAt {
		lossAt[i] = make([]float64, len(bv))
		for k, u := range bv {
			lossAt[i][k] = 1 - geom.Dot(pts[i], u)/omega[k]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// Line 9: only counterclockwise-forward edges under π.
			if geom.CCWAngleDist(theta[i], theta[j]) >= math.Pi {
				continue
			}
			if inst.cellsOverlap(pts[i], pts[j], lossAt[i], lossAt[j], eps) {
				g.AddEdge(i, j)
			}
		}
	}
	return g, cand
}

// cellsOverlap checks Line 11: some vector in U* ∪ {u*} keeps the loss of
// both points within ε, where u* is the equal-inner-product direction of
// the pair.
func (inst *Instance) cellsOverlap(pi, pj geom.Vector, lossI, lossJ []float64, eps float64) bool {
	for k := range lossI {
		if lossI[k] <= eps && lossJ[k] <= eps {
			return true
		}
	}
	if u, ok := geom.EqualInnerProductDirection(pi, pj); ok {
		w := inst.Omega(u)
		if w > 0 && 1-geom.Dot(pi, u)/w <= eps && 1-geom.Dot(pj, u)/w <= eps {
			return true
		}
	}
	return false
}

// diskRandom2D returns a fat 2D instance of n points uniform in the unit
// disk: many hull points and a candidate set that grows fast with ε.
func diskRandom2D(t testing.TB, n int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		r, th := math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		pts[i] = geom.Vector{r * math.Cos(th), r * math.Sin(th)}
	}
	inst, err := NewInstance(pts)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestOptMCMatchesAlgorithm1(t *testing.T) {
	// Both are optimal: sizes must agree and both solutions must be
	// valid. The Gaussian clouds reach at most 107 candidates; the disk
	// has 737 at ε 0.15, above the 600 where OptMC once switched from
	// Algorithm 1 to the arc cover.
	type tcase struct {
		name    string
		inst    *Instance
		eps     float64
		minCand int
	}
	var cases []tcase
	for trial := 0; trial < 10; trial++ {
		inst := fatRandom2D(t, 150+40*trial, int64(200+trial))
		for _, eps := range []float64{0.02, 0.08, 0.2, 0.4} {
			cases = append(cases, tcase{fmt.Sprintf("gauss%d/%g", trial, eps), inst, eps, 0})
		}
	}
	cases = append(cases, tcase{"disk-n2500/0.15", diskRandom2D(t, 2500, 1), 0.15, 601})
	for _, c := range cases {
		if cand, _ := c.inst.optMCCandidates(c.eps); len(cand) < c.minCand {
			t.Fatalf("%s: %d candidates, want ≥ %d", c.name, len(cand), c.minCand)
		}
		ref := c.inst.optMCAlgorithm1(c.eps)
		got, err := c.inst.OptMC(c.eps)
		if ref == nil {
			if err == nil {
				t.Fatalf("%s: Algorithm 1 infeasible but OptMC found %d", c.name, len(got))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Algorithm 1 found %d but OptMC failed: %v", c.name, len(ref), err)
		}
		if l := c.inst.lossExact2D(got); l > c.eps+1e-9 {
			t.Fatalf("%s: OptMC solution invalid (loss %v)", c.name, l)
		}
		if l := c.inst.lossExact2D(ref); l > c.eps+1e-9 {
			t.Fatalf("%s: Algorithm 1 solution invalid (loss %v)", c.name, l)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: OptMC %d vs Algorithm 1 %d", c.name, len(got), len(ref))
		}
	}
}
