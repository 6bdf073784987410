// Walkthrough: reconstructs the paper's running example (Figures 1–3)
// programmatically on a small 2D point set — the inner-product Voronoi
// diagram of the extreme points, OptMC's optimal coreset as the minimum
// cover of the circle by the candidates' cell arcs (Figure 2), and DSMC's
// dominance graph with its LP edge weights and the greedy dominating set
// (Figure 3).
//
//	go run ./examples/walkthrough
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"mincore/internal/core"
	"mincore/internal/geom"
)

func main() {
	// A small fat 2D point set in the spirit of Figure 1.
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Vector, 60)
	for i := range pts {
		th := rng.Float64() * 2 * math.Pi
		r := 0.35 + 0.65*rng.Float64()
		pts[i] = geom.Vector{r * math.Cos(th), r * math.Sin(th)}
	}
	inst, err := core.NewInstance(pts)
	if err != nil {
		log.Fatal(err)
	}

	// --- Figure 1: Voronoi cells of the extreme points ---
	fmt.Printf("Figure 1 — inner-product Voronoi diagram (ξ = %d extreme points)\n", inst.Xi())
	fmt.Println("extreme point        cell arc (degrees)")
	xi := inst.Xi()
	for i := 0; i < xi; i++ {
		from := geom.Theta(inst.BoundaryVecs[(i+xi-1)%xi]) * 180 / math.Pi
		to := geom.Theta(inst.BoundaryVecs[i]) * 180 / math.Pi
		fmt.Printf("t%-2d (%6.2f,%6.2f)   [%6.1f°, %6.1f°]\n",
			i+1, inst.ExtPts[i][0], inst.ExtPts[i][1], from, to)
	}
	fmt.Println("IPDG: each cell is adjacent to its two angular neighbors (a ring).")

	// --- Figure 2: OptMC at ε = 0.1 ---
	eps := 0.1
	q, err := inst.OptMC(eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 2 — OptMC with ε = %g\n", eps)
	fmt.Printf("optimal coreset (minimum arc cover): %d points, exact loss %.4f\n",
		len(q), inst.Loss(q))
	for _, id := range q {
		fmt.Printf("  s%-3d (%6.2f,%6.2f)  θ=%6.1f°\n",
			id, pts[id][0], pts[id][1], geom.Theta(pts[id])*180/math.Pi)
	}

	// --- Figure 3: DSMC dominance graph at ε = 0.2 ---
	eps = 0.2
	ipdg := inst.BuildIPDG(0, 1)
	dg, err := inst.BuildDominanceGraph(ipdg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 3 — dominance graph (%d LPs solved, %d edges)\n", dg.NumLPs, dg.NumEdges)
	fmt.Printf("edges with weight ε_ij ≤ %g (t_i can replace t_j):\n", eps)
	for j := 0; j < xi; j++ {
		for i := 0; i < xi; i++ {
			if i == j {
				continue
			}
			if wij, ok := dg.Weight(i, j); ok && wij <= eps {
				fmt.Printf("  t%-2d → t%-2d   ε_ij = %.4f\n", i+1, j+1, wij)
			}
		}
	}
	qd, err := inst.DSMC(dg, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy dominating set: %d points, exact loss %.4f\n", len(qd), inst.Loss(qd))
	opt, err := inst.OptMC(eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(optimal at this ε: %d points)\n", len(opt))
}
