package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mincore/internal/faultinject"
	"mincore/internal/geom"
	"mincore/internal/lp"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/setcover"
	"mincore/internal/sphere"
	"mincore/internal/voronoi"
)

// geomDotCos returns the cosine similarity of two vectors (0 for a zero
// vector).
func geomDotCos(a, b geom.Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return geom.Dot(a, b) / (na * nb)
}

// DSMC: the dominating-set approximation of Section 6.1.
//
// Algorithm 2 builds the dominance graph H: a directed edge (t_i → t_j)
// with weight ε_ij exists iff the ε_ij-approximate Voronoi cell of t_i
// fully contains the exact cell of t_j, where ε_ij is the optimum of the
// LP of Eq. 2 — the largest loss of t_i over R(t_j):
//
//	ε_ij = max 1 − ⟨t_i,u⟩   s.t.  (t_j − t)·u ≥ 0 ∀t ∈ N(t_j),  ⟨t_j,u⟩ = 1.
//
// (The paper's Eq. 2 prints the normalization as t_i·u = 1; the
// accompanying text — "scales the vector u so that the inner product of
// t_j is 1" — fixes the typo, and only t_j·u = 1 makes 1 − t_i·u equal
// the loss of t_i w.r.t. t_j.)
//
// Algorithm 3 then solves MC for a given ε as a greedy minimum dominating
// set of the subgraph with edge weights ≤ ε.
//
// With an approximate IPDG (d > 3), missing neighbor constraints enlarge
// the LP's feasible region, so computed weights only grow and the
// solution stays a valid ε-coreset, merely possibly larger — the behavior
// the paper reports in high dimensions.

// DominanceGraph is the weighted digraph H of Algorithm 2 over the ξ
// extreme points of an instance.
type DominanceGraph struct {
	Xi    int
	edges [][]domEdge // edges[j] lists incoming (i → j) dominations sorted by weight
	// BuildStats for Table 1 / Figure 9 reporting.
	NumLPs    int
	NumEdges  int
	IPDGEdges int
}

type domEdge struct {
	from   int
	weight float64
}

// BuildIPDG constructs the IPDG for the instance: exact ring adjacency in
// 2D, exact hull edges in 3D (falling back to sampling on degenerate
// inputs), and the direction-sampled approximation for d > 3 (samples ≤ 0
// picks a default proportional to ξ).
func (inst *Instance) BuildIPDG(samples int, seed int64) *voronoi.IPDG {
	switch inst.D {
	case 2:
		return voronoi.Exact2D(inst.ExtPts)
	case 3:
		if g, err := voronoi.Exact3D(inst.ExtPts); err == nil {
			return g
		}
		return voronoi.Approx(inst.ExtPts, samples, seed)
	default:
		return voronoi.Approx(inst.ExtPts, samples, seed)
	}
}

// BuildDominanceGraph runs Algorithm 2: one LP per ordered pair of
// extreme points. The IPDG supplies the neighbor sets N(t_j) defining
// each cell's feasible region.
//
// When the IPDG is approximate (d > 3), each neighbor set is augmented
// with the extreme points most aligned with t_j (largest cosine
// similarity). Extra constraints are harmless — they are redundant when
// the pair are not true Voronoi neighbors of t_j's cell and tighten the
// over-approximated region when the sampler missed a real neighbor;
// without this, cells whose sampled neighbor sets leave the LP section
// unbounded receive no incoming dominance edges at all and inflate the
// solution (the failure mode the paper attributes to missing edges).
func (inst *Instance) BuildDominanceGraph(ipdg *voronoi.IPDG) (*DominanceGraph, error) {
	return inst.BuildDominanceGraphCtx(context.Background(), ipdg)
}

// dgStats is a per-worker accumulator for the build counters, padded to
// a cache line so workers don't false-share.
type dgStats struct {
	lps, edges int
	_          [48]byte
}

// BuildDominanceGraphCtx is BuildDominanceGraph with cooperative
// cancellation. The ξ² LP loop is partitioned by cell j across
// Instance.Workers goroutines: each cell's incoming edges are computed,
// sorted, and stored independently, and per-worker LP/edge counters are
// merged at the end, so the graph — including the per-cell edge order —
// is identical for every worker count. Returns ctx.Err() when cancelled,
// or a typed error (ErrNumericalInstability) when an edge-weight LP
// fails — a partially built graph must never feed Algorithm 3.
func (inst *Instance) BuildDominanceGraphCtx(ctx context.Context, ipdg *voronoi.IPDG) (*DominanceGraph, error) {
	if faultinject.Fail(faultinject.SiteDGBuild) {
		return nil, fmt.Errorf("core: dominance-graph failpoint: %w", ErrNumericalInstability)
	}
	xi := inst.Xi()
	dg := &DominanceGraph{Xi: xi, edges: make([][]domEdge, xi), IPDGEdges: ipdg.NumEdges()}
	d := inst.D
	// Witness prefilter: sampled directions owned by each cell give sound
	// lower bounds on ε_ij (any u ∈ R(t_j) has loss ≤ the LP optimum), so
	// a pair whose witness already shows ⟨t_i,u⟩ ≤ 0 — loss ≥ 1 — can
	// skip its LP. This removes the far side of the hull from every
	// cell's pair loop. Witnesses and the scan tour are memoized on the
	// instance: both are pure functions of the extreme points.
	witnesses, order := inst.dgSubstrate()
	numW := parallel.WorkersFor(inst.Workers, xi)
	stats := make([]dgStats, numW)
	// One Solver and one scratch arena per worker: the constraint matrix
	// of Eq. 2 is fixed per cell j (only the right-hand side t_i varies
	// per pair), so within a cell every pair after the first warm-starts
	// from the previous pair's optimal basis. The warm chain never
	// crosses a cell boundary (each cell builds a fresh Problem), so the
	// worker→cell partition cannot influence any result.
	scratch := make([]dgScratch, numW)
	for w := range scratch {
		scratch[w].solver = &lp.Solver{
			SkipFarkas: true, // eq2 ignores the certificate
			ValueOnly:  true, // only Value/Status are read per pair
			NoWarm:     inst.DisableLPWarmStart,
		}
	}
	// Pair scan order: a greedy nearest-neighbor tour over the extreme
	// points, so consecutive pairs hand the warm-started solver nearby
	// right-hand sides. The previous pair's optimal basis is then usually
	// feasible outright for the next pair (the zero-pivot warm tier) and
	// otherwise a short dual repair, instead of the many-pivot repairs an
	// index-order scan provokes. The tour is invisible in the output:
	// edge weights are pair-local (canonical extraction makes them
	// pivot-path-independent) and the per-cell lists are sorted by
	// (weight, source index) below — exactly the order the old ascending
	// scan plus stable-by-weight sort produced.
	cellErrs := make([]error, xi)
	err := parallel.ForWorker(ctx, inst.Workers, xi, func(w, j int) {
		nbrs := ipdg.Neighbors(j)
		if d > 3 {
			nbrs = inst.augmentNeighbors(j, nbrs, 3*d+2)
		}
		tj := inst.ExtPts[j]
		scr := &scratch[w]
		// Constraint rows (rows[k] = t_j − t_k) are shared across all i
		// for this j; the backing arrays live in the worker's arena.
		rows := scr.cellRows(inst, j, nbrs)
		prob := scr.cellProblem(inst, rows, tj)
		var edges []domEdge
	pairs:
		for _, i := range order {
			if i == j {
				continue
			}
			ti := inst.ExtPts[i]
			for _, u := range witnesses[j] {
				if geom.Dot(ti, u) <= 0 {
					continue pairs // loss ≥ 1 somewhere in R(t_j): no edge
				}
			}
			stats[w].lps++
			for dim := 0; dim < d; dim++ {
				prob.SetConstraintRHS(dim, ti[dim])
			}
			ew, ok, lerr := eq2FromSolution(scr.solver.Solve(prob))
			if lerr != nil {
				cellErrs[j] = lerr
				return
			}
			if !ok || ew >= 1 {
				continue
			}
			if ew < 0 {
				ew = 0
			}
			edges = append(edges, domEdge{from: i, weight: ew})
			stats[w].edges++
		}
		// Sorting by (weight, source index) reproduces the ascending
		// scan's stable-by-weight order, so the list is identical across
		// worker counts and scan orders. Concrete sort.Interface: the
		// reflect-based sort.Slice swap was visible in the build profile.
		sort.Sort(domEdgesByWeight(edges))
		dg.edges[j] = edges
	})
	if err != nil {
		return nil, err
	}
	if lerr := firstError(cellErrs); lerr != nil {
		return nil, fmt.Errorf("core: dominance-graph edge LP: %w", lerr)
	}
	for _, s := range stats {
		dg.NumLPs += s.lps
		dg.NumEdges += s.edges
	}
	if obs.On() {
		mDGBuilds.Inc()
		mDGCells.Add(uint64(xi))
		mDGLPs.Add(uint64(dg.NumLPs))
		mDGEdges.Add(uint64(dg.NumEdges))
	}
	return dg, nil
}

// dgScratch is a per-worker arena for the dominance-graph build: the LP
// solver (with its pooled tableau and warm-start state) plus the
// per-cell constraint-row and coefficient buffers, all reused across
// every cell the worker processes. Nothing in it is shared between
// workers, and nothing it holds influences results — cells build fresh
// Problems, so solver state cannot leak across cells.
type dgScratch struct {
	solver   *lp.Solver
	rowsBack []float64   // flat nr×d backing for the constraint rows
	rows     [][]float64 // row views into rowsBack
	crow     []float64   // one coefficient row of the Eq. 2 dual
	obj      []float64   // objective buffer (cloned by SetObjective)
}

// cellRows fills the arena with the constraint rows for cell j
// (rows[k] = t_j − t_k over the neighbor set) and returns the row views.
func (scr *dgScratch) cellRows(inst *Instance, j int, nbrs []int) [][]float64 {
	d := inst.D
	nr := len(nbrs)
	if cap(scr.rowsBack) < nr*d {
		scr.rowsBack = make([]float64, nr*d)
	}
	back := scr.rowsBack[:nr*d]
	if cap(scr.rows) < nr {
		scr.rows = make([][]float64, nr)
	}
	rows := scr.rows[:nr]
	tj := inst.ExtPts[j]
	for k, t := range nbrs {
		row := back[k*d : (k+1)*d : (k+1)*d]
		tk := inst.ExtPts[t]
		for dim := 0; dim < d; dim++ {
			row[dim] = tj[dim] - tk[dim]
		}
		rows[k] = row
	}
	return rows
}

// cellProblem builds the Eq. 2 dual for cell j with placeholder
// right-hand sides; the per-pair loop retargets them with
// SetConstraintRHS, which is what keeps the solver's warm basis valid
// across pairs. The problem matches eq2LP's construction coefficient
// for coefficient.
func (scr *dgScratch) cellProblem(inst *Instance, rows [][]float64, tj geom.Vector) *lp.Problem {
	d := inst.D
	nr := len(rows)
	prob := lp.NewProblem(nr + 1) // vars: w_k ≥ 0, v free
	for k := 0; k < nr; k++ {
		prob.SetNonNegative(k)
	}
	if cap(scr.obj) < nr+1 {
		scr.obj = make([]float64, nr+1)
	}
	obj := scr.obj[:nr+1]
	for k := range obj {
		obj[k] = 0
	}
	obj[nr] = 1
	prob.SetObjective(obj, true)
	if cap(scr.crow) < nr+1 {
		scr.crow = make([]float64, nr+1)
	}
	crow := scr.crow[:nr+1]
	for dim := 0; dim < d; dim++ {
		for k := 0; k < nr; k++ {
			crow[k] = rows[k][dim]
		}
		crow[nr] = tj[dim]
		prob.AddEQ(crow, 0)
	}
	return prob
}

// domEdgesByWeight orders a cell's incoming edges by (weight, source
// index) — a total order (sources are distinct), so every sort
// algorithm produces the same list.
type domEdgesByWeight []domEdge

func (e domEdgesByWeight) Len() int      { return len(e) }
func (e domEdgesByWeight) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e domEdgesByWeight) Less(i, j int) bool {
	if e[i].weight != e[j].weight {
		return e[i].weight < e[j].weight
	}
	return e[i].from < e[j].from
}

// dgSubstrate returns the memoized dominance-graph build substrate:
// the per-cell witness directions and the scan tour (scanOrder). Both
// are pure deterministic functions of the extreme points, so one
// computation serves every build on this instance.
func (inst *Instance) dgSubstrate() ([][]geom.Vector, []int) {
	inst.dgOnce.Do(func() {
		inst.dgWitnesses = inst.cellWitnesses(16*inst.Xi(), 8)
	})
	return inst.dgWitnesses, inst.scanOrder()
}

// scanOrder returns the memoized order in which the dominance-graph pair
// loop and the loss oracle's owner scan feed right-hand sides to their
// warm-started solvers. In 2D that is X's own order: NewInstance sorts
// X counter-clockwise by angle, so neighbours along the hull are
// already adjacent and the O(ξ²) greedy tour would buy nothing. Other
// dimensions take the scanTour of ExtPts. A build without the dominance
// graph does not pay for its witness directions.
func (inst *Instance) scanOrder() []int {
	inst.tourOnce.Do(func() {
		if inst.D == 2 {
			inst.tour = identity(inst.Xi())
		} else {
			inst.tour = scanTour(inst.ExtPts)
		}
	})
	return inst.tour
}

// scanTour returns a greedy nearest-neighbor tour over the points,
// starting at index 0 and always stepping to the closest unvisited
// point (squared Euclidean distance, ties to the smaller index). The
// warm-started LP loops scan in this order so that consecutive
// right-hand sides are spatially close — the property the solver's
// warm tiers feed on. O(ξ²·d), a rounding error next to the LPs it
// accelerates, and fully deterministic.
func scanTour(pts []geom.Vector) []int {
	n := len(pts)
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := 0
	for len(order) < n {
		order = append(order, cur)
		visited[cur] = true
		tc := pts[cur]
		next, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if visited[i] {
				continue
			}
			var d2 float64
			for k, v := range pts[i] {
				dv := v - tc[k]
				d2 += dv * dv
			}
			if d2 < best {
				best, next = d2, i
			}
		}
		if next < 0 {
			break
		}
		cur = next
	}
	return order
}

// eq2FromSolution maps an Eq. 2 dual solution to (ε_ij, edge-exists,
// error) exactly as eq2LP does.
func eq2FromSolution(sol lp.Solution) (float64, bool, error) {
	switch sol.Status {
	case lp.Optimal:
		return 1 - sol.Value, true, nil
	case lp.Infeasible, lp.Unbounded:
		// Infeasible dual ⇒ unbounded primal ⇒ no edge. An unbounded
		// dual ⇒ infeasible primal, impossible for t_j ≠ 0; dropping
		// the edge is conservative either way (coresets only grow).
		return 0, false, nil
	default:
		return 0, false, lpFailure(sol.Status)
	}
}

// BuildDominanceGraphBaseline is the pre-warm-start reference build: one
// freshly allocated Problem and cold two-phase solve per ordered pair,
// sequential. It exists for the speed benchmarks and for the
// differential test pinning the pooled warm-started path to it — the
// two must agree bitwise on every edge weight.
func (inst *Instance) BuildDominanceGraphBaseline(ipdg *voronoi.IPDG) (*DominanceGraph, error) {
	xi := inst.Xi()
	dg := &DominanceGraph{Xi: xi, edges: make([][]domEdge, xi), IPDGEdges: ipdg.NumEdges()}
	d := inst.D
	witnesses, _ := inst.dgSubstrate() // same memoized filter as the fast path
	for j := 0; j < xi; j++ {
		nbrs := ipdg.Neighbors(j)
		if d > 3 {
			nbrs = inst.augmentNeighbors(j, nbrs, 3*d+2)
		}
		tj := inst.ExtPts[j]
		rows := make([][]float64, 0, len(nbrs))
		for _, t := range nbrs {
			row := make([]float64, d)
			for k := 0; k < d; k++ {
				row[k] = tj[k] - inst.ExtPts[t][k]
			}
			rows = append(rows, row)
		}
		var edges []domEdge
	pairs:
		for i := 0; i < xi; i++ {
			if i == j {
				continue
			}
			ti := inst.ExtPts[i]
			for _, u := range witnesses[j] {
				if geom.Dot(ti, u) <= 0 {
					continue pairs
				}
			}
			dg.NumLPs++
			ew, ok, lerr := inst.eq2LP(i, j, rows)
			if lerr != nil {
				return nil, fmt.Errorf("core: dominance-graph edge LP: %w", lerr)
			}
			if !ok || ew >= 1 {
				continue
			}
			if ew < 0 {
				ew = 0
			}
			edges = append(edges, domEdge{from: i, weight: ew})
			dg.NumEdges++
		}
		sort.SliceStable(edges, func(a, b int) bool {
			return edges[a].weight < edges[b].weight
		})
		dg.edges[j] = edges
	}
	return dg, nil
}

// cellWitnesses samples directions on the sphere and records, for each
// extreme point, up to maxPer directions it owns (directions inside its
// exact Voronoi cell).
func (inst *Instance) cellWitnesses(samples, maxPer int) [][]geom.Vector {
	out := make([][]geom.Vector, inst.Xi())
	dirs := sphere.RandomDirections(samples, inst.D, 97)
	for _, u := range dirs {
		j, _ := inst.extTree.MaxDot(u)
		if len(out[j]) < maxPer {
			out[j] = append(out[j], u)
		}
	}
	return out
}

// augmentNeighbors extends a sampled neighbor list with the k extreme
// points of largest cosine similarity to t_j (excluding j itself and
// points already listed), ties to the smaller index. Partial selection
// into a k-slot buffer instead of a full sort: k is a small constant
// (3d+2) while the candidate set is all ξ extreme points, and this runs
// once per cell in every dominance-graph build. Deterministic, and
// shared by the pooled and baseline builds, so both see identical
// neighbor sets.
func (inst *Instance) augmentNeighbors(j int, nbrs []int, k int) []int {
	xi := inst.Xi()
	have := make([]bool, xi)
	have[j] = true
	for _, t := range nbrs {
		have[t] = true
	}
	tj := inst.ExtPts[j]
	type cand struct {
		id  int
		sim float64
	}
	// top is kept sorted by (sim descending, id ascending). The scan
	// visits ids in ascending order, so an incumbent never loses a tie:
	// equal-sim candidates neither displace the buffer tail nor bubble
	// past an earlier entry.
	top := make([]cand, 0, k)
	for t := 0; t < xi; t++ {
		if have[t] {
			continue
		}
		sim := geomDotCos(tj, inst.ExtPts[t])
		if len(top) == k {
			if sim <= top[k-1].sim {
				continue
			}
			top = top[:k-1]
		}
		i := len(top)
		top = append(top, cand{t, sim})
		for i > 0 && top[i-1].sim < sim {
			top[i], top[i-1] = top[i-1], top[i]
			i--
		}
	}
	out := make([]int, 0, len(nbrs)+len(top))
	out = append(out, nbrs...)
	for _, c := range top {
		out = append(out, c.id)
	}
	return out
}

// eq2LP solves the Eq. 2 LP for the pair (t_i, t_j) with the given
// neighbor constraint rows (rows[k] = t_j − t_k). Returns ε_ij, with
// ok=false when the primal is unbounded (the cell section is unbounded,
// so the loss is too); a non-nil error reports a solver failure whose
// weight must not be trusted.
//
// As with the loss LP, the primal — min ⟨t_i,u⟩ s.t. rows·u ≥ 0,
// ⟨t_j,u⟩ = 1, u free — has many rows and d variables, so the LP dual is
// solved instead (d rows, |N(t_j)|+1 variables):
//
//	max v   s.t.  Σ_k w_k·(t_j − t_k) + v·t_j = t_i,  w ≥ 0, v free.
//
// ε_ij = 1 − v*; an infeasible dual means an unbounded primal.
func (inst *Instance) eq2LP(i, j int, rows [][]float64) (float64, bool, error) {
	d := inst.D
	nr := len(rows)
	prob := lp.NewProblem(nr + 1) // vars: w_k ≥ 0, v free
	for k := 0; k < nr; k++ {
		prob.SetNonNegative(k)
	}
	obj := make([]float64, nr+1)
	obj[nr] = 1
	prob.SetObjective(obj, true)
	tj := inst.ExtPts[j]
	ti := inst.ExtPts[i]
	crow := make([]float64, nr+1)
	for dim := 0; dim < d; dim++ {
		for k := 0; k < nr; k++ {
			crow[k] = rows[k][dim]
		}
		crow[nr] = tj[dim]
		prob.AddEQ(append([]float64(nil), crow...), ti[dim])
	}
	sol := prob.Solve()
	switch sol.Status {
	case lp.Optimal:
		return 1 - sol.Value, true, nil
	case lp.Infeasible, lp.Unbounded:
		// Infeasible dual ⇒ unbounded primal ⇒ no edge. An unbounded
		// dual ⇒ infeasible primal, impossible for t_j ≠ 0; dropping
		// the edge is conservative either way (coresets only grow).
		return 0, false, nil
	default:
		return 0, false, lpFailure(sol.Status)
	}
}

// Weight returns ε_ij for the ordered pair (i → j) in extreme-point
// indexing, or ok=false when no edge exists.
func (dg *DominanceGraph) Weight(i, j int) (float64, bool) {
	for _, e := range dg.edges[j] {
		if e.from == i {
			return e.weight, true
		}
	}
	return 0, false
}

// DSMC runs Algorithm 3 on a prebuilt dominance graph: greedy minimum
// dominating set of the ε-subgraph. Returns indices into inst.Pts. The
// result is always a valid ε-coreset (Theorem 6.1).
func (inst *Instance) DSMC(dg *DominanceGraph, eps float64) ([]int, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: DSMC requires ε ∈ (0,1), got %g", eps)
	}
	sel := inst.dsmcGreedy(dg, eps)
	out := make([]int, len(sel))
	for k, v := range sel {
		out[k] = inst.X[v]
	}
	return out, nil
}

// dsmcGreedy returns the chosen extreme-point indices for threshold eps.
func (inst *Instance) dsmcGreedy(dg *DominanceGraph, eps float64) []int {
	xi := dg.Xi
	// Dom(t_i) = {t_i} ∪ {t_j : (t_i→t_j) ∈ E, ε_ij ≤ ε}.
	dom := make([][]int, xi)
	for i := 0; i < xi; i++ {
		dom[i] = []int{i}
	}
	for j := 0; j < xi; j++ {
		for _, e := range dg.edges[j] {
			if e.weight <= eps {
				dom[e.from] = append(dom[e.from], j)
			} else {
				break // edges sorted by weight
			}
		}
	}
	return setcover.GreedyDominatingSet(dom)
}

// DSMCRefined implements the remark after Theorem 6.3: since DSMC is
// conservative, running Algorithm 3 with a larger ε′ ∈ [ε, 3ε] can yield
// a smaller coreset that still satisfies l(Q) ≤ ε. The candidate ε′
// values are swept from largest to smallest over `tries` evenly spaced
// steps; each solution is validated with the exact loss and the smallest
// valid coreset is returned (DSMC at ε itself is the guaranteed-valid
// fallback).
func (inst *Instance) DSMCRefined(dg *DominanceGraph, eps float64, tries int) ([]int, error) {
	return inst.DSMCRefinedCtx(context.Background(), dg, eps, tries)
}

// DSMCRefinedCtx is DSMCRefined with cooperative cancellation of the
// per-candidate loss validations.
func (inst *Instance) DSMCRefinedCtx(ctx context.Context, dg *DominanceGraph, eps float64, tries int) ([]int, error) {
	base, err := inst.DSMC(dg, eps)
	if err != nil {
		return nil, err
	}
	if tries < 1 {
		return base, nil
	}
	best := base
	for k := tries; k >= 1; k-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		epsPrime := eps + 2*eps*float64(k)/float64(tries) // up to 3ε
		if epsPrime >= 1 {
			continue
		}
		sel := inst.dsmcGreedy(dg, epsPrime)
		if len(sel) >= len(best) {
			continue // cannot improve; skip the loss check
		}
		q := make([]int, len(sel))
		for i, v := range sel {
			q[i] = inst.X[v]
		}
		l, err := inst.LossCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		if l <= eps {
			best = q
			break // ε′ swept downward: the first (largest) valid one wins
		}
	}
	return best, nil
}
