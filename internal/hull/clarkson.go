package hull

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mincore/internal/geom"
	"mincore/internal/lp"
	"mincore/internal/sphere"
)

// Clarkson's output-sensitive extreme-point algorithm: maintain a set S of
// confirmed hull vertices; for each point p test p ∈ conv(S). If inside, p
// is not a vertex. If outside, a separating direction u is produced and
// the support point argmax_{q∈P}⟨q,u⟩ — a guaranteed vertex — is added to
// S; the test for p repeats. Total work is O(n) containment tests plus ξ
// support scans, where ξ is the number of extreme points.
//
// S starts as S₀, the support points of the axis directions and a random
// direction sample. Each point first meets the interior screen, one
// containment LP over S₀ re-solved warm with only p as its right-hand
// side; a point it certifies within tol/100 of conv(S₀) ⊆ conv(S) is
// skipped, since the exact test could only answer "inside" (DESIGN.md
// §15.5). Screening stops for the rest of the scan when it stops paying.
// The exact test is Gilbert's algorithm, then the containment LP, whose
// Farkas certificate supplies the separating direction.

const (
	// tol is the geometric slack under which a point counts as inside the
	// hull: points within tol of the boundary may be classified either way.
	tol = 1e-9
	// warmDirections is the size of S₀'s random direction sample.
	warmDirections = 128
	// screenMinSolves is the yield stop's sample: once at least this many
	// screens ran and fewer than half certified, screening ends.
	screenMinSolves = 32
)

// options for ExtremePoints.
type options struct{ seed int64 }

// Option configures ExtremePoints.
type Option func(*options)

// WithSeed sets the seed for the warm-start direction sample.
func WithSeed(s int64) Option { return func(o *options) { o.seed = s } }

// ExtremePoints returns the indices of the vertices of conv(pts), i.e. the
// set X of extreme points of Section 4 of the paper: points p for which
// the Voronoi cell R(p) is non-empty. The result is unordered for d ≥ 3
// and in counterclockwise hull order for d = 2. Mixed-dimension or
// non-finite input returns ErrBadInput.
//
// The input should be in general position (use geom.Perturb on degenerate
// data); exact duplicates are handled, but collinear/coplanar boundary
// points may be classified arbitrarily within tolerance.
func ExtremePoints(pts []geom.Vector, opts ...Option) ([]int, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	d := pts[0].Dim()
	if d < 1 {
		return nil, fmt.Errorf("%w: zero-dimensional points", ErrBadInput)
	}
	if err := checkDim(pts, d); err != nil {
		return nil, err
	}
	switch {
	case d == 1:
		return extreme1D(pts), nil
	case d == 2:
		return Hull2D(pts)
	default:
		o := options{seed: 1}
		for _, f := range opts {
			f(&o)
		}
		x, st := clarkson(pts, o.seed)
		st.publish()
		return x, nil
	}
}

func extreme1D(pts []geom.Vector) []int {
	lo, _ := geom.MinDot(pts, geom.Vector{1})
	hi, _ := geom.MaxDot(pts, geom.Vector{1})
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// scanStats counts what one Clarkson scan spent: interior-screen solves,
// the points they certified, and the points that took the exact test.
type scanStats struct {
	screenSolves, screenCertified, exactTests int
}

func clarkson(pts []geom.Vector, seed int64) ([]int, scanStats) {
	d := pts[0].Dim()

	inS := make(map[int]bool)
	var sIdx []int
	var sPts []geom.Vector
	add := func(i int) {
		if !inS[i] {
			inS[i] = true
			sIdx = append(sIdx, i)
			sPts = append(sPts, pts[i])
		}
	}

	// Warm start: support points of the axis directions and a random
	// direction sample are vertices (ties broken by scan order are still
	// vertices under general position).
	dirs := make([]geom.Vector, 0, 2*d+warmDirections)
	for i := 0; i < d; i++ {
		dirs = append(dirs, geom.AxisVector(d, i, 1), geom.AxisVector(d, i, -1))
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < warmDirections; k++ {
		dirs = append(dirs, sphere.RandomDirection(rng, d))
	}
	for _, j := range maxDots(pts, dirs) {
		add(j)
	}

	sc := newScreen(sPts)
	var st scanStats
	for i := range pts {
		if inS[i] {
			continue
		}
		p := pts[i]
		if sc.inside(p) {
			continue // within tol/100 of conv(S₀) ⊆ conv(S) → not a vertex
		}
		st.exactTests++
		for {
			u := containmentTest(p, sPts)
			if u == nil {
				break
			}
			// Outside: the support point in direction u is a vertex.
			j, supv := geom.MaxDot(pts, u)
			if j == i || supv <= geom.Dot(p, u)+tol {
				// p itself is (tied for) the support point → p is extreme.
				add(i)
				break
			}
			if inS[j] {
				// The support point is already confirmed, yet the test
				// said "outside": p is within tolerance of the boundary.
				// Classify as non-extreme and move on.
				break
			}
			add(j)
		}
	}
	st.screenSolves, st.screenCertified = sc.solves, sc.certified
	return sIdx, st
}

// maxDots returns the index geom.MaxDot(pts, u) would for every u in
// dirs, from one pass over pts instead of one per direction, skipping the
// points too short to beat any direction's incumbent.
func maxDots(pts, dirs []geom.Vector) []int {
	best := make([]int, len(dirs))
	bestV := make([]float64, len(dirs))
	var uMax float64
	for k, u := range dirs {
		bestV[k] = geom.Dot(pts[0], u)
		uMax = max(uMax, u.Norm())
	}
	floor := slices.Min(bestV)
	for i, p := range pts {
		// ⟨p,u⟩ ≤ ‖p‖‖u‖, which the factor keeps true of the rounded
		// values: below every incumbent, p can replace none of them.
		if p.Norm()*uMax*(1+1e-12) < floor {
			continue
		}
		for k, u := range dirs {
			if v := geom.Dot(p, u); v > bestV[k] {
				best[k], bestV[k] = i, v
			}
		}
		floor = slices.Min(bestV)
	}
	return best
}

// screen is the interior screen: the containment LP over S₀, kept with
// one solver so each query changes only the right-hand side and reuses or
// repairs the previous basis.
type screen struct {
	verts             []geom.Vector // S₀
	prob              *lp.Problem
	solver            lp.Solver
	q                 geom.Vector // scratch for the recomputed combination
	solves, certified int
}

func newScreen(verts []geom.Vector) *screen {
	return &screen{
		verts:  verts,
		prob:   containmentLP(verts[0], verts), // inside sets the p rows per query
		solver: lp.Solver{SkipFarkas: true, ReuseX: true},
		q:      geom.NewVector(len(verts[0])),
	}
}

// inside reports whether p is certified to lie within tol/100 of
// conv(S₀). The LP's answer is not trusted: its λ must be nonnegative
// and Σλⱼsⱼ/Σλⱼ, recomputed from the points, within tol/100 of p in every
// coordinate. After the yield stop it answers false without solving.
func (sc *screen) inside(p geom.Vector) bool {
	if sc.solves >= screenMinSolves && 2*sc.certified < sc.solves {
		return false
	}
	for dim, v := range p {
		sc.prob.SetConstraintRHS(dim, v)
	}
	sc.solves++
	sol := sc.solver.Solve(sc.prob)
	if sol.Status != lp.Optimal {
		return false
	}
	q := sc.q
	clear(q)
	var sum float64
	for j, l := range sol.X {
		if l < 0 {
			return false
		}
		if l != 0 {
			sum += l
			for dim, v := range sc.verts[j] {
				q[dim] += l * v
			}
		}
	}
	for dim, v := range p {
		if !(math.Abs(q[dim]/sum-v) <= tol/100) { // NaN, so false, if sum is 0
			return false
		}
	}
	sc.certified++
	return true
}

// containmentTest decides p vs conv(s): it returns nil when p is inside
// within tol, or a separating direction verified against all of s.
//
// The test escalates through prefix tiers of s. The insertion order of s
// puts spread support points first, so small prefixes are already good
// hull approximations: p ∈ conv(prefix) certifies p ∈ conv(s) cheaply.
// Gilbert's algorithm serves only as a fast *outside* detector (its
// Frank–Wolfe iteration detects a separating gap in a handful of steps
// for clearly-outside points, but converges too slowly to certify inside
// at tight tolerance); inside certification uses the containment LP whose
// cost scales with the tier size.
func containmentTest(p geom.Vector, s []geom.Vector) geom.Vector {
	for _, tier := range []int{64, 512, len(s)} {
		sub := s[:min(tier, len(s))]
		// A separation from a prefix only escalates to the next tier.
		if u := gilbert(p, sub, 24); u != nil && separates(p, s, u) {
			return u
		}
		if u := lpContainment(p, sub); u == nil || separates(p, s, u) {
			return u // nil: p ∈ conv(sub) ⊆ conv(s)
		}
	}
	return nil // not reached: on the last tier, sub is s
}

// separates reports whether ⟨p,u⟩ exceeds max_{q∈s}⟨q,u⟩ by more than tol.
func separates(p geom.Vector, s []geom.Vector, u geom.Vector) bool {
	_, smax := geom.MaxDot(s, u)
	return geom.Dot(p, u) > smax+tol
}

// containmentLP builds the containment LP of p against s: λ ≥ 0 with
// Σλ_j s_j = p (one row per coordinate) and Σλ_j = 1.
func containmentLP(p geom.Vector, s []geom.Vector) *lp.Problem {
	prob := lp.NewProblem(len(s))
	row := make([]float64, len(s))
	for dim, v := range p {
		for j, q := range s {
			row[j] = q[dim]
		}
		prob.AddEQ(row, v)
	}
	for j := range row {
		prob.SetNonNegative(j)
		row[j] = 1
	}
	prob.AddEQ(row, 1)
	return prob
}

// lpContainment solves the containment LP of p against s cold. It returns
// the separating direction of the Farkas certificate, verified against s,
// or nil when p counts as inside.
func lpContainment(p geom.Vector, s []geom.Vector) geom.Vector {
	sol := containmentLP(p, s).Solve()
	if sol.Status != lp.Infeasible {
		// Optimal: inside. Solver distress on a tiny LP: conservative
		// "inside" would drop a potential vertex; conservative "outside"
		// could loop. Treat as inside (the validation loss checks
		// downstream catch real misses).
		return nil
	}
	u := geom.Vector(sol.Farkas[:len(p)]).Clone()
	if n := u.Norm(); n > 0 {
		u = u.Scale(1 / n)
	} else {
		// Degenerate certificate; fall back to the direct direction.
		u, _ = geom.Sub(p, geom.Centroid(s)).Normalize()
	}
	// Confirm the separation exactly; if it does not hold within
	// tolerance, p is boundary-grade and treated as inside.
	if separates(p, s, u) {
		return u
	}
	return nil
}
