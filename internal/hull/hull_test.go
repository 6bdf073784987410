package hull

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
	"mincore/internal/lp"
	"mincore/internal/obs"
	"mincore/internal/sphere"
)

// bruteExtreme finds the extreme points by definition, one cold LP per
// point: p is extreme iff it is not a convex combination of the other
// points, i.e. iff the containment LP of p against P∖{p} is infeasible.
// The result is in ascending index order.
func bruteExtreme(t testing.TB, pts []geom.Vector) []int {
	t.Helper()
	var ext []int
	for i, p := range pts {
		others := make([]geom.Vector, 0, len(pts)-1)
		others = append(others, pts[:i]...)
		others = append(others, pts[i+1:]...)
		switch st := containmentLP(p, others).Solve().Status; st {
		case lp.Infeasible:
			ext = append(ext, i)
		case lp.Optimal:
		default:
			t.Fatalf("brute containment LP of point %d: %v", i, st)
		}
	}
	return ext
}

// TestExtremePointsMatchBrute holds ExtremePoints to the definition on
// small inputs in d 3–6: the same set as bruteExtreme, so no interior
// point is reported and no vertex is missed.
func TestExtremePointsMatchBrute(t *testing.T) {
	for _, d := range []int{3, 4, 5, 6} {
		for _, in := range []pinnedInput{
			{"normal", data.Normal(300, d, int64(d)).Points},
			{"uniform", data.Uniform(300, d, int64(d)).Points},
			{"shell", sphereShell(200, d, int64(d))},
		} {
			x := mustExtremePoints(t, in.pts)
			sort.Ints(x)
			want := bruteExtreme(t, in.pts)
			if !slices.Equal(x, want) {
				t.Errorf("d=%d %s: ExtremePoints ξ=%d, brute force ξ=%d\ngot  %v\nwant %v",
					d, in.name, len(x), len(want), x, want)
			}
		}
	}
}

// TestScreenYield checks the interior screen's counts: it certifies at
// most what it solves, certifies most points of a cloud, and on an
// all-extreme shell, where nothing certifies, the yield stop ends the
// screening after screenMinSolves solves. With observability on, a scan
// publishes exactly these counts.
func TestScreenYield(t *testing.T) {
	for _, d := range []int{3, 5} {
		pts := data.Normal(5000, d, 1).Points
		_, st := clarkson(pts, 1)
		if st.screenCertified > st.screenSolves {
			t.Errorf("d=%d: certified %d > solves %d", d, st.screenCertified, st.screenSolves)
		}
		if 2*st.screenCertified < st.screenSolves || st.exactTests >= st.screenCertified {
			t.Errorf("d=%d: low yield: %d of %d screens certified, %d exact tests",
				d, st.screenCertified, st.screenSolves, st.exactTests)
		}
	}

	shell := sphereShell(400, 4, 11)
	x, st := clarkson(shell, 1)
	if len(x) != len(shell) {
		t.Fatalf("shell: ξ=%d, want %d", len(x), len(shell))
	}
	if st.screenSolves != screenMinSolves || st.screenCertified != 0 {
		t.Errorf("shell: %d screens, %d certified; want the yield stop after %d, none certified",
			st.screenSolves, st.screenCertified, screenMinSolves)
	}

	// The stop's boundary: exactly half certified keeps screening, and one
	// more miss ends it for the rest of the scan.
	sc := newScreen([]geom.Vector{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	in, out := geom.Vector{0.1, 0.2, 0.3}, geom.Vector{1, 1, 1}
	for k := 0; k < screenMinSolves/2; k++ {
		if !sc.inside(in) || sc.inside(out) {
			t.Fatalf("screen %d: simplex interior not certified or exterior certified", sc.solves)
		}
	}
	if sc.inside(out) || sc.inside(in) || sc.solves != screenMinSolves+1 {
		t.Errorf("after %d of %d certified, then a miss: %d solves, want the stop at %d",
			screenMinSolves/2, screenMinSolves, sc.solves, screenMinSolves+1)
	}

	if !obs.On() {
		obs.Enable()
		defer obs.Disable()
	}
	before := [3]uint64{mScreenSolves.Value(), mScreenCertified.Value(), mExactTests.Value()}
	mustExtremePoints(t, shell)
	got := [3]uint64{mScreenSolves.Value() - before[0], mScreenCertified.Value() - before[1], mExactTests.Value() - before[2]}
	if want := [3]uint64{uint64(st.screenSolves), uint64(st.screenCertified), uint64(st.exactTests)}; got != want {
		t.Errorf("published (solves, certified, exact) = %v, want %v", got, want)
	}
}

func squarePlus(inner int, rng *rand.Rand) []geom.Vector {
	pts := []geom.Vector{{1, 1}, {1, -1}, {-1, -1}, {-1, 1}}
	for i := 0; i < inner; i++ {
		pts = append(pts, geom.Vector{rng.Float64()*1.8 - 0.9, rng.Float64()*1.8 - 0.9})
	}
	return pts
}

func TestHull2DSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := squarePlus(50, rng)
	h := mustHull2D(t, pts)
	if len(h) != 4 {
		t.Fatalf("hull size = %d want 4 (%v)", len(h), h)
	}
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	for _, i := range h {
		if !want[i] {
			t.Fatalf("unexpected hull vertex %d", i)
		}
	}
}

func TestHull2DCCWOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Vector, 100)
	for i := range pts {
		pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	h := mustHull2D(t, pts)
	if len(h) < 3 {
		t.Fatalf("degenerate hull %v", h)
	}
	// Strictly convex CCW polygon: every consecutive triple turns left.
	for i := range h {
		a, b, c := pts[h[i]], pts[h[(i+1)%len(h)]], pts[h[(i+2)%len(h)]]
		if geom.Orient2D(a, b, c) <= 0 {
			t.Fatalf("hull not strictly CCW at %d", i)
		}
	}
}

func TestHull2DContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64()}
		}
		h := mustHull2D(t, pts)
		if len(h) < 3 {
			continue
		}
		// Every point is inside or on the hull polygon.
		for pi, p := range pts {
			for i := range h {
				a, b := pts[h[i]], pts[h[(i+1)%len(h)]]
				if geom.Orient2D(a, b, p) < -1e-9 {
					t.Fatalf("trial %d: point %d outside hull edge (%d,%d)", trial, pi, h[i], h[(i+1)%len(h)])
				}
			}
		}
	}
}

func TestHull2DDegenerate(t *testing.T) {
	// Single point.
	if h := mustHull2D(t, []geom.Vector{{1, 2}}); len(h) != 1 {
		t.Fatalf("single point: %v", h)
	}
	// Two points.
	if h := mustHull2D(t, []geom.Vector{{0, 0}, {1, 1}}); len(h) != 2 {
		t.Fatalf("two points: %v", h)
	}
	// Duplicates collapse.
	if h := mustHull2D(t, []geom.Vector{{1, 1}, {1, 1}, {1, 1}}); len(h) != 1 {
		t.Fatalf("duplicates: %v", h)
	}
	// Collinear points: only the two endpoints are vertices.
	pts := []geom.Vector{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	h := mustHull2D(t, pts)
	if len(h) != 2 {
		t.Fatalf("collinear: %v", h)
	}
	got := map[int]bool{h[0]: true, h[1]: true}
	if !got[0] || !got[3] {
		t.Fatalf("collinear endpoints wrong: %v", h)
	}
	// Empty input.
	if h := mustHull2D(t, nil); h != nil {
		t.Fatalf("empty: %v", h)
	}
}

func TestHull2DMatchesDirectionScan(t *testing.T) {
	// Every direction's argmax must be a hull vertex, and every hull
	// vertex must be some direction's argmax (sampled densely).
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Vector, 60)
	for i := range pts {
		pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	h := mustHull2D(t, pts)
	hset := map[int]bool{}
	for _, i := range h {
		hset[i] = true
	}
	found := map[int]bool{}
	for _, u := range sphere.Circle(3600) {
		j, _ := geom.MaxDot(pts, u)
		if !hset[j] {
			t.Fatalf("argmax %d for direction %v is not a hull vertex", j, u)
		}
		found[j] = true
	}
	for _, i := range h {
		if !found[i] {
			t.Fatalf("hull vertex %d never a direction argmax (cells smaller than 0.1°?)", i)
		}
	}
}

func TestSortCCWByAngle(t *testing.T) {
	pts := []geom.Vector{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}
	ids := mustSortCCW(t, pts, []int{2, 0, 3, 1})
	want := []int{0, 1, 2, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v", ids)
		}
	}
}

func TestExtremePoints1D(t *testing.T) {
	pts := []geom.Vector{{3}, {1}, {7}, {5}}
	x := mustExtremePoints(t, pts)
	sort.Ints(x)
	if len(x) != 2 || x[0] != 1 || x[1] != 2 {
		t.Fatalf("1D extremes = %v", x)
	}
	if x := mustExtremePoints(t, []geom.Vector{{2}, {2}}); len(x) != 1 {
		t.Fatalf("identical 1D points: %v", x)
	}
}

func TestClarksonMatchesHull2DLifted(t *testing.T) {
	// Clarkson (d ≥ 3 path) vs Hull2D on the same planar data lifted to 3D
	// is degenerate; instead compare on true 3D data against Hull3D.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(80)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		mesh, err := Hull3D(pts)
		if err != nil {
			t.Fatalf("Hull3D: %v", err)
		}
		ext := mustExtremePoints(t, pts, WithSeed(int64(trial)))
		sort.Ints(ext)
		if len(ext) != len(mesh.Vertices) {
			t.Fatalf("trial %d: Clarkson %d vertices vs Hull3D %d\n%v\n%v",
				trial, len(ext), len(mesh.Vertices), ext, mesh.Vertices)
		}
		for i := range ext {
			if ext[i] != mesh.Vertices[i] {
				t.Fatalf("trial %d: vertex sets differ: %v vs %v", trial, ext, mesh.Vertices)
			}
		}
	}
}

func TestClarksonCubeCorners(t *testing.T) {
	// Cube corners plus interior points in d=4: exactly the 16 corners are
	// extreme.
	pts := cubeCorners()
	x := mustExtremePoints(t, pts)
	if len(x) != 16 {
		t.Fatalf("extremes = %d want 16: %v", len(x), x)
	}
	for _, i := range x {
		if i >= 16 {
			t.Fatalf("interior point %d classified extreme", i)
		}
	}
}

func TestClarksonEveryDirectionMaxIsExtreme(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{3, 4, 6} {
		pts := make([]geom.Vector, 300)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64()
			}
		}
		x := mustExtremePoints(t, pts)
		xset := map[int]bool{}
		for _, i := range x {
			xset[i] = true
		}
		for k := 0; k < 2000; k++ {
			u := sphere.RandomDirection(rng, d)
			j, _ := geom.MaxDot(pts, u)
			if !xset[j] {
				t.Fatalf("d=%d: direction argmax %d missing from extreme set (ξ=%d)", d, j, len(x))
			}
		}
	}
}

func TestClarksonSphereShell(t *testing.T) {
	// Points on a sphere are all extreme.
	x := mustExtremePoints(t, sphereShell(100, 3, 8))
	if len(x) != 100 {
		t.Fatalf("on-sphere extremes = %d want 100", len(x))
	}
}

func TestHull3DTetrahedron(t *testing.T) {
	pts := []geom.Vector{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0.2, 0.2, 0.2}}
	mesh, err := Hull3D(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(mesh.Vertices) != 4 || len(mesh.Facets) != 4 || len(mesh.Edges) != 6 {
		t.Fatalf("tetra: V=%d F=%d E=%d", len(mesh.Vertices), len(mesh.Facets), len(mesh.Edges))
	}
	for _, v := range mesh.Vertices {
		if v == 4 {
			t.Fatal("interior point on hull")
		}
	}
}

func TestHull3DEuler(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(120)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		mesh, err := Hull3D(pts)
		if err != nil {
			t.Fatal(err)
		}
		v, e, f := len(mesh.Vertices), len(mesh.Edges), len(mesh.Facets)
		if v-e+f != 2 {
			t.Fatalf("trial %d: Euler characteristic %d−%d+%d ≠ 2", trial, v, e, f)
		}
		// Triangulated sphere: E = 3F/2.
		if 2*e != 3*f {
			t.Fatalf("trial %d: 2E=%d != 3F=%d", trial, 2*e, 3*f)
		}
		// All points on or inside every facet plane.
		for _, fc := range mesh.Facets {
			a, b, c := pts[fc.V[0]], pts[fc.V[1]], pts[fc.V[2]]
			for pi, p := range pts {
				if orient3D(a, b, c, p) > 1e-7 {
					t.Fatalf("trial %d: point %d outside facet %v", trial, pi, fc.V)
				}
			}
		}
	}
}

func TestHull3DDegenerate(t *testing.T) {
	if _, err := Hull3D([]geom.Vector{{0, 0, 0}, {1, 1, 1}}); err == nil {
		t.Fatal("expected error for 2 points")
	}
	co := []geom.Vector{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0.5, 0.5, 0}}
	if _, err := Hull3D(co); err == nil {
		t.Fatal("expected error for coplanar points")
	}
	col := []geom.Vector{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}}
	if _, err := Hull3D(col); err == nil {
		t.Fatal("expected error for collinear points")
	}
}

func TestHull3DCube(t *testing.T) {
	var pts []geom.Vector
	for mask := 0; mask < 8; mask++ {
		v := geom.NewVector(3)
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				v[b] = 1
			} else {
				v[b] = -1
			}
		}
		pts = append(pts, v)
	}
	// Perturb to restore general position (cube faces are degenerate for
	// a triangulated hull but vertices must survive).
	pts = geom.Perturb(pts, 1e-6, 42)
	pts = append(pts, geom.Vector{0, 0, 0})
	mesh, err := Hull3D(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(mesh.Vertices) != 8 {
		t.Fatalf("cube vertices = %d want 8", len(mesh.Vertices))
	}
}

func TestExtremePointsEmpty(t *testing.T) {
	if x := mustExtremePoints(t, nil); x != nil {
		t.Fatalf("empty input: %v", x)
	}
}

func TestGilbertInsideOutside(t *testing.T) {
	s := []geom.Vector{{0, 0}, {2, 0}, {0, 2}}
	if u := gilbert(geom.Vector{0.3, 0.3}, s, 200); u != nil {
		t.Fatal("interior point classified outside")
	}
	u := gilbert(geom.Vector{3, 3}, s, 200)
	if u == nil {
		t.Fatal("far point not outside")
	}
	// Certificate must separate.
	pu := geom.Dot(geom.Vector{3, 3}, u)
	for _, q := range s {
		if pu <= geom.Dot(q, u) {
			t.Fatal("certificate does not separate")
		}
	}
}

func TestClarksonDuplicatePoints(t *testing.T) {
	x := mustExtremePoints(t, duplicatePoints())
	// Exactly one copy of the duplicate pair may be reported; the interior
	// point must not be.
	for _, i := range x {
		if i == 5 {
			t.Fatal("interior point reported extreme")
		}
	}
	if len(x) < 4 || len(x) > 5 {
		t.Fatalf("unexpected extreme count %d: %v", len(x), x)
	}
}

func TestHull2DNumericRobustness(t *testing.T) {
	// Near-collinear points on a circle arc with tiny jitter must not
	// produce a self-intersecting hull (sanity via area > 0 and CCW).
	rng := rand.New(rand.NewSource(10))
	pts := make([]geom.Vector, 200)
	for i := range pts {
		th := rng.Float64() * 0.01
		pts[i] = geom.Vector{math.Cos(th), math.Sin(th)}
	}
	pts = append(pts, geom.Vector{-1, 0})
	h := mustHull2D(t, pts)
	if len(h) < 3 {
		t.Fatalf("hull too small: %v", h)
	}
}

// must-helpers: unwrap the error-returning hull APIs for the many test
// sites built on well-formed input.
func mustHull2D(t testing.TB, pts []geom.Vector) []int {
	t.Helper()
	h, err := Hull2D(pts)
	if err != nil {
		t.Fatalf("Hull2D: %v", err)
	}
	return h
}

func mustExtremePoints(t testing.TB, pts []geom.Vector, opts ...Option) []int {
	t.Helper()
	x, err := ExtremePoints(pts, opts...)
	if err != nil {
		t.Fatalf("ExtremePoints: %v", err)
	}
	return x
}

func mustSortCCW(t testing.TB, pts []geom.Vector, ids []int) []int {
	t.Helper()
	out, err := SortCCWByAngle(pts, ids)
	if err != nil {
		t.Fatalf("SortCCWByAngle: %v", err)
	}
	return out
}
