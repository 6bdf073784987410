// Package mincore computes minimum ε-coresets for the maxima
// representation of multidimensional data, implementing the algorithms of
// Wang, Mathioudakis, Li, and Tan, "Minimum Coresets for Maxima
// Representation of Multidimensional Data", PODS 2021.
//
// A subset Q ⊆ P is an ε-coreset for maxima representation iff for every
// direction u the maximum inner product over Q is within a (1−ε) factor
// of the maximum over P. Such coresets answer arbitrary linear top-1
// (and, transitively, approximate top-k and representative-skyline)
// queries from a tiny subset of the data. This package finds coresets of
// (near-)minimum size:
//
//   - OptMC — provably optimal in 2D (polynomial time),
//   - DSMC and SCMC — approximation algorithms in any fixed dimension
//     (minimum coresets are NP-hard for d ≥ 3),
//   - ANNKernel — the classical ε-kernel baseline, for comparison.
//
// Quick start:
//
//	cs, err := mincore.New(points, mincore.WithSeed(42))  // preprocess (normalize, hull)
//	q, err := cs.Coreset(0.05, mincore.Auto)              // ≤5% maxima error
//	idx, val := q.Top1(preferenceVector)                  // answer queries from q
//
// The ε guarantee holds in the normalized (α-fat) coordinate space the
// preprocessing maps data into, matching the paper's setting; Top1
// queries accept directions in that space (see Coreseter.Normalize).
//
// The hot paths — dominance-graph construction, loss evaluation, SCMC's
// set system — run on a worker pool sized by WithWorkers (default:
// GOMAXPROCS); outputs are bitwise identical for every worker count.
// Long builds can be cancelled mid-flight through the context-aware
// variants CoresetCtx and FixedSizeCtx.
package mincore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mincore/internal/core"
	"mincore/internal/faultinject"
	"mincore/internal/geom"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/sphere"
	"mincore/internal/transform"
)

// Point is a point or direction in R^d.
type Point = []float64

// Algorithm selects a coreset construction.
type Algorithm string

const (
	// Auto picks OptMC in 2D and the smaller of DSMC and SCMC otherwise.
	Auto Algorithm = "auto"
	// OptMC is the optimal 2D algorithm (Algorithm 1 of the paper).
	OptMC Algorithm = "optmc"
	// DSMC is the dominating-set approximation (Algorithms 2–3).
	DSMC Algorithm = "dsmc"
	// SCMC is the set-cover approximation (Algorithm 4).
	SCMC Algorithm = "scmc"
	// ANN is the ε-kernel baseline of Yu et al. (no minimality guarantee).
	ANN Algorithm = "ann"
	// StreamSketch is the one-pass direction-net champion sketch from the
	// streaming layer: much larger coresets, but it solves no LPs, making
	// it the last rung of the repair pipeline's fallback chain.
	StreamSketch Algorithm = "stream"
)

// Sentinel errors for errors.Is checks.
var (
	// ErrEmptyInput is returned by New when the point set is empty.
	ErrEmptyInput = errors.New("mincore: empty point set")
	// ErrUnknownAlgorithm is returned by Coreset for an unrecognized
	// Algorithm value.
	ErrUnknownAlgorithm = errors.New("mincore: unknown algorithm")
)

// Options configures New. It can be passed to New directly (it satisfies
// Option) or built up from the functional options in options.go.
type Options struct {
	// SkipNormalize treats the input as already α-fat in [−1,1]^d and
	// skips the affine normalization.
	SkipNormalize bool
	// PerturbScale jitters coordinates to restore general position
	// (default 1e-9 of the normalized scale; negative disables).
	PerturbScale float64
	// Seed drives all randomized components (perturbation, sampling).
	Seed int64
	// IPDGSamples overrides the direction-sample count for the
	// approximate IPDG in d > 3 (0 = default, 64·ξ).
	IPDGSamples int
	// Workers is the degree of parallelism for the hot paths
	// (dominance-graph LPs, loss evaluation, SCMC's set system):
	// 0 selects GOMAXPROCS, 1 forces sequential execution. Outputs are
	// bitwise identical for every worker count.
	Workers int
	// MaxRetries bounds the re-seeded perturbation retries per fallback
	// chain entry in the repair pipeline: 0 selects the default of 1,
	// negative disables retries.
	MaxRetries int
	// SkipCertify disables the verify-and-repair pipeline: builds run
	// once, attach a report, and return their result even when the
	// measured loss exceeds ε.
	SkipCertify bool
	// BuildCache bounds the memoized build cache: successful results are
	// kept in an LRU keyed by (algorithm, quantized ε) and concurrent
	// identical builds are deduplicated by per-key singleflight. 0 selects
	// the default capacity (64 entries); negative disables caching.
	// Cached results are bitwise identical to fresh ones and carry
	// Report.CacheHit = true.
	BuildCache int

	// noPrefilter and coldLP are test hooks onto the reference paths:
	// DSMC and SCMC on the full instance instead of the ξ-point work
	// instance, and every dominance-graph edge LP solved cold. Both are
	// bitwise-invisible in outputs (DESIGN.md §15).
	noPrefilter, coldLP bool
}

// Coreseter is a preprocessed dataset ready to produce coresets at any ε.
// Build once with New. Methods may be called from concurrent goroutines:
// all post-construction state is read-only except the dominance graph
// needed by DSMC, which is built once under a mutex (concurrent callers
// block until the first build finishes — or retry it, if a cancelled
// context aborted the build mid-flight).
type Coreseter struct {
	inst *core.Instance
	aff  *transform.Affine // nil when SkipNormalize
	opts Options

	// work is the instance the extreme-point-restricted algorithms (DSMC,
	// SCMC) run against: a ξ-point instance built from inst's hull
	// vertices when the prefilter is active, inst itself otherwise. remap
	// translates work-instance indices back to inst indices (nil when
	// work == inst). Certification always measures on inst, so results
	// are identical with the prefilter on or off.
	work  *core.Instance
	remap []int

	dgMu sync.Mutex
	dg   *core.DominanceGraph // lazily built for DSMC (on the work instance)

	// cache memoizes successful builds per (algorithm, quantized ε) with
	// singleflight dedup; nil when disabled via WithBuildCache.
	cache *resultCache[buildKey]

	// inputDim is the dimensionality New was given, before constant-
	// attribute dropping; Normalize validates against it.
	inputDim int

	// keptDims lists the input dimensions retained after constant-
	// attribute dropping, in order.
	keptDims []int
}

// dropConstantDims removes dimensions whose value range is negligible
// relative to the widest dimension, returning the projected points and
// the indices of the kept dimensions.
func dropConstantDims(pts []geom.Vector) ([]geom.Vector, []int) {
	if len(pts) == 0 {
		return pts, nil
	}
	d := pts[0].Dim()
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, pts[0])
	copy(hi, pts[0])
	for _, p := range pts {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	// A dimension is constant when its range is indistinguishable from
	// floating-point noise at its own magnitude; differences in scale
	// across dimensions are legitimate and handled by the normalization.
	var kept []int
	for j := 0; j < d; j++ {
		mag := math.Max(math.Abs(lo[j]), math.Abs(hi[j]))
		if hi[j]-lo[j] > 1e-12*mag {
			kept = append(kept, j)
		}
	}
	if len(kept) == d {
		return pts, kept
	}
	out := make([]geom.Vector, len(pts))
	for i, p := range pts {
		q := make(geom.Vector, len(kept))
		for k, j := range kept {
			q[k] = p[j]
		}
		out[i] = q
	}
	return out, kept
}

// New preprocesses raw points: deduplication, affine normalization to an
// α-fat position in [−1,1]^d (Section 2 of the paper), a tiny
// general-position perturbation, and extreme-point extraction.
//
// Configure it with functional options — New(points, WithSeed(42),
// WithWorkers(8)) — or a whole Options struct, which also satisfies
// Option (see options.go).
func New(points []Point, opts ...Option) (*Coreseter, error) {
	var o Options
	for _, op := range opts {
		op.apply(&o)
	}
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	d := len(points[0])
	if d < 1 {
		return nil, fmt.Errorf("mincore: zero-dimensional points")
	}
	pts := make([]geom.Vector, len(points))
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want %d", ErrInvalidPoint, i, len(p), d)
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: point %d coordinate %d is %v", ErrInvalidPoint, i, j, v)
			}
		}
		pts[i] = geom.Vector(p).Clone()
	}
	pts = geom.Dedup(pts)

	c := &Coreseter{opts: o, inputDim: d}
	if n := cacheCapacity(o.BuildCache, defaultBuildCacheSize); n > 0 {
		c.cache = newResultCache[buildKey](n, buildCacheMetrics())
	}
	// (Near-)constant attributes carry no preference information — every
	// point gains the same inner-product offset — and a data slab thinner
	// than the solver tolerances breaks the general-position assumption,
	// so such dimensions are dropped before normalization.
	pts, kept := dropConstantDims(pts)
	if len(kept) == 0 {
		return nil, fmt.Errorf("mincore: every attribute is constant")
	}
	c.keptDims = kept
	if !o.SkipNormalize {
		aff, mapped, err := transform.Fatten(pts)
		if err != nil {
			return nil, fmt.Errorf("mincore: %w", err)
		}
		c.aff = aff
		pts = mapped
	}
	scale := o.PerturbScale
	if scale == 0 {
		scale = 1e-9
	}
	if scale > 0 {
		pts = geom.Perturb(pts, scale, o.Seed+1)
	}
	inst, err := core.NewInstance(pts)
	if err != nil {
		return nil, fmt.Errorf("mincore: %w", err)
	}
	inst.Workers = o.Workers
	inst.DisableLPWarmStart = o.coldLP
	c.inst = inst
	c.work, c.remap = deriveWorkInstance(inst, o)
	return c, nil
}

// deriveWorkInstance builds the prefiltered ξ-point instance DSMC and
// SCMC run against, with the index remap back into inst's point order.
// The prefilter is exact — only hull vertices can realize a directional
// maximum, so restricting the candidate pool loses nothing (DESIGN.md
// §15) — and it is skipped when it would not shrink the instance or
// when the noPrefilter hook is set. Any construction failure falls back
// to the full instance: the prefilter is an optimization, never a
// correctness gate.
func deriveWorkInstance(inst *core.Instance, o Options) (*core.Instance, []int) {
	if o.noPrefilter || inst.Xi() >= inst.N() {
		return inst, nil
	}
	work, err := core.NewInstanceFromExtremes(inst.ExtPts)
	if err != nil {
		return inst, nil
	}
	work.Workers = o.Workers
	work.DisableLPWarmStart = o.coldLP
	return work, inst.X
}

// prefiltered reports whether the extreme-point prefilter is active: the
// work instance is a strict restriction of the full one.
func (c *Coreseter) prefiltered() bool { return c.work != c.inst }

// N returns the number of (deduplicated) points.
func (c *Coreseter) N() int { return c.inst.N() }

// Dim returns the dimensionality.
func (c *Coreseter) Dim() int { return c.inst.D }

// NumExtreme returns ξ, the number of extreme (convex hull vertex) points.
func (c *Coreseter) NumExtreme() int { return c.inst.Xi() }

// Alpha returns the measured fatness of the normalized point set.
func (c *Coreseter) Alpha() float64 { return c.inst.Alpha }

// Normalize maps an original-space point into the normalized coordinate
// space where the ε guarantee holds: constant input dimensions are
// dropped, then the affine normalization applies (identity when
// SkipNormalize).
//
// Normalize delegates to NormalizeChecked and panics on invalid input —
// a point whose dimension differs from the one New was given (e.g. an
// already-projected point), or one with NaN/Inf coordinates. Callers
// that cannot guarantee well-formed input should use NormalizeChecked,
// which returns the error instead.
func (c *Coreseter) Normalize(p Point) Point {
	q, err := c.NormalizeChecked(p)
	if err != nil {
		panic(err)
	}
	return q
}

// NormalizeChecked is Normalize with validation instead of panics: the
// point must have exactly the input dimension New saw (before constant-
// attribute dropping) and finite coordinates, otherwise an error
// wrapping ErrInvalidPoint is returned.
func (c *Coreseter) NormalizeChecked(p Point) (Point, error) {
	if len(p) != c.inputDim {
		return nil, fmt.Errorf("%w: point has dimension %d, want %d", ErrInvalidPoint, len(p), c.inputDim)
	}
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: coordinate %d is %v", ErrInvalidPoint, j, v)
		}
	}
	q := make(geom.Vector, len(c.keptDims))
	for k, j := range c.keptDims {
		q[k] = p[j]
	}
	if c.aff == nil {
		return Point(q), nil
	}
	return Point(c.aff.Apply(q)), nil
}

// KeptDims returns the indices of the input dimensions retained after
// constant-attribute dropping (usually all of them).
func (c *Coreseter) KeptDims() []int { return append([]int(nil), c.keptDims...) }

// Point returns the normalized coordinates of point i.
func (c *Coreseter) Point(i int) Point { return Point(c.inst.Pts[i]) }

// Instance exposes the underlying core instance for advanced use from
// within this module (examples, benchmarks).
func (c *Coreseter) Instance() *core.Instance { return c.inst }

// Coreset holds a computed ε-coreset.
type Coreset struct {
	// Indices into the Coreseter's (deduplicated) point order.
	Indices []int
	// Points are the normalized coordinates of the members.
	Points []Point
	// Eps is the requested error bound; Loss the measured exact loss.
	Eps, Loss float64
	// Algorithm that produced the coreset (after any fallback; the
	// originally requested one is in Report.Requested).
	Algorithm Algorithm
	// Report describes the verify-and-repair pipeline's work: certified
	// loss, attempts, retries, fallbacks, and wall time.
	Report *BuildReport
}

// Size returns |Q|.
func (q *Coreset) Size() int { return len(q.Indices) }

// Top1 returns the member index (into Coreset.Indices ordering) and inner
// product of the coreset's extreme point for direction u (normalized
// space). By the coreset property the value is ≥ (1−ε)·ω(P,u).
//
// On an empty coreset Top1 returns (-1, −Inf): there is no member to
// index and no inner product to report, and the sentinel pair is
// distinguishable from every valid answer.
func (q *Coreset) Top1(u Point) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for i, p := range q.Points {
		if v := geom.Dot(geom.Vector(p), geom.Vector(u)); v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// Coreset computes an ε-coreset with the chosen algorithm, measures its
// exact loss, and certifies it against ε (retrying and falling back
// through other algorithms on failure — see the package's robustness
// notes and the attached BuildReport).
func (c *Coreseter) Coreset(eps float64, algo Algorithm) (*Coreset, error) {
	return c.CoresetCtx(context.Background(), eps, algo)
}

// CoresetCtx is Coreset with cooperative cancellation: ctx is propagated
// into the parallel hot paths (dominance-graph LPs, SCMC stages, loss
// validation) and into every repair attempt, so a long build stops
// within a few LP solves of ctx being cancelled and returns its error.
//
// Unless disabled with WithBuildCache, successful results are memoized
// per (algorithm, quantized ε) and concurrent identical calls share a
// single underlying build; a memoized result is bitwise identical to a
// fresh one and is marked Report.CacheHit. Build-span roots carry a
// cache attr ("miss" on a fresh build through the cache, "hit" on a
// cached one).
func (c *Coreseter) CoresetCtx(ctx context.Context, eps float64, algo Algorithm) (*Coreset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateRequest(eps, algo); err != nil {
		return nil, err
	}
	if c.cache != nil && eps > 0 && eps < 1 {
		q, _, err := c.cache.do(ctx, buildKey{algo: algo, qeps: quantizeEps(eps)},
			func(ctx context.Context) (*Coreset, error) {
				return c.buildOnce(ctx, eps, algo, "miss")
			})
		return q, err
	}
	return c.buildOnce(ctx, eps, algo, "")
}

// buildOnce performs one uncached build (SkipCertify single pass or the
// full verify-and-repair pipeline). cacheState, when non-empty, is
// recorded as the root span's cache attr ("miss": built on behalf of the
// cache).
func (c *Coreseter) buildOnce(ctx context.Context, eps float64, algo Algorithm, cacheState string) (*Coreset, error) {
	if !c.opts.SkipCertify {
		return c.buildCertified(ctx, eps, algo, cacheState)
	}
	tr := obs.NewTrace("build")
	tr.Root.SetAttr("requested", string(algo))
	tr.Root.SetAttr("eps", fmt.Sprintf("%g", eps))
	if cacheState != "" {
		tr.Root.SetAttr("cache", cacheState)
	}
	sp := tr.Root.StartChild(fmt.Sprintf("attempt(%s)#1", algo))
	bsp := sp.StartChild("build-indices")
	idx, err := c.buildIndices(ctx, c.env(), eps, algo, bsp)
	if err != nil {
		bsp.SetAttr("error", err.Error())
	}
	bsp.End()
	if err != nil {
		return nil, err
	}
	// The loss is still measured (it is part of the result), just not
	// enforced; the span keeps the name so traces read uniformly.
	msp := sp.StartChild("measure-loss")
	q, err := c.wrap(ctx, idx, eps, algo)
	if err != nil {
		msp.SetAttr("error", err.Error())
		msp.End()
		return nil, err
	}
	msp.SetAttr("loss", fmt.Sprintf("%.6g", q.Loss))
	msp.End()
	sp.End()
	tr.Root.End()
	q.Report = &BuildReport{
		Requested: algo, Algorithm: algo, Eps: eps,
		CertifiedLoss: q.Loss, Certified: q.Loss <= eps+certTol,
		Attempts: 1, Prefiltered: c.prefiltered(), Trace: tr,
	}
	return q, nil
}

func (c *Coreseter) wrap(ctx context.Context, idx []int, eps float64, algo Algorithm) (*Coreset, error) {
	q := &Coreset{
		Indices:   append([]int(nil), idx...),
		Points:    make([]Point, len(idx)),
		Eps:       eps,
		Algorithm: algo,
	}
	for i, id := range idx {
		q.Points[i] = Point(c.inst.Pts[id])
	}
	loss, err := c.inst.LossCtx(ctx, idx)
	if err != nil {
		return nil, err
	}
	if faultinject.Fail(faultinject.SiteCertify) {
		// A corrupted certification measurement reads as total loss:
		// conservative, so a fault here can cause spurious repair but
		// never a spurious certificate.
		loss = 1
	}
	q.Loss = loss
	return q, nil
}

// FixedSize solves the dual problem: the best coreset of at most r points
// (minimum ε found by binary search, Section 2).
func (c *Coreseter) FixedSize(r int, algo Algorithm) (*Coreset, error) {
	return c.FixedSizeCtx(context.Background(), r, algo)
}

// FixedSizeCtx is FixedSize with cooperative cancellation of the binary
// search and every coreset construction inside it. Each construction
// runs the full verify-and-repair pipeline; the returned coreset carries
// a report certifying its measured loss against the ε the search found.
// A budget no ε ∈ (0,1) can meet returns an error wrapping
// ErrInfeasible.
//
// With the build cache enabled the search exploits size-monotonicity:
// cached results at other ε values shrink the initial bracket (a cached
// coreset of ≤ r points bounds it from above, a larger one from below),
// so repeated or nearby fixed-size queries issue strictly fewer full
// builds than the cold 20-probe search — often none at all.
func (c *Coreseter) FixedSizeCtx(ctx context.Context, r int, algo Algorithm) (*Coreset, error) {
	start := time.Now()
	tr := obs.NewTrace("fixed-size-build")
	tr.Root.SetAttr("requested", string(algo))
	tr.Root.SetAttr("budget", fmt.Sprintf("%d", r))
	attempts := 0
	solve := func(eps float64) ([]int, error) {
		attempts++
		psp := tr.Root.StartChild(fmt.Sprintf("probe#%d", attempts))
		psp.SetAttr("eps", fmt.Sprintf("%.6g", eps))
		q, err := c.CoresetCtx(ctx, eps, algo)
		if err != nil {
			psp.SetAttr("error", err.Error())
			psp.End()
			return nil, err
		}
		psp.SetAttr("size", fmt.Sprintf("%d", len(q.Indices)))
		if q.Report != nil && q.Report.CacheHit {
			psp.SetAttr("cache", "hit")
		}
		psp.End()
		return q.Indices, nil
	}
	lo, hi := 0.0, 1.0
	var seed *Coreset
	if c.cache != nil {
		lo, hi, seed = c.cachedDualSeed(algo, r)
		if lo > 0 || hi < 1 {
			tr.Root.SetAttr("bracket", fmt.Sprintf("(%.6g,%.6g]", lo, hi))
		}
	}
	idx, eps, err := core.DualSolveBracket(r, solve, 20, lo, hi)
	if err != nil && seed != nil && errors.Is(err, ErrInfeasible) {
		// Every probe the shrunk bracket allowed was already answered by
		// the cache (or the bracket collapsed entirely): the cached
		// feasible result at the bracket's upper edge is the answer.
		idx, eps, err = seed.Indices, seed.Eps, nil
	}
	if err != nil {
		tr.Root.End()
		return nil, err
	}
	csp := tr.Root.StartChild("certify")
	var q *Coreset
	if seed != nil && seed.Eps == eps && sameIndices(seed.Indices, idx) {
		// The winning coreset is the cached seed; its certified loss was
		// measured on the original instance when it was built, so re-
		// measuring would reproduce it bit for bit.
		q = seed
		csp.SetAttr("cache", "hit")
	} else {
		q, err = c.wrap(ctx, idx, eps, algo)
		if err != nil {
			csp.SetAttr("error", err.Error())
			csp.End()
			tr.Root.End()
			return nil, err
		}
	}
	csp.SetAttr("loss", fmt.Sprintf("%.6g", q.Loss))
	csp.End()
	tr.Root.End()
	rep := &BuildReport{
		Requested: algo, Algorithm: algo, Eps: eps,
		CertifiedLoss: q.Loss, Certified: q.Loss <= eps+certTol,
		Attempts: attempts, Prefiltered: c.prefiltered(),
		Wall: time.Since(start), Trace: tr,
	}
	q.Report = rep
	if !rep.Certified && !c.opts.SkipCertify {
		return nil, &UncertifiedError{Coreset: q, Report: rep,
			Err: fmt.Errorf("mincore: fixed-size result measured loss %.6g > ε = %g", q.Loss, eps)}
	}
	return q, nil
}

// sameIndices reports whether two index slices are element-wise equal.
func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CoresetSweep builds certified coresets for a ladder of ε values in one
// batch, sharing the ε-independent substrate across the ladder: the
// dominance graph (DSMC) is built once up front, SCMC's direction
// samples and per-direction maxima are memoized on the instance, and
// results land in the build cache, so overlapping sweeps and later
// single builds reuse them. Probes run in parallel on the Coreseter's
// worker budget. Results are returned in epsList order and are bitwise
// identical to individual CoresetCtx calls at the same ε. Per-ε failures
// are joined into the returned error; successful entries remain filled.
func (c *Coreseter) CoresetSweep(ctx context.Context, epsList []float64, algo Algorithm) ([]*Coreset, error) {
	if len(epsList) == 0 {
		return nil, nil
	}
	for _, eps := range epsList {
		if err := validateRequest(eps, algo); err != nil {
			return nil, fmt.Errorf("mincore: sweep ε=%g: %w", eps, err)
		}
	}
	// Pre-build the shared dominance graph when DSMC will run (directly,
	// or inside the auto race above 2D), so parallel probes reuse it
	// instead of serializing on the build mutex. A repairable failure is
	// left for the per-ε pipelines to handle.
	if algo == DSMC || (algo == Auto && c.Dim() > 2) {
		if _, err := c.dominanceGraphCtx(ctx); err != nil && !repairable(err) {
			return nil, err
		}
	}
	out := make([]*Coreset, len(epsList))
	errs := make([]error, len(epsList))
	if err := parallel.For(ctx, c.opts.Workers, len(epsList), func(i int) {
		out[i], errs[i] = c.CoresetCtx(ctx, epsList[i], algo)
	}); err != nil {
		return out, err
	}
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("ε=%g: %w", epsList[i], err))
		}
	}
	if len(joined) > 0 {
		return out, fmt.Errorf("mincore: sweep: %w", errors.Join(joined...))
	}
	return out, nil
}

// Loss computes the exact maximum loss of an arbitrary subset (indices
// into the Coreseter's point order).
func (c *Coreseter) Loss(indices []int) float64 { return c.inst.Loss(indices) }

// LossProfile samples the per-direction loss distribution of a subset
// over k random directions (Appendix B's loss-distribution experiments).
func (c *Coreseter) LossProfile(indices []int, k int) []float64 {
	dirs := sphere.RandomDirections(k, c.Dim(), c.opts.Seed+77)
	return c.inst.LossSampled(indices, dirs)
}

// dominanceGraphCtx lazily builds the IPDG and dominance graph
// (Algorithm 2) under the mutex, memoizing only successful builds: a
// build aborted by ctx cancellation leaves the cache empty so the next
// caller retries with its own context. The graph is built on the work
// instance — the IPDG and every edge LP only ever touch extreme points,
// so the graph is bitwise identical to one built on the full instance.
func (c *Coreseter) dominanceGraphCtx(ctx context.Context) (*core.DominanceGraph, error) {
	c.dgMu.Lock()
	defer c.dgMu.Unlock()
	if c.dg != nil {
		return c.dg, nil
	}
	ipdg := c.work.BuildIPDG(c.opts.IPDGSamples, c.opts.Seed+13)
	dg, err := c.work.BuildDominanceGraphCtx(ctx, ipdg)
	if err != nil {
		return nil, err
	}
	// The IPDG itself is not retained: its edge counts are folded into
	// the dominance graph's stats (DominanceGraphStats), and no caller
	// consumes the structure after the graph is built.
	c.dg = dg
	return dg, nil
}

// DominanceGraphStats reports (LPs solved, dominance edges, IPDG edges)
// after forcing dominance-graph construction; used for Table 1/Figure 9.
// The error propagates a dominance-graph build failure (e.g. a
// numerically degenerate edge LP).
func (c *Coreseter) DominanceGraphStats() (lps, edges, ipdgEdges int, err error) {
	dg, err := c.dominanceGraphCtx(context.Background())
	if err != nil {
		return 0, 0, 0, err
	}
	return dg.NumLPs, dg.NumEdges, dg.IPDGEdges, nil
}
