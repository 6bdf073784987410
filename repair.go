package mincore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mincore/internal/core"
	"mincore/internal/geom"
	"mincore/internal/kernel"
	"mincore/internal/obs"
	"mincore/internal/parallel"
	"mincore/internal/stream"
)

// The verify-and-repair pipeline. Every public build is certified: the
// candidate's exact loss is measured on the original instance and
// compared against ε. On certification failure or a repairable solver
// error the pipeline escalates deterministically —
//
//  1. retry the same algorithm on a re-seeded, slightly coarser
//     perturbation of the instance (numerical degeneracy is almost
//     always a general-position artifact),
//  2. fall back through the algorithm chain (OptMC → DSMC → SCMC →
//     ε-kernel → stream sketch), each entry retried the same way,
//  3. give up with a typed *UncertifiedError carrying the best-effort
//     coreset and its measured loss.
//
// Structural errors (wrong dimension, cancelled context) abort
// immediately: repair is for numerical failures, not caller mistakes.

// buildEnv is the pair of instances one build attempt runs against:
// full is what certification measures on and what the full-instance
// algorithms (OptMC, MC1D, ANN, stream sketch) consume; work is the
// (possibly prefiltered) instance DSMC and SCMC run on, with remap
// translating its indices back into full's point order (nil when
// work == full).
type buildEnv struct {
	full  *core.Instance
	work  *core.Instance
	remap []int
}

// env returns the Coreseter's standing build environment.
func (c *Coreseter) env() buildEnv {
	return buildEnv{full: c.inst, work: c.work, remap: c.remap}
}

// remapped translates work-instance indices into full-instance indices.
// The identity when the prefilter is off; otherwise work index i is the
// i-th extreme point, and remap (the full instance's X) holds its
// original position.
func (e buildEnv) remapped(idx []int) []int {
	if e.remap == nil || idx == nil {
		return idx
	}
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = e.remap[v]
	}
	return out
}

// maxRetries resolves Options.MaxRetries: 0 means the default of one
// re-seeded retry per chain entry, negative disables retries.
func (c *Coreseter) maxRetries() int {
	switch {
	case c.opts.MaxRetries < 0:
		return 0
	case c.opts.MaxRetries == 0:
		return 1
	default:
		return c.opts.MaxRetries
	}
}

// fallbackChain returns the escalation order for a requested algorithm,
// starting with the algorithm itself. Later entries trade optimality for
// robustness; the stream sketch at the end solves no LPs at all.
func fallbackChain(algo Algorithm) []Algorithm {
	switch algo {
	case Auto:
		return []Algorithm{Auto, ANN, StreamSketch}
	case OptMC:
		return []Algorithm{OptMC, DSMC, SCMC, ANN, StreamSketch}
	case DSMC:
		return []Algorithm{DSMC, SCMC, ANN, StreamSketch}
	case SCMC:
		return []Algorithm{SCMC, ANN, StreamSketch}
	case ANN:
		return []Algorithm{ANN, StreamSketch}
	default:
		return []Algorithm{algo}
	}
}

// repairable reports whether an attempt failure should be escalated
// (retry / fallback) rather than returned to the caller. Context
// cancellation and structural errors abort the pipeline.
func repairable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, ErrNumericalInstability) || errors.Is(err, ErrInfeasible)
}

// validateRequest centralizes input validation so every algorithm —
// and every fallback — sees the same contract. NaN ε is rejected
// explicitly: it slips through ordinary range comparisons.
func validateRequest(eps float64, algo Algorithm) error {
	switch algo {
	case Auto, OptMC, DSMC, SCMC, ANN, StreamSketch:
	default:
		return fmt.Errorf("%w %q", ErrUnknownAlgorithm, algo)
	}
	if math.IsNaN(eps) {
		return fmt.Errorf("mincore: ε must be in (0,1), got NaN")
	}
	if algo == Auto {
		// In 1D the 0-coreset is exact at any ε (Section 3). In higher
		// dimensions each sub-algorithm enforces the range itself, so an
		// out-of-range ε surfaces as the composite all-algorithms-failed
		// error rather than a single upfront rejection.
		return nil
	}
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("mincore: ε must be in (0,1), got %g", eps)
	}
	return nil
}

// buildCertified runs the verify-and-repair pipeline for one request.
// cacheState, when non-empty, is recorded as the root span's cache attr
// ("miss": this build runs on behalf of the memoization layer).
func (c *Coreseter) buildCertified(ctx context.Context, eps float64, algo Algorithm, cacheState string) (*Coreset, error) {
	start := time.Now()
	tr := obs.NewTrace("build")
	tr.Root.SetAttr("requested", string(algo))
	tr.Root.SetAttr("eps", fmt.Sprintf("%g", eps))
	if cacheState != "" {
		tr.Root.SetAttr("cache", cacheState)
	}
	rep := &BuildReport{Requested: algo, Eps: eps, Prefiltered: c.prefiltered(), Trace: tr}
	certEps := eps
	if algo == Auto && c.Dim() == 1 {
		certEps = math.Max(eps, 0) // loss of the 1D 0-coreset is exactly 0
	}
	retries := c.maxRetries()
	var best *Coreset
	var attemptErrs []error
	for _, a := range fallbackChain(algo) {
		if a != algo {
			rep.Fallbacks = append(rep.Fallbacks, "fallback("+string(a)+")")
			mFallbackHops.Inc()
		}
		for attempt := 0; attempt <= retries; attempt++ {
			if err := ctx.Err(); err != nil {
				tr.Root.End()
				return nil, err
			}
			sp := tr.Root.StartChild(fmt.Sprintf("attempt(%s)#%d", a, attempt+1))
			env := c.env()
			if attempt > 0 {
				rep.Retries++
				mBuildRetries.Inc()
				rep.Fallbacks = append(rep.Fallbacks, fmt.Sprintf("retry(%s)#%d", a, attempt))
				jsp := sp.StartChild("reperturb")
				var jerr error
				env, jerr = c.jitteredEnv(attempt)
				if jerr != nil {
					jsp.SetAttr("error", jerr.Error())
					jsp.End()
					sp.End()
					attemptErrs = append(attemptErrs, jerr)
					continue
				}
				jsp.End()
			}
			rep.Attempts++
			mBuildAttempts.Inc()
			bsp := sp.StartChild("build-indices")
			idx, err := c.buildIndices(ctx, env, eps, a, bsp)
			if err != nil {
				bsp.SetAttr("error", err.Error())
				bsp.End()
				sp.End()
				if !repairable(err) {
					tr.Root.End()
					return nil, err
				}
				attemptErrs = append(attemptErrs, err)
				continue
			}
			bsp.SetAttr("size", fmt.Sprintf("%d", len(idx)))
			bsp.End()
			csp := sp.StartChild("certify")
			q, err := c.wrap(ctx, idx, eps, a)
			if err != nil {
				csp.SetAttr("error", err.Error())
				csp.End()
				sp.End()
				if !repairable(err) {
					tr.Root.End()
					return nil, err
				}
				attemptErrs = append(attemptErrs, err)
				continue
			}
			csp.SetAttr("loss", fmt.Sprintf("%.6g", q.Loss))
			csp.End()
			sp.End()
			if q.Loss <= certEps+certTol {
				rep.Algorithm = a
				rep.CertifiedLoss = q.Loss
				rep.Certified = true
				rep.Wall = time.Since(start)
				tr.Root.SetAttr("algorithm", string(a))
				tr.Root.End()
				mBuildsCertified.Inc()
				q.Report = rep
				return q, nil
			}
			attemptErrs = append(attemptErrs,
				fmt.Errorf("mincore: %s attempt measured loss %.6g > ε = %g", a, q.Loss, eps))
			if best == nil || q.Loss < best.Loss {
				best = q
			}
		}
	}
	rep.Wall = time.Since(start)
	tr.Root.End()
	mBuildsUncertified.Inc()
	if best != nil {
		rep.Algorithm = best.Algorithm
		rep.CertifiedLoss = best.Loss
		best.Report = rep
	}
	return nil, &UncertifiedError{Coreset: best, Report: rep, Err: errors.Join(attemptErrs...)}
}

// jitteredEnv rebuilds the instance under a re-seeded perturbation whose
// scale doubles with each retry, then re-derives the prefiltered work
// instance from the jittered hull (the perturbation moves points, so the
// extreme set and its order may differ from the original's).
// Perturbation preserves point order, so indices computed on the
// jittered environment — after the work→full remap — are valid on the
// original instance, where certification always measures.
func (c *Coreseter) jitteredEnv(attempt int) (buildEnv, error) {
	scale := c.opts.PerturbScale
	if scale <= 0 {
		scale = 1e-9
	}
	scale *= math.Ldexp(1, attempt) // 2^attempt
	pts := geom.Perturb(c.inst.Pts, scale, c.opts.Seed+9973*int64(attempt))
	inst, err := core.NewInstance(pts)
	if err != nil {
		return buildEnv{}, fmt.Errorf("mincore: repair perturbation: %w", err)
	}
	inst.Workers = c.opts.Workers
	inst.DisableLPWarmStart = c.opts.coldLP
	work, remap := deriveWorkInstance(inst, c.opts)
	return buildEnv{full: inst, work: work, remap: remap}, nil
}

// buildIndices runs one algorithm against one build environment and
// returns raw coreset indices in full-instance order. DSMC and SCMC run
// on env.work — the ξ-point prefiltered instance when the prefilter is
// active — and their results are remapped; the other algorithms consume
// env.full directly (OptMC can select interior candidate points, and
// ANN/stream-sketch conceptually cover the whole set). It never recurses
// into the certified path, so repair attempts cannot trigger nested
// repair chains. Phase spans are recorded under sp (nil-safe: a nil span
// just skips tracing).
func (c *Coreseter) buildIndices(ctx context.Context, env buildEnv, eps float64, algo Algorithm, sp *obs.Span) ([]int, error) {
	switch algo {
	case Auto:
		return c.autoIndices(ctx, env, eps, sp)
	case OptMC:
		osp := sp.StartChild("optmc")
		idx, err := env.full.OptMC(eps)
		osp.End()
		return idx, err
	case DSMC:
		dsp := sp.StartChild("dg-build")
		dg, err := c.dgFor(ctx, env.work)
		if err != nil {
			dsp.SetAttr("error", err.Error())
			dsp.End()
			return nil, err
		}
		dsp.SetAttr("cells", fmt.Sprintf("%d", dg.Xi))
		dsp.SetAttr("lps", fmt.Sprintf("%d", dg.NumLPs))
		dsp.SetAttr("edges", fmt.Sprintf("%d", dg.NumEdges))
		dsp.End()
		gsp := sp.StartChild("dsmc-greedy")
		idx, err := env.work.DSMCRefinedCtx(ctx, dg, eps, 8)
		gsp.End()
		return env.remapped(idx), err
	case SCMC:
		ssp := sp.StartChild("scmc")
		idx, m, err := env.work.SCMCCtx(ctx, eps, core.SCMCOptions{Seed: c.opts.Seed})
		ssp.SetAttr("samples", fmt.Sprintf("%d", m))
		ssp.End()
		return env.remapped(idx), err
	case ANN:
		asp := sp.StartChild("ann-kernel")
		idx, err := kernel.ANN(env.full.Pts, eps, kernel.Options{Seed: c.opts.Seed, Alpha: env.full.Alpha})
		asp.End()
		return idx, err
	case StreamSketch:
		ssp := sp.StartChild("stream-sketch")
		idx, err := c.streamSketch(env.full, eps)
		ssp.End()
		return idx, err
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, algo)
	}
}

// autoIndices is the Auto policy over raw index builds: OptMC in 2D,
// otherwise the smaller of DSMC and SCMC, raced on separate goroutines
// when the worker budget allows.
func (c *Coreseter) autoIndices(ctx context.Context, env buildEnv, eps float64, sp *obs.Span) ([]int, error) {
	if env.full.D == 1 {
		// Trivial case (Section 3): the two coordinate extremes are an
		// optimal 0-coreset.
		msp := sp.StartChild("mc1d")
		idx, err := env.full.MC1D()
		msp.End()
		return idx, err
	}
	var errOpt error
	if env.full.D == 2 {
		osp := sp.StartChild("optmc")
		idx, err := env.full.OptMC(eps)
		if err == nil {
			osp.End()
			return idx, nil
		}
		osp.SetAttr("error", err.Error())
		osp.End()
		errOpt = err // kept for the composite error below
	}
	// The DSMC/SCMC race may start spans concurrently; Span appends are
	// mutex-guarded so both children land under sp in start order.
	var qd, qs []int
	var errD, errS error
	runD := func() { qd, errD = c.buildIndices(ctx, env, eps, DSMC, sp) }
	runS := func() { qs, errS = c.buildIndices(ctx, env, eps, SCMC, sp) }
	if parallel.Workers(c.opts.Workers) > 1 {
		parallel.Do(runD, runS)
	} else {
		runD()
		runS()
	}
	switch {
	case errD == nil && errS == nil:
		if len(qd) <= len(qs) {
			return qd, nil
		}
		return qs, nil
	case errD == nil:
		return qd, nil
	case errS == nil:
		return qs, nil
	default:
		return nil, fmt.Errorf("mincore: all algorithms failed: %w", errors.Join(errOpt, errD, errS))
	}
}

// dgFor returns the dominance graph for inst: the memoized one for the
// standing work instance, a fresh build for a jittered repair instance.
func (c *Coreseter) dgFor(ctx context.Context, inst *core.Instance) (*core.DominanceGraph, error) {
	if inst == c.work {
		return c.dominanceGraphCtx(ctx)
	}
	ipdg := inst.BuildIPDG(c.opts.IPDGSamples, c.opts.Seed+13)
	return inst.BuildDominanceGraphCtx(ctx, ipdg)
}

// streamSketch is the last-resort fallback: the one-pass direction-net
// champion sketch of the streaming layer. It solves no LPs, so it
// survives any numerical failure mode the batch algorithms hit; its
// coreset is larger but its loss still certifies on fat instances.
func (c *Coreseter) streamSketch(inst *core.Instance, eps float64) ([]int, error) {
	m := stream.SuggestDirections(eps, inst.Alpha, inst.D)
	if m > 1<<16 {
		m = 1 << 16
	}
	s := stream.NewSummary(m, inst.D, c.opts.Seed+29)
	s.AddAll(inst.Pts)
	// Champions are clones of instance points; map them back to indices
	// by exact coordinate identity. Iterate backwards so the lowest index
	// wins any (impossible post-dedup) collision.
	byKey := make(map[string]int, len(inst.Pts))
	for i := len(inst.Pts) - 1; i >= 0; i-- {
		byKey[pointKey(inst.Pts[i])] = i
	}
	champs := s.Coreset()
	idx := make([]int, 0, len(champs))
	for _, p := range champs {
		i, ok := byKey[pointKey(p)]
		if !ok {
			return nil, fmt.Errorf("mincore: stream sketch champion not found in instance")
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx, nil
}

// pointKey is the exact (bitwise) coordinate identity of a point.
func pointKey(v geom.Vector) string {
	b := make([]byte, 0, 8*len(v))
	for _, c := range v {
		u := math.Float64bits(c)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
	}
	return string(b)
}
