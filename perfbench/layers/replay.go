package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mincore"
	"mincore/internal/core"
	"mincore/internal/geom"
	"mincore/internal/hull"
	"mincore/internal/mips"
	"mincore/internal/obs"
	"mincore/internal/transform"
	"mincore/internal/voronoi"
	"mincore/perfbench/bench"
)

// The layer-by-layer replay: the calls New and CoresetCtx(ε, Auto) make on
// one worker, in the same order and with the same arguments, each wrapped
// in a span of the benchmark's own. A replay session is one New followed
// by builds at one or more ε on the same instance, exactly as a Coreseter
// shares its dominance graph and SCMC substrate across builds.

// Leaf span names. Each is a direct child of the replay root, so its
// duration is its self time.
const (
	spDedup     = "geom.dedup"
	spNormalize = "transform.normalize"
	spPerturb   = "geom.perturb"
	spInstance  = "core.instance"
	spPrefilter = "core.prefilter"
	spIPDG      = "core.ipdg"
	spDG        = "core.dg_build"
	spDSMC      = "core.dsmc_greedy"
	spSCMC      = "core.scmc"
	spCertify   = "core.certify"
)

// session is the replayed preprocessing of one point set.
type session struct {
	root  *obs.Span
	inst  *core.Instance // full instance: certification measures here
	work  *core.Instance // prefiltered ξ-point instance (inst when off)
	remap []int          // work index → inst index (nil when work == inst)
	dg    *core.DominanceGraph
	seed  int64
	// hullMS and restMS split core.NewInstance, timed apart by finish.
	hullMS, restMS float64
}

// buildStats is what one replayed build counted.
type buildStats struct {
	idx                 []int
	dsmcSize, scmcSize  int
	scmcSamples, rounds int
	samplesTotal        float64
	dgLPs, ipdgEdges    int
	lpSolves, lpPivots  float64
	warmHits, warmTries float64
	lossLPCalls         float64
}

// Counter series the replay diffs around each build.
const (
	cLPSolves     = "mincore_lp_solves_total"
	cLPPivots     = "mincore_lp_pivots_total"
	cWarm         = "mincore_lp_warm_solves_total"
	cWarmDual     = "mincore_lp_warm_dual_solves_total"
	cWarmFallback = "mincore_lp_warm_fallbacks_total"
	cSCMCRounds   = "mincore_scmc_rounds_total"
	cLossLP       = `mincore_loss_oracle_calls_total{evaluator="exactlp"}`
)

// leaf runs f under a child span of root named after its layer.
func leaf(root *obs.Span, name string, f func() error) error {
	sp := root.StartChild(name)
	err := f()
	sp.End()
	return err
}

// preprocess replays New(pts, WithSeed(seed), WithWorkers(1)) under a new
// root span, which stays open for the session's builds.
func preprocess(pts []mincore.Point, seed int64) (*session, error) {
	s := &session{root: obs.NewTrace("replay").Root, seed: seed}
	var vs []geom.Vector
	err := leaf(s.root, spDedup, func() error {
		vs = make([]geom.Vector, len(pts))
		for i, p := range pts {
			vs[i] = geom.Vector(p).Clone()
		}
		vs = geom.Dedup(vs)
		return requireFullDims(vs)
	})
	if err != nil {
		return nil, err
	}
	err = leaf(s.root, spNormalize, func() (err error) {
		_, vs, err = transform.Fatten(vs)
		return err
	})
	if err != nil {
		return nil, err
	}
	_ = leaf(s.root, spPerturb, func() error {
		vs = geom.Perturb(vs, 1e-9, seed+1)
		return nil
	})
	err = leaf(s.root, spInstance, func() (err error) {
		s.inst, err = core.NewInstance(vs)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.inst.Workers = 1
	s.work = s.inst
	if s.inst.Xi() < s.inst.N() {
		err = leaf(s.root, spPrefilter, func() (err error) {
			s.work, err = core.NewInstanceFromExtremes(s.inst.ExtPts)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.work.Workers = 1
		s.remap = s.inst.X
	}
	return s, nil
}

// requireFullDims fails when New would drop a (near-)constant attribute:
// the replay does not copy that branch, and NORMAL data never takes it.
func requireFullDims(vs []geom.Vector) error {
	if len(vs) == 0 {
		return fmt.Errorf("empty input")
	}
	d := vs[0].Dim()
	for j := 0; j < d; j++ {
		lo, hi := vs[0][j], vs[0][j]
		for _, p := range vs {
			lo, hi = math.Min(lo, p[j]), math.Max(hi, p[j])
		}
		if !(hi-lo > 1e-12*math.Max(math.Abs(lo), math.Abs(hi))) {
			return fmt.Errorf("attribute %d is constant; the replay covers full-dimensional input only", j)
		}
	}
	return nil
}

// build replays one CoresetCtx(ε, Auto) on the session (d ≥ 3, one
// worker): the dominance graph on first use, DSMC then SCMC, the smaller
// result remapped to the full instance, and certification there.
func (s *session) build(ctx context.Context, eps float64) (buildStats, error) {
	var st buildStats
	if s.inst.D < 3 {
		return st, fmt.Errorf("replay covers d ≥ 3, got d=%d", s.inst.D)
	}
	before := obs.Default.Flatten()
	var qd, qs []int
	var errD, errS error
	if s.dg == nil {
		var ipdg *voronoi.IPDG
		_ = leaf(s.root, spIPDG, func() error {
			ipdg = s.work.BuildIPDG(0, s.seed+13)
			return nil
		})
		errD = leaf(s.root, spDG, func() (err error) {
			s.dg, err = s.work.BuildDominanceGraphCtx(ctx, ipdg)
			return err
		})
		if errD == nil {
			st.dgLPs, st.ipdgEdges = s.dg.NumLPs, s.dg.IPDGEdges
		}
	}
	if errD == nil {
		errD = leaf(s.root, spDSMC, func() (err error) {
			qd, err = s.work.DSMCRefinedCtx(ctx, s.dg, eps, 8)
			return err
		})
	}
	errS = leaf(s.root, spSCMC, func() (err error) {
		qs, st.scmcSamples, err = s.work.SCMCCtx(ctx, eps, core.SCMCOptions{Seed: s.seed})
		return err
	})
	switch {
	case errD == nil && errS == nil:
		st.idx = qd
		if len(qs) < len(qd) {
			st.idx = qs
		}
	case errD == nil:
		st.idx = qd
	case errS == nil:
		st.idx = qs
	default:
		return st, fmt.Errorf("DSMC: %v; SCMC: %v", errD, errS)
	}
	st.dsmcSize, st.scmcSize = len(qd), len(qs)
	if s.remap != nil {
		for i, v := range st.idx {
			st.idx[i] = s.remap[v]
		}
	}
	var loss float64
	err := leaf(s.root, spCertify, func() (err error) {
		loss, err = s.inst.LossCtx(ctx, st.idx)
		return err
	})
	if err != nil {
		return st, fmt.Errorf("certify: %w", err)
	}
	if loss > eps+1e-9 {
		return st, fmt.Errorf("replayed build has loss %.6g > ε = %g; the public pipeline would have repaired it", loss, eps)
	}
	after := obs.Default.Flatten()
	d := func(k string) float64 { return after[k] - before[k] }
	st.rounds = int(d(cSCMCRounds))
	if st.rounds > 0 {
		// Stages double from the initial sample, so the last stage holds
		// just over half of all samples drawn.
		st.samplesTotal = float64(st.scmcSamples) * (math.Ldexp(1, st.rounds) - 1) / math.Ldexp(1, st.rounds-1)
	}
	st.lpSolves, st.lpPivots = d(cLPSolves), d(cLPPivots)
	st.warmHits = d(cWarm) + d(cWarmDual)
	st.warmTries = st.warmHits + d(cWarmFallback)
	st.lossLPCalls = d(cLossLP)
	return st, nil
}

// finish closes the session's root span, then times apart from it the
// two halves of core.NewInstance on the replay's input: the hull, and the
// rest (fatness estimate and search trees), each through its own
// exported call. Their sum is the core.instance leaf, but the split is
// measured directly instead of as a noisy difference.
func (s *session) finish() error {
	s.root.End()
	t := time.Now()
	if _, err := hull.ExtremePoints(s.inst.Pts); err != nil {
		return err
	}
	s.hullMS = bench.MS(time.Since(t))
	t = time.Now()
	transform.EmpiricalFatness(s.inst.ExtPts, 1024, 1)
	mips.NewKDTree(s.inst.Pts)
	mips.NewKDTree(s.inst.ExtPts)
	s.restMS = bench.MS(time.Since(t))
	return nil
}

// leafMS sums the durations of the root's children by name.
func (s *session) leafMS() map[string]float64 {
	out := map[string]float64{}
	for _, c := range s.root.Children {
		out[c.Name] += bench.MS(c.Duration)
	}
	return out
}

// residualMS is the root's time no leaf accounts for.
func (s *session) residualMS() float64 {
	r := bench.MS(s.root.Duration)
	for _, c := range s.root.Children {
		r -= bench.MS(c.Duration)
	}
	return r
}
