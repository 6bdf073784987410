// Command layers is the benchmark's traced run: it drives a workload
// through the public API as the untraced run does, then replays every
// build layer by layer through the internal packages under spans of its
// own, and diffs the observability counters around each layer. It prints
// the per-layer metrics declared in BENCHMARK.json.
//
// The replay must reproduce each public build's coreset indices exactly;
// a mismatch marks this run incorrect. Only this command imports the
// layers' internal packages (the untraced run imports internal/obs alone,
// to switch observability on), so an internal refactor can break the
// layer split but never the end-to-end run. Run it from the root of the
// repository:
//
//	bash perfbench/run.sh --workload ladder_5d --seed 1 --seconds 25 --trace 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"mincore"
	"mincore/internal/obs"
	"mincore/perfbench/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// tally collects per-layer values. Preprocessing layers get one value
// per replayed New and report the median; build layers are summed over a
// pass of the ladder and report the median over passes.
type tally struct {
	perNew  map[string][]float64
	pass    map[string]float64
	perPass map[string][]float64
	once    map[string]float64

	attempted int
	errs      []string
}

func newTally() *tally {
	return &tally{perNew: map[string][]float64{}, pass: map[string]float64{},
		perPass: map[string][]float64{}, once: map[string]float64{}}
}

func (t *tally) fail(format string, args ...any) {
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// endPass closes the current pass's sums.
func (t *tally) endPass() {
	for k, v := range t.pass {
		t.perPass[k] = append(t.perPass[k], v)
	}
	t.pass = map[string]float64{}
}

// values reduces the tally to one number per metric.
func (t *tally) values() map[string]float64 {
	out := map[string]float64{}
	for k, v := range t.perNew {
		out[k] = bench.Median(v)
	}
	for k, v := range t.perPass {
		out[k] = bench.Median(v)
	}
	if tries := out["lp.warm_tries"]; tries > 0 {
		out["lp.warm_hit_ratio"] = out["lp.warm_hits"] / tries
	}
	delete(out, "lp.warm_hits")
	delete(out, "lp.warm_tries")
	for k, v := range t.once {
		out[k] = v
	}
	return out
}

// replaySession replays one public session — a New, then builds at each
// ε on it — and checks that every replayed build picks the same indices
// as the public one. publicMS is the untraced time of the same session.
func (t *tally) replaySession(ctx context.Context, label string, pts []mincore.Point, seed int64, eps []float64, public []*mincore.Coreset, publicMS float64) {
	runtime.GC()
	s, err := preprocess(pts, seed)
	if err != nil {
		t.fail("%s: replayed New: %v", label, err)
		return
	}
	for i, e := range eps {
		st, err := s.build(ctx, e)
		if err != nil {
			t.fail("%s ε=%g: replayed build: %v", label, e, err)
			continue
		}
		// A failed public build is already recorded; there is nothing to
		// compare against.
		if q := public[i]; q != nil {
			if !slices.Equal(st.idx, q.Indices) {
				t.fail("%s ε=%g: replay picked other indices than the public build", label, e)
			}
			t.pass["repair.attempts"] += float64(q.Report.Attempts)
			t.pass["repair.fallbacks"] += float64(len(q.Report.Fallbacks))
		}
		t.pass["core.ipdg_edges"] += float64(st.ipdgEdges)
		t.pass["core.dg_edge_lps"] += float64(st.dgLPs)
		t.pass["lp.solves"] += st.lpSolves
		t.pass["lp.pivots"] += st.lpPivots
		t.pass["lp.warm_hits"] += st.warmHits
		t.pass["lp.warm_tries"] += st.warmTries
		t.pass["core.dsmc_size"] += float64(st.dsmcSize)
		t.pass["core.scmc_size"] += float64(st.scmcSize)
		t.pass["core.scmc_rounds"] += float64(st.rounds)
		t.pass["core.scmc_samples_final"] += float64(st.scmcSamples)
		t.pass["core.scmc_samples_total"] += st.samplesTotal
		t.pass["core.loss_lp_calls"] += st.lossLPCalls
	}
	if err := s.finish(); err != nil {
		t.fail("%s: hull: %v", label, err)
		return
	}
	leaves := s.leafMS()
	for _, name := range []string{spDedup, spNormalize, spPerturb, spPrefilter} {
		t.perNew[name+"_ms"] = append(t.perNew[name+"_ms"], leaves[name])
	}
	t.perNew["hull.extreme_ms"] = append(t.perNew["hull.extreme_ms"], s.hullMS)
	t.perNew["core.instance_ms"] = append(t.perNew["core.instance_ms"], s.restMS)
	t.perNew["hull.xi"] = append(t.perNew["hull.xi"], float64(s.inst.Xi()))
	for _, name := range []string{spIPDG, spDG, spDSMC, spSCMC, spCertify} {
		t.pass[name+"_ms"] += leaves[name]
	}
	t.pass["repair.residual_ms"] += s.residualMS()
	t.pass["trace.overhead_ms"] += bench.MS(s.root.Duration) - publicMS
}

// traceBatch runs one pass of a batch workload: each session first
// through the public API, untraced, then replayed.
func traceBatch(ctx context.Context, w bench.Workload, seed int64, t *tally) {
	pts := bench.Input(w.N, w.D, w.DataSeed, seed)
	for _, session := range w.Sessions {
		label := fmt.Sprintf("%s session %v", w.Name, session)
		t.attempted++
		runtime.GC()
		t0 := time.Now()
		cs, err := bench.NewCoreseter(pts, w.DataSeed)
		if err != nil {
			t.fail("%s: New: %v", label, err)
			continue
		}
		publicMS := bench.MS(time.Since(t0))
		public := make([]*mincore.Coreset, len(session))
		for i, eps := range session {
			t.attempted++
			runtime.GC()
			t1 := time.Now()
			q, err := cs.CoresetCtx(ctx, eps, mincore.Auto)
			publicMS += bench.MS(time.Since(t1))
			if err == nil {
				err = bench.CheckCertified(cs, q, eps)
			}
			if err != nil {
				t.fail("%s ε=%g: %v", label, eps, err)
				continue
			}
			public[i] = q
		}
		t.replaySession(ctx, label, pts, w.DataSeed, session, public, publicMS)
	}
	t.endPass()
}

func run() error {
	workload := flag.String("workload", "", "workload name (see bench/workloads.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "run length of the serve workload's open loop")
	flag.Parse()

	spec, err := bench.LoadSpec()
	if err != nil {
		return err
	}
	man, err := bench.LoadManifest()
	if err != nil {
		return err
	}
	if err := spec.CheckManifest(man); err != nil {
		return err
	}
	w, err := spec.Lookup(*workload)
	if err != nil {
		return err
	}
	obs.Enable()
	ctx := context.Background()
	t := newTally()
	switch w.Kind {
	case "batch":
		traceBatch(ctx, w, *seed, t)
	case "serve":
		if err := traceServe(ctx, spec.Ladder, w, *seed, *seconds, t); err != nil {
			return err
		}
	default:
		return fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
	}

	vals := t.values()
	declared := map[string]bool{}
	res := bench.Result{Attempted: t.attempted, Failed: len(t.errs), Correct: len(t.errs) == 0,
		Metrics: map[string]bench.Metric{}}
	for _, m := range man.PerLayer {
		declared[m.Name] = true
		// A layer the workload never enters reads 0.
		res.Metrics[m.Name] = bench.Metric{Value: vals[m.Name], Unit: m.Unit}
	}
	var unknown []string
	for k := range vals {
		if !declared[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("measured metrics BENCHMARK.json does not declare: %v", unknown)
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	fmt.Printf("%s: traced run, residual %.4g ms, tracing overhead %.4g ms\n",
		w.Name, vals["repair.residual_ms"], vals["trace.overhead_ms"])
	return bench.Finish(os.Stdout, man.PerLayer, res)
}
