// Command e2e is the benchmark's untraced run: it drives one workload
// through the public mincore API and prints the end-to-end metrics
// declared in BENCHMARK.json. Observability is enabled, as in every
// shipped binary; nothing else below the public API is touched.
//
// Run it from the root of the repository, where it reads BENCHMARK.json:
//
//	bash perfbench/run.sh --workload ladder_5d --seed 1 --seconds 25 --trace 0
//
// The last line of its output is the result object; the lines before it
// give every metric with its unit and, for serve_4d, the open-loop
// latencies (ack and read percentiles, failure ratio), how late the load
// generator ran, and whether a backlog grew.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mincore/internal/obs"
	"mincore/perfbench/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name (see bench/workloads.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "run length")
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

	res := bench.Result{Metrics: map[string]bench.Metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = bench.Metric{Value: v, Unit: unit} }
	var errs []string
	switch w.Kind {
	case "batch":
		r := bench.RunBatch(ctx, w, bench.Input(w.N, w.D, w.DataSeed, *seed), w.DataSeed, *seconds)
		put("setup_s", bench.Median(r.SetupS), "s")
		size := 0
		for _, eps := range spec.Ladder {
			k := bench.EpsKey(eps)
			put("build_s."+k, bench.Median(r.BuildS[k]), "s")
			size += r.Sizes[k]
			fmt.Printf("%s ε=%.2f: %d builds\n", w.Name, eps, len(r.BuildS[k]))
		}
		put("coreset_points", float64(size), "count")
		res.Attempted, res.Failed, errs = r.Attempted, len(r.Errors), r.Errors
	case "serve":
		r, err := bench.NewServe(ctx, spec.Ladder, w, *seed, *seconds)
		if err != nil {
			return err
		}
		defer r.Close()
		r.Run(ctx, bench.ServeHooks{})
		o := bench.Summarize(w, r)
		o.Print(os.Stdout, r)
		put("setup_s", bench.Median(r.SetupS), "s")
		for _, eps := range spec.Ladder {
			put("build_s."+bench.EpsKey(eps), bench.Median(r.LadderS[bench.EpsKey(eps)]), "s")
		}
		put("coreset_points", bench.Median(r.LadderPoints), "count")
		res.Attempted, res.Failed, errs = r.Attempted, r.Failed, r.Errors
	default:
		return fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
	}
	rss, err := bench.PeakRSSMB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	put("peak_rss_mb", rss, "MB")
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	res.Correct = len(errs) == 0
	return bench.Finish(os.Stdout, man.EndToEnd, res)
}
