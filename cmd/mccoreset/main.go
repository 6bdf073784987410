// Command mccoreset computes a minimum ε-coreset of a dataset and prints
// a summary (and optionally the coreset itself as CSV).
//
// Usage:
//
//	mccoreset -data normal-2d -n 10000 -eps 0.05 -algo optmc
//	mccoreset -data airquality -eps 0.1 -algo dsmc -out coreset.csv
//	mccoreset -in points.csv -eps 0.05 -algo auto
//	mccoreset -data normal-4d -sweep 0.02,0.05,0.1 -algo dsmc
//
// Built-in dataset names are those of internal/data (Table 1 stand-ins
// and normal-<d>d / uniform-<d>d); -in reads a headerless CSV of floats
// instead.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mincore"
	"mincore/internal/data"
	"mincore/internal/obs"
)

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func main() {
	dataset := flag.String("data", "", "built-in dataset name (e.g. normal-2d, airquality)")
	in := flag.String("in", "", "CSV file of points (alternative to -data)")
	n := flag.Int("n", 0, "number of points to generate (0 = dataset default)")
	eps := flag.Float64("eps", 0.1, "error parameter ε ∈ (0,1)")
	algo := flag.String("algo", "auto", "algorithm: auto, optmc, dsmc, scmc, ann")
	size := flag.Int("size", 0, "solve the dual problem: best coreset of at most this size (overrides -eps)")
	sweep := flag.String("sweep", "", "comma-separated ε ladder to build in one batch (overrides -eps and -size), e.g. 0.02,0.05,0.1")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker-pool size for the parallel hot paths (0 = GOMAXPROCS, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this long (0 = no limit)")
	trace := flag.Bool("trace", false, "print the phase-span tree of the build (durations per phase)")
	out := flag.String("out", "", "write coreset points to this CSV file")
	flag.Parse()

	obs.Enable() // collect solver metrics; the trace is always recorded

	pts, name, err := loadPoints(*dataset, *in, *n, *seed)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	cs, err := mincore.New(pts, mincore.WithSeed(*seed), mincore.WithWorkers(*workers))
	if err != nil {
		fatal(err)
	}
	prepTime := time.Since(start)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *sweep != "" {
		runSweep(ctx, cs, name, *sweep, mincore.Algorithm(*algo), prepTime)
		return
	}
	start = time.Now()
	var q *mincore.Coreset
	if *size > 0 {
		q, err = cs.FixedSizeCtx(ctx, *size, mincore.Algorithm(*algo))
	} else {
		q, err = cs.CoresetCtx(ctx, *eps, mincore.Algorithm(*algo))
	}
	if err != nil {
		var ue *mincore.UncertifiedError
		if errors.As(err, &ue) && ue.Coreset != nil {
			fmt.Fprintf(os.Stderr, "mccoreset: %v\n", err)
			fmt.Fprintf(os.Stderr, "mccoreset: best-effort coreset: %d points, measured loss %.6f (target ε=%.4f)\n",
				ue.Coreset.Size(), ue.Coreset.Loss, *eps)
			if *trace && ue.Report != nil && ue.Report.Trace != nil {
				fmt.Fprintln(os.Stderr, "phase trace:")
				ue.Report.Trace.Write(os.Stderr)
			}
			os.Exit(1)
		}
		fatal(err)
	}
	solveTime := time.Since(start)

	fmt.Printf("dataset:        %s (n=%d, d=%d)\n", name, cs.N(), cs.Dim())
	fmt.Printf("extreme points: %d (α=%.3f)\n", cs.NumExtreme(), cs.Alpha())
	fmt.Printf("algorithm:      %s\n", q.Algorithm)
	fmt.Printf("ε:              %.4f\n", q.Eps)
	fmt.Printf("coreset size:   %d (%.4f%% of data)\n", q.Size(), 100*float64(q.Size())/float64(cs.N()))
	fmt.Printf("measured loss:  %.6f\n", q.Loss)
	if rep := q.Report; rep != nil {
		status := "uncertified"
		if rep.Certified {
			status = "certified"
		}
		fmt.Printf("certification:  %s (loss %.6f ≤ ε, %d attempt(s), %d retr%s)\n",
			status, rep.CertifiedLoss, rep.Attempts, rep.Retries, plural(rep.Retries, "y", "ies"))
		if len(rep.Fallbacks) > 0 {
			fmt.Printf("repair steps:   %v\n", rep.Fallbacks)
		}
	}
	fmt.Printf("preprocessing:  %v\n", prepTime.Round(time.Millisecond))
	fmt.Printf("solve time:     %v\n", solveTime.Round(time.Millisecond))
	if *trace {
		if q.Report != nil && q.Report.Trace != nil {
			fmt.Println("phase trace:")
			q.Report.Trace.Write(os.Stdout)
		} else {
			fmt.Println("phase trace:   (none recorded)")
		}
	}

	if *out != "" {
		if err := writeCSV(*out, q.Points); err != nil {
			fatal(err)
		}
		fmt.Printf("coreset written to %s\n", *out)
	}
}

// runSweep drives the batched ε-ladder API: one CoresetSweep call builds
// every requested ε, sharing the build cache across the ladder (and the
// dominance graph, when DSMC runs: requested, or in Auto's d = 3 race),
// and prints one row per ε.
func runSweep(ctx context.Context, cs *mincore.Coreseter, name, spec string, algo mincore.Algorithm, prepTime time.Duration) {
	var epsList []float64
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -sweep entry %q: %w", s, err))
		}
		epsList = append(epsList, v)
	}
	if len(epsList) == 0 {
		fatal(fmt.Errorf("-sweep needs at least one ε value"))
	}
	start := time.Now()
	results, err := cs.CoresetSweep(ctx, epsList, algo)
	sweepTime := time.Since(start)
	fmt.Printf("dataset:        %s (n=%d, d=%d)\n", name, cs.N(), cs.Dim())
	fmt.Printf("extreme points: %d (α=%.3f)\n", cs.NumExtreme(), cs.Alpha())
	fmt.Printf("sweep:          %d ε values, algo %s\n", len(epsList), algo)
	fmt.Printf("preprocessing:  %v\n", prepTime.Round(time.Millisecond))
	fmt.Printf("sweep time:     %v\n", sweepTime.Round(time.Millisecond))
	fmt.Printf("%10s %8s %10s %10s %8s %6s\n", "ε", "size", "loss", "algo", "attempts", "cache")
	for i, q := range results {
		if q == nil {
			fmt.Printf("%10.4f %8s %10s %10s %8s %6s\n", epsList[i], "-", "failed", "-", "-", "-")
			continue
		}
		attempts, cache := "-", "miss"
		if q.Report != nil {
			attempts = strconv.Itoa(q.Report.Attempts)
			if q.Report.CacheHit {
				cache = "hit"
			}
		}
		fmt.Printf("%10.4f %8d %10.6f %10s %8s %6s\n", epsList[i], q.Size(), q.Loss, q.Algorithm, attempts, cache)
	}
	if err != nil {
		fatal(err)
	}
}

func loadPoints(dataset, in string, n int, seed int64) ([]mincore.Point, string, error) {
	switch {
	case dataset != "" && in != "":
		return nil, "", fmt.Errorf("use either -data or -in, not both")
	case dataset != "":
		ds, err := data.ByName(dataset, n, seed)
		if err != nil {
			return nil, "", err
		}
		pts := make([]mincore.Point, len(ds.Points))
		for i, p := range ds.Points {
			pts[i] = mincore.Point(p)
		}
		return pts, ds.Name, nil
	case in != "":
		pts, err := readCSV(in)
		return pts, in, err
	default:
		return nil, "", fmt.Errorf("one of -data or -in is required")
	}
}

func readCSV(path string) ([]mincore.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	var pts []mincore.Point
	for {
		rec, err := r.Read()
		if err != nil {
			if len(pts) == 0 {
				return nil, fmt.Errorf("no rows in %s", path)
			}
			return pts, nil
		}
		p := make(mincore.Point, len(rec))
		for i, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("%s row %d: %w", path, len(pts)+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
}

func writeCSV(path string, pts []mincore.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	for _, p := range pts {
		rec := make([]string, len(p))
		for i, v := range p {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mccoreset:", err)
	os.Exit(1)
}
