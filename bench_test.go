package mincore_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 7 and Appendix B), each delegating to the experiment harness
// in internal/experiments — the same code cmd/mcbench runs. Benchmarks
// print the regenerated rows once (on the first iteration) and then time
// complete re-runs.
//
// Ablation benchmarks at the bottom cover the design choices called out
// in DESIGN.md §7: DSMC's ε′ search, SCMC's δ/γ split and adaptive
// sampling, exact vs approximate IPDG at d = 3, and ANN vs the plain
// direction grid.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"mincore"
	"mincore/internal/core"
	"mincore/internal/data"
	"mincore/internal/experiments"
	"mincore/internal/geom"
	"mincore/internal/kernel"
	"mincore/internal/voronoi"
)

func mustDG(t testing.TB, inst *core.Instance, ipdg *voronoi.IPDG) *core.DominanceGraph {
	t.Helper()
	dg, err := inst.BuildDominanceGraph(ipdg)
	if err != nil {
		t.Fatalf("BuildDominanceGraph: %v", err)
	}
	return dg
}

// benchCfg is a reduced profile so the full bench suite completes in
// minutes; `go test -bench . -full` is not a thing, use cmd/mcbench -full
// for paper-scale runs.
var benchCfg = experiments.Config{Seed: 1, MaxEpsSteps: 3, Tiny: true}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	// Every iteration regenerates the full experiment. Rows go to stdout
	// in verbose mode (use cmd/mcbench for a readable report); the
	// benchmark itself measures complete re-runs, and since one run far
	// exceeds the default benchtime the framework settles at b.N = 1.
	out := io.Discard
	if testing.Verbose() {
		out = os.Stdout
	}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, out, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DominanceGraph(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig4VaryEps2D(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkFig5VaryN2D(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig6VaryEpsMD(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig7VaryD(b *testing.B)            { runExperiment(b, "fig7") }
func BenchmarkFig8VaryNMD(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig9DGConstruction(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig11LossDist2D(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12LossDistMD(b *testing.B)      { runExperiment(b, "fig12") }

// --- Per-algorithm micro-benchmarks on a fixed workload ---

func benchInstance(b *testing.B, n, d int) *core.Instance {
	b.Helper()
	ds := data.Normal(n, d, 7)
	inst, err := core.NewInstance(ds.Points)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkOptMC times OptMC, candidate selection included, at two
// candidate counts: about 20 on NORMAL and about 36k on UNIFORM.
func BenchmarkOptMC(b *testing.B) {
	for _, bc := range []struct {
		name string
		ds   data.Dataset
		eps  float64
	}{
		{"normal-n20k-eps0.05", data.Normal(20000, 2, 7), 0.05},
		{"uniform-n100k-eps0.20", data.Uniform(100000, 2, 7), 0.20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			inst, err := core.NewInstance(bc.ds.Points)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.OptMC(bc.eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDSMCSolveOnly(b *testing.B) {
	inst := benchInstance(b, 20000, 4)
	dg := mustDG(b, inst, inst.BuildIPDG(0, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.DSMC(dg, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCMC(b *testing.B) {
	inst := benchInstance(b, 20000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.SCMC(0.05, core.SCMCOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkANNKernel(b *testing.B) {
	ds := data.Normal(20000, 4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.ANN(ds.Points, 0.05, kernel.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtremePointsClarkson(b *testing.B) {
	ds := data.Normal(20000, 6, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := core.NewInstance(ds.Points)
		if err != nil {
			b.Fatal(err)
		}
		_ = inst.Xi()
	}
}

func BenchmarkLoss(b *testing.B) {
	inst := benchInstance(b, 20000, 4)
	q, _, err := inst.SCMC(0.1, core.SCMCOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Loss(q)
	}
}

// BenchmarkDominanceGraphWorkers compares Workers=1 against Workers=N on
// the dominance-graph build through the public API: each iteration
// preprocesses outside the timer and then times the ξ² LP loop alone
// (forced via DominanceGraphStats). The instance has ξ ≥ 200 extreme
// points (n=5000, d=5 Gaussian), large enough that per-cell partitioning
// dominates pool overhead; on an 8-core machine workers=8 should beat
// workers=1 by ≥ 2×.
func BenchmarkDominanceGraphWorkers(b *testing.B) {
	ds := data.Normal(5000, 5, 7)
	pts := make([]mincore.Point, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = mincore.Point(p)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cs, err := mincore.New(pts, mincore.WithSeed(1), mincore.WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if xi := cs.NumExtreme(); xi < 200 {
					b.Fatalf("bench instance too small: ξ=%d < 200", xi)
				}
				b.StartTimer()
				cs.DominanceGraphStats()
			}
		})
	}
}

// --- Ablations ---

// BenchmarkAblationDSMCEpsPrime compares DSMC with and without the
// ε′ ∈ [ε,3ε] refinement (remark after Theorem 6.3); the refined variant
// trades extra greedy+validation passes for smaller coresets.
func BenchmarkAblationDSMCEpsPrime(b *testing.B) {
	inst := benchInstance(b, 20000, 4)
	dg := mustDG(b, inst, inst.BuildIPDG(0, 1))
	eps := 0.1
	b.Run("plain", func(b *testing.B) {
		size := 0
		for i := 0; i < b.N; i++ {
			q, err := inst.DSMC(dg, eps)
			if err != nil {
				b.Fatal(err)
			}
			size = len(q)
		}
		b.ReportMetric(float64(size), "coreset-size")
	})
	b.Run("refined", func(b *testing.B) {
		size := 0
		for i := 0; i < b.N; i++ {
			q, err := inst.DSMCRefined(dg, eps, 8)
			if err != nil {
				b.Fatal(err)
			}
			size = len(q)
		}
		b.ReportMetric(float64(size), "coreset-size")
	})
}

// BenchmarkAblationSCMCSplit varies the δ/γ split (remark after Theorem
// A.2): larger γ gives smaller coresets but needs more samples.
func BenchmarkAblationSCMCSplit(b *testing.B) {
	inst := benchInstance(b, 20000, 4)
	eps := 0.1
	for _, frac := range []float64{0.25, 0.5, 0.75, 0.9} {
		name := map[float64]string{0.25: "gamma=eps4", 0.5: "gamma=eps2", 0.75: "gamma=3eps4", 0.9: "gamma=9eps10"}[frac]
		b.Run(name, func(b *testing.B) {
			size, samples := 0, 0
			for i := 0; i < b.N; i++ {
				q, m, err := inst.SCMC(eps, core.SCMCOptions{Gamma: eps * frac, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				size, samples = len(q), m
			}
			b.ReportMetric(float64(size), "coreset-size")
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

// BenchmarkAblationIPDG compares DSMC at d = 3 with the exact
// (hull-edge) IPDG against the sampled approximation — quantifying what
// the paper's d > 3 fallback costs.
func BenchmarkAblationIPDG(b *testing.B) {
	inst := benchInstance(b, 20000, 3)
	eps := 0.05
	exact, err := voronoi.Exact3D(inst.ExtPts)
	if err != nil {
		b.Fatal(err)
	}
	approx := voronoi.Approx(inst.ExtPts, 0, 3)
	for _, tc := range []struct {
		name string
		g    *voronoi.IPDG
	}{{"exact", exact}, {"approx", approx}} {
		b.Run(tc.name, func(b *testing.B) {
			dg := mustDG(b, inst, tc.g)
			size := 0
			for i := 0; i < b.N; i++ {
				q, err := inst.DSMC(dg, eps)
				if err != nil {
					b.Fatal(err)
				}
				size = len(q)
			}
			b.ReportMetric(float64(size), "coreset-size")
		})
	}
}

// BenchmarkAblationKernelGrid compares the ANN (Dudley) kernel against
// the plain direction-argmax grid at equal ε.
func BenchmarkAblationKernelGrid(b *testing.B) {
	ds := data.Normal(20000, 3, 7)
	inst, err := core.NewInstance(ds.Points)
	if err != nil {
		b.Fatal(err)
	}
	eps := 0.05
	b.Run("dudley-ann", func(b *testing.B) {
		size := 0
		for i := 0; i < b.N; i++ {
			q, err := kernel.ANN(inst.Pts, eps, kernel.Options{})
			if err != nil {
				b.Fatal(err)
			}
			size = len(q)
		}
		b.ReportMetric(float64(size), "coreset-size")
	})
	b.Run("direction-grid", func(b *testing.B) {
		m := kernel.GridSize(eps, 3, kernel.Options{})
		size := 0
		for i := 0; i < b.N; i++ {
			q, err := kernel.DirectionGrid(inst.Pts, m, 7)
			if err != nil {
				b.Fatal(err)
			}
			size = len(q)
		}
		b.ReportMetric(float64(size), "coreset-size")
	})
}

// --- Streaming path ---

// BenchmarkStreamFeed measures per-point ingest into the streaming
// sketch — the service's hot write path (validation + champion update)
// — on NORMAL streams with the net sized for sketch ε 0.1 at α 0.25.
// cold feeds each pass over the stream into a fresh summary, where early
// points still beat champions and scan the whole net; settled feeds a
// summary that has seen the stream once, where the champion floor skips
// most points in O(d).
func BenchmarkStreamFeed(b *testing.B) {
	for _, c := range []struct{ d, n int }{{4, 50000}, {5, 10000}} {
		ds := data.Normal(c.n, c.d, 7)
		pts := make([]mincore.Point, len(ds.Points))
		for i, p := range ds.Points {
			pts[i] = mincore.Point(p)
		}
		feed := func(b *testing.B, ss *mincore.StreamSummary, p mincore.Point) {
			if err := ss.Feed(p); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("d%d/cold", c.d), func(b *testing.B) {
			var ss *mincore.StreamSummary
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(pts) == 0 {
					b.StopTimer()
					ss = mincore.NewStreamSummary(c.d, 0.1, 0.25, 7)
					b.StartTimer()
				}
				feed(b, ss, pts[i%len(pts)])
			}
		})
		b.Run(fmt.Sprintf("d%d/settled", c.d), func(b *testing.B) {
			ss := mincore.NewStreamSummary(c.d, 0.1, 0.25, 7)
			for _, p := range pts {
				feed(b, ss, p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed(b, ss, pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkStreamCoresetBuild measures certified builds from a warmed
// stream sketch — the service's read path minus HTTP.
func BenchmarkStreamCoresetBuild(b *testing.B) {
	ds := data.Normal(5000, 3, 7)
	ss := mincore.NewStreamSummary(3, 0.1, 0.25, 7)
	for _, p := range ds.Points {
		if err := ss.Feed(mincore.Point(p)); err != nil {
			b.Fatal(err)
		}
	}
	sketch := ss.Coreset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := mincore.New(sketch, mincore.WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cs.Coreset(0.15, mincore.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTop1Query measures query answering from a coreset vs the full
// dataset — the end-to-end payoff of the summary.
func BenchmarkTop1Query(b *testing.B) {
	ds := data.Normal(200000, 4, 7)
	pts := make([]mincore.Point, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = mincore.Point(p)
	}
	cs, err := mincore.New(pts)
	if err != nil {
		b.Fatal(err)
	}
	q, err := cs.Coreset(0.05, mincore.Auto)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	dir := make(mincore.Point, 4)
	b.Run("coreset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dir {
				dir[j] = rng.NormFloat64()
			}
			q.Top1(dir)
		}
	})
	full := make([]geom.Vector, cs.N())
	for i := range full {
		full[i] = geom.Vector(cs.Point(i))
	}
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dir {
				dir[j] = rng.NormFloat64()
			}
			geom.MaxDot(full, geom.Vector(dir))
		}
	})
}
