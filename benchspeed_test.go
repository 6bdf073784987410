package mincore

// TestWriteBenchSpeed regenerates the committed raw-speed snapshot
// (BENCH_speed.json). It is gated on MINCORE_BENCH_SPEED — set it to the
// output path — because a full run takes minutes; `make bench-speed` /
// scripts/bench_speed.sh is the supported entry point.
//
// It measures the cold dominance-graph build on the ξ≈260 bench
// instance (n=5000, d=5, seed 7): the pooled, warm-started edge-LP loop
// against the baseline that solves every pair cold from a fresh problem
// (ns/op and allocs/op, min-of-3 against 1-CPU scheduler noise) — the
// committed speedup and allocation-diet ratios.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"mincore/internal/core"
	"mincore/internal/data"
)

func TestWriteBenchSpeed(t *testing.T) {
	out := os.Getenv("MINCORE_BENCH_SPEED")
	if out == "" {
		t.Skip("set MINCORE_BENCH_SPEED=<path> to write the speed snapshot")
	}

	const n, d, seed = 5000, 5, 7
	ds := data.Normal(n, d, seed)
	inst, err := core.NewInstance(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	inst.Workers = 1
	ipdg := inst.BuildIPDG(0, 1)
	xi := inst.Xi()

	entries := map[string]benchEntry{}

	// Cold DG build, baseline vs pooled+warm-started, sequential so the
	// comparison is pure per-LP cost. Timings are min-of-3; the alloc
	// counts are exact per run.
	base := minNs(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.BuildDominanceGraphBaseline(ipdg); err != nil {
				b.Fatal(err)
			}
		}
	})
	fast := minNs(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.BuildDominanceGraph(ipdg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The warm-start share of the win, isolated: pooled buffers but every
	// edge LP solved cold.
	inst.DisableLPWarmStart = true
	fastNoWarm := minNs(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.BuildDominanceGraph(ipdg); err != nil {
				b.Fatal(err)
			}
		}
	})
	inst.DisableLPWarmStart = false
	entries["dg_build_cold/baseline"] = toEntry(base)
	entries["dg_build_cold/pooled_warm"] = toEntry(fast)
	entries["dg_build_cold/pooled_no_warm"] = toEntry(fastNoWarm)

	dgSpeedup := float64(base.NsPerOp()) / float64(fast.NsPerOp())
	allocRatio := float64(base.AllocsPerOp()) / float64(fast.AllocsPerOp())
	if dgSpeedup < 5 {
		t.Errorf("cold DG-build speedup %.2fx is below the 5x floor (baseline %d ns/op, new %d ns/op)",
			dgSpeedup, base.NsPerOp(), fast.NsPerOp())
	}
	if allocRatio < 5 {
		t.Errorf("DG-build allocation ratio %.2fx is below the 5x floor (baseline %d allocs/op, new %d allocs/op)",
			allocRatio, base.AllocsPerOp(), fast.AllocsPerOp())
	}

	snapshot := map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   map[string]any{"n": n, "d": d, "dataset": "normal", "seed": seed, "xi": xi},
		"benchmarks": entries,
		"dg_build": map[string]any{
			"speedup":     dgSpeedup,
			"alloc_ratio": allocRatio,
			"note":        "baseline (cold per-pair LPs) vs pooled+warm, workers=1, min-of-3 ns/op",
		},
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snapshot); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (DG speedup %.2fx, alloc ratio %.2fx)", out, dgSpeedup, allocRatio)
}
