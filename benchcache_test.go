package mincore

// TestWriteBenchCacheJSON regenerates the committed cache-benchmark
// snapshot (BENCH_cache.json). It is gated on MINCORE_BENCH_CACHE_JSON —
// set it to the output path — because a full run takes a minute or so;
// `make bench-cache` / scripts/bench_cache.sh is the supported entry
// point.
//
// The snapshot pins the two performance claims of the build cache:
//
//   - a repeated identical Coreset call on a cache-enabled Coreseter is
//     at least 50× faster than the cache-disabled build (warm hits clone
//     a stored certified result instead of re-solving), and
//   - a repeated FixedSize call issues strictly fewer full certified
//     builds than the cold 20-probe dual search, because cached probe
//     results shrink the bisection bracket (a same-budget repeat
//     collapses it entirely and is answered from the cache).
//
// Builds are counted with the mincore_builds_total{outcome="certified"}
// counter rather than timer heuristics, so the numbers are exact.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"mincore/internal/data"
	"mincore/internal/obs"
)

func TestWriteBenchCacheJSON(t *testing.T) {
	out := os.Getenv("MINCORE_BENCH_CACHE_JSON")
	if out == "" {
		t.Skip("set MINCORE_BENCH_CACHE_JSON=<path> to write the cache benchmark snapshot")
	}

	obs.Enable()
	ds := data.Normal(2000, 4, 7)
	pts := make([]Point, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = Point(p)
	}

	// Cold: the cache is disabled, so every op pays the full certified
	// build. Warm: the default cache is primed once, so every op is a
	// hit. Same Coreseter shape, same seed, same ε — the only variable
	// is the cache.
	csCold, err := New(pts, WithSeed(1), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	cold := minNs(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := csCold.Coreset(0.1, DSMC); err != nil {
				b.Fatal(err)
			}
		}
	})
	csWarm, err := New(pts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csWarm.Coreset(0.1, DSMC); err != nil {
		t.Fatal(err)
	}
	warm := minNs(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := csWarm.Coreset(0.1, DSMC); err != nil {
				b.Fatal(err)
			}
		}
	})
	speedup := float64(cold.NsPerOp()) / float64(warm.NsPerOp())
	if speedup < 50 {
		t.Errorf("warm cache speedup %.1f×, want >= 50×", speedup)
	}

	// FixedSize probe counts, measured as certified-pipeline runs. The
	// cold dual search bisects (0,1) for 20 probes; the warm repeat must
	// do strictly fewer — with an identical budget it reuses the cached
	// feasible probe and runs zero.
	builds := obs.Default.Counter("mincore_builds_total",
		"Completed certification pipelines by outcome.", obs.Labels{"outcome": "certified"})
	countBuilds := func(cs *Coreseter) uint64 {
		before := builds.Value()
		if _, err := cs.FixedSize(40, DSMC); err != nil {
			t.Fatal(err)
		}
		return builds.Value() - before
	}
	csFixedCold, err := New(pts, WithSeed(1), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	coldBuilds := countBuilds(csFixedCold)
	csFixedWarm, err := New(pts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	firstWarmBuilds := countBuilds(csFixedWarm)  // populates the cache
	repeatWarmBuilds := countBuilds(csFixedWarm) // answered from it
	if repeatWarmBuilds >= coldBuilds {
		t.Errorf("warm FixedSize ran %d builds, cold ran %d — want strictly fewer", repeatWarmBuilds, coldBuilds)
	}

	snapshot := map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   map[string]any{"n": len(pts), "d": 4, "dataset": "normal", "seed": 7},
		"benchmarks": map[string]benchEntry{
			"coreset_cold/eps=0.1": toEntry(cold),
			"coreset_warm/eps=0.1": toEntry(warm),
		},
		"warm_speedup": map[string]any{"x": speedup, "note": "min-of-3 ns/op, DSMC ε=0.1, want >= 50"},
		"fixed_size_builds": map[string]any{
			"cold":        coldBuilds,
			"warm_first":  firstWarmBuilds,
			"warm_repeat": repeatWarmBuilds,
			"note":        "certified pipeline runs per FixedSize(40, dsmc) call",
		},
		"metrics": obs.Default.Flatten(),
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
	t.Logf("wrote %s (warm speedup %.1f×; FixedSize builds cold=%d warm-repeat=%d)",
		out, speedup, coldBuilds, repeatWarmBuilds)
}
