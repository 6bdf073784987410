package mincore

// TestWriteBenchJSON regenerates the committed benchmark snapshot
// (BENCH_observability.json). It is gated on MINCORE_BENCH_JSON — set it
// to the output path — because a full run takes minutes; `make
// bench-json` / scripts/bench_json.sh is the supported entry point.
//
// Each entry records ns/op, B/op and allocs/op from an in-process
// testing.Benchmark run; running in-process (instead of parsing `go test
// -bench` output) keeps the metric registry reachable, so the snapshot
// also embeds the post-run counter values — a coarse regression tripwire
// for the instrumentation itself (e.g. LP solves per DG build).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mincore/internal/core"
	"mincore/internal/data"
	"mincore/internal/obs"
)

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n"`
}

func toEntry(r testing.BenchmarkResult) benchEntry {
	return benchEntry{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		N:           r.N,
	}
}

// minNs runs f `runs` times and keeps the fastest — the standard guard
// against scheduler noise on the 1-CPU CI container.
func minNs(runs int, f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < runs; i++ {
		r := testing.Benchmark(f)
		if r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

func TestWriteBenchJSON(t *testing.T) {
	out := os.Getenv("MINCORE_BENCH_JSON")
	if out == "" {
		t.Skip("set MINCORE_BENCH_JSON=<path> to write the benchmark snapshot")
	}

	obs.Enable() // collect the full metric inventory alongside the timings
	ds := data.Normal(2000, 4, 7)
	pts := make([]Point, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = Point(p)
	}

	entries := map[string]benchEntry{}

	// Dominance-graph build (the ξ² LP loop), sequential and 2-way. The
	// public Coreseter caches the graph, so this times the internal build
	// directly — every iteration pays the full loop.
	inst, err := core.NewInstance(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	ipdg := inst.BuildIPDG(0, 1)
	for _, w := range []int{1, 2} {
		inst.Workers = w
		entries[fmt.Sprintf("dg_build/workers=%d", w)] = toEntry(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inst.BuildDominanceGraph(ipdg); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	inst.Workers = 0

	// Certified end-to-end build (auto algorithm selection). A fresh
	// Coreseter per iteration keeps the internal DG cache cold, so this
	// times preprocessing + build + certification every op.
	entries["coreset_auto/eps=0.1"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			csAuto, err := New(pts, WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := csAuto.Coreset(0.1, Auto); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Streaming hot paths.
	ss := NewStreamSummary(4, 0.1, 0.25, 7)
	entries["stream_feed"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ss.Feed(pts[i%len(pts)]); err != nil {
				b.Fatal(err)
			}
		}
	}))
	sketch := ss.Coreset()
	entries["stream_coreset_build"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scs, err := New(sketch, WithSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := scs.Coreset(0.15, Auto); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Observability tax on the DG hot loop: disabled vs enabled, min of 3
	// runs each. The acceptance bar is < 2%, but single-core noise can
	// exceed that on any one run, so the committed number is min-of-3 and
	// the hard assertion here is only a generous sanity bound.
	inst.Workers = 1
	dgOnce := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.BuildDominanceGraph(ipdg); err != nil {
				b.Fatal(err)
			}
		}
	}
	wasOn := obs.On()
	obs.Disable()
	off := minNs(3, dgOnce)
	obs.Enable()
	on := minNs(3, dgOnce)
	if !wasOn {
		obs.Disable()
	}
	entries["dg_build_obs/off"] = toEntry(off)
	entries["dg_build_obs/on"] = toEntry(on)
	overheadPct := 100 * (float64(on.NsPerOp()) - float64(off.NsPerOp())) / float64(off.NsPerOp())
	if overheadPct > 25 {
		t.Errorf("observability overhead %.1f%% is far over budget (want < 2%% nominal)", overheadPct)
	}

	// Request-tracing tax on the served-build path: the traced arm does
	// everything the mcserve middleware adds per request — trace mint,
	// context plumbing, the span tree, the trace-store admission —
	// around an otherwise identical uncached build. Budget is < 2%
	// nominal; as with the DG gate, the hard assertion is a generous
	// noise-tolerant bound and the committed number is min-of-3.
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 64})
	svc, err := NewIngestService(ServeOptions{
		Dim: 4, Eps: 0.1, Seed: 7, CheckpointInterval: -1, BuildCache: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Kill()
	if err := svc.Feed(pts[:500]...); err != nil {
		t.Fatal(err)
	}
	for {
		ss, err := svc.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if ss.N() == 500 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	traceOff := minNs(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Coreset(context.Background(), 0.2, Auto); err != nil {
				b.Fatal(err)
			}
		}
	})
	traceOn := minNs(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := obs.StartRequest("GET /v1/tenants/{id}/coreset", "")
			ctx := obs.WithRequest(context.Background(), rt)
			if _, err := svc.Coreset(ctx, 0.2, Auto); err != nil {
				b.Fatal(err)
			}
			rt.Root.End()
			store.Add(&obs.TraceRecord{
				ID: rt.ID, Tenant: "bench", Route: rt.Root.Name, Method: "GET", Status: 200,
				Start: rt.Root.Start, Duration: rt.Root.Duration,
				Anomalies: rt.Anomalies(), Trace: &obs.Trace{Root: rt.Root},
			})
		}
	})
	entries["serve_trace/off"] = toEntry(traceOff)
	entries["serve_trace/on"] = toEntry(traceOn)
	tracePct := 100 * (float64(traceOn.NsPerOp()) - float64(traceOff.NsPerOp())) / float64(traceOff.NsPerOp())
	if tracePct > 25 {
		t.Errorf("request-tracing overhead %.1f%% is far over budget (want < 2%% nominal)", tracePct)
	}

	snapshot := map[string]any{
		"go":             runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"workload":       map[string]any{"n": len(pts), "d": 4, "dataset": "normal", "seed": 7},
		"benchmarks":     entries,
		"obs_overhead":   map[string]any{"pct": overheadPct, "note": "min-of-3 ns/op, DG build, workers=1"},
		"trace_overhead": map[string]any{"pct": tracePct, "note": "min-of-3 ns/op, served uncached build, traced vs untraced"},
		"metrics":        obs.Default.Flatten(),
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
	t.Logf("wrote %s (obs overhead %.2f%%)", out, overheadPct)
}
