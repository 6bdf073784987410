package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mincore"
	"mincore/internal/geom"
	"mincore/internal/obs"
	"mincore/internal/stream"
	"mincore/perfbench/bench"
)

// tenantSeries names a per-tenant series of the serve workload's tenant;
// under a registry the unlabeled series of the same families stay 0.
func tenantSeries(name string) string {
	return name + `{tenant="` + bench.TenantID + `"}`
}

// traceServe runs the serve workload with hooks that measure the stream
// and serve layers from inside the load goroutines, diffs the tenant's
// series over the open loop, and replays every quiesced read's build on
// the champion set it was served from.
func traceServe(ctx context.Context, ladder []float64, w bench.Workload, seed int64, seconds float64, t *tally) error {
	r, err := bench.NewServe(ctx, ladder, w, seed, seconds)
	if err != nil {
		return err
	}
	defer r.Close()
	svc := r.Tenant.Service()

	var before, after map[string]float64
	var lags, merges []float64
	var lagErr, mergeErr error
	var prevKey string
	var compared, changed, ladderReads int
	var champs []mincore.Point
	hooks := bench.ServeHooks{
		LoopStart: func() { before = obs.Default.Flatten() },
		LoopEnd:   func() { after = obs.Default.Flatten() },
		// Apply lag: from the acknowledgement until StreamN shows the batch.
		AfterAck: func(acked int) {
			t0 := time.Now()
			for svc.StreamN() < acked {
				if time.Since(t0) > 10*time.Second {
					lagErr = fmt.Errorf("batch acknowledged at %d points never became visible", acked)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			lags = append(lags, bench.MS(time.Since(t0)))
		},
		// Summary merge time, and whether the champion set changed since
		// the previous read.
		BeforeRead: func() {
			t0 := time.Now()
			sum, err := svc.Summary()
			if err != nil {
				mergeErr = err
				return
			}
			merges = append(merges, bench.MS(time.Since(t0)))
			key := championKey(sum.Coreset())
			if prevKey != "" {
				compared++
				if key != prevKey {
					changed++
				}
			}
			prevKey = key
		},
		BeforeLadderRead: func(eps float64) {
			sum, err := svc.Summary()
			if err != nil {
				mergeErr = err
				champs = nil
				return
			}
			champs = sum.Coreset()
		},
		AfterLadderRead: func(eps float64, q *mincore.Coreset, took time.Duration) {
			label := fmt.Sprintf("%s quiesced read %d", w.Name, ladderReads)
			t.replaySession(ctx, label, champs, w.DataSeed, []float64{eps}, []*mincore.Coreset{q}, bench.MS(took))
			ladderReads++
			if ladderReads%len(ladder) == 0 {
				t.endPass()
			}
		},
	}
	r.Run(ctx, hooks)
	if len(t.pass) > 0 {
		t.endPass()
	}
	t.attempted += r.Attempted
	t.errs = append(t.errs, r.Errors...)
	for _, err := range []error{lagErr, mergeErr} {
		if err != nil {
			t.fail("%v", err)
		}
	}

	d := func(k string) float64 { return after[k] - before[k] }
	meanMS := func(hist string) float64 {
		n := d(tenantSeries(hist + "_count"))
		if n == 0 {
			return 0
		}
		return 1000 * d(tenantSeries(hist+"_sum")) / n
	}
	t.once["wal.append_ms"] = meanMS("mincore_wal_append_seconds")
	t.once["wal.fsync_ms"] = meanMS("mincore_wal_fsync_seconds")
	t.once["wal.fsyncs"] = d(tenantSeries("mincore_wal_fsyncs_total"))
	t.once["serve.build_ms"] = meanMS("mincore_serve_build_duration_seconds")
	t.once["scheduler.wait_ms"] = meanMS("mincore_sched_queue_wait_seconds")
	t.once["scheduler.shed"] = d(tenantSeries("mincore_serve_builds_shed_total"))
	t.once["snapshot.checkpoint_ms"] = meanMS("mincore_checkpoint_duration_seconds")
	t.once["snapshot.checkpoints"] = d(tenantSeries("mincore_checkpoint_saves_total"))
	cache := `{layer="serve",tenant="` + bench.TenantID + `"}`
	hits, misses := d("mincore_build_cache_hits_total"+cache), d("mincore_build_cache_misses_total"+cache)
	if hits+misses > 0 {
		t.once["cache.hit_ratio"] = hits / (hits + misses)
	}
	t.once["stream.apply_lag_p50_ms"] = bench.Quantile(lags, 0.50)
	t.once["stream.apply_lag_p99_ms"] = bench.Quantile(lags, 0.99)
	t.once["serve.merge_ms"] = bench.Median(merges)
	if compared > 0 {
		t.once["stream.champion_change_ratio"] = float64(changed) / float64(compared)
	}
	o := bench.Summarize(w, r)
	t.once["serve.ack_p50_ms"], t.once["serve.ack_p99_ms"] = o.AckP50, o.AckP99
	t.once["serve.read_p50_ms"], t.once["serve.read_p90_ms"] = o.ReadP50, o.ReadP90
	o.Print(os.Stdout, r)

	us, err := feedUSPerPoint(r)
	if err != nil {
		return err
	}
	t.once["stream.feed_us_per_point"] = us
	return nil
}

// feedUSPerPoint replays the open loop's points into a fresh summary
// sized like the tenant's, timing stream.Summary.Feed alone.
func feedUSPerPoint(r *bench.ServeRun) (float64, error) {
	cfg := r.Tenant.Config()
	alpha := cfg.Alpha
	if alpha <= 0 {
		alpha = 0.25 // the service's default for sketch sizing
	}
	dirs := cfg.Directions
	if dirs <= 0 {
		dirs = stream.SuggestDirections(cfg.Eps, alpha, cfg.Dim)
	}
	sum := stream.NewSummary(dirs, cfg.Dim, cfg.Seed)
	pts := r.LoopPoints()
	runtime.GC()
	t0 := time.Now()
	for _, p := range pts {
		if err := sum.Feed(geom.Vector(p)); err != nil {
			return 0, fmt.Errorf("stream replay: %w", err)
		}
	}
	return 1000 * bench.MS(time.Since(t0)) / math.Max(1, float64(len(pts))), nil
}

// championKey is an order-free identity of a champion set.
func championKey(pts []mincore.Point) string {
	keys := make([]string, len(pts))
	for i, p := range pts {
		var b strings.Builder
		for _, v := range p {
			b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
			b.WriteByte(',')
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
