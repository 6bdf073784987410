package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mincore"
)

// TenantID names the serve workload's one tenant.
const TenantID = "bench"

// ServeHooks let the traced runner observe the serve workload from inside
// it. Nil hooks cost nothing.
type ServeHooks struct {
	// LoopStart and LoopEnd bracket the open loop.
	LoopStart, LoopEnd func()
	// AfterAck runs on the feeder goroutine after each acknowledged batch,
	// with the number of points acknowledged so far.
	AfterAck func(acked int)
	// BeforeRead runs on the reader goroutine before each open-loop read.
	BeforeRead func()
	// BeforeLadderRead runs before each quiesced read, once the batch
	// before it is applied; AfterLadderRead gets the read's result.
	BeforeLadderRead func(eps float64)
	AfterLadderRead  func(eps float64, q *mincore.Coreset, took time.Duration)
}

// ServeRun is what one run of the serve workload measured. Open-loop
// latencies are taken from each request's due time, so a stall also
// charges the requests queued behind it.
type ServeRun struct {
	SetupS []float64
	// AckMS and ReadMS are per-request latencies; a failed request reads
	// +Inf, so it misses every latency limit.
	AckMS, ReadMS []float64
	// FeedLateMS and ReadLateMS are how late each request was sent.
	FeedLateMS, ReadLateMS []float64
	// BacklogPts samples acknowledged-but-unapplied points at every read.
	BacklogPts []float64
	ReadHits   int
	// LadderS holds, per EpsKey, the quiesced read times (one per round);
	// LadderPoints the Σ certified sizes over the ladder, per round.
	LadderS      map[string][]float64
	LadderPoints []float64
	Acked        int
	StreamN      int
	Attempted    int
	Failed       int
	Errors       []string

	Registry *mincore.TenantRegistry
	Tenant   *mincore.Tenant

	w            Workload
	ladder       []float64
	feeds, reads int
	pts          []mincore.Point // prefill, then the batches in feed order
	base, dir    string
}

// Close shuts the registry down and removes its on-disk state.
func (r *ServeRun) Close() {
	if r.Registry != nil {
		_ = r.Registry.Close() // the state is deleted next; a failed final checkpoint loses nothing
		r.Registry = nil
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir) // best effort: everything under .bench_build is disposable
		_ = os.Remove(r.base)   // only succeeds once the last run dir is gone
	}
}

// fail records n failed operations under one message.
func (r *ServeRun) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// serveSetup starts a registry with one WAL-backed tenant under dir and
// feeds it the prefill, returning once every point is applied.
func serveSetup(ctx context.Context, w Workload, dir string, prefill []mincore.Point) (*mincore.TenantRegistry, *mincore.Tenant, error) {
	reg, err := mincore.NewTenantRegistry(mincore.RegistryOptions{
		Dim:                w.D,
		Seed:               w.DataSeed,
		SnapshotDir:        dir,
		CheckpointInterval: time.Duration(w.CheckpointS * float64(time.Second)),
		BuildWorkers:       w.BuildWorkers,
		WAL:                &mincore.WALConfig{Sync: mincore.WALSyncEveryBatch},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("NewTenantRegistry: %w", err)
	}
	t, err := reg.CreateTenant(mincore.TenantConfig{ID: TenantID, Eps: w.SketchEps})
	if err != nil {
		reg.Close()
		return nil, nil, fmt.Errorf("CreateTenant: %w", err)
	}
	for i := 0; i < len(prefill); i += w.PrefillBatch {
		end := min(i+w.PrefillBatch, len(prefill))
		if err := t.FeedCtx(ctx, prefill[i:end]...); err != nil {
			reg.Close()
			return nil, nil, fmt.Errorf("prefill feed: %w", err)
		}
	}
	if err := waitApplied(t, len(prefill)); err != nil {
		reg.Close()
		return nil, nil, err
	}
	return reg, t, nil
}

// waitApplied polls until the tenant's stream position reaches n.
func waitApplied(t *mincore.Tenant, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for t.Service().StreamN() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("stream stuck at %d of %d acknowledged points", t.Service().StreamN(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// NewServe generates the run's stream (see Stream) and sets the tenant up
// SetupRepeats times, keeping the last set-up for Run. The caller must
// Close the result.
func NewServe(ctx context.Context, ladder []float64, w Workload, seed int64, seconds float64) (*ServeRun, error) {
	r := &ServeRun{
		w: w, ladder: ladder,
		feeds:   int(math.Ceil(seconds * w.FeedsPerSec)),
		reads:   int(math.Ceil(seconds * w.ReadsPerSec)),
		LadderS: map[string][]float64{},
	}
	tail := w.LadderRounds * len(ladder)
	r.pts = Stream(w.Prefill+r.feeds*w.BatchPoints, tail*w.BatchPoints, w.D, w.DataSeed, seed)
	r.base = filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	for k := 0; k < w.SetupRepeats; k++ {
		r.Close()
		r.dir = filepath.Join(r.base, fmt.Sprint(k))
		runtime.GC()
		t0 := time.Now()
		reg, t, err := serveSetup(ctx, w, r.dir, r.pts[:w.Prefill])
		if err != nil {
			r.Close()
			return nil, err
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		r.Registry, r.Tenant = reg, t
	}
	return r, nil
}

// batch returns the i-th batch after the prefill.
func (r *ServeRun) batch(i int) []mincore.Point {
	lo := r.w.Prefill + i*r.w.BatchPoints
	return r.pts[lo : lo+r.w.BatchPoints]
}

// LoopPoints returns the points the open loop feeds, in order.
func (r *ServeRun) LoopPoints() []mincore.Point {
	return r.pts[r.w.Prefill : r.w.Prefill+r.feeds*r.w.BatchPoints]
}

// Run drives the open loop for the run length, then reads the whole
// ladder on the quiesced stream LadderRounds times, each read right after
// one more acknowledged batch of already-seen points, and checks that
// every acknowledged point reached the stream.
func (r *ServeRun) Run(ctx context.Context, hooks ServeHooks) {
	w, ladder, feeds := r.w, r.ladder, r.feeds
	var acked atomic.Int64
	acked.Store(int64(w.Prefill))
	r.openLoop(ctx, &acked, hooks)
	r.Attempted = feeds + r.reads

	for round := 0; round < w.LadderRounds; round++ {
		size := 0
		for k, eps := range ladder {
			r.Attempted++
			b := r.batch(feeds + round*len(ladder) + k)
			if err := r.Tenant.FeedCtx(ctx, b...); err != nil {
				r.fail(1, "quiesced feed: %v", err)
				continue
			}
			n := int(acked.Add(int64(len(b))))
			if err := waitApplied(r.Tenant, n); err != nil {
				r.fail(1, "%v", err)
				continue
			}
			if hooks.BeforeLadderRead != nil {
				hooks.BeforeLadderRead(eps)
			}
			r.Attempted++
			runtime.GC()
			t1 := time.Now()
			q, err := r.Tenant.Coreset(ctx, eps, mincore.Auto)
			el := time.Since(t1)
			if err == nil {
				err = checkServed(q)
			}
			if err != nil {
				r.fail(1, "quiesced read ε=%g: %v", eps, err)
				continue
			}
			if hooks.AfterLadderRead != nil {
				hooks.AfterLadderRead(eps, q, el)
			}
			r.LadderS[EpsKey(eps)] = append(r.LadderS[EpsKey(eps)], el.Seconds())
			size += q.Size()
		}
		r.LadderPoints = append(r.LadderPoints, float64(size))
	}
	r.Acked = int(acked.Load())
	r.StreamN = r.Tenant.Service().StreamN()
	if r.StreamN != r.Acked {
		r.fail(1, "StreamN %d != %d points acknowledged", r.StreamN, r.Acked)
	}
}

// openLoop runs one feeder and one reader goroutine on fixed schedules
// that do not slow down when the service does, and waits for both.
func (r *ServeRun) openLoop(ctx context.Context, acked *atomic.Int64, hooks ServeHooks) {
	w, feeds, reads := r.w, r.feeds, r.reads
	feedPeriod := time.Duration(float64(time.Second) / w.FeedsPerSec)
	readPeriod := time.Duration(float64(time.Second) / w.ReadsPerSec)
	var feedFails, readFails int
	if hooks.LoopStart != nil {
		hooks.LoopStart()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < feeds; i++ {
			due := t0.Add(time.Duration(i) * feedPeriod)
			time.Sleep(time.Until(due))
			sent := time.Now()
			b := r.batch(i)
			err := r.Tenant.FeedCtx(ctx, b...)
			done := time.Now()
			r.FeedLateMS = append(r.FeedLateMS, MS(sent.Sub(due)))
			if err != nil {
				feedFails++
				r.AckMS = append(r.AckMS, math.Inf(1))
				continue
			}
			r.AckMS = append(r.AckMS, MS(done.Sub(due)))
			n := acked.Add(int64(len(b)))
			if hooks.AfterAck != nil {
				hooks.AfterAck(int(n))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < reads; j++ {
			due := t0.Add(time.Duration(j) * readPeriod)
			time.Sleep(time.Until(due))
			if hooks.BeforeRead != nil {
				hooks.BeforeRead()
			}
			sent := time.Now()
			r.BacklogPts = append(r.BacklogPts, float64(acked.Load())-float64(r.Tenant.Service().StreamN()))
			rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			q, err := r.Tenant.Coreset(rctx, w.ReadEps, mincore.Auto)
			cancel()
			done := time.Now()
			r.ReadLateMS = append(r.ReadLateMS, MS(sent.Sub(due)))
			if err == nil {
				err = checkServed(q)
			}
			if err != nil {
				readFails++
				r.ReadMS = append(r.ReadMS, math.Inf(1))
				continue
			}
			if q.Report.CacheHit {
				r.ReadHits++
			}
			r.ReadMS = append(r.ReadMS, MS(done.Sub(due)))
		}
	}()
	wg.Wait()
	if hooks.LoopEnd != nil {
		hooks.LoopEnd()
	}
	if feedFails > 0 {
		r.fail(feedFails, "%d of %d feeds failed", feedFails, feeds)
	}
	if readFails > 0 {
		r.fail(readFails, "%d of %d reads failed, uncertified or stale", readFails, reads)
	}
}

// checkServed verifies a served read: certified and not a stale fallback.
func checkServed(q *mincore.Coreset) error {
	switch {
	case q == nil || q.Report == nil:
		return fmt.Errorf("served read has no report")
	case !q.Report.Certified:
		return fmt.Errorf("served read not certified")
	case q.Report.Stale:
		return fmt.Errorf("served read is stale")
	}
	return nil
}
