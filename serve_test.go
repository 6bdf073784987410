package mincore

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"mincore/internal/faultinject"
)

// servePoints generates a deterministic fat 2D ring-ish stream.
func servePoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		th := rng.Float64() * 2 * math.Pi
		r := 0.5 + 0.5*rng.Float64()
		pts[i] = Point{r * math.Cos(th), r * math.Sin(th)}
	}
	return pts
}

func newTestService(t *testing.T, opts ServeOptions) *IngestService {
	t.Helper()
	if opts.Dim == 0 {
		opts.Dim = 2
	}
	if opts.CheckpointInterval == 0 {
		opts.CheckpointInterval = -1 // manual checkpoints unless a test opts in
	}
	svc, err := NewIngestService(opts)
	if err != nil {
		t.Fatalf("NewIngestService: %v", err)
	}
	return svc
}

// drain waits until every fed point has been applied to a shard.
func drain(t *testing.T, svc *IngestService, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Ingested < want {
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled: %d/%d points applied", svc.Stats().Ingested, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeIngestAndCoreset(t *testing.T) {
	svc := newTestService(t, ServeOptions{IngestWorkers: 3, Seed: 5})
	defer svc.Kill()

	pts := servePoints(2000, 9)
	for i := 0; i < len(pts); i += 100 {
		if err := svc.Feed(pts[i : i+100]...); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	drain(t, svc, 2000)

	q, err := svc.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("Coreset: %v", err)
	}
	if q.Size() == 0 || !q.Report.Certified {
		t.Fatalf("served coreset size=%d certified=%v", q.Size(), q.Report.Certified)
	}
	meta := q.Report.Checkpoint
	if meta == nil {
		t.Fatal("served report has no checkpoint metadata")
	}
	if meta.StreamN != 2000 || meta.Generation != 0 || meta.RestoredN != 0 {
		t.Fatalf("checkpoint meta = %+v, want StreamN=2000 Generation=0 RestoredN=0", meta)
	}
}

func TestServeFeedValidation(t *testing.T) {
	svc := newTestService(t, ServeOptions{})
	defer svc.Kill()

	for _, bad := range []Point{
		{math.NaN(), 0}, {0, math.Inf(1)}, {1, 2, 3}, {1},
	} {
		if err := svc.Feed(bad); !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("Feed(%v): err = %v, want ErrInvalidPoint", bad, err)
		}
	}
	// A batch with one bad point is rejected whole.
	if err := svc.Feed(Point{0, 0}, Point{math.NaN(), 1}); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("mixed batch: err = %v, want ErrInvalidPoint", err)
	}
	if got := svc.Stats().Ingested; got != 0 {
		t.Fatalf("invalid input was ingested: %d points", got)
	}
}

func TestServeWorkerPanicIsolation(t *testing.T) {
	svc := newTestService(t, ServeOptions{IngestWorkers: 2})
	defer svc.Kill()
	svc.panicHook = func(p []float64) {
		if p[0] == 666 {
			panic("poison point")
		}
	}

	if err := svc.Feed(Point{1, 0}, Point{666, 0}, Point{0, 1}); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats()
		if st.WorkerPanics > 0 && st.LastError != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker panic never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	st := svc.Stats()
	if !errors.Is(st.LastError, ErrWorkerPanic) {
		t.Fatalf("LastError = %v, want ErrWorkerPanic", st.LastError)
	}
	var pe *WorkerPanicError
	if !errors.As(st.LastError, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("LastError %T lacks panic detail", st.LastError)
	}

	// Degraded but alive: the service keeps ingesting and serving.
	svc.panicHook = nil
	pre := svc.Stats().Ingested
	if err := svc.Feed(servePoints(500, 4)...); err != nil {
		t.Fatalf("Feed after panic: %v", err)
	}
	drain(t, svc, pre+500)
	if _, err := svc.Coreset(context.Background(), 0.2, Auto); err != nil {
		t.Fatalf("Coreset after panic: %v", err)
	}
}

// waitPending waits until tenant has a build request queued in b.
func waitPending(t *testing.T, b *buildScheduler, tenant string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.stats().Pending[tenant] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("build request never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

// parkBuildRequest queues one build request for tenant in b, so with a
// queue bound of 1 the tenant's next request sheds. The returned func
// withdraws the parked request.
func parkBuildRequest(t *testing.T, b *buildScheduler, tenant string) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, g, err := b.acquire(ctx, tenant, 1); err == nil {
			g.release()
		}
	}()
	waitPending(t, b, tenant)
	return func() { cancel(); <-done }
}

func TestServeAdmissionControl(t *testing.T) {
	sched := newBuildScheduler(1, 1, 0, nil)
	svc := newTestService(t, ServeOptions{sched: sched})
	defer svc.Kill()
	if err := svc.Feed(servePoints(200, 3)...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, 200)

	// Occupy the only build slot and the only queue place, then demand
	// another build.
	_, g, err := sched.acquire(context.Background(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	unpark := parkBuildRequest(t, sched, "")
	_, err = svc.Coreset(context.Background(), 0.1, Auto)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated builds: err = %v, want ErrOverloaded", err)
	}
	if svc.Stats().BuildsShed != 1 {
		t.Fatalf("BuildsShed = %d, want 1", svc.Stats().BuildsShed)
	}
	unpark()
	g.release()
	if _, err := svc.Coreset(context.Background(), 0.1, Auto); err != nil {
		t.Fatalf("Coreset after slot freed: %v", err)
	}
}

// TestServeStandaloneBuildsQueue: a standalone service's private
// scheduler queues builds past MaxInflightBuilds instead of shedding
// them, and Close or Kill fails the queued requests with
// ErrServiceClosed.
func TestServeStandaloneBuildsQueue(t *testing.T) {
	for _, stop := range []struct {
		name string
		f    func(*IngestService)
	}{
		{"close", func(s *IngestService) { s.Close() }},
		{"kill", (*IngestService).Kill},
	} {
		t.Run(stop.name, func(t *testing.T) {
			svc := newTestService(t, ServeOptions{MaxInflightBuilds: 1, BuildCache: -1})
			defer svc.Kill()
			if err := svc.Feed(servePoints(200, 3)...); err != nil {
				t.Fatal(err)
			}
			drain(t, svc, 200)

			entered := make(chan struct{})
			unblock := make(chan struct{})
			svc.buildHook = func(context.Context) { close(entered); <-unblock }
			running := make(chan error, 1)
			go func() {
				_, err := svc.Coreset(context.Background(), 0.1, Auto)
				running <- err
			}()
			<-entered
			svc.buildHook = nil

			queued := make(chan error, 1)
			go func() {
				_, err := svc.Coreset(context.Background(), 0.1, Auto)
				queued <- err
			}()
			waitPending(t, svc.opts.sched, "")
			if st := svc.Stats(); st.BuildsShed != 0 {
				t.Fatalf("BuildsShed = %d with a free queue place, want 0", st.BuildsShed)
			}

			stop.f(svc)
			select {
			case err := <-queued:
				if !errors.Is(err, ErrServiceClosed) {
					t.Errorf("queued build after %s: err = %v, want ErrServiceClosed", stop.name, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("queued build still waiting after %s", stop.name)
			}
			close(unblock)
			if err := <-running; err != nil {
				t.Fatalf("running build: %v", err)
			}
		})
	}
}

// TestServeRejectsInvalidBuildRequests: an (ε, algorithm) pair CoresetCtx
// rejects fails before the serve cache or the scheduler sees it — no
// slot, no build, nothing counted.
func TestServeRejectsInvalidBuildRequests(t *testing.T) {
	svc := newTestService(t, ServeOptions{Seed: 3})
	defer svc.Kill()
	if err := svc.Feed(servePoints(200, 3)...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, 200)

	for _, tc := range []struct {
		name string
		eps  float64
		algo Algorithm
		want error
	}{
		{"nan", math.NaN(), Auto, nil},
		{"nan dsmc", math.NaN(), DSMC, nil},
		{"eps above 1", 1.5, DSMC, nil},
		{"negative eps", -0.2, SCMC, nil},
		{"unknown algorithm", 0.1, Algorithm("bogus"), ErrUnknownAlgorithm},
	} {
		_, err := svc.Coreset(context.Background(), tc.eps, tc.algo)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want a request error", tc.name, err)
		}
	}
	st := svc.Stats()
	if st.Builds != 0 || st.BuildsShed != 0 || st.CacheMisses != 0 {
		t.Fatalf("invalid requests reached admission: builds=%d shed=%d misses=%d",
			st.Builds, st.BuildsShed, st.CacheMisses)
	}
	if g := svc.opts.sched.stats().Grants; g != 0 {
		t.Fatalf("invalid requests took %d scheduler slots", g)
	}
}

func TestServeQueueBackpressure(t *testing.T) {
	svc := newTestService(t, ServeOptions{IngestWorkers: 1, QueueSize: 2})
	block := make(chan struct{})
	// Cleanups run LIFO: unblock the worker before Kill waits for it.
	t.Cleanup(svc.Kill)
	t.Cleanup(func() { close(block) })
	svc.panicHook = func(p []float64) { <-block }

	// The first dequeued batch parks the worker in the hook; subsequent
	// feeds fill the bounded queue until the service sheds.
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		err = svc.Feed(Point{float64(i), 0})
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("Feed #%d: %v", i, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	if svc.Stats().Rejected == 0 {
		t.Fatal("Rejected counter not incremented")
	}
}

func TestServeDeadlinePropagation(t *testing.T) {
	svc := newTestService(t, ServeOptions{})
	defer svc.Kill()
	if err := svc.Feed(servePoints(300, 8)...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, 300)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Coreset(ctx, 0.05, Auto); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	ctx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := svc.Coreset(ctx, 0.05, Auto); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestServeCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.snap")
	pts := servePoints(1500, 17)

	svc := newTestService(t, ServeOptions{SnapshotPath: path, Seed: 2, IngestWorkers: 2})
	if err := svc.Feed(pts[:1000]...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, 1000)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("second Close: err = %v, want ErrServiceClosed", err)
	}
	if err := svc.Feed(Point{0, 0}); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Feed after Close: err = %v, want ErrServiceClosed", err)
	}

	// Restart: recover, then replay the tail from the reported offset.
	svc2 := newTestService(t, ServeOptions{SnapshotPath: path, Seed: 2, IngestWorkers: 2})
	defer svc2.Kill()
	if got := svc2.RestoredPoints(); got != 1000 {
		t.Fatalf("RestoredPoints = %d, want 1000", got)
	}
	if err := svc2.Feed(pts[svc2.RestoredPoints():]...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc2, 500)
	if got := svc2.StreamN(); got != 1500 {
		t.Fatalf("StreamN = %d, want 1500", got)
	}

	// The recovered+replayed summary must match one built in a single
	// pass over the whole stream.
	want := NewStreamSummary(2, 0.05, 0.25, 2)
	for _, p := range pts {
		want.Add(p)
	}
	got, err := svc2.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.Size() != want.Size() {
		t.Fatalf("recovered summary n=%d size=%d, single-pass n=%d size=%d",
			got.N(), got.Size(), want.N(), want.Size())
	}
	q, err := svc2.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("Coreset after restore: %v", err)
	}
	if q.Report.Checkpoint.RestoredN != 1000 || q.Report.Checkpoint.Generation == 0 {
		t.Fatalf("checkpoint meta after restore = %+v", q.Report.Checkpoint)
	}
}

func TestServeSnapshotIncompatible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.snap")
	svc := newTestService(t, ServeOptions{Dim: 3, Seed: 1, SnapshotPath: path})
	if err := svc.Feed(Point{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, 1)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Different seed → different direction net → must be refused.
	_, err := NewIngestService(ServeOptions{Dim: 3, Seed: 99, SnapshotPath: path,
		CheckpointInterval: -1})
	if !errors.Is(err, ErrSnapshotIncompatible) {
		t.Fatalf("mismatched snapshot: err = %v, want ErrSnapshotIncompatible", err)
	}
}

func TestServeCheckpointBackoffOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, ServeOptions{SnapshotPath: filepath.Join(dir, "s.snap")})
	defer svc.Kill()
	if err := svc.Feed(servePoints(50, 1)...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, 50)

	faultinject.Enable(faultinject.Config{Seed: 1, Rate: 1,
		Sites: []faultinject.Site{faultinject.SiteSnapshotFsync}})
	for i := 0; i < 3; i++ {
		if err := svc.Checkpoint(); err == nil {
			t.Fatal("Checkpoint succeeded under injected fsync fault")
		}
	}
	if got := svc.Stats().CheckpointFailures; got != 3 {
		t.Fatalf("CheckpointFailures = %d, want 3", got)
	}
	faultinject.Disable()

	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after fault cleared: %v", err)
	}
	st := svc.Stats()
	if st.CheckpointFailures != 0 || st.CheckpointGeneration != 1 || st.CheckpointPoints != 50 {
		t.Fatalf("post-recovery stats = %+v", st)
	}
}

func TestServePeriodicCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, ServeOptions{
		SnapshotPath:       filepath.Join(dir, "s.snap"),
		CheckpointInterval: 5 * time.Millisecond,
	})
	defer svc.Kill()
	if err := svc.Feed(servePoints(20, 2)...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().CheckpointGeneration == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint loop never wrote a generation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeRequiresDim(t *testing.T) {
	if _, err := NewIngestService(ServeOptions{}); err == nil {
		t.Fatal("NewIngestService without Dim succeeded")
	}
}

// TestServeQuotaNotChargedOnShed: quota tokens are only consumed for
// batches actually admitted to the queue — a batch shed with
// ErrOverloaded refunds its tokens, so an overloaded service reports
// ErrOverloaded (back off and retry) rather than draining the bucket
// and flipping to ErrQuotaExceeded for points that were never ingested.
func TestServeQuotaNotChargedOnShed(t *testing.T) {
	frozen := time.Unix(1000, 0)
	svc := newTestService(t, ServeOptions{
		IngestWorkers:     1,
		QueueSize:         1,
		QuotaPointsPerSec: 1,
		QuotaBurst:        8,
		clock:             func() time.Time { return frozen }, // no refill
	})
	block := make(chan struct{})
	t.Cleanup(svc.Kill)
	t.Cleanup(func() { close(block) })
	svc.panicHook = func(p []float64) { <-block }

	// Park the worker on the first batch and fill the bounded queue.
	accepted := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := svc.Feed(Point{float64(accepted), 0})
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("Feed #%d: %v", accepted, err)
		}
		accepted++
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}

	tokens := func() float64 {
		svc.quota.mu.Lock()
		defer svc.quota.mu.Unlock()
		return svc.quota.tokens
	}
	want := float64(8 - accepted)
	if got := tokens(); got != want {
		t.Fatalf("tokens after filling queue = %v, want %v (accepted %d)", got, want, accepted)
	}
	// Every further shed must report ErrOverloaded — never
	// ErrQuotaExceeded — and leave the bucket untouched.
	for i := 0; i < 3; i++ {
		if err := svc.Feed(Point{0, 0}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed Feed #%d = %v, want ErrOverloaded", i, err)
		}
	}
	if got := tokens(); got != want {
		t.Errorf("tokens drained by shed batches: %v, want %v", got, want)
	}
	if st := svc.Stats(); st.QuotaShed != 0 {
		t.Errorf("QuotaShed = %d for overload sheds, want 0", st.QuotaShed)
	}
}
