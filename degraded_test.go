package mincore

// Degraded-mode serving tests: the build watchdog (deterministic via an
// injected clock — no sleeps, the test drives sweep() itself), the
// stale-coreset fallback and its policy bounds, and the checkpoint-
// failure degraded state surfaced by registry Health.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for the watchdog and stale
// tests. Injecting it into the scheduler disables the background
// sweeper, so time only moves when the test says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestSchedulerWatchdogReclaimsHungSlot: a grant held past the budget is
// killed by sweep() — its context dies with cause ErrWatchdogKilled, the
// slot goes to the next queued request, the kill is counted, and the
// hung holder's own late release is a no-op (the slot is never returned
// twice).
func TestSchedulerWatchdogReclaimsHungSlot(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBuildScheduler(1, 8, time.Second, clk.now)
	ctx, hung, err := b.acquire(context.Background(), "hung", 1)
	if err != nil {
		t.Fatalf("hung acquire: %v", err)
	}

	granted := make(chan string)
	release := make(chan struct{})
	errs := make(chan error, 1)
	enqueueBuild(b, "next", 1, granted, release, errs)
	waitSched(t, func() bool { return b.stats().Pending["next"] == 1 })

	// Just inside the budget nothing happens.
	clk.advance(time.Second)
	b.sweep()
	if st := b.stats(); st.WatchdogKills != 0 || st.Inflight != 1 {
		t.Fatalf("sweep inside budget killed: %+v", st)
	}

	// Past it the slot is reclaimed and handed to the waiter.
	clk.advance(time.Millisecond)
	b.sweep()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("hung grant's context still alive after watchdog kill")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrWatchdogKilled) {
		t.Fatalf("cancellation cause = %v, want ErrWatchdogKilled", cause)
	}
	if id := <-granted; id != "next" {
		t.Fatalf("reclaimed slot granted to %q, want next", id)
	}
	release <- struct{}{}
	waitSched(t, func() bool { return b.stats().Inflight == 0 })

	// The killed holder releasing late must not double-return the slot.
	hung.release()
	st := b.stats()
	if st.WatchdogKills != 1 || st.Inflight != 0 || st.Grants != 2 {
		t.Fatalf("after late release: %+v", st)
	}
	mustAcquire(t, b, "fresh", 1).release()
	if st := b.stats(); st.Inflight != 0 || st.Grants != 3 {
		t.Fatalf("slot accounting broken after kill: %+v", st)
	}
}

// TestSchedulerWatchdogSweepsOnAcquire: even with no background sweeper
// (injected clock) a fleet wedged at capacity self-heals on the next
// acquire — the inline sweep reclaims the expired slot before the new
// request queues, so it is granted synchronously.
func TestSchedulerWatchdogSweepsOnAcquire(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	b := newBuildScheduler(1, 8, time.Second, clk.now)
	ctx, _, err := b.acquire(context.Background(), "hung", 1)
	if err != nil {
		t.Fatalf("hung acquire: %v", err)
	}
	clk.advance(2 * time.Second)

	// No explicit sweep: acquire itself must reclaim and grant.
	g := mustAcquire(t, b, "next", 1)
	if !errors.Is(context.Cause(ctx), ErrWatchdogKilled) {
		t.Fatalf("hung context cause = %v, want ErrWatchdogKilled", context.Cause(ctx))
	}
	g.release()
	if st := b.stats(); st.WatchdogKills != 1 || st.Inflight != 0 {
		t.Fatalf("after inline sweep: %+v", st)
	}
}

// TestStaleFallbackOnOverload: with a StaleServePolicy, a request shed by
// admission control is answered from the retained last-good certified
// build — explicitly marked stale with full provenance — instead of
// failing with ErrOverloaded. Overload is one hung build holding the
// only slot plus one parked request filling the one-deep queue.
func TestStaleFallbackOnOverload(t *testing.T) {
	sched := newBuildScheduler(1, 1, 0, nil)
	svc := newTestService(t, ServeOptions{
		Seed: 3, BuildCache: -1, sched: sched,
		StaleServe: WithStaleServe(0, 0), // unbounded
	})
	defer svc.Kill()

	pts := servePoints(700, 11)
	if err := svc.Feed(pts[:600]...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, svc, 600)
	q, err := svc.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("fresh Coreset: %v", err)
	}
	if !q.Report.Certified || q.Report.Stale {
		t.Fatalf("fresh build certified=%v stale=%v", q.Report.Certified, q.Report.Stale)
	}

	// Advance the stream so the fallback is visibly behind.
	if err := svc.Feed(pts[600:]...); err != nil {
		t.Fatalf("Feed tail: %v", err)
	}
	drain(t, svc, 700)

	// Occupy the single build slot with a hung build.
	entered := make(chan struct{})
	unblock := make(chan struct{})
	svc.buildHook = func(context.Context) { close(entered); <-unblock }
	done := make(chan error, 1)
	go func() {
		_, err := svc.Coreset(context.Background(), 0.1, Auto)
		done <- err
	}()
	<-entered
	unpark := parkBuildRequest(t, sched, "")

	sq, err := svc.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("overloaded Coreset with stale fallback: %v", err)
	}
	rep := sq.Report
	if rep == nil || !rep.Stale || rep.Staleness == nil {
		t.Fatalf("fallback result not marked stale: %+v", rep)
	}
	sm := rep.Staleness
	if sm.Reason != "overloaded" {
		t.Errorf("staleness reason = %q, want overloaded", sm.Reason)
	}
	if sm.StreamN != 600 || sm.PointsBehind != 100 {
		t.Errorf("staleness position: stream_n=%d behind=%d, want 600/100", sm.StreamN, sm.PointsBehind)
	}
	if rep.Checkpoint == nil || rep.Checkpoint.StreamN != 600 {
		t.Errorf("stale provenance = %+v, want StreamN 600", rep.Checkpoint)
	}
	if got := svc.Stats().StaleServed; got != 1 {
		t.Errorf("StaleServed = %d, want 1", got)
	}
	// Same points as the retained build: the fallback is the last good
	// answer, not a new one.
	if len(sq.Points) != len(q.Points) {
		t.Errorf("stale coreset size %d != retained %d", len(sq.Points), len(q.Points))
	}

	unpark()
	close(unblock)
	if err := <-done; err != nil {
		t.Fatalf("hung build after unblock: %v", err)
	}
}

// TestStaleFallbackBounds: the policy's MaxAge and MaxPointsBehind are
// hard bounds — outside them the original error surfaces, never a stale
// answer.
func TestStaleFallbackBounds(t *testing.T) {
	t.Run("max_age", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(3000, 0)}
		sched := newBuildScheduler(1, 1, 0, nil)
		svc := newTestService(t, ServeOptions{
			Seed: 5, BuildCache: -1, sched: sched,
			StaleServe: WithStaleServe(time.Minute, 0),
			clock:      clk.now,
		})
		defer svc.Kill()
		pts := servePoints(400, 13)
		if err := svc.Feed(pts...); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		drain(t, svc, 400)
		if _, err := svc.Coreset(context.Background(), 0.1, Auto); err != nil {
			t.Fatalf("fresh Coreset: %v", err)
		}

		entered := make(chan struct{})
		unblock := make(chan struct{})
		svc.buildHook = func(context.Context) { close(entered); <-unblock }
		done := make(chan error, 1)
		go func() {
			_, err := svc.Coreset(context.Background(), 0.1, Auto)
			done <- err
		}()
		<-entered
		defer func() { close(unblock); <-done }()
		defer parkBuildRequest(t, sched, "")()

		clk.advance(30 * time.Second) // within MaxAge: stale serves
		sq, err := svc.Coreset(context.Background(), 0.1, Auto)
		if err != nil || !sq.Report.Stale {
			t.Fatalf("within MaxAge: err=%v stale=%v", err, sq != nil && sq.Report.Stale)
		}
		if got := sq.Report.Staleness.Age; got != 30*time.Second {
			t.Errorf("staleness age = %v, want 30s", got)
		}

		clk.advance(time.Minute) // past MaxAge: the real error surfaces
		if _, err := svc.Coreset(context.Background(), 0.1, Auto); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("past MaxAge: err = %v, want ErrOverloaded", err)
		}
		if got := svc.Stats().StaleServed; got != 1 {
			t.Errorf("StaleServed = %d, want 1", got)
		}
	})

	t.Run("max_points_behind", func(t *testing.T) {
		sched := newBuildScheduler(1, 1, 0, nil)
		svc := newTestService(t, ServeOptions{
			Seed: 7, BuildCache: -1, sched: sched,
			StaleServe: WithStaleServe(0, 50),
		})
		defer svc.Kill()
		pts := servePoints(500, 17)
		if err := svc.Feed(pts[:400]...); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		drain(t, svc, 400)
		if _, err := svc.Coreset(context.Background(), 0.1, Auto); err != nil {
			t.Fatalf("fresh Coreset: %v", err)
		}
		if err := svc.Feed(pts[400:]...); err != nil { // 100 > the 50-point bound
			t.Fatalf("Feed tail: %v", err)
		}
		drain(t, svc, 500)

		entered := make(chan struct{})
		unblock := make(chan struct{})
		svc.buildHook = func(context.Context) { close(entered); <-unblock }
		done := make(chan error, 1)
		go func() {
			_, err := svc.Coreset(context.Background(), 0.1, Auto)
			done <- err
		}()
		<-entered
		defer func() { close(unblock); <-done }()
		defer parkBuildRequest(t, sched, "")()

		if _, err := svc.Coreset(context.Background(), 0.1, Auto); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("past MaxPointsBehind: err = %v, want ErrOverloaded", err)
		}
		if got := svc.Stats().StaleServed; got != 0 {
			t.Errorf("StaleServed = %d, want 0", got)
		}
	})
}

// TestStaleFallbackKeepsNewestBuild: when overlapping builds of one
// (ε, algorithm) finish out of order, the stored fallback keeps the
// build of the later stream position. The first build is held after it
// copied the champions at 600 points, and a second build at 700 points
// completes before the first is released.
func TestStaleFallbackKeepsNewestBuild(t *testing.T) {
	svc := newTestService(t, ServeOptions{
		Seed: 3, BuildCache: -1, MaxInflightBuilds: 2,
		StaleServe: WithStaleServe(0, 0),
	})
	defer svc.Kill()
	pts := servePoints(700, 11)
	if err := svc.Feed(pts[:600]...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, svc, 600)

	entered := make(chan struct{})
	unblock := make(chan struct{})
	svc.buildHook = func(context.Context) { close(entered); <-unblock }
	first := make(chan error, 1)
	go func() {
		_, err := svc.Coreset(context.Background(), 0.1, Auto)
		first <- err
	}()
	<-entered
	svc.buildHook = nil

	if err := svc.Feed(pts[600:]...); err != nil {
		t.Fatalf("Feed tail: %v", err)
	}
	drain(t, svc, 700)
	q, err := svc.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	if got := q.Report.Checkpoint.StreamN; got != 700 {
		t.Fatalf("second build at stream position %d, want 700", got)
	}
	close(unblock)
	if err := <-first; err != nil {
		t.Fatalf("first build: %v", err)
	}
	_, st, ok := svc.served.latest(buildKey{algo: Auto, qeps: quantizeEps(0.1)})
	if !ok || st.streamN != 700 {
		t.Fatalf("stored fallback at stream position %d (stored %v), want 700", st.streamN, ok)
	}
}

// TestStaleFallbackStoreBounded: the fallback reads the serve cache's
// entries, so client-chosen ε values cannot grow the stored builds past
// its capacity. Reads at 40 distinct ε keep 32 builds at the default
// capacity and count the 8 dropped as serve-layer evictions. When the
// fresh builds are then shed, the most recent ε still falls back, and
// the evicted oldest one returns the original error.
func TestStaleFallbackStoreBounded(t *testing.T) {
	sched := newBuildScheduler(1, 1, 0, nil)
	svc := newTestService(t, ServeOptions{
		Seed: 5, sched: sched,
		StaleServe: WithStaleServe(0, 0),
	})
	defer svc.Kill()
	pts := servePoints(400, 13)
	if err := svc.Feed(pts...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, svc, 400)

	const reads = 40
	eps := func(i int) float64 { return 0.05 + 0.005*float64(i) }
	evBefore := svc.met.cache.evictions.Value()
	for i := 0; i < reads; i++ {
		if _, err := svc.Coreset(context.Background(), eps(i), Auto); err != nil {
			t.Fatalf("Coreset(ε=%g): %v", eps(i), err)
		}
	}
	if n := svc.served.len(); n != defaultServeCacheSize {
		t.Fatalf("%d distinct ε stored %d builds, want the capacity %d", reads, n, defaultServeCacheSize)
	}
	if d := svc.met.cache.evictions.Value() - evBefore; d != reads-defaultServeCacheSize {
		t.Fatalf("serve-layer evictions rose by %d, want %d", d, reads-defaultServeCacheSize)
	}

	// A point beyond every champion moves the version, so the next reads
	// need a build slot, and a held slot plus a parked request shed them.
	if err := svc.Feed(Point{3, 3}); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, svc, 401)
	_, g, err := sched.acquire(context.Background(), "", 1)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer g.release()
	defer parkBuildRequest(t, sched, "")()

	sq, err := svc.Coreset(context.Background(), eps(reads-1), Auto)
	if err != nil || !sq.Report.Stale {
		t.Fatalf("most recent ε shed: err=%v stale=%v", err, sq != nil && sq.Report.Stale)
	}
	if sm := sq.Report.Staleness; sm.StreamN != 400 || sm.PointsBehind != 1 {
		t.Errorf("staleness position: stream_n=%d behind=%d, want 400/1", sm.StreamN, sm.PointsBehind)
	}
	if _, err := svc.Coreset(context.Background(), eps(0), Auto); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("evicted ε shed: err = %v, want ErrOverloaded", err)
	}
	if got := svc.Stats().StaleServed; got != 1 {
		t.Errorf("StaleServed = %d, want 1", got)
	}
}

// TestWatchdogKillAnsweredStale is the end-to-end degraded-mode path of
// the issue's acceptance criteria: a hung build under a registry with a
// build watchdog is killed deterministically (fake clock + manual
// sweep), its slot is reclaimed, and the request is answered by the
// stale fallback with Report.Stale set and exact staleness metadata.
func TestWatchdogKillAnsweredStale(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	reg, err := NewTenantRegistry(RegistryOptions{
		Dim: 2, Seed: 9, CheckpointInterval: -1,
		MaxInflightBuilds: 1,
		BuildBudget:       time.Second,
		StaleServe:        WithStaleServe(0, 0),
		clock:             clk.now,
	})
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	defer reg.Close()
	tnt, err := reg.CreateTenant(TenantConfig{ID: "acme"})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}

	pts := servePoints(680, 19)
	if err := tnt.Feed(pts[:600]...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tnt.Service(), 600)
	q, err := tnt.Coreset(context.Background(), 0.1, Auto)
	if err != nil || !q.Report.Certified {
		t.Fatalf("fresh build: err=%v certified=%v", err, q != nil && q.Report.Certified)
	}
	if err := tnt.Feed(pts[600:]...); err != nil {
		t.Fatalf("Feed tail: %v", err)
	}
	drain(t, tnt.Service(), 680)

	// Hang the next build until the watchdog cancels its context.
	svc := tnt.Service()
	entered := make(chan struct{})
	svc.buildHook = func(ctx context.Context) { close(entered); <-ctx.Done() }
	type res struct {
		q   *Coreset
		err error
	}
	done := make(chan res, 1)
	go func() {
		q, err := tnt.Coreset(context.Background(), 0.1, Auto)
		done <- res{q, err}
	}()
	<-entered

	clk.advance(1500 * time.Millisecond)
	reg.sched.sweep()

	r := <-done
	if r.err != nil {
		t.Fatalf("watchdog-killed request: %v (want stale answer)", r.err)
	}
	rep := r.q.Report
	if rep == nil || !rep.Stale || rep.Staleness == nil {
		t.Fatalf("killed build not answered stale: %+v", rep)
	}
	sm := rep.Staleness
	if sm.Reason != "watchdog_kill" {
		t.Errorf("staleness reason = %q, want watchdog_kill", sm.Reason)
	}
	if sm.StreamN != 600 || sm.PointsBehind != 80 {
		t.Errorf("staleness position: stream_n=%d behind=%d, want 600/80", sm.StreamN, sm.PointsBehind)
	}
	if sm.Age != 1500*time.Millisecond {
		t.Errorf("staleness age = %v, want 1.5s (deterministic clock)", sm.Age)
	}

	st := reg.Stats()
	if st.Scheduler.WatchdogKills != 1 {
		t.Errorf("WatchdogKills = %d, want 1", st.Scheduler.WatchdogKills)
	}
	if st.Scheduler.Inflight != 0 {
		t.Errorf("Inflight = %d after reclaim, want 0", st.Scheduler.Inflight)
	}
	if got := tnt.Stats().StaleServed; got != 1 {
		t.Errorf("StaleServed = %d, want 1", got)
	}

	// The reclaimed slot must serve a fresh build again.
	svc.buildHook = nil
	q2, err := tnt.Coreset(context.Background(), 0.1, Auto)
	if err != nil || q2.Report.Stale || !q2.Report.Certified {
		t.Fatalf("post-kill fresh build: err=%v, report=%+v", err, q2.Report)
	}
}

// TestCheckpointFailuresDegrade: consecutive checkpoint-save failures
// flip a tenant to degraded (still serving) in Stats and Health, and a
// single success resets it.
func TestCheckpointFailuresDegrade(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewTenantRegistry(RegistryOptions{
		Dim: 2, Seed: 3, SnapshotDir: dir, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	defer reg.Close()
	tnt, err := reg.CreateTenant(TenantConfig{ID: "wobbly"})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if err := tnt.Feed(servePoints(64, 23)...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tnt.Service(), 64)
	if err := tnt.Checkpoint(); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}

	// Yank the tenant's directory out from under the snapshot store.
	tdir := filepath.Join(dir, "wobbly")
	if err := os.RemoveAll(tdir); err != nil {
		t.Fatalf("remove tenant dir: %v", err)
	}
	for i := 1; i <= degradedCheckpointFailures; i++ {
		if err := tnt.Checkpoint(); err == nil {
			t.Fatalf("checkpoint %d into a missing directory succeeded", i)
		}
		st := tnt.Stats()
		wantDegraded := i >= degradedCheckpointFailures
		if st.CheckpointFailures != i || st.Degraded != wantDegraded {
			t.Fatalf("after %d failures: failures=%d degraded=%v", i, st.CheckpointFailures, st.Degraded)
		}
	}
	health := reg.Health()
	if len(health) != 1 || health[0].State != "degraded" ||
		health[0].Reason != "checkpoint_failures" ||
		health[0].CheckpointFailures != degradedCheckpointFailures {
		t.Fatalf("Health = %+v, want one degraded checkpoint_failures row", health)
	}
	// Degraded, not dead: the tenant still serves.
	if _, err := tnt.Coreset(context.Background(), 0.2, Auto); err != nil {
		t.Fatalf("degraded tenant stopped serving: %v", err)
	}

	// Heal the disk; one success resets the state machine to ok.
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatalf("restore tenant dir: %v", err)
	}
	if err := tnt.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if st := tnt.Stats(); st.Degraded || st.CheckpointFailures != 0 {
		t.Fatalf("after heal: %+v", st)
	}
	if health := reg.Health(); health[0].State != "ok" {
		t.Fatalf("Health after heal = %+v, want ok", health)
	}
}
