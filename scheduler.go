package mincore

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"mincore/internal/obs"
)

// Fair-share build scheduling. A single process hosts many tenant
// streams but only MaxInflightBuilds concurrent certified builds — the
// expensive resource every tenant competes for. A plain semaphore hands
// slots out in arrival order, so one tenant running an ε-sweep ladder
// (dozens of queued builds) starves a tenant that asks for one. The
// buildScheduler replaces the semaphore with deficit round-robin (DRR)
// over per-tenant FIFO queues:
//
//   - every tenant with pending requests sits in a ring; each full pass
//     of the ring is one scheduler round,
//   - on its turn a tenant's deficit counter grows by quantum × weight,
//     and its queued requests are granted while the deficit covers their
//     unit cost — so a weight-2 tenant drains twice as fast as a
//     weight-1 tenant, and with equal weights grants strictly alternate,
//   - an emptied queue leaves the ring and forfeits its residual
//     deficit, so idle tenants cannot hoard credit and burst later.
//
// The starvation bound follows directly: with unit-cost requests and
// weight w ≥ 1, a tenant's head request is granted within one round of
// enqueueing — no matter how deep any other tenant's backlog is.
//
// Queues are bounded (maxQueued per tenant); excess requests shed with
// ErrOverloaded, but only against the tenant's own backlog. Grant order
// is a pure function of the enqueue order, which keeps the scheduler
// tests deterministic: the "clock" is the grant sequence number, not
// wall time. A standalone IngestService runs the same scheduler with a
// single tenant, so every served build takes the one admission path.

// Scheduler weight bounds. The DRR top-up grows a tenant's deficit by
// quantum × weight once per ring pass, so a pathologically small weight
// would make dispatchLocked spin ~1/weight passes under the lock before
// that tenant's next grant — and a NaN weight (all comparisons false)
// would never top up at all. clampWeight bounds dispatch work at
// 1/minSchedWeight passes per grant and keeps the deficit arithmetic
// finite; every weight entering the scheduler goes through it.
const (
	minSchedWeight = 0.01
	maxSchedWeight = 100
)

// clampWeight sanitizes a caller-supplied scheduler weight: NaN and
// non-positive values fall back to the default 1, everything else is
// clamped into [minSchedWeight, maxSchedWeight] (so +Inf becomes
// maxSchedWeight).
func clampWeight(w float64) float64 {
	switch {
	case math.IsNaN(w) || w <= 0:
		return 1
	case w < minSchedWeight:
		return minSchedWeight
	case w > maxSchedWeight:
		return maxSchedWeight
	}
	return w
}

// schedWaiter is one pending build request. grant is closed (or err set
// first) by the dispatcher under the scheduler lock.
type schedWaiter struct {
	grant   chan struct{}
	err     error  // set before grant is closed when the queue is evicted
	granted bool   // true once dispatched; the canceller must release
	seq     uint64 // grant sequence number, stamped at dispatch
	g       *schedGrant
}

// schedGrant is one held build slot. The watchdog and the holder race to
// return the slot; the done flag (guarded by the scheduler lock) makes
// whichever side arrives second a no-op, so a slot is never returned
// twice.
type schedGrant struct {
	sched    *buildScheduler
	cancel   context.CancelCauseFunc // nil when no watchdog budget is set
	deadline time.Time               // zero when no watchdog budget is set
	tenant   string
	seq      uint64 // grant sequence number, stamped at dispatch
	done     bool   // released by the holder or reclaimed by the watchdog

	// startSpan is the request trace's grant-to-start span, begun when
	// the slot is granted; the holder ends it as the build begins, so
	// the gap between winning the slot and doing work is visible.
	startSpan *obs.Span
}

// release returns the slot unless the watchdog already reclaimed it, and
// frees the grant's derived context either way. The holder must call it
// exactly once.
func (g *schedGrant) release() {
	if g == nil {
		return
	}
	b := g.sched
	b.mu.Lock()
	b.releaseGrantLocked(g)
	b.mu.Unlock()
	if g.cancel != nil {
		g.cancel(nil)
	}
}

// schedQueue is one tenant's FIFO of pending requests plus its DRR
// state.
type schedQueue struct {
	id      string
	weight  float64
	deficit float64
	waiters []*schedWaiter
	inRing  bool
	grants  uint64 // lifetime grants, for stats and tests
}

// buildScheduler is the weighted-fair admission controller shared by
// every tenant of a registry (or private to one standalone service). All fields are guarded by mu; dispatching
// happens inline under the lock on every acquire/release/evict, so
// grant order is deterministic given the enqueue order.
type buildScheduler struct {
	mu          sync.Mutex
	maxInflight int
	maxQueued   int
	quantum     float64
	inflight    int
	queues      map[string]*schedQueue
	ring        []*schedQueue // tenants with pending requests, RR order
	ringPos     int
	rounds      uint64 // completed passes over the ring
	grantSeq    uint64 // total grants — the scheduler's virtual clock

	// Watchdog state. budget is the hard per-grant slot budget (0 =
	// watchdog off); active holds every granted-but-unreleased grant so
	// the sweeper can find overruns; kills counts reclaimed slots.
	budget   time.Duration
	now      func() time.Time
	active   map[*schedGrant]struct{}
	kills    uint64
	stopOnce sync.Once
	stopCh   chan struct{}
}

// newBuildScheduler returns a scheduler admitting maxInflight concurrent
// builds with at most maxQueued pending requests per tenant. budget > 0
// arms the build watchdog: a grant held longer than budget is cancelled
// (its context dies with cause ErrWatchdogKilled) and its slot reclaimed.
// clock overrides time.Now for the watchdog; injecting a clock also
// disables the background sweeper — the injector drives sweep() itself,
// which is what keeps the watchdog tests free of sleeps.
func newBuildScheduler(maxInflight, maxQueued int, budget time.Duration, clock func() time.Time) *buildScheduler {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueued < 1 {
		maxQueued = 16
	}
	b := &buildScheduler{
		maxInflight: maxInflight,
		maxQueued:   maxQueued,
		quantum:     1,
		queues:      make(map[string]*schedQueue),
		budget:      budget,
		now:         clock,
		active:      make(map[*schedGrant]struct{}),
		stopCh:      make(chan struct{}),
	}
	if b.budget > 0 && b.now == nil {
		b.now = time.Now
		go b.watchdogLoop()
	}
	return b
}

// stop terminates the background watchdog sweeper (idempotent). Builds
// in flight keep their slots; only the periodic sweep ends.
func (b *buildScheduler) stop() {
	b.stopOnce.Do(func() { close(b.stopCh) })
}

// watchdogLoop periodically sweeps for grants past their budget. The
// interval quarters the budget so an overrun is caught within ~1.25× its
// deadline; inline sweeps on acquire catch it sooner under traffic.
func (b *buildScheduler) watchdogLoop() {
	interval := b.budget / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-b.stopCh:
			return
		case <-t.C:
			b.sweep()
		}
	}
}

// sweep cancels and reclaims every active grant past its deadline, then
// redispatches the freed slots. Safe to call at any time; without a
// watchdog budget it is a no-op.
func (b *buildScheduler) sweep() {
	b.mu.Lock()
	b.sweepLocked()
	b.mu.Unlock()
}

func (b *buildScheduler) sweepLocked() {
	if b.budget <= 0 || len(b.active) == 0 {
		return
	}
	now := b.now()
	freed := false
	for g := range b.active {
		if !now.After(g.deadline) {
			continue
		}
		// Reclaim under the lock: the slot is returned here and now; the
		// killed build's own release becomes a no-op via g.done. The
		// cancelled context stops the build within a few LP solves — the
		// zombie may burn CPU briefly, but it no longer holds capacity.
		g.done = true
		delete(b.active, g)
		if b.inflight > 0 {
			b.inflight--
		}
		b.kills++
		mWatchdogKills.Inc()
		g.cancel(ErrWatchdogKilled)
		freed = true
	}
	if freed {
		b.dispatchLocked()
	}
}

// releaseGrantLocked returns a grant's slot unless the watchdog already
// did, then redispatches.
func (b *buildScheduler) releaseGrantLocked(g *schedGrant) {
	if g == nil || g.done {
		return
	}
	g.done = true
	delete(b.active, g)
	if b.inflight > 0 {
		b.inflight--
	}
	b.dispatchLocked()
}

// acquire blocks until the tenant is granted a build slot, its context
// dies, or its queue is evicted. The weight is clamped per clampWeight
// (≤ 0 and NaN default to 1). On success the caller owns one slot and
// must run the build under the returned context — the watchdog cancels
// it (cause ErrWatchdogKilled) if the slot is held past the budget — and
// call the grant's release exactly once.
func (b *buildScheduler) acquire(ctx context.Context, tenant string, weight float64) (context.Context, *schedGrant, error) {
	weight = clampWeight(weight)
	g := &schedGrant{sched: b, tenant: tenant}
	bctx := ctx
	if b.budget > 0 {
		bctx, g.cancel = context.WithCancelCause(ctx)
	}
	w := &schedWaiter{grant: make(chan struct{}), g: g}

	// The enqueue→grant wait as a request span (nil and free when the
	// request is untraced). The grant sequence number is the scheduler's
	// virtual clock, so a trace can be replayed against the DRR order.
	span := obs.StartSpan(ctx, "sched-wait")
	span.SetAttr("tenant", tenant)

	fail := func(err error) (context.Context, *schedGrant, error) {
		span.SetAttr("error", err.Error())
		span.End()
		if g.cancel != nil {
			g.cancel(nil)
		}
		return nil, nil, err
	}

	b.mu.Lock()
	b.sweepLocked() // a hung fleet self-heals on the next request
	q := b.queues[tenant]
	if q == nil {
		q = &schedQueue{id: tenant}
		b.queues[tenant] = q
	}
	q.weight = weight
	if len(q.waiters) >= b.maxQueued {
		b.mu.Unlock()
		return fail(fmt.Errorf("%w: %d builds pending for tenant %q", ErrOverloaded, b.maxQueued, tenant))
	}
	q.waiters = append(q.waiters, w)
	if !q.inRing {
		q.inRing = true
		b.ring = append(b.ring, q)
	}
	b.dispatchLocked()
	b.mu.Unlock()

	select {
	case <-w.grant:
		if w.err != nil {
			return fail(w.err)
		}
		// w.seq was stamped by the dispatcher before the close; the
		// channel receive orders the read.
		g.seq = w.seq
		span.SetAttr("grant_seq", strconv.FormatUint(w.seq, 10))
		span.End()
		g.startSpan = obs.StartSpan(ctx, "grant-to-start")
		return bctx, g, nil
	case <-ctx.Done():
		b.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot is ours (unless
			// the watchdog reclaimed it already), give it back before
			// reporting the context error.
			b.releaseGrantLocked(g)
			b.mu.Unlock()
			return fail(ctx.Err())
		}
		b.removeWaiterLocked(q, w)
		b.mu.Unlock()
		return fail(ctx.Err())
	}
}

// evict fails every pending request of a tenant with err and removes its
// queue — called when the tenant is deleted. In-flight builds keep
// their slots until their own release.
func (b *buildScheduler) evict(tenant string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[tenant]
	if q == nil {
		return
	}
	for _, w := range q.waiters {
		w.err = err
		close(w.grant)
	}
	q.waiters = nil
	b.dropFromRingLocked(q)
	delete(b.queues, tenant)
}

// dispatchLocked runs DRR until every slot is used or no requests are
// pending. Weights are clamped to [minSchedWeight, maxSchedWeight], so
// every full ring pass grows each pending tenant's deficit by at least
// quantum × minSchedWeight: the loop reaches a grant (or an empty ring)
// within 1/minSchedWeight passes.
func (b *buildScheduler) dispatchLocked() {
	for b.inflight < b.maxInflight && len(b.ring) > 0 {
		if b.ringPos >= len(b.ring) {
			b.ringPos = 0
			b.rounds++
		}
		q := b.ring[b.ringPos]
		if q.deficit < 1 {
			// A fresh visit tops the deficit up once. A turn interrupted
			// by slot exhaustion (deficit still ≥ 1 below) resumes here
			// without a second top-up.
			q.deficit += b.quantum * q.weight
		}
		for len(q.waiters) > 0 && q.deficit >= 1 && b.inflight < b.maxInflight {
			w := q.waiters[0]
			q.waiters = q.waiters[1:]
			q.deficit--
			b.inflight++
			b.grantSeq++
			q.grants++
			w.granted = true
			w.seq = b.grantSeq
			if b.budget > 0 {
				// The budget clock starts at grant time, not enqueue time:
				// a request's queueing delay is the fair-share scheduler's
				// business, the watchdog only polices slot occupancy.
				w.g.deadline = b.now().Add(b.budget)
				b.active[w.g] = struct{}{}
			}
			close(w.grant)
		}
		if len(q.waiters) == 0 {
			// Forfeit residual credit and leave the ring (standard DRR:
			// deficits only accumulate while backlogged).
			q.deficit = 0
			b.dropFromRingLocked(q)
			continue // ringPos now points at the next tenant
		}
		if q.deficit < 1 {
			// Turn spent; move on. Otherwise the slots ran out mid-turn
			// and the next release resumes this tenant's turn.
			b.ringPos++
		}
	}
}

// removeWaiterLocked unlinks a cancelled waiter; an emptied queue leaves
// the ring.
func (b *buildScheduler) removeWaiterLocked(q *schedQueue, w *schedWaiter) {
	for i, x := range q.waiters {
		if x == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			break
		}
	}
	if len(q.waiters) == 0 && q.inRing {
		q.deficit = 0
		b.dropFromRingLocked(q)
	}
}

func (b *buildScheduler) dropFromRingLocked(q *schedQueue) {
	if !q.inRing {
		return
	}
	for i, x := range b.ring {
		if x == q {
			b.ring = append(b.ring[:i], b.ring[i+1:]...)
			if b.ringPos > i {
				b.ringPos--
			}
			break
		}
	}
	q.inRing = false
}

// SchedulerStats is a point-in-time view of the fair-share scheduler.
type SchedulerStats struct {
	// Inflight is the number of build slots currently held; Rounds the
	// completed DRR passes; Grants the total slots handed out (the
	// scheduler's virtual clock).
	Inflight int
	Rounds   uint64
	Grants   uint64
	// WatchdogKills counts build slots forcibly reclaimed because the
	// holder exceeded the per-grant budget.
	WatchdogKills uint64
	// Pending and TenantGrants are per-tenant queue depth and lifetime
	// grant counts for tenants with scheduler state.
	Pending      map[string]int
	TenantGrants map[string]uint64
}

// stats snapshots the scheduler counters.
func (b *buildScheduler) stats() SchedulerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := SchedulerStats{
		Inflight:      b.inflight,
		Rounds:        b.rounds,
		Grants:        b.grantSeq,
		WatchdogKills: b.kills,
		Pending:       make(map[string]int, len(b.queues)),
		TenantGrants:  make(map[string]uint64, len(b.queues)),
	}
	for id, q := range b.queues {
		st.Pending[id] = len(q.waiters)
		st.TenantGrants[id] = q.grants
	}
	return st
}
