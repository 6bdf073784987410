package mincore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"mincore/internal/obs"
)

// Build memoization. A certified build is a pure function of the
// Coreseter's frozen inputs (points, seed, options) and the request
// (algorithm, ε), so repeated builds — the dual problem's binary-search
// probes, an ε sweep, mcserve answering identical /coreset requests —
// recompute bitwise-identical results. resultCache memoizes them:
//
//   - a bounded LRU of successful results, keyed by (algorithm,
//     quantized ε) at the Coreseter layer and by (stream generation, ε,
//     algorithm) at the serve layer;
//   - per-key singleflight, so N concurrent identical requests share one
//     underlying build: the first caller leads, the rest wait on its
//     flight and receive private clones of the result;
//   - cancellation handoff: a leader whose context dies mid-build does
//     not poison the key — its followers observe the context error,
//     re-enter, and one of them becomes the new leader under its own
//     (still live) context.
//
// Soundness: only certified results (or SkipCertify results, which carry
// their measured loss either way) are stored, and certification always
// measures on the original instance, so a cached coreset is exactly as
// valid as a fresh one. Errors are never cached; a failed build is
// retried by the next request. Cached and fresh results are bitwise
// identical — the determinism contract the package already documents for
// worker counts extends to the cache, and tests enforce it.

// epsQuantum is the grid ε is quantized to for cache keys. It matches
// certTol: two ε values closer than the certification tolerance are the
// same request for every practical purpose, and quantizing keeps float
// noise (parsing, arithmetic on sweep ladders) from splitting the key.
const epsQuantum = 1e-9

// defaultBuildCacheSize is the LRU capacity Options.BuildCache = 0
// selects. An entry is a few slice headers plus shared point backing, so
// the cache is small even at full capacity.
const defaultBuildCacheSize = 64

// quantizeEps maps ε onto the cache-key grid. Out-of-range ε (possible
// only on paths that reject it downstream) collapses onto a sentinel key
// that is never stored, since failed builds are not cached.
func quantizeEps(eps float64) int64 {
	if !(eps > 0 && eps < 1) {
		return math.MinInt64
	}
	return int64(math.Round(eps / epsQuantum))
}

// buildKey identifies one memoizable Coreseter build.
type buildKey struct {
	algo Algorithm
	qeps int64
}

// cacheMetrics are the hit/miss/eviction counters of one cache layer.
type cacheMetrics struct {
	hits, misses, evictions *obs.Counter
}

// flight is one in-progress build shared by concurrent identical
// requests. q and err are written exactly once, before done is closed.
type flight struct {
	done chan struct{}
	q    *Coreset // private snapshot; followers clone from it
	err  error
}

type cacheEntry[K comparable] struct {
	key K
	q   *Coreset // canonical snapshot; every return path clones it
}

// resultCache is a bounded LRU of build results with per-key
// singleflight. The zero value is not usable; construct with
// newResultCache. All methods are safe for concurrent use.
type resultCache[K comparable] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // most-recently-used first; values are *cacheEntry[K]
	items   map[K]*list.Element
	flights map[K]*flight
	met     cacheMetrics

	// onLeader, when non-nil (tests only), runs on the leader goroutine
	// after it has claimed the flight and before it builds.
	onLeader func()
}

func newResultCache[K comparable](capacity int, met cacheMetrics) *resultCache[K] {
	return &resultCache[K]{
		cap:     capacity,
		order:   list.New(),
		items:   make(map[K]*list.Element),
		flights: make(map[K]*flight),
		met:     met,
	}
}

// get returns a private clone of the cached result for key, or
// (nil, false). It never blocks on an in-flight build.
func (c *resultCache[K]) get(key K) (*Coreset, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	q := el.Value.(*cacheEntry[K]).q
	c.mu.Unlock()
	c.met.hits.Inc()
	return cloneCachedCoreset(q), true
}

// do returns the cached result for key, joins an in-flight identical
// build, or leads a new build. The boolean reports whether the result
// came from the cache or a shared flight (true) rather than this
// caller's own build (false). The leader's build runs under the leader's
// ctx; followers whose own ctx dies stop waiting and return its error.
func (c *resultCache[K]) do(ctx context.Context, key K, build func(context.Context) (*Coreset, error)) (*Coreset, bool, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.order.MoveToFront(el)
			q := el.Value.(*cacheEntry[K]).q
			c.mu.Unlock()
			c.met.hits.Inc()
			return cloneCachedCoreset(q), true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.met.hits.Inc()
					return cloneCachedCoreset(f.q), true, nil
				}
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					// The leader was cancelled, not the build refuted:
					// take over (or let another follower) unless this
					// caller's own context is dead too.
					if err := ctx.Err(); err != nil {
						return nil, false, err
					}
					continue
				}
				return nil, true, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.met.misses.Inc()
		if c.onLeader != nil {
			c.onLeader()
		}
		q, err := build(ctx)
		var snap *Coreset
		if err == nil {
			// The snapshot, not the caller-visible q, is what the cache and
			// the followers hold: the leader's caller is free to mutate its
			// own result.
			snap = snapshotCoreset(q)
		}
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			c.storeLocked(key, snap)
		}
		c.mu.Unlock()
		f.q, f.err = snap, err
		close(f.done)
		return q, false, err
	}
}

// storeLocked inserts (or refreshes) an entry and evicts from the LRU
// tail past capacity. Callers hold c.mu.
func (c *resultCache[K]) storeLocked(key K, q *Coreset) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry[K]).q = q
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry[K]{key: key, q: q})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*cacheEntry[K]).key)
		c.met.evictions.Inc()
	}
}

// forEach visits every cached entry, most-recently-used first, under the
// cache lock; f must not call back into the cache.
func (c *resultCache[K]) forEach(f func(K, *Coreset)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry[K])
		f(e.key, e.q)
	}
}

// len returns the number of cached entries.
func (c *resultCache[K]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// snapshotCoreset deep-copies the caller-mutable parts of a build result
// into the canonical cache copy: index and point slices are copied (the
// point vectors themselves are shared with the instance, exactly as
// fresh builds share them), the report is copied so later callers cannot
// see serve-layer mutations (Checkpoint), and the trace is shared — it
// is read-only once its build returns.
func snapshotCoreset(q *Coreset) *Coreset {
	out := &Coreset{
		Indices:   append([]int(nil), q.Indices...),
		Points:    append([]Point(nil), q.Points...),
		Eps:       q.Eps,
		Loss:      q.Loss,
		Algorithm: q.Algorithm,
	}
	if q.Report != nil {
		rep := *q.Report
		rep.Fallbacks = append([]string(nil), q.Report.Fallbacks...)
		rep.Checkpoint = nil
		rep.Stale = false
		rep.Staleness = nil
		out.Report = &rep
	}
	return out
}

// cloneCachedCoreset produces the caller-visible clone of a cached
// result: private slices, and a report marked CacheHit whose trace is a
// single ended root span carrying a cache=hit attr (the full phase trace
// lives on the original build's report; a hit has no phases of its own).
func cloneCachedCoreset(q *Coreset) *Coreset {
	out := snapshotCoreset(q)
	if out.Report != nil {
		out.Report.CacheHit = true
		out.Report.Wall = 0
		tr := obs.NewTrace("build")
		tr.Root.SetAttr("cache", "hit")
		tr.Root.SetAttr("algorithm", string(out.Algorithm))
		tr.Root.SetAttr("eps", fmt.Sprintf("%g", out.Eps))
		tr.Root.End()
		out.Report.Trace = tr
	}
	return out
}

// cacheCapacity resolves the Options.BuildCache / ServeOptions.BuildCache
// convention: 0 selects def, negative disables (returns 0), positive is
// taken as-is.
func cacheCapacity(configured, def int) int {
	switch {
	case configured < 0:
		return 0
	case configured == 0:
		return def
	default:
		return configured
	}
}

// cachedDualSeed exploits size-monotonicity to shrink the dual binary
// search's ε bracket from cached builds: a cached result of at most r
// points is feasible and bounds the search from above; a larger one
// bounds it from below. It also returns the smallest-ε feasible cached
// result (a private clone) so a fully collapsed bracket — every probe
// already answered by the cache — can return without a single build.
// Greedy size noise can produce a crossed bracket; that falls back to
// the full (0,1) with no seed, matching DualSolve's own tolerance for
// monotonicity hiccups.
func (c *Coreseter) cachedDualSeed(algo Algorithm, r int) (lo, hi float64, seed *Coreset) {
	lo, hi = 0, 1
	var seedSrc *Coreset
	c.cache.forEach(func(k buildKey, q *Coreset) {
		if k.algo != algo {
			return
		}
		eps := float64(k.qeps) * epsQuantum
		if len(q.Indices) <= r {
			if eps < hi {
				hi = eps
				seedSrc = q
			}
		} else if eps > lo {
			lo = eps
		}
	})
	if !(lo < hi) {
		return 0, 1, nil
	}
	if seedSrc != nil {
		seed = cloneCachedCoreset(seedSrc)
	}
	return lo, hi, seed
}
