package mincore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mincore/internal/obs"
)

// Build memoization. A certified build is a pure function of the
// Coreseter's frozen inputs (points, seed, options) and the request
// (algorithm, ε), so repeated builds — the dual problem's binary-search
// probes, an ε sweep, mcserve answering identical /coreset requests —
// recompute bitwise-identical results. resultCache memoizes them:
//
//   - a bounded LRU of successful results, one per (algorithm, quantized
//     ε), stamped with the version of the inputs they were built from; a
//     read hits at its own version. Coreseter inputs never change (the
//     zero stamp); the ingest service stamps the champions a build
//     copied, and its stale fallback reads an entry at any version;
//   - singleflight per (key, reader's version), so N concurrent
//     identical requests share one underlying build: the first caller
//     leads, the rest wait on its flight and receive private clones of
//     the result;
//   - cancellation handoff: a leader whose context dies mid-build does
//     not poison the key — its followers observe the context error,
//     re-enter, and one of them becomes the new leader under its own
//     (still live) context.
//
// Soundness: only certified results are stored, and certification
// always measures on the original instance, so a cached coreset is
// exactly as valid as a fresh one. Errors are never cached; a failed
// build is retried by the next request. Cached and fresh results are
// bitwise identical — the determinism contract the package already
// documents for worker counts extends to the cache, and tests enforce
// it. The cache answers requests and never steers one, so no answer
// depends on what was built before: FixedSize probes the same ε values
// on a warm Coreseter as on a fresh one.

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

// buildKey identifies one memoizable build.
type buildKey struct {
	algo Algorithm
	qeps int64
}

// stamp is the provenance of a stored build: the champion version and
// stream position of the champions a served build copied, and when the
// build completed. Coreseter builds carry the zero stamp.
type stamp struct {
	version uint64
	streamN int
	builtAt time.Time
}

// flightKey identifies one in-progress build: the key and the version
// its leader read.
type flightKey struct {
	key     buildKey
	version uint64
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

type cacheEntry struct {
	key buildKey
	st  stamp
	q   *Coreset // canonical snapshot; every return path clones it
}

// resultCache is a bounded LRU of build results with per-(key, version)
// singleflight. The zero value is not usable; construct with
// newResultCache. All methods are safe for concurrent use.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // most-recently-used first; values are *cacheEntry
	items   map[buildKey]*list.Element
	flights map[flightKey]*flight
	met     cacheMetrics

	// onLeader, when non-nil (tests only), runs on the leader goroutine
	// after it has claimed the flight and before it builds.
	onLeader func()
}

func newResultCache(capacity int, met cacheMetrics) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		items:   make(map[buildKey]*list.Element),
		flights: make(map[flightKey]*flight),
		met:     met,
	}
}

// latest returns the stored build for key, whatever version it was built
// at, with its stamp. q is the canonical snapshot: callers copy it
// before handing it out. It never blocks on an in-flight build and
// counts no hit.
func (c *resultCache) latest(key buildKey) (q *Coreset, st stamp, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, stamp{}, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.q, e.st, true
}

// do returns the stored result for key when its stamp carries version,
// joins an in-flight build of (key, version), or leads a new build. The
// boolean reports whether the result came from the cache or a shared
// flight (true) rather than this caller's own build (false). The
// leader's build runs under the leader's ctx; followers whose own ctx
// dies stop waiting and return its error. The build's own stamp, not
// version, is what the stored entry carries.
func (c *resultCache) do(ctx context.Context, key buildKey, version uint64, build func(context.Context) (*Coreset, stamp, error)) (*Coreset, bool, error) {
	fk := flightKey{key: key, version: version}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok && el.Value.(*cacheEntry).st.version == version {
			c.order.MoveToFront(el)
			q := el.Value.(*cacheEntry).q
			c.mu.Unlock()
			c.met.hits.Inc()
			return cloneCachedCoreset(q), true, nil
		}
		if f, ok := c.flights[fk]; ok {
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
		c.flights[fk] = f
		c.mu.Unlock()

		c.met.misses.Inc()
		if c.onLeader != nil {
			c.onLeader()
		}
		q, st, err := build(ctx)
		if err == nil {
			// The snapshot, not the caller-visible q, is what the cache and
			// the followers hold: the leader's caller is free to mutate its
			// own result. It is stored before the flight ends, so no
			// caller can miss both.
			f.q = c.put(key, q, st)
		}
		c.mu.Lock()
		delete(c.flights, fk)
		c.mu.Unlock()
		f.err = err
		close(f.done)
		return q, false, err
	}
}

// put stores a snapshot of q as the entry for key, evicting from the LRU
// tail past capacity, and returns the snapshot. A build of an earlier
// stream position than the stored one is not stored, so an entry's
// provenance never goes backwards when overlapping builds finish out of
// order.
func (c *resultCache) put(key buildKey, q *Coreset, st stamp) *Coreset {
	snap := snapshotCoreset(q)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if e := el.Value.(*cacheEntry); st.streamN >= e.st.streamN {
			e.q, e.st = snap, st
			c.order.MoveToFront(el)
		}
		return snap
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, st: st, q: snap})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
		c.met.evictions.Inc()
	}
	return snap
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
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
