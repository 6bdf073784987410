package mincore

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mincore/internal/data"
	"mincore/internal/faultinject"
	"mincore/internal/geom"
	"mincore/internal/obs"
)

// samePointsBitwise compares two coresets field by field, down to the
// exact float bits of every coordinate — the determinism contract the
// cache must preserve.
func samePointsBitwise(t *testing.T, a, b *Coreset) {
	t.Helper()
	if !slices.Equal(a.Indices, b.Indices) {
		t.Fatalf("indices differ: %v vs %v", a.Indices, b.Indices)
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
		t.Fatalf("loss differs: %v vs %v", a.Loss, b.Loss)
	}
	if a.Eps != b.Eps || a.Algorithm != b.Algorithm {
		t.Fatalf("eps/algorithm differ: (%v,%v) vs (%v,%v)", a.Eps, a.Algorithm, b.Eps, b.Algorithm)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if len(a.Points[i]) != len(b.Points[i]) {
			t.Fatalf("point %d dims differ", i)
		}
		for j := range a.Points[i] {
			if math.Float64bits(a.Points[i][j]) != math.Float64bits(b.Points[i][j]) {
				t.Fatalf("point %d coord %d differs bitwise: %v vs %v",
					i, j, a.Points[i][j], b.Points[i][j])
			}
		}
	}
}

func TestBuildCacheHitIsBitwiseIdenticalToFresh(t *testing.T) {
	pts := randomPoints(300, 3, 11)
	cached, err := New(pts, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(pts, WithSeed(5), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{DSMC, SCMC, Auto} {
		q1, err := cached.Coreset(0.1, algo)
		if err != nil {
			t.Fatalf("%s first: %v", algo, err)
		}
		if q1.Report == nil || q1.Report.CacheHit {
			t.Fatalf("%s: first build must be a miss, report=%+v", algo, q1.Report)
		}
		q2, err := cached.Coreset(0.1, algo)
		if err != nil {
			t.Fatalf("%s second: %v", algo, err)
		}
		if q2.Report == nil || !q2.Report.CacheHit {
			t.Fatalf("%s: repeated build must be a cache hit", algo)
		}
		if q2.Report.Trace.Root.Attr("cache") != "hit" {
			t.Fatalf("%s: hit trace missing cache=hit attr", algo)
		}
		qf, err := uncached.Coreset(0.1, algo)
		if err != nil {
			t.Fatalf("%s uncached: %v", algo, err)
		}
		if qf.Report.CacheHit {
			t.Fatalf("%s: disabled cache must never report hits", algo)
		}
		samePointsBitwise(t, q1, q2)
		samePointsBitwise(t, q1, qf)
		if !q2.Report.Certified || q2.Report.CertifiedLoss != q1.Report.CertifiedLoss {
			t.Fatalf("%s: hit report lost certification: %+v", algo, q2.Report)
		}
	}
}

func TestWithBuildCacheZeroDisablesCleanly(t *testing.T) {
	cs, err := New(randomPoints(200, 2, 3), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if cs.cache != nil {
		t.Fatal("WithBuildCache(0) must leave the cache nil")
	}
	for i := 0; i < 2; i++ {
		q, err := cs.Coreset(0.1, OptMC)
		if err != nil {
			t.Fatal(err)
		}
		if q.Report.CacheHit {
			t.Fatal("disabled cache produced a hit")
		}
	}
	// FixedSize must run the plain 20-probe search without a cache.
	if _, err := cs.FixedSize(8, OptMC); err != nil {
		t.Fatalf("FixedSize with cache disabled: %v", err)
	}
}

// TestBuildCacheHitsAreIsolatedClones pins the no-aliasing contract: a
// caller mutating its result must not corrupt what later callers see.
func TestBuildCacheHitsAreIsolatedClones(t *testing.T) {
	cs, err := New(randomPoints(200, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := cs.Coreset(0.2, OptMC)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := append([]int(nil), q1.Indices...)
	q1.Indices[0] = -999 // caller scribbles on its copy
	q1.Report.Checkpoint = &CheckpointMeta{Generation: 42}

	q2, err := cs.Coreset(0.2, OptMC)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q2.Indices, wantIdx) {
		t.Fatalf("cached result was corrupted by a caller mutation: %v vs %v", q2.Indices, wantIdx)
	}
	if q2.Report.Checkpoint != nil {
		t.Fatal("report mutation leaked into the cache")
	}
	q2.Indices[0] = -777
	q3, err := cs.Coreset(0.2, OptMC)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q3.Indices, wantIdx) {
		t.Fatal("hit clone aliased the cached entry")
	}
}

// TestBuildCacheSingleflightTorture fans M goroutines at one (ε, algo)
// key and asserts exactly one underlying build ran — via the leader
// hook, the certified-build counter, and the cache hit/miss counters —
// with every caller receiving a bitwise-identical certified result.
func TestBuildCacheSingleflightTorture(t *testing.T) {
	cs, err := New(randomPoints(400, 3, 9), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var leaders atomic.Int64
	cs.cache.onLeader = func() { leaders.Add(1) }
	certBefore := mBuildsCertified.Value()
	hitsBefore := mCacheHitsBuild.Value()
	missBefore := mCacheMissesBuild.Value()

	const M = 16
	results := make([]*Coreset, M)
	errs := make([]error, M)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(M)
	for i := 0; i < M; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], errs[i] = cs.Coreset(0.1, DSMC)
		}(i)
	}
	start.Done()
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if !results[i].Report.Certified {
			t.Fatalf("caller %d: result not certified", i)
		}
	}
	if n := leaders.Load(); n != 1 {
		t.Fatalf("want exactly 1 singleflight leader, got %d", n)
	}
	if d := mBuildsCertified.Value() - certBefore; d != 1 {
		t.Fatalf("want exactly 1 certified pipeline run, got %d", d)
	}
	if d := mCacheMissesBuild.Value() - missBefore; d != 1 {
		t.Fatalf("want exactly 1 cache miss, got %d", d)
	}
	if d := mCacheHitsBuild.Value() - hitsBefore; d != M-1 {
		t.Fatalf("want %d cache hits (followers), got %d", M-1, d)
	}
	hits := 0
	for i := 1; i < M; i++ {
		samePointsBitwise(t, results[0], results[i])
		if results[i].Report.CacheHit {
			hits++
		}
	}
	if results[0].Report.CacheHit {
		hits++
	}
	if hits != M-1 {
		t.Fatalf("want %d callers marked CacheHit, got %d", M-1, hits)
	}
}

// TestResultCacheLeaderCancelHandoff scripts the handoff deterministically
// against the raw cache: the leader's ctx dies mid-build, and a follower
// must take over and complete rather than inherit the cancellation.
func TestResultCacheLeaderCancelHandoff(t *testing.T) {
	rc := newResultCache(4, buildCacheMetrics())
	k := buildKey{algo: DSMC, qeps: quantizeEps(0.1)}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	want := &Coreset{Indices: []int{1, 2}, Eps: 0.1, Loss: 0.05,
		Report: &BuildReport{Certified: true}}

	var followerBuilds atomic.Int64
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := rc.do(leaderCtx, k, 0, func(ctx context.Context) (*Coreset, stamp, error) {
			close(leaderStarted)
			<-ctx.Done()
			return nil, stamp{}, ctx.Err()
		})
		leaderErr <- err
	}()
	<-leaderStarted

	followerDone := make(chan struct{})
	var fq *Coreset
	var ferr error
	go func() {
		defer close(followerDone)
		fq, _, ferr = rc.do(context.Background(), k, 0, func(ctx context.Context) (*Coreset, stamp, error) {
			followerBuilds.Add(1)
			return want, stamp{}, nil
		})
	}()
	// Give the follower a moment to join the leader's flight, then kill
	// the leader. Timing only shifts which role the follower plays — if
	// it arrives late it simply leads its own build — so the assertions
	// below hold either way.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader: want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader did not return after cancellation")
	}
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after leader cancellation — key poisoned")
	}
	if ferr != nil {
		t.Fatalf("follower must survive the leader's cancellation, got %v", ferr)
	}
	if fq == nil || !slices.Equal(fq.Indices, want.Indices) {
		t.Fatalf("follower result corrupted: %+v", fq)
	}
	if n := followerBuilds.Load(); n != 1 {
		t.Fatalf("follower should have led exactly one build, ran %d", n)
	}
	// The key must be usable (and now cached) for later callers.
	q, hit, err := rc.do(context.Background(), k, 0, func(ctx context.Context) (*Coreset, stamp, error) {
		t.Fatal("key should be cached; build must not run")
		return nil, stamp{}, nil
	})
	if err != nil || !hit || !slices.Equal(q.Indices, want.Indices) {
		t.Fatalf("post-handoff lookup: q=%+v hit=%v err=%v", q, hit, err)
	}
}

// TestBuildCacheLeaderCancelHandoffIntegration exercises the handoff on
// a real build: the leader is cancelled as soon as it claims the flight,
// and a follower with a live context must still get a certified result.
func TestBuildCacheLeaderCancelHandoffIntegration(t *testing.T) {
	cs, err := New(randomPoints(400, 3, 13), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var once sync.Once
	cs.cache.onLeader = func() {
		// Fires for whichever goroutine leads first; cancelling the leader
		// context only hurts the caller holding it.
		once.Do(cancelLeader)
	}

	var wg sync.WaitGroup
	var leaderErr, followerErr error
	var followerQ *Coreset
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, leaderErr = cs.CoresetCtx(leaderCtx, 0.1, DSMC)
	}()
	go func() {
		defer wg.Done()
		followerQ, followerErr = cs.CoresetCtx(context.Background(), 0.1, DSMC)
	}()
	wg.Wait()

	if followerErr != nil {
		t.Fatalf("follower with live ctx must get a result, got %v", followerErr)
	}
	if followerQ == nil || !followerQ.Report.Certified {
		t.Fatalf("follower result not certified: %+v", followerQ)
	}
	// The leader either lost the race to its own cancellation or finished
	// before noticing it — both are legal; an unrelated failure is not.
	if leaderErr != nil && !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader: want nil or context.Canceled, got %v", leaderErr)
	}
	// Key must not be poisoned.
	q, err := cs.Coreset(0.1, DSMC)
	if err != nil || !q.Report.Certified {
		t.Fatalf("key poisoned after cancelled leader: q=%+v err=%v", q, err)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	rc := newResultCache(2, buildCacheMetrics())
	evBefore := mCacheEvictionsBuild.Value()
	key := func(i int) buildKey { return buildKey{algo: DSMC, qeps: int64(i + 1)} }
	mk := func(i int) *Coreset { return &Coreset{Indices: []int{i}} }
	for i := 0; i < 3; i++ {
		if _, _, err := rc.do(context.Background(), key(i), 0, func(context.Context) (*Coreset, stamp, error) {
			return mk(i), stamp{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if rc.len() != 2 {
		t.Fatalf("capacity 2 cache holds %d entries", rc.len())
	}
	if d := mCacheEvictionsBuild.Value() - evBefore; d != 1 {
		t.Fatalf("want 1 eviction, got %d", d)
	}
	if _, _, ok := rc.latest(key(0)); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	for _, k := range []int{1, 2} {
		if q, _, ok := rc.latest(key(k)); !ok || !slices.Equal(q.Indices, mk(k).Indices) {
			t.Fatalf("entry %d should have survived", k)
		}
	}
}

// TestFixedSizeRepeatServedFromCache asserts that an identical repeat
// of the dual search runs no build at all — its probes are the first
// call's ε values, each one a cache hit — and returns the same coreset
// as the first call and as a Coreseter without a cache.
func TestFixedSizeRepeatServedFromCache(t *testing.T) {
	pts := randomPoints(300, 2, 7)
	cold, err := New(pts, WithSeed(3), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(pts, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	qCold, err := cold.FixedSize(10, OptMC)
	if err != nil {
		t.Fatal(err)
	}
	missBefore := mCacheMissesBuild.Value()
	q1, err := warm.FixedSize(10, OptMC)
	if err != nil {
		t.Fatal(err)
	}
	firstBuilds := mCacheMissesBuild.Value() - missBefore
	samePointsBitwise(t, qCold, q1)

	missBefore = mCacheMissesBuild.Value()
	q2, err := warm.FixedSize(10, OptMC)
	if err != nil {
		t.Fatal(err)
	}
	repeatBuilds := mCacheMissesBuild.Value() - missBefore
	if repeatBuilds >= firstBuilds {
		t.Fatalf("repeat FixedSize ran %d builds, first ran %d — want fewer", repeatBuilds, firstBuilds)
	}
	if repeatBuilds != 0 {
		t.Fatalf("repeat FixedSize should be answered from the cache, ran %d builds", repeatBuilds)
	}
	samePointsBitwise(t, q1, q2)
	if !q2.Report.Certified {
		t.Fatal("repeat result lost certification")
	}
}

// TestFixedSizeIgnoresCacheHistory asserts that the dual search's answer
// does not depend on what the Coreseter built before: after an ε ladder
// of the same algorithm, FixedSize returns bitwise what it returns on a
// fresh Coreseter and on one without a cache — indices, loss bits and ε
// bits.
func TestFixedSizeIgnoresCacheHistory(t *testing.T) {
	cases := []struct {
		name   string
		pts    []geom.Vector
		budget int
		algo   Algorithm
	}{
		{"normal-d5/scmc", data.Normal(2000, 5, 5).Points, 40, SCMC},
		{"normal-d3/dsmc", data.Normal(2000, 3, 1).Points, 20, DSMC},
		{"normal-d2/optmc", data.Normal(3000, 2, 3).Points, 12, OptMC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := toPoints(tc.pts)
			fixed := func(prior []float64, opts ...Option) *Coreset {
				t.Helper()
				cs, err := New(pts, append([]Option{WithSeed(7)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range prior {
					if _, err := cs.Coreset(eps, tc.algo); err != nil {
						t.Fatalf("Coreset(%g): %v", eps, err)
					}
				}
				q, err := cs.FixedSize(tc.budget, tc.algo)
				if err != nil {
					t.Fatalf("FixedSize(%d): %v", tc.budget, err)
				}
				return q
			}
			fresh := fixed(nil)
			for name, q := range map[string]*Coreset{
				"after the ladder": fixed([]float64{0.20, 0.10, 0.05, 0.02}),
				"without a cache":  fixed(nil, WithBuildCache(0)),
			} {
				if !slices.Equal(q.Indices, fresh.Indices) ||
					math.Float64bits(q.Loss) != math.Float64bits(fresh.Loss) ||
					math.Float64bits(q.Eps) != math.Float64bits(fresh.Eps) {
					t.Errorf("%s: |Q| %d loss %v ε %v, fresh |Q| %d loss %v ε %v", name,
						q.Size(), q.Loss, q.Eps, fresh.Size(), fresh.Loss, fresh.Eps)
				}
			}
		})
	}
}

// TestFixedSizeReportsWinningProbe asserts that FixedSize reports how
// the coreset it returns was built: with every dominance-graph build
// failing, each DSMC probe retries and falls back to SCMC, and the
// result says so, exactly as a Coreset call at the ε it found does.
func TestFixedSizeReportsWinningProbe(t *testing.T) {
	pts := randomPoints(300, 3, 5)
	cs, err := New(pts, WithSeed(3), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(pts, WithSeed(3), WithWorkers(1), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.Config{Rate: 1, Sites: []faultinject.Site{faultinject.SiteDGBuild}})
	defer faultinject.Disable()

	q, err := cs.FixedSize(15, DSMC)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"retry(dsmc)#1", "fallback(scmc)"}
	if q.Report.Algorithm != SCMC || q.Algorithm != SCMC || !slices.Equal(q.Report.Fallbacks, want) {
		t.Fatalf("FixedSize reports algorithm %s (coreset %s), trail %v; want scmc, %v",
			q.Report.Algorithm, q.Algorithm, q.Report.Fallbacks, want)
	}
	if q.Report.Requested != DSMC || q.Report.Retries != 1 || !q.Report.Certified || q.Report.CacheHit {
		t.Fatalf("report %+v: want requested dsmc, 1 retry, certified, no cache hit", q.Report)
	}
	at, err := ref.Coreset(q.Eps, DSMC)
	if err != nil {
		t.Fatal(err)
	}
	samePointsBitwise(t, at, q)
	if !slices.Equal(at.Report.Fallbacks, q.Report.Fallbacks) {
		t.Fatalf("Coreset at ε %v has trail %v, FixedSize %v", q.Eps, at.Report.Fallbacks, q.Report.Fallbacks)
	}
}

// TestBuildCacheWarmHitSpeedup gates what the cache is for: a hit must
// be at least 50× faster than the cold DSMC build it replays (its
// dominance graph included). The median of about 100 hits is compared
// with the first build on a fresh Coreseter.
func TestBuildCacheWarmHitSpeedup(t *testing.T) {
	cs, err := New(toPoints(data.Normal(2000, 4, 7).Points), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cs.Coreset(0.1, DSMC); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	hits := make([]time.Duration, 101)
	for i := range hits {
		start := time.Now()
		q, err := cs.Coreset(0.1, DSMC)
		hits[i] = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Report.CacheHit {
			t.Fatalf("repeat %d was not a cache hit", i)
		}
	}
	slices.Sort(hits)
	warm := max(hits[len(hits)/2], time.Nanosecond)
	speedup := float64(cold) / float64(warm)
	t.Logf("cold build %v, median hit %v: %.0f×", cold, warm, speedup)
	if speedup < 50 {
		t.Fatalf("warm hit speedup %.1f× (cold %v, median hit %v), want >= 50×", speedup, cold, warm)
	}
}

func TestCoresetSweepMatchesIndividualBuilds(t *testing.T) {
	pts := randomPoints(350, 3, 21)
	swept, err := New(pts, WithSeed(6), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(pts, WithSeed(6), WithBuildCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ladder := []float64{0.3, 0.15, 0.08}
	results, err := swept.CoresetSweep(context.Background(), ladder, DSMC)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ladder) {
		t.Fatalf("want %d results, got %d", len(ladder), len(results))
	}
	for i, eps := range ladder {
		if results[i] == nil {
			t.Fatalf("sweep entry %d is nil", i)
		}
		ref, err := single.Coreset(eps, DSMC)
		if err != nil {
			t.Fatalf("reference ε=%g: %v", eps, err)
		}
		samePointsBitwise(t, ref, results[i])
	}
	// A second sweep over the same ladder is answered from the cache.
	again, err := swept.CoresetSweep(context.Background(), ladder, DSMC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ladder {
		if !again[i].Report.CacheHit {
			t.Fatalf("repeat sweep entry %d (ε=%g) not served from cache", i, ladder[i])
		}
		samePointsBitwise(t, results[i], again[i])
	}
	// Validation errors surface before any build.
	if _, err := swept.CoresetSweep(context.Background(), []float64{0.1, 7}, DSMC); err == nil {
		t.Fatal("out-of-range ε in the ladder must fail validation")
	}
	if r, err := swept.CoresetSweep(context.Background(), nil, DSMC); r != nil || err != nil {
		t.Fatalf("empty ladder: want (nil, nil), got (%v, %v)", r, err)
	}
}

// TestServeCoresetCacheHitAndIngestInvalidation checks that the serve
// cache follows the champions, not the stream position: batches of
// already-seen and of interior points advance the stream but keep the
// hit, which carries the checkpoint provenance of now, and a point
// beyond the champions makes the next request rebuild.
func TestServeCoresetCacheHitAndIngestInvalidation(t *testing.T) {
	svc := newTestService(t, ServeOptions{Dim: 2, Seed: 5})
	defer svc.Close()
	pts := randomPoints(200, 2, 31)
	n := 0
	feed := func(batch []Point) {
		t.Helper()
		if err := svc.Feed(batch...); err != nil {
			t.Fatal(err)
		}
		n += len(batch)
		drain(t, svc, int64(n))
	}
	read := func() *Coreset {
		t.Helper()
		q, err := svc.Coreset(context.Background(), 0.1, Auto)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	feed(pts)

	q1 := read()
	if q1.Report.CacheHit {
		t.Fatal("first served build cannot be a hit")
	}
	q2 := read()
	if !q2.Report.CacheHit {
		t.Fatal("repeated served build must hit the cache")
	}
	samePointsBitwise(t, q1, q2)
	if q2.Report.Checkpoint == nil || q2.Report.Checkpoint.StreamN != len(pts) {
		t.Fatalf("cached hit must carry fresh checkpoint provenance: %+v", q2.Report.Checkpoint)
	}
	if st := svc.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats: want hits=1 misses=1, got hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}

	// randomPoints centers the cloud on (7,7): pulled 90% of the way
	// there, a point lies deep inside the hull and beats no champion.
	interior := make([]Point, 40)
	for i, p := range pts[40:80] {
		interior[i] = Point{7 + 0.1*(p[0]-7), 7 + 0.1*(p[1]-7)}
	}
	for _, c := range []struct {
		name  string
		batch []Point
	}{{"already-seen", pts[:40]}, {"interior", interior}} {
		feed(c.batch)
		q := read()
		if !q.Report.CacheHit {
			t.Fatalf("a batch of %s points changed no champion, yet the cache missed", c.name)
		}
		samePointsBitwise(t, q1, q)
		if q.Report.Checkpoint == nil || q.Report.Checkpoint.StreamN != n {
			t.Fatalf("%s hit: checkpoint provenance %+v, want StreamN %d", c.name, q.Report.Checkpoint, n)
		}
	}

	// A point beyond the champions replaces some of them: the next
	// request rebuilds against the new summary.
	feed([]Point{{1e3, 1e3}})
	q3 := read()
	if q3.Report.CacheHit {
		t.Fatal("a change of champion must invalidate the served-coreset cache")
	}
	if st := svc.Stats(); st.CacheHits != 3 || st.CacheMisses != 2 {
		t.Fatalf("stats: want hits=3 misses=2, got hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// TestServeCoresetCacheHitMatchesUncached feeds one stream to a cached
// service and to an uncached one (BuildCache -1) and reads both after
// every batch: each answer, hit or rebuild, must be bitwise the same,
// and the cached service must hit exactly when the champion version has
// not moved. Both services then restart twice: from a Kill, through the
// checkpoint and the log replayed past it, and from a Close, through the
// final snapshot. After each restart the first read rebuilds, and then
// every read after a batch of points the stream saw before the restart
// must hit, with no champion update.
func TestServeCoresetCacheHitMatchesUncached(t *testing.T) {
	if !obs.On() {
		obs.Enable()
		defer obs.Disable()
	}
	t.Run("workers=1", func(t *testing.T) {
		paths := [2]string{filepath.Join(t.TempDir(), "stream.snap"), filepath.Join(t.TempDir(), "stream.snap")}
		var cached, plain *IngestService
		start := func() {
			t.Helper()
			cached = newTestService(t, ServeOptions{Dim: 2, Seed: 5, SnapshotPath: paths[0]})
			plain = newTestService(t, ServeOptions{Dim: 2, Seed: 5, SnapshotPath: paths[1], BuildCache: -1})
		}
		start()
		t.Cleanup(func() { cached.Kill(); plain.Kill() })

		n := 0
		feed := func(b []Point) {
			t.Helper()
			for _, svc := range []*IngestService{cached, plain} {
				if err := svc.Feed(b...); err != nil {
					t.Fatal(err)
				}
				drain(t, svc, int64(n+len(b)-svc.RestoredPoints()))
			}
			n += len(b)
		}
		read := func() *Coreset {
			t.Helper()
			got, err := cached.Coreset(context.Background(), 0.1, Auto)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Coreset(context.Background(), 0.1, Auto)
			if err != nil {
				t.Fatal(err)
			}
			samePointsBitwise(t, want, got)
			return got
		}

		pts := randomPoints(600, 2, 37)
		batches := [][]Point{pts[:300]}
		for i := 0; i < 300; i += 50 {
			batches = append(batches, pts[i:i+50]) // already seen
		}
		batches = append(batches, pts[300:350], pts[:100], pts[350:600], pts[100:300])
		prev, hits := uint64(0), 0
		for i, b := range batches {
			feed(b)
			_, version := cached.streamPosition()
			got := read()
			if hit := i > 0 && version == prev; got.Report.CacheHit != hit {
				t.Fatalf("batch %d: CacheHit %v at version %d after %d", i, got.Report.CacheHit, version, prev)
			}
			if got.Report.CacheHit {
				hits++
			}
			prev = version
			if i == 7 {
				// The Kill restart restores this checkpoint and replays
				// the batches after it from the log.
				for _, svc := range []*IngestService{cached, plain} {
					if err := svc.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if hits == 0 || hits == len(batches)-1 {
			t.Fatalf("%d hits over %d reads: the stream must both keep and change champions", hits, len(batches))
		}

		for _, stop := range []struct {
			name string
			stop func(*IngestService) error
		}{
			{"kill", func(s *IngestService) error { s.Kill(); return nil }},
			{"close", (*IngestService).Close},
		} {
			for _, svc := range []*IngestService{cached, plain} {
				if err := stop.stop(svc); err != nil {
					t.Fatalf("%s: %v", stop.name, err)
				}
			}
			start()
			for _, svc := range []*IngestService{cached, plain} {
				if r, sn := svc.RestoredPoints(), svc.StreamN(); r != n || sn != n {
					t.Fatalf("after %s: RestoredPoints %d, StreamN %d, want %d", stop.name, r, sn, n)
				}
			}
			if read().Report.CacheHit {
				t.Fatalf("after %s: the first read hit an empty cache", stop.name)
			}
			before := championUpdates()
			for i := 0; i < 10; i++ {
				feed(pts[50*i : 50*i+50])
				if !read().Report.CacheHit {
					t.Fatalf("after %s: batch %d of already-seen points missed the cache", stop.name, i)
				}
				if d := championUpdates() - before; d != 0 {
					t.Fatalf("after %s: batch %d of already-seen points made %v champion updates", stop.name, i, d)
				}
			}
		}
	})
}

func TestServeBuildCacheDisabled(t *testing.T) {
	svc := newTestService(t, ServeOptions{Dim: 2, Seed: 5, BuildCache: -1})
	defer svc.Close()
	pts := randomPoints(100, 2, 33)
	if err := svc.Feed(pts...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, int64(len(pts)))
	for i := 0; i < 2; i++ {
		q, err := svc.Coreset(context.Background(), 0.1, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if q.Report.CacheHit {
			t.Fatal("disabled serve cache produced a hit")
		}
	}
	if st := svc.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache must not count: %+v", st)
	}
}

func TestNormalizeChecked(t *testing.T) {
	cs, err := New(randomPoints(100, 3, 41))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.NormalizeChecked(Point{1, 2}); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("short point: want ErrInvalidPoint, got %v", err)
	}
	if _, err := cs.NormalizeChecked(Point{1, 2, 3, 4}); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("long point: want ErrInvalidPoint, got %v", err)
	}
	if _, err := cs.NormalizeChecked(Point{1, math.NaN(), 3}); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("NaN coordinate: want ErrInvalidPoint, got %v", err)
	}
	q, err := cs.NormalizeChecked(Point{1, 2, 3})
	if err != nil || len(q) != len(cs.KeptDims()) {
		t.Fatalf("valid point: got (%v, %v)", q, err)
	}
	if p := cs.Normalize(Point{1, 2, 3}); !sameFloats(p, q) {
		t.Fatalf("Normalize and NormalizeChecked disagree: %v vs %v", p, q)
	}
	// Normalize keeps its legacy panic contract, but with a typed error.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Normalize on a short point must panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("panic value should wrap ErrInvalidPoint, got %v", r)
		}
	}()
	cs.Normalize(Point{1})
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDominanceGraphMemoized pins the resolution of the write-only ipdg
// field: the IPDG is a build intermediate (dropped after use), while the
// dominance graph itself — stats included — is memoized, so repeated
// DominanceGraphStats calls do not rebuild either structure.
func TestDominanceGraphMemoized(t *testing.T) {
	cs, err := New(randomPoints(200, 3, 51))
	if err != nil {
		t.Fatal(err)
	}
	lps1, edges1, ipdg1, err := cs.DominanceGraphStats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.dg == nil {
		t.Fatal("dominance graph not memoized")
	}
	dgPtr := cs.dg
	lps2, edges2, ipdg2, err := cs.DominanceGraphStats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.dg != dgPtr {
		t.Fatal("second stats call rebuilt the dominance graph")
	}
	if lps1 != lps2 || edges1 != edges2 || ipdg1 != ipdg2 {
		t.Fatalf("stats changed across calls: (%d,%d,%d) vs (%d,%d,%d)",
			lps1, edges1, ipdg1, lps2, edges2, ipdg2)
	}
	if ipdg1 <= 0 {
		t.Fatalf("IPDG edge count should be exposed through stats, got %d", ipdg1)
	}
}

func TestQuantizeEps(t *testing.T) {
	if quantizeEps(0.1) != quantizeEps(0.1+2e-10) {
		t.Fatal("ε values within the quantum must share a key")
	}
	if quantizeEps(0.1) == quantizeEps(0.2) {
		t.Fatal("distinct ε must get distinct keys")
	}
	for _, bad := range []float64{0, 1, -0.5, 5, math.NaN(), math.Inf(1)} {
		if quantizeEps(bad) != math.MinInt64 {
			t.Fatalf("out-of-range ε %v must map to the sentinel key", bad)
		}
	}
}
