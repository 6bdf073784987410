package mincore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mincore/internal/geom"
	"mincore/internal/obs"
	"mincore/internal/snapshot"
	"mincore/internal/stream"
	"mincore/internal/wal"
)

// The supervised long-running ingest mode. An IngestService owns a
// sharded streaming summary (one shard per ingest worker — summaries are
// mergeable, so shards compose exactly at read time), makes it durable
// through periodic crash-safe snapshots, and serves certified coreset
// builds from it under admission control. The design goals, in order:
//
//   - never die: worker panics are converted into typed ErrWorkerPanic
//     values and counted; the service degrades (that batch is lost until
//     replayed) but keeps ingesting,
//   - never lose more than the checkpoint window: snapshots are written
//     atomically with fsync and two on-disk generations; recovery falls
//     back a generation on a torn write and reports the restored point
//     count so producers can replay the tail (replay is idempotent —
//     directional maxima are unaffected by duplicates),
//   - never lose an acknowledged point (opt-in, ServeOptions.WAL): Feed
//     appends each batch to a per-tenant write-ahead log and syncs per
//     policy before acknowledging, restore replays the log past the
//     snapshot position (idempotent by sequence number), and checkpoint
//     success truncates the log — acknowledged == durable,
//   - never collapse under load: the ingest queue and the build
//     scheduler's queue are bounded, and both shed with typed
//     ErrOverloaded instead of queueing without bound,
//   - never block past a caller's deadline: build requests propagate
//     their context into CoresetCtx, cancelling mid-build within a few
//     LP solves.

// Typed service errors.
var (
	// ErrOverloaded is the shed response: the ingest queue or the build
	// scheduler's queue is full. The caller should back off and retry;
	// nothing was ingested or built.
	ErrOverloaded = errors.New("mincore: service overloaded")
	// ErrWorkerPanic marks a panic recovered inside an ingest worker
	// (wrapped by *WorkerPanicError). The service stays alive; the batch
	// being ingested when the panic fired may be partially applied.
	ErrWorkerPanic = errors.New("mincore: ingest worker panicked")
	// ErrServiceClosed is returned by every operation after Close or
	// Kill.
	ErrServiceClosed = errors.New("mincore: ingest service closed")
	// ErrSnapshotIncompatible is returned by NewIngestService when the
	// restored snapshot was built with different stream parameters
	// (dimension, direction count, or seed) than the service is
	// configured for — merging would silently corrupt the sketch, so the
	// operator must either match the old parameters or move the
	// snapshot aside.
	ErrSnapshotIncompatible = errors.New("mincore: snapshot incompatible with service parameters")
	// ErrQuotaExceeded is the per-tenant rate-limit shed: the tenant's
	// ingest token bucket is empty. Unlike ErrOverloaded (a process-wide
	// capacity signal) this is attributable to the caller's own traffic;
	// clients should pace to their provisioned rate and retry.
	ErrQuotaExceeded = errors.New("mincore: ingest quota exceeded")
	// ErrWatchdogKilled marks a build whose scheduler slot was forcibly
	// reclaimed because it exceeded the per-grant watchdog budget. The
	// request may still be answered from the stale fallback when one is
	// configured and within bounds.
	ErrWatchdogKilled = errors.New("mincore: build killed by watchdog")
	// ErrStorageUnavailable is the durable-ingest refusal: the
	// write-ahead log could not make the batch durable (disk full, I/O
	// error at the sync barrier), so Feed refuses to acknowledge it.
	// Nothing was ingested; the caller should back off and retry the
	// same batch. The service reports degraded until a write succeeds.
	ErrStorageUnavailable = errors.New("mincore: storage unavailable")
)

// StaleServePolicy opts a service into degraded-mode serving: when a
// fresh build fails for a retriable-at-the-caller reason (overload,
// certification failure, deadline, watchdog kill), the last successfully
// certified coreset for the same (ε, algorithm) is served instead —
// explicitly marked (Report.Stale, StalenessMeta, and a Warning header in
// mcserve), never silently, and never past the configured bounds. A zero
// bound leaves that dimension unbounded; a nil policy disables fallback.
type StaleServePolicy struct {
	// MaxAge caps the wall-clock age of a served stale result.
	MaxAge time.Duration
	// MaxPointsBehind caps how far the live stream may have advanced past
	// the retained build's certified position.
	MaxPointsBehind int
}

// WithStaleServe builds the opt-in stale-fallback policy for
// ServeOptions.StaleServe / RegistryOptions.StaleServe.
func WithStaleServe(maxAge time.Duration, maxPointsBehind int) *StaleServePolicy {
	return &StaleServePolicy{MaxAge: maxAge, MaxPointsBehind: maxPointsBehind}
}

// WALSyncMode selects when write-ahead-log appends become durable.
type WALSyncMode int

const (
	// WALSyncEveryBatch fsyncs before Feed acknowledges: the strongest
	// contract, acknowledged == durable, at one fsync per batch.
	WALSyncEveryBatch WALSyncMode = iota
	// WALSyncInterval group-commits: appends fsync at most once per
	// WALConfig.SyncInterval, so a crash loses at most the batches
	// acknowledged inside the current group-commit window.
	WALSyncInterval
	// WALSyncOff never fsyncs on append (only on segment rotation and
	// shutdown); loss on crash is bounded by the write buffer plus the
	// OS page cache.
	WALSyncOff
)

// String names the mode as the mcserve -wal-sync flag spells it.
func (m WALSyncMode) String() string {
	switch m {
	case WALSyncInterval:
		return "interval"
	case WALSyncOff:
		return "off"
	default:
		return "batch"
	}
}

// WALConfig opts a service into durable ingest via a per-tenant
// write-ahead log: Feed appends (and syncs per policy) before
// acknowledging, restore replays records past the snapshot position,
// and checkpoint success truncates the log. Requires SnapshotPath; the
// log lives in a "wal" directory next to the snapshot. Nil disables
// the WAL and keeps the legacy checkpoint-window durability contract.
type WALConfig struct {
	// Sync is the durability policy (default WALSyncEveryBatch).
	Sync WALSyncMode
	// SyncInterval is the group-commit window for WALSyncInterval
	// (default 50ms; ≤ 0 syncs every batch).
	SyncInterval time.Duration
	// SegmentBytes is the segment-rotation threshold (default 4 MiB).
	SegmentBytes int64
}

// withWALDefaults normalizes a WALConfig.
func (c *WALConfig) withDefaults() *WALConfig {
	v := *c
	if v.Sync == WALSyncInterval && v.SyncInterval <= 0 {
		v.SyncInterval = 50 * time.Millisecond
	}
	return &v
}

// walPolicy maps the public sync mode onto the log's policy.
func (c *WALConfig) walPolicy() wal.SyncPolicy {
	switch c.Sync {
	case WALSyncInterval:
		return wal.SyncInterval
	case WALSyncOff:
		return wal.SyncOff
	default:
		return wal.SyncEveryBatch
	}
}

// WorkerPanicError carries a panic recovered inside an ingest worker.
// It unwraps to ErrWorkerPanic.
type WorkerPanicError struct {
	// Worker is the index of the panicking worker.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("%v: worker %d: %v", ErrWorkerPanic, e.Worker, e.Value)
}

// Unwrap exposes ErrWorkerPanic to errors.Is.
func (e *WorkerPanicError) Unwrap() error { return ErrWorkerPanic }

// ServeOptions configures NewIngestService. Zero values select the
// documented defaults; Dim is required.
type ServeOptions struct {
	// Dim is the point dimension of the stream (required).
	Dim int
	// Eps is the target stream-sketch loss used to size the direction
	// net (default 0.05). The end-to-end loss of a served coreset
	// composes the sketch loss with the build's certified ε.
	Eps float64
	// Alpha is the assumed stream fatness for sketch sizing (default
	// 0.25, the same default the one-shot streaming API uses).
	Alpha float64
	// Directions overrides the sketch's direction count entirely
	// (0 = derive from Eps/Alpha/Dim via the β²/α relation).
	Directions int
	// Seed drives the direction net and all build randomness.
	Seed int64
	// SnapshotPath is where checkpoints are written (two generations:
	// the path itself and path+".prev"). Empty disables durability.
	SnapshotPath string
	// CheckpointInterval is the base period between automatic
	// checkpoints (default 10s; < 0 disables the loop — Checkpoint can
	// still be called manually).
	CheckpointInterval time.Duration
	// CheckpointBackoffMax caps the exponential backoff applied to the
	// checkpoint period while saves fail (default 16× the interval).
	CheckpointBackoffMax time.Duration
	// IngestWorkers is the number of ingest goroutines, each owning one
	// summary shard (default 1).
	IngestWorkers int
	// QueueSize bounds the batch queue feeding the workers; a full
	// queue sheds with ErrOverloaded (default 256 batches).
	QueueSize int
	// MaxInflightBuilds bounds concurrent Coreset builds of a standalone
	// service (default 2). Excess requests queue, up to 16 deep, and shed
	// with ErrOverloaded past that. Under a registry the shared scheduler
	// sets the bound instead.
	MaxInflightBuilds int
	// BuildWorkers is the Options.Workers value for served builds
	// (0 = GOMAXPROCS).
	BuildWorkers int
	// BuildCache bounds the cache of served coresets, keyed by (stream
	// position, quantized ε, algorithm) — advancing the stream changes
	// the position, so ingest invalidates every cached result
	// automatically. Concurrent identical requests share one underlying
	// build via singleflight. 0 selects the default capacity (32
	// entries); negative disables caching.
	BuildCache int
	// Logger receives the service's structured logs: checkpoint
	// failures and backoff, recovered worker panics, shed batches and
	// builds. Nil keeps the library default of discarding everything.
	Logger *slog.Logger
	// Tenant, when non-empty, labels this service's metric series with
	// tenant=<id> and its log records with the tenant id. Empty leaves
	// the series unlabeled.
	Tenant string
	// QuotaPointsPerSec caps the tenant's sustained ingest rate with a
	// token bucket; excess points shed with ErrQuotaExceeded. 0 disables
	// the quota.
	QuotaPointsPerSec float64
	// QuotaBurst is the token-bucket capacity in points (0 derives
	// max(1, QuotaPointsPerSec)). A single Feed larger than the burst
	// can never pass the quota.
	QuotaBurst int
	// StaleServe opts into degraded-mode serving from the last certified
	// coreset when a fresh build fails; nil (the default) keeps hard
	// errors. See StaleServePolicy.
	StaleServe *StaleServePolicy
	// WAL opts into durable ingest: Feed appends each batch to a
	// write-ahead log (and syncs per the configured policy) before
	// acknowledging, so an acknowledged point survives any crash;
	// restore replays the log past the snapshot position. Requires
	// SnapshotPath. Nil (the default) keeps the legacy contract where
	// durability of a fed point begins at the next checkpoint.
	WAL *WALConfig

	// TraceStore, when non-nil, retains this service's startup restore
	// trace and receives the anomaly context for flight-recorder dumps.
	// Request traces themselves ride the context (obs.WithRequest) and
	// are recorded by whoever owns the request boundary — the HTTP front
	// door in mcserve. Nil disables both, at zero per-request cost.
	TraceStore *obs.TraceStore

	// sched admits builds: the registry's shared weighted-fair scheduler,
	// or, when nil, a private one-tenant scheduler with MaxInflightBuilds
	// slots. weight is the tenant's fair share in it (see clampWeight).
	sched  *buildScheduler
	weight float64
	// clock overrides time.Now for the quota bucket (tests and the
	// registry's deterministic quota tests).
	clock func() time.Time
	// flight and diagDir, set by the registry, arm the flight recorder:
	// watchdog kills and storage_unavailable transitions dump a bounded
	// diagnostic bundle to the log and (when diagDir is non-empty) to
	// disk.
	flight  *obs.FlightRecorder
	diagDir string
}

func (o *ServeOptions) withDefaults() (ServeOptions, error) {
	v := *o
	if v.Dim < 1 {
		return v, fmt.Errorf("mincore: ingest service requires Dim ≥ 1, got %d", v.Dim)
	}
	if v.Eps <= 0 || v.Eps >= 1 {
		v.Eps = 0.05
	}
	if v.Alpha <= 0 {
		v.Alpha = 0.25
	}
	if v.Directions <= 0 {
		v.Directions = stream.SuggestDirections(v.Eps, v.Alpha, v.Dim)
	}
	if v.CheckpointInterval == 0 {
		v.CheckpointInterval = 10 * time.Second
	}
	if v.CheckpointBackoffMax <= 0 {
		v.CheckpointBackoffMax = 16 * v.CheckpointInterval
	}
	if v.IngestWorkers < 1 {
		v.IngestWorkers = 1
	}
	if v.QueueSize < 1 {
		v.QueueSize = 256
	}
	if v.MaxInflightBuilds < 1 {
		v.MaxInflightBuilds = 2
	}
	if v.sched == nil {
		v.sched = newBuildScheduler(v.MaxInflightBuilds, 0, 0, nil)
	}
	if v.QuotaPointsPerSec > 0 && v.QuotaBurst < 1 {
		v.QuotaBurst = int(math.Max(1, v.QuotaPointsPerSec))
	}
	if v.clock == nil {
		v.clock = time.Now
	}
	if v.WAL != nil {
		if v.SnapshotPath == "" {
			return v, fmt.Errorf("mincore: WAL requires SnapshotPath (the log lives next to the snapshot)")
		}
		v.WAL = v.WAL.withDefaults()
	}
	return v, nil
}

// tokenBucket is the per-tenant ingest rate limiter: a classic leaky
// bucket holding up to burst tokens, refilled at rate tokens/second by
// the injected clock (deterministic under test).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now(), now: now}
}

// take consumes n tokens if available, refilling for elapsed time first.
func (tb *tokenBucket) take(n float64) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens = math.Min(tb.burst, tb.tokens+dt*tb.rate)
	}
	tb.last = now
	if tb.tokens < n {
		return false
	}
	tb.tokens -= n
	return true
}

// refund returns n tokens (capped at burst) when a batch that passed
// the quota is subsequently shed before admission — quota should only
// be charged for points actually accepted into the queue.
func (tb *tokenBucket) refund(n float64) {
	tb.mu.Lock()
	tb.tokens = math.Min(tb.burst, tb.tokens+n)
	tb.mu.Unlock()
}

// ServiceStats is a point-in-time snapshot of the service's counters.
// Every field is scoped to this one service — under a TenantRegistry
// that means per-tenant: each tenant reports its own CheckpointLag and
// cache hit/miss counts rather than a process-wide aggregate.
type ServiceStats struct {
	// Tenant is the owning tenant id ("" for a standalone service).
	Tenant string
	// Ingested counts points applied to a shard; Rejected counts points
	// shed with ErrOverloaded; Invalid counts points rejected with
	// ErrInvalidPoint; QuotaShed counts points shed with
	// ErrQuotaExceeded.
	Ingested, Rejected, Invalid, QuotaShed int64
	// WorkerPanics counts panics recovered by the ingest supervisor.
	WorkerPanics int64
	// Builds counts accepted Coreset requests; BuildsShed the ones
	// rejected by admission control.
	Builds, BuildsShed int64
	// CacheHits counts Coreset requests answered from the served-coreset
	// cache (including singleflight followers of an in-flight identical
	// build); CacheMisses counts requests that led an underlying build.
	// Both stay 0 when the cache is disabled.
	CacheHits, CacheMisses int64
	// StaleServed counts requests answered from the stale last-good
	// fallback (always 0 without a StaleServePolicy).
	StaleServed int64
	// RestoredPoints is the stream position recovered at startup — the
	// snapshot position plus any write-ahead-log records replayed past
	// it (0 for a fresh start): producers should replay their stream
	// from this offset after a crash.
	RestoredPoints int
	// ReplayedPoints counts the points replayed from the write-ahead
	// log into the restored summary at startup (0 without a WAL).
	ReplayedPoints int
	// WALSegments and WALBytes describe the live write-ahead-log
	// footprint (both 0 without a WAL); the log is truncated after each
	// durable checkpoint, so growth here means checkpoints are failing
	// or lagging.
	WALSegments int
	WALBytes    int64
	// StorageDegraded is set while the last WAL append or sync failed:
	// Feed is refusing to acknowledge batches with
	// ErrStorageUnavailable. One successful write clears it.
	StorageDegraded bool
	// CheckpointGeneration and CheckpointPoints describe the last
	// durable generation; CheckpointFailures counts consecutive save
	// failures (resets on success).
	CheckpointGeneration uint64
	CheckpointPoints     int
	CheckpointFailures   int
	// Degraded is set once CheckpointFailures reaches the degraded
	// threshold (degradedCheckpointFailures consecutive failed saves):
	// the service still ingests and serves, but its durability window is
	// growing without bound. Surfaced per tenant by /readyz and /v1/stats.
	Degraded bool
	// LastCheckpoint is when the last durable generation was written;
	// CheckpointLag is the time elapsed since then (0 until the first
	// generation exists) — the staleness window operators alert on.
	LastCheckpoint time.Time
	CheckpointLag  time.Duration
	// LastError is the most recent worker panic or checkpoint failure
	// (nil when healthy).
	LastError error
}

// shard is one worker's private summary; the lock serializes the
// owner's writes with merge-time reads.
type shard struct {
	mu  sync.Mutex
	sum *stream.Summary
}

// IngestService is a supervised, durable, resource-bounded ingest loop
// over the streaming summary. Create with NewIngestService, feed with
// Feed, query with Coreset/Summary, and stop with Close (graceful:
// drains the queue and writes a final checkpoint) or Kill (simulated
// crash: abandons everything unflushed).
type IngestService struct {
	opts ServeOptions
	log  *slog.Logger
	met  serviceMetrics

	queue chan [][]float64
	quota *tokenBucket // nil when no ingest quota is configured

	base      *stream.Summary // restored snapshot, read-only (nil = fresh)
	restoredN int
	replayedN int // points replayed from the WAL into base at startup
	shards    []*shard
	store     *snapshot.Store // nil when durability is disabled

	// wal, when non-nil, is the durable-ingest write-ahead log. walMu
	// serializes every log operation AND the queue send that follows a
	// successful append, so the append order and the queue order agree
	// and a post-append queue send can never block (capacity is checked
	// under the same lock).
	walMu       sync.Mutex
	wal         *wal.Log
	walFailed   atomic.Bool // last WAL write failed; Feed refuses to ack
	walAppends  atomic.Int64
	walReplayed atomic.Int64

	ctx      context.Context
	cancel   context.CancelFunc
	workerWG sync.WaitGroup
	ckptWG   sync.WaitGroup

	feedMu sync.RWMutex // closed+queue lifecycle vs concurrent Feed
	closed bool

	ckptMu       sync.Mutex
	lastCkpt     snapshot.Meta
	lastCkptN    int
	ckptFailures int

	ingested, rejected, invalid atomic.Int64
	quotaShed                   atomic.Int64
	panics, builds, shed        atomic.Int64
	cacheHits, cacheMisses      atomic.Int64
	lastErr                     atomic.Pointer[errBox]

	// served caches built coresets keyed by (stream position, quantized
	// ε, algorithm); nil when disabled. Ingest advances the stream
	// position, so every cached entry is invalidated automatically.
	served *resultCache[serveKey]

	// stale retains the last certified build per (quantized ε, algorithm)
	// for degraded-mode serving — unlike the serve cache its key carries
	// no stream position, so ingest does not invalidate it; the policy's
	// bounds do. nil without a StaleServePolicy.
	staleMu     sync.Mutex
	stale       map[staleKey]*staleEntry
	staleServed atomic.Int64

	// panicHook, when set (tests only), runs inside the worker for every
	// point before it is fed — the injection point for supervision tests.
	panicHook func([]float64)
	// buildHook, when set (tests only), runs inside buildServed after the
	// slot is granted, under the grant's context — the injection point for
	// hung-build watchdog tests.
	buildHook func(context.Context)
	// walCrashHook, when set (tests only), runs inside Feed after the WAL
	// append succeeded but before the batch is enqueued and acknowledged —
	// the post-append-pre-ack crash point. A non-nil return aborts Feed
	// with that error: the batch is durable but never acknowledged, so a
	// restore may legitimately be AHEAD of the last ack.
	walCrashHook func() error

	// restoreRT traces startup restoration (snapshot load + WAL replay)
	// while NewIngestService runs; the finished trace is recorded into
	// the TraceStore and the field cleared before the constructor
	// returns. Nil when no TraceStore is configured.
	restoreRT *obs.RequestTrace
}

// staleKey identifies one retained last-good build. No stream position:
// staleness is bounded by the policy, not invalidated by ingest.
type staleKey struct {
	qeps int64
	algo Algorithm
}

// staleEntry is one retained certified build plus its provenance.
type staleEntry struct {
	q       *Coreset // canonical snapshot; serves clone from it
	builtAt time.Time
	streamN int
}

type errBox struct{ err error }

// NewIngestService validates opts, restores the newest decodable
// snapshot generation when SnapshotPath names one (falling back a
// generation on a torn write), and starts the ingest workers and the
// checkpoint loop. A snapshot written with different stream parameters
// returns ErrSnapshotIncompatible; a present-but-unusable snapshot pair
// returns the loader's typed error so the operator decides rather than
// silently starting empty.
func NewIngestService(opts ServeOptions) (*IngestService, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	logger := o.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	log := obs.Component(logger, "ingest-service")
	if o.Tenant != "" {
		log = log.With(slog.String("tenant", o.Tenant))
	}
	s := &IngestService{
		opts:  o,
		log:   log,
		met:   newServiceMetrics(o.Tenant),
		queue: make(chan [][]float64, o.QueueSize),
	}
	if o.QuotaPointsPerSec > 0 {
		s.quota = newTokenBucket(o.QuotaPointsPerSec, o.QuotaBurst, o.clock)
	}
	if n := cacheCapacity(o.BuildCache, defaultServeCacheSize); n > 0 {
		s.served = newResultCache[serveKey](n, s.met.cache)
	}
	if o.StaleServe != nil {
		s.stale = make(map[staleKey]*staleEntry)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if o.TraceStore != nil {
		// The restore journey gets a trace of its own, retained in the
		// store under the route "restore": span tree shape (snapshot-load,
		// wal-replay) and trace ID are then assertable after the fact,
		// exactly like a served request's.
		s.restoreRT = obs.StartRequest("restore", "")
	}

	if o.SnapshotPath != "" {
		s.store = snapshot.NewStore(o.SnapshotPath)
		loadSpan := s.restoreRT.StartChild("snapshot-load")
		sum, meta, err := s.store.Load()
		switch {
		case err == nil:
			loadSpan.SetAttr("generation", strconv.FormatUint(meta.Generation, 10))
			loadSpan.SetAttr("points", strconv.Itoa(sum.N()))
			// The restored summary must merge with live shards: probe
			// against a fresh summary of the configured parameters.
			probe := stream.NewSummary(o.Directions, o.Dim, o.Seed)
			if merr := probe.Merge(sum); merr != nil {
				return nil, fmt.Errorf("%w: %v", ErrSnapshotIncompatible, merr)
			}
			s.base = sum
			s.restoredN = sum.N()
			s.ckptMu.Lock()
			s.lastCkpt = meta
			s.lastCkptN = sum.N()
			s.ckptMu.Unlock()
			s.log.Info("restored snapshot",
				slog.Uint64("generation", meta.Generation),
				slog.Int("points", sum.N()),
				slog.String("path", o.SnapshotPath))
		case errors.Is(err, os.ErrNotExist):
			// Fresh start.
			loadSpan.SetAttr("outcome", "fresh")
		default:
			return nil, err
		}
		loadSpan.End()
	}
	if o.WAL != nil {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}

	s.shards = make([]*shard, o.IngestWorkers)
	for i := range s.shards {
		s.shards[i] = &shard{sum: stream.NewSummary(o.Directions, o.Dim, o.Seed)}
	}
	for i := range s.shards {
		s.workerWG.Add(1)
		go s.worker(i)
	}
	if s.store != nil && o.CheckpointInterval > 0 {
		s.ckptWG.Add(1)
		go s.checkpointLoop()
	}
	if rt := s.restoreRT; rt != nil {
		rt.Root.SetAttr("restored_points", strconv.Itoa(s.restoredN))
		rt.Root.End()
		o.TraceStore.Add(&obs.TraceRecord{
			ID:        rt.ID,
			Tenant:    o.Tenant,
			Route:     "restore",
			Start:     rt.Root.Start,
			Duration:  rt.Root.Duration,
			Anomalies: rt.Anomalies(),
			Trace:     &obs.Trace{Root: rt.Root},
		})
		s.restoreRT = nil
	}
	return s, nil
}

// WALDir returns the write-ahead-log directory for a snapshot path.
func WALDir(snapshotPath string) string {
	return filepath.Join(filepath.Dir(snapshotPath), "wal")
}

// openWAL opens (or creates) the service's write-ahead log, repairs any
// torn tail, replays records past the restored snapshot position into
// the base summary, and aligns the log with the restored position. The
// restored stream is exactly what was durable: snapshot ∪ replayable
// log suffix — byte-identical to an uninterrupted run because replay is
// idempotent by sequence number.
func (s *IngestService) openWAL() error {
	o := s.opts
	l, err := wal.Open(wal.Options{
		Dir:          WALDir(o.SnapshotPath),
		Dim:          o.Dim,
		Directions:   o.Directions,
		Seed:         o.Seed,
		SegmentBytes: o.WAL.SegmentBytes,
		Policy:       o.WAL.walPolicy(),
		Interval:     o.WAL.SyncInterval,
		OnFsync: func(d time.Duration) {
			s.met.walFsyncs.Inc()
			s.met.walFsyncDuration.Observe(d.Seconds())
		},
		Now: o.clock,
	})
	if err != nil {
		return fmt.Errorf("mincore: wal open: %w", err)
	}
	afterSeq := uint64(s.restoredN)
	if l.LastSeq() > afterSeq {
		if s.base == nil {
			if l.OldestSeq() > 0 {
				l.Close()
				return fmt.Errorf("%w: no snapshot but the log starts at seq %d — points 0..%d are unrecoverable",
					wal.ErrBadLog, l.OldestSeq(), l.OldestSeq())
			}
			s.base = stream.NewSummary(o.Directions, o.Dim, o.Seed)
		} else if oldest := l.OldestSeq(); oldest > afterSeq {
			// The restore landed on a generation older than the log's
			// oldest record — e.g. a torn current generation fell back
			// to ".prev" after a checkpoint had already truncated the
			// log through the newer position. Points afterSeq..oldest
			// were acknowledged but exist in neither half of the durable
			// pair; replaying across the hole would silently lose them
			// while reporting the log's end as the restored position, so
			// producers would never re-send the gap. Fail as ErrBadLog:
			// the recovery ladder drops the log and restores to the
			// snapshot position, and producers replay from there.
			l.Close()
			return fmt.Errorf("%w: snapshot restored position %d but the log starts at seq %d — acknowledged points %d..%d are unrecoverable from the log",
				wal.ErrBadLog, afterSeq, oldest, afterSeq, oldest)
		}
		replaySpan := s.restoreRT.StartChild("wal-replay")
		delivered, pos, err := l.Replay(afterSeq, func(batch [][]float64) error {
			for _, p := range batch {
				if ferr := s.base.Feed(p); ferr != nil {
					return ferr
				}
			}
			return nil
		})
		if err != nil {
			l.Close()
			return fmt.Errorf("mincore: wal replay: %w", err)
		}
		replaySpan.SetAttr("replayed_points", strconv.FormatUint(delivered, 10))
		replaySpan.SetAttr("position", strconv.FormatUint(pos, 10))
		replaySpan.End()
		s.replayedN = int(delivered)
		s.restoredN = int(pos)
		s.walReplayed.Add(int64(delivered))
		s.met.walReplayedPoints.Add(delivered)
		s.log.Info("replayed write-ahead log",
			slog.Uint64("points", delivered),
			slog.Int("restored_position", s.restoredN))
	}
	if err := l.SetStart(uint64(s.restoredN)); err != nil {
		l.Close()
		return fmt.Errorf("mincore: wal align: %w", err)
	}
	s.wal = l
	s.publishWALStats(l.Stats())
	return nil
}

// flightDump emits a flight-recorder bundle for this service's tenant.
// No-op unless the registry armed the recorder; rt (the in-flight
// request, may be nil) becomes the bundle's trigger slot.
func (s *IngestService) flightDump(kind string, rt *obs.RequestTrace) {
	s.opts.flight.Dump(kind, s.opts.Tenant, s.opts.diagDir, rt.Snapshot())
}

// publishWALStats pushes the log's footprint gauges.
func (s *IngestService) publishWALStats(st wal.Stats) {
	s.met.walSegments.Set(int64(st.Segments))
	s.met.walBytes.Set(st.Bytes)
}

// Feed validates and enqueues a batch of points for ingestion. Points
// are deep-copied before return, so the caller may reuse its buffers.
// A NaN/Inf coordinate or a point of the wrong dimension rejects the
// whole batch with ErrInvalidPoint (nothing is enqueued); a full queue
// sheds the batch with ErrOverloaded.
//
// Without a WAL, ingestion is asynchronous — durability of a fed point
// begins at the next checkpoint. With ServeOptions.WAL set, the batch
// is appended to the write-ahead log (and synced per the configured
// policy) before Feed returns: under WALSyncEveryBatch a nil return
// means the batch is durable; a failed append or sync refuses the
// batch with ErrStorageUnavailable and nothing is ingested.
func (s *IngestService) Feed(pts ...Point) error {
	return s.FeedCtx(context.Background(), pts...)
}

// FeedCtx is Feed with a request context: when ctx carries a request
// trace (obs.WithRequest), the admission decision — quota, WAL
// append+fsync, queue admission — is recorded as spans under it, and
// the end-to-end acknowledgement latency lands in
// mincore_ingest_ack_seconds with the trace ID as its exemplar. The
// ingestion itself stays asynchronous (Feed's durability contract is
// unchanged); ctx is not a cancellation handle here, only a trace
// carrier.
func (s *IngestService) FeedCtx(ctx context.Context, pts ...Point) error {
	if len(pts) == 0 {
		return nil
	}
	start := time.Now()
	span := obs.StartSpan(ctx, "ingest-admit")
	span.SetAttr("points", strconv.Itoa(len(pts)))
	err := s.feedAdmit(ctx, pts)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	s.met.ackDuration.ObserveExemplar(time.Since(start).Seconds(), obs.TraceIDOf(ctx))
	return err
}

func (s *IngestService) feedAdmit(ctx context.Context, pts []Point) error {
	batch := make([][]float64, len(pts))
	for i, p := range pts {
		if err := validatePoint(p, s.opts.Dim, i); err != nil {
			s.invalid.Add(int64(len(pts)))
			s.met.ingestInvalid.Add(uint64(len(pts)))
			return err
		}
		batch[i] = geom.Vector(p).Clone()
	}
	s.feedMu.RLock()
	defer s.feedMu.RUnlock()
	if s.closed {
		return ErrServiceClosed
	}
	// Quota is charged only for points actually admitted: the check runs
	// after the closed check, and a queue-full shed refunds its tokens —
	// otherwise a paced client would be double-penalized under overload,
	// quota-blocked for points that were never ingested.
	if s.quota != nil && !s.quota.take(float64(len(pts))) {
		s.quotaShed.Add(int64(len(pts)))
		s.met.quotaShed.Add(uint64(len(pts)))
		s.log.Debug("ingest quota exhausted; batch shed",
			slog.Int("points", len(pts)),
			slog.Float64("rate", s.opts.QuotaPointsPerSec))
		return fmt.Errorf("%w: %g points/s (burst %d)", ErrQuotaExceeded,
			s.opts.QuotaPointsPerSec, s.opts.QuotaBurst)
	}
	if s.wal != nil {
		return s.feedDurable(ctx, batch)
	}
	select {
	case s.queue <- batch:
		s.met.ingestBatches.Inc()
		s.met.queueDepth.Set(int64(len(s.queue)))
		return nil
	default:
		if s.quota != nil {
			s.quota.refund(float64(len(pts)))
		}
		s.rejected.Add(int64(len(pts)))
		s.met.ingestShed.Add(uint64(len(pts)))
		s.log.Debug("ingest queue full; batch shed",
			slog.Int("points", len(pts)),
			slog.Int("queue_size", s.opts.QueueSize))
		return fmt.Errorf("%w: ingest queue full (%d batches)", ErrOverloaded, s.opts.QueueSize)
	}
}

// feedDurable is Feed's WAL path: append (and sync per policy) BEFORE
// enqueueing, so a nil return means the batch is in the log — under
// per-batch sync, durable. The caller already holds feedMu.RLock and
// has charged the quota. walMu serializes appenders, so the queue-
// capacity check and the send form one atomic admission decision: a
// shed batch never touches the log (its sequence numbers are never
// consumed) and an appended batch's send can never block.
func (s *IngestService) feedDurable(ctx context.Context, batch [][]float64) error {
	n := len(batch)
	refund := func() {
		if s.quota != nil {
			s.quota.refund(float64(n))
		}
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if len(s.queue) == cap(s.queue) {
		refund()
		s.rejected.Add(int64(n))
		s.met.ingestShed.Add(uint64(n))
		s.log.Debug("ingest queue full; batch shed before WAL append",
			slog.Int("points", n),
			slog.Int("queue_size", s.opts.QueueSize))
		return fmt.Errorf("%w: ingest queue full (%d batches)", ErrOverloaded, s.opts.QueueSize)
	}
	wspan := obs.StartSpan(ctx, "wal-append")
	appendStart := time.Now()
	seq, err := s.wal.Append(batch)
	s.met.walAppendDuration.ObserveExemplar(time.Since(appendStart).Seconds(), obs.TraceIDOf(ctx))
	if err != nil {
		wspan.SetAttr("error", err.Error())
		wspan.End()
		refund()
		// The flight recorder fires only on the healthy→failed transition,
		// not on every refused batch, so a dead disk produces one bundle
		// per outage rather than one per request.
		if !s.walFailed.Swap(true) {
			rt := obs.RequestFrom(ctx)
			rt.MarkAnomaly(obs.FlightStorage)
			s.flightDump(obs.FlightStorage, rt)
		} else {
			obs.RequestFrom(ctx).MarkAnomaly(obs.FlightStorage)
		}
		s.met.walAppendFailures.Inc()
		s.lastErr.Store(&errBox{err: fmt.Errorf("%w: %v", ErrStorageUnavailable, err)})
		s.log.Warn("WAL append failed; batch refused without ack",
			slog.Int("points", n),
			slog.Any("error", err))
		return fmt.Errorf("%w: wal append: %v", ErrStorageUnavailable, err)
	}
	wspan.SetAttr("seq", strconv.FormatUint(seq, 10))
	wspan.End()
	s.walFailed.Store(false)
	s.walAppends.Add(1)
	s.met.walAppends.Inc()
	s.met.walAppendedPoints.Add(uint64(n))
	if s.walCrashHook != nil {
		if err := s.walCrashHook(); err != nil {
			// Crash point: the batch is in the log but will never be
			// acknowledged — restore may exceed the last ack, never trail it.
			refund()
			return err
		}
	}
	s.queue <- batch // cannot block: capacity was checked under walMu
	s.met.ingestBatches.Inc()
	s.met.queueDepth.Set(int64(len(s.queue)))
	return nil
}

// validatePoint applies New's input contract to one stream point.
func validatePoint(p Point, d, i int) error {
	if len(p) != d {
		return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrInvalidPoint, i, len(p), d)
	}
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: point %d coordinate %d is %v", ErrInvalidPoint, i, j, v)
		}
	}
	return nil
}

// worker is one supervised ingest goroutine: it applies batches to its
// own shard and converts panics into typed, counted errors instead of
// letting them tear the process down.
func (s *IngestService) worker(i int) {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case batch, ok := <-s.queue:
			if !ok {
				return
			}
			s.ingestBatch(i, batch)
			s.met.queueDepth.Set(int64(len(s.queue)))
		}
	}
}

// ingestBatch applies one batch under the shard lock, recovering any
// panic into a *WorkerPanicError. The shard summary stays valid after a
// panic — champion slots are monotone, so a partially applied point can
// only strengthen the sketch — but the rest of the batch is dropped and
// should be replayed by the producer.
func (s *IngestService) ingestBatch(i int, batch [][]float64) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.met.workerPanics.Inc()
			pe := &WorkerPanicError{Worker: i, Value: r, Stack: debug.Stack()}
			s.lastErr.Store(&errBox{err: pe})
			s.log.Error("ingest worker panic recovered; batch dropped",
				slog.Int("worker", i),
				slog.Any("panic", r),
				slog.Int("batch_points", len(batch)))
		}
	}()
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, p := range batch {
		if s.panicHook != nil {
			s.panicHook(p)
		}
		if err := sh.sum.Feed(p); err != nil {
			// Feed pre-validated the batch; a rejection here means the
			// point mutated in flight — count it, keep the shard sound.
			s.invalid.Add(1)
			s.met.ingestInvalid.Inc()
			continue
		}
		s.ingested.Add(1)
		s.met.ingestPoints.Inc()
	}
}

// mergedSummary composes the restored base and every live shard into a
// fresh summary — the mergeable-coreset property makes the composition
// exact regardless of how points were routed across shards.
func (s *IngestService) mergedSummary() (*stream.Summary, error) {
	out := stream.NewSummary(s.opts.Directions, s.opts.Dim, s.opts.Seed)
	if s.base != nil {
		if err := out.Merge(s.base); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := out.Merge(sh.sum)
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Summary returns the current merged stream summary as a StreamSummary
// (a private copy; feeding it does not affect the service).
func (s *IngestService) Summary() (*StreamSummary, error) {
	sum, err := s.mergedSummary()
	if err != nil {
		return nil, err
	}
	return &StreamSummary{s: sum}, nil
}

// StreamN returns the total stream position: points restored from the
// snapshot plus points ingested since.
func (s *IngestService) StreamN() int {
	n := s.restoredN
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.sum.N()
		sh.mu.Unlock()
	}
	return n
}

// RestoredPoints returns the stream position recovered at startup — the
// snapshot position plus any WAL records replayed past it; producers
// should replay from this offset after a crash (replay past it is
// harmless — maxima are duplicate-insensitive).
func (s *IngestService) RestoredPoints() int { return s.restoredN }

// ReplayedPoints returns how many points were replayed from the
// write-ahead log into the restored summary at startup.
func (s *IngestService) ReplayedPoints() int { return s.replayedN }

// StorageDegraded reports whether the last WAL append or sync failed
// and Feed is refusing to acknowledge batches. One successful write
// clears it.
func (s *IngestService) StorageDegraded() bool { return s.walFailed.Load() }

// Checkpoint writes the current merged summary as the next durable
// generation. It is safe to call concurrently with ingestion and with
// the automatic checkpoint loop. Returns nil when durability is
// disabled.
func (s *IngestService) Checkpoint() error {
	return s.CheckpointCtx(context.Background())
}

// CheckpointCtx is Checkpoint with a request context: when ctx carries
// a request trace, the save is recorded as a "checkpoint" span whose
// attrs carry the durable provenance (generation, points) the rest of
// the trace's builds will reference. ctx is a trace carrier only; the
// save itself is not cancellable.
func (s *IngestService) CheckpointCtx(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	span := obs.StartSpan(ctx, "checkpoint")
	defer span.End()
	err := s.checkpointSave(span)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return err
}

func (s *IngestService) checkpointSave(span *obs.Span) error {
	start := time.Now()
	sum, err := s.mergedSummary()
	if err != nil {
		return err
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	meta, err := s.store.Save(sum)
	if err != nil {
		s.ckptFailures++
		s.met.ckptFailures.Inc()
		s.lastErr.Store(&errBox{err: fmt.Errorf("mincore: checkpoint: %w", err)})
		s.log.Warn("checkpoint save failed",
			slog.Int("consecutive_failures", s.ckptFailures),
			slog.Any("error", err))
		return err
	}
	s.lastCkpt = meta
	s.lastCkptN = sum.N()
	s.ckptFailures = 0
	span.SetAttr("generation", strconv.FormatUint(meta.Generation, 10))
	span.SetAttr("points", strconv.Itoa(sum.N()))
	s.met.ckptSaves.Inc()
	s.met.ckptDuration.Observe(time.Since(start).Seconds())
	s.log.Debug("checkpoint saved",
		slog.Uint64("generation", meta.Generation),
		slog.Int("points", sum.N()),
		slog.Duration("took", time.Since(start)))
	s.truncateWAL(uint64(sum.N()))
	return nil
}

// truncateWAL drops log data covered by a durable checkpoint at stream
// position n. Failure is non-fatal: replay already skips records at or
// below the snapshot position, so an un-truncated segment only costs
// disk until the next successful truncation — exactly the behavior a
// crash mid-truncate relies on.
func (s *IngestService) truncateWAL(n uint64) {
	if s.wal == nil {
		return
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.wal.TruncateThrough(n); err != nil {
		s.log.Warn("WAL truncation failed (log will be retried next checkpoint)",
			slog.Uint64("through_seq", n),
			slog.Any("error", err))
	} else {
		s.met.walTruncations.Inc()
	}
	s.publishWALStats(s.wal.Stats())
}

// checkpointLoop drives periodic checkpoints, doubling the period after
// each failed save (up to CheckpointBackoffMax) so a sick disk is not
// hammered, and restoring the base period on success.
func (s *IngestService) checkpointLoop() {
	defer s.ckptWG.Done()
	base := s.opts.CheckpointInterval
	interval := base
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-timer.C:
			if err := s.supervisedCheckpoint(); err != nil {
				interval *= 2
				if interval > s.opts.CheckpointBackoffMax {
					interval = s.opts.CheckpointBackoffMax
				}
				s.log.Warn("checkpoint loop backing off",
					slog.Duration("next_attempt_in", interval),
					slog.Any("error", err))
			} else {
				interval = base
			}
			timer.Reset(interval)
		}
	}
}

// supervisedCheckpoint isolates panics out of the checkpoint loop the
// same way ingestBatch does for workers.
func (s *IngestService) supervisedCheckpoint() (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.met.workerPanics.Inc()
			pe := &WorkerPanicError{Worker: -1, Value: r, Stack: debug.Stack()}
			s.lastErr.Store(&errBox{err: pe})
			s.log.Error("checkpoint panic recovered", slog.Any("panic", r))
			err = pe
		}
	}()
	return s.Checkpoint()
}

// defaultServeCacheSize is the served-coreset cache capacity
// ServeOptions.BuildCache = 0 selects.
const defaultServeCacheSize = 32

// degradedCheckpointFailures is the consecutive-failed-save threshold at
// which a service reports Degraded: one or two failures are routine disk
// hiccups the backoff loop absorbs; at three the durability window is
// compounding and operators should be paged.
const degradedCheckpointFailures = 3

// serveKey identifies one served build: the stream position the request
// saw (ingest advances it, invalidating older entries), the quantized ε,
// and the algorithm.
type serveKey struct {
	streamN int
	qeps    int64
	algo    Algorithm
}

// Coreset builds a certified ε-coreset of the stream seen so far, under
// admission control: builds wait for a slot in the service's scheduler,
// and requests past its queue bound shed with ErrOverloaded. ctx —
// including its deadline — propagates into the whole verify-and-repair
// pipeline via CoresetCtx. The returned report carries the durable-
// checkpoint provenance of the stream state it was built from. An
// (ε, algorithm) pair CoresetCtx would reject fails before the cache or
// the scheduler sees it.
//
// Unless disabled with ServeOptions.BuildCache, results are cached per
// (stream position, quantized ε, algorithm) and concurrent identical
// requests share one underlying build; cached results (marked
// Report.CacheHit, with fresh checkpoint provenance) bypass admission
// control entirely — only the single underlying build takes a scheduler
// slot.
//
// The build refines the sketch's champion points with the batch
// algorithms, so the end-to-end loss against the full stream composes
// the sketch's bound with the certified ε of the build.
func (s *IngestService) Coreset(ctx context.Context, eps float64, algo Algorithm) (*Coreset, error) {
	s.feedMu.RLock()
	closed := s.closed
	s.feedMu.RUnlock()
	if closed {
		return nil, ErrServiceClosed
	}
	if err := validateRequest(eps, algo); err != nil {
		return nil, err
	}
	q, err := s.coresetFresh(ctx, eps, algo)
	if err != nil {
		if errors.Is(err, ErrUncertified) {
			obs.RequestFrom(ctx).MarkAnomaly("uncertified")
		}
		// The stale fallback runs outside the serve cache's singleflight,
		// so a degraded answer is never stored as if it were fresh; each
		// follower of a failed flight degrades (or not) on its own.
		if sq, ok := s.tryStale(ctx, eps, algo, err); ok {
			return sq, nil
		}
	}
	return q, err
}

// coresetFresh is the non-degraded serve path: the serve-layer cache and
// singleflight over buildServed.
func (s *IngestService) coresetFresh(ctx context.Context, eps float64, algo Algorithm) (*Coreset, error) {
	if s.served == nil {
		return s.buildServed(ctx, eps, algo)
	}
	key := serveKey{streamN: s.StreamN(), qeps: quantizeEps(eps), algo: algo}
	q, hit, err := s.served.do(ctx, key, func(ctx context.Context) (*Coreset, error) {
		return s.buildServed(ctx, eps, algo)
	})
	if hit {
		s.cacheHits.Add(1)
		if q != nil && q.Report != nil {
			// The cached snapshot's provenance was dropped; a hit gets the
			// provenance of now, which is what the caller observes.
			q.Report.Checkpoint = s.checkpointMeta(key.streamN)
		}
	} else {
		s.cacheMisses.Add(1)
	}
	return q, err
}

// staleEligible reports whether a fresh-build failure may fall back to
// the retained last-good coreset: capacity and certification failures,
// the caller's own deadline, and watchdog kills. A cancelled caller is
// never eligible (nobody is waiting for the answer), nor are input or
// lifecycle errors (they would be identical on the stale path).
func staleEligible(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrUncertified) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrWatchdogKilled)
}

// staleReason maps the fresh-build failure onto the StalenessMeta.Reason
// vocabulary.
func staleReason(err error) string {
	switch {
	case errors.Is(err, ErrWatchdogKilled):
		return "watchdog_kill"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrUncertified):
		return "uncertified"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	return "error"
}

// retainLastGood stores a deep snapshot of a freshly certified build as
// the (ε, algorithm) fallback. Entries are only ever replaced by newer
// builds, so provenance is monotone in stream position.
func (s *IngestService) retainLastGood(eps float64, algo Algorithm, q *Coreset, streamN int) {
	e := &staleEntry{q: snapshotCoreset(q), builtAt: s.opts.clock(), streamN: streamN}
	s.staleMu.Lock()
	s.stale[staleKey{qeps: quantizeEps(eps), algo: algo}] = e
	s.staleMu.Unlock()
}

// tryStale serves the retained last-good coreset for (ε, algorithm) if
// the policy allows: the fresh failure must be staleEligible and the
// entry within the configured age and points-behind bounds. The result
// is explicitly marked (Report.Stale, Report.Staleness) and counted —
// degraded mode is never silent.
func (s *IngestService) tryStale(ctx context.Context, eps float64, algo Algorithm, cause error) (*Coreset, bool) {
	pol := s.opts.StaleServe
	if pol == nil || !staleEligible(cause) {
		return nil, false
	}
	s.staleMu.Lock()
	e := s.stale[staleKey{qeps: quantizeEps(eps), algo: algo}]
	s.staleMu.Unlock()
	if e == nil {
		return nil, false
	}
	age := s.opts.clock().Sub(e.builtAt)
	behind := s.StreamN() - e.streamN
	if pol.MaxAge > 0 && age > pol.MaxAge {
		return nil, false
	}
	if pol.MaxPointsBehind > 0 && behind > pol.MaxPointsBehind {
		return nil, false
	}
	q := snapshotCoreset(e.q)
	if q.Report != nil {
		q.Report.Stale = true
		q.Report.Staleness = &StalenessMeta{
			BuiltAt:      e.builtAt,
			Age:          age,
			StreamN:      e.streamN,
			PointsBehind: behind,
			Reason:       staleReason(cause),
		}
		// Provenance of the retained build's stream position, not the
		// live one — the certified ε holds there.
		q.Report.Checkpoint = s.checkpointMeta(e.streamN)
	}
	// The degraded decision is an anomaly on the request trace: the
	// span captures why the fresh build failed and what was served
	// instead, and the anomaly flag pins the trace in the store.
	if rt := obs.RequestFrom(ctx); rt != nil {
		rt.MarkAnomaly("stale_serve")
		sspan := rt.StartChild("stale-serve")
		sspan.SetAttr("reason", staleReason(cause))
		sspan.SetAttr("age", age.String())
		sspan.SetAttr("points_behind", strconv.Itoa(behind))
		sspan.End()
	}
	s.staleServed.Add(1)
	s.met.staleServes.Inc()
	s.log.Warn("serving stale coreset (degraded mode)",
		slog.String("reason", staleReason(cause)),
		slog.Duration("age", age),
		slog.Int("points_behind", behind),
		slog.Any("error", cause))
	return q, true
}

// buildServed runs one uncached served build under admission control:
// requests queue in the service's scheduler, bounded per tenant, and are
// granted in deficit round-robin order.
func (s *IngestService) buildServed(ctx context.Context, eps float64, algo Algorithm) (*Coreset, error) {
	waitStart := time.Now()
	bctx, grant, err := s.opts.sched.acquire(ctx, s.opts.Tenant, s.opts.weight)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.shed.Add(1)
			s.met.serveShed.Inc()
			s.log.Debug("build request shed by scheduler", slog.Any("error", err))
		}
		return nil, err
	}
	s.met.schedQueueWait.ObserveExemplar(time.Since(waitStart).Seconds(), obs.TraceIDOf(ctx))
	s.met.schedGrants.Inc()
	defer grant.release()
	// The build runs under the grant's context so a watchdog kill cancels
	// it mid-pipeline.
	ctx = bctx
	grant.startSpan.End()
	s.builds.Add(1)
	s.met.serveBuilds.Inc()
	buildStart := time.Now()
	defer func() { s.met.serveBuildDuration.ObserveExemplar(time.Since(buildStart).Seconds(), obs.TraceIDOf(ctx)) }()
	bspan := obs.StartSpan(ctx, "build")
	defer bspan.End()
	bspan.SetAttr("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	bspan.SetAttr("algo", string(algo))

	if s.buildHook != nil {
		s.buildHook(ctx)
	}
	sum, err := s.mergedSummary()
	if err != nil {
		return nil, err
	}
	champs := sum.Coreset()
	if len(champs) == 0 {
		return nil, fmt.Errorf("%w: no points ingested yet", ErrEmptyInput)
	}
	pts := make([]Point, len(champs))
	for i, p := range champs {
		pts[i] = Point(p)
	}
	// The Coreseter is single-use (the champion set changes with the
	// stream), so its own build cache would never hit; the serve-layer
	// cache above is the one that carries reuse.
	cs, err := New(pts, WithSeed(s.opts.Seed), WithWorkers(s.opts.BuildWorkers), WithBuildCache(0))
	if err != nil {
		return nil, err
	}
	q, err := cs.CoresetCtx(ctx, eps, algo)
	if err != nil && errors.Is(err, context.Canceled) &&
		errors.Is(context.Cause(ctx), ErrWatchdogKilled) {
		// The pipeline reports a bare cancellation; the cause says the
		// watchdog reclaimed the slot. Surface the typed error so callers
		// (and the stale path) can tell a kill from a caller hang-up.
		err = fmt.Errorf("%w: slot budget exhausted mid-build", ErrWatchdogKilled)
	}
	if errors.Is(err, ErrWatchdogKilled) {
		rt := obs.RequestFrom(ctx)
		rt.MarkAnomaly(obs.FlightWatchdogKill)
		bspan.SetAttr("error", "watchdog_killed")
		s.flightDump(obs.FlightWatchdogKill, rt)
	}
	meta := s.checkpointMeta(sum.N())
	// Checkpoint provenance on the build span: which durable generation
	// the served stream state descends from.
	bspan.SetAttr("checkpoint_generation", strconv.FormatUint(meta.Generation, 10))
	bspan.SetAttr("stream_n", strconv.Itoa(meta.StreamN))
	if q != nil && q.Report != nil {
		q.Report.Checkpoint = meta
		// The request trace adopts the build's own span tree, linking the
		// front-door trace ID to every attempt/certify/repair span.
		if q.Report.Trace != nil {
			bspan.AttachChild(q.Report.Trace.Root)
		}
	}
	var ue *UncertifiedError
	if errors.As(err, &ue) && ue.Report != nil {
		ue.Report.Checkpoint = meta
		if ue.Report.Trace != nil {
			bspan.AttachChild(ue.Report.Trace.Root)
		}
	}
	if err == nil && s.stale != nil && q != nil && q.Report != nil && q.Report.Certified {
		s.retainLastGood(eps, algo, q, sum.N())
	}
	return q, err
}

// checkpointMeta captures the current durability provenance.
func (s *IngestService) checkpointMeta(streamN int) *CheckpointMeta {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	m := &CheckpointMeta{
		Generation: s.lastCkpt.Generation,
		SavedAt:    s.lastCkpt.SavedAt,
		Points:     s.lastCkptN,
		StreamN:    streamN,
		RestoredN:  s.restoredN,
	}
	if s.store != nil {
		m.Path = s.store.Path()
	}
	return m
}

// Stats returns a point-in-time snapshot of the service counters.
func (s *IngestService) Stats() ServiceStats {
	st := ServiceStats{
		Tenant:         s.opts.Tenant,
		Ingested:       s.ingested.Load(),
		Rejected:       s.rejected.Load(),
		Invalid:        s.invalid.Load(),
		QuotaShed:      s.quotaShed.Load(),
		WorkerPanics:   s.panics.Load(),
		Builds:         s.builds.Load(),
		BuildsShed:     s.shed.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMisses.Load(),
		StaleServed:    s.staleServed.Load(),
		RestoredPoints: s.restoredN,
		ReplayedPoints: s.replayedN,
	}
	if s.wal != nil {
		st.StorageDegraded = s.walFailed.Load()
		s.walMu.Lock()
		ws := s.wal.Stats()
		s.walMu.Unlock()
		st.WALSegments = ws.Segments
		st.WALBytes = ws.Bytes
	}
	s.ckptMu.Lock()
	st.CheckpointGeneration = s.lastCkpt.Generation
	st.CheckpointPoints = s.lastCkptN
	st.CheckpointFailures = s.ckptFailures
	st.Degraded = s.ckptFailures >= degradedCheckpointFailures || st.StorageDegraded
	st.LastCheckpoint = s.lastCkpt.SavedAt
	if !s.lastCkpt.SavedAt.IsZero() {
		st.CheckpointLag = time.Since(s.lastCkpt.SavedAt)
	}
	s.ckptMu.Unlock()
	if box := s.lastErr.Load(); box != nil {
		st.LastError = box.err
	}
	return st
}

// Close shuts the service down gracefully: no new feeds or builds are
// accepted, queued build requests fail with ErrServiceClosed, queued
// batches are drained into the shards, and a final checkpoint is written
// (its error is returned). Safe to call once; later calls return
// ErrServiceClosed.
func (s *IngestService) Close() error {
	s.feedMu.Lock()
	if s.closed {
		s.feedMu.Unlock()
		return ErrServiceClosed
	}
	s.closed = true
	close(s.queue)
	s.feedMu.Unlock()
	s.opts.sched.evict(s.opts.Tenant, ErrServiceClosed)

	s.workerWG.Wait() // drain the queue
	s.cancel()        // stop the checkpoint loop
	s.ckptWG.Wait()
	err := s.Checkpoint()
	if s.wal != nil {
		// Final sync + close AFTER the final checkpoint truncated the
		// log: everything acknowledged is now in the snapshot, and
		// whatever the truncation left behind is fsynced on the way out.
		s.walMu.Lock()
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.publishWALStats(s.wal.Stats())
		s.walMu.Unlock()
	}
	return err
}

// Kill abandons the service as a crash would: goroutines stop as soon
// as they notice, queued batches are dropped, queued build requests fail
// with ErrServiceClosed, and no final checkpoint is written — everything
// after the last durable generation is lost, exactly the window recovery
// is designed for. Used by the chaos tests; production shutdown should
// use Close.
func (s *IngestService) Kill() {
	s.feedMu.Lock()
	s.closed = true
	s.feedMu.Unlock()
	s.opts.sched.evict(s.opts.Tenant, ErrServiceClosed)
	// The queue channel is abandoned, not closed: Feed callers racing
	// Kill see the closed flag first, and unread batches become garbage.
	s.cancel()
	s.workerWG.Wait()
	s.ckptWG.Wait()
	if s.wal != nil {
		// Abandon, not Close: no final fsync, so records past the last
		// sync carry no durability promise — exactly the window the
		// sync policy bounds, as a crash losing page-cache data would.
		s.walMu.Lock()
		s.wal.Abandon()
		s.walMu.Unlock()
	}
}
