package mincore

import "mincore/internal/obs"

// Build-pipeline metrics. These sit on per-build boundaries — a handful
// of updates per certification run, never inside the LP or pair loops —
// so they are recorded unconditionally rather than behind obs.On().
var (
	mBuildAttempts = obs.Default.Counter("mincore_build_attempts_total",
		"Build attempts across first tries, retries, and fallbacks.", nil)
	mBuildRetries = obs.Default.Counter("mincore_build_retries_total",
		"Re-seeded perturbation retries taken by the repair pipeline.", nil)
	mFallbackHops = obs.Default.Counter("mincore_build_fallback_hops_total",
		"Fallback-chain hops to a different algorithm.", nil)
	mBuildsCertified = obs.Default.Counter("mincore_builds_total",
		"Completed certification pipelines by outcome.", obs.Labels{"outcome": "certified"})
	mBuildsUncertified = obs.Default.Counter("mincore_builds_total",
		"Completed certification pipelines by outcome.", obs.Labels{"outcome": "uncertified"})
)

// Build-cache metrics of the per-Coreseter memoized build cache. The
// family is labeled by layer: "coreseter" here, "serve" for the ingest
// service's cache of served coresets (see newServiceMetrics). A
// singleflight follower that joined an in-flight identical build counts
// as a hit. Per-lookup events, recorded unconditionally.
const (
	helpCacheHits      = "Memoized build cache hits (including singleflight followers), by layer."
	helpCacheMisses    = "Memoized build cache misses (each miss leads one underlying build), by layer."
	helpCacheEvictions = "Entries evicted from the memoized build cache LRU, by layer."
)

var (
	mCacheHitsBuild      = obs.Default.Counter("mincore_build_cache_hits_total", helpCacheHits, obs.Labels{"layer": "coreseter"})
	mCacheMissesBuild    = obs.Default.Counter("mincore_build_cache_misses_total", helpCacheMisses, obs.Labels{"layer": "coreseter"})
	mCacheEvictionsBuild = obs.Default.Counter("mincore_build_cache_evictions_total", helpCacheEvictions, obs.Labels{"layer": "coreseter"})
)

// buildCacheMetrics bundles the coreseter-layer cache counters.
func buildCacheMetrics() cacheMetrics {
	return cacheMetrics{hits: mCacheHitsBuild, misses: mCacheMissesBuild, evictions: mCacheEvictionsBuild}
}

// serviceMetrics bundles every service-boundary family one IngestService
// records into. newServiceMetrics resolves the bundle once at service
// creation (registration is idempotent, so re-creating a tenant id
// reuses its series), after which recording costs one atomic add.
// Solver-internal families (LP, dominance graph, SCMC, loss oracles)
// intentionally stay unlabeled — see the cardinality policy in
// DESIGN.md §11.
type serviceMetrics struct {
	ingestBatches, ingestPoints, ingestShed *obs.Counter
	ingestInvalid, quotaShed                *obs.Counter
	queueDepth                              *obs.Gauge
	workerPanics                            *obs.Counter
	ckptSaves, ckptFailures                 *obs.Counter
	ckptDuration                            *obs.Histogram
	serveBuilds, serveShed, schedGrants     *obs.Counter
	staleServes                             *obs.Counter
	serveBuildDuration                      *obs.Histogram
	schedQueueWait                          *obs.Histogram
	ackDuration                             *obs.Histogram
	cache                                   cacheMetrics
	walAppends, walAppendedPoints           *obs.Counter
	walAppendFailures, walFsyncs            *obs.Counter
	walAppendDuration, walFsyncDuration     *obs.Histogram
	walReplayedPoints, walTruncations       *obs.Counter
	walSegments, walBytes                   *obs.Gauge
}

// mTenants tracks the number of live tenants across all registries.
var mTenants = obs.Default.Gauge("mincore_tenants",
	"Live tenant streams hosted by tenant registries.", nil)

// Degraded-mode metrics. Registered at package init so the families are
// present in a scrape even before the first quarantine or kill —
// dashboards and the verify.sh leg key on family presence, not just
// samples.
var (
	mTenantsQuarantined = obs.Default.Gauge("mincore_tenants_quarantined",
		"Tenants currently quarantined (corrupt state at startup or recovery).", nil)
	mWatchdogKills = obs.Default.Counter("mincore_build_watchdog_kills_total",
		"Build slots forcibly reclaimed by the scheduler watchdog.", nil)
)

// fsyncBuckets resolve the sub-millisecond range where fdatasync on a
// healthy disk lives, up through the multi-second stalls that indicate a
// sick one; the same shape fits WAL appends and ingest acks, which are
// fsync-dominated under per-batch sync. Observations attach the
// requesting trace ID as an exemplar when one rides the context, linking
// a bucket back to a retained trace.
var fsyncBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// newServiceMetrics registers (or looks up) the series of every
// service-boundary family for one service: labeled tenant=<id> under a
// registry, unlabeled for a standalone service (tenant ""). Tenant ids
// are operator-chosen and validated, so the label cardinality is bounded
// by the number of tenants ever created in the process.
func newServiceMetrics(tenant string) serviceMetrics {
	var l obs.Labels
	cl := obs.Labels{"layer": "serve"}
	if tenant != "" {
		l = obs.Labels{"tenant": tenant}
		cl["tenant"] = tenant
	}
	return serviceMetrics{
		ingestBatches: obs.Default.Counter("mincore_ingest_batches_total",
			"Batches accepted into the ingest queue.", l),
		ingestPoints: obs.Default.Counter("mincore_ingest_points_total",
			"Points applied to the stream summary.", l),
		ingestShed: obs.Default.Counter("mincore_ingest_shed_points_total",
			"Points shed because the ingest queue was full.", l),
		ingestInvalid: obs.Default.Counter("mincore_ingest_invalid_points_total",
			"Points rejected as invalid (NaN/Inf or wrong dimension).", l),
		quotaShed: obs.Default.Counter("mincore_ingest_quota_shed_points_total",
			"Points shed because the tenant's ingest quota was exhausted.", l),
		queueDepth: obs.Default.Gauge("mincore_ingest_queue_depth",
			"Batches currently waiting in the ingest queue.", l),
		workerPanics: obs.Default.Counter("mincore_worker_panics_total",
			"Panics recovered by the ingest and checkpoint supervisors.", l),
		ckptSaves: obs.Default.Counter("mincore_checkpoint_saves_total",
			"Durable checkpoint generations written.", l),
		ckptFailures: obs.Default.Counter("mincore_checkpoint_failures_total",
			"Checkpoint save attempts that failed.", l),
		ckptDuration: obs.Default.Histogram("mincore_checkpoint_duration_seconds",
			"Wall time of checkpoint saves (merge + atomic write), in seconds.", nil, l),
		serveBuilds: obs.Default.Counter("mincore_serve_build_requests_total",
			"Coreset build requests admitted by the service.", l),
		serveShed: obs.Default.Counter("mincore_serve_builds_shed_total",
			"Coreset build requests shed by admission control.", l),
		schedGrants: obs.Default.Counter("mincore_sched_grants_total",
			"Build slots granted by the fair-share scheduler.", l),
		staleServes: obs.Default.Counter("mincore_stale_serves_total",
			"Coreset requests answered from the stale last-good fallback.", l),
		serveBuildDuration: obs.Default.Histogram("mincore_serve_build_duration_seconds",
			"Wall time of served coreset builds, in seconds.", nil, l),
		schedQueueWait: obs.Default.Histogram("mincore_sched_queue_wait_seconds",
			"Time a build request waited in the fair-share scheduler queue before its grant, in seconds.", nil, l),
		ackDuration: obs.Default.Histogram("mincore_ingest_ack_seconds",
			"End-to-end ingest acknowledgement time (validation, quota, WAL append+fsync, enqueue), in seconds.", fsyncBuckets, l),
		cache: cacheMetrics{
			hits:      obs.Default.Counter("mincore_build_cache_hits_total", helpCacheHits, cl),
			misses:    obs.Default.Counter("mincore_build_cache_misses_total", helpCacheMisses, cl),
			evictions: obs.Default.Counter("mincore_build_cache_evictions_total", helpCacheEvictions, cl),
		},
		walAppends: obs.Default.Counter("mincore_wal_appends_total",
			"Batch records appended to a write-ahead log.", l),
		walAppendedPoints: obs.Default.Counter("mincore_wal_appended_points_total",
			"Points made durable through write-ahead-log appends.", l),
		walAppendFailures: obs.Default.Counter("mincore_wal_append_failures_total",
			"Write-ahead-log appends or syncs that failed (batch not acknowledged).", l),
		walFsyncs: obs.Default.Counter("mincore_wal_fsyncs_total",
			"fsync barriers issued by the write-ahead log.", l),
		walAppendDuration: obs.Default.Histogram("mincore_wal_append_seconds",
			"Wall time of write-ahead-log appends including any policy-driven fsync, in seconds.", fsyncBuckets, l),
		walFsyncDuration: obs.Default.Histogram("mincore_wal_fsync_seconds",
			"Wall time of write-ahead-log fsync barriers, in seconds.", fsyncBuckets, l),
		walReplayedPoints: obs.Default.Counter("mincore_wal_replayed_points_total",
			"Points replayed from the write-ahead log into a restored summary.", l),
		walTruncations: obs.Default.Counter("mincore_wal_truncations_total",
			"Write-ahead-log truncations after a durable checkpoint.", l),
		walSegments: obs.Default.Gauge("mincore_wal_segments",
			"Live write-ahead-log segment files.", l),
		walBytes: obs.Default.Gauge("mincore_wal_bytes",
			"Total size of live write-ahead-log segments, in bytes.", l),
	}
}
