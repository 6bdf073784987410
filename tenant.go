package mincore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mincore/internal/obs"
	"mincore/internal/snapshot"
	"mincore/internal/wal"
)

// Multi-tenant serving. A TenantRegistry turns the one-process/one-
// stream IngestService into one-process/N-streams: each tenant is a
// fully supervised ingest service — its own sharded summary, snapshot
// store, build cache, ε defaults, and quota — while the expensive
// shared resource (concurrent certified builds) is arbitrated by a
// single weighted-fair scheduler so no tenant's ε-sweep can starve
// another (see scheduler.go). The coreset-per-instance model of the
// paper maps one-to-one onto tenants: every tenant stream is an
// independent instance with its own certified coresets, and the
// mergeable-summary property keeps each tenant's shards (and future
// cross-node shards) composable without touching any other tenant.
//
// Durability is namespaced: tenant state lives under
// <SnapshotDir>/<id>/ — a tenant.json manifest carrying the resolved
// tenant configuration, the two-generation snapshot store
// (stream.snap / stream.snap.prev), and, when RegistryOptions.WAL is
// set, the tenant's write-ahead log under <SnapshotDir>/<id>/wal/.
// NewTenantRegistry restores every manifested tenant (snapshot plus
// replayed log suffix), so a restart recovers the full fleet;
// DeleteTenant removes the tenant's directory, which is the whole of
// its on-disk footprint.

// Typed registry errors.
var (
	// ErrTenantNotFound is returned for operations on an id with no
	// live tenant (including builds queued when the tenant is deleted).
	ErrTenantNotFound = errors.New("mincore: tenant not found")
	// ErrTenantExists rejects CreateTenant for an id already hosted.
	ErrTenantExists = errors.New("mincore: tenant already exists")
	// ErrBadTenantID rejects ids outside the safe grammar
	// [a-zA-Z0-9][a-zA-Z0-9_.-]{0,63} (the id names a snapshot
	// subdirectory and a metric label value).
	ErrBadTenantID = errors.New("mincore: bad tenant id")
	// ErrRegistryClosed is returned by every registry operation after
	// Close.
	ErrRegistryClosed = errors.New("mincore: tenant registry closed")
	// ErrTenantQuarantined marks a tenant whose on-disk state (manifest
	// or snapshot) was found corrupt: the tenant is not serving, but the
	// rest of the fleet is. Quarantined tenants are inspectable via
	// Health/QuarantineInfo and repairable in place via RecoverTenant —
	// no process restart required.
	ErrTenantQuarantined = errors.New("mincore: tenant quarantined")
)

// ValidTenantID reports whether id fits the tenant-id grammar: 1–64
// characters, first alphanumeric, rest alphanumeric or `_ . -`. The
// grammar guarantees an id is a single safe path element and a bounded
// Prometheus label value.
func ValidTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i, c := range id {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// TenantConfig describes one tenant. Zero values inherit the registry
// defaults; only ID is required.
type TenantConfig struct {
	// ID names the tenant (see ValidTenantID).
	ID string
	// Dim is the tenant's point dimension (0 = registry default).
	Dim int
	// Eps is the tenant's default ε: it sizes the stream sketch and is
	// the build ε used when a coreset request does not name one
	// (0 = registry default).
	Eps float64
	// Alpha is the assumed stream fatness for sketch sizing
	// (0 = registry default).
	Alpha float64
	// Directions overrides the sketch direction count (0 = derive).
	Directions int
	// Seed drives the tenant's direction net and build randomness
	// (0 = registry seed). Tenants with different seeds or different
	// data produce fully independent coresets.
	Seed int64
	// Weight is the tenant's fair-share scheduler weight (0 = 1): a
	// weight-2 tenant's queued builds drain twice as fast as a
	// weight-1 tenant's. Values are clamped into [0.01, 100]; NaN and
	// negative weights fall back to 1 (an unboundedly small weight
	// would stall the scheduler's dispatch loop for every tenant).
	Weight float64
	// QuotaPointsPerSec caps sustained ingest; excess points shed with
	// ErrQuotaExceeded (0 = unlimited). QuotaBurst is the bucket size
	// in points (0 = max(1, rate)).
	QuotaPointsPerSec float64
	QuotaBurst        int
	// IngestWorkers, QueueSize, and BuildCache override the registry
	// defaults for this tenant's ingest shards, batch queue, and
	// served-coreset cache.
	IngestWorkers int
	QueueSize     int
	BuildCache    int
	// SnapshotPath overrides the namespaced default of
	// <SnapshotDir>/<ID>/stream.snap. Relevant only for migrating a
	// pre-registry single-tenant snapshot into a registry.
	SnapshotPath string
}

// RegistryOptions configures NewTenantRegistry. Dim is required; the
// rest default per ServeOptions.
type RegistryOptions struct {
	// Dim is the default point dimension for tenants that do not
	// override it (required).
	Dim int
	// Eps and Alpha are the registry-wide defaults for tenants that do
	// not set their own (0.05 / 0.25).
	Eps, Alpha float64
	// Seed is the default tenant seed.
	Seed int64
	// SnapshotDir is the root under which each tenant gets its own
	// directory (manifest + two-generation snapshot store). Empty
	// disables durability for every tenant without a SnapshotPath
	// override.
	SnapshotDir string
	// CheckpointInterval is the per-tenant automatic checkpoint period
	// (default 10s; < 0 disables the loops).
	CheckpointInterval time.Duration
	// MaxInflightBuilds bounds concurrent builds across ALL tenants —
	// the capacity the fair-share scheduler divides (default 2).
	MaxInflightBuilds int
	// MaxQueuedBuilds bounds each tenant's pending build queue in the
	// scheduler; excess requests shed with ErrOverloaded (default 16).
	MaxQueuedBuilds int
	// BuildWorkers is the per-build worker-pool size (0 = GOMAXPROCS).
	BuildWorkers int
	// IngestWorkers and QueueSize are per-tenant defaults (1 / 256).
	IngestWorkers int
	QueueSize     int
	// BuildCache is the per-tenant served-coreset cache default
	// (0 = 32 entries, negative disables).
	BuildCache int
	// Logger receives every tenant's structured logs (each record
	// carries a tenant attribute). Nil discards.
	Logger *slog.Logger
	// BuildBudget arms the scheduler's build watchdog: a build holding a
	// slot longer than this is cancelled and its slot reclaimed, so one
	// wedged LP cannot pin fleet capacity forever. 0 disables the
	// watchdog.
	BuildBudget time.Duration
	// StaleServe opts every tenant into degraded-mode serving from its
	// last certified coreset (see StaleServePolicy); nil keeps hard
	// errors.
	StaleServe *StaleServePolicy
	// WAL opts every durable tenant into write-ahead-logged ingest
	// (acknowledged == durable; see WALConfig). Tenants without a
	// snapshot path — SnapshotDir empty and no per-tenant override —
	// ignore it.
	WAL *WALConfig
	// TraceStore, when non-nil, arms the tracing layer fleet-wide: each
	// tenant's restore trace is retained there, and the registry's
	// flight recorder pulls a tenant's recent anomaly traces into its
	// diagnostic bundles on watchdog kills, quarantine transitions, and
	// storage failures. Nil disables both.
	TraceStore *obs.TraceStore
	// DiagDir overrides where flight-recorder bundles land. Empty
	// derives <SnapshotDir>/<id>/diag/ per tenant (or nothing when the
	// registry has no SnapshotDir — bundles then go to the log only).
	DiagDir string

	// clock overrides time.Now for quota buckets and the build watchdog
	// (tests; injecting it disables the watchdog's background sweeper —
	// the test drives sweeps itself).
	clock func() time.Time
}

// Tenant is one live tenant: a supervised IngestService plus its
// resolved configuration. All methods are safe for concurrent use; a
// deleted tenant's methods fail with ErrServiceClosed.
type Tenant struct {
	cfg       TenantConfig // fully resolved (no zero-inherit fields)
	svc       *IngestService
	dir       string // tenant's namespaced directory ("" when not durable)
	createdAt time.Time
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.cfg.ID }

// Config returns the tenant's resolved configuration.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// Service exposes the underlying ingest service for advanced use
// (Summary, StreamN, manual Checkpoint, ...).
func (t *Tenant) Service() *IngestService { return t.svc }

// Feed ingests a batch into the tenant's stream (see
// IngestService.Feed; quota shedding adds ErrQuotaExceeded).
func (t *Tenant) Feed(pts ...Point) error { return t.svc.Feed(pts...) }

// FeedCtx is Feed with a request context for the tracing layer (see
// IngestService.FeedCtx).
func (t *Tenant) FeedCtx(ctx context.Context, pts ...Point) error {
	return t.svc.FeedCtx(ctx, pts...)
}

// Coreset builds a certified coreset of the tenant's stream under the
// registry's fair-share scheduler. eps ≤ 0 selects the tenant's
// default ε.
func (t *Tenant) Coreset(ctx context.Context, eps float64, algo Algorithm) (*Coreset, error) {
	if eps <= 0 {
		eps = t.cfg.Eps
	}
	return t.svc.Coreset(ctx, eps, algo)
}

// Stats returns the tenant's service counters (per-tenant checkpoint
// lag, cache hits/misses, quota sheds, ...).
func (t *Tenant) Stats() ServiceStats { return t.svc.Stats() }

// Checkpoint forces a durable snapshot of the tenant's stream.
func (t *Tenant) Checkpoint() error { return t.svc.Checkpoint() }

// CheckpointCtx is Checkpoint with a request context for the tracing
// layer (see IngestService.CheckpointCtx).
func (t *Tenant) CheckpointCtx(ctx context.Context) error { return t.svc.CheckpointCtx(ctx) }

// TenantInfo is one row of TenantRegistry.List.
type TenantInfo struct {
	ID        string    `json:"id"`
	Dim       int       `json:"dim"`
	Eps       float64   `json:"eps"`
	Weight    float64   `json:"weight"`
	QuotaPPS  float64   `json:"quota_points_per_sec,omitempty"`
	StreamN   int       `json:"stream_n"`
	CreatedAt time.Time `json:"created_at"`
}

// RegistryStats aggregates per-tenant service stats (sorted by id)
// with the shared scheduler's counters.
type RegistryStats struct {
	Tenants   []ServiceStats
	Scheduler SchedulerStats
}

// TenantRegistry hosts many supervised tenant streams behind one
// fair-share build scheduler. Create with NewTenantRegistry; stop with
// Close (graceful per-tenant shutdown with final checkpoints).
type TenantRegistry struct {
	opts   RegistryOptions
	log    *slog.Logger
	sched  *buildScheduler
	flight *obs.FlightRecorder

	mu      sync.RWMutex
	tenants map[string]*Tenant
	// reserved holds ids with a create or delete in flight outside the
	// lock: CreateTenant reserves its id before doing disk I/O and
	// service startup lock-free, and DeleteTenant keeps its id reserved
	// until scheduler eviction and disk cleanup finish — otherwise a
	// concurrent re-create could complete in that window and have its
	// fresh directory deleted by the stale cleanup.
	reserved map[string]struct{}
	// quarantined holds tenants whose on-disk state failed to restore:
	// present on disk, absent from tenants, refusing requests with
	// ErrTenantQuarantined until recovered or deleted.
	quarantined map[string]*quarantinedTenant
	closed      bool
}

// quarantinedTenant is the registry's record of one failed restore.
type quarantinedTenant struct {
	id     string
	dir    string
	reason string // "bad_manifest" | "snapshot_unusable" | "wal_unusable" | "start_failed"
	err    error
	since  time.Time
	// cfg and createdAt are the manifest contents when it parsed (nil
	// cfg when the manifest itself is the corruption).
	cfg       *TenantConfig
	createdAt time.Time
}

// TenantHealth is one row of the registry's readiness report: the
// tenant's degraded-mode state machine position. State is "ok" (serving,
// durable), "degraded" (serving, but checkpoint saves are failing
// persistently), or "quarantined" (not serving; corrupt on-disk state
// awaiting RecoverTenant or DeleteTenant).
type TenantHealth struct {
	ID                 string    `json:"id"`
	State              string    `json:"state"`
	Reason             string    `json:"reason,omitempty"`
	Error              string    `json:"error,omitempty"`
	Since              time.Time `json:"since,omitempty"`
	CheckpointFailures int       `json:"checkpoint_failures,omitempty"`
}

// manifestName is the per-tenant config file inside the tenant's
// snapshot directory.
const manifestName = "tenant.json"

// snapshotFile is the per-tenant snapshot filename under the tenant's
// directory.
const snapshotFile = "stream.snap"

// tenantManifest is the durable form of a resolved TenantConfig.
type tenantManifest struct {
	ID                string    `json:"id"`
	Dim               int       `json:"dim"`
	Eps               float64   `json:"eps"`
	Alpha             float64   `json:"alpha"`
	Directions        int       `json:"directions,omitempty"`
	Seed              int64     `json:"seed"`
	Weight            float64   `json:"weight"`
	QuotaPointsPerSec float64   `json:"quota_points_per_sec,omitempty"`
	QuotaBurst        int       `json:"quota_burst,omitempty"`
	IngestWorkers     int       `json:"ingest_workers,omitempty"`
	QueueSize         int       `json:"queue_size,omitempty"`
	BuildCache        int       `json:"build_cache,omitempty"`
	CreatedAt         time.Time `json:"created_at"`
}

// NewTenantRegistry validates opts, creates the shared fair-share
// scheduler, and — when SnapshotDir holds tenant manifests from a
// previous run — restores every manifested tenant with its stream. A
// restorable-looking tenant that fails to come back (corrupt manifest,
// incompatible or doubly-corrupt snapshot) is quarantined — the rest of
// the fleet boots and serves, the sick tenant answers with
// ErrTenantQuarantined until RecoverTenant repairs it in place. Only an
// unreadable SnapshotDir itself fails construction.
func NewTenantRegistry(opts RegistryOptions) (*TenantRegistry, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("mincore: tenant registry requires Dim ≥ 1, got %d", opts.Dim)
	}
	if opts.Eps <= 0 || opts.Eps >= 1 {
		opts.Eps = 0.05
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 0.25
	}
	if opts.MaxInflightBuilds < 1 {
		opts.MaxInflightBuilds = 2
	}
	if opts.MaxQueuedBuilds < 1 {
		opts.MaxQueuedBuilds = 16
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	r := &TenantRegistry{
		opts:        opts,
		log:         obs.Component(logger, "tenant-registry"),
		sched:       newBuildScheduler(opts.MaxInflightBuilds, opts.MaxQueuedBuilds, opts.BuildBudget, opts.clock),
		tenants:     make(map[string]*Tenant),
		reserved:    make(map[string]struct{}),
		quarantined: make(map[string]*quarantinedTenant),
	}
	// The flight recorder exists before restoreTenants so a quarantine
	// during boot already dumps a bundle.
	r.flight = obs.NewFlightRecorder(r.log, opts.TraceStore, obs.Default)
	if opts.SnapshotDir != "" {
		if err := os.MkdirAll(opts.SnapshotDir, 0o755); err != nil {
			return nil, err
		}
		if err := r.restoreTenants(); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// restoreTenants re-creates every tenant manifested under SnapshotDir,
// quarantining the ones whose state cannot come back instead of failing
// the fleet.
func (r *TenantRegistry) restoreTenants() error {
	entries, err := os.ReadDir(r.opts.SnapshotDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidTenantID(e.Name()) {
			continue
		}
		id := e.Name()
		dir := filepath.Join(r.opts.SnapshotDir, id)
		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if errors.Is(err, os.ErrNotExist) {
			continue // not a tenant dir (or a crash before the manifest)
		} else if err != nil {
			r.quarantineLocked(id, dir, "bad_manifest", err, nil, time.Time{})
			continue
		}
		var m tenantManifest
		if err := json.Unmarshal(raw, &m); err != nil {
			r.quarantineLocked(id, dir, "bad_manifest",
				fmt.Errorf("bad manifest: %w", err), nil, time.Time{})
			continue
		}
		if m.ID != id {
			r.quarantineLocked(id, dir, "bad_manifest",
				fmt.Errorf("manifest names %q", m.ID), nil, time.Time{})
			continue
		}
		cfg := manifestConfig(m)
		t, err := r.startTenant(cfg, m.CreatedAt, false)
		if err != nil {
			reason := "start_failed"
			if errors.Is(err, ErrSnapshotIncompatible) || errors.Is(err, snapshot.ErrBadSnapshot) {
				reason = "snapshot_unusable"
			} else if errors.Is(err, wal.ErrBadLog) {
				reason = "wal_unusable"
			}
			r.quarantineLocked(id, dir, reason, err, &cfg, m.CreatedAt)
			continue
		}
		r.tenants[t.cfg.ID] = t
		mTenants.Add(1)
		r.log.Info("tenant restored",
			slog.String("tenant", t.cfg.ID),
			slog.Int("restored_points", t.svc.RestoredPoints()))
	}
	return nil
}

// manifestConfig converts a durable manifest back into a TenantConfig.
func manifestConfig(m tenantManifest) TenantConfig {
	return TenantConfig{
		ID: m.ID, Dim: m.Dim, Eps: m.Eps, Alpha: m.Alpha,
		Directions: m.Directions, Seed: m.Seed, Weight: m.Weight,
		QuotaPointsPerSec: m.QuotaPointsPerSec, QuotaBurst: m.QuotaBurst,
		IngestWorkers: m.IngestWorkers, QueueSize: m.QueueSize,
		BuildCache: m.BuildCache,
	}
}

// quarantineLocked records a failed restore. Callers hold r.mu (or, in
// NewTenantRegistry, own the registry exclusively).
func (r *TenantRegistry) quarantineLocked(id, dir, reason string, err error, cfg *TenantConfig, createdAt time.Time) {
	r.quarantined[id] = &quarantinedTenant{
		id: id, dir: dir, reason: reason, err: err,
		since: time.Now(), cfg: cfg, createdAt: createdAt,
	}
	mTenantsQuarantined.Add(1)
	r.log.Warn("tenant quarantined",
		slog.String("tenant", id),
		slog.String("reason", reason),
		slog.Any("error", err))
	r.flight.Dump(obs.FlightQuarantine, id, r.diagDir(id), nil)
}

// diagDir is where tenant id's flight-recorder bundles land: the
// DiagDir override, else diag/ inside the tenant's snapshot directory,
// else nowhere (log-only bundles).
func (r *TenantRegistry) diagDir(id string) string {
	switch {
	case r.opts.DiagDir != "":
		return filepath.Join(r.opts.DiagDir, id)
	case r.opts.SnapshotDir != "":
		return filepath.Join(r.opts.SnapshotDir, id, "diag")
	}
	return ""
}

// resolve fills a TenantConfig's zero fields from the registry
// defaults.
func (r *TenantRegistry) resolve(cfg TenantConfig) TenantConfig {
	if cfg.Dim == 0 {
		cfg.Dim = r.opts.Dim
	}
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		cfg.Eps = r.opts.Eps
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = r.opts.Alpha
	}
	if cfg.Seed == 0 {
		cfg.Seed = r.opts.Seed
	}
	cfg.Weight = clampWeight(cfg.Weight)
	if cfg.IngestWorkers == 0 {
		cfg.IngestWorkers = r.opts.IngestWorkers
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = r.opts.QueueSize
	}
	if cfg.BuildCache == 0 {
		cfg.BuildCache = r.opts.BuildCache
	}
	return cfg
}

// startTenant resolves cfg, prepares the namespaced snapshot
// directory, starts the supervised service, and (when persist is true)
// writes the manifest. Callers insert the returned tenant into
// r.tenants themselves.
func (r *TenantRegistry) startTenant(cfg TenantConfig, createdAt time.Time, persist bool) (*Tenant, error) {
	cfg = r.resolve(cfg)
	var dir string
	path := cfg.SnapshotPath
	if path == "" && r.opts.SnapshotDir != "" {
		dir = filepath.Join(r.opts.SnapshotDir, cfg.ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path = filepath.Join(dir, snapshotFile)
	}
	var walCfg *WALConfig
	if path != "" {
		walCfg = r.opts.WAL
	}
	svc, err := NewIngestService(ServeOptions{
		Dim: cfg.Dim, Eps: cfg.Eps, Alpha: cfg.Alpha,
		Directions: cfg.Directions, Seed: cfg.Seed,
		SnapshotPath:       path,
		WAL:                walCfg,
		CheckpointInterval: r.opts.CheckpointInterval,
		IngestWorkers:      cfg.IngestWorkers,
		QueueSize:          cfg.QueueSize,
		BuildWorkers:       r.opts.BuildWorkers,
		BuildCache:         cfg.BuildCache,
		Logger:             r.opts.Logger,
		Tenant:             cfg.ID,
		QuotaPointsPerSec:  cfg.QuotaPointsPerSec,
		QuotaBurst:         cfg.QuotaBurst,
		StaleServe:         r.opts.StaleServe,
		TraceStore:         r.opts.TraceStore,
		sched:              r.sched,
		weight:             cfg.Weight,
		clock:              r.opts.clock,
		flight:             r.flight,
		diagDir:            r.diagDir(cfg.ID),
	})
	if err != nil {
		return nil, err
	}
	t := &Tenant{cfg: cfg, svc: svc, dir: dir, createdAt: createdAt}
	if persist && dir != "" {
		if err := writeManifest(dir, cfg, createdAt); err != nil {
			svc.Kill()
			return nil, err
		}
	}
	return t, nil
}

// writeManifest persists a resolved TenantConfig as the tenant's durable
// manifest.
func writeManifest(dir string, cfg TenantConfig, createdAt time.Time) error {
	m := tenantManifest{
		ID: cfg.ID, Dim: cfg.Dim, Eps: cfg.Eps, Alpha: cfg.Alpha,
		Directions: cfg.Directions, Seed: cfg.Seed, Weight: cfg.Weight,
		QuotaPointsPerSec: cfg.QuotaPointsPerSec, QuotaBurst: cfg.QuotaBurst,
		IngestWorkers: cfg.IngestWorkers, QueueSize: cfg.QueueSize,
		BuildCache: cfg.BuildCache, CreatedAt: createdAt,
	}
	raw, _ := json.MarshalIndent(m, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		return fmt.Errorf("mincore: tenant %q manifest: %w", cfg.ID, err)
	}
	return nil
}

// CreateTenant adds and starts a new tenant. The id must satisfy
// ValidTenantID and be free; the tenant is immediately live (and, with
// durability on, manifested on disk so a restart restores it). An id
// whose previous tenant is still being deleted counts as taken until
// the deletion's disk cleanup finishes.
//
// The expensive part — directory creation, service startup, manifest
// write — runs outside the registry lock with only the id reserved, so
// a slow disk during a create never stalls request-path Tenant()
// lookups for other tenants.
func (r *TenantRegistry) CreateTenant(cfg TenantConfig) (*Tenant, error) {
	if !ValidTenantID(cfg.ID) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantID, cfg.ID)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRegistryClosed
	}
	if _, ok := r.tenants[cfg.ID]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, cfg.ID)
	}
	if _, ok := r.reserved[cfg.ID]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q (operation in progress)", ErrTenantExists, cfg.ID)
	}
	if _, ok := r.quarantined[cfg.ID]; ok {
		// The id's on-disk state still exists (corrupt); creating over it
		// would silently destroy whatever RecoverTenant could salvage.
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q (recover or delete it first)", ErrTenantQuarantined, cfg.ID)
	}
	r.reserved[cfg.ID] = struct{}{}
	r.mu.Unlock()

	t, err := r.startTenant(cfg, time.Now(), true)

	r.mu.Lock()
	delete(r.reserved, cfg.ID)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if r.closed {
		// The registry closed while we were starting up: the Close pass
		// never saw this tenant, so unwind it here.
		r.mu.Unlock()
		t.svc.Kill()
		if t.dir != "" {
			os.RemoveAll(t.dir)
		}
		return nil, ErrRegistryClosed
	}
	r.tenants[cfg.ID] = t
	r.mu.Unlock()
	mTenants.Add(1)
	r.log.Info("tenant created",
		slog.String("tenant", cfg.ID),
		slog.Float64("eps", t.cfg.Eps),
		slog.Float64("weight", t.cfg.Weight))
	return t, nil
}

// Tenant returns the live tenant with the given id. A quarantined id
// answers with ErrTenantQuarantined (the tenant exists but is not
// serving) rather than ErrTenantNotFound.
func (r *TenantRegistry) Tenant(id string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	t, ok := r.tenants[id]
	if !ok {
		if q, qok := r.quarantined[id]; qok {
			return nil, fmt.Errorf("%w: %q (%s: %v)", ErrTenantQuarantined, id, q.reason, q.err)
		}
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	return t, nil
}

// QuarantineInfo returns the health row for a quarantined tenant, or
// false when the id is not quarantined.
func (r *TenantRegistry) QuarantineInfo(id string) (TenantHealth, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	q, ok := r.quarantined[id]
	if !ok {
		return TenantHealth{}, false
	}
	return q.health(), true
}

func (q *quarantinedTenant) health() TenantHealth {
	h := TenantHealth{ID: q.id, State: "quarantined", Reason: q.reason, Since: q.since}
	if q.err != nil {
		h.Error = q.err.Error()
	}
	return h
}

// Health reports the degraded-mode state of every tenant the registry
// knows about — live ones (ok or degraded on persistent checkpoint
// failure) and quarantined ones — sorted by id. The readiness endpoint
// renders this directly.
func (r *TenantRegistry) Health() []TenantHealth {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	out := make([]TenantHealth, 0, len(tenants)+len(r.quarantined))
	for _, q := range r.quarantined {
		out = append(out, q.health())
	}
	r.mu.RUnlock()
	for _, t := range tenants {
		st := t.svc.Stats()
		h := TenantHealth{ID: t.cfg.ID, State: "ok"}
		if st.Degraded {
			h.State = "degraded"
			h.Reason = "checkpoint_failures"
			if st.StorageDegraded {
				// The WAL write path itself is failing: Feed refuses to
				// acknowledge (ErrStorageUnavailable) until a write lands.
				h.Reason = "storage_unavailable"
			}
			h.CheckpointFailures = st.CheckpointFailures
			if st.LastError != nil {
				h.Error = st.LastError.Error()
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DeleteTenant stops a tenant and removes every trace of it: pending
// scheduler requests fail with ErrTenantNotFound, the service is
// killed (no final checkpoint — the data is being deleted), its build
// cache is released, and the tenant's snapshot directory (manifest and
// both snapshot generations) is removed from disk.
func (r *TenantRegistry) DeleteTenant(id string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	t, ok := r.tenants[id]
	if !ok {
		if q, qok := r.quarantined[id]; qok {
			// Deleting a quarantined tenant is the operator giving up on
			// its data: drop the record and remove the corrupt directory.
			delete(r.quarantined, id)
			mTenantsQuarantined.Add(-1)
			r.mu.Unlock()
			r.log.Info("quarantined tenant deleted", slog.String("tenant", id))
			if q.dir != "" {
				return os.RemoveAll(q.dir)
			}
			return nil
		}
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	delete(r.tenants, id)
	// Reserve the id for the duration of the teardown: a re-create that
	// completed while we evict and clean the disk below would have its
	// fresh queue killed and its fresh directory removed by this stale
	// delete. CreateTenant refuses reserved ids, so the window is closed.
	r.reserved[id] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.reserved, id)
		r.mu.Unlock()
	}()

	r.sched.evict(id, fmt.Errorf("%w: %q (deleted)", ErrTenantNotFound, id))
	t.svc.Kill()
	var rmErr error
	switch {
	case t.dir != "":
		rmErr = os.RemoveAll(t.dir)
	case t.cfg.SnapshotPath != "":
		// Override path outside the registry dir: remove just the
		// snapshot generations and the write-ahead log, not the
		// surrounding directory.
		for _, p := range []string{
			t.cfg.SnapshotPath,
			t.cfg.SnapshotPath + snapshot.PrevSuffix,
			t.cfg.SnapshotPath + ".tmp",
		} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				rmErr = err
			}
		}
		if r.opts.WAL != nil {
			if err := wal.Remove(WALDir(t.cfg.SnapshotPath)); err != nil {
				rmErr = err
			}
		}
	}
	mTenants.Add(-1)
	r.log.Info("tenant deleted", slog.String("tenant", id))
	if rmErr != nil {
		return fmt.Errorf("mincore: tenant %q deleted but snapshot cleanup failed: %w", id, rmErr)
	}
	return nil
}

// RecoverTenant repairs a quarantined tenant in place, without a process
// restart, climbing a ladder of increasingly lossy steps until one
// brings the tenant back:
//
//  1. "restart"             — retry the restore as-is (the corruption may
//     have been transient, e.g. a permission or mount issue),
//  2. "rewrite_manifest"    — when the manifest is the corruption but a
//     snapshot generation decodes, reconstruct the stream-critical
//     config (Dim, Directions, Seed) from the snapshot header, take
//     registry defaults for the rest, and write a fresh manifest: the
//     stream data survives,
//  3. "replay_wal"          — when the snapshot generations are unusable
//     but the write-ahead log reaches back to stream position 0, drop
//     the snapshots and rebuild the summary purely from the log (no
//     loss); conversely, when the log itself is the corruption, drop
//     the log and restore from the snapshot (loss bounded by the
//     checkpoint window),
//  4. "fallback_generation" — discard the current snapshot generation so
//     the previous one serves (loses the last checkpoint window; with a
//     WAL, the log suffix past the previous generation still replays),
//  5. "reset_stream"        — remove every generation and restart empty
//     (producers replay from offset 0; replay is idempotent).
//
// On success the tenant is live again and the ladder step taken is
// returned; on failure the tenant stays quarantined with the new error.
func (r *TenantRegistry) RecoverTenant(id string) (*Tenant, string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, "", ErrRegistryClosed
	}
	q, ok := r.quarantined[id]
	if !ok {
		r.mu.Unlock()
		if _, err := r.Tenant(id); err == nil {
			return nil, "", fmt.Errorf("mincore: tenant %q is not quarantined", id)
		}
		return nil, "", fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	if _, rok := r.reserved[id]; rok {
		r.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %q (operation in progress)", ErrTenantExists, id)
	}
	// Reserve the id and run the disk-heavy ladder outside the lock, the
	// same pattern CreateTenant/DeleteTenant use.
	r.reserved[id] = struct{}{}
	r.mu.Unlock()

	t, step, err := r.recoverLadder(q)

	r.mu.Lock()
	delete(r.reserved, id)
	if err != nil {
		q.err = fmt.Errorf("recovery failed at %q: %w", step, err)
		r.mu.Unlock()
		return nil, step, fmt.Errorf("%w: %q: %v", ErrTenantQuarantined, id, q.err)
	}
	delete(r.quarantined, id)
	if r.closed {
		r.mu.Unlock()
		t.svc.Kill()
		return nil, "", ErrRegistryClosed
	}
	r.tenants[id] = t
	r.mu.Unlock()
	mTenantsQuarantined.Add(-1)
	mTenants.Add(1)
	r.log.Info("tenant recovered",
		slog.String("tenant", id),
		slog.String("step", step),
		slog.Int("restored_points", t.svc.RestoredPoints()))
	return t, step, nil
}

// recoverLadder runs the recovery steps for one quarantined tenant and
// returns the first success, tagged with the step that produced it.
func (r *TenantRegistry) recoverLadder(q *quarantinedTenant) (*Tenant, string, error) {
	snapPath := filepath.Join(q.dir, snapshotFile)
	store := snapshot.NewStore(snapPath)

	// Step 1/2: get a usable config. A parsed manifest retries as-is
	// ("restart"); a corrupt one is rebuilt from the snapshot header
	// ("rewrite_manifest") so the stream data survives the new identity.
	cfg, createdAt, step := q.cfg, q.createdAt, "restart"
	if cfg == nil {
		step = "rewrite_manifest"
		sum, _, err := store.Load()
		if err == nil {
			st := sum.State()
			cfg = &TenantConfig{ID: q.id, Dim: st.D, Directions: st.M, Seed: st.Seed}
		} else if r.opts.WAL != nil {
			// No decodable snapshot, but the WAL segment header mirrors
			// the snapshot header fields — an intact log still recovers
			// the stream-critical config.
			if d, m, seed, ok := wal.PeekHeader(WALDir(snapPath)); ok {
				cfg = &TenantConfig{ID: q.id, Dim: d, Directions: m, Seed: seed}
			}
		}
		if cfg == nil {
			// Nothing decodable anywhere: fall through to the stream
			// reset with a default config.
			if rerr := store.Reset(); rerr != nil {
				return nil, "reset_stream", rerr
			}
			step = "reset_stream"
			cfg = &TenantConfig{ID: q.id}
		}
		createdAt = time.Now()
		if err := writeManifest(q.dir, r.resolve(*cfg), createdAt); err != nil {
			return nil, step, err
		}
	}

	t, err := r.startTenant(*cfg, createdAt, false)
	if err == nil {
		return t, step, nil
	}

	// Step 3 "replay_wal": repair whichever side of the durable pair is
	// sick using the other. A corrupt log is dropped (the snapshot still
	// bounds the loss to the checkpoint window); unusable snapshots are
	// dropped when the log reaches back to position 0 and can rebuild
	// the stream alone.
	if r.opts.WAL != nil {
		walDir := WALDir(snapPath)
		switch {
		case errors.Is(err, wal.ErrBadLog):
			if werr := wal.Remove(walDir); werr == nil {
				if t, err = r.startTenant(*cfg, createdAt, false); err == nil {
					return t, "replay_wal", nil
				}
			}
		case errors.Is(err, ErrSnapshotIncompatible) || errors.Is(err, snapshot.ErrBadSnapshot):
			if wal.StartsAtZero(walDir) {
				if rerr := store.Reset(); rerr == nil {
					if t, err = r.startTenant(*cfg, createdAt, false); err == nil {
						return t, "replay_wal", nil
					}
				}
			}
		}
	}

	// Step 4: drop the current generation so Load serves the previous
	// one. Only worth a retry when the failure was the snapshot's.
	if errors.Is(err, ErrSnapshotIncompatible) || errors.Is(err, snapshot.ErrBadSnapshot) {
		if derr := store.DiscardCurrent(); derr == nil {
			if t, err = r.startTenant(*cfg, createdAt, false); err == nil {
				return t, "fallback_generation", nil
			}
			// The surviving generation can predate the log's oldest
			// record (a checkpoint truncated the log through the
			// discarded generation's position), which openWAL refuses
			// as ErrBadLog rather than replaying across the hole. Drop
			// the log too: the rung then costs one checkpoint window
			// (producers replay from the older generation's position)
			// instead of escalating to a full stream reset.
			if r.opts.WAL != nil && errors.Is(err, wal.ErrBadLog) {
				if werr := wal.Remove(WALDir(snapPath)); werr == nil {
					if t, err = r.startTenant(*cfg, createdAt, false); err == nil {
						return t, "fallback_generation", nil
					}
				}
			}
		}
	}

	// Step 5: reset the stream entirely — config survives, data replays.
	// The WAL goes with the snapshots: a log whose prefix no longer
	// exists cannot seed a fresh stream.
	if rerr := store.Reset(); rerr != nil {
		return nil, "reset_stream", rerr
	}
	if r.opts.WAL != nil {
		if werr := wal.Remove(WALDir(snapPath)); werr != nil {
			return nil, "reset_stream", werr
		}
	}
	t, err = r.startTenant(*cfg, createdAt, false)
	if err != nil {
		return nil, "reset_stream", err
	}
	return t, "reset_stream", nil
}

// ListTenants returns one TenantInfo per live tenant, sorted by id.
func (r *TenantRegistry) ListTenants() []TenantInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]TenantInfo, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, TenantInfo{
			ID: t.cfg.ID, Dim: t.cfg.Dim, Eps: t.cfg.Eps,
			Weight: t.cfg.Weight, QuotaPPS: t.cfg.QuotaPointsPerSec,
			StreamN: t.svc.StreamN(), CreatedAt: t.createdAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns per-tenant service stats (sorted by tenant id) plus
// the shared scheduler's counters — the per-tenant CheckpointLag and
// cache hit/miss rows that a single process-wide aggregate cannot
// express.
func (r *TenantRegistry) Stats() RegistryStats {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].cfg.ID < tenants[j].cfg.ID })
	st := RegistryStats{Scheduler: r.sched.stats()}
	for _, t := range tenants {
		st.Tenants = append(st.Tenants, t.svc.Stats())
	}
	return st
}

// Close gracefully shuts every tenant down (drained queues, final
// checkpoints) and marks the registry closed. The first error per
// tenant is joined into the result.
func (r *TenantRegistry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	r.closed = true
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.tenants = map[string]*Tenant{}
	mTenantsQuarantined.Add(-int64(len(r.quarantined)))
	r.quarantined = map[string]*quarantinedTenant{}
	r.mu.Unlock()

	r.sched.stop()
	var errs []error
	for _, t := range tenants {
		r.sched.evict(t.cfg.ID, ErrServiceClosed)
		if err := t.svc.Close(); err != nil && !errors.Is(err, ErrServiceClosed) {
			errs = append(errs, fmt.Errorf("tenant %q: %w", t.cfg.ID, err))
		}
		mTenants.Add(-1)
	}
	return errors.Join(errs...)
}
