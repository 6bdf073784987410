// Command mcserve runs the multi-tenant coreset service as an HTTP
// endpoint: tenant streams are created and deleted over a versioned
// API, points stream in per tenant, crash-safe snapshots stream out
// into per-tenant directories, and certified coresets are served under
// weighted-fair admission control so no tenant can starve another.
//
// Usage:
//
//	mcserve -addr :8080 -dim 3 -snapshot-dir /var/lib/mincore
//
// Versioned API (v1):
//
//	POST   /v1/tenants               create a tenant
//	                                 {"id": "acme", "eps": 0.05, "weight": 2,
//	                                  "quota_points_per_sec": 1000}
//	GET    /v1/tenants               list tenants
//	GET    /v1/tenants/{id}          one tenant's config + stream position
//	DELETE /v1/tenants/{id}          stop the tenant, drop its snapshots
//	POST   /v1/tenants/{id}/ingest   {"points": [[...], ...]} → 202
//	GET    /v1/tenants/{id}/coreset  ?eps=0.05&algo=auto&timeout=5s
//	                                 (eps omitted → the tenant's default ε)
//	GET    /v1/tenants/{id}/summary  current sketch champions (no build)
//	GET    /v1/tenants/{id}/stats    per-tenant counters incl. checkpoint
//	                                 lag and cache hit/miss counts
//	POST   /v1/tenants/{id}/snapshot force a durable checkpoint now
//	POST   /v1/tenants/{id}/recover  repair a quarantined tenant in place
//	GET    /v1/tenants/{id}/traces   retained request traces (?n= limit,
//	                                 ?anomalies=1 anomaly ring only)
//	GET    /v1/stats                 per-tenant rows + fair-share
//	                                 scheduler counters
//	GET    /healthz                  liveness (the process answers)
//	GET    /readyz                   readiness: per-tenant ok|degraded|
//	                                 quarantined state
//	GET    /metrics                  Prometheus text metrics (solver +
//	                                 per-tenant service families)
//	GET    /debug/vars, /debug/pprof/ introspection
//	GET    /debug/traces             every tenant's retained traces +
//	                                 trace-store admission counters
//
// Tracing: every request carries a trace ID (X-Request-Id in, echoed
// back out) whose spans cover quota admission, scheduler queue wait,
// the build span tree, and WAL append+fsync. -trace-retain bounds the
// per-tenant trace rings (0 = off), -trace-sample keeps 1-in-N normal
// traces (anomalies — errors, watchdog kills, stale serves,
// uncertified builds, slow requests past -trace-slow-threshold — are
// always retained), and -diag-dir roots the flight-recorder bundles
// dumped on watchdog kills, quarantines, and storage failures.
//
// Every error response uses one envelope:
//
//	{"error": {"code": "<symbol>", "message": "<detail>"}}
//
// with codes: bad_tenant_id, tenant_exists, tenant_not_found,
// tenant_quarantined, invalid_argument, invalid_point, empty_stream,
// quota_exceeded, overloaded, storage_unavailable, watchdog_killed,
// request_too_large, deadline_exceeded, service_closed, uncertified,
// internal.
//
// Durability: with -snapshot-dir set, -wal-sync selects the per-tenant
// write-ahead-log policy — "batch" (default: a 202 ingest ack means the
// batch is fsynced), "off" (log without fsync), a duration like "25ms"
// (group commit), or "none" (no WAL; the legacy checkpoint-window
// contract). A failing log refuses ingest with 503 storage_unavailable
// rather than acking points it cannot keep. On SIGTERM/SIGINT the
// server stops admitting work, drains in-flight requests and builds
// under -drain-timeout, writes a final checkpoint and WAL sync for
// every tenant, and exits 0.
//
// Degraded-mode serving: with -stale-max-age / -stale-max-points-behind
// set, a failed fresh build (overload, uncertified, deadline, watchdog
// kill) is answered from the tenant's last certified coreset when it is
// within bounds — marked with "stale": true, staleness metadata, and a
// Warning header, never silently. -build-watchdog arms a hard per-build
// slot budget so a wedged build cannot pin fleet capacity.
//
// The server always hosts a "default" tenant (created at startup unless
// restored), so single-stream deployments use /v1/tenants/default/....
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"mincore"
	"mincore/internal/obs"
)

// defaultTenant is the tenant every server hosts from startup.
const defaultTenant = "default"

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dim := flag.Int("dim", 0, "default point dimension for tenant streams (required)")
	eps := flag.Float64("eps", 0.05, "default tenant ε (sketch sizing and default build ε)")
	alpha := flag.Float64("alpha", 0.25, "assumed stream fatness α for sketch sizing")
	seed := flag.Int64("seed", 1, "default tenant seed (direction net and builds)")
	snapshotDir := flag.String("snapshot-dir", "", "root directory for per-tenant snapshots and manifests (empty = no durability)")
	snapshotPath := flag.String("snapshot", "", "single-file snapshot path for the default tenant (migration aid)")
	ckptEvery := flag.Duration("checkpoint-every", 10*time.Second, "base interval between automatic checkpoints")
	workers := flag.Int("ingest-workers", 2, "ingest worker goroutines per tenant (one summary shard each)")
	queue := flag.Int("queue", 256, "per-tenant ingest queue capacity in batches (full queue sheds with 503)")
	inflight := flag.Int("max-inflight-builds", 2, "concurrent coreset builds across ALL tenants (fair-share scheduled)")
	maxQueued := flag.Int("max-queued-builds", 16, "pending builds per tenant before shedding with 503")
	buildWorkers := flag.Int("build-workers", 0, "worker-pool size for builds (0 = GOMAXPROCS)")
	buildCache := flag.Int("build-cache", 0, "served-coreset cache entries per tenant (0 = default of 32, negative = disabled)")
	quota := flag.Float64("quota", 0, "default-tenant ingest quota in points/s (0 = unlimited; 429 when exceeded)")
	watchdog := flag.Duration("build-watchdog", 0, "hard per-build slot budget; a build holding its slot longer is killed and the slot reclaimed (0 = off)")
	staleMaxAge := flag.Duration("stale-max-age", 0, "serve the last certified coreset (marked stale) when a fresh build fails, if at most this old (0 = stale serving off)")
	staleBehind := flag.Int("stale-max-points-behind", 0, "additional stale-serving bound: max stream points the fallback may lag (0 = unbounded; needs -stale-max-age)")
	maxBody := flag.Int64("max-body-bytes", 8<<20, "largest accepted request body in bytes (413 beyond it)")
	walSync := flag.String("wal-sync", "batch", `write-ahead-log durability for snapshotted tenants: "batch" (fsync before acking), "off" (log without fsync), a group-commit window like "25ms", or "none" (no WAL)`)
	walSegBytes := flag.Int64("wal-segment-bytes", 4<<20, "write-ahead-log segment rotation threshold in bytes")
	traceRetain := flag.Int("trace-retain", 64, "retained traces per tenant per ring (anomaly and sampled-normal rings each; 0 = tracing off)")
	traceSample := flag.Int("trace-sample", 1, "keep 1 of every N normal (non-anomalous) traces; anomalies are always retained")
	traceSlow := flag.Duration("trace-slow-threshold", time.Second, "requests slower than this are retained as anomalies (0 = no slow flagging)")
	diagDir := flag.String("diag-dir", "", "root directory for flight-recorder diagnostic bundles (empty = <snapshot-dir>/<tenant>/diag when -snapshot-dir is set, else log-only)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget: drain in-flight work and write final checkpoints within this window")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	flag.Parse()

	if *dim < 1 {
		fmt.Fprintln(os.Stderr, "mcserve: -dim is required")
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcserve:", err)
		os.Exit(2)
	}
	obs.Enable()
	obs.Default.PublishExpvar("mincore_metrics")

	var stale *mincore.StaleServePolicy
	if *staleMaxAge > 0 {
		stale = mincore.WithStaleServe(*staleMaxAge, *staleBehind)
	}
	walCfg, err := parseWALConfig(*walSync, *walSegBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcserve:", err)
		os.Exit(2)
	}
	var traces *obs.TraceStore
	if *traceRetain > 0 {
		traces = obs.NewTraceStore(obs.StoreOptions{
			Retain:        *traceRetain,
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
	}
	reg, err := mincore.NewTenantRegistry(mincore.RegistryOptions{
		Dim: *dim, Eps: *eps, Alpha: *alpha, Seed: *seed,
		SnapshotDir:        *snapshotDir,
		CheckpointInterval: *ckptEvery,
		MaxInflightBuilds:  *inflight, MaxQueuedBuilds: *maxQueued,
		BuildWorkers:  *buildWorkers,
		IngestWorkers: *workers, QueueSize: *queue,
		BuildCache:  *buildCache,
		Logger:      logger,
		BuildBudget: *watchdog,
		StaleServe:  stale,
		WAL:         walCfg,
		TraceStore:  traces,
		DiagDir:     *diagDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcserve:", err)
		os.Exit(1)
	}
	log := obs.Component(logger, "mcserve")

	// A restart with -snapshot-dir restores the default tenant from its
	// manifest; otherwise it is created fresh, honoring the -snapshot file
	// override.
	if _, err := reg.Tenant(defaultTenant); errors.Is(err, mincore.ErrTenantNotFound) {
		_, err = reg.CreateTenant(mincore.TenantConfig{
			ID:                defaultTenant,
			SnapshotPath:      *snapshotPath,
			QuotaPointsPerSec: *quota,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcserve:", err)
			os.Exit(1)
		}
	}
	if t, err := reg.Tenant(defaultTenant); err == nil {
		if n := t.Service().RestoredPoints(); n > 0 {
			log.Info("recovered default-tenant snapshot; replay from restored position",
				slog.Int("restored_points", n))
		}
	}

	// Front-door hardening: a client that trickles headers or bodies, or
	// never reads its response, must not pin a connection (and its
	// goroutine) forever. WriteTimeout is generous because coreset builds
	// legitimately take a while; per-request ?timeout= bounds the build
	// itself.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(reg, log, *maxBody, traces),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		gracefulShutdown(sig, srv, reg, log, *drainTimeout)
	}()
	log.Info("mcserve listening",
		slog.String("addr", *addr), slog.Int("dim", *dim),
		slog.String("snapshot_dir", *snapshotDir))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listen failed", slog.Any("error", err))
		os.Exit(1)
	}
	<-done
}

// parseWALConfig maps the -wal-sync / -wal-segment-bytes flags onto the
// library's WALConfig: "none" disables the log entirely (nil config),
// "batch" and "off" select the named policies, and any parseable
// duration selects group commit with that window.
func parseWALConfig(sync string, segBytes int64) (*mincore.WALConfig, error) {
	cfg := &mincore.WALConfig{SegmentBytes: segBytes}
	switch sync {
	case "none":
		return nil, nil
	case "batch", "":
		cfg.Sync = mincore.WALSyncEveryBatch
	case "off":
		cfg.Sync = mincore.WALSyncOff
	default:
		d, err := time.ParseDuration(sync)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf(`-wal-sync %q: want "batch", "off", "none", or a positive duration`, sync)
		}
		cfg.Sync = mincore.WALSyncInterval
		cfg.SyncInterval = d
	}
	return cfg, nil
}

// gracefulShutdown blocks until a signal arrives on sig, then winds the
// process down in order: the HTTP server stops admitting new requests
// and drains the in-flight ones (ingest acks and running builds get to
// finish), then the registry closes every tenant — final checkpoint,
// WAL sync, scheduler stop — all under one drain budget. The signal
// channel is injected so tests drive the whole sequence synchronously.
func gracefulShutdown(sig <-chan os.Signal, srv *http.Server, reg *mincore.TenantRegistry, log *slog.Logger, timeout time.Duration) {
	<-sig
	log.Info("shutting down: refusing new work, draining in-flight builds, writing final checkpoints",
		slog.Duration("drain_timeout", timeout))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("HTTP drain incomplete; closing registry anyway", slog.Any("error", err))
		}
	}
	if err := closeRegistry(ctx, reg); err != nil && !errors.Is(err, mincore.ErrRegistryClosed) {
		log.Error("registry shutdown", slog.Any("error", err))
		return
	}
	log.Info("shutdown complete: all tenants checkpointed and WALs synced")
}

// closeRegistry runs reg.Close under the drain deadline: Close drains
// each tenant's ingest queue, writes its final snapshot generation, and
// fsyncs+closes its WAL. A wedged tenant cannot hold shutdown hostage —
// past the deadline the registry is abandoned and the process exits.
func closeRegistry(ctx context.Context, reg *mincore.TenantRegistry) error {
	done := make(chan error, 1)
	go func() { done <- reg.Close() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("drain deadline exceeded: %w", ctx.Err())
	}
}

// apiServer binds the route handlers to a registry.
type apiServer struct {
	reg     *mincore.TenantRegistry
	log     *slog.Logger
	maxBody int64           // largest accepted ingest body, in bytes
	traces  *obs.TraceStore // retained request traces; nil = tracing off
}

// createBodyLimit bounds control-plane request bodies (tenant creation):
// far smaller than the ingest limit, since a config is a handful of
// scalars.
const createBodyLimit = 1 << 20

// newMux builds the full route table wrapped in the request-tracing
// and HTTP-metrics middleware. Split from main so tests can drive the
// handlers through httptest without a listener. maxBody bounds ingest
// request bodies; past it the request fails with the 413
// request_too_large envelope. traces is the retained trace store (nil
// disables tracing and the trace endpoints, metrics stay on).
func newMux(reg *mincore.TenantRegistry, log *slog.Logger, maxBody int64, traces *obs.TraceStore) http.Handler {
	if maxBody <= 0 {
		maxBody = 8 << 20
	}
	obs.Default.RegisterRuntimeGauges()
	api := &apiServer{reg: reg, log: log, maxBody: maxBody, traces: traces}
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/tenants", api.createTenant)
	mux.HandleFunc("GET /v1/tenants", api.listTenants)
	mux.HandleFunc("GET /v1/tenants/{id}", api.getTenant)
	mux.HandleFunc("DELETE /v1/tenants/{id}", api.deleteTenant)
	mux.HandleFunc("POST /v1/tenants/{id}/ingest", api.tenantH(api.ingest))
	mux.HandleFunc("GET /v1/tenants/{id}/coreset", api.tenantH(api.coreset))
	mux.HandleFunc("GET /v1/tenants/{id}/summary", api.tenantH(api.summary))
	mux.HandleFunc("GET /v1/tenants/{id}/stats", api.tenantH(api.tenantStats))
	mux.HandleFunc("POST /v1/tenants/{id}/snapshot", api.tenantH(api.snapshot))
	mux.HandleFunc("POST /v1/tenants/{id}/recover", api.recoverTenant)
	mux.HandleFunc("GET /v1/tenants/{id}/traces", api.tenantTraces)
	mux.HandleFunc("GET /v1/stats", api.registryStats)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", api.readyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w)
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/traces", api.debugTraces)
	// net/http/pprof registers on DefaultServeMux; mount its handlers
	// explicitly since this mux is not the default one.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return withTracing(mux, traces)
}

// tenantHandler is a handler scoped to one resolved tenant.
type tenantHandler func(w http.ResponseWriter, r *http.Request, t *mincore.Tenant)

// tenantH resolves {id} and dispatches, mapping a missing tenant to
// the 404 envelope.
func (a *apiServer) tenantH(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		t, err := a.reg.Tenant(id)
		fileTrace(r, id, err)
		if err != nil {
			httpError(w, err)
			return
		}
		h(w, r, t)
	}
}

// createTenantRequest is the POST /v1/tenants body; zero fields
// inherit the registry defaults.
type createTenantRequest struct {
	ID                string  `json:"id"`
	Dim               int     `json:"dim"`
	Eps               float64 `json:"eps"`
	Alpha             float64 `json:"alpha"`
	Directions        int     `json:"directions"`
	Seed              int64   `json:"seed"`
	Weight            float64 `json:"weight"`
	QuotaPointsPerSec float64 `json:"quota_points_per_sec"`
	QuotaBurst        int     `json:"quota_burst"`
	IngestWorkers     int     `json:"ingest_workers"`
	QueueSize         int     `json:"queue_size"`
	BuildCache        int     `json:"build_cache"`
}

// decodeBody decodes a JSON request body of at most limit bytes,
// rendering the envelope error itself (413 request_too_large past the
// limit, 400 invalid_argument otherwise). The bool reports success.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpErrorCode(w, http.StatusRequestEntityTooLarge, "request_too_large",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		httpErrorCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return false
	}
	return true
}

func (a *apiServer) createTenant(w http.ResponseWriter, r *http.Request) {
	var req createTenantRequest
	if !decodeBody(w, r, createBodyLimit, &req) {
		return
	}
	t, err := a.reg.CreateTenant(mincore.TenantConfig{
		ID: req.ID, Dim: req.Dim, Eps: req.Eps, Alpha: req.Alpha,
		Directions: req.Directions, Seed: req.Seed, Weight: req.Weight,
		QuotaPointsPerSec: req.QuotaPointsPerSec, QuotaBurst: req.QuotaBurst,
		IngestWorkers: req.IngestWorkers, QueueSize: req.QueueSize,
		BuildCache: req.BuildCache,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, tenantInfoJSON(t))
}

func (a *apiServer) listTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": a.reg.ListTenants()})
}

func (a *apiServer) getTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, err := a.reg.Tenant(id)
	fileTrace(r, id, err)
	if err != nil {
		// A quarantined tenant is inspectable: the resource exists, it is
		// just not serving. 200 with health fields beats a bare 503 here —
		// the operator deciding whether to recover or delete needs the
		// reason, and the data plane still gets its 503 on every other
		// route.
		if h, ok := a.reg.QuarantineInfo(id); ok {
			writeJSON(w, http.StatusOK, map[string]any{
				"id": id, "state": h.State, "health": h,
			})
			return
		}
		httpError(w, err)
		return
	}
	info := tenantInfoJSON(t)
	info["state"] = "ok"
	if t.Stats().Degraded {
		info["state"] = "degraded"
	}
	writeJSON(w, http.StatusOK, info)
}

// recoverTenant is POST /v1/tenants/{id}/recover: repair a quarantined
// tenant in place (manifest rewrite, snapshot-generation fallback, or
// stream reset — whichever rung of the ladder works first) without a
// process restart.
func (a *apiServer) recoverTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, err := a.reg.Tenant(id)
	fileTrace(r, id, err)
	t, step, err := a.reg.RecoverTenant(id)
	if err != nil {
		httpError(w, err)
		return
	}
	a.log.Info("tenant recovered via API",
		slog.String("tenant", id), slog.String("step", step))
	writeJSON(w, http.StatusOK, map[string]any{
		"recovered": id,
		"step":      step,
		"stream_n":  t.Service().StreamN(),
	})
}

// readyz is the readiness probe: 200 while the registry serves, with the
// per-tenant degraded-mode state machine rendered so orchestrators and
// operators see partial failure (k of N quarantined) without the whole
// process being marked down — that would turn one corrupt tenant into a
// fleet outage, the exact opposite of quarantine.
func (a *apiServer) readyz(w http.ResponseWriter, r *http.Request) {
	health := a.reg.Health()
	status := "ok"
	counts := map[string]int{}
	for _, h := range health {
		counts[h.State]++
		if h.State != "ok" {
			status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"counts":  counts,
		"tenants": health,
	})
}

func (a *apiServer) deleteTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := a.reg.DeleteTenant(id)
	fileTrace(r, id, err)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func tenantInfoJSON(t *mincore.Tenant) map[string]any {
	cfg := t.Config()
	return map[string]any{
		"id": cfg.ID, "dim": cfg.Dim, "eps": cfg.Eps, "alpha": cfg.Alpha,
		"seed": cfg.Seed, "weight": cfg.Weight,
		"quota_points_per_sec": cfg.QuotaPointsPerSec,
		"stream_n":             t.Service().StreamN(),
	}
}

func (a *apiServer) ingest(w http.ResponseWriter, r *http.Request, t *mincore.Tenant) {
	var req struct {
		Points []mincore.Point `json:"points"`
	}
	if !decodeBody(w, r, a.maxBody, &req) {
		return
	}
	if err := t.FeedCtx(r.Context(), req.Points...); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"ingested": len(req.Points)})
}

func (a *apiServer) coreset(w http.ResponseWriter, r *http.Request, t *mincore.Tenant) {
	epsQ := 0.0 // absent or ≤ 0: the tenant's default ε
	if v := r.URL.Query().Get("eps"); v != "" {
		var err error
		epsQ, err = strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(epsQ) || math.IsInf(epsQ, 0) || epsQ >= 1 {
			httpErrorCode(w, http.StatusBadRequest, "invalid_argument", fmt.Sprintf("bad eps %q: want a number below 1", v))
			return
		}
	}
	algo := mincore.Auto
	if v := r.URL.Query().Get("algo"); v != "" {
		algo = mincore.Algorithm(v)
	}
	ctx := r.Context() // client disconnect cancels the build
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			httpErrorCode(w, http.StatusBadRequest, "invalid_argument", fmt.Sprintf("bad timeout %q", v))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	q, err := t.Coreset(ctx, epsQ, algo)
	if err != nil {
		httpError(w, err)
		return
	}
	if rep := q.Report; rep != nil {
		a.log.Info("build served",
			slog.String("tenant", t.ID()),
			slog.String("algorithm", string(rep.Algorithm)),
			slog.Float64("eps", rep.Eps),
			slog.Float64("certified_loss", rep.CertifiedLoss),
			slog.Bool("certified", rep.Certified),
			slog.Bool("stale", rep.Stale),
			slog.Int("size", q.Size()),
			slog.Int("attempts", rep.Attempts),
			slog.Duration("wall", rep.Wall),
			slog.String("spans", rep.Trace.Summary()))
	}
	resp := map[string]any{
		"size": q.Size(), "eps": q.Eps, "loss": q.Loss,
		"algorithm": q.Algorithm, "points": q.Points, "report": q.Report,
	}
	if rep := q.Report; rep != nil && rep.Stale {
		// Degraded mode is never silent: the body says stale and how far
		// behind, and the header flags it for clients that only look at
		// metadata (RFC 9111 110 = "response is stale").
		w.Header().Set("Warning", `110 - "stale coreset: degraded-mode fallback"`)
		resp["stale"] = true
		if sm := rep.Staleness; sm != nil {
			resp["staleness"] = map[string]any{
				"built_at":      sm.BuiltAt.Format(time.RFC3339Nano),
				"age_seconds":   sm.Age.Seconds(),
				"stream_n":      sm.StreamN,
				"points_behind": sm.PointsBehind,
				"reason":        sm.Reason,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *apiServer) summary(w http.ResponseWriter, r *http.Request, t *mincore.Tenant) {
	ss, err := t.Service().Summary()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"n": ss.N(), "size": ss.Size(), "points": ss.Coreset(),
	})
}

// statsPayload renders one tenant's counters.
func statsPayload(t *mincore.Tenant) map[string]any {
	st := t.Stats()
	resp := map[string]any{
		"tenant":   st.Tenant,
		"ingested": st.Ingested, "rejected": st.Rejected, "invalid": st.Invalid,
		"quota_shed":    st.QuotaShed,
		"worker_panics": st.WorkerPanics,
		"builds":        st.Builds, "builds_shed": st.BuildsShed,
		"cache_hits":            st.CacheHits,
		"cache_misses":          st.CacheMisses,
		"stale_served":          st.StaleServed,
		"degraded":              st.Degraded,
		"restored_points":       st.RestoredPoints,
		"replayed_points":       st.ReplayedPoints,
		"stream_n":              t.Service().StreamN(),
		"checkpoint_generation": st.CheckpointGeneration,
		"checkpoint_points":     st.CheckpointPoints,
		"checkpoint_failures":   st.CheckpointFailures,
		"wal_segments":          st.WALSegments,
		"wal_bytes":             st.WALBytes,
		"storage_degraded":      st.StorageDegraded,
	}
	if !st.LastCheckpoint.IsZero() {
		resp["last_checkpoint"] = st.LastCheckpoint.Format(time.RFC3339Nano)
		resp["checkpoint_lag_seconds"] = st.CheckpointLag.Seconds()
	}
	if st.LastError != nil {
		resp["last_error"] = st.LastError.Error()
	}
	return resp
}

func (a *apiServer) tenantStats(w http.ResponseWriter, r *http.Request, t *mincore.Tenant) {
	writeJSON(w, http.StatusOK, statsPayload(t))
}

func (a *apiServer) snapshot(w http.ResponseWriter, r *http.Request, t *mincore.Tenant) {
	if err := t.CheckpointCtx(r.Context()); err != nil {
		httpError(w, err)
		return
	}
	st := t.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": st.CheckpointGeneration, "points": st.CheckpointPoints,
	})
}

// registryStats renders GET /v1/stats: one row per tenant plus the
// fair-share scheduler counters.
func (a *apiServer) registryStats(w http.ResponseWriter, r *http.Request) {
	st := a.reg.Stats()
	tenants := map[string]any{}
	for _, ts := range st.Tenants {
		if t, err := a.reg.Tenant(ts.Tenant); err == nil {
			tenants[ts.Tenant] = statsPayload(t)
		}
	}
	health := a.reg.Health()
	quarantined := make([]mincore.TenantHealth, 0)
	for _, h := range health {
		if h.State == "quarantined" {
			quarantined = append(quarantined, h)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant_count": len(st.Tenants),
		"tenants":      tenants,
		"quarantined":  quarantined,
		"scheduler": map[string]any{
			"inflight":       st.Scheduler.Inflight,
			"rounds":         st.Scheduler.Rounds,
			"grants":         st.Scheduler.Grants,
			"pending":        st.Scheduler.Pending,
			"tenant_grants":  st.Scheduler.TenantGrants,
			"watchdog_kills": st.Scheduler.WatchdogKills,
		},
	})
}

// errorCode maps the library's typed errors onto the documented
// (status, code) set of the JSON error envelope.
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, mincore.ErrBadTenantID):
		return http.StatusBadRequest, "bad_tenant_id"
	case errors.Is(err, mincore.ErrTenantExists):
		return http.StatusConflict, "tenant_exists"
	case errors.Is(err, mincore.ErrTenantNotFound):
		return http.StatusNotFound, "tenant_not_found"
	case errors.Is(err, mincore.ErrTenantQuarantined):
		return http.StatusServiceUnavailable, "tenant_quarantined"
	case errors.Is(err, mincore.ErrQuotaExceeded):
		return http.StatusTooManyRequests, "quota_exceeded"
	case errors.Is(err, mincore.ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, mincore.ErrStorageUnavailable):
		// The WAL refused the batch: nothing was acknowledged, nothing
		// ingested. Retryable — one successful write clears the state.
		return http.StatusServiceUnavailable, "storage_unavailable"
	case errors.Is(err, mincore.ErrWatchdogKilled):
		return http.StatusServiceUnavailable, "watchdog_killed"
	case errors.Is(err, mincore.ErrInvalidPoint):
		return http.StatusBadRequest, "invalid_point"
	case errors.Is(err, mincore.ErrUnknownAlgorithm):
		return http.StatusBadRequest, "invalid_argument"
	case errors.Is(err, mincore.ErrEmptyInput):
		return http.StatusConflict, "empty_stream"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, mincore.ErrServiceClosed), errors.Is(err, mincore.ErrRegistryClosed):
		return http.StatusServiceUnavailable, "service_closed"
	case errors.Is(err, mincore.ErrUncertified):
		return http.StatusInternalServerError, "uncertified"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeJSON sets the JSON content type before the status line — every
// JSON-producing handler funnels through here or httpError.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// httpError renders a typed error with the standard envelope.
func httpError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	httpErrorCode(w, status, code, err.Error())
}

// httpErrorCode renders the single JSON error envelope used by every
// handler: {"error": {"code": ..., "message": ...}}. Shed responses
// carry Retry-After so well-behaved clients back off.
func httpErrorCode(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}
