#!/usr/bin/env bash
# Tier-1 verification: build, vet, and the full test suite under the race
# detector. The parallel hot paths (dominance-graph LPs, loss evaluation,
# SCMC's set system, the concurrent auto mode) must stay race-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

# The benchmark (perfbench/) is its own module, so the root build never
# compiles it; building it here catches a change to the library's API
# that would break perfbench/run.sh. Building several packages writes
# no binaries.
echo "== go build -C perfbench ./..."
go build -C perfbench ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

# Fault-injection matrix: the repair pipeline's fallback edges under the
# race detector, across a sweep of deterministic failure schedules.
echo "== fault-injection matrix (seeds 1..5)"
go test -race -count=1 ./internal/faultinject/
for seed in 1 2 3 4 5; do
    echo "   -- MINCORE_FAULT_SEED=$seed"
    MINCORE_FAULT_SEED=$seed go test -race -count=1 \
        -run 'TestFault|TestExtremeEpsilons|TestFixedSizeExtreme' .
done

# Durability: seeded kill/restore chaos matrix — crash-and-recover the
# ingest service under injected snapshot I/O faults and worker panics;
# the recovered coreset must keep its 2ε loss bound.
echo "== chaos kill/restore matrix"
go test -race -count=1 -run 'TestChaosKillRestoreMatrix' .

# Write-ahead log: the segment codec, torn-tail repair, and crash-point
# matrix under the race detector, then the serve-level contract — with
# per-batch sync no acknowledged point is ever lost across randomized
# kills (mid-append, post-append-pre-ack, post-ack, post-truncation) and
# the recovered summary is byte-identical to an uninterrupted run; a
# failing log refuses ingest with ErrStorageUnavailable instead of
# acking; graceful shutdown checkpoints and syncs every tenant.
echo "== write-ahead log (crash points, zero acked-point loss)"
go test -race -count=1 ./internal/wal/
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestChaosWAL|TestServeWAL|TestTenantWAL' .
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestParseWALConfig|TestGracefulShutdownDrains|TestIngestStorageUnavailableHTTP|TestWALMetricFamilies' ./cmd/mcserve/

# Observability: the metrics registry and exposition under the race
# detector, plus an end-to-end smoke — the mcserve tests stand up the
# real route table, scrape /metrics, and validate the scrape with the
# strict Prometheus text parser (>= 10 mincore_ families required).
echo "== observability (metrics registry, /metrics smoke, trace spans)"
GOMAXPROCS=4 go test -race -count=1 ./internal/obs/ ./cmd/mcserve/
go test -count=1 -run 'TestTrace|TestServiceStatsCheckpointLag' .

# Build cache: singleflight dedup and leader-cancellation handoff under
# the race detector, bitwise identity of cached results, the FixedSize
# bracket shrink, sweep consistency, and serve-layer invalidation.
echo "== build cache (singleflight, handoff, bitwise identity)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestBuildCache|TestResultCache|TestWithBuildCache|TestFixedSizeBracket|TestCoresetSweep|TestServeCoreset|TestServeBuildCache|TestQuantizeEps' .

# Multi-tenant serving: tenant registry lifecycle, deterministic DRR
# fair-share scheduling (starvation bound, weighted draining), quota
# shedding with an injected clock, and the versioned HTTP API — the
# mcserve leg above already stands up the /v1 mux through httptest,
# rejects malformed ε with 400 before any build slot is taken, and
# scrapes the tenant-labeled metric families; here the library-level
# tenant and scheduler suites run under the race detector too,
# including a standalone service's one-tenant admission path (builds
# queue, Close/Kill fail the queued ones) and its ε/algorithm check.
echo "== multi-tenant (registry, fair-share scheduler, quotas)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestScheduler|TestTenant|TestValidTenantID|TestServeAdmissionControl|TestServeStandaloneBuildsQueue|TestServeRejectsInvalidBuildRequests' .

# Degraded-mode serving: tenant quarantine + the in-place recover
# ladder, stale-coreset fallback (bounds, never-silent marking), the
# fake-clock build watchdog, checkpoint-failure health, and the
# hardened front door. The mcserve leg boots the real mux through
# httptest, scrapes /readyz and /metrics, and validates the
# mincore_tenants_quarantined / mincore_build_watchdog_kills_total /
# mincore_stale_serves_total families with the strict Prometheus
# parser; the library leg includes the chaos matrix's k-of-N
# fleet-corruption round.
echo "== degraded mode (quarantine, stale fallback, watchdog, front door)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestSchedulerWatchdog|TestStaleFallback|TestWatchdogKillAnsweredStale|TestCheckpointFailuresDegrade|TestChaosFleetCorruption' .
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestQuarantineLifecycleHTTP|TestStaleServingHTTP|TestRequestBodyLimits|TestDegradedMetricFamilies' ./cmd/mcserve/

# Request tracing: one trace ID end to end — the library leg drives the
# fallback chain, watchdog-kill flight recorder, and WAL-replay restore
# trace under the race detector; the HTTP leg boots the real mux through
# httptest, sends X-Request-Id'd requests, scrapes the retained traces
# back off /v1/tenants/{id}/traces (anomaly retention included; unknown
# tenant ids stay untenanted so they cannot grow the store), and checks
# the latency histograms carry exemplar trace IDs on the JSON surface
# while the Prometheus text exposition still round-trips the strict
# parser.
echo "== request tracing (trace store, flight recorder, exemplars)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestTraceStaleServePropagation|TestTraceWatchdogKillFlightRecorder|TestTraceRestoreReplay|TestTraceWALAppendSpans' .
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestTraceEndToEndHTTP|TestTraceAnomalyRetentionHTTP|TestTraceSlowThresholdHTTP|TestTraceEndpointsDisabled|TestTraceFiledOnlyUnderKnownTenants|TestHTTPMetricsAndRuntimeGauges|TestDebugTracesEndpoint|TestRouteLabelTable' ./cmd/mcserve/
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestTraceStore|TestRequestTrace|TestFlightRecorder|TestFlightBundle|TestHistogramExemplar|TestRegisterRuntimeGauges' ./internal/obs/

# Raw speed: the warm-start/prefilter determinism contract under the
# race detector — the pooled, warm-started dominance-graph build and the
# prefiltered work instance must reproduce the cold/unfiltered results
# bit for bit across worker counts — then the allocation-regression
# gates, run plain because race instrumentation inflates alloc counts
# (the gate files are excluded via //go:build !race).
echo "== raw speed (warm-start determinism, prefilter exactness, alloc gates)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestDGWarmMatchesBaselineBitwise|TestSolverWarm|TestPrefilter' . ./internal/core/ ./internal/lp/
go test -count=1 -run 'TestSolverAllocsSteadyState|TestEdgeLPAllocs' ./internal/lp/ ./internal/core/

echo "verify: OK"
