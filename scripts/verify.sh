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

# OptMC has one production path, the arc cover. Algorithm 1's overlap
# graph and shortest cycle are its test reference, so no library,
# command or example build may link internal/graph.
echo "== no build links internal/graph"
deps=$(go list -deps . ./cmd/... ./examples/...)
if grep -qx 'mincore/internal/graph' <<<"$deps"; then
    echo "mincore/internal/graph is linked into a build"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# Formatting: gofmt must have nothing to rewrite anywhere in the tree.
echo "== gofmt -l ."
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

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
# with the write-ahead log on, every restart must restore exactly the
# acknowledged log position (a read fault's fallback to the older
# generation included), and the recovered coreset must keep its 2ε loss
# bound.
echo "== chaos kill/restore matrix"
go test -race -count=1 -run 'TestChaosKillRestoreMatrix' .

# Write-ahead log: the segment codec, torn-tail repair, and crash-point
# matrix under the race detector, then the serve-level contract — with
# per-batch sync no acknowledged point is ever lost across randomized
# kills (mid-append, post-append-pre-ack, post-ack, post-compaction) and
# the recovered summary is byte-identical to an uninterrupted run; a
# checkpoint racing the ingest worker saves a true log prefix (the end
# of the last batch it finished), and a save in progress blocks neither
# a cache-hit read nor Stats; a snapshot-only directory upgrades
# onto a fresh log; a failing log refuses ingest with
# ErrStorageUnavailable instead of acking; graceful shutdown
# checkpoints and syncs every tenant.
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
# the race detector, bitwise identity of cached results and a hit >= 50x
# faster than the cold build, FixedSize through the cache (an identical
# repeat runs no build, the answer does not depend on earlier builds,
# and the report names the winning probe's algorithm and fallback
# trail), sweep consistency, and the serve cache's one entry per
# (ε, algorithm), stamped with the champion version it copied: batches
# of already-seen and interior points keep the hit (with the checkpoint
# provenance of now), a new champion misses, and every answer, hit or
# rebuild, is bitwise what an uncached service returns for the same
# stream; after a restart, from a Kill through the log replay and from
# a Close through the final snapshot, batches of points seen before it
# keep hitting with no champion update.
echo "== build cache (singleflight, handoff, bitwise identity)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestBuildCache|TestResultCache|TestWithBuildCache|TestFixedSizeRepeatServedFromCache|TestFixedSizeIgnoresCacheHistory|TestFixedSizeReportsWinningProbe|TestCoresetSweep|TestServeCoreset|TestServeBuildCache|TestQuantizeEps' .

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
# ladder, stale-coreset fallback (bounds, never-silent marking, the
# newest build kept when overlapping builds finish out of order, and
# the store bounded by the serve cache's capacity), the
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

# Raw speed: the warm-start determinism contract under the race
# detector — the pooled, warm-started dominance-graph build must
# reproduce the cold results bit for bit across worker counts — the
# gauge loss oracle against the per-owner dual LP it replaced (every
# owner's loss within 1e-12, loss 1 exactly where the reference reads
# ≥ 1, bitwise identical across worker counts and warm-start on/off)
# in d 2-6, and in 2D against the critical-direction sweep, its test
# reference there (every set's loss within 1e-12), and SCMC's cut
# loop: multiplier and Farkas cut readouts, the pinned sizes, the round
# bound, cancellation mid-loop, and bitwise determinism at ε = 0.02;
# then the allocation-regression gates of the DG build and the loss
# oracle, run plain because race instrumentation inflates alloc counts
# (the gate files are excluded via //go:build !race); then, also plain,
# the pinned public build outputs (every index sequence, loss bit and
# repair trail of the pinned requests, and Auto equal to SCMC, never
# larger than DSMC, on every d ≥ 4 row), the d ≥ 4 Auto builds that
# never reach the dominance graph (no dg-build or dsmc-greedy span, no
# graph after single builds or a sweep, and a fault-injected SCMC that
# certifies on Auto's retry without hitting the graph's failpoint), SCMC
# no larger than DSMC and below ξ on small clouds in d 6, 7 and 9
# (built //go:build !race: its DSMC legs take ~10x longer under the race
# detector), and the Clarkson scan's pinned extreme-point sequences
# (the interior screen must leave every index and its order unchanged)
# with the brute-force reference and the screen's yield stop: the scan
# is sequential, and the race detector makes its 20k-point inputs ~15x
# slower. Then, plain as well, OptMC against Algorithm 1's overlap-graph
# reference (one input above 600 candidates) and its pinned size table
# on clouds of up to 100k points. Last, plain too, the stream sketch's
# champion floor against a brute-force per-direction argmax (slot
# values, champions and update counts bit for bit in d 2-6, at scales
# from 1e-318 to 1e300, after Merge and FromState too) and the
# served-path pins: a WAL-backed registry tenant's summary, update
# count and served coresets after fixed ingest scripts in d 3-5 and a
# d-3 script of exact ties between distinct points, and the same
# summary after a Kill, restore and log replay.
echo "== raw speed (warm-start determinism, gauge oracle reference, SCMC cuts, alloc gates, build, hull and served-path pins, d >= 4 Auto policy, OptMC reference and sizes, stream floor reference)"
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestDGWarmMatchesBaselineBitwise|TestSolverWarm|TestWarmStartWorkerMatrix|TestGaugeOracleMatchesReference|TestMultipliers|TestOwnerLPFarkasCuts|TestSCMC|TestWorkerCountDeterminism$|TestCoresetCtxCancelMidBuild' . ./internal/core/ ./internal/lp/
go test -count=1 -run 'TestSolverAllocsSteadyState|TestEdgeLPAllocs|TestLossOracleAllocs' ./internal/lp/ ./internal/core/
go test -count=1 -run 'TestBuildOutputsPinned|TestAutoDominanceGraphOnlyInD3|TestAutoSCMCNoLargerThanDSMCHighD|TestFaultAutoSCMCRetriesWithoutDSMC|TestServedPathPinned' .
go test -count=1 -run 'TestExtremePointsPinned|TestExtremePointsMatchBrute|TestScreenYield' ./internal/hull/
go test -count=1 -run 'TestOptMCMatchesAlgorithm1|TestOptMCSizesPinned' ./internal/core/
go test -count=1 -run 'TestFeedFloorMatchesBrute|TestVersionTracksChampionChanges' ./internal/stream/

echo "verify: OK"
