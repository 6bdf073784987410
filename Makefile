GO ?= go

.PHONY: build test vet race verify bench bench-workers bench-json bench-cache bench-speed faults fuzz chaos tenants degrade wal trace speed

build:
	$(GO) build ./...

# Streaming/serving tests run under the race detector with bounded
# parallelism; the rest of the suite runs plain.
test:
	$(GO) test ./...
	GOMAXPROCS=4 $(GO) test -race -run 'TestServe|TestStream|TestSnapshot' .
	GOMAXPROCS=4 $(GO) test -race ./internal/stream/ ./internal/snapshot/
	GOMAXPROCS=4 $(GO) test -race ./internal/obs/ ./cmd/mcserve/

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Full tier-1 gate: build + vet + race-clean tests.
verify:
	./scripts/verify.sh

# Deterministic fault-injection matrix: every repair/fallback edge under
# the race detector, across seeds 1..5.
faults:
	$(GO) test -race -count=1 ./internal/faultinject/
	@for seed in 1 2 3 4 5; do \
		echo "-- MINCORE_FAULT_SEED=$$seed"; \
		MINCORE_FAULT_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestFault' . || exit 1; \
	done

# Seeded kill/restore chaos matrix: crash the ingest service mid-stream
# under injected snapshot I/O faults and worker panics, then check the
# recovered coreset's directional loss stays within 2ε. The WAL leg
# kills at randomized crash points (mid-append, post-append-pre-ack,
# post-ack, post-truncation) and asserts zero acknowledged-point loss
# with the recovered summary byte-identical to an uninterrupted run.
# Set MINCORE_CHAOS_SEED=n to replay one schedule.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosKillRestoreMatrix' -v .
	$(GO) test -race -count=1 -run 'TestChaosWALCrashPoints|TestChaosWALGroupCommitBound' -v .

# Write-ahead log: the unit/crash-point/recovery suite under the race
# detector, a fuzz burst over the segment decoder (torn and hostile
# tails must truncate cleanly, never panic), and the serve/tenant/HTTP
# durability legs.
wal:
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s -run '^$$' ./internal/wal/
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestChaosWAL|TestServeWAL|TestTenantWALRecoveryLadder' .
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestParseWALConfig|TestGracefulShutdownDrains|TestIngestStorageUnavailableHTTP|TestWALMetricFamilies' ./cmd/mcserve/

# Multi-tenant serving under the race detector: registry lifecycle,
# deterministic fair-share scheduling (also a standalone service's
# one-tenant admission path and its ε/algorithm check), quota shedding,
# and the v1 HTTP API (tenant CRUD, error envelope, ε validation,
# labeled metrics).
tenants:
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestScheduler|TestTenant|TestValidTenantID|TestServeAdmissionControl|TestServeStandaloneBuildsQueue|TestServeRejectsInvalidBuildRequests' .
	GOMAXPROCS=4 $(GO) test -race -count=1 ./cmd/mcserve/

# Degraded-mode serving under the race detector: tenant quarantine and
# the in-place recover ladder, stale-coreset fallback bounds, the
# fake-clock build watchdog, checkpoint-failure health, the hardened
# HTTP front door, and the chaos matrix's fleet-corruption leg.
degrade:
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestSchedulerWatchdog|TestStaleFallback|TestWatchdogKillAnsweredStale|TestCheckpointFailuresDegrade|TestChaosFleetCorruption' .
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestQuarantineLifecycleHTTP|TestStaleServingHTTP|TestRequestBodyLimits|TestDegradedMetricFamilies' ./cmd/mcserve/

# Request tracing and the flight recorder under the race detector: span
# propagation end to end (fallback chain, watchdog kill, WAL replay at
# restore), the bounded trace store's keep-policy, the HTTP trace
# endpoints, exemplar'd latency histograms, and the serve-path tracing
# overhead benchmark (budget < 2%, committed in BENCH_observability.json).
trace:
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestTraceStaleServePropagation|TestTraceWatchdogKillFlightRecorder|TestTraceRestoreReplay|TestTraceWALAppendSpans' .
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestTraceEndToEndHTTP|TestTraceAnomalyRetentionHTTP|TestTraceSlowThresholdHTTP|TestTraceEndpointsDisabled|TestTraceFiledOnlyUnderKnownTenants|TestHTTPMetricsAndRuntimeGauges|TestDebugTracesEndpoint|TestRouteLabelTable' ./cmd/mcserve/
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestTraceStore|TestRequestTrace|TestFlightRecorder|TestFlightBundle|TestHistogramExemplar|TestRegisterRuntimeGauges' ./internal/obs/
	$(GO) test -bench ServeTraceOverhead -benchtime 5x -run '^$$' .

# Short fuzz smoke of the public build pipeline (never panics; nil error
# implies certified loss ≤ ε).
fuzz:
	$(GO) test -fuzz=FuzzNewCoreset -fuzztime=10s -run '^$$' .

# One regeneration of every experiment plus micro/ablation benches.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -timeout 3600s -run '^$$' ./...

# The Workers=1 vs Workers=N dominance-graph scaling comparison.
bench-workers:
	$(GO) test -bench 'DominanceGraphWorkers|DGBuildWorkers' -benchtime 3x -run '^$$' ./...

# Regenerate the committed machine-readable benchmark snapshot
# (BENCH_observability.json): hot-path timings, the observability
# disabled-vs-enabled overhead, and the post-run metric counters.
bench-json:
	./scripts/bench_json.sh

# Regenerate the cache benchmark snapshot (BENCH_cache.json): warm-vs-
# cold ns/op for repeated identical builds (>= 50x required) and the
# FixedSize full-build counts with and without a primed cache.
bench-cache:
	./scripts/bench_cache.sh

# Regenerate the raw-speed snapshot (BENCH_speed.json): cold DG build
# baseline vs pooled+warm-started (>= 5x speedup and >= 5x fewer allocs
# required), cold certified auto build with the prefilter on vs off, and
# the prefilter shrink ratio n/ξ.
bench-speed:
	./scripts/bench_speed.sh

# Raw-speed correctness: the warm-start/prefilter determinism matrix
# under the race detector, then the allocation-regression gates (plain —
# race instrumentation inflates alloc counts, and the gate files are
# built with //go:build !race).
speed:
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'TestDGWarmMatchesBaselineBitwise|TestSolverWarm|TestPrefilter' . ./internal/core/ ./internal/lp/
	$(GO) test -count=1 -run 'TestSolverAllocsSteadyState|TestEdgeLPAllocs' ./internal/lp/ ./internal/core/
