#!/usr/bin/env bash
# Regenerate BENCH_speed.json: the raw-speed snapshot of LP
# warm-starting and the allocation diet — cold dominance-graph build
# (baseline vs pooled+warm, ns/op and allocs/op). Runs the in-process
# harness in benchspeed_test.go, which is env-gated so the normal test
# suite never pays for it.
#
# Usage: scripts/bench_speed.sh [output-path]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_speed.json}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac

MINCORE_BENCH_SPEED="$out" go test -run '^TestWriteBenchSpeed$' -count=1 -v -timeout 1800s .
echo "wrote $out"
