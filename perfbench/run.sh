#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload ladder_5d --seed 1 --seconds 25 --trace 0
#
# --trace 0 runs the untraced end-to-end binary (perfbench/e2e), --trace 1
# the traced per-layer binary (perfbench/layers). Everything the Go
# toolchain writes (build cache, telemetry, binaries) stays under
# .bench_build in the checkout.
set -euo pipefail

trace=0
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace="$2"; shift 2 ;;
    --trace=*) trace="${1#--trace=}"; shift ;;
    *) args+=("$1"); shift ;;
  esac
done
case "$trace" in
  0) cmd=e2e ;;
  1) cmd=layers ;;
  *) echo "run.sh: --trace must be 0 or 1, got $trace" >&2; exit 2 ;;
esac

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# GOTOOLCHAIN=local: never fetch another toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C perfbench -o "$out/$cmd" "./$cmd"
exec "$out/$cmd" "${args[@]}"
