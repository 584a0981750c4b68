#!/usr/bin/env bash
# Builds the authdex benchmark from source and runs it. Run from the
# repository root:
#
#   bash authbench/run.sh --workload browse --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's stores all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd authbench && go build -o "$out/authbench" .)
exec "$out/authbench" --data "$out/data" --bench-json BENCHMARK.json "$@"
