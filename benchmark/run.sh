#!/usr/bin/env bash
# Builds the benchmark from source and runs it. All arguments go to the
# program: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Everything written stays inside the checkout: the Go build cache and the
# binary under .bench_build/ at its root, run output under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build" "$here/out"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
