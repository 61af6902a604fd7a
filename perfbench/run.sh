#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload paper-single --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The build cache, the binary and the
# results all stay under .bench_build in that directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
