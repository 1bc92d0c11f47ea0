#!/usr/bin/env bash
# Builds the benchmark from source and runs it from its own directory, so
# it finds golden.json and writes out/ there. The Go build cache, the
# toolchain's config and telemetry, and the binary stay inside the
# checkout, under .bench_build, and the build never touches the network.
#
#   bash bench/run.sh --workload parent-only --seed 100 --seconds 16 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR"
cd "$here"
go build -o "$build/spawnbench" .
exec "$build/spawnbench" "$@"
