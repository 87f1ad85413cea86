#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#   bash e2ebench/run.sh --workload scan-b3 --seed 1 --seconds 25 --trace 0
# Run it from the repository root. The build cache, the fixtures and the
# ops' scratch files all go under .bench_build; nothing is downloaded.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOFLAGS=
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
