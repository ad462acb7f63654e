#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# is redirected under .bench_build/ so a run reads and writes only inside
# its checkout. The build is incremental: after the first run it costs a
# fraction of a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -o "$build/nodb-benchmark" ./benchmark
exec "$build/nodb-benchmark" "$@"
