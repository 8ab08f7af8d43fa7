#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload price-fresh --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory. Without the repository's sources next to the
# benchmark (../go.mod), the build fails and the script exits non-zero
# before printing anything on standard output.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
