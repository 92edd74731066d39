#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload toll-replay --seed 1 --seconds 55 --trace 0
#
# Run it from the repository root. Every build and run artefact
# (Go build cache, binary, durable-state scratch) stays under
# .bench_build in the current directory. Without the engine's sources
# next to perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
