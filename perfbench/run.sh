#!/usr/bin/env bash
# Builds the benchmark and the mtpad daemon from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_corpus --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build in the repository root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/mtpad" mtpa/cmd/mtpad) >&2
exec "$out/perfbench" --mtpad "$out/mtpad" "$@"
