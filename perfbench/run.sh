#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; all arguments go to the benchmark, e.g.
#   bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and the Go tool's own settings stay
# under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
