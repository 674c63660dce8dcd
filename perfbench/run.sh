#!/usr/bin/env bash
# Builds the churnnet benchmark from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload flood-sdgr --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build product, cache and
# trace file stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# The toolchain's cache, temporary files and config (its telemetry
# counters included) stay in the checkout; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
