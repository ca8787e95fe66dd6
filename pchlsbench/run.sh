#!/usr/bin/env bash
# Builds the pchls benchmark from source and runs it.
#
#   bash pchlsbench/run.sh --workload classic-grid --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build/ in that checkout, and
# traces are written there too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/pchlsbench" && go build -o "$out/pchlsbench" .)
exec "$out/pchlsbench" -out "$out" "$@"
