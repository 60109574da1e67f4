#!/usr/bin/env bash
# Builds sfcpd and the perfbench driver from the sources of the checkout
# it is run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload solve-large --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#   bash perfbench/run.sh list
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
# The go command's caches, temp files, config and local telemetry all land
# under $out; GOTOOLCHAIN=local keeps it from fetching another toolchain.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/sfcpd" ./cmd/sfcpd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -sfcpd "$out/bin/sfcpd" "$@"
