#!/usr/bin/env bash
# Builds the load rig from the checkout it is run in and runs it with the
# arguments given. Everything the build writes (binary, Go build cache,
# module cache, temporary files, Go's per-user config) stays under
# .bench_build in the checkout.
#
#   bash bench/run.sh --workload route3_msg --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -o "$out/tota-bench" .)
exec "$out/tota-bench" "$@"
