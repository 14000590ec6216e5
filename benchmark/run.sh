#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it with
# the driver's arguments (--workload --seed --seconds --trace). Everything it
# writes — Go build cache, binary, journals, trace files — stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp"
(cd "$root/benchmark" && go build -o "$build/fsmon-benchmark" .)
# A fresh build leaves ~120 MB of dirty cache pages; their writeback would run
# beside the journal workload's own writes (-8% events_per_s when left in).
sync
cd "$root"
exec "$build/fsmon-benchmark" "$@"
