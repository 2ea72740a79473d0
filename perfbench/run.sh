#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Every build artefact, Go cache, Go
# telemetry counter and scratch file stays under <checkout>/.bench_build.
#
#   bash perfbench/run.sh --workload kv-trickle --seed 1 --seconds 40 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/perfbench.d" "$@"
