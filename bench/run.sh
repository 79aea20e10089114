#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write — Go's build cache, the binary, staged matrices, journals — goes
# under .bench_build/ at the root of the checkout, nothing outside it.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/run.sh [-short | -aa] [-workload NAME] [-seed N] [-trace-out FILE]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off XDG_CONFIG_HOME="$out/config" # no per-user go env file, no telemetry outside the checkout
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$out/bench" .)
exec "$out/bench" -scratch "$out/tmp" "$@"
