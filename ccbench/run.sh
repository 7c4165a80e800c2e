#!/usr/bin/env bash
# Builds the ccserve benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash ccbench/run.sh --workload <big-components|p5-png|small-mix> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and the traced run's span dumps go under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/home/go"
export GOMODCACHE="$out/home/go/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$bench_dir" && go build -buildvcs=false -o "$out/ccbench" .) >&2

rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
CCBENCH_REV=$rev exec "$out/ccbench" "$@"
