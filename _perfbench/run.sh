#!/usr/bin/env bash
# Builds the benchmark and vaxd from source into .bench_build/perfbench
# (Go build cache included, so nothing is written outside the checkout)
# and runs one benchmark invocation. Run from the repository root:
#
#   bash _perfbench/run.sh --workload composite --seed 1 --seconds 45 --trace 0
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The go command also keeps telemetry under the user config directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false -mod=mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/vaxd" vax780/cmd/vaxd) >&2

exec "$out/perfbench" -work "$out/work" -vaxd "$out/vaxd" "$@"
