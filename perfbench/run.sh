#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
