#!/usr/bin/env bash
# Builds the edgedrift benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash edgebench/run.sh --workload fan-steady --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the trace files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/edgebench" && go build -o "$out/edgebench" .)
exec "$out/edgebench" "$@"
