#!/usr/bin/env bash
# Builds the dmrbench command from this checkout's sources and runs it
# with the given arguments. Run it from the root of the repository:
#
#   bash bench/run.sh --workload fs_sparse --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, the
# dmrbench binary, traces) stays under .bench_build/ in the checkout; the
# build never touches the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/bench" && go build -o "$out/dmrbench" ./cmd/dmrbench)
exec "$out/dmrbench" "$@"
