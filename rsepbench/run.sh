#!/usr/bin/env bash
# Builds the rsepbench driver from the checkout's sources and runs it.
#
#   bash rsepbench/run.sh --workload sweep-mem --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, the binary and every
# store the benchmark writes live under .bench_build/ in that root, so the
# run reads and writes nothing outside it. Without the simulator's sources
# beside it (go.mod at the root), the build fails and the script exits 1.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/rsepbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/rsepbench" build -trimpath -o "$out/rsepbench" . >&2
exec "$out/rsepbench" -root "$root" "$@"
