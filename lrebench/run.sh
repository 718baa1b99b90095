#!/usr/bin/env bash
# Builds lred and the benchmark from this checkout, then runs one workload:
#
#   bash lrebench/run.sh --workload sv-replay --seed 1 --seconds 10 --trace 0
#
# Everything it writes (build cache, binaries, bundles, spools, traces)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/lred" ./cmd/lred
(cd lrebench && go build -o "$out/bin/lrebench" .)
exec "$out/bin/lrebench" -lred "$out/bin/lred" -workdir "$out" "$@"
