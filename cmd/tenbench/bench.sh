#!/usr/bin/env bash
# Builds tenbench from source and runs it with the given arguments. Run it
# from the root of a checkout of the repository:
#
#   bash cmd/tenbench/bench.sh --workload suite --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, temporary files, and the results and
# trace files all stay under .bench_build in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C cmd/tenbench build -o "$out/bin/tenbench" .
exec "$out/bin/tenbench" -out "$out/results" "$@"
