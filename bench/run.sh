#!/usr/bin/env bash
# Builds the benchmark (bench/ledger) and runs it; the ledger in turn
# builds ./cmd/kcoverd from the same tree. Run from the repository root:
#
#   bash bench/run.sh --workload bulk-ingest --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout, including the Go build cache. The build never fetches a
# toolchain or a module.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/ledger" ./ledger
exec "$out/ledger" "$@"
