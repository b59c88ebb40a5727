#!/usr/bin/env bash
# Builds the repository benchmark inside the current checkout and runs
# it; arguments pass through (see README.md):
#
#   bash cmd/perfbench/run.sh --workload dumbbell8 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, cache and trace
# artifact stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/perfbench/main.go ]]; then
    echo "perfbench: run from the repository root (no go.mod here)" >&2
    exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=vendor GOTOOLCHAIN=local
go build -o "$out/bin/perfbench" ./cmd/perfbench
exec "$out/bin/perfbench" "$@"
