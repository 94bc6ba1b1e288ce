#!/usr/bin/env bash
# Builds fairrankd and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and results stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fairrankd" ]; then
    echo "perfbench: run from the repository root (no go.mod or cmd/fairrankd here)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/fairrankd" ./cmd/fairrankd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
