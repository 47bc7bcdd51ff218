#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload query-cmc --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh digests
#   bash perfbench/run.sh steady --workload sharded
# Run it from the repository root. Build outputs, the Go build cache and
# scratch files stay under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/serve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
