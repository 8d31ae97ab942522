#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it, passing every
# argument through, e.g.
#
#   bash perfbench/run.sh --workload grid --seed 0 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and Go's build caches live
# under .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the root of a refsched checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
