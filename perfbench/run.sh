#!/usr/bin/env bash
# Builds the dmml benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload dml-logreg --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# (Go build cache and binary) and .bench_run/ (generated inputs and spill
# files, removed when a run ends) at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root is not a dmml checkout (no go.mod or internal/)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
