#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash benchmark/run.sh                          full report (JSON on stdout)
#   bash benchmark/run.sh --workload dc_irn --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh -compare a.json b.json
#
# Everything the build writes — Go's build cache included — stays inside
# the checkout, under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

# Incremental: a no-op when the sources have not changed.
(cd "$here" && go build -o "$build/irnbench" .)

exec "$build/irnbench" -out-dir "$here/out" "$@"
