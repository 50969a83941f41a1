#!/usr/bin/env bash
# Builds the e2ebench binary inside the checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload oneshot-powerlaw --seed 3 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the temporary inputs (removed when
# the run ends) and the span file of a traced run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
