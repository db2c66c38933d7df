#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper-pingpong --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary, the
# traced run's span files) stays under .bench_build in the current
# directory. Without the madgo sources next to perfbench/ the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
