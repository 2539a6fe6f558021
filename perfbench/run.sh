#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out/perfbench" "$@"
