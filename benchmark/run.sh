#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
#
# Everything the build writes stays inside the checkout: the Go build cache,
# the toolchain's temporary files and the binary all live under .bench_build/
# at the repository root (ignored by git). The first build in a checkout
# compiles the standard library into that cache; later ones only check it.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOWORK=off

cd "$root/benchmark"
go build -o "$build/skalla-benchmark" .
cd "$root"
exec "$build/skalla-benchmark" "$@"
