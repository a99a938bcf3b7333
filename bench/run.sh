#!/usr/bin/env bash
# Builds the perf lab from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload decode_tcp --seed 1 --seconds 15 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, traces under bench/out/. bench is a
# package of the repository's module, so in a directory that holds only
# bench/ there is nothing to build against and this script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root/go.mod not found: the perf lab builds against the repository it sits in" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
go build -o "$build/pipebench" ./bench
exec "$build/pipebench" "$@"
