#!/usr/bin/env bash
# Builds cmd/rsuload from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/rsuload/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the toolchain's telemetry and the
# binary stay under .bench_build/ in the current directory, and the
# toolchain never reaches for the network: the module has no
# dependencies outside this repository.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/cmd/rsuload" && go build -o "$build/bin/rsuload" .)
exec "$build/bin/rsuload" "$@"
