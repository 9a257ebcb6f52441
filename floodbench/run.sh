#!/bin/sh
# Builds the floodbench binary from the sources in this checkout and runs it
# with the given arguments. Run from the repository root:
#
#	sh floodbench/run.sh --workload dbao-2pct --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout. Without the repository's own go.mod next to
# floodbench/ the build fails and the script exits non-zero with no result.
set -eu

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
# The go command keeps its telemetry counters and env file under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -C floodbench -o "$build/floodbench" .
exec "$build/floodbench" "$@"
