#!/usr/bin/env bash
# Builds the layer benchmark from source and runs it, forwarding every
# argument. Run it from the repository root:
#
#   bash layerbench/run.sh --workload multiwalk --seed 1 --seconds 60 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, scratch files, the binary, the campaign
# store). Without the repository's module one directory up the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -p 2 -o "$out/layerbench" .)
exec "$out/layerbench" -data "$out/layerbench-data" "$@"
