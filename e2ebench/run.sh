#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload proto4x4_read --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span files
# of traced runs. A failed build exits non-zero and prints no result.
set -euo pipefail
root=$PWD
build=$root/.bench_build
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin # the official Go install location
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build"
(cd "$root/e2ebench" && go build -trimpath -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
