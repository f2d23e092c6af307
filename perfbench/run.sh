#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-week --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build writes (binary, Go
# build cache, module cache, temporaries) stays under .bench_build/ there,
# and results and span dumps go to .bench_results/.
set -euo pipefail

root=$PWD
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 GOWORK=off

(cd "$bench_dir" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
