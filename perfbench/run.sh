#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is
# passed through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload udp16-falcon --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every other file the Go toolchain
# writes stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
