#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tile-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build): the Go build
# cache, the binary, the object files of the in-process cluster and the
# span file of a traced run. No module is downloaded.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
