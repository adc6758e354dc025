#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload single-long --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, Go's own state) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
export GOMAXPROCS=2

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
