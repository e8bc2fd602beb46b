#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload djia-repeat --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare OLD_DIR NEW_DIR
#
# The Go build cache, the binary and traced runs' span files stay under
# .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
