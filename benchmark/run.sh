#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the repository root:
#
#   bash benchmark/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay in
# .bench_build/ so a run writes nothing outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$out/mpress-bench" .
exec "$out/mpress-bench" "$@"
