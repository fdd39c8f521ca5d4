#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--update]
#
# Run from the root of a checkout. Everything the build and the runs leave
# behind goes under .bench_build/ in that root: the Go build cache, the
# binary, scratch stores and the span traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep the toolchain's caches, module path and local telemetry inside the
# checkout, and never download anything.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
       XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
       GOENV=off GOPROXY=off CGO_ENABLED=0

# The benchmark module imports the repository's packages through a
# replace of ../, so this build fails outside a full checkout.
if ! go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (run from the root of a full checkout)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
