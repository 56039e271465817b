#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root and runs it with the driver's
# arguments. Everything the build writes — Go's build cache and temp
# files included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# No module is fetched (the repository has no dependencies); say so.
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# The benchmark is its own module (bench/go.mod) that replaces `repro`
# with the checkout; without the checkout's go.mod this build fails and
# the script exits non-zero before printing anything.
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
