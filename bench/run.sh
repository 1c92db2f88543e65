#!/usr/bin/env bash
# Entry point named by BENCHMARK.json.  Builds the benchmark (a module
# of its own, bench/go.mod) from the checkout's sources and runs it from
# the checkout's root.  The Go build cache, module cache, configuration
# directory, the binary, and every store a run creates are kept under
# .bench_build/ inside the checkout, so nothing is read or written
# elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd bench && go build -o "$build/mdm-bench" .)
exec "$build/mdm-bench" "$@"
