#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write — Go's build cache, the binary,
# journal directories — stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
