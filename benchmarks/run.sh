#!/usr/bin/env bash
# Builds actorbench from source into .bench_build/ at the repository root and
# runs it with the given arguments, from the repository root. Everything the
# Go toolchain writes (build cache, temporary files) stays under .bench_build/
# too, so a run touches nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/benchmarks" && go build -o "$build/actorbench" ./actorbench)
cd "$root"
exec "$build/actorbench" "$@"
