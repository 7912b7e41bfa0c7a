#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it there.
# Everything it writes, the Go build cache included, stays under
# .bench_build/ in that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$root/.bench_build/protogen-bench" .)
exec "$root/.bench_build/protogen-bench" "$@"
