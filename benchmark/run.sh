#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, so that everything the benchmark reads
# and writes (build cache, binary, data directories) stays in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/spinnaker-benchmark" .) >&2
# The driver's checkout is not a git repository; the commit is recorded when there is one.
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
cd "$root"
exec "$build/spinnaker-benchmark" "$@"
