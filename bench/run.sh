#!/usr/bin/env bash
# The benchmark command named in BENCHMARK.json: build the bench module
# from source into .bench_build/ under the checkout, then run it there.
# Everything the build and the run write (Go build cache, temporaries,
# WAL, checkpoint and spill files) stays inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/run"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/colabench" .)
exec "$build/colabench" -dir "$build/run" "$@"
