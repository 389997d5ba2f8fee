#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. The benchmark is its own Go module
# (the repo's tier-1 build never compiles it), so build it here and run
# it from the repo root. Everything the toolchain and the runs write
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
