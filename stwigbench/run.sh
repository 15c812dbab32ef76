#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness (which in turn
# builds ./cmd/stwigd) with every toolchain cache inside <checkout>/.bench_build,
# then hands the driver's arguments to it. Run from the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/stwigbench" && go build -o "$build/bin/stwigbench" .)
cd "$root"
exec "$build/bin/stwigbench" "$@"
