#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build writes (binary, Go build cache,
# Go's own config) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$build/tornado-bench" . >&2
cd "$root"
exec "$build/tornado-bench" "$@"
