#!/usr/bin/env bash
# Builds hayatbench from source and runs it with the given arguments, e.g.
#
#   bash hayatbench/run.sh --workload paper-8x8 --seed 1 --seconds 20 --trace 0
#
# It works from the repository root, and everything it writes (Go build
# cache, binary, traces, per-run scratch files) stays under .bench_build/
# there. The Go toolchain already installed is used as is; nothing is
# downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C hayatbench -o "$out/hayatbench" .
exec "$out/hayatbench" "$@"
