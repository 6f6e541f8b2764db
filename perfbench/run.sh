#!/usr/bin/env bash
# Builds rpserved and the perfbench program from the checkout's sources
# and runs perfbench with the given arguments. Run from the checkout
# root:  bash perfbench/run.sh --workload detect-long --seed 1 --seconds 25 --trace 0
# Everything the build and the runs leave behind stays in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" TMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/rpserved" ./cmd/rpserved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server-bin "$out/rpserved" --work-dir "$out" "$@"
