#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; the
# arguments (--workload, --seed, --seconds, --trace) pass through.
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Outside a checkout of the repository the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
