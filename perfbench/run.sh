#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload lattice-dense --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selfcheck --workload serve-mixed --runs 5 --seconds 30
#
# Everything the build writes (binary, Go build cache, traces) stays under
# .bench_build/ in the checkout. Without the repository's Go sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
