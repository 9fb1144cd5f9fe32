#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload stereo-anneal --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the working
# directory; nothing is fetched (the module needs only the standard library).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTELEMETRY=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -commit "$commit" "$@"
