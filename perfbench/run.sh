#!/usr/bin/env bash
# Builds qcfe-serve, qcfe-router and the benchmark program from the
# source tree this script sits in, then runs it with the given
# arguments (see perfbench/README.md). Everything built or cached lands
# in .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/qcfe-serve ] || [ ! -d cmd/qcfe-router ]; then
	echo "perfbench: $root is not a qcfe source tree" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep every file the Go toolchain writes (build cache, temporary build
# directories, telemetry counters) inside the tree; never download.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -buildvcs=false -o "$out/bin/qcfe-serve" ./cmd/qcfe-serve
go build -buildvcs=false -o "$out/bin/qcfe-router" ./cmd/qcfe-router
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
