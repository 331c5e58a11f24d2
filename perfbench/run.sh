#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload jvm98|mesh --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# goes under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The Go toolchain's cache, temporary files, module path and its
# config directory (where it keeps telemetry counters) go there too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
sha=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	sha=$(git rev-parse HEAD)
	[ -z "$(git status --porcelain 2>/dev/null)" ] || sha="$sha-dirty"
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" -sha "$sha" "$@"
