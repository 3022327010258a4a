#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload arena --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# own config and telemetry files) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/engine" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full repository checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

rev="unknown"
if command -v git >/dev/null 2>&1; then
	rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --rev "$rev" "$@"
