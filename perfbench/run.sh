#!/usr/bin/env bash
# Builds the openhire benchmark from this checkout's sources and runs one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the traced run's spans) stays under
# .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an openhire checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false
if [[ -e .git ]] && commit=$(git rev-parse HEAD 2>/dev/null); then
	export OPENHIRE_BENCH_COMMIT="$commit"
fi
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
