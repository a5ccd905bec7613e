#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is run
# in and runs it; every argument is passed on. Run it from the repository
# root:
#
#   bash servebench/run.sh --workload stream-kk --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, the Go tool's own config and telemetry
# files, and the benchmark's scratch files all stay under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" -dir "$out" "$@"
