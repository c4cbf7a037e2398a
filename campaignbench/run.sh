#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload soc_fuzz --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own config
# directory stay under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
