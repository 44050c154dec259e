#!/usr/bin/env bash
# Builds perfbench from the sources in the current checkout and runs it.
# Run from the repository root, for example:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
# The Go build cache, the Go tool's own config and telemetry files, the
# binary, journals, spans and count records all stay under .bench_build/
# in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
