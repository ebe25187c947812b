#!/usr/bin/env bash
# Builds the benchmark and meshsimd from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (Go build cache, Go's configuration and telemetry
# directory, binaries, scratch directories) stays under .bench_build/ in
# the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/meshsimd" clnlr/cmd/meshsimd) >&2

exec "$out/bin/perfbench" -daemon "$out/bin/meshsimd" -workdir "$out/tmp/run-$$" "$@"
