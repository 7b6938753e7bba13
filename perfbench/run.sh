#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload sim-fig3 --seed 1 --seconds 10 --trace 0
# Run it from the root of the checkout. Everything the build and the runs
# leave behind goes to .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/bin/perfbench" .
)
exec "$out/bin/perfbench" "$@"
