#!/usr/bin/env bash
# Builds the seacma-serve daemon and the benchmark program from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload discover --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the checkout root: the Go build cache, and the go command's own config
# directory (XDG_CONFIG_HOME) and GOPATH.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
	cd "$root/perfbench" && go build -o "$out/bin/" repro/cmd/seacma-serve .
) >&2
exec "$out/bin/perfbench" -serve "$out/bin/seacma-serve" -work "$out" "$@"
