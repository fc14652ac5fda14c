#!/usr/bin/env bash
# Builds tvgserve and the benchmark driver from the sources of the
# checkout it is run from, then runs one benchmark. Run it from the root
# of the checkout:
#
#   bash e2ebench/run.sh --workload churn --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, data
# directories) stays under .bench_build/ in the checkout. See
# e2ebench/README.md for the workloads and metrics.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/tvgserve" ./cmd/tvgserve >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -server "$out/tvgserve" -work "$out" "$@"
