#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments. Every build artefact (binary, Go build cache, temp files)
# stays under .bench_build/ at the checkout root, so a run reads and writes
# nothing outside the checkout. Run from the checkout root:
#
#   bash perfbench/run.sh --workload engine-join --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$PWD"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

# The benchmark module resolves package rld from the parent directory
# (replace rld => ../), so a directory without the program fails here.
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
