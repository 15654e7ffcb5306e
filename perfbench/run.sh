#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the given
# arguments:
#
#   bash perfbench/run.sh --workload solve-dense --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build): the Go
# build cache, the binary, the sesd data directories and the span files.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here or in perfbench/)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-run" "$@"
