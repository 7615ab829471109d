#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind (Go build, module and telemetry
# caches, its temporary files, the binary) goes to .bench_build/ in the
# checkout, nothing to $HOME or /tmp.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The benchmark is a module of its own that imports the repository's
# packages through a replace directive; without the repository around it
# this build fails and nothing is printed to standard output.
(cd "$here" && env GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -o "$build/sqlgraph-benchmark" .) >&2
cd "$root"
exec "$build/sqlgraph-benchmark" "$@"
