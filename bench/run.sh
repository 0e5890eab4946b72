#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# root of a checkout) and runs it with the given arguments. Everything the go
# command writes (build cache, module path, configuration) is pointed into
# .bench_build/ too, so nothing outside the checkout is touched, and nothing is
# fetched: the module has no dependencies.
#
# The go command's telemetry is switched off in that configuration directory
# first. With a fresh one it would start a detached "go ** telemetry **" child
# that outlives the build (and the whole run, when the build fails at once), and
# a benchmark run must leave no process behind.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/config/go/telemetry"
echo "off 2024-01-01" >"$build/config/go/telemetry/mode"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/arkfs-bench" ./bench
exec "$build/arkfs-bench" "$@"
