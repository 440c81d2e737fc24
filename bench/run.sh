#!/usr/bin/env bash
# Builds alertbench from the checkout's source and runs it with the driver's
# arguments (--workload --seed --seconds --trace). Run from the repository
# root. Everything the build writes — the binary, the Go build cache, the
# toolchain's own bookkeeping — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/bench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/alertbench" ./alertbench
)
exec "$build/alertbench" "$@"
