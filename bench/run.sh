#!/usr/bin/env bash
# Builds capbench from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write — Go's build
# cache, its temporary files, its telemetry, the binary, the workloads'
# data directories, env.json and the trace files — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/capbench" ./capbench
cd "$root"
exec "$build/capbench" -workdir "$build/work" "$@"
