#!/usr/bin/env bash
# Builds the ThemisIO end-to-end benchmark from this checkout's source
# and runs it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload stripe-rw --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ in the checkout. The build needs the repository's
# source one directory up; without it the build fails and so does this
# script, before any result is printed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
bin="$out/perfbench"
# VCS stamping records the revision in the fingerprint where the
# checkout is a repository; elsewhere build without it.
(cd "$here" && { go build -o "$bin" . 2>/dev/null || go build -buildvcs=false -o "$bin" .; })
cd "$root"
exec "$bin" "$@"
