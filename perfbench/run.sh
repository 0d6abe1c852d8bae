#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it
# with the given arguments (--workload, --seed, --seconds, --trace).
#
# Every build artifact, cache and temporary file stays inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build). A failed
# build exits non-zero without printing a result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
export GOWORK=off

# Release freed heap pages with MADV_FREE: with the default MADV_DONTNEED
# the churn of large buffers refaults some 100k pages per run, and the
# kernel's share of the process's CPU time swings with the host's load.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
