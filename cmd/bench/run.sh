#!/bin/sh
# Builds the benchmark into .bench_build/ under the current directory
# (the checkout root) and runs it there, so that the Go build cache,
# the binary and the WAL scratch files all stay inside the checkout.
set -eu
here=$(dirname "$0")
out="$(pwd)/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOTOOLCHAIN=local go build -C "$here" -o "$out/pathbench" .
exec "$out/pathbench" "$@"
