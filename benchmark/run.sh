#!/bin/sh
# Build the benchmark offline into benchmark/target, run every workload, and
# compare with an earlier run if its --out directory is given:
#
#   benchmark/run.sh                      # writes benchmark/out/<time>/
#   benchmark/run.sh benchmark/out/<old>  # ... then compares old -> new
#
# SEED and SCALE in the environment are passed on (defaults 0x5EED and 1.0).
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out/$(date +%Y%m%dT%H%M%S)"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$here/target"
bin="$here/target/release/benchmark"
"$bin" all --seed "${SEED:-0x5EED}" --scale "${SCALE:-1.0}" --out "$out"
if [ $# -ge 1 ]; then
    "$bin" compare "$1/results.json" "$out/results.json"
fi
