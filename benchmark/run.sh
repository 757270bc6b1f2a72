#!/usr/bin/env bash
# Build the benchmark harness (release, offline) and run it.
#
#   benchmark/run.sh                      all four workloads, seed 42
#   benchmark/run.sh --trace              ... and the traced per-layer pass
#   benchmark/run.sh --smoke              1/20 sizes, every check, < 30 s
#   benchmark/run.sh --aa 5               steadiness: two interleaved sets of 5
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is the
#                                         JSON result (the gate's form)
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/dsh-benchmark" \
    --out "$here/out" --contract "$here/../BENCHMARK.json" "$@"
