#!/usr/bin/env bash
# Build depkit and the benchmark harness from this checkout, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-write --seed 1 --seconds 25 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the run
# itself reads and writes only under .bench_work/ and .bench_out/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin depkit >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perfbench" --depkit "$CARGO_TARGET_DIR/release/depkit" "$@"
