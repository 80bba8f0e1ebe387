#!/usr/bin/env bash
# Build the benchmark and hslb-serve from this checkout, then run one
# benchmark measurement. Arguments pass through to perfbench:
#
#   bash perfbench/run.sh --workload tune_cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); cargo's own messages go to
# stderr so the last stdout line stays the result.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path Cargo.toml \
    -p hslb-service --bin hslb-serve >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/hslb-serve" "$@"
