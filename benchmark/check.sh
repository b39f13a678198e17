#!/usr/bin/env bash
# Lint + test gate of the benchmark workspace (the repository's ci.sh does
# not know about it). Run from anywhere; builds into benchmark/target
# unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo test"
cargo test --offline --release -q

echo "== smoke run (tiny sizes, every workload, both passes)"
cargo run --offline --release -q -- all --smoke --seconds 0.2 > /dev/null

echo "benchmark: all gates passed"
