#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash servebench/run.sh --workload interact --seed 1 --seconds 20 --trace 0
#
# The benchmark itself builds the release `hazel` binary it measures. Both
# builds go to $CARGO_TARGET_DIR (default: target). Everything on stdout
# but the last line is a human-readable report; the last line is the JSON
# summary.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" "$@"
