#!/usr/bin/env bash
# Build and run the benchmark from the repository root:
#
#   bash ndbench/run.sh --workload <serve-hot|plan-cold|sim-sweep|cohort-1m> \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Builds the release nd-serve, nd-sweep and nd-trace binaries of the
# workspace and the ndbench package into one target directory
# ($CARGO_TARGET_DIR, default target/), then runs ndbench from there.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p nd-serve -p nd-sweep -p nd-trace 1>&2
cargo build --release --offline --quiet --manifest-path ndbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/ndbench" "$@"
