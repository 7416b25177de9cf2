#!/usr/bin/env bash
# Builds the release `truss` binary and the benchmark driver from this
# checkout, then runs the driver with the given arguments:
#   bash e2ebench/run.sh --workload build|outofcore|serve --seed N \
#        --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target).
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -f e2ebench/Cargo.toml ]; then
    echo "e2ebench: run from the repository root" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin truss
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/e2ebench" --truss "$CARGO_TARGET_DIR/release/truss" "$@"
