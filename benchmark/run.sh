#!/usr/bin/env bash
# Build the benchmark (offline, release profile) and run it with the given
# arguments. See benchmark/README.md; `--help` lists the arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mss-benchmark" "$@"
