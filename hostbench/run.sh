#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds `cvm` (the program under
# test) and `hostbench` from source into one target directory, so the
# two binaries are siblings, then hands over to hostbench.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin cvm 1>&2
cargo build --release --offline --quiet --manifest-path hostbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/hostbench" "$@"
