#!/usr/bin/env bash
# The one command of the benchmark: builds the package offline, then runs it.
# See README.md beside this file, or run with no arguments for every workload.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/wqe-benchmark" "$@"
