#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 test suite.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

# Every test in the workspace — crate unit and property tests, every
# integration suite (determinism, governor, store, serving, live epochs,
# chaos, the observability profile, the pinned public-API dumps) and the
# doctests — with default test threading. Fault plans are thread-scoped, so
# no suite needs to run serialized. The chaos seed is pinned so a failure
# reproduces. The API dumps bless with WQE_BLESS_API=1.
echo "==> tier-1: WQE_CHAOS_SEED=3405691582 cargo test --workspace --no-fail-fast -q"
WQE_CHAOS_SEED=3405691582 cargo test --workspace --no-fail-fast -q

# Rustdoc is part of the public surface: broken intra-doc links and
# malformed examples fail the gate, and every doctest must run.
echo "==> api: cargo doc (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p wqe-graph -p wqe-index \
    -p wqe-store -p wqe-query -p wqe-pool -p wqe-core -p wqe-serve \
    -p wqe-datagen -p wqe

# The distance kernels dispatch at runtime (AVX2 when the CPU has it,
# scalar otherwise); both paths must pass the index suite bit-identically.
# The workspace run above is the default-kernel pass; the forced-scalar run
# covers the fallback even on AVX2 hosts. Both include the batch-shape
# proptest (fixed source, fixed target, mixed) over every oracle tier,
# mapped snapshot labels included.
echo "==> kernels: WQE_FORCE_SCALAR=1 cargo test -p wqe-index -q"
WQE_FORCE_SCALAR=1 cargo test -p wqe-index -q

# The paper-figure harness (§7): every experiment at toy scale, so an
# experiment that panics fails the gate. Rows go to a temp file; nothing
# is written into the tree.
echo "==> experiments: paper_experiments all --quick"
cargo run --release --bin paper_experiments -- all --quick --out "$(mktemp)" > /dev/null

# `cargo test` compiles the examples but runs none of them. Each one runs
# here in release (all six finish in well under a second), so an example
# that panics fails the gate. `provenance` writes its DOT file to a temp
# path instead of the working directory.
echo "==> examples: cargo run --release --example <each>"
for example in exploratory_session movie_exploration product_search quickstart \
    why_empty_debugging; do
    cargo run --release --quiet --example "$example" > /dev/null
done
cargo run --release --quiet --example provenance -- "$(mktemp)" > /dev/null

# The layered benchmark (benchmark/, its own package): the harness's unit
# tests, then every workload on toy inputs with all correctness checks on
# (answers digests, TracingOracle counts == program counters). No timing
# gate here — speed claims are made with `run.sh --repeat` + `compare`.
echo "==> benchmark: harness unit tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark: run.sh --smoke"
benchmark/run.sh --smoke

# Size counts (lines of source, API dumps and suites); reported, not gated.
echo "==> size"
scripts/size.sh

echo "verify: OK"
