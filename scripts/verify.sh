#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 test suite.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

# Every test in the workspace — crate unit and property tests, every
# integration suite (determinism, governor, store, serving, live epochs,
# chaos) and the doctests — with default test threading. Fault plans are
# thread-scoped, so no suite needs to run serialized. The chaos seed is
# pinned so a failure reproduces.
echo "==> tier-1: WQE_CHAOS_SEED=3405691582 cargo test --workspace --no-fail-fast -q"
WQE_CHAOS_SEED=3405691582 cargo test --workspace --no-fail-fast -q

# The observability layer: stable QueryProfile JSON schema, populated
# spans/counters on a real run, and the without_profiler opt-out.
echo "==> observability: cargo test --test profile -q"
cargo test --test profile -q

# The public API surface is pinned as checked-in text dumps; any drift
# must be a deliberate, blessed diff (WQE_BLESS_API=1), never an
# accident.
echo "==> api: cargo test --test api_surface -q"
cargo test --test api_surface -q

# Rustdoc is part of the public surface: broken intra-doc links and
# malformed examples fail the gate, and every doctest must run.
echo "==> api: cargo doc (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p wqe-graph -p wqe-index \
    -p wqe-store -p wqe-query -p wqe-pool -p wqe-core -p wqe-serve \
    -p wqe-datagen -p wqe-bench -p wqe

# The distance kernels dispatch at runtime (AVX2 when the CPU has it,
# scalar otherwise); both paths must pass the index suite bit-identically.
# The forced-scalar run covers the fallback even on AVX2 hosts.
echo "==> kernels: WQE_FORCE_SCALAR=1 cargo test -p wqe-index -q"
WQE_FORCE_SCALAR=1 cargo test -p wqe-index -q

echo "==> kernels: cargo test -p wqe-index -q"
cargo test -p wqe-index -q

# Both passes above include the batch-shape proptest (fixed source, fixed
# target, mixed; every oracle with its own dist_batch). The snapshot-mapped
# oracle lives a crate up, so its shape parity gets its own scalar pass
# (the default-kernel pass is the workspace run above).
echo "==> kernels: WQE_FORCE_SCALAR=1 cargo test --test snapshot_determinism dist_batch -q"
WQE_FORCE_SCALAR=1 cargo test --test snapshot_determinism dist_batch -q

# The batched oracle's headline number, in work counts (wall-clock-free):
# dist_batch must scan >= 2x fewer label entries than pairwise merge-joins
# with bit-identical answers, and the streamed million-node snapshot must
# load and answer a why-question end to end (both checked inside the bin).
echo "==> kernels: bench_kernels entries-scanned gate"
cargo run --release -p wqe-bench --bin bench_kernels -- --out results/BENCH_kernels.json
grep -q '"within_target": true' results/BENCH_kernels.json || {
    echo "bench_kernels: batched path missed the 2x entries-scanned target" >&2
    exit 1
}

# Idle governor + profiler overhead must stay under the 3% bar on the
# intra-query workload (min-over-reps, alternating modes).
echo "==> observability: bench_governor overhead gate"
cargo run --release -p wqe-bench --bin bench_governor -- --out results/BENCH_governor.json
grep -q '"within_target": true' results/BENCH_governor.json || {
    echo "bench_governor: idle overhead exceeded the 3% target" >&2
    exit 1
}

# The fault-injection hooks (ResilientOracle ladder, pool/queue/cache/
# store fire() sites) must be free on the production path: an armed but
# never-firing plan stays under the 3% bar with bit-identical answers.
echo "==> chaos: bench_faults no-fault overhead gate"
cargo run --release -p wqe-bench --bin bench_faults -- --out results/BENCH_faults.json
grep -q '"within_target": true' results/BENCH_faults.json || {
    echo "bench_faults: fault-hook overhead exceeded the 3% target" >&2
    exit 1
}

# The serving-layer bench hard-asserts served == direct inside the bin;
# gate on the recorded flag too so a stale JSON cannot pass.
echo "==> serving: bench_serve answers-identical gate"
cargo run --release -p wqe-bench --bin bench_serve -- --out results/BENCH_serve.json
grep -q '"answers_identical": true' results/BENCH_serve.json || {
    echo "bench_serve: served answers diverged from direct engine runs" >&2
    exit 1
}

# The HTTP front-end over a real loopback socket: streamed answers must
# be bit-identical to blocking ones for all eight algorithms, saturation
# must shed typed (healthz stays alive), over-burst tenants get 429, and
# one-shot request p99 must stay under the wedge-catching bound.
echo "==> serving: bench_serve_http streaming-parity gate"
cargo run --release -p wqe-bench --bin bench_serve_http -- --out results/BENCH_http.json
grep -q '"within_target": true' results/BENCH_http.json || {
    echo "bench_serve_http: HTTP serving target missed (parity/shed/latency)" >&2
    exit 1
}

# The snapshot store's headline number: loading a written snapshot must
# beat the cold parse+rebuild path by >= 10x, with a faithful context
# (the bin hard-checks graph shape and spot-checks distances).
echo "==> store: bench_store cold-start gate"
cargo run --release -p wqe-bench --bin bench_store -- --out results/BENCH_store.json
grep -q '"within_target": true' results/BENCH_store.json || {
    echo "bench_store: snapshot load missed the 10x cold-start target" >&2
    exit 1
}

# The live write path's headline numbers: an incremental publish must
# beat a full PLL rebuild by >= 5x at the 4k-node scale while staying on
# the repaired-PLL tier, and epoch-pinned reads must be within 3% of a
# plain fixed context with bit-identical answers.
echo "==> live: bench_live repair-speedup / read-overhead gate"
cargo run --release -p wqe-bench --bin bench_live -- --out results/BENCH_live.json
grep -q '"within_target": true' results/BENCH_live.json || {
    echo "bench_live: live write-path target missed (speedup/overhead/parity)" >&2
    exit 1
}

# The layered benchmark (benchmark/, its own package): the harness's unit
# tests, then every workload on toy inputs with all correctness checks on
# (answers digests, TracingOracle counts == program counters). No timing
# gate here — speed claims are made with `run.sh --repeat` + `compare`.
echo "==> benchmark: harness unit tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark: run.sh --smoke"
benchmark/run.sh --smoke

echo "verify: OK"
