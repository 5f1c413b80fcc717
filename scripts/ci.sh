#!/usr/bin/env bash
# Pre-merge gate. Run from the repo root before every merge:
#
#   scripts/ci.sh            # format check + lints + tier-1 tests
#   scripts/ci.sh --fix      # apply rustfmt instead of checking
#
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`)
# with the style gates in front so failures are cheap and early.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt
else
    cargo fmt --check
fi

cargo clippy --workspace --all-targets -- -D warnings

cargo build --release
cargo test -q

# The only multi-node example: one job per node through the scheduler's
# single queue; asserts every node ran its job.
cargo run --release -q -p batterylab --example heterogeneous_fleet

# Job-path golden values: WAL bytes and records, logcat artifact bytes,
# ledger balance and a CRC over the replayed records of 200 measured
# jobs, pinned so a speed-up that changes what a job produces fails
# here instead of only in the benchmark's digest check.
cargo test -q -p batterylab-tests --test job_path_golden

# Golden determinism: the parallel harness must emit byte-identical
# artifacts for any worker count (fig2 + fig3 at jobs=1 vs jobs=4,
# including the merged platform_metrics.json).
cargo test -q -p batterylab-tests --test parallel_determinism

# Sampling fast path: the segment-batched pipeline must stay bit-for-bit
# identical to the per-sample reference path (noise-free and noisy).
cargo test -q -p batterylab-tests --test sampling_fastpath

# Exact counted CDFs: a CDF counted from a stream answers every query bit
# for bit as Cdf::from_samples and the sorted-vector definitions, at any
# chunking of the stream and across the counting sink's buffer folds.
cargo test -q -p batterylab-stats --test counted_cdf

# Session memory flat in length: a 600 s 5 kHz stop_monitor peaks within
# 1.1x the heap of a 60 s one (bytes counted by the test's own
# allocator), with under 10,000 distinct readings retained in both.
cargo test -q -p batterylab-tests --test session_memory

# Bounded chaos soak (seconds, not minutes): experiment pipelines under
# seeded fault schedules — no lost/duplicated jobs, billing conserved
# across retries, every injected fault journaled. The second invocation
# re-runs one fixed (seed, plan) at a different worker count; the soak
# test asserts the merged telemetry is byte-identical.
cargo run --release -q -p batterylab --bin blab -- chaos --seed 42 --runs 4 --intensity 1.0
cargo test -q -p batterylab-tests --test chaos_soak

# Crash-consistent durability: recover the access server from every WAL
# record prefix, then crash/recover at every operation boundary of a
# chaos scenario — jobs, ledger and the merged telemetry report must
# come back byte-identical. The checkpoint run crashes a sampling
# experiment mid-stream and verifies the resumed aggregates match the
# uninterrupted run bit for bit.
cargo run --release -q -p batterylab --bin blab -- recover --seed 42 --intensity 0.8
cargo run --release -q -p batterylab --bin blab -- checkpoint --seconds 20 --rate 500
cargo test -q -p batterylab-tests --test durable_recovery

# Wall-clock split: evaluation at jobs=1 vs every available core.
# Prints the per-figure table; the JSON goes to a throwaway directory so
# a green run leaves the tracked BENCH_eval.json untouched.
cargo run --release -q -p batterylab-bench --bin bench_eval -- --out "$(mktemp -d)"
