#!/usr/bin/env bash
# Offline CI gate: release build, full test suite (serial and 2-thread; the
# pool and stream suites also at 4 threads), doc tests, the benchmark
# package's tests, lint-clean, and
# smoke runs of the pipeline cost profiler, the
# parallel execution benchmark, and the streaming soak (their JSON
# artifacts must carry the documented schema keys).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo test -q --doc --workspace
# The whole suite again with the dtp-par pool fanned out: determinism says
# every result must be identical, so any test that fails only here is a
# scheduling bug.
DTP_THREADS=2 cargo test -q --workspace
# Four threads on any host: the dtp-par pool must grow past the size its
# first calls gave it, and the stream must still match the batch pipeline
# and its golden fixtures bit for bit.
DTP_THREADS=4 cargo test -q -p dtp-par -p dtp-stream
DTP_THREADS=4 cargo test -q --test stream_vs_batch --test golden_fixtures
# The benchmark package builds against the library API (batch extraction,
# the session splitter, the dataset builder): an API break fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p dtp-obs --all-targets -- -D warnings
cargo clippy -p dtp-par --all-targets -- -D warnings

profile=target/pipeline_profile.json
rm -f "$profile"
DTP_PROFILE_OUT="$profile" ./target/release/pipeline_profile --smoke
if [[ ! -s "$profile" ]]; then
    echo "check.sh: $profile missing or empty" >&2
    exit 1
fi
for key in schema stages tls packet memory_ratio compute_ratio spans metrics; do
    if ! grep -q "\"$key\"" "$profile"; then
        echo "check.sh: $profile is missing required key \"$key\"" >&2
        exit 1
    fi
done

bench=target/BENCH_parallel.json
rm -f "$bench"
DTP_BENCH_PARALLEL_OUT="$bench" ./target/release/bench_parallel --smoke
if [[ ! -s "$bench" ]]; then
    echo "check.sh: $bench missing or empty" >&2
    exit 1
fi
for key in schema threads smoke extract_tls forest_fit predict cv serial_ms parallel_ms speedup; do
    if ! grep -q "\"$key\"" "$bench"; then
        echo "check.sh: $bench is missing required key \"$key\"" >&2
        exit 1
    fi
done

stream=target/BENCH_stream.json
rm -f "$stream"
DTP_BENCH_STREAM_OUT="$stream" ./target/release/bench_stream --smoke
if [[ ! -s "$stream" ]]; then
    echo "check.sh: $stream missing or empty" >&2
    exit 1
fi
for key in schema threads smoke records sessions records_per_sec sessions_per_sec p95_emit_ms; do
    if ! grep -q "\"$key\"" "$stream"; then
        echo "check.sh: $stream is missing required key \"$key\"" >&2
        exit 1
    fi
done

echo "check.sh: all gates passed"
