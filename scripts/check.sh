#!/usr/bin/env bash
# Offline CI gate: release build, full test suite (serial and 2-thread; the
# pool and stream suites also at 4 threads), doc tests, the benchmark
# package's tests, lint-clean, and the paper reproduction at a small scale
# diffed against its pinned transcript.
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

# Every table and figure, end to end: stdout must match the pinned transcript
# byte for byte, serially and on two threads. Re-bless an intended change with:
#   DTP_LOG=quiet DTP_SESSIONS=40 DTP_SEED=7 ./target/release/dtp-repro all > tests/fixtures/repro_sessions40_seed7.txt
for threads in 1 2; do
  DTP_THREADS=$threads DTP_LOG=quiet DTP_SESSIONS=40 DTP_SEED=7 ./target/release/dtp-repro all \
    | diff tests/fixtures/repro_sessions40_seed7.txt -
done

echo "check.sh: all gates passed"
