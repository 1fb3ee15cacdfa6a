#!/usr/bin/env bash
# CI gate: formatting, lints, the workspace tests, a smoke run of every
# artifact experiment, and the fleet benchmark. Run from the repository
# root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Tier-1 (`cargo test -q`, the root package) includes tests/bench_gate.rs,
# which runs the acceptance gate over every committed BENCH_*.json.
echo "== cargo build --release --workspace && cargo test --workspace -q"
cargo build --release --workspace
cargo test --workspace -q

# Every committed BENCH_<e>.json has an exp_<e> (tests/bench_gate.rs
# checks one artifact per `harness::EXPERIMENTS` entry). Each exits
# non-zero when any acceptance row fails.
# Smoke artifacts go to a temporary directory, never over the committed
# ones.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for artifact in BENCH_*.json; do
    e="${artifact#BENCH_}"
    e="${e%.json}"
    echo "== smoke: exp_$e"
    ./target/release/"exp_$e" --smoke --json "$tmpdir/$artifact"
done

echo "== benchmark package: tests and an all-workload smoke run"
cargo test --release --manifest-path xlf-benchmark/Cargo.toml
cargo run --release --offline --manifest-path xlf-benchmark/Cargo.toml -- \
    --workload all --smoke >/dev/null

echo "CI OK"
