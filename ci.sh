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
# Rustdoc over the project's own packages: a deleted or private item
# left behind in an intra-doc link fails here. The vendored crates are
# workspace members too, but not ours to document.
echo "== cargo doc --no-deps (xlf, xlf-*) with -D warnings"
doc_packages=(-p xlf)
for crate in crates/*/; do
    doc_packages+=(-p "xlf-$(basename "$crate")")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${doc_packages[@]}"

echo "== cargo build --release --workspace && cargo test --workspace -q"
cargo build --release --workspace
cargo test --workspace -q

# The exactness oracles of the fast paths, at more cases than the
# default: the kNN graph against the naive graph, the padding-skipping
# telemetry parser against decode-then-trim, the fixed-point reading
# format against the float formatter, and the observer's one-pass burst
# majorities against the scan of every record.
echo "== proptest oracles, release, PROPTEST_CASES=5000"
export PROPTEST_CASES=5000
cargo test --release -q -p xlf-analytics --test proptests -- \
    blocked_similarity_bit_equals_naive duplicate_heavy_similarity_bit_equals_naive
cargo test --release -q -p xlf-cloud --lib -- parse_reading_equals_decode_then_trim
cargo test --release -q -p xlf-device --lib -- fixed_point_equals_float_formatting
cargo test --release -q -p xlf-attacks --lib -- one_pass_majorities_equal_the_scan
unset PROPTEST_CASES

# The examples drive whole simulated homes through every node's packet
# handling; botnet_takedown and quickstart assert their documented
# outcomes and exit non-zero on any other.
echo "== examples"
cargo build --release --examples
for example in quickstart botnet_takedown smart_home_defense privacy_shaping; do
    echo "== example: $example"
    ./target/release/examples/"$example" >/dev/null
done

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
