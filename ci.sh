#!/usr/bin/env bash
# CI gate: formatting, lints, the workspace tests, a smoke run of every
# artifact experiment, and the fleet benchmark. Run from the repository
# root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

# The workspace commands run --locked: a manifest change that leaves the
# root Cargo.lock stale fails here instead of rewriting it.
echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

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
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps "${doc_packages[@]}"

# The workspace tests include the two allocation budgets: a warm home's
# telemetry at most 0.89 allocations per dispatched event
# (crates/core/tests/telemetry_alloc.rs) and a fleet-wide home at most
# 79.8 over its lifecycle (crates/fleet/tests/home_alloc.rs). Beside them,
# a memory guard (crates/fleet/tests/stream_alloc.rs) bounds what a small
# streamed fleet's calling thread (region consume and the global pass)
# allocates and its live-bytes peak: 172,200 bytes and a 66,600-byte
# peak with 15 s windows, 215,700 bytes and a 77,100-byte peak with
# 5 s windows; the same file bounds the bytes a home's packed windows
# keep allocated at 15 per window. A handoff-count guard checks
# that one worker hands 70 homes to the region tier in messages of 32,
# 32 and 6 (engine::tests::a_worker_hands_its_homes_over_in_messages_of_32).
echo "== cargo build --release --workspace && cargo test --workspace -q"
cargo build --release --workspace --locked
cargo test --workspace --locked -q

# The print-only binaries that read the attack vocabulary (the catalog
# and the scenarios) run to completion: a panic in one fails here. Only
# the exit status is checked; no printed value is gated.
for bin in figure3 table2 figure4; do
    echo "== $bin"
    ./target/release/"$bin" >/dev/null
done

# The five micro-benches (ciphers, dpi, auth, shaping, crosslayer) run,
# not only compile: each prints one timing line per closure. `--bench '*'`
# selects the bench targets only; without it the library's and every
# binary's test harness would run in bench mode too.
echo "== cargo bench -p xlf-bench --bench '*'"
cargo bench -q --locked -p xlf-bench --bench '*'

# The exactness oracles of the fast paths, at more cases than the
# default: the kNN graph against the naive graph, the community pass
# over its CSR graph against seeded propagation and deviation scores
# over the naive graph's per-node lists, the padding-skipping
# telemetry parser against decode-then-trim, the fixed-point reading
# format against the float formatter, the observer's one-pass burst
# majorities against the scan of every record, the count-keyed
# robust accumulator against the sorted-vector accumulator (after every
# push, and after any split and merge), the stream
# correlator's one-vector home profile against per-feature
# accumulators, the correlator's id-sorted home table against the same
# epochs fed in sorted order (homes joining late, windows missing,
# arrival shuffled, with and without a checkpoint restore), the packed
# window log's round trip of every feature bit
# pattern (and its snapshot bytes against the per-window layout), the
# stream pass's per-epoch cursor fill against the clone-and-regroup,
# and the one DPI inspection path's engines: the Aho–Corasick
# automaton's first matches and the token index (on arbitrary tokens
# and on tokenized payloads) against the naive per-rule scans, and the
# evidence bus's conservation of observations (drained + pending + shed
# == reported) at every capacity, zero included, and the event bus's
# tags against the CBC-MAC of the event bytes under a freshly derived
# key (streamed over multi-byte fields at every block offset, and from
# the per-bus cipher cache over repeated signings), which bind every
# field and which a hardened bus requires of every event it accepts.
# Beside them, the never-panic proptests: restoring the stream
# correlator from corrupted or arbitrary checkpoint bytes (the
# correlator's part of an XLFR run snapshot; the same file's crafted
# checkpoints, whose id tables do not strictly ascend, must fail to
# restore), and the protocol parsers and
# receivers (TLS open, the 802.15.4 receiver, the DNS resolver) on
# arbitrary input.
echo "== proptest oracles, release, PROPTEST_CASES=5000"
export PROPTEST_CASES=5000
cargo test --release -q --locked -p xlf-analytics --test proptests -- \
    blocked_similarity_bit_equals_naive duplicate_heavy_similarity_bit_equals_naive \
    automaton_first_matches_equal_naive csr_community_report_equals_naive_pipeline
cargo test --release -q --locked -p xlf-lwcrypto --test proptests -- \
    token_index_equals_naive_scan token_index_equals_naive_scan_via_tokenizer
cargo test --release -q --locked -p xlf-cloud --lib -- parse_reading_equals_decode_then_trim
cargo test --release -q --locked -p xlf-cloud --test proptests -- \
    streamed_event_tags_equal_the_mac_of_the_event_bytes cached_event_tags_equal_reference_mac \
    event_integrity_binds_fields hardened_bus_accepts_only_signed
cargo test --release -q --locked -p xlf-device --lib -- fixed_point_equals_float_formatting
cargo test --release -q --locked -p xlf-attacks --lib -- one_pass_majorities_equal_the_scan
cargo test --release -q --locked -p xlf-stream --lib -- runs_equal_the_sorted_vector_oracle \
    window_profile_equals_per_feature_accumulators window_log_round_trips_every_bit_pattern
cargo test --release -q --locked -p xlf-fleet --lib -- epoch_index_matches_the_regroup_oracle
cargo test --release -q --locked -p xlf-core --test proptests -- bounded_bus_conserves_observations
cargo test --release -q --locked -p xlf-stream --test proptests
cargo test --release -q --locked -p xlf-stream --test checkpoint_robustness
cargo test --release -q --locked -p xlf-protocols --test proptests -- parsers_are_panic_free
unset PROPTEST_CASES

# The examples drive whole simulated homes through every node's packet
# handling; botnet_takedown and quickstart assert their documented
# outcomes and exit non-zero on any other.
echo "== examples"
cargo build --release --locked --examples
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
