#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 build + test suite.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== smoke: fleet orchestration (32 homes, 4 workers)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
# Smoke runs write to the tmpdir: the committed BENCH_fleet.json is the
# canonical 1000-home point and must not be overwritten by a 32-home run.
./target/release/exp_fleet --homes 32 --workers 4 --horizon 420 --json "$tmpdir/bench_smoke.json"

echo "== bench freshness: committed BENCH_fleet.json matches the current schema"
metrics_schema="$(sed -n 's/^pub const FLEET_METRICS_SCHEMA_VERSION: u32 = \([0-9]*\);$/\1/p' \
    crates/fleet/src/metrics.rs)"
test -n "$metrics_schema" \
    || { echo "could not extract FLEET_METRICS_SCHEMA_VERSION from metrics.rs"; exit 1; }
grep -q "\"metrics\": {\"schema_version\":$metrics_schema," BENCH_fleet.json \
    || { echo "BENCH_fleet.json embeds stale metrics (want schema v$metrics_schema); \
regenerate with exp_fleet --homes 1000 --repeats 3"; exit 1; }
python3 - <<'EOF'
import json
bench = json.load(open("BENCH_fleet.json"))
assert bench["homes"] >= 1000, f"BENCH_fleet.json is a {bench['homes']}-home smoke artifact"
assert bench["speedup"] >= 0.95, f"sharding overhead regressed: speedup {bench['speedup']}"
EOF

echo "== schema stability: byte-identical fleet reports across reruns"
./target/release/exp_fleet --homes 16 --workers 2 --horizon 420 --capacity 64 \
    --report "$tmpdir/report_a.json" --json "$tmpdir/bench_a.json" >/dev/null
./target/release/exp_fleet --homes 16 --workers 2 --horizon 420 --capacity 64 \
    --report "$tmpdir/report_b.json" --json "$tmpdir/bench_b.json" >/dev/null
diff "$tmpdir/report_a.json" "$tmpdir/report_b.json" \
    || { echo "fleet report is not stable across reruns"; exit 1; }
grep -q '"schema_version":' "$tmpdir/report_a.json" \
    || { echo "fleet report JSON is missing schema_version"; exit 1; }
grep -q '"schema_version":' BENCH_fleet.json \
    || { echo "fleet metrics JSON is missing schema_version"; exit 1; }

echo "== smoke: fault injection + supervised execution (18 homes, 2 workers)"
./target/release/exp_faults --homes 18 --workers 2 --json "$tmpdir/bench_faults.json"
grep -q '"conservation":' "$tmpdir/bench_faults.json" \
    || { echo "fault bench JSON is missing the conservation note"; exit 1; }

echo "== smoke: streamed correlation interval sweep (24 homes, 2 workers)"
./target/release/exp_stream --homes 24 --workers 2 --json "$tmpdir/bench_stream.json"
grep -q '"checkpoint_stable": true' "$tmpdir/bench_stream.json" \
    || { echo "stream bench JSON lost checkpoint/resume stability"; exit 1; }
grep -q '"verdicts_match_batch": true' "$tmpdir/bench_stream.json" \
    || { echo "stream bench JSON lost verdict parity with batch"; exit 1; }

echo "== smoke: engine hot-path ratio gates (self-asserting)"
./target/release/exp_engine --smoke --json "$tmpdir/bench_engine.json"
grep -q '"knn_graph_speedup_at_1k":' "$tmpdir/bench_engine.json" \
    || { echo "engine bench JSON is missing the acceptance block"; exit 1; }

echo "== smoke: OTA campaign containment (64 homes, 4 workers, self-asserting)"
./target/release/exp_ota --homes 64 --workers 4 --json "$tmpdir/bench_ota.json"
grep -q '"byte_identical_workers": true' "$tmpdir/bench_ota.json" \
    || { echo "ota bench JSON lost worker-count byte identity"; exit 1; }
grep -q '"contained": true' "$tmpdir/bench_ota.json" \
    || { echo "ota bench JSON shows no contained tampered campaign"; exit 1; }

echo "== smoke: durable checkpoint/resume chaos gate (16 homes, 2 workers, self-asserting)"
./target/release/exp_recovery --homes 16 --workers 2 --repeats 5 \
    --json "$tmpdir/bench_recovery.json"
grep -q '"byte_identical_resume": true' "$tmpdir/bench_recovery.json" \
    || { echo "recovery bench JSON lost resume byte identity"; exit 1; }
grep -q '"within_3pct": true' "$tmpdir/bench_recovery.json" \
    || { echo "recovery bench JSON exceeds the snapshot overhead budget"; exit 1; }

echo "== bench freshness: committed BENCH_recovery.json is current"
python3 - <<'PYEOF'
import json
bench = json.load(open("BENCH_recovery.json"))
assert bench["experiment"] == "recovery", "BENCH_recovery.json is not a recovery artifact"
assert bench["homes"] >= 32, f"BENCH_recovery.json is a {bench['homes']}-home smoke artifact"
assert bench["byte_identical_resume"] is True, "committed recovery point lost byte identity"
assert bench["overhead"]["within_3pct"] is True, "committed recovery point exceeds overhead budget"
assert all(k["byte_identical"] for k in bench["kills"]), "a committed kill row diverged"
PYEOF

echo "== smoke: DPI sweep + tokenizer gate (self-asserting)"
# exp_dpi writes BENCH_dpi.json to its working directory, so the smoke
# run happens in the tmpdir and leaves the committed point untouched.
exp_dpi="$PWD/target/release/exp_dpi"
(cd "$tmpdir" && "$exp_dpi" >/dev/null)
grep -q '"tokenize_speedup":' "$tmpdir/BENCH_dpi.json" \
    || { echo "dpi bench JSON is missing the tokenizer acceptance row"; exit 1; }

echo "== bench freshness: committed BENCH_dpi.json is current"
python3 - <<'PYEOF'
import json
bench = json.load(open("BENCH_dpi.json"))
assert bench["experiment"] == "dpi-fastpath-sweep", "BENCH_dpi.json is not a DPI sweep artifact"
sizes = sorted(c["payload_bytes"] for c in bench["tokenize"])
assert sizes == [48, 120, 900], f"BENCH_dpi.json tokenizer cells cover {sizes}"
acceptance = bench["acceptance"]
assert acceptance["automaton_speedup"] >= acceptance["required"], "committed automaton speedup below floor"
assert acceptance["tokenize_speedup"] >= acceptance["tokenize_required"] >= 5, \
    "committed tokenizer speedup below floor"
PYEOF

echo "== smoke: hierarchical scale tiers (10k homes, self-asserting)"
./target/release/exp_scale --homes 10000 --workers 4 --horizon 240 \
    --max-rss-mb 512 --json "$tmpdir/bench_scale.json"
grep -q '"byte_identical_regions": true' "$tmpdir/bench_scale.json" \
    || { echo "scale bench JSON lost region-count byte identity"; exit 1; }
grep -q '"sublinear_memory": true' "$tmpdir/bench_scale.json" \
    || { echo "scale bench JSON lost sublinear peak-RSS scaling"; exit 1; }

echo "== smoke: secure onboarding admission gate (64 homes, 4 workers, self-asserting)"
./target/release/exp_onboard --homes 64 --workers 4 --json "$tmpdir/bench_onboard.json"
grep -q '"byte_identical_layouts": true' "$tmpdir/bench_onboard.json" \
    || { echo "onboard bench JSON lost layout byte identity"; exit 1; }
grep -q '"variant": "benign", "joins": 64, "admitted": 64' "$tmpdir/bench_onboard.json" \
    || { echo "onboard bench JSON shows join failures in the benign fleet"; exit 1; }
if grep -E '"rogue_admissions": [1-9]' "$tmpdir/bench_onboard.json"; then
    echo "onboard bench JSON admitted a rogue join"; exit 1
fi

echo "== bench freshness: committed BENCH_onboard.json is current"
python3 - <<'PYEOF'
import json
bench = json.load(open("BENCH_onboard.json"))
assert bench["experiment"] == "onboard", "BENCH_onboard.json is not an onboarding artifact"
assert bench["byte_identical_layouts"] is True, "committed onboard point lost layout identity"
assert all(r["rogue_admissions"] == 0 for r in bench["runs"]), "a committed run admitted a rogue join"
benign = next(r for r in bench["runs"] if r["variant"] == "benign")
assert benign["admitted"] == benign["joins"], "committed benign fleet shows join failures"
assert benign["energy_mj"] > 0, "committed benign fleet charges no join energy"
PYEOF

echo "== golden-byte rerun gate: report bytes unchanged across reruns"
cargo test -p xlf-fleet --test schema -q
cargo test -p xlf-fleet --test determinism -q

echo "== schema gate: v8 goldens are current (and v7 goldens are retired)"
ls crates/fleet/tests/golden/fleet_report_v8.json \
   crates/fleet/tests/golden/fleet_metrics_v8.json \
   crates/fleet/tests/golden/fleet_report_campaign_v8.json \
   crates/fleet/tests/golden/fleet_report_onboard_v8.json >/dev/null \
    || { echo "v8 schema goldens are missing"; exit 1; }
if ls crates/fleet/tests/golden/*_v7.json >/dev/null 2>&1; then
    echo "stale v7 schema goldens are still checked in"; exit 1
fi

echo "== benchmark package: tests and an all-workload smoke run"
cargo test --release --manifest-path xlf-benchmark/Cargo.toml
cargo run --release --offline --manifest-path xlf-benchmark/Cargo.toml -- \
    --workload all --smoke > "$tmpdir/benchmark_smoke.txt"
tail -n 1 "$tmpdir/benchmark_smoke.txt" | grep -q '"correct":true' \
    || { echo "benchmark smoke run reported incorrect results"; exit 1; }

echo "CI OK"
