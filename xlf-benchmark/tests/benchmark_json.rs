//! `BENCHMARK.json` at the repository root describes this benchmark.
//! These tests keep it in step with what the binary measures: the
//! listed workloads exist, every listed metric is measured in the
//! listed unit, and every listed time is measured (non-zero) on every
//! workload.

use xlf_benchmark::json::{self, Value};
use xlf_benchmark::measure::{layer_metrics, Untraced};
use xlf_benchmark::traced::run_traced;
use xlf_benchmark::workload::Workload;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(key: &str) -> Vec<(String, String)> {
    benchmark()
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (f("name"), f("unit"))
        })
        .collect()
}

fn untraced() -> Untraced {
    Untraced {
        homes: 10,
        setup_s: 0.001,
        wall_s: 1.0,
        cpu_s: 1.5,
        peak_rss_mb: 12.0,
        report_fnv64: 0,
        report_bytes: 0,
        failed: 0,
        invariants_ok: true,
        workers_effective: 2,
        report_channel_high_water: 1,
        exact: Vec::new(),
    }
}

#[test]
fn listed_workloads_are_the_benchmark_workloads() {
    let names: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn end_to_end_metrics_are_measured_in_their_units() {
    let measured = untraced().host_metrics();
    let listed = listed("end_to_end");
    assert_eq!(listed.len(), measured.len());
    for (name, unit) in &listed {
        let m = measured.iter().find(|m| m.name == name);
        assert_eq!(m.map(|m| m.unit), Some(unit.as_str()), "{name}");
    }
}

#[test]
fn per_layer_metrics_are_measured_and_times_are_never_zero() {
    let listed = listed("per_layer");
    for w in Workload::ALL {
        let homes = if w == Workload::Wide { 200 } else { 12 };
        let run = run_traced(&w.spec(0, homes));
        let measured = layer_metrics(&run, 1.0, &untraced());
        for (name, unit) in &listed {
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} is listed but not measured"));
            assert_eq!(m.unit, unit, "{name}");
            if ["s", "ms", "us", "ns"].contains(&unit.as_str()) {
                assert!(m.value > 0.0, "{name} reads 0 on {}", w.name());
            }
        }
    }
}
