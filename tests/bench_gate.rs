//! The acceptance gate over committed artifacts: every `BENCH_*.json`
//! at the repository root must be current, canonical and passing, and
//! the harness that writes and checks them must hold its contract.

use std::path::{Path, PathBuf};
use xlf::fleet::{
    run_fleet, FleetMetrics, FleetSpec, FLEET_METRICS_SCHEMA_VERSION, FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_bench::harness::{check, check_envelope, envelope, Args, CheckError, Json, Row};
use xlf_bench::obj;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_committed_bench_artifact_passes_the_gate() {
    let mut found: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repository root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    found.sort();
    let mut expected: Vec<String> = xlf_bench::harness::EXPERIMENTS
        .iter()
        .map(|e| format!("BENCH_{e}.json"))
        .collect();
    expected.sort();
    assert_eq!(found, expected, "exactly one artifact per experiment");
    for name in &found {
        if let Err(e) = check(&repo_root().join(name)) {
            panic!("{name}: {e}");
        }
    }
}

#[test]
fn only_current_schema_fleet_goldens_are_checked_in() {
    let dir = repo_root().join("crates/fleet/tests/golden");
    let r = FLEET_REPORT_SCHEMA_VERSION;
    let m = FLEET_METRICS_SCHEMA_VERSION;
    for golden in [
        format!("fleet_report_v{r}.json"),
        format!("fleet_metrics_v{m}.json"),
        format!("fleet_report_campaign_v{r}.json"),
        format!("fleet_report_onboard_v{r}.json"),
    ] {
        assert!(dir.join(&golden).exists(), "missing golden {golden}");
    }
    for entry in std::fs::read_dir(&dir).expect("golden dir") {
        let name = entry.expect("golden entry").file_name();
        let name = name.to_string_lossy();
        let current = if name.starts_with("fleet_metrics_") {
            m
        } else {
            r
        };
        assert!(
            name.ends_with(&format!("_v{current}.json")),
            "stale golden {name} is still checked in"
        );
    }
}

#[test]
fn fleet_json_surfaces_lead_with_their_schema_versions() {
    let metrics = FleetMetrics::new();
    let spec = FleetSpec::new(7, 4).with_horizon(xlf::simnet::Duration::from_secs(60));
    let report = run_fleet(&spec, &metrics).expect("fleet runs");
    assert!(report.to_json().starts_with(&format!(
        "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},"
    )));
    assert!(metrics.to_json().starts_with(&format!(
        "{{\"schema_version\":{FLEET_METRICS_SCHEMA_VERSION},"
    )));
}

fn args(flags: &[&str]) -> Result<Args, String> {
    Args::parse(flags.iter().map(|f| f.to_string()))
}

#[test]
fn harness_flags_are_smoke_and_json_only() {
    assert_eq!(args(&[]), Ok(Args::default()));
    let both = args(&["--smoke", "--json", "out.json"]).expect("valid flags");
    assert!(both.smoke);
    assert_eq!(both.json, Some(PathBuf::from("out.json")));
    assert!(args(&["--homes", "10"]).is_err(), "retired flag");
    assert!(args(&["--bogus"]).is_err(), "unknown flag");
    assert!(args(&["--json"]).is_err(), "missing value");
}

/// A passing canonical fleet envelope, the base every fixture mutates.
fn fixture() -> Json {
    envelope(
        "fleet",
        obj! { "homes" => 1000u32, "capacity" => None::<u32> },
        false,
        obj! {
            "note" => "quote \" and backslash \\",
            "sweep" => vec![obj! { "wall_s" => 0.125, "shed" => 3u32 }],
        },
        &[
            Row::new("speedup", 1.875, ">=", 0.95),
            Row::holds("deterministic", true),
        ],
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xlf-bench-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn an_envelope_reads_back_through_check_unchanged() {
    let written = fixture();
    let path = scratch("BENCH_fleet.json");
    std::fs::write(&path, written.render()).expect("write artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact");
    assert_eq!(Json::parse(&text), Ok(written));
    assert_eq!(check(&path), Ok(()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_rejects_a_stale_metrics_schema() {
    let mut stale = fixture();
    *stale.get_mut("metrics_schema").expect("field") = Json::Num(7.0);
    assert_eq!(
        check_envelope("fleet", &stale),
        Err(CheckError::StaleSchema {
            found: 7.0,
            current: FLEET_METRICS_SCHEMA_VERSION
        })
    );
}

#[test]
fn check_rejects_a_smoke_artifact() {
    let mut smoke = fixture();
    *smoke
        .get_mut("config")
        .and_then(|c| c.get_mut("smoke"))
        .expect("smoke flag") = Json::Bool(true);
    assert_eq!(
        check_envelope("fleet", &smoke),
        Err(CheckError::SmokeArtifact)
    );
}

#[test]
fn check_rejects_a_failing_row() {
    let failing = envelope(
        "fleet",
        obj! {},
        false,
        obj! {},
        &[Row::new("speedup", 0.5, ">=", 0.95)],
    );
    let expected = Err(CheckError::FailingRow("speedup".into()));
    assert_eq!(check_envelope("fleet", &failing), expected);
    // A row whose recorded `pass` disagrees with its own value fails too.
    let mut forged = failing;
    let Some(Json::Arr(rows)) = forged.get_mut("acceptance") else {
        panic!("acceptance rows");
    };
    *rows[0].get_mut("pass").expect("pass") = Json::Bool(true);
    assert_eq!(check_envelope("fleet", &forged), expected);
}

#[test]
fn check_rejects_a_name_mismatch() {
    let path = scratch("BENCH_scale.json");
    std::fs::write(&path, fixture().render()).expect("write artifact");
    assert_eq!(
        check(&path),
        Err(CheckError::NameMismatch {
            file: "scale".into(),
            experiment: "fleet".into()
        })
    );
    let _ = std::fs::remove_file(&path);
}
