//! Behaviour pinned across commits: an attacked fleet's report bytes and
//! the single-home scenarios' alerts and evidence, each reduced to an
//! FNV-1a 64 fingerprint. A refactor of the home build, the scripted
//! attacker or the Core that changes either fails here; a deliberate
//! behaviour change updates the constant and says why.

use std::path::Path;
use xlf::core::framework::XlfConfig;
use xlf::device::firmware::Version;
use xlf::fleet::spec::{FleetAttack, FleetSpec, HomeTemplate, RowPolicy};
use xlf::fleet::{
    run_fleet, run_fleet_chaos, scratch_dir, CampaignSpec, ConfigAuditSpec, FleetError,
    FleetMetrics, KillPoint,
};
use xlf::simnet::Duration;
use xlf_bench::scenarios::{run_scenario, SCENARIOS};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn attacked_fleet_report_bytes_are_pinned() {
    let wire_attacks = [
        FleetAttack::BotnetRecruit,
        FleetAttack::FirmwareTamper,
        FleetAttack::Replay,
        FleetAttack::DnsPoison,
    ];
    let mut attacks = vec![(FleetAttack::None, 2)];
    attacks.extend(wire_attacks.iter().map(|&a| (a, 1)));
    let spec = FleetSpec::new(14, 32)
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_attacks(attacks);
    let stamped = spec.stamp();
    for attack in wire_attacks {
        assert!(
            stamped.iter().any(|h| h.attack == attack),
            "stamp lacks {attack:?}"
        );
    }
    for template in 0..3 {
        assert!(stamped.iter().any(|h| h.template == template));
    }

    let report = run_fleet(&spec, &FleetMetrics::new()).expect("fleet runs");
    assert_eq!(
        format!("{:016x}", fnv64(report.to_json().as_bytes())),
        "c413a15145973eb0"
    );
}

/// The fleet-wide benchmark's shape at tier-1 size: many short benign
/// homes, candidates-only rows, two region shards. Region consume and
/// the per-template key material every home shares both run here.
#[test]
fn wide_candidates_only_fleet_report_bytes_are_pinned() {
    let spec = FleetSpec::new(0xF1EE_5CA1, 300)
        .with_workers(2)
        .with_regions(2)
        .with_horizon(Duration::from_secs(20))
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_row_policy(RowPolicy::CandidatesOnly);
    let report = run_fleet(&spec, &FleetMetrics::new()).expect("fleet runs");
    assert_eq!(
        format!("{:016x}", fnv64(report.to_json().as_bytes())),
        "72435422ec9f8c2f"
    );
}

/// Each file in `dir`, by name, with the fingerprint of its bytes.
fn file_fingerprints(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("the run wrote its snapshots")
        .map(|entry| {
            let path = entry.expect("a readable entry").path();
            let bytes = std::fs::read(&path).expect("a readable snapshot");
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, format!("{:016x}", fnv64(&bytes)))
        })
        .collect();
    files.sort();
    files
}

/// The XLFR run snapshots of a small streamed fleet with a gated,
/// tampered campaign and a config audit, so its stream generations carry
/// the correlator, the campaign engine, the command bus and the auditor:
/// the homes-phase generation, as a kill after the homes leaves it, and
/// every generation file the full run leaves on disk (the last two).
#[test]
fn streamed_fleet_run_snapshot_bytes_are_pinned() {
    let spec = |dir: &Path| {
        FleetSpec::new(0x5EC0_4E27, 12)
            .with_workers(2)
            .with_regions(2)
            .with_correlation_interval(60)
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::BotnetRecruit, 1),
            ])
            .with_campaign(
                CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam fw v2".to_vec())
                    .with_schedule(2, 2)
                    .with_waves(vec![25, 100])
                    .with_tampered(),
            )
            .with_config_audit(ConfigAuditSpec::new(3).with_drift(25, 4))
            .with_run_snapshot_every(1, dir)
    };

    let killed = scratch_dir("pinned-homes");
    let kill = run_fleet_chaos(&spec(&killed), &FleetMetrics::new(), KillPoint::AfterHomes);
    assert!(
        matches!(kill, Err(FleetError::ChaosKilled(KillPoint::AfterHomes))),
        "the kill after the homes fires"
    );
    let homes = file_fingerprints(&killed);
    let _ = std::fs::remove_dir_all(&killed);

    let full = scratch_dir("pinned-full");
    run_fleet(&spec(&full), &FleetMetrics::new()).expect("fleet runs");
    let generations = file_fingerprints(&full);
    let _ = std::fs::remove_dir_all(&full);

    let pin = |name: &str, fnv: &str| (name.to_string(), fnv.to_string());
    assert_eq!(homes, [pin("xlfr-000000.snap", "46d21b02e5022d2d")]);
    assert_eq!(
        generations,
        [
            pin("xlfr-000006.snap", "ff344dd451e66347"),
            pin("xlfr-000007.snap", "640f5bfba7bffa5b"),
        ]
    );
}

#[test]
fn scenario_alerts_and_evidence_are_pinned() {
    let mut trace = String::new();
    // The section labels the scenarios printed when the pin was taken.
    let labels = [
        "None",
        "BotnetRecruitFlood",
        "BufferOverflow",
        "FirmwareTamper",
        "SpoofedEvents",
    ];
    for (attack, label) in SCENARIOS.into_iter().zip(labels) {
        let home = run_scenario(1, XlfConfig::full(), attack);
        let core = home.core.borrow();
        trace.push_str(&format!("{label}\n"));
        for a in core.alerts.alerts() {
            trace.push_str(&format!(
                "alert {} {} {:?} {:016x} {}\n",
                a.at.as_micros(),
                a.device,
                a.severity,
                a.score.to_bits(),
                a.explanation
            ));
        }
        for e in core.store.all() {
            trace.push_str(&format!("evidence {} {:?}\n", e.device, e.kind));
        }
    }
    assert_eq!(
        format!("{:016x}", fnv64(trace.as_bytes())),
        "92838e84214021c0"
    );
}
