//! Golden pins for the versioned fleet JSON schemas.
//!
//! `FleetReport::to_json` and `FleetMetrics::to_json` are longitudinal
//! interfaces: operators diff them across runs and revisions. These
//! tests pin the exact bytes of schema v8 against goldens under
//! `tests/golden/`. If a field is added/removed/renamed/reordered, bump
//! the matching `*_SCHEMA_VERSION` constant and regenerate the goldens:
//!
//! ```text
//! XLF_UPDATE_GOLDENS=1 cargo test -p xlf-fleet --test schema
//! ```

use std::path::PathBuf;
use xlf_core::framework::HomeReport;
use xlf_device::firmware::Version;
use xlf_fleet::{
    CampaignSpec, ConfigAuditSpec, FleetAggregator, FleetAttack, FleetFault, FleetMetrics,
    FleetReport, FleetSpec, HomeBuildError, HomeOutcome, HomeRunError, HomeSpec, HomeStream,
    OnboardingSpec, RegionAggregator, FLEET_METRICS_SCHEMA_VERSION, FLEET_REPORT_SCHEMA_VERSION,
};
use xlf_stream::{WindowSummary, STREAM_FEATURES};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the golden file, or rewrites the golden
/// when `XLF_UPDATE_GOLDENS=1` (then fails so the refreshed file gets
/// reviewed and committed deliberately).
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("XLF_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{actual}\n")).unwrap();
        panic!("golden {name} regenerated; review the diff and rerun without XLF_UPDATE_GOLDENS");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with XLF_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden.trim_end_matches('\n'),
        "{name} drifted from the pinned schema v{FLEET_REPORT_SCHEMA_VERSION}: \
         if the change is intentional, bump the schema version and regenerate \
         with XLF_UPDATE_GOLDENS=1"
    );
}

/// Aggregates `items` through one region shard and the global pass.
fn aggregate(
    spec: &FleetSpec,
    items: impl IntoIterator<Item = (HomeSpec, HomeOutcome, HomeStream)>,
) -> FleetReport {
    let mut shard = RegionAggregator::new(spec, 0, 1);
    for (hs, outcome, stream) in items {
        shard.consume(hs, outcome, stream);
    }
    FleetAggregator::new(spec).aggregate_regions(vec![shard])
}

fn fake_report(seed: u64, traffic: f64, criticals: usize) -> HomeReport {
    HomeReport {
        seed,
        evidence_total: 10,
        evidence_dropped: 0,
        evidence_shed: 0,
        evidence_by_layer: [3, 4, 3],
        warning_alerts: criticals,
        critical_alerts: criticals,
        quarantined: Vec::new(),
        top_device: "cam".to_string(),
        top_score: if criticals > 0 { 0.9 } else { 0.1 },
        forwarded: 100,
        dropped_packets: 0,
        features: vec![traffic, 100.0, 5.0, traffic * 100.0, 1.0, 0.5],
    }
}

fn ok(report: HomeReport) -> HomeOutcome {
    HomeOutcome::Ok {
        report,
        observer_accuracy: None,
    }
}

/// A small synthetic fleet exercising every row variant the schema can
/// emit: healthy homes, a behavioural outlier, a home-core critical, a
/// bounded home with sheds, an observer home with an accuracy score, a
/// home under a fault, and one of each degraded/failed/build-failed
/// outcome.
fn synthetic_report_json() -> String {
    let spec = FleetSpec::new(0x60_1D, 12);
    let mut items: Vec<(HomeSpec, HomeOutcome)> = (0..12u64)
        .map(|i| {
            let traffic = if i == 3 { 900.0 } else { 50.0 + i as f64 };
            (
                HomeSpec {
                    id: i,
                    seed: i,
                    template: (i % 2) as usize,
                    attack: FleetAttack::None,
                    fault: FleetFault::None,
                    region: (i % 3) as u32,
                },
                ok(fake_report(i, traffic, 0)),
            )
        })
        .collect();
    if let HomeOutcome::Ok { report, .. } = &mut items[2].1 {
        report.critical_alerts = 2;
        report.warning_alerts = 3;
        report.quarantined.push("cam".to_string());
    }
    if let HomeOutcome::Ok { report, .. } = &mut items[6].1 {
        report.evidence_dropped = 40;
        report.evidence_shed = 40;
    }
    items[4].0.attack = FleetAttack::TrafficObserver;
    items[4].1 = HomeOutcome::Ok {
        report: fake_report(4, 54.0, 0),
        observer_accuracy: Some(0.8125),
    };
    items[5].0.fault = FleetFault::GatewaySkew;
    items[8].0.fault = FleetFault::WanDegrade;
    items[8].1 = HomeOutcome::Degraded {
        report: fake_report(8, 58.0, 0),
        observer_accuracy: None,
        events_used: 5_000,
    };
    items[9].1 = HomeOutcome::BuildFailed(HomeBuildError {
        home: 9,
        reason: "template index 7 out of range (2 templates)".to_string(),
    });
    items[10].0.fault = FleetFault::ChaosPanic;
    items[10].1 = HomeOutcome::Failed(HomeRunError {
        home: 10,
        attempts: 2,
        fault: "chaos-panic",
        panic: "chaos-panic: injected simulation fault in home 10".to_string(),
    });
    aggregate(
        &spec,
        items
            .into_iter()
            .map(|(hs, o)| (hs, o, HomeStream::default())),
    )
    .to_json()
}

/// A small streamed fleet with a tampered, gated campaign plus a config
/// audit — exercises every branch of the v5 `campaigns` section: wave
/// reports, a health-gate halt with rollback/quarantine commands, and
/// config-drift remediation.
fn synthetic_campaign_report_json() -> String {
    let spec = FleetSpec::new(0x60_1D, 8)
        .with_correlation_interval(15) // 420 s horizon → 28 epochs
        .with_campaign(
            CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam fw v2".to_vec())
                .with_schedule(2, 2)
                .with_waves(vec![25, 100])
                .with_tampered(),
        )
        .with_config_audit(ConfigAuditSpec::new(5).with_drift(25, 4));
    let items: Vec<(HomeSpec, HomeOutcome, HomeStream)> = (0..8u64)
        .map(|i| {
            let windows = (0..spec.stream_epochs())
                .map(|epoch| {
                    let mut features = [0.0; STREAM_FEATURES];
                    features[0] = 10.0; // flat evidence deltas: no deviants
                    features[9] = 50.0 + i as f64;
                    WindowSummary {
                        home: i,
                        window: epoch,
                        partial: false,
                        features,
                    }
                })
                .collect();
            (
                HomeSpec {
                    id: i,
                    seed: i,
                    template: 0,
                    attack: FleetAttack::None,
                    fault: FleetFault::None,
                    region: (i % 2) as u32,
                },
                ok(fake_report(i, 50.0 + i as f64, 0)),
                HomeStream { windows, shed: 0 },
            )
        })
        .collect();
    aggregate(&spec, items).to_json()
}

#[test]
fn fleet_report_json_matches_the_v8_golden() {
    assert_eq!(
        FLEET_REPORT_SCHEMA_VERSION, 8,
        "bump goldens with the schema"
    );
    let json = synthetic_report_json();
    assert!(json.starts_with("{\"schema_version\":8,"), "{json}");
    // Batch aggregation: the `epochs` and `campaigns` sections are
    // present but null.
    assert!(json.contains("\"epochs\":null"), "{json}");
    assert!(json.contains("\"campaigns\":null"), "{json}");
    // v6: the regions section and per-row region/candidate fields.
    assert!(json.contains("\"regions\":[{\"region\":0,"), "{json}");
    assert!(json.contains("\"rows_mode\":\"full\""), "{json}");
    assert!(json.contains("\"candidate\":true"), "{json}");
    // v7: the recovery section (null cadence — no snapshot policy).
    assert!(
        json.contains("\"recovery\":{\"snapshot_every\":null}"),
        "{json}"
    );
    // v8: the onboarding section (null — no onboarding spec).
    assert!(json.contains("\"onboarding\":null"), "{json}");
    assert_matches_golden("fleet_report_v8.json", &json);
}

/// An onboarding-bearing fleet exercising the v8 `onboarding` section:
/// benign joiners plus one token-replay and one rogue-AS cohort, over
/// the real stamped homes (the section is recomputed from the spec, so
/// the item ids must agree with it).
fn synthetic_onboard_report_json() -> String {
    let spec = FleetSpec::new(0x60_1D, 6)
        .with_attacks(vec![
            (FleetAttack::None, 2),
            (FleetAttack::TokenReplay, 1),
            (FleetAttack::RogueAs, 1),
        ])
        .with_onboarding(OnboardingSpec::new());
    let items: Vec<(HomeSpec, HomeOutcome)> = spec
        .stamp()
        .into_iter()
        .map(|hs| {
            let seed = hs.seed;
            (hs, ok(fake_report(seed, 50.0, 0)))
        })
        .collect();
    aggregate(
        &spec,
        items
            .into_iter()
            .map(|(hs, o)| (hs, o, HomeStream::default())),
    )
    .to_json()
}

#[test]
fn onboard_report_json_matches_the_v8_golden() {
    let json = synthetic_onboard_report_json();
    // The section carries the join ledger, the containment invariant,
    // structured denial causes, and the per-class cipher record.
    assert!(json.contains("\"onboarding\":{\"joins\":6,"), "{json}");
    assert!(json.contains("\"rogue_admissions\":0"), "{json}");
    assert!(json.contains("\"denials\":{\"infeasible\":"), "{json}");
    assert!(json.contains("\"key_floor_bits\":"), "{json}");
    assert!(json.contains("\"denied_homes\":["), "{json}");
    assert_matches_golden("fleet_report_onboard_v8.json", &json);
}

#[test]
fn campaign_report_json_matches_the_v8_golden() {
    let json = synthetic_campaign_report_json();
    // The tampered release lands on the first wave's promiscuous
    // cohort, the correlator flags the implant behaviour, and the gate
    // halts with containment before wave 1.
    assert!(json.contains("\"halted_at_wave\":0") || json.contains("\"halted_at_wave\":1"));
    assert!(json.contains("\"contained\":true"), "{json}");
    assert!(json.contains("\"config_audit\":{\"every\":5"), "{json}");
    assert_matches_golden("fleet_report_campaign_v8.json", &json);
}

#[test]
fn fleet_metrics_json_matches_the_v8_golden() {
    assert_eq!(
        FLEET_METRICS_SCHEMA_VERSION, 8,
        "bump goldens with the schema"
    );
    let m = FleetMetrics::new();
    m.homes_stepped.add(10);
    m.homes_degraded.inc();
    m.homes_run_failed.inc();
    m.homes_build_failed.inc();
    m.panics_caught.add(3);
    m.retries.add(2);
    m.retries_futile.inc();
    m.deadline_truncations.inc();
    m.faults_injected.inc(FleetFault::None);
    m.faults_injected.inc(FleetFault::WanDegrade);
    m.faults_injected.inc(FleetFault::ChaosPanic);
    m.evidence_drained.add(420);
    m.evidence_total.add(480);
    m.evidence_shed.add(60);
    m.windows_emitted.add(84);
    m.windows_shed.add(6);
    m.onboard_joins.add(10);
    m.onboard_admitted.add(8);
    m.onboard_denied.add(2);
    m.onboard_retransmissions.add(3);
    m.campaign_updates_applied.add(5);
    m.campaign_updates_rejected.add(2);
    m.campaign_rollbacks.add(5);
    m.campaign_quarantines.add(5);
    m.config_drift_detected.add(3);
    m.config_remediations.add(3);
    m.workers_effective.set(2);
    m.regions.set(4);
    m.region_candidates.add(9);
    m.snapshots_written.add(4);
    m.snapshot_bytes.add(81_920);
    m.resumes.inc();
    m.replayed_epochs.add(3);
    m.shard_panics.inc();
    m.reports_received.add(11);
    m.report_channel_depth.set(3);
    m.report_channel_depth.set(1);
    m.build_us.observe(250);
    m.step_us.observe(12_000);
    m.report_us.observe(80);
    m.aggregate_us.observe(1_500);
    let json = m.to_json();
    assert!(json.starts_with("{\"schema_version\":8,"), "{json}");
    assert_matches_golden("fleet_metrics_v8.json", &json);
}

#[test]
fn report_and_metrics_jsons_are_parseable_shapes() {
    // Cheap structural sanity on top of the byte pins: balanced braces
    // and brackets, no bare non-finite floats.
    for json in [synthetic_report_json(), FleetMetrics::new().to_json()] {
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }
}

#[test]
fn synthetic_report_satisfies_outcome_conservation() {
    let json = synthetic_report_json();
    // 12 homes total: 9 correlated rows + 1 degraded + 1 run-failed +
    // 1 build-failed.
    assert!(json.contains("\"homes\":12"), "{json}");
    assert!(
        json.contains(
            "\"homes_ok\":9,\"homes_degraded\":1,\"homes_run_failed\":1,\"homes_build_failed\":1"
        ),
        "{json}"
    );
}
