//! Fleet determinism: the same master seed must produce a byte-identical
//! fleet report no matter how many workers shard the homes — worker
//! count is an execution detail, not an input to the science.

use xlf_device::firmware::Version;
use xlf_fleet::{
    run_fleet, CampaignSpec, ConfigAuditSpec, FleetAttack, FleetMetrics, FleetSpec, HomeTemplate,
    OnboardingSpec, RowPolicy,
};
use xlf_simnet::Duration;

fn spec(workers: usize) -> FleetSpec {
    FleetSpec::new(0xF1EE_7001, 24)
        .with_workers(workers)
        .with_attacks(vec![
            (FleetAttack::None, 10),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
        ])
}

#[test]
fn same_master_seed_is_byte_identical_across_worker_counts() {
    let baseline = run_fleet(&spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    assert_eq!(baseline.rows.len(), 24);

    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&spec(workers), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the fleet report"
        );
        assert_eq!(metrics.homes_stepped.get(), 24);
        assert_eq!(metrics.reports_received.get(), 24);
    }
}

#[test]
fn bounded_capacity_sheds_are_byte_identical_across_worker_counts() {
    // Overload sheds are part of the science, not an execution detail:
    // a bounded fleet (retrofit homes let the Mirai flood actually fire)
    // must report the exact same shed counts for any worker count.
    fn bounded_spec(workers: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_7002, 24)
            .with_workers(workers)
            .with_templates(vec![HomeTemplate::apartment(), HomeTemplate::retrofit()])
            .with_attacks(vec![
                (FleetAttack::None, 4),
                (FleetAttack::BotnetRecruit, 2),
            ])
            .with_evidence_capacity(Some(64))
    }
    let baseline = run_fleet(&bounded_spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    assert!(
        baseline.totals.evidence_shed > 0,
        "a bounded fleet under flood must shed: {:?}",
        baseline.totals
    );
    assert!(
        baseline.totals.evidence_dropped >= baseline.totals.evidence_shed,
        "sheds are a subset of drops"
    );
    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&bounded_spec(workers), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the bounded fleet report"
        );
        assert_eq!(metrics.evidence_shed.get(), baseline.totals.evidence_shed);
    }
}

#[test]
fn multi_message_handoffs_are_byte_identical_across_workers() {
    // A thin-home fleet in the fleet-wide shape, large enough that a
    // worker hands the region tier several full messages of 32 homes
    // and then a partial one: 200 homes are 6 full messages and 8 homes
    // on one worker, about 3 full messages and a partial one each on
    // two. Message boundaries are an execution detail, so the worker
    // count may not change a byte, and no home may be lost.
    const HOMES: usize = 200;
    fn thin_spec(workers: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_7003, HOMES)
            .with_workers(workers)
            .with_regions(2)
            .with_horizon(Duration::from_secs(20))
            .with_attacks(vec![
                (FleetAttack::None, 30),
                (FleetAttack::BotnetRecruit, 1),
                (FleetAttack::Replay, 1),
            ])
            .with_row_policy(RowPolicy::CandidatesOnly)
    }
    let metrics = FleetMetrics::new();
    let baseline = run_fleet(&thin_spec(1), &metrics).expect("fleet runs");
    assert_eq!(metrics.reports_received.get(), HOMES as u64);
    assert!(baseline.accounting_ok(HOMES), "{:?}", baseline.totals);
    let json = baseline.to_json();

    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&thin_spec(workers), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "{workers} workers changed the fleet report"
        );
        assert_eq!(metrics.reports_received.get(), HOMES as u64, "{workers}");
        // The depth a sender samples counts the messages in flight
        // ahead of its own: at most the two queued ones and one blocked
        // message per other worker. A collector that never took its
        // received messages off the count would read about 6 here.
        let other_workers = metrics.workers_effective.get() - 1;
        let high_water = metrics.report_channel_depth.high_water();
        assert!(
            high_water <= 2 + other_workers,
            "{workers} workers: depth high water {high_water} with {other_workers} other workers"
        );
    }
}

#[test]
fn zero_region_slots_run_as_one_slot() {
    // `region_slots` is a public field: 0 must mean one region, as it
    // does everywhere the field is read, never a division by zero.
    let mut zero = spec(2);
    zero.region_slots = 0;
    let one = spec(2).with_region_slots(1);
    assert_eq!(zero.stamp(), one.stamp());
    let json = |s: &FleetSpec| {
        run_fleet(s, &FleetMetrics::new())
            .expect("fleet runs")
            .to_json()
    };
    assert_eq!(json(&zero), json(&one));
}

#[test]
fn different_master_seed_changes_the_report() {
    let a = run_fleet(&spec(2), &FleetMetrics::new()).expect("fleet runs");
    let mut other = spec(2);
    other.master_seed ^= 1;
    let b = run_fleet(&other, &FleetMetrics::new()).expect("fleet runs");
    assert_ne!(a.to_json(), b.to_json());
}

#[test]
fn campaign_bearing_reports_are_byte_identical_across_worker_counts() {
    // The control plane (campaign waves, health-gate decisions, config
    // remediations) runs inside the aggregator's stream pass over
    // deterministically stamped cohorts: worker count must not change a
    // single byte of a campaign-bearing report.
    fn campaign_spec(workers: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_7007, 16)
            .with_workers(workers)
            .with_correlation_interval(15)
            .with_campaign(
                CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam v2".to_vec())
                    .with_schedule(8, 3)
                    .with_waves(vec![25, 60, 100]),
            )
            .with_config_audit(ConfigAuditSpec::new(6).with_drift(20, 10))
    }
    let baseline = run_fleet(&campaign_spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    let mgmt = baseline.mgmt.as_ref().expect("campaign section present");
    assert_eq!(mgmt.campaigns.len(), 1);
    assert_eq!(
        mgmt.campaigns[0].rollout_pct, 100,
        "clean signed release must roll out fully: {:?}",
        mgmt.campaigns[0]
    );
    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&campaign_spec(workers), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the campaign-bearing report"
        );
        assert_eq!(
            metrics.campaign_updates_applied.get(),
            mgmt.campaigns[0].updated
        );
    }
}

#[test]
fn region_counts_are_byte_identical_for_plain_fleets() {
    // The hierarchical contract: the number of region-aggregator
    // *instances* is an execution knob like the worker count. A home's
    // logical region is stamped data, so sharding the logical slots
    // across 1, 2, or 8 instances must not change a byte.
    let baseline = run_fleet(&spec(2).with_regions(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    assert_eq!(baseline.regions.len(), 8, "one summary per logical region");
    for regions in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&spec(2).with_regions(regions), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "region count {regions} changed the fleet report"
        );
        assert_eq!(metrics.regions.get(), regions as u64);
    }
}

#[test]
fn region_counts_are_byte_identical_with_faults_and_campaigns() {
    // The hard case: faults (degraded/failed homes land in *different*
    // logical regions) and a streamed campaign with a config audit (the
    // control plane reads the gathered home set). Still not one byte of
    // difference across 1/2/8 region shards.
    use xlf_fleet::FleetFault;
    fn chaotic_spec(regions: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_8008, 16)
            .with_workers(2)
            .with_regions(regions)
            .with_correlation_interval(15)
            .with_faults(vec![
                (FleetFault::None, 5),
                (FleetFault::WanFlap, 1),
                (FleetFault::ChaosPanic, 1),
            ])
            .with_campaign(
                CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam v2".to_vec())
                    .with_schedule(8, 3)
                    .with_waves(vec![25, 60, 100]),
            )
            .with_config_audit(ConfigAuditSpec::new(6).with_drift(20, 10))
    }
    let baseline = run_fleet(&chaotic_spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    assert!(baseline.mgmt.is_some(), "campaign section present");
    for regions in [2, 8] {
        let report = run_fleet(&chaotic_spec(regions), &FleetMetrics::new()).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "region count {regions} changed the chaotic fleet report"
        );
    }
}

#[test]
fn onboarding_bearing_reports_are_byte_identical_across_worker_counts() {
    // The join phase (CoAP handshakes, token verdicts, per-class energy)
    // is a pure function of the stamped spec: an onboarding-bearing
    // report — including one with onboarding-layer attacks — must not
    // change a byte across worker counts, and the live join metrics must
    // agree with the recomputed section.
    fn onboard_spec(workers: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_900B, 24)
            .with_workers(workers)
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::TokenReplay, 1),
                (FleetAttack::RogueAs, 1),
            ])
            .with_onboarding(OnboardingSpec::new())
    }
    let baseline = run_fleet(&onboard_spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    let section = baseline.onboarding.as_ref().expect("onboarding section");
    assert_eq!(section.joins, 24);
    assert_eq!(section.rogue_admissions, 0);
    assert!(section.denied > 0, "attack mix must deny some joins");
    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&onboard_spec(workers), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the onboarding-bearing report"
        );
        assert_eq!(metrics.onboard_joins.get(), section.joins);
        assert_eq!(metrics.onboard_admitted.get(), section.admitted);
        assert_eq!(metrics.onboard_denied.get(), section.denied);
        assert_eq!(
            metrics.onboard_retransmissions.get(),
            section.retransmissions
        );
    }
}

#[test]
fn onboarding_bearing_reports_are_byte_identical_across_region_shards() {
    // The section is recomputed from the spec at the global pass, never
    // stored in region slots — so the region-shard count (like the
    // worker count, an execution knob) must not change a byte either.
    fn sharded_spec(regions: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_900C, 24)
            .with_workers(2)
            .with_regions(regions)
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::TokenReplay, 1),
                (FleetAttack::RogueAs, 1),
            ])
            .with_onboarding(OnboardingSpec::new())
    }
    let baseline = run_fleet(&sharded_spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    assert!(baseline.onboarding.is_some(), "onboarding section present");
    for regions in [2, 8] {
        let report = run_fleet(&sharded_spec(regions), &FleetMetrics::new()).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "region count {regions} changed the onboarding-bearing report"
        );
    }
}

#[test]
fn denied_joins_are_flagged_and_alerted() {
    // The fleet record must carry every denial: denied homes land in
    // `flagged` and each raises a warning alert naming its cause.
    let report = run_fleet(
        &spec(2)
            .with_onboarding(OnboardingSpec::new())
            .with_attacks(vec![
                (FleetAttack::None, 4),
                (FleetAttack::TokenReplay, 1),
                (FleetAttack::RogueAs, 1),
            ]),
        &FleetMetrics::new(),
    )
    .expect("fleet runs");
    let section = report.onboarding.as_ref().expect("onboarding section");
    assert!(section.denied > 0, "attack mix must deny some joins");
    for id in &section.denied_homes {
        assert!(
            report.flagged.contains(id),
            "denied home {id} not flagged; flagged={:?}",
            report.flagged
        );
        let device = format!("home-{id:06}");
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.device == device && a.explanation.contains("join denied")),
            "denied home {id} has no onboarding alert"
        );
    }
}

#[test]
fn injected_deviants_are_flagged_by_the_aggregator() {
    // A mostly-benign fleet with a couple of compromised homes: the
    // cross-home tier must flag every actively-attacked home (their own
    // Cores raise criticals, which the aggregator escalates fleet-wide).
    // Passive observation has no in-home signature, so only active
    // attacks are expected here.
    let report = run_fleet(&spec(2), &FleetMetrics::new()).expect("fleet runs");
    let attacked: Vec<u64> = report
        .rows
        .iter()
        .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
        .map(|r| r.id)
        .collect();
    assert!(
        !attacked.is_empty(),
        "attack mix should hit at least one home"
    );
    for id in &attacked {
        assert!(
            report.flagged.contains(id),
            "attacked home {id} not flagged; flagged={:?}",
            report.flagged
        );
    }
    // And the flags come with fleet alerts through the alert pipeline.
    assert!(report.alerts.len() >= attacked.len());
}
