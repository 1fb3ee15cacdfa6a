//! Specs that no fleet can run are refused with a structured error
//! before any home is stamped. Each field set below is public, so a
//! spec built without the builders can hold it; each used to divide by
//! zero in stamping or the stream pass, or to be dropped without a word.

use xlf_device::firmware::Version;
use xlf_fleet::{
    run_fleet, run_fleet_chaos, run_fleet_resume, scratch_dir, CampaignSpec, ConfigAuditSpec,
    FleetError, FleetFault, FleetMetrics, FleetSpec, KillPoint, RowPolicy, RunSnapshotPolicy,
    SpecError,
};

fn spec() -> FleetSpec {
    FleetSpec::new(0x5BEC_0001, 4).with_workers(2)
}

fn streamed() -> FleetSpec {
    spec().with_correlation_interval(30)
}

fn refusal(spec: &FleetSpec) -> SpecError {
    match run_fleet(spec, &FleetMetrics::new()) {
        Err(FleetError::Spec(e)) => e,
        other => panic!("expected a spec error, got {other:?}"),
    }
}

#[test]
fn an_empty_template_mix_is_refused() {
    let mut s = spec();
    s.templates.clear();
    assert_eq!(refusal(&s), SpecError::EmptyMix("templates"));
}

#[test]
fn a_zero_share_template_mix_is_refused() {
    let mut s = spec();
    for t in &mut s.templates {
        t.share = 0;
    }
    assert_eq!(refusal(&s), SpecError::EmptyMix("templates"));
}

#[test]
fn an_empty_attack_mix_is_refused() {
    // Stamping this spec divided by a zero share total on a worker
    // thread, which the run reported as a worker panic.
    let mut s = spec();
    s.attacks.clear();
    assert_eq!(refusal(&s), SpecError::EmptyMix("attacks"));
}

#[test]
fn a_zero_share_attack_mix_is_refused() {
    let mut s = spec();
    s.attacks[0].1 = 0;
    assert_eq!(refusal(&s), SpecError::EmptyMix("attacks"));
}

#[test]
fn an_empty_fault_mix_is_refused() {
    let mut s = spec();
    s.faults.clear();
    assert_eq!(refusal(&s), SpecError::EmptyMix("faults"));
}

#[test]
fn a_zero_share_fault_mix_is_refused() {
    let mut s = spec();
    s.faults = vec![(FleetFault::None, 0), (FleetFault::WanFlap, 0)];
    assert_eq!(refusal(&s), SpecError::EmptyMix("faults"));
}

#[test]
fn a_zero_correlation_interval_is_refused() {
    let mut s = spec();
    s.correlation_interval = Some(0);
    assert_eq!(refusal(&s), SpecError::ZeroInterval);
}

#[test]
fn a_zero_snapshot_cadence_is_refused() {
    let mut s = streamed();
    s.run_snapshot = Some(RunSnapshotPolicy {
        every: 0,
        dir: scratch_dir("spec-zero-cadence"),
    });
    assert_eq!(refusal(&s), SpecError::ZeroSnapshotCadence);
}

#[test]
fn campaigns_without_streaming_are_refused() {
    let mut s = spec();
    s.campaigns.push(CampaignSpec::new(
        "cam-fw-2.0",
        "cam",
        Version(2, 0, 0),
        b"cam v2".to_vec(),
    ));
    assert_eq!(refusal(&s), SpecError::NeedsStreaming("campaigns"));
}

#[test]
fn an_audit_without_streaming_is_refused() {
    // A batch run used to drop the audit and return `Ok`.
    let mut s = spec();
    s.config_audit = Some(ConfigAuditSpec::new(6));
    assert_eq!(refusal(&s), SpecError::NeedsStreaming("config_audit"));
}

#[test]
fn candidates_only_rows_with_streaming_are_refused() {
    let mut s = streamed();
    s.row_policy = RowPolicy::CandidatesOnly;
    assert_eq!(refusal(&s), SpecError::CandidatesOnlyStreamed);
}

#[test]
fn the_chaos_and_resume_entry_points_refuse_the_same_spec() {
    let dir = scratch_dir("spec-resume");
    let mut s = streamed().with_run_snapshot_every(1, &dir);
    s.correlation_interval = Some(0);
    let metrics = FleetMetrics::new();
    assert_eq!(
        run_fleet_chaos(&s, &metrics, KillPoint::AfterHomes).err(),
        Some(FleetError::Spec(SpecError::ZeroInterval))
    );
    assert_eq!(
        run_fleet_resume(&s, &metrics).err(),
        Some(FleetError::Spec(SpecError::ZeroInterval))
    );
    // Refused before the first home: no snapshot was cut.
    assert!(!dir.exists());
}
