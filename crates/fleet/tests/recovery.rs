//! Durable checkpoint/resume under chaos kills: the byte-identity gate.
//!
//! The acceptance bar of the durability tier: kill a snapshotting run at
//! **every** deterministic kill point — the homes→stream boundary and
//! the top of each stream epoch, including mid-campaign between waves —
//! resume it from the on-disk `XLFR` generations, and get a report
//! **byte-identical** to the uninterrupted run. That must hold across
//! worker counts and region-shard counts (both pure execution details),
//! across snapshot cadences, past corrupted generation files (fall back
//! to the previous good one), with nothing usable at all (fall back to a
//! full re-run), and for snapshot directories that belong to a different
//! fleet entirely.

use std::path::Path;
use xlf_device::firmware::Version;
use xlf_fleet::{
    kill_points, run_fleet, run_fleet_resume, run_killed_and_resumed, scratch_dir, CampaignSpec,
    ConfigAuditSpec, FleetAttack, FleetFault, FleetMetrics, FleetSpec, KillPoint,
};
use xlf_simnet::Duration;

/// A fleet exercising every kind of state the snapshot must carry:
/// faulted homes (failed outcomes in the slots), an attack mix, a
/// tampered gated campaign (engines + command bus mutate mid-stream),
/// and a config audit (fingerprint state) — 7 stream epochs at the
/// default 420 s horizon.
fn base_spec(workers: usize, regions: usize) -> FleetSpec {
    FleetSpec::new(0x5EC0_4E27, 12)
        .with_workers(workers)
        .with_regions(regions)
        .with_correlation_interval(60)
        .with_attacks(vec![
            (FleetAttack::None, 6),
            (FleetAttack::BotnetRecruit, 1),
        ])
        .with_faults(vec![(FleetFault::None, 5), (FleetFault::ChaosPanic, 1)])
        .with_retry_budget(1)
        .with_campaign(
            CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam fw v2".to_vec())
                .with_schedule(2, 2)
                .with_waves(vec![25, 100])
                .with_tampered(),
        )
        .with_config_audit(ConfigAuditSpec::new(3).with_drift(25, 4))
}

/// The straight-through golden for a given snapshot cadence. The
/// `recovery` report section carries the cadence, so the golden spec
/// must carry the same policy (pointed at its own throwaway dir).
fn golden_json(every: u64) -> String {
    let dir = scratch_dir("golden");
    let spec = base_spec(2, 2).with_run_snapshot_every(every, &dir);
    let report = run_fleet(&spec, &FleetMetrics::new()).expect("golden runs");
    let _ = std::fs::remove_dir_all(&dir);
    report.to_json()
}

/// Kills at every point of `spec`'s timeline and asserts each resumed
/// report matches `golden` byte for byte, with the expected number of
/// replayed epochs for an every-1 cadence.
fn assert_identity_at_every_kill_point(workers: usize, regions: usize, golden: &str) {
    let epochs = base_spec(workers, regions).stream_epochs();
    for kill in kill_points(&base_spec(workers, regions)) {
        let dir = scratch_dir("chaos");
        let spec = base_spec(workers, regions).with_run_snapshot_every(1, &dir);
        let metrics = FleetMetrics::new();
        let report = run_killed_and_resumed(&spec, kill, &metrics)
            .unwrap_or_else(|e| panic!("kill {kill} (w{workers} r{regions}): {e}"));
        assert_eq!(
            report.to_json(),
            golden,
            "resume after kill {kill} (w{workers} r{regions}) diverged"
        );
        assert_eq!(metrics.resumes.get(), 1, "kill {kill} did not resume");
        // Every-1 cadence: the resumed run replays exactly the epochs
        // after the last completed snapshot.
        let expected_replay = match kill {
            KillPoint::AfterHomes => epochs,
            KillPoint::Epoch(e) => epochs - e,
        };
        assert_eq!(
            metrics.replayed_epochs.get(),
            expected_replay,
            "kill {kill} replayed the wrong epoch count"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_kill_point_1_worker_1_shard() {
    // The premise first: this spec genuinely carries faulted homes and a
    // halted campaign, so mid-campaign kill points are non-trivial.
    let golden = golden_json(1);
    assert!(golden.contains("\"halted_at_wave\""), "{golden}");
    assert!(golden.contains("\"run_failed\":[{"), "{golden}");
    assert!(
        golden.contains("\"recovery\":{\"snapshot_every\":1}"),
        "{golden}"
    );
    assert_identity_at_every_kill_point(1, 1, &golden);
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_kill_point_2_workers_2_shards() {
    assert_identity_at_every_kill_point(2, 2, &golden_json(1));
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_kill_point_8_workers_8_shards() {
    assert_identity_at_every_kill_point(8, 8, &golden_json(1));
}

#[test]
fn a_coarser_cadence_replays_more_epochs_but_stays_byte_identical() {
    let golden = golden_json(5);
    let epochs = base_spec(2, 2).stream_epochs();
    // At every-5 only the end of epoch 4 cuts a stream snapshot: a kill
    // at epoch 3 falls back to the homes-phase generation (replays all
    // epochs); a kill at epoch 6 resumes the cursor-5 generation.
    for (kill, expected_replay) in [
        (KillPoint::Epoch(3), epochs),
        (KillPoint::Epoch(6), epochs - 5),
    ] {
        let dir = scratch_dir("cadence");
        let spec = base_spec(2, 2).with_run_snapshot_every(5, &dir);
        let metrics = FleetMetrics::new();
        let report =
            run_killed_and_resumed(&spec, kill, &metrics).expect("kill + resume completes");
        assert_eq!(
            report.to_json(),
            golden,
            "cadence-5 resume diverged at {kill}"
        );
        assert_eq!(metrics.resumes.get(), 1);
        assert_eq!(metrics.replayed_epochs.get(), expected_replay);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flips one byte in the middle of the newest generation file.
fn corrupt_newest(dir: &Path) {
    let newest = std::fs::read_dir(dir)
        .expect("snapshot dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("a generation file exists");
    let mut bytes = std::fs::read(&newest).expect("read generation");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&newest, bytes).expect("write corrupted generation");
}

#[test]
fn a_corrupted_newest_generation_falls_back_to_the_previous_good_one() {
    let golden = golden_json(1);
    let dir = scratch_dir("corrupt");
    let spec = base_spec(2, 2).with_run_snapshot_every(1, &dir);
    let kill = KillPoint::Epoch(5);

    // Kill at epoch 5, then corrupt the newest (cursor-5) generation:
    // the resume must fall back to the retained cursor-4 generation and
    // replay one extra epoch — still byte-identical.
    let metrics = FleetMetrics::new();
    let err = xlf_fleet::run_fleet_chaos(&spec, &metrics, kill).expect_err("chaos run is killed");
    assert!(matches!(
        err,
        xlf_fleet::FleetError::ChaosKilled(KillPoint::Epoch(5))
    ));
    corrupt_newest(&dir);
    let resumed = FleetMetrics::new();
    let report = run_fleet_resume(&spec, &resumed).expect("resume falls back");
    assert_eq!(report.to_json(), golden, "fallback resume diverged");
    assert_eq!(resumed.resumes.get(), 1);
    let epochs = spec.stream_epochs();
    assert_eq!(
        resumed.replayed_epochs.get(),
        epochs - 4,
        "fallback must replay from the previous generation's cursor"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn with_every_generation_corrupted_the_resume_falls_back_to_a_full_rerun() {
    let golden = golden_json(1);
    let dir = scratch_dir("allcorrupt");
    let spec = base_spec(2, 2).with_run_snapshot_every(1, &dir);
    let metrics = FleetMetrics::new();
    xlf_fleet::run_fleet_chaos(&spec, &metrics, KillPoint::Epoch(5))
        .expect_err("chaos run is killed");
    for entry in std::fs::read_dir(&dir)
        .expect("snapshot dir exists")
        .flatten()
    {
        let path = entry.path();
        let mut bytes = std::fs::read(&path).expect("read generation");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        std::fs::write(&path, bytes).expect("write corrupted generation");
    }
    let resumed = FleetMetrics::new();
    let report = run_fleet_resume(&spec, &resumed).expect("full re-run completes");
    assert_eq!(report.to_json(), golden, "full re-run diverged");
    assert_eq!(resumed.resumes.get(), 0, "nothing restorable: not a resume");
    assert_eq!(resumed.replayed_epochs.get(), spec.stream_epochs());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_directory_from_a_different_fleet_is_ignored() {
    let dir = scratch_dir("foreign");
    // Fill the directory with generations cut by a *different* fleet.
    let foreign = FleetSpec::new(0xF0_4E16, 8)
        .with_correlation_interval(60)
        .with_run_snapshot_every(1, &dir);
    run_fleet(&foreign, &FleetMetrics::new()).expect("foreign fleet runs");

    // Resuming our fleet against that directory must reject every
    // generation (SpecMismatch) and fall back to a full re-run whose
    // report matches the straight-through golden.
    let golden = golden_json(1);
    let spec = base_spec(2, 2).with_run_snapshot_every(1, &dir);
    let metrics = FleetMetrics::new();
    let report = run_fleet_resume(&spec, &metrics).expect("full re-run completes");
    assert_eq!(report.to_json(), golden, "foreign-dir re-run diverged");
    assert_eq!(metrics.resumes.get(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_panic_is_rebuilt_without_changing_the_report() {
    // Same spec, with and without an injected region-shard fault on one
    // home's consume: the torn region is rebuilt deterministically, so
    // the report stays byte-identical and conservation holds. The second
    // input hands its homes over in several messages: one worker sends
    // 100 thin homes in messages of 32, so home 40 is the ninth of the
    // second message, and the region tears mid-message while the rest
    // of that message still arrives.
    let multi_message = FleetSpec::new(0x5EC0_4E28, 100)
        .with_workers(1)
        .with_regions(2)
        .with_horizon(Duration::from_secs(20));
    for (spec, chaos_home, homes) in [(base_spec(2, 2), 5, 12), (multi_message, 40, 100)] {
        let baseline = run_fleet(&spec, &FleetMetrics::new()).expect("baseline runs");
        let metrics = FleetMetrics::new();
        let chaotic =
            run_fleet(&spec.with_shard_chaos(chaos_home), &metrics).expect("shard chaos survives");
        assert_eq!(metrics.shard_panics.get(), 1, "the shard fault must fire");
        assert!(chaotic.accounting_ok(homes), "{:?}", chaotic.totals);
        assert_eq!(
            chaotic.to_json(),
            baseline.to_json(),
            "region rebuild after a shard panic at home {chaos_home} changed the report"
        );
    }
}
