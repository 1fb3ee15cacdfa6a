//! Recovery experiment: what does run-level durability cost, and what
//! does it buy back after a kill?
//!
//! Sweeps the snapshot cadence over {off, every-5, every-1} on the same
//! stamped fleet (faulted homes + a tampered gated campaign + a config
//! audit, so the snapshot carries every kind of aggregation-tier state),
//! then chaos-kills the snapshotting runs at representative points —
//! the homes→stream boundary, an early epoch, a mid-campaign epoch
//! between waves, and the final epoch — and resumes each from the
//! on-disk `XLFR` generations. Records recovery wall-time, replayed
//! epochs, and snapshot footprint per kill point and cadence in
//! `BENCH_recovery.json`.
//!
//! Acceptance: every resumed report is **byte-identical** to the
//! straight-through run, and the steady-state overhead of the every-5
//! cadence (the median over rounds of its wall time over the same
//! round's snapshots-off run) is at most 3%. The smoke run is the
//! canonical run: a shorter one cannot resolve 3%.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_recovery -- [--smoke] [--json BENCH_recovery.json]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xlf_bench::harness::{best_of, best_of_each, fixed, quiet_panics, Args, Json, Row};
use xlf_bench::obj;
use xlf_device::firmware::Version;
use xlf_fleet::{
    run_fleet, run_fleet_chaos, run_fleet_resume, scratch_dir, CampaignSpec, ConfigAuditSpec,
    FleetAttack, FleetError, FleetFault, FleetMetrics, FleetReport, FleetSpec, KillPoint,
};
use xlf_simnet::Duration;

struct Config {
    homes: usize,
    workers: usize,
    horizon_s: u64,
    /// Timing rounds for the straight-through runs. A run takes tens of
    /// milliseconds, where a shared machine's noise is several percent
    /// per run, so the overhead is a median over many paired rounds.
    repeats: usize,
}

/// The canonical run, also the smoke run. One worker: the snapshots are
/// written by the serial aggregation tier, and a worker pool wider than
/// the machine adds scheduler noise that swamps a 3% budget.
const CONFIG: Config = Config {
    homes: 32,
    workers: 1,
    horizon_s: 420,
    repeats: 100,
};

/// The every-5 cadence's wall-time budget over snapshots off, percent.
const OVERHEAD_BUDGET_PCT: f64 = 3.0;

const INTERVAL_S: u64 = 60;

impl Config {
    fn json(&self) -> Json {
        obj! {
            "homes" => self.homes,
            "workers" => self.workers,
            "horizon_s" => self.horizon_s,
            "interval_s" => INTERVAL_S,
            "repeats" => self.repeats,
        }
    }

    /// The stamped fleet every cadence shares: faulted homes (failed
    /// rows in the slots), a tampered gated campaign (engines + command
    /// bus mutate mid-stream), and a config audit — the full state
    /// menagerie the snapshot must carry.
    fn spec(&self, every: Option<u64>, dir: &Path) -> FleetSpec {
        let spec = FleetSpec::new(0x4EC0_2026, self.homes)
            .with_workers(self.workers)
            .with_horizon(Duration::from_secs(self.horizon_s))
            .with_correlation_interval(INTERVAL_S)
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::BotnetRecruit, 1),
            ])
            .with_faults(vec![(FleetFault::None, 7), (FleetFault::ChaosPanic, 1)])
            .with_retry_budget(1)
            .with_campaign(
                CampaignSpec::new("cam-fw-2.0", "cam", Version(2, 0, 0), b"cam fw v2".to_vec())
                    .with_schedule(2, 2)
                    .with_waves(vec![25, 100])
                    .with_tampered(),
            )
            .with_config_audit(ConfigAuditSpec::new(3).with_drift(25, 4));
        match every {
            Some(e) => spec.with_run_snapshot_every(e, dir),
            None => spec,
        }
    }

    /// Straight-through runs at each cadence, `repeats` rounds, the
    /// order rotating each round so no cadence always runs first.
    /// Returns each cadence's report bytes and its wall time per round.
    fn straight(&self, cadences: &[Option<u64>]) -> Vec<(String, Vec<f64>)> {
        let n = cadences.len();
        let mut out: Vec<(Option<FleetReport>, Vec<f64>)> =
            (0..n).map(|_| (None, Vec::new())).collect();
        for round in 0..self.repeats {
            let timed = best_of_each(1, n, |k| {
                let dir = ScratchDir(scratch_dir("bench-straight"));
                let spec = self.spec(cadences[(k + round) % n], &dir.0);
                let report =
                    run_fleet(&spec, &FleetMetrics::new()).expect("fleet engine lost work");
                (report, dir)
            });
            for (k, ((report, _), secs)) in timed.into_iter().enumerate() {
                let (last, walls) = &mut out[(k + round) % n];
                *last = Some(report);
                walls.push(secs);
            }
        }
        out.into_iter()
            .map(|(report, walls)| (report.expect("at least one round").to_json(), walls))
            .collect()
    }
}

/// Percent by which `walls` exceed the same round's `baseline`: the
/// median of the per-round ratios, so a slow phase of a shared machine
/// hits both sides of each pair and an outlier round moves nothing.
fn overhead_pct(walls: &[f64], baseline: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = walls.iter().zip(baseline).map(|(w, b)| w / b).collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

fn min_wall(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A snapshot directory, removed when dropped (outside the timed run).
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One kill-and-resume measurement.
struct KillRow {
    every: u64,
    kill: KillPoint,
    replayed_epochs: u64,
    snapshots_written: u64,
    snapshot_bytes: u64,
    resume_wall_s: f64,
    identical: bool,
}

fn kill_and_resume(cfg: &Config, every: u64, kill: KillPoint, golden: &str) -> KillRow {
    let dir = scratch_dir("bench-kill");
    let spec = cfg.spec(Some(every), &dir);
    let killed = FleetMetrics::new();
    match run_fleet_chaos(&spec, &killed, kill) {
        Err(FleetError::ChaosKilled(at)) if at == kill => {}
        other => panic!("kill {kill} did not fire: {other:?}"),
    }
    let resumed = FleetMetrics::new();
    let (report, resume_wall_s) = best_of(1, || {
        run_fleet_resume(&spec, &resumed).expect("resume completes")
    });
    let _ = std::fs::remove_dir_all(&dir);
    KillRow {
        every,
        kill,
        replayed_epochs: resumed.replayed_epochs.get(),
        snapshots_written: killed.snapshots_written.get(),
        snapshot_bytes: killed.snapshot_bytes.get(),
        resume_wall_s,
        identical: report.to_json() == golden,
    }
}

fn main() -> ExitCode {
    // Home-level chaos panics and the chaos kills themselves are
    // injected; only their chatter is silenced.
    quiet_panics("chaos-panic");
    let args = Args::from_env();
    let cfg = &CONFIG;
    let epochs = cfg.spec(None, Path::new("")).stream_epochs();
    assert!(epochs >= 5, "horizon too short for the kill-point sweep");

    // Straight-through walls per cadence; the snapshotting goldens are
    // also the byte-identity references for the kill sweep.
    let [(_, walls_off), (golden_e5, walls_e5), (golden_e1, walls_e1)] =
        <[_; 3]>::try_from(cfg.straight(&[None, Some(5), Some(1)])).expect("three cadences");
    let overhead_e5 = overhead_pct(&walls_e5, &walls_off);

    // Kill-point sweep: boundary, early, mid-campaign (the tampered
    // campaign launches at epoch 2 and is gated at epoch 4 — epoch 3 is
    // between waves), and the final epoch.
    let kills = [
        KillPoint::AfterHomes,
        KillPoint::Epoch(1),
        KillPoint::Epoch(3),
        KillPoint::Epoch(epochs - 1),
    ];
    let mut rows: Vec<KillRow> = Vec::new();
    for (every, golden) in [(1u64, &golden_e1), (5u64, &golden_e5)] {
        for kill in kills {
            rows.push(kill_and_resume(cfg, every, kill, golden));
        }
    }

    // Every-1 replays exactly the post-kill epochs.
    let every1_replays_post_kill_epochs = rows.iter().filter(|r| r.every == 1).all(|r| {
        r.replayed_epochs
            == match r.kill {
                KillPoint::AfterHomes => epochs,
                KillPoint::Epoch(e) => epochs - e,
            }
    });
    let acceptance = [
        Row::holds("byte_identical_resume", rows.iter().all(|r| r.identical)),
        Row::holds(
            "every1_replays_post_kill_epochs",
            every1_replays_post_kill_epochs,
        ),
        Row::new(
            "overhead_pct_at_every5",
            overhead_e5,
            "<=",
            OVERHEAD_BUDGET_PCT,
        ),
    ];
    let results = obj! {
        "epochs" => epochs,
        "overhead" => obj! {
            "baseline_wall_s" => fixed(min_wall(&walls_off), 4),
            "every5_wall_s" => fixed(min_wall(&walls_e5), 4),
            "every1_wall_s" => fixed(min_wall(&walls_e1), 4),
            "every5_pct" => fixed(overhead_e5, 2),
            "every1_pct" => fixed(overhead_pct(&walls_e1, &walls_off), 2),
        },
        "kills" => rows.iter().map(|r| obj! {
            "every" => r.every,
            "kill" => r.kill.to_string(),
            "replayed_epochs" => r.replayed_epochs,
            "snapshots_written" => r.snapshots_written,
            "snapshot_bytes" => r.snapshot_bytes,
            "resume_wall_s" => fixed(r.resume_wall_s, 3),
            "byte_identical" => r.identical,
        }).collect::<Vec<_>>(),
    };
    args.finish("recovery", cfg.json(), results, &acceptance)
}
