//! Streamed-correlation experiment: how much earlier does the fleet
//! tier detect injected deviants when the cross-home pass re-runs
//! mid-simulation instead of once at the horizon?
//!
//! Sweeps the correlation interval over {batch, 60 s, 15 s} on the same
//! stamped fleet, checks the final verdicts are byte-stable across the
//! sweep (streaming is pure observation), measures per-home detection
//! latency in simulated seconds, verifies checkpoint/resume cycling is
//! invisible in the output bytes, and records detection-latency and
//! alert-dedup columns in `BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_stream -- [--smoke] [--json BENCH_stream.json]
//! ```

use std::process::ExitCode;
use xlf_bench::harness::{best_of, fixed, Args, Json, Row};
use xlf_bench::{active_attacked, obj};
use xlf_fleet::{run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, HomeTemplate};
use xlf_simnet::Duration;

struct Config {
    homes: usize,
    workers: usize,
    horizon_s: u64,
}

const CANONICAL: Config = Config {
    homes: 48,
    workers: 8,
    horizon_s: 420,
};

const SMOKE: Config = Config {
    homes: 24,
    workers: 2,
    horizon_s: 420,
};

impl Config {
    fn json(&self) -> Json {
        obj! {
            "homes" => self.homes,
            "workers" => self.workers,
            "horizon_s" => self.horizon_s,
        }
    }

    fn spec(&self, interval_s: Option<u64>) -> FleetSpec {
        let spec = FleetSpec::new(0x57AE_2019, self.homes)
            .with_workers(self.workers)
            .with_horizon(Duration::from_secs(self.horizon_s))
            .with_templates(vec![
                HomeTemplate::apartment(),
                HomeTemplate::house(),
                HomeTemplate::retrofit(),
            ])
            .with_attacks(vec![
                (FleetAttack::None, 12),
                (FleetAttack::BotnetRecruit, 1),
                (FleetAttack::FirmwareTamper, 1),
                (FleetAttack::Replay, 1),
                (FleetAttack::DnsPoison, 1),
            ]);
        match interval_s {
            Some(s) => spec.with_correlation_interval(s),
            None => spec,
        }
    }
}

/// One row of the interval sweep.
struct SweepPoint {
    interval_s: Option<u64>,
    report: FleetReport,
    wall_s: f64,
}

impl SweepPoint {
    /// First-detection sim-time for `home`: the end of its detection
    /// epoch for streamed runs, the horizon for batch.
    fn detection_latency_s(&self, home: u64, horizon_s: u64) -> u64 {
        match (&self.interval_s, &self.report.epochs) {
            (Some(interval), Some(epochs)) => epochs
                .first_detection
                .iter()
                .find(|(h, _)| *h == home)
                .map(|(_, epoch)| ((epoch + 1) * interval).min(horizon_s))
                .unwrap_or(horizon_s),
            _ => horizon_s,
        }
    }

    fn mean_latency_s(&self, homes: &[u64], horizon_s: u64) -> f64 {
        if homes.is_empty() {
            return horizon_s as f64;
        }
        homes
            .iter()
            .map(|h| self.detection_latency_s(*h, horizon_s) as f64)
            .sum::<f64>()
            / homes.len() as f64
    }

    fn new_alerts(&self) -> u64 {
        self.report
            .epochs
            .as_ref()
            .map_or(0, |e| e.per_epoch.iter().map(|r| r.alerts).sum())
    }

    fn deduped(&self) -> u64 {
        self.report
            .epochs
            .as_ref()
            .map_or(0, |e| e.per_epoch.iter().map(|r| r.deduped).sum())
    }
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let cfg = args.pick(&CANONICAL, &SMOKE);

    let sweep: Vec<SweepPoint> = [None, Some(60), Some(15)]
        .into_iter()
        .map(|interval_s| {
            let (report, wall_s) = best_of(1, || {
                run_fleet(&cfg.spec(interval_s), &FleetMetrics::new())
                    .expect("fleet engine lost work")
            });
            SweepPoint {
                interval_s,
                report,
                wall_s,
            }
        })
        .collect();

    let batch = &sweep[0];
    let attacked = active_attacked(&batch.report);

    // Streaming is pure observation: final rows/flags/totals must be
    // identical to batch at every interval.
    let verdicts_match_batch = sweep[1..].iter().all(|p| {
        p.report.rows == batch.report.rows
            && p.report.flagged == batch.report.flagged
            && p.report.totals == batch.report.totals
    });

    // Checkpoint/resume cycling on the finest interval is invisible.
    let finest = sweep.last().expect("sweep is non-empty");
    let cycled = run_fleet(
        &cfg.spec(finest.interval_s).with_stream_checkpoint_every(1),
        &FleetMetrics::new(),
    )
    .expect("fleet engine lost work");
    let checkpoint_stable = cycled.to_json() == finest.report.to_json();

    // The acceptance bar: at the finest interval every injected deviant
    // is detected strictly before the horizon (i.e. strictly earlier
    // than the batch pass can possibly report it).
    let finest_max_detect_s = attacked
        .iter()
        .map(|id| finest.detection_latency_s(*id, cfg.horizon_s))
        .max()
        .unwrap_or(0);
    let rows = [
        Row::new("attacked_homes", attacked.len(), ">", 0u64),
        Row::holds("verdicts_match_batch", verdicts_match_batch),
        Row::holds("checkpoint_stable", checkpoint_stable),
        Row::new(
            "max_detect_s_at_finest_interval",
            finest_max_detect_s,
            "<",
            cfg.horizon_s,
        ),
    ];
    let results = obj! {
        "attacked_homes" => attacked.len(),
        "interval_sweep" => sweep.iter().map(|p| obj! {
            "interval_s" => p.interval_s,
            "epochs" => p.report.epochs.as_ref().map_or(0, |e| e.count),
            "windows_ingested" => p.report.epochs.as_ref().map_or(0, |e| e.windows_ingested),
            "windows_shed" => p.report.epochs.as_ref().map_or(0, |e| e.windows_shed),
            "mean_detect_s" => fixed(p.mean_latency_s(&attacked, cfg.horizon_s), 1),
            "new_alerts" => p.new_alerts(),
            "deduped" => p.deduped(),
            "flagged" => p.report.flagged.len(),
            "wall_s" => fixed(p.wall_s, 3),
            "detection_latency" => attacked.iter().map(|&h| obj! {
                "home" => h,
                "detect_s" => p.detection_latency_s(h, cfg.horizon_s),
            }).collect::<Vec<_>>(),
        }).collect::<Vec<_>>(),
    };
    args.finish("stream", cfg.json(), results, &rows)
}
