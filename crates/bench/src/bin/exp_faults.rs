//! Fault-injection sweep: how does the fleet's verdict quality hold up
//! as infrastructure faults and home crashes eat into completion rate,
//! and how much does the retry budget buy back?
//!
//! Grid: fault share {0, 10, 30}% × retry budget {0, 1, 3}. Each cell
//! runs the same stamped fleet (layout-invariant fault stamping: the
//! benign cell and the faulted cells share seeds/templates/attacks) and
//! records the outcome conservation, completion rate
//! (`(ok + degraded) / homes`), and verdict quality (flagged ∩ actively
//! attacked / actively attacked, over surviving rows). A final
//! tight-step-budget run demonstrates degraded-mode accounting.
//! Emits `BENCH_faults.json`.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_faults -- [--smoke] [--json BENCH_faults.json]
//! ```

use std::process::ExitCode;
use xlf_bench::harness::{best_of, fixed, quiet_panics, Args, Json, Row};
use xlf_bench::{active_attacked, obj};
use xlf_fleet::{
    run_fleet, FleetAttack, FleetFault, FleetMetrics, FleetReport, FleetSpec, HomeTemplate,
};

struct Config {
    homes: usize,
    workers: usize,
}

const CANONICAL: Config = Config {
    homes: 48,
    workers: 8,
};

const SMOKE: Config = Config {
    homes: 18,
    workers: 2,
};

impl Config {
    fn json(&self) -> Json {
        obj! { "homes" => self.homes, "workers" => self.workers }
    }

    fn spec(&self, fault_pct: u32, retry_budget: u32) -> FleetSpec {
        FleetSpec::new(0xFA17_2019, self.homes)
            .with_workers(self.workers)
            .with_templates(vec![
                HomeTemplate::apartment(),
                HomeTemplate::house(),
                HomeTemplate::retrofit(),
            ])
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::BotnetRecruit, 1),
                (FleetAttack::FirmwareTamper, 1),
            ])
            .with_faults(fault_mix(fault_pct))
            .with_retry_budget(retry_budget)
    }
}

/// The fault mix for a total fault share of `pct` percent, spread evenly
/// over all six non-benign fault kinds.
fn fault_mix(pct: u32) -> Vec<(FleetFault, u32)> {
    if pct == 0 {
        return vec![(FleetFault::None, 1)];
    }
    vec![
        (FleetFault::None, (100 - pct) * 6),
        (FleetFault::WanFlap, pct),
        (FleetFault::CloudOutage, pct),
        (FleetFault::WanDegrade, pct),
        (FleetFault::DeviceCrash, pct),
        (FleetFault::GatewaySkew, pct),
        (FleetFault::ChaosPanic, pct),
    ]
}

/// One cell of the sweep grid.
struct Cell {
    fault_pct: u32,
    retry_budget: u32,
    report: FleetReport,
    metrics: FleetMetrics,
    wall_s: f64,
}

impl Cell {
    /// `(ok + degraded) / homes`: the share of homes that produced a
    /// usable (possibly partial) report.
    fn completion_rate(&self, homes: usize) -> f64 {
        (self.report.totals.homes_ok + self.report.totals.homes_degraded) as f64 / homes as f64
    }

    /// Flagged ∩ actively-attacked over actively-attacked, counted on
    /// surviving (correlated) rows; 1.0 when no attacked home survived
    /// (nothing to miss).
    fn verdict_quality(&self) -> f64 {
        let attacked = active_attacked(&self.report);
        if attacked.is_empty() {
            return 1.0;
        }
        let caught = attacked
            .iter()
            .filter(|id| self.report.flagged.contains(id))
            .count();
        caught as f64 / attacked.len() as f64
    }
}

fn main() -> ExitCode {
    // Injected chaos panics are caught by the fleet supervisor and
    // become report rows; only their chatter is silenced.
    quiet_panics("chaos-panic");
    let args = Args::from_env();
    let cfg = args.pick(&CANONICAL, &SMOKE);

    let mut grid: Vec<Cell> = Vec::new();
    for fault_pct in [0u32, 10, 30] {
        for retry_budget in [0u32, 1, 3] {
            let metrics = FleetMetrics::new();
            let (report, wall_s) = best_of(1, || {
                run_fleet(&cfg.spec(fault_pct, retry_budget), &metrics)
                    .expect("fleet engine lost work")
            });
            grid.push(Cell {
                fault_pct,
                retry_budget,
                report,
                metrics,
                wall_s,
            });
        }
    }

    // Degraded-mode demonstration: a tight per-home step event budget
    // truncates most homes; they still land in the report (degraded, not
    // lost) and conservation holds.
    let demo_metrics = FleetMetrics::new();
    let demo_spec = cfg.spec(10, 1).with_step_event_budget(Some(1_000));
    let demo = run_fleet(&demo_spec, &demo_metrics).expect("fleet engine lost work");

    let benign = &grid[0];
    let rows = [
        Row::holds(
            "conservation",
            grid.iter().all(|c| c.report.accounting_ok(cfg.homes)) && demo.accounting_ok(cfg.homes),
        ),
        Row::new(
            "benign_completion_rate",
            benign.completion_rate(cfg.homes),
            "==",
            1.0,
        ),
        Row::new(
            "benign_panics_caught",
            benign.metrics.panics_caught.get(),
            "==",
            0u64,
        ),
        // Chaos homes fail deterministically (retries can't save a
        // deterministic panic); everything else completes.
        Row::holds(
            "only_chaos_homes_fail",
            grid.iter().all(|c| {
                c.report.totals.homes_run_failed
                    == c.metrics.faults_injected.get(FleetFault::ChaosPanic)
            }),
        ),
        // A chaos home panics identically on retry, so the supervisor
        // fails fast after one futile re-attempt: failed homes burn at
        // most 2 attempts however large the budget.
        Row::holds(
            "failed_homes_burn_at_most_two_attempts",
            grid.iter().all(|c| {
                c.report
                    .run_failed
                    .iter()
                    .all(|f| f.attempts == c.retry_budget.min(1) + 1)
            }),
        ),
        Row::holds(
            "every_failed_retry_is_futile",
            grid.iter()
                .filter(|c| c.retry_budget >= 1)
                .all(|c| c.metrics.retries_futile.get() == c.report.run_failed.len() as u64),
        ),
        // Infrastructure faults never cost verdict quality on survivors.
        Row::new(
            "min_verdict_quality",
            grid.iter()
                .map(Cell::verdict_quality)
                .fold(f64::INFINITY, f64::min),
            "==",
            1.0,
        ),
        Row::new("degraded_demo_homes", demo.totals.homes_degraded, ">", 0u64),
    ];
    let results = obj! {
        "grid" => grid.iter().map(|c| obj! {
            "fault_pct" => c.fault_pct,
            "retry_budget" => c.retry_budget,
            "homes_ok" => c.report.totals.homes_ok,
            "homes_degraded" => c.report.totals.homes_degraded,
            "homes_run_failed" => c.report.totals.homes_run_failed,
            "completion_rate" => fixed(c.completion_rate(cfg.homes), 6),
            "verdict_quality" => fixed(c.verdict_quality(), 6),
            "panics_caught" => c.metrics.panics_caught.get(),
            "retries" => c.metrics.retries.get(),
            "retries_futile" => c.metrics.retries_futile.get(),
            "wall_s" => fixed(c.wall_s, 3),
        }).collect::<Vec<_>>(),
        "degraded_demo" => obj! {
            "step_event_budget" => 1000u32,
            "homes_ok" => demo.totals.homes_ok,
            "homes_degraded" => demo.totals.homes_degraded,
            "homes_run_failed" => demo.totals.homes_run_failed,
            "deadline_truncations" => demo_metrics.deadline_truncations.get(),
        },
    };
    args.finish("faults", cfg.json(), results, &rows)
}
