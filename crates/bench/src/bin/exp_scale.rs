//! E-SCALE: the hierarchical region→global aggregation at fleet scale.
//!
//! Runs two fleet tiers (`homes / 10` and `homes`) under
//! candidates-only row retention and measures peak RSS per tier, proving
//! the memory contract of the two-tier topology: peak memory grows
//! **sublinearly** in fleet size because the region tier forwards a
//! bounded candidate set instead of retaining every home's outcome. The
//! large tier additionally runs with 1, 2, and 8 region-aggregator
//! instances and checks the three reports are **byte-identical** — the
//! shard count is an execution knob, not an input to the science.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_scale -- [--smoke] [--json BENCH_scale.json]
//! ```

use std::process::ExitCode;
use xlf_bench::harness::{best_of, fixed, Args, Json, Row};
use xlf_bench::{active_attacked, obj};
use xlf_fleet::{
    run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, HomeTemplate, RowPolicy,
};
use xlf_simnet::Duration;

struct Config {
    /// Large-tier fleet size; the small tier is a tenth of it.
    homes: usize,
    workers: usize,
    horizon_s: u64,
    /// Ceiling on any run's peak RSS.
    max_rss_mb: u64,
}

const CANONICAL: Config = Config {
    homes: 100_000,
    workers: 8,
    horizon_s: 240,
    max_rss_mb: 2048,
};

const SMOKE: Config = Config {
    homes: 10_000,
    workers: 4,
    horizon_s: 240,
    max_rss_mb: 512,
};

const _: () = assert!(CANONICAL.homes >= 100 && SMOKE.homes >= 100);

impl Config {
    fn json(&self) -> Json {
        obj! {
            "homes_small" => self.homes / 10,
            "homes_large" => self.homes,
            "workers" => self.workers,
            "horizon_s" => self.horizon_s,
            "row_policy" => "candidates",
            "max_rss_mb" => self.max_rss_mb,
        }
    }

    /// A mostly-benign fleet (~1.6% active attacks) under candidates-only
    /// retention — the configuration the hierarchical tier exists for.
    fn spec(&self, homes: usize, regions: usize) -> FleetSpec {
        FleetSpec::new(0xF1EE_5CA1, homes)
            .with_workers(self.workers)
            .with_regions(regions)
            .with_horizon(Duration::from_secs(self.horizon_s))
            .with_templates(vec![
                HomeTemplate::apartment(),
                HomeTemplate::house(),
                HomeTemplate::retrofit(),
            ])
            .with_attacks(vec![
                (FleetAttack::None, 120),
                (FleetAttack::BotnetRecruit, 1),
                (FleetAttack::FirmwareTamper, 1),
            ])
            .with_row_policy(RowPolicy::CandidatesOnly)
    }
}

/// Peak RSS (VmHWM) of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

struct TierRun {
    homes: usize,
    regions: usize,
    report: FleetReport,
    metrics: FleetMetrics,
    wall_s: f64,
    peak_rss_mb: f64,
}

fn tier_run(cfg: &Config, homes: usize, regions: usize) -> TierRun {
    // Resets the kernel's peak-RSS watermark so each run's peak is its
    // own. Where the reset is unsupported the watermark only grows, so
    // later runs read high and the sublinearity row stays conservative.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let metrics = FleetMetrics::new();
    let (report, wall_s) = best_of(1, || {
        run_fleet(&cfg.spec(homes, regions), &metrics).expect("fleet engine lost work")
    });
    TierRun {
        homes,
        regions,
        report,
        metrics,
        wall_s,
        peak_rss_mb: peak_rss_mb(),
    }
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let cfg = args.pick(&CANONICAL, &SMOKE);
    let small_homes = cfg.homes / 10;

    // Small tier: one run (8 shards), the memory baseline. Large tier:
    // three runs across region counts; byte-identity is the hierarchical
    // contract, and the 8-shard run is the memory probe.
    let runs = [
        tier_run(cfg, small_homes, 8),
        tier_run(cfg, cfg.homes, 1),
        tier_run(cfg, cfg.homes, 2),
        tier_run(cfg, cfg.homes, 8),
    ];
    let [small, large_r1, large_r2, large] = &runs;
    let json_r8 = large.report.to_json();
    let byte_identical_regions =
        large_r1.report.to_json() == json_r8 && large_r2.report.to_json() == json_r8;

    // Sublinearity: the large tier is 10× the homes; its peak RSS must
    // come in well under 10× the small tier's (the candidate set, not
    // the fleet, is what the global pass retains). The bar is half of
    // linear scaling.
    let homes_ratio = cfg.homes as f64 / small_homes as f64;
    let mem_ratio = large.peak_rss_mb / small.peak_rss_mb;
    let missed: usize = runs
        .iter()
        .map(|r| {
            active_attacked(&r.report)
                .iter()
                .filter(|id| !r.report.flagged.contains(id))
                .count()
        })
        .sum();
    // Candidates-only retention really is bounded: far fewer rows than
    // homes at 10k homes and up.
    let max_row_share = runs
        .iter()
        .filter(|r| r.homes >= 10_000)
        .map(|r| r.report.rows.len() as f64 / r.homes as f64)
        .fold(0.0, f64::max);
    let rows = [
        Row::holds("byte_identical_regions", byte_identical_regions),
        Row::new(
            "min_attacked_per_tier",
            runs.iter()
                .map(|r| active_attacked(&r.report).len())
                .min()
                .unwrap_or(0),
            ">",
            0u64,
        ),
        Row::new("attacked_homes_missed", missed, "==", 0u64),
        Row::holds(
            "conservation",
            runs.iter().all(|r| r.report.accounting_ok(r.homes)),
        ),
        Row::new("max_row_share_at_10k_plus", max_row_share, "<", 0.25),
        Row::new(
            "max_peak_rss_mb",
            runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
            "<=",
            cfg.max_rss_mb,
        ),
        Row::new("mem_ratio", mem_ratio, "<", homes_ratio * 0.5),
    ];
    let results = obj! {
        "tiers" => runs.iter().map(|r| obj! {
            "homes" => r.homes,
            "regions" => r.regions,
            "wall_s" => fixed(r.wall_s, 3),
            "homes_per_sec" => fixed(r.homes as f64 / r.wall_s, 1),
            "peak_rss_mb" => fixed(r.peak_rss_mb, 1),
            "rows" => r.report.rows.len(),
            "candidates" => r.metrics.region_candidates.get(),
            "flagged" => r.report.flagged.len(),
            "attacked" => active_attacked(&r.report).len(),
            "evidence" => r.report.totals.evidence,
            "communities" => r.report.communities,
        }).collect::<Vec<_>>(),
        "metrics" => Json::parse(&large.metrics.to_json()).expect("fleet metrics render valid JSON"),
    };
    args.finish("scale", cfg.json(), results, &rows)
}
