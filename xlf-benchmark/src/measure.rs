//! One untraced fleet run (what a child process measures) and the
//! metrics derived from untraced and traced runs.

use crate::json::{self, Value};
use crate::traced::TracedRun;
use crate::workload::Workload;
use crate::{fnv64, host, median, Better, Metric};
use std::time::Instant;
use xlf_fleet::{build_home, run_fleet, FleetMetrics, FleetReport, FleetSpec};

/// A simulated statistic: a pure function of the spec, so it must
/// repeat exactly across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Workloads on which the metric is defined.
    pub workloads: &'static [Workload],
}

/// Every exact metric. These sit outside `BENCHMARK.json`, whose
/// metrics must be defined and non-zero on every workload.
pub const EXACT: [Exact; 4] = [
    Exact {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        workloads: &Workload::ALL,
    },
    Exact {
        name: "false_flags",
        unit: "count",
        better: Better::Lower,
        workloads: &Workload::ALL,
    },
    Exact {
        name: "detect_recall",
        unit: "share",
        better: Better::Higher,
        workloads: &[Workload::Batch, Workload::Streamed],
    },
    Exact {
        name: "mean_detect_s",
        unit: "sim-s",
        better: Better::Lower,
        workloads: &[Workload::Streamed],
    },
];

/// The unit of exact metric `name` (empty for an unknown name).
pub fn exact_unit(name: &str) -> &'static str {
    EXACT.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

/// What one fresh process measures around one `run_fleet` call.
#[derive(Debug, Clone, PartialEq)]
pub struct Untraced {
    /// Homes in the fleet.
    pub homes: u64,
    /// Time from `main` entry to the start of `run_fleet`: spec build,
    /// stamp, one warm-up `build_home` per template (s).
    pub setup_s: f64,
    /// Wall time of `run_fleet` (s).
    pub wall_s: f64,
    /// Process CPU time spent inside `run_fleet`, all threads (s).
    pub cpu_s: f64,
    /// Peak RSS of the process (MiB).
    pub peak_rss_mb: f64,
    /// FNV-1a 64 of the report JSON.
    pub report_fnv64: u64,
    /// Length of the report JSON.
    pub report_bytes: u64,
    /// Homes degraded, run-failed or build-failed.
    pub failed: u64,
    /// Conservation holds and every home with Core criticals is flagged.
    pub invariants_ok: bool,
    /// Worker threads the engine spawned.
    pub workers_effective: u64,
    /// Highest depth the bounded report channel reached.
    pub report_channel_high_water: u64,
    /// The exact metrics defined on this workload, in [`EXACT`] order.
    pub exact: Vec<(&'static str, f64)>,
}

/// Builds the fleet spec, stamps it and builds one home per template.
fn setup(w: Workload, seed: u64, homes: usize) -> FleetSpec {
    let spec = w.spec(seed, homes);
    let stamped = spec.stamp();
    for template in 0..spec.templates.len() {
        if let Some(hs) = stamped.iter().find(|h| h.template == template) {
            std::hint::black_box(build_home(&spec, hs).is_ok());
        }
    }
    spec
}

/// Sets up and runs workload `w` untraced in a process whose `main`
/// entered at `started`, returning the measurements and the report JSON.
pub fn run_untraced(
    w: Workload,
    seed: u64,
    homes: usize,
    started: Instant,
) -> Result<(Untraced, String), String> {
    let spec = setup(w, seed, homes);
    let setup_s = started.elapsed().as_secs_f64();
    let metrics = FleetMetrics::new();
    let cpu0 = host::cpu_seconds().ok_or("process CPU time unavailable")?;
    let t0 = Instant::now();
    let report = run_fleet(&spec, &metrics).map_err(|e| format!("run_fleet failed: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds().ok_or("process CPU time unavailable")? - cpu0;
    let report_json = report.to_json();
    let totals = &report.totals;
    let untraced = Untraced {
        homes: homes as u64,
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb: host::peak_rss_mb().ok_or("peak RSS unavailable")?,
        report_fnv64: fnv64(report_json.as_bytes()),
        report_bytes: report_json.len() as u64,
        failed: totals.homes_degraded + totals.homes_run_failed + totals.homes_build_failed,
        invariants_ok: report.accounting_ok(homes)
            && report
                .rows
                .iter()
                .all(|r| r.report.critical_alerts == 0 || r.flagged),
        workers_effective: metrics.workers_effective.get(),
        report_channel_high_water: metrics.report_channel_depth.high_water(),
        exact: exact_metrics(w, &spec, &report),
    };
    Ok((untraced, report_json))
}

/// The exact metrics of `w` from a finished run's report and the
/// stamped ground truth.
fn exact_metrics(w: Workload, spec: &FleetSpec, report: &FleetReport) -> Vec<(&'static str, f64)> {
    let stamped = spec.stamp();
    let is_flagged = |id: u64| report.flagged.binary_search(&id).is_ok();
    let attacked: Vec<u64> = stamped
        .iter()
        .filter(|h| h.attack.is_active())
        .map(|h| h.id)
        .collect();
    let horizon_s = spec.horizon.as_micros() as f64 / 1e6;
    let totals = &report.totals;
    EXACT
        .iter()
        .filter(|m| m.workloads.contains(&w))
        .map(|m| {
            let value = match m.name {
                "failed_share" => {
                    (totals.homes_degraded + totals.homes_run_failed + totals.homes_build_failed)
                        as f64
                        / stamped.len().max(1) as f64
                }
                "false_flags" => report
                    .flagged
                    .iter()
                    .filter(|&&id| {
                        stamped
                            .get(id as usize)
                            .is_some_and(|h| h.attack == xlf_fleet::FleetAttack::None)
                    })
                    .count() as f64,
                "detect_recall" => {
                    attacked.iter().filter(|&&id| is_flagged(id)).count() as f64
                        / attacked.len().max(1) as f64
                }
                "mean_detect_s" => {
                    let (first, interval) = match (&report.epochs, spec.correlation_interval) {
                        (Some(e), Some(i)) => (&e.first_detection, i as f64),
                        _ => return (m.name, f64::NAN),
                    };
                    // `first_detection` is sorted by home id.
                    let detect_s = |id: u64| match first.binary_search_by_key(&id, |&(h, _)| h) {
                        Ok(i) => ((first[i].1 + 1) as f64 * interval).min(horizon_s),
                        Err(_) => horizon_s,
                    };
                    attacked.iter().map(|&id| detect_s(id)).sum::<f64>()
                        / attacked.len().max(1) as f64
                }
                other => unreachable!("exact metric {other} has no definition"),
            };
            (m.name, value)
        })
        .collect()
}

impl Untraced {
    /// The host (end-to-end) metrics of this run.
    pub fn host_metrics(&self) -> [Metric; 4] {
        [
            Metric::new("homes_per_s", self.homes as f64 / self.wall_s, "homes/s"),
            Metric::new(
                "cpu_ms_per_home",
                self.cpu_s * 1e3 / self.homes as f64,
                "ms",
            ),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// One JSON line: the child-process protocol.
    pub fn to_json(&self) -> String {
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("{}:{}", json::quote(k), json::num(*v)))
            .collect();
        format!(
            "{{\"homes\":{},\"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\
             \"report_fnv64\":\"{:016x}\",\"report_bytes\":{},\"failed\":{},\
             \"invariants_ok\":{},\"workers_effective\":{},\"report_channel_high_water\":{},\
             \"exact\":{{{}}}}}",
            self.homes,
            json::num(self.setup_s),
            json::num(self.wall_s),
            json::num(self.cpu_s),
            json::num(self.peak_rss_mb),
            self.report_fnv64,
            self.report_bytes,
            self.failed,
            self.invariants_ok,
            self.workers_effective,
            self.report_channel_high_water,
            exact.join(","),
        )
    }

    /// Parses [`Untraced::to_json`] output.
    pub fn from_json(text: &str) -> Result<Untraced, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("child result lacks {k}"))
        };
        let fnv = v
            .get("report_fnv64")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("child result lacks report_fnv64")?;
        let exact_obj = v.get("exact").ok_or("child result lacks exact")?;
        let exact = EXACT
            .iter()
            .filter_map(|m| {
                exact_obj
                    .get(m.name)
                    .map(|x| (m.name, x.as_f64().unwrap_or(f64::NAN)))
            })
            .collect();
        Ok(Untraced {
            homes: num("homes")? as u64,
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            report_fnv64: fnv,
            report_bytes: num("report_bytes")? as u64,
            failed: num("failed")? as u64,
            invariants_ok: v.get("invariants_ok") == Some(&Value::Bool(true)),
            workers_effective: num("workers_effective")? as u64,
            report_channel_high_water: num("report_channel_high_water")? as u64,
            exact,
        })
    }
}

/// The per-layer metrics of one traced run. `traced_cpu_s` is the CPU
/// time the traced run took; `untraced` is an untraced run of the same
/// spec, the base for `engine.*` and `trace.overhead`.
pub fn layer_metrics(run: &TracedRun, traced_cpu_s: f64, untraced: &Untraced) -> Vec<Metric> {
    let total = |name: &str| -> u64 {
        run.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns())
            .sum()
    };
    let mean_us = |name: &str| -> f64 {
        let n = run.spans.iter().filter(|s| s.name == name).count();
        if n == 0 {
            0.0
        } else {
            total(name) as f64 / n as f64 / 1e3
        }
    };
    let c = &run.counts;
    let homes = c.homes.max(1) as f64;

    // Step time per home, slowest first.
    let mut per_home = std::collections::BTreeMap::<u64, u64>::new();
    for s in run.spans.iter().filter(|s| s.name == "run_until_capped") {
        *per_home.entry(s.home.unwrap_or(0)).or_default() += s.ns();
    }
    let mut step_ms: Vec<f64> = per_home.values().map(|&ns| ns as f64 / 1e6).collect();
    step_ms.sort_by(|a, b| b.total_cmp(a));
    // The tail is the highest rank with ten samples at or beyond it:
    // the 10th-slowest home (the slowest, for fleets under ten).
    let tail = step_ms.get(9).or(step_ms.last()).copied().unwrap_or(0.0);
    let step_ns = total("run_until_capped");
    let aggregate_ns = total("global.aggregate");
    let top_level: u64 = run
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ns())
        .sum();
    let per_window = if c.windows == 0 {
        0.0
    } else {
        aggregate_ns as f64 / c.windows as f64
    };

    vec![
        Metric::new("home.step_s", step_ns as f64 / 1e9, "s"),
        Metric::new("home.step_ms_p50", median(&step_ms), "ms"),
        Metric::new("home.step_ms_tail", tail, "ms"),
        Metric::new("home.n", c.homes as f64, "count"),
        Metric::new("home.events", c.events as f64, "count"),
        Metric::new(
            "home.ns_per_event",
            step_ns as f64 / c.events.max(1) as f64,
            "ns",
        ),
        Metric::new("home.packets", c.packets as f64, "count"),
        Metric::new("home.wire_bytes", c.wire_bytes as f64, "bytes"),
        Metric::new(
            "core.evidence.device",
            c.evidence[0] as f64 / homes,
            "count/home",
        ),
        Metric::new(
            "core.evidence.network",
            c.evidence[1] as f64 / homes,
            "count/home",
        ),
        Metric::new(
            "core.evidence.service",
            c.evidence[2] as f64 / homes,
            "count/home",
        ),
        Metric::new(
            "core.evidence_shed",
            c.evidence_shed as f64 / homes,
            "count/home",
        ),
        Metric::new(
            "gateway.forwarded",
            c.forwarded as f64 / homes,
            "count/home",
        ),
        Metric::new("gateway.dropped", c.dropped as f64 / homes, "count/home"),
        Metric::new("core.drain_ms", total("drain_pending") as f64 / 1e6, "ms"),
        Metric::new("home.finish_us", mean_us("finish"), "us"),
        Metric::new("home.probe_us", mean_us("probe"), "us"),
        Metric::new("stream.windows", c.windows as f64, "count"),
        Metric::new("home.build_us", mean_us("build_home"), "us"),
        Metric::new(
            "region.consume_s",
            total("region.consume") as f64 / 1e9,
            "s",
        ),
        Metric::new("region.candidates", c.candidates as f64, "count"),
        Metric::new("global.aggregate_s", aggregate_ns as f64 / 1e9, "s"),
        Metric::new("global.ns_per_window", per_window, "ns"),
        Metric::new("spec.stamp_ms", total("spec.stamp") as f64 / 1e6, "ms"),
        Metric::new(
            "onboard.compute_ms",
            total("onboard.compute") as f64 / 1e6,
            "ms",
        ),
        Metric::new("onboard.retransmissions", c.retransmissions as f64, "count"),
        Metric::new(
            "observer.score_ms",
            total("observer.score") as f64 / 1e6,
            "ms",
        ),
        Metric::new(
            "report.encode_ms",
            total("report.encode") as f64 / 1e6,
            "ms",
        ),
        Metric::new("report.bytes", run.report_json.len() as f64, "bytes"),
        Metric::new(
            "engine.core_util",
            untraced.cpu_s / (untraced.wall_s * untraced.workers_effective.max(1) as f64),
            "ratio",
        ),
        Metric::new(
            "engine.report_channel_high_water",
            untraced.report_channel_high_water as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead",
            traced_cpu_s / untraced.cpu_s - 1.0,
            "ratio",
        ),
        Metric::new(
            "trace.coverage",
            top_level as f64 / run.wall_ns.max(1) as f64,
            "ratio",
        ),
    ]
}
