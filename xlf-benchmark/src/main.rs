//! `xlf-benchmark`: the fleet benchmark's command line.
//!
//! ```text
//! xlf-benchmark --workload NAME [--seed N] [--seconds S | --repeats N] [--trace 0|1]
//!               [--smoke] [--results PATH] [--spans PATH]
//! xlf-benchmark --workload all [--seed N] [--repeats N] [--smoke] [--results PATH]
//! xlf-benchmark --compare BASE.json NEW.json
//! ```
//!
//! `--trace 0` runs the workload untraced in fresh child processes (this
//! binary re-executed with `--child`) for `--seconds` seconds (at least
//! three), or exactly `--repeats` times, and reports the end-to-end
//! metrics as medians. `--trace 1` runs one untraced child and one
//! traced run in this process, checks their reports are byte-identical,
//! and reports the per-layer metrics. `--workload all` does both for
//! every workload. The last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}` holding the metrics the
//! repository's `BENCHMARK.json` lists for the mode.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use xlf_benchmark::compare::{self, Verdict};
use xlf_benchmark::json::{self, Value};
use xlf_benchmark::measure::{self, Untraced};
use xlf_benchmark::traced::{self, Span};
use xlf_benchmark::workload::Workload;
use xlf_benchmark::{host, quartiles, Metric};

/// Fewest untraced repeats a timed run reports a median over.
const MIN_REPEATS: usize = 3;

/// The repository's `BENCHMARK.json`: metric names, units, directions
/// and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    repeats: Option<usize>,
    trace: bool,
    smoke: bool,
    results: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
    child: bool,
    emit_report: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--repeats" => {
                let n: usize = value()?.parse().map_err(|_| "--repeats: integer")?;
                if n == 0 {
                    return Err("--repeats must be at least 1".into());
                }
                args.repeats = Some(n);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--results" => args.results = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--compare" => {
                let base = value()?;
                args.compare = Some((base, value()?));
            }
            "--child" => args.child = true,
            "--emit-report" => args.emit_report = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if args.child {
            child(&args, started).map(|()| ExitCode::SUCCESS)
        } else if let Some((base, new)) = &args.compare {
            compare_files(base, new)
        } else {
            run(&args)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("xlf-benchmark: {e}");
        ExitCode::from(2)
    })
}

fn workload_arg(args: &Args) -> Result<Option<Workload>, String> {
    match args.workload.as_deref() {
        None => Err("--workload is required (a workload name or all)".into()),
        Some("all") => Ok(None),
        Some(name) => Workload::parse(name)
            .map(Some)
            .ok_or(format!("unknown workload {name}")),
    }
}

fn homes_for(args: &Args, w: Workload) -> usize {
    if args.smoke {
        w.smoke_homes()
    } else {
        w.homes()
    }
}

/// `--child`: one untraced run in this fresh process, whose `main`
/// entered at `started`.
fn child(args: &Args, started: Instant) -> Result<(), String> {
    let w = workload_arg(args)?.ok_or("--child needs one workload")?;
    let (untraced, report) = measure::run_untraced(w, args.seed, homes_for(args, w), started)?;
    if args.emit_report {
        println!("{report}");
    }
    println!("{}", untraced.to_json());
    Ok(())
}

/// Re-executes this binary for one untraced run; returns its
/// measurements and, with `emit_report`, its report JSON.
fn spawn_child(
    args: &Args,
    w: Workload,
    emit_report: bool,
) -> Result<(Untraced, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if emit_report {
        cmd.arg("--emit-report");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run of {} failed: {}", w.name(), out.status));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|_| "child output is not UTF-8")?;
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let result = Untraced::from_json(lines.next_back().ok_or("child printed nothing")?)?;
    let report = if emit_report {
        Some(
            lines
                .next_back()
                .ok_or("child printed no report")?
                .to_string(),
        )
    } else {
        None
    };
    Ok((result, report))
}

/// The traced half of a workload's measurement.
struct Traced {
    /// The untraced run whose report the traced one must reproduce.
    untraced: Untraced,
    identical: bool,
    metrics: Vec<Metric>,
    spans: Vec<Span>,
}

/// Everything measured on one workload.
struct WorkloadRun {
    w: Workload,
    homes: usize,
    repeats: Vec<Untraced>,
    traced: Option<Traced>,
}

impl WorkloadRun {
    /// Every untraced run: the repeats, then the traced run's twin.
    fn untraced(&self) -> impl Iterator<Item = &Untraced> {
        self.repeats
            .iter()
            .chain(self.traced.as_ref().map(|t| &t.untraced))
    }

    fn attempted(&self) -> u64 {
        let traced = self.traced.as_ref().map_or(0, |t| t.untraced.homes);
        self.untraced().map(|r| r.homes).sum::<u64>() + traced
    }

    fn failed(&self) -> u64 {
        self.untraced().map(|r| r.failed).sum()
    }

    /// The checks this workload's runs failed.
    fn problems(&self) -> Vec<&'static str> {
        let mut problems = Vec::new();
        let mut runs = self.untraced();
        if let Some(first) = runs.next() {
            if runs.any(|r| r.report_fnv64 != first.report_fnv64) {
                problems.push("report bytes differ between runs");
            }
        }
        if self.untraced().any(|r| !r.invariants_ok) {
            problems.push("a report broke conservation or left a critical home unflagged");
        }
        if self.traced.as_ref().is_some_and(|t| !t.identical) {
            problems.push("traced report differs from run_fleet's");
        }
        problems
    }

    /// End-to-end metrics as `(metric, [q1, median, q3])` over repeats.
    fn host_summary(&self) -> Vec<(Metric, [f64; 3])> {
        let per_repeat: Vec<[Metric; 4]> = self.repeats.iter().map(|r| r.host_metrics()).collect();
        let Some(first) = per_repeat.first() else {
            return Vec::new();
        };
        (0..first.len())
            .map(|i| {
                let values: Vec<f64> = per_repeat.iter().map(|m| m[i].value).collect();
                let q = quartiles(&values);
                (Metric::new(first[i].name, q[1], first[i].unit), q)
            })
            .collect()
    }

    /// The exact metrics (equal across runs when `problems` is empty).
    fn exact(&self) -> Vec<Metric> {
        self.untraced().next().map_or(Vec::new(), |r| {
            r.exact
                .iter()
                .map(|&(name, value)| Metric::new(name, value, measure::exact_unit(name)))
                .collect()
        })
    }
}

fn measure_workload(
    args: &Args,
    w: Workload,
    untraced: bool,
    trace: bool,
) -> Result<WorkloadRun, String> {
    let homes = homes_for(args, w);
    let mut run = WorkloadRun {
        w,
        homes,
        repeats: Vec::new(),
        traced: None,
    };
    if untraced {
        let start = Instant::now();
        loop {
            run.repeats.push(spawn_child(args, w, false)?.0);
            let n = run.repeats.len();
            let done = match (args.repeats, args.seconds) {
                (Some(repeats), _) => n >= repeats,
                (None, Some(seconds)) => {
                    let elapsed = start.elapsed().as_secs_f64();
                    n >= MIN_REPEATS && elapsed + elapsed / n as f64 > seconds
                }
                (None, None) => n >= MIN_REPEATS,
            };
            if done {
                break;
            }
        }
    }
    if trace {
        let (untraced, report) = spawn_child(args, w, true)?;
        let spec = w.spec(args.seed, homes);
        let cpu0 = host::cpu_seconds().ok_or("process CPU time unavailable")?;
        let traced_run = traced::run_traced(&spec);
        let traced_cpu = host::cpu_seconds().ok_or("process CPU time unavailable")? - cpu0;
        run.traced = Some(Traced {
            identical: Some(&traced_run.report_json) == report.as_ref(),
            metrics: measure::layer_metrics(&traced_run, traced_cpu, &untraced),
            untraced,
            spans: traced_run.spans,
        });
    }
    Ok(run)
}

/// `v` to five significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

fn print_run(run: &WorkloadRun) {
    let name = run.w.name();
    let line = |m: &Metric, note: &str| {
        println!(
            "{name:<15} {:<34} {:>14} {:<10} {note}",
            m.name,
            sig(m.value),
            m.unit
        )
    };
    for (m, q) in run.host_summary() {
        let note = format!("q1 {} q3 {} n={}", sig(q[0]), sig(q[2]), run.repeats.len());
        line(&m, &note);
    }
    for m in run.exact() {
        line(&m, "exact");
    }
    for m in run.traced.iter().flat_map(|t| &t.metrics) {
        line(m, "traced");
    }
    for p in run.problems() {
        println!("{name:<15} PROBLEM: {p}");
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed_metrics(benchmark: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key} entry without a {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The `metrics` object of the result line: every metric `listed`,
/// looked up in `measured`, with matching units.
fn result_metrics(
    listed: &[(String, String)],
    measured: &[Metric],
    prefix: &str,
) -> Result<Vec<String>, String> {
    listed
        .iter()
        .map(|(name, unit)| {
            let m = measured.iter().find(|m| m.name == name).ok_or(format!(
                "BENCHMARK.json lists {name}, which is not measured"
            ))?;
            if m.unit != unit {
                return Err(format!(
                    "{name}: BENCHMARK.json says {unit}, measured in {}",
                    m.unit
                ));
            }
            Ok(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&format!("{prefix}{name}")),
                json::num(m.value),
                json::quote(unit)
            ))
        })
        .collect()
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn benchmark() -> Result<Value, String> {
    json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let selected = workload_arg(args)?;
    if args.spans.is_some() && (selected.is_none() || !args.trace) {
        return Err("--spans needs one workload with --trace 1".into());
    }
    let benchmark = benchmark()?;
    let e2e = listed_metrics(&benchmark, "end_to_end")?;
    let layers = listed_metrics(&benchmark, "per_layer")?;

    let mut runs = Vec::new();
    let mut fields = Vec::new();
    for w in selected.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        // One workload measures what `--trace` asks for; `all` measures
        // both, naming each metric after its workload.
        let (untraced, trace, prefix) = match selected {
            Some(_) => (!args.trace, args.trace, String::new()),
            None => (true, true, format!("{}.", w.name())),
        };
        let run = measure_workload(args, w, untraced, trace)?;
        if untraced {
            let medians: Vec<Metric> = run.host_summary().into_iter().map(|(m, _)| m).collect();
            fields.extend(result_metrics(&e2e, &medians, &prefix)?);
        }
        if let Some(t) = &run.traced {
            fields.extend(result_metrics(&layers, &t.metrics, &prefix)?);
        }
        runs.push(run);
    }

    for run in &runs {
        print_run(run);
    }
    if let Some(path) = &args.spans {
        let spans = runs[0].traced.as_ref().map_or(&[][..], |t| &t.spans[..]);
        let lines: String = spans.iter().map(|s| s.to_json() + "\n").collect();
        std::fs::write(path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.results {
        std::fs::write(path, results_json(args, &runs))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let correct = runs.iter().all(|r| r.problems().is_empty());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        runs.iter().map(WorkloadRun::attempted).sum::<u64>(),
        runs.iter().map(WorkloadRun::failed).sum::<u64>(),
        fields.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn results_json(args: &Args, runs: &[WorkloadRun]) -> String {
    let metric_entry = |m: &Metric, extra: &str| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
            json::quote(m.name),
            json::num(m.value),
            json::quote(m.unit)
        )
    };
    let workloads: Vec<String> = runs
        .iter()
        .map(|run| {
            let metrics: Vec<String> = run
                .host_summary()
                .iter()
                .map(|(m, q)| {
                    let extra = format!(
                        ", \"q1\": {}, \"q3\": {}, \"n\": {}",
                        json::num(q[0]),
                        json::num(q[2]),
                        run.repeats.len()
                    );
                    metric_entry(m, &extra)
                })
                .collect();
            let exact: Vec<String> = run.exact().iter().map(|m| metric_entry(m, "")).collect();
            let repeats: Vec<String> = run.repeats.iter().map(Untraced::to_json).collect();
            let traced = run.traced.as_ref().map_or("null".to_string(), |t| {
                let metrics: Vec<String> = t.metrics.iter().map(|m| metric_entry(m, "")).collect();
                format!(
                    "{{\"identical\": {}, \"untraced\": {},\n        \"metrics\": {{\n          {}\n        }}}}",
                    t.identical,
                    t.untraced.to_json(),
                    metrics.join(",\n          ")
                )
            });
            format!(
                "    {{\"name\": {}, \"seed\": {}, \"master_seed\": {}, \"homes\": {}, \
                 \"correct\": {}, \"report_fnv64\": {},\n      \
                 \"metrics\": {{\n        {}\n      }},\n      \
                 \"exact\": {{\n        {}\n      }},\n      \
                 \"repeats\": [\n        {}\n      ],\n      \
                 \"traced\": {}}}",
                json::quote(run.w.name()),
                args.seed,
                run.w.master_seed(args.seed),
                run.homes,
                run.problems().is_empty(),
                run.untraced()
                    .next()
                    .map_or("null".to_string(), |r| format!("\"{:016x}\"", r.report_fnv64)),
                metrics.join(",\n        "),
                exact.join(",\n        "),
                repeats.join(",\n        "),
                traced
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"xlf-benchmark\",\n  \"env\": {{\"nproc\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"smoke\": {}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        host::nproc(),
        json::quote(&command_line("rustc", &["--version"])),
        json::quote(&command_line(
            "git",
            &["describe", "--always", "--dirty", "--abbrev=40"]
        )),
        args.smoke,
        workloads.join(",\n")
    )
}

fn compare_files(base: &str, new: &str) -> Result<ExitCode, String> {
    let rows = compare::compare(&benchmark()?, &read_json(base)?, &read_json(new)?)?;
    println!(
        "{:<15} {:<16} {:>12} {:>12} {:>12} {:>12}  verdict",
        "workload", "metric", "base", "base spread", "new", "new spread"
    );
    for r in &rows {
        println!(
            "{:<15} {:<16} {:>12} {:>12} {:>12} {:>12}  {}",
            r.workload,
            r.metric,
            sig(r.base.median),
            sig(r.base.q3 - r.base.q1),
            sig(r.new.median),
            sig(r.new.q3 - r.new.q1),
            r.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let worse = count(Verdict::Worse);
    println!(
        "{worse} worse, {} unresolved of {} pairs",
        count(Verdict::Unresolved),
        rows.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
