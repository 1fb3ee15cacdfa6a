//! `--compare BASE.json NEW.json`: judges every (metric, workload) pair
//! of two results files.
//!
//! End-to-end metrics take their direction and bound from
//! `BENCHMARK.json`. A pair is **unresolved** when either side's
//! quartile spread exceeds the bound; otherwise it is **worse** (or
//! **better**) when the medians differ by more than the bound in that
//! direction, and **same** if not. Exact metrics ([`EXACT`])
//! must repeat exactly: any difference is better or worse by the
//! metric's direction.

use crate::json::Value;
use crate::measure::EXACT;
use crate::Better;
use std::fmt;

/// The judgement on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Regressed by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound: no call either way.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a pair: median and quartiles over its repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// An exact value (no spread).
    pub fn exact(v: f64) -> Summary {
        Summary {
            q1: v,
            median: v,
            q3: v,
        }
    }
}

/// How one metric is judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed relative change (share of the base median); `None` for
    /// exact metrics.
    pub bound: Option<f64>,
}

/// Applies `rule` to one pair.
pub fn judge(rule: &Rule, base: Summary, new: Summary) -> Verdict {
    // Positive when `new` is worse than `base`.
    let worse_by = match rule.better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    let Some(bound) = rule.bound else {
        return if new.median.to_bits() == base.median.to_bits() {
            Verdict::Same
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else if worse_by < 0.0 {
            Verdict::Better
        } else {
            // Unordered (a NaN on one side): changed, so not the same.
            Verdict::Worse
        };
    };
    let spread_exceeds = |s: Summary| s.q3 - s.q1 > bound * s.median.abs();
    if spread_exceeds(base) || spread_exceeds(new) {
        return Verdict::Unresolved;
    }
    let tolerance = bound * base.median.abs();
    if worse_by > tolerance {
        Verdict::Worse
    } else if -worse_by > tolerance {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The end-to-end rules in a parsed `BENCHMARK.json`.
pub fn end_to_end_rules(benchmark: &Value) -> Result<Vec<Rule>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or(format!("{name}: better must be lower or higher"))?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or(format!("{name}: bound must be a non-negative number"))?;
            Ok(Rule {
                name: name.to_string(),
                better,
                bound: Some(bound),
            })
        })
        .collect()
}

/// One judged pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base side.
    pub base: Summary,
    /// New side.
    pub new: Summary,
    /// The judgement.
    pub verdict: Verdict,
}

fn workload<'a>(results: &'a Value, name: &str) -> Option<&'a Value> {
    results
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn summary(entry: &Value) -> Option<Summary> {
    let f = |k: &str| entry.get(k).and_then(Value::as_f64);
    let median = f("value")?;
    Some(Summary {
        q1: f("q1").unwrap_or(median),
        median,
        q3: f("q3").unwrap_or(median),
    })
}

/// Judges every pair the two results files share. A workload present
/// in only one file is skipped; a shared workload missing a metric is
/// an error.
pub fn compare(benchmark: &Value, base: &Value, new: &Value) -> Result<Vec<Row>, String> {
    let rules = end_to_end_rules(benchmark)?;
    let mut rows = Vec::new();
    for w in crate::workload::Workload::ALL {
        let (Some(b), Some(n)) = (workload(base, w.name()), workload(new, w.name())) else {
            continue;
        };
        let exact_rules = EXACT.iter().filter(|m| m.workloads.contains(&w)).map(|m| {
            (
                "exact",
                Rule {
                    name: m.name.to_string(),
                    better: m.better,
                    bound: None,
                },
            )
        });
        let host_rules = rules.iter().map(|r| ("metrics", r.clone()));
        for (section, rule) in host_rules.chain(exact_rules) {
            let side = |results: &Value, label: &str| {
                results
                    .get(section)
                    .and_then(|s| s.get(&rule.name))
                    .and_then(summary)
                    .ok_or(format!("{label} has no {} for {}", rule.name, w.name()))
            };
            let (bs, ns) = (side(b, "BASE")?, side(n, "NEW")?);
            rows.push(Row {
                workload: w.name().to_string(),
                metric: rule.name.clone(),
                base: bs,
                new: ns,
                verdict: judge(&rule, bs, ns),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two results files share no workload".to_string());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rule(better: Better, bound: Option<f64>) -> Rule {
        Rule {
            name: "m".into(),
            better,
            bound,
        }
    }

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary { q1, median, q3 }
    }

    #[test]
    fn relative_rule_calls_better_same_worse_by_direction() {
        let higher = rule(Better::Higher, Some(0.05));
        let base = s(99.0, 100.0, 101.0);
        assert_eq!(judge(&higher, base, s(93.0, 94.0, 95.0)), Verdict::Worse);
        assert_eq!(judge(&higher, base, s(95.0, 96.0, 97.0)), Verdict::Same);
        assert_eq!(
            judge(&higher, base, s(105.5, 106.0, 106.5)),
            Verdict::Better
        );
        let lower = rule(Better::Lower, Some(0.05));
        assert_eq!(judge(&lower, base, s(105.5, 106.0, 106.5)), Verdict::Worse);
        assert_eq!(judge(&lower, base, s(93.0, 94.0, 95.0)), Verdict::Better);
    }

    #[test]
    fn a_wide_spread_on_either_side_is_unresolved() {
        let r = rule(Better::Higher, Some(0.05));
        let tight = s(99.0, 100.0, 101.0);
        let wide = s(90.0, 100.0, 110.0);
        assert_eq!(judge(&r, wide, tight), Verdict::Unresolved);
        // Even a large drop is no call when the new side is that noisy.
        assert_eq!(judge(&r, tight, s(60.0, 80.0, 100.0)), Verdict::Unresolved);
        // A spread exactly at the bound still resolves.
        assert_eq!(judge(&r, s(97.5, 100.0, 102.5), tight), Verdict::Same);
    }

    #[test]
    fn exact_metrics_must_repeat_bit_for_bit() {
        let recall = rule(Better::Higher, None);
        let base = Summary::exact(0.98);
        assert_eq!(judge(&recall, base, Summary::exact(0.98)), Verdict::Same);
        assert_eq!(judge(&recall, base, Summary::exact(0.97)), Verdict::Worse);
        assert_eq!(judge(&recall, base, Summary::exact(0.99)), Verdict::Better);
        let flags = rule(Better::Lower, None);
        assert_eq!(
            judge(&flags, Summary::exact(0.0), Summary::exact(1.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&flags, Summary::exact(0.0), Summary::exact(f64::NAN)),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_bounds_from_the_benchmark_file_only() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "homes_per_s", "unit": "homes/s",
                "better": "higher", "bound": 0.05}]}"#,
        )
        .unwrap();
        // The results files carry their own (wrong) bound and direction:
        // the comparison ignores them.
        let results = |median: f64, recall: f64| {
            parse(&format!(
                r#"{{"workloads": [{{"name": "fleet-batch",
                    "metrics": {{"homes_per_s": {{"value": {median}, "q1": {lo}, "q3": {hi},
                                 "bound": 0.5, "better": "lower"}}}},
                    "exact": {{"failed_share": {{"value": 0}}, "false_flags": {{"value": 2}},
                               "detect_recall": {{"value": {recall}}}}}}}]}}"#,
                lo = median - 1.0,
                hi = median + 1.0,
            ))
            .unwrap()
        };
        let rows = compare(&bench, &results(400.0, 1.0), &results(360.0, 1.0)).unwrap();
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(rows.len(), 4);
        assert_eq!(verdict("homes_per_s"), Verdict::Worse);
        assert_eq!(verdict("detect_recall"), Verdict::Same);

        let rows = compare(&bench, &results(400.0, 1.0), &results(401.0, 0.5)).unwrap();
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("homes_per_s"), Verdict::Same);
        assert_eq!(verdict("detect_recall"), Verdict::Worse);
    }

    #[test]
    fn missing_metrics_and_disjoint_files_are_errors() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let a = parse(r#"{"workloads": [{"name": "fleet-wide", "metrics": {}, "exact": {}}]}"#)
            .unwrap();
        assert!(compare(&bench, &a, &a).unwrap_err().contains("setup_s"));
        let b = parse(r#"{"workloads": [{"name": "fleet-batch"}]}"#).unwrap();
        assert!(compare(&bench, &a, &b).is_err());
        let bad = parse(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 1}]}"#).unwrap();
        assert!(end_to_end_rules(&bad).is_err());
    }
}
