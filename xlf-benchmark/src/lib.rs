//! # xlf-benchmark — the XLF fleet benchmark
//!
//! One command measures the fleet end to end and layer by layer, on
//! three workloads ([`workload::Workload`]):
//!
//! - **Untraced** runs call [`xlf_fleet::run_fleet`] with tracing off,
//!   one fresh process per repeat, and give the end-to-end metrics
//!   (throughput, CPU per home, setup time, peak RSS) plus the exact
//!   simulated statistics ([`measure::EXACT`]).
//! - A **traced** run drives the same fleet single-threaded through the
//!   public call of each layer ([`traced::run_traced`]), times each call
//!   with an in-memory span, and gives the per-layer metrics
//!   ([`measure::layer_metrics`]). Its report must be byte-identical to
//!   `run_fleet`'s.
//!
//! [`compare`] judges two results files against the bounds in
//! `BENCHMARK.json`. See `README.md` for the metric glossary.

pub mod compare;
pub mod host;
pub mod json;
pub mod measure;
pub mod traced;
pub mod workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see the README glossary).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// FNV-1a 64 of `bytes` (the report fingerprint in results files).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// First quartile, median and third quartile of `values`, by the rule
/// Python's `statistics.quantiles(values, n=4)` uses (the default
/// "exclusive" method), so spreads read the same as in that tool. A
/// single value is its own quartiles; no values give NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            })
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0]), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
