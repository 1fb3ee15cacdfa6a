//! Shared harness utilities for the XLF table/figure regeneration
//! binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper (see
//! DESIGN.md §3 for the experiment index); this library holds the
//! scenario builders and reporting helpers they share, and the
//! [`harness`] the `BENCH_*.json` experiments run on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod scenarios;

/// Prints a Markdown-style table: header row, separator, data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(4)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Ids of homes under an *active* attack: the ones the home and fleet
/// tiers can be expected to flag. A passive traffic observer injects no
/// traffic and is invisible from inside the home.
pub fn active_attacked(report: &xlf_fleet::FleetReport) -> Vec<u64> {
    report
        .rows
        .iter()
        .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
        .map(|r| r.id)
        .collect()
}

/// Formats a byte count human-readably.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Formats a frequency human-readably.
pub fn human_hz(hz: u64) -> String {
    if hz >= 1_000_000_000 {
        format!("{:.2} GHz", hz as f64 / 1e9)
    } else if hz >= 1_000_000 {
        format!("{:.1} MHz", hz as f64 / 1e6)
    } else if hz >= 1_000 {
        format!("{:.1} kHz", hz as f64 / 1e3)
    } else {
        format!("{hz} Hz")
    }
}

/// Precision/recall/F1 triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prf {
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1.
    pub f1: f64,
}

/// Computes precision/recall/F1 from (predicted, actual) boolean pairs.
pub fn prf(outcomes: &[(bool, bool)]) -> Prf {
    let tp = outcomes.iter().filter(|&&(p, a)| p && a).count() as f64;
    let fp = outcomes.iter().filter(|&&(p, a)| p && !a).count() as f64;
    let fne = outcomes.iter().filter(|&&(p, a)| !p && a).count() as f64;
    let precision = if tp + fp == 0.0 { 0.0 } else { tp / (tp + fp) };
    let recall = if tp + fne == 0.0 {
        0.0
    } else {
        tp / (tp + fne)
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Prf {
        precision,
        recall,
        f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_on_perfect_predictions() {
        let outcomes = vec![(true, true), (false, false), (true, true)];
        let m = prf(&outcomes);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn prf_on_misses_and_false_alarms() {
        // 1 TP, 1 FP, 1 FN, 1 TN.
        let outcomes = vec![(true, true), (true, false), (false, true), (false, false)];
        let m = prf(&outcomes);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 0.5);
        assert_eq!(m.f1, 0.5);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KB");
        assert_eq!(human_hz(32_000_000), "32.0 MHz");
        assert_eq!(human_hz(1_200_000_000), "1.20 GHz");
    }
}
