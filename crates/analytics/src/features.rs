//! Feature extraction from observed traffic: windows of packet metadata →
//! fixed-length feature vectors consumed by the MKL classifier and the
//! community graphs.

/// A summarized observation window over one flow or device.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureWindow {
    /// Packets in the window.
    pub count: usize,
    /// Mean wire size.
    pub mean_size: f64,
    /// Size standard deviation.
    pub std_size: f64,
    /// Total bytes.
    pub bytes: f64,
    /// Mean inter-arrival time (seconds; 0 with < 2 packets).
    pub mean_gap: f64,
    /// Fraction of packets in the upstream direction.
    pub upstream_fraction: f64,
}

impl FeatureWindow {
    /// Flattens to the vector form the learners consume.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.count as f64,
            self.mean_size,
            self.std_size,
            self.bytes,
            self.mean_gap,
            self.upstream_fraction,
        ]
    }
}

/// Summarizes `(timestamp_secs, wire_size, upstream)` samples into a
/// [`FeatureWindow`].
pub fn window_features(samples: &[(f64, usize, bool)]) -> FeatureWindow {
    let count = samples.len();
    if count == 0 {
        return FeatureWindow {
            count: 0,
            mean_size: 0.0,
            std_size: 0.0,
            bytes: 0.0,
            mean_gap: 0.0,
            upstream_fraction: 0.0,
        };
    }
    let sizes = samples.iter().map(|&(_, s, _)| s as f64);
    let bytes: f64 = sizes.clone().sum();
    let mean_size = bytes / count as f64;
    let var = sizes
        .map(|s| (s - mean_size) * (s - mean_size))
        .sum::<f64>()
        / count as f64;
    let mean_gap = if count > 1 {
        let (first, last) = samples.iter().fold(
            (f64::INFINITY, f64::NEG_INFINITY),
            |(lo, hi), &(t, _, _)| (lo.min(t), hi.max(t)),
        );
        (last - first) / (count - 1) as f64
    } else {
        0.0
    };
    let upstream = samples.iter().filter(|&&(_, _, up)| up).count();
    FeatureWindow {
        count,
        mean_size,
        std_size: var.sqrt(),
        bytes,
        mean_gap,
        upstream_fraction: upstream as f64 / count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_all_zero() {
        let w = window_features(&[]);
        assert_eq!(w.to_vec(), vec![0.0; 6]);
    }

    #[test]
    fn statistics_are_correct() {
        let w = window_features(&[(0.0, 100, true), (1.0, 300, false), (2.0, 200, true)]);
        assert_eq!(w.count, 3);
        assert!((w.mean_size - 200.0).abs() < 1e-9);
        assert!((w.bytes - 600.0).abs() < 1e-9);
        assert!((w.mean_gap - 1.0).abs() < 1e-9);
        assert!((w.upstream_fraction - 2.0 / 3.0).abs() < 1e-9);
        let expected_std = (((100.0f64 - 200.0).powi(2) * 2.0 + 0.0) / 3.0).sqrt();
        assert!((w.std_size - expected_std).abs() < 1e-9);
    }

    #[test]
    fn single_packet_has_zero_gap() {
        let w = window_features(&[(5.0, 64, true)]);
        assert_eq!(w.mean_gap, 0.0);
        assert_eq!(w.count, 1);
    }

    #[test]
    fn unsorted_timestamps_are_handled() {
        let w = window_features(&[(4.0, 10, true), (0.0, 10, true), (2.0, 10, true)]);
        assert!((w.mean_gap - 2.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_windows_differ_from_idle_windows() {
        // The property the traffic-analysis experiments rely on.
        let idle: Vec<(f64, usize, bool)> = (0..5).map(|i| (i as f64 * 30.0, 88, true)).collect();
        let streaming: Vec<(f64, usize, bool)> =
            (0..50).map(|i| (i as f64 * 0.2, 940, true)).collect();
        let wi = window_features(&idle);
        let ws = window_features(&streaming);
        assert!(ws.bytes > wi.bytes * 10.0);
        assert!(ws.mean_gap < wi.mean_gap);
    }
}
