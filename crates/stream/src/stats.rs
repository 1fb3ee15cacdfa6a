//! Online robust statistics: an exactly-mergeable streaming median + MAD
//! accumulator.
//!
//! The correlator needs per-feature location/scale estimates that (a)
//! update as windows arrive, (b) merge across windows and across
//! checkpoint boundaries, and (c) are *exact* — merging the per-window
//! accumulators must equal computing the batch statistic over the
//! concatenated samples, byte for byte, or checkpoint/resume could not
//! be byte-identical. So this is not a sketch: the accumulator retains
//! its samples in sorted order (a batch is sorted once, a single sample
//! is inserted by binary search, accumulators merge by sorted-merge)
//! and answers median/MAD queries exactly. Exactness costs memory
//! linear in the samples: a home's per-feature profile holds one
//! sample per window (tens to a few hundred), while the stream
//! correlator's per-epoch threshold and the batch aggregator's
//! fleet-wide statistics hold one value per home (thousands to tens of
//! thousands in the fleet runs).

/// An exact, mergeable streaming median/MAD accumulator over `f64`
/// samples. Ordering uses `total_cmp`, so non-finite samples are
/// tolerated (callers sanitize anyway).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustAccumulator {
    /// All samples, kept sorted by `total_cmp`.
    samples: Vec<f64>,
}

impl RobustAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        RobustAccumulator::default()
    }

    /// Builds an accumulator from a batch of samples (the reference the
    /// merge property test compares against).
    pub fn from_samples(samples: &[f64]) -> Self {
        RobustAccumulator::from_vec(samples.to_vec())
    }

    /// Sorts an owned batch once. Bit-identical to pushing the samples
    /// one by one, or to merging accumulators over any partition of
    /// them: values that compare equal under `total_cmp` have equal
    /// bits, so their relative order is invisible.
    pub fn from_vec(mut samples: Vec<f64>) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        RobustAccumulator { samples }
    }

    /// Folds one sample in (O(log n) search + O(n) insert).
    pub fn push(&mut self, x: f64) {
        let at = self.samples.partition_point(|s| s.total_cmp(&x).is_lt());
        self.samples.insert(at, x);
    }

    /// Merges another accumulator in (sorted two-way merge).
    pub fn merge(&mut self, other: &RobustAccumulator) {
        let mut merged = Vec::with_capacity(self.samples.len() + other.samples.len());
        let (mut i, mut j) = (0, 0);
        while i < self.samples.len() && j < other.samples.len() {
            if self.samples[i].total_cmp(&other.samples[j]).is_le() {
                merged.push(self.samples[i]);
                i += 1;
            } else {
                merged.push(other.samples[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.samples[i..]);
        merged.extend_from_slice(&other.samples[j..]);
        self.samples = merged;
    }

    /// Merges a whole set of accumulators into one (the region→global
    /// reduction: each logical region keeps one accumulator per feature
    /// and the global pass folds them in stable region order). Exact —
    /// the result is bit-equal to the batch accumulator over the
    /// concatenated samples, for *any* partition of the samples into
    /// parts (sorted-merge is associative and commutative over
    /// `total_cmp`-sorted runs).
    pub fn merge_many<'a>(parts: impl IntoIterator<Item = &'a RobustAccumulator>) -> Self {
        let mut acc = RobustAccumulator::new();
        for part in parts {
            acc.merge(part);
        }
        acc
    }

    /// Samples folded in so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been folded in.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The exact median (mean of the two middle samples for even counts;
    /// 0.0 when empty).
    pub fn median(&self) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            self.samples[n / 2]
        } else {
            (self.samples[n / 2 - 1] + self.samples[n / 2]) / 2.0
        }
    }

    /// The exact median absolute deviation from the median (0.0 when
    /// empty).
    pub fn mad(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let m = self.median();
        RobustAccumulator::from_vec(self.samples.iter().map(|x| (x - m).abs()).collect()).median()
    }

    /// The retained samples, sorted (for serialization).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let odd = RobustAccumulator::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        let even = RobustAccumulator::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), 2.5);
        assert_eq!(RobustAccumulator::new().median(), 0.0);
    }

    #[test]
    fn mad_is_the_median_absolute_deviation() {
        // samples 1..=5: median 3, |x-3| = [2,1,0,1,2] → MAD 1.
        let acc = RobustAccumulator::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(acc.mad(), 1.0);
        // An outlier barely moves it.
        let with_outlier = RobustAccumulator::from_samples(&[1.0, 2.0, 3.0, 4.0, 1000.0]);
        assert_eq!(with_outlier.median(), 3.0);
        assert_eq!(with_outlier.mad(), 1.0);
    }

    #[test]
    fn merge_of_disjoint_ranges_interleaves() {
        let mut a = RobustAccumulator::from_samples(&[1.0, 3.0, 5.0]);
        let b = RobustAccumulator::from_samples(&[2.0, 4.0, 6.0]);
        a.merge(&b);
        assert_eq!(a.samples(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    proptest! {
        /// The satellite property: merging per-window accumulators is
        /// *exactly* the batch accumulator over the same evidence — same
        /// retained samples, same median, same MAD.
        #[test]
        fn merged_window_statistics_equal_batch_statistics(
            windows in proptest::collection::vec(
                proptest::collection::vec(-1e6f64..1e6, 0..20),
                1..8,
            ),
        ) {
            let mut merged = RobustAccumulator::new();
            for window in &windows {
                merged.merge(&RobustAccumulator::from_samples(window));
            }
            let all: Vec<f64> = windows.iter().flatten().copied().collect();
            let batch = RobustAccumulator::from_samples(&all);
            prop_assert_eq!(merged.samples(), batch.samples());
            prop_assert_eq!(merged.median().to_bits(), batch.median().to_bits());
            prop_assert_eq!(merged.mad().to_bits(), batch.mad().to_bits());
        }

        /// The region-merge property the hierarchical fleet tier rests
        /// on: split one sample population across an *arbitrary* number
        /// of regions by an arbitrary assignment, accumulate each region
        /// independently, then merge the regions — the result must be
        /// bit-equal to the single-batch accumulator. This is exactly
        /// why region-count 1/2/8 fleet reports can be byte-identical.
        #[test]
        fn region_split_merge_equals_single_batch(
            samples in proptest::collection::vec(-1e6f64..1e6, 0..64),
            assignment in proptest::collection::vec(0usize..8, 64),
            regions in 1usize..8,
        ) {
            let mut parts = vec![RobustAccumulator::new(); regions];
            for (i, &x) in samples.iter().enumerate() {
                parts[assignment[i] % regions].push(x);
            }
            let merged = RobustAccumulator::merge_many(&parts);
            let batch = RobustAccumulator::from_samples(&samples);
            prop_assert_eq!(merged.samples(), batch.samples());
            prop_assert_eq!(merged.median().to_bits(), batch.median().to_bits());
            prop_assert_eq!(merged.mad().to_bits(), batch.mad().to_bits());
            // And merge order across regions doesn't matter either.
            parts.reverse();
            let reversed = RobustAccumulator::merge_many(&parts);
            prop_assert_eq!(reversed.samples(), batch.samples());
        }

        /// Sorting a batch once is bit-identical to pushing it sample by
        /// sample, NaN payloads, signed zeros and repeats included.
        #[test]
        fn batch_build_equals_push_by_push(
            samples in proptest::collection::vec(
                proptest::sample::select(vec![
                    f64::NAN, -f64::NAN, -0.0, 0.0, 3.0, -2.5,
                    f64::INFINITY, f64::NEG_INFINITY,
                ]),
                0..40,
            ),
        ) {
            let mut pushed = RobustAccumulator::new();
            for &x in &samples {
                pushed.push(x);
            }
            let batch = RobustAccumulator::from_samples(&samples);
            let bits = |acc: &RobustAccumulator| -> Vec<u64> {
                acc.samples().iter().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(bits(&batch), bits(&pushed));
            prop_assert_eq!(batch.median().to_bits(), pushed.median().to_bits());
            prop_assert_eq!(batch.mad().to_bits(), pushed.mad().to_bits());
        }

        /// Push order never matters.
        #[test]
        fn accumulator_is_order_independent(
            mut samples in proptest::collection::vec(-1e6f64..1e6, 0..40),
        ) {
            let forward = RobustAccumulator::from_samples(&samples);
            samples.reverse();
            let backward = RobustAccumulator::from_samples(&samples);
            prop_assert_eq!(forward, backward);
        }
    }
}
