//! Online robust statistics: an exactly-mergeable streaming median + MAD
//! accumulator.
//!
//! The correlator needs per-feature location/scale estimates that (a)
//! update as windows arrive, (b) merge across windows and across
//! checkpoint boundaries, and (c) are *exact* — merging the per-window
//! accumulators must equal computing the batch statistic over the
//! concatenated samples, byte for byte, or checkpoint/resume could not
//! be byte-identical. So this is not a sketch: the accumulator keeps
//! every sample, but as sorted `(value, count)` runs, and answers
//! median/MAD queries exactly from the runs. Samples that compare equal
//! under `total_cmp` have equal bits, so a run loses nothing a sorted
//! sample vector kept.
//!
//! Memory is linear in the *distinct* samples, not in the samples. A
//! home's per-feature profile holds at most one run per window (tens to
//! a few hundred), all ten features in one `WindowProfile` vector. The
//! fleet tiers' per-(region, template) feature columns hold one run per
//! distinct feature value however many homes a region serves: at most
//! 5 per column on fleet-batch and fleet-streamed, 1 on fleet-wide and
//! 16–18 on a 2000-home fleet with 60% of its homes faulted (the count
//! follows the fault mix); a region's magnitude column at most 11 (2 on
//! fleet-wide, 26–32 faulted).
//!
//! Every push, the accumulator's and the profile's alike, goes through
//! one insert: a binary search finds the sample's run, O(log d) for `d`
//! distinct samples, and the run's count goes up or a new run is
//! inserted, shifting the runs after it, O(d). That is cheap at the run
//! counts above. The one all-distinct input, the stream correlator's
//! per-epoch deviation scores, arrives as a batch, which
//! [`RobustAccumulator::from_samples`] sorts once. Samples are sorted
//! and searched as integer keys that order like `total_cmp`.

use crate::checkpoint::{CheckpointError, Reader, Writer};
use crate::window::STREAM_FEATURES;
use std::ops::Range;

/// One run: a sample's [`key`] and how many times it was folded in.
type Run = (i64, u64);

/// Flag bit of a serialized run number: every run holds one sample, and
/// the counts are not written.
const SINGLES: u64 = 1 << 63;

/// A sample's sort key: its bits, flipped so that integer order is
/// `f64::total_cmp` order (the transform `total_cmp` itself applies).
/// Equal keys are equal bits, and integers sort about twice as fast as
/// `total_cmp` comparisons.
fn key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The sample a [`key`] was made from.
fn value(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Folds the sample keyed `k` into `runs[range]`, a strictly ascending
/// range of runs: the run holding `k` counts one more, or a run is
/// inserted where the binary search placed it. Returns whether a run was
/// inserted. The one insert path of [`RobustAccumulator::push`] and
/// [`WindowProfile::push`].
fn insert(runs: &mut Vec<Run>, range: Range<usize>, k: i64) -> bool {
    let at = range.start + runs[range.clone()].partition_point(|&(run, _)| run < k);
    if at < range.end && runs[at].0 == k {
        runs[at].1 += 1;
        false
    } else {
        runs.insert(at, (k, 1));
        true
    }
}

/// An exact, mergeable streaming median/MAD accumulator over `f64`
/// samples. Ordering uses `total_cmp`, so non-finite samples are
/// tolerated (callers sanitize anyway). Two accumulators are equal when
/// they hold the same samples, bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustAccumulator {
    /// Distinct samples with their counts, strictly ascending by key;
    /// every count is positive.
    runs: Vec<Run>,
}

impl RobustAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        RobustAccumulator::default()
    }

    /// Builds an accumulator from a batch of samples: one run per sample,
    /// sorted once, then equal keys folded into one run in place.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut runs: Vec<Run> = samples.iter().map(|&x| (key(x), 1)).collect();
        runs.sort_unstable_by_key(|&(k, _)| k);
        runs.dedup_by(|next, run| {
            let equal = next.0 == run.0;
            if equal {
                run.1 += next.1;
            }
            equal
        });
        RobustAccumulator { runs }
    }

    /// Folds one sample in: O(log d) to find its run among the `d`
    /// distinct samples, O(d) to insert a new one.
    pub fn push(&mut self, x: f64) {
        let all = 0..self.runs.len();
        insert(&mut self.runs, all, key(x));
    }

    /// Merges another accumulator in. Exact for any partition of the
    /// samples: the result holds the union of both sample multisets.
    pub fn merge(&mut self, other: &RobustAccumulator) {
        merge_runs(&mut self.runs, other.runs.iter().copied(), other.runs.len());
    }

    /// Merges a whole set of accumulators into one (the region→global
    /// reduction: each logical region keeps one accumulator per feature
    /// and the global pass folds them in stable region order). Exact —
    /// the result is bit-equal to the batch accumulator over the
    /// concatenated samples, for *any* partition of the samples into
    /// parts.
    pub fn merge_many<'a>(parts: impl IntoIterator<Item = &'a RobustAccumulator>) -> Self {
        let mut acc = RobustAccumulator::new();
        for part in parts {
            acc.merge(part);
        }
        acc
    }

    /// Distinct samples folded in so far: the accumulator's size.
    pub fn distinct(&self) -> usize {
        self.runs.len()
    }

    /// Samples folded in so far.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Whether no samples have been folded in.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The exact median (mean of the two middle samples for even counts;
    /// 0.0 when empty).
    pub fn median(&self) -> f64 {
        median_of(&self.runs)
    }

    /// The exact median absolute deviation from the median (0.0 when
    /// empty).
    pub fn mad(&self) -> f64 {
        let m = median_of(&self.runs);
        let mut deviations: Vec<Run> = self
            .runs
            .iter()
            .map(|&(k, n)| (key((value(k) - m).abs()), n))
            .collect();
        // Equal deviations may sit in separate runs; the median only
        // counts samples, so that cannot change it.
        deviations.sort_unstable_by_key(|&(k, _)| k);
        median_of(&deviations)
    }

    /// Serializes the runs: their number, then each value's bits and
    /// count, the counts left out when every run holds one sample.
    pub fn checkpoint_into(&self, w: &mut Writer) {
        write_runs(w, &self.runs);
    }

    /// Restores an accumulator serialized with
    /// [`RobustAccumulator::checkpoint_into`]. Runs out of order, a zero
    /// count or a total count past `u64::MAX` are framing errors.
    pub fn restore_from(r: &mut Reader) -> Result<Self, CheckpointError> {
        let mut runs = Vec::new();
        read_runs(r, &mut runs)?;
        Ok(RobustAccumulator { runs })
    }
}

/// The sample at 0-based `rank` of runs sorted by key.
fn nth(runs: &[Run], rank: u64) -> f64 {
    let mut seen = 0u64;
    for &(k, n) in runs {
        seen += n;
        if rank < seen {
            return value(k);
        }
    }
    unreachable!("rank {rank} past the {seen} samples")
}

/// The median of runs sorted by key (0.0 when empty): the middle
/// sample, or the mean of the two middle samples for even counts.
fn median_of(runs: &[Run]) -> f64 {
    let n: u64 = runs.iter().map(|&(_, n)| n).sum();
    if n == 0 {
        return 0.0;
    }
    let upper = nth(runs, n / 2);
    if n % 2 == 1 {
        upper
    } else {
        (nth(runs, n / 2 - 1) + upper) / 2.0
    }
}

/// The one run codec, shared by [`RobustAccumulator`] and
/// [`WindowProfile`]: the number of runs, then each value's bits and
/// count. When every run holds one sample, the number carries a flag
/// bit and the counts are left out, so an all-distinct set of runs
/// costs what its sample vector did.
fn write_runs(w: &mut Writer, runs: &[Run]) {
    let singles = runs.iter().all(|&(_, n)| n == 1);
    w.u64(runs.len() as u64 | if singles { SINGLES } else { 0 });
    for &(k, n) in runs {
        w.f64(value(k));
        if !singles {
            w.u64(n);
        }
    }
}

/// Appends runs written by [`write_runs`] to `runs`. Runs out of order,
/// a zero count or a total count past `u64::MAX` are framing errors; a
/// run number too large for memory is one too, since the buffer ends
/// first (the reservation is capped, not trusted).
fn read_runs(r: &mut Reader, runs: &mut Vec<Run>) -> Result<(), CheckpointError> {
    let header = r.u64()?;
    let singles = header & SINGLES != 0;
    let len = usize::try_from(header & !SINGLES).map_err(|_| CheckpointError::Truncated)?;
    runs.reserve_exact(len.min(1 << 16));
    let start = runs.len();
    let mut total = 0u64;
    for _ in 0..len {
        let k = key(r.f64()?);
        let n = if singles { 1 } else { r.u64()? };
        total = total.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if n == 0 || runs[start..].last().is_some_and(|&(prev, _)| prev >= k) {
            return Err(CheckpointError::Truncated);
        }
        runs.push((k, n));
    }
    Ok(())
}

/// A home's per-feature robust profile over its window deltas: every
/// feature's runs in one vector, feature after feature. Feature `d`'s
/// runs are `runs[ends[d - 1]..ends[d]]` (from 0 for the first), sorted
/// and counted exactly as a [`RobustAccumulator`] over that feature's
/// samples holds them, so medians and checkpoint bytes are the
/// accumulator's. A window's value goes through the accumulator's insert
/// within its feature's range. There is no per-feature vector, so a home
/// that has streamed one window holds ten runs in one allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WindowProfile {
    runs: Vec<Run>,
    /// End offset of each feature's runs in `runs`; `usize`, so no
    /// offset a live or restored profile holds can overflow.
    ends: [usize; STREAM_FEATURES],
}

impl WindowProfile {
    /// Feature `d`'s runs.
    fn feature(&self, d: usize) -> &[Run] {
        let start = if d == 0 { 0 } else { self.ends[d - 1] };
        &self.runs[start..self.ends[d]]
    }

    /// Folds one window's (sanitised) feature values in.
    pub(crate) fn push(&mut self, window: &[f64; STREAM_FEATURES]) {
        if self.runs.is_empty() {
            self.runs.reserve_exact(STREAM_FEATURES);
        }
        let mut start = 0;
        for (d, &x) in window.iter().enumerate() {
            if insert(&mut self.runs, start..self.ends[d], key(x)) {
                for end in &mut self.ends[d..] {
                    *end += 1;
                }
            }
            start = self.ends[d];
        }
    }

    /// Each feature's exact median, in feature order.
    pub(crate) fn medians(&self) -> impl Iterator<Item = f64> + '_ {
        (0..STREAM_FEATURES).map(|d| median_of(self.feature(d)))
    }

    /// Serializes each feature's runs in turn, in the
    /// [`RobustAccumulator::checkpoint_into`] encoding.
    pub(crate) fn checkpoint_into(&self, w: &mut Writer) {
        for d in 0..STREAM_FEATURES {
            write_runs(w, self.feature(d));
        }
    }

    /// Restores a profile serialized with
    /// [`WindowProfile::checkpoint_into`], with the accumulator's
    /// framing checks per feature.
    pub(crate) fn restore_from(r: &mut Reader) -> Result<Self, CheckpointError> {
        let mut profile = WindowProfile::default();
        for d in 0..STREAM_FEATURES {
            read_runs(r, &mut profile.runs)?;
            profile.ends[d] = profile.runs.len();
        }
        Ok(profile)
    }
}

/// Merges `incoming` — at most `max_incoming` runs, strictly ascending
/// by key — into `runs` in place: the vector grows by `max_incoming`, a
/// merge from the back fills it, and the slots left over by keys both
/// sides held close up once at the end. No second buffer is allocated.
fn merge_runs<I>(runs: &mut Vec<Run>, incoming: I, max_incoming: usize)
where
    I: DoubleEndedIterator<Item = Run>,
{
    let (mut read, mut write) = (runs.len(), runs.len() + max_incoming);
    runs.resize(write, (0, 0));
    for (k, n) in incoming.rev() {
        while read > 0 && runs[read - 1].0 > k {
            read -= 1;
            write -= 1;
            runs[write] = runs[read];
        }
        write -= 1;
        runs[write] = if read > 0 && runs[read - 1].0 == k {
            read -= 1;
            (k, runs[read].1 + n)
        } else {
            (k, n)
        };
    }
    runs.drain(read..write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The accumulator as it was before runs: every sample kept in a
    /// `total_cmp`-sorted vector, inserted by binary search, merged by a
    /// two-way merge. The oracle the run-keyed accumulator must match
    /// bit for bit.
    #[derive(Debug, Clone, Default)]
    struct SortedAccumulator {
        samples: Vec<f64>,
    }

    impl SortedAccumulator {
        fn from_vec(mut samples: Vec<f64>) -> Self {
            samples.sort_unstable_by(f64::total_cmp);
            SortedAccumulator { samples }
        }

        fn push(&mut self, x: f64) {
            let at = self.samples.partition_point(|s| s.total_cmp(&x).is_lt());
            self.samples.insert(at, x);
        }

        fn merge(&mut self, other: &SortedAccumulator) {
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

        fn median(&self) -> f64 {
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

        fn mad(&self) -> f64 {
            if self.samples.is_empty() {
                return 0.0;
            }
            let m = self.median();
            SortedAccumulator::from_vec(self.samples.iter().map(|x| (x - m).abs()).collect())
                .median()
        }

        fn bits(&self) -> Vec<u64> {
            self.samples.iter().map(|x| x.to_bits()).collect()
        }

        /// The run codec's bytes, built from the sorted samples: the
        /// number of bit-equal groups (flagged when each holds one
        /// sample), then each group's value and, unless flagged, size.
        fn checkpoint(&self) -> Vec<u8> {
            let groups: Vec<&[f64]> = self
                .samples
                .chunk_by(|a, b| a.to_bits() == b.to_bits())
                .collect();
            let singles = groups.iter().all(|g| g.len() == 1);
            let mut w = Writer::new();
            w.u64(groups.len() as u64 | if singles { SINGLES } else { 0 });
            for g in groups {
                w.f64(g[0]);
                if !singles {
                    w.usize(g.len());
                }
            }
            w.into_bytes()
        }
    }

    /// The accumulator's samples, expanded from its runs, as bits.
    fn bits(acc: &RobustAccumulator) -> Vec<u64> {
        acc.runs
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(value(k).to_bits(), n as usize))
            .collect()
    }

    /// The accumulator's runs as `(value, count)`.
    fn values(acc: &RobustAccumulator) -> Vec<(f64, u64)> {
        acc.runs.iter().map(|&(k, n)| (value(k), n)).collect()
    }

    fn checkpoint(acc: &RobustAccumulator) -> Vec<u8> {
        let mut w = Writer::new();
        acc.checkpoint_into(&mut w);
        w.into_bytes()
    }

    /// A median or MAD answer as bits, every NaN as one. Samples keep
    /// their NaN payloads bit for bit, but Rust leaves the payload of a
    /// NaN that arithmetic produces unspecified (an optimised build may
    /// evaluate `a + b` as `b + a`), so two NaN answers count as equal.
    /// Every other answer must match bit for bit.
    fn answer(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn round_trip(acc: &RobustAccumulator) -> RobustAccumulator {
        let bytes = checkpoint(acc);
        let mut r = Reader::new(&bytes);
        let restored = RobustAccumulator::restore_from(&mut r).expect("own bytes restore");
        r.finish().expect("no trailing bytes");
        restored
    }

    /// Samples drawn from a small pool (NaN payloads of both signs, ±0,
    /// ±∞, a subnormal and a few repeats) or from a wide range, so
    /// inputs run from all-repeated to all-distinct.
    fn sample() -> impl Strategy<Value = f64> {
        const POOL: [f64; 11] = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0042),
            -0.0,
            0.0,
            3.0,
            -2.5,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        (0..2 * POOL.len(), -1e6f64..1e6)
            .prop_map(|(pick, wide)| POOL.get(pick).copied().unwrap_or(wide))
    }

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
        let b = RobustAccumulator::from_samples(&[2.0, 4.0, 6.0, 3.0]);
        a.merge(&b);
        let expected = [(1.0, 1), (2.0, 1), (3.0, 2), (4.0, 1), (5.0, 1), (6.0, 1)];
        assert_eq!(values(&a), &expected);
    }

    #[test]
    fn repeated_samples_share_one_run() {
        let mut acc = RobustAccumulator::new();
        for i in 0..10_000 {
            acc.push(f64::from(i % 3));
        }
        assert_eq!(values(&acc), &[(0.0, 3334), (1.0, 3333), (2.0, 3333)]);
        assert_eq!(acc.distinct(), 3);
        assert_eq!(acc.len(), 10_000);
        assert_eq!(acc.median(), 1.0);
    }

    #[test]
    fn malformed_runs_do_not_restore() {
        let restore = |runs: &[(f64, u64)]| {
            let mut w = Writer::new();
            w.usize(runs.len());
            for &(x, n) in runs {
                w.f64(x);
                w.u64(n);
            }
            let bytes = w.into_bytes();
            RobustAccumulator::restore_from(&mut Reader::new(&bytes))
        };
        assert!(restore(&[(1.0, 2), (2.0, 1)]).is_ok());
        for bad in [
            &[(2.0, 1), (1.0, 1)][..],
            &[(1.0, 1), (1.0, 1)],
            &[(1.0, 0)],
            &[(1.0, u64::MAX), (2.0, 1)],
        ] {
            assert_eq!(restore(bad), Err(CheckpointError::Truncated), "{bad:?}");
        }
        // Count-free singles must be in order too.
        let mut w = Writer::new();
        w.u64(2 | SINGLES);
        w.f64(2.0);
        w.f64(1.0);
        let bytes = w.into_bytes();
        assert_eq!(
            RobustAccumulator::restore_from(&mut Reader::new(&bytes)),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn profile_runs_restore_per_feature_and_bad_runs_do_not() {
        // Feature 0 holds 5.0 twice, feature 1 holds 1.0 and 2.0, the
        // rest 1.0 twice. Feature 0's run sorts after feature 1's first,
        // so the restore's order check must stay within a feature.
        let mut profile = WindowProfile::default();
        let mut window = [1.0; STREAM_FEATURES];
        window[0] = 5.0;
        profile.push(&window);
        window[1] = 2.0;
        profile.push(&window);
        let medians: Vec<f64> = profile.medians().collect();
        assert_eq!(&medians[..3], &[5.0, 1.5, 1.0]);
        let mut w = Writer::new();
        profile.checkpoint_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(WindowProfile::restore_from(&mut r).as_ref(), Ok(&profile));
        r.finish().expect("no trailing bytes");

        let restore = |features: &[&[(f64, u64)]], header: Option<u64>| {
            let mut w = Writer::new();
            for runs in features {
                w.u64(header.unwrap_or(runs.len() as u64));
                for &(x, n) in *runs {
                    w.f64(x);
                    w.u64(n);
                }
            }
            let bytes = w.into_bytes();
            WindowProfile::restore_from(&mut Reader::new(&bytes))
        };
        let mut features: Vec<&[(f64, u64)]> = vec![&[(1.0, 1)]; STREAM_FEATURES];
        assert!(restore(&features, None).is_ok());
        features[3] = &[(2.0, 1), (1.0, 1)];
        assert_eq!(restore(&features, None), Err(CheckpointError::Truncated));
        features[3] = &[(1.0, 0)];
        assert_eq!(restore(&features, None), Err(CheckpointError::Truncated));
        // A run number no buffer can hold fails as truncated, without
        // reserving for it or overflowing an offset.
        assert_eq!(
            restore(&features[..1], Some(u64::MAX >> 1)),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn distinct_samples_serialize_without_counts() {
        let encoded = |samples: &[f64]| {
            let mut w = Writer::new();
            RobustAccumulator::from_samples(samples).checkpoint_into(&mut w);
            w.into_bytes().len()
        };
        assert_eq!(encoded(&[3.0, 1.0, 2.0]), 8 + 3 * 8);
        assert_eq!(encoded(&[3.0, 1.0, 3.0]), 8 + 2 * 16);
        assert_eq!(encoded(&[]), 8);
    }

    proptest! {
        /// The run-keyed accumulator against the sorted-vector oracle:
        /// the same samples pushed one by one, split across any number of
        /// parts and merged, and round-tripped through the codec, hold
        /// the oracle's samples bit for bit and answer its median and MAD
        /// bit for bit. After every single push, too, the pushed
        /// accumulator answers the oracle's median and MAD and writes the
        /// oracle's checkpoint bytes. Inputs are repeat-heavy,
        /// all-distinct, or one then the other.
        #[test]
        fn runs_equal_the_sorted_vector_oracle(
            mixed in proptest::collection::vec(sample(), 0..200),
            wide in proptest::collection::vec(-1e6f64..1e6, 0..200),
            shape in 0usize..3,
            assignment in proptest::collection::vec(0usize..8, 400),
            parts in 1usize..8,
        ) {
            let samples: Vec<f64> = match shape {
                0 => mixed,
                1 => wide,
                _ => mixed.into_iter().chain(wide).collect(),
            };
            let mut oracle = SortedAccumulator::default();
            let mut pushed = RobustAccumulator::new();
            let mut split = vec![RobustAccumulator::new(); parts];
            let mut oracle_split = vec![SortedAccumulator::default(); parts];
            for (i, &x) in samples.iter().enumerate() {
                oracle.push(x);
                pushed.push(x);
                prop_assert_eq!(answer(pushed.median()), answer(oracle.median()));
                prop_assert_eq!(answer(pushed.mad()), answer(oracle.mad()));
                prop_assert_eq!(checkpoint(&pushed), oracle.checkpoint());
                split[assignment[i] % parts].push(x);
                oracle_split[assignment[i] % parts].push(x);
            }
            let merged = RobustAccumulator::merge_many(&split);
            let mut oracle_merged = SortedAccumulator::default();
            for part in &oracle_split {
                oracle_merged.merge(part);
            }
            prop_assert_eq!(oracle_merged.bits(), oracle.bits());
            let batch = RobustAccumulator::from_samples(&samples);
            let restored = round_trip(&pushed);
            split.reverse();
            let reversed = RobustAccumulator::merge_many(&split);
            for acc in [&pushed, &merged, &reversed, &batch, &restored] {
                prop_assert_eq!(bits(acc), oracle.bits());
                prop_assert_eq!(acc.len(), samples.len());
                prop_assert_eq!(answer(acc.median()), answer(oracle.median()));
                prop_assert_eq!(answer(acc.mad()), answer(oracle.mad()));
                prop_assert_eq!(acc, &batch);
            }
        }

        /// Merging push-built accumulators one at a time, with pushes
        /// in between, equals the batch over every sample.
        #[test]
        fn interleaved_merges_and_pushes_equal_the_batch(
            windows in proptest::collection::vec(
                proptest::collection::vec(sample(), 0..30),
                1..8,
            ),
            extra in proptest::collection::vec(sample(), 0..8),
        ) {
            let mut acc = RobustAccumulator::new();
            let mut all = Vec::new();
            for (i, window) in windows.iter().enumerate() {
                let mut part = RobustAccumulator::new();
                for &x in window {
                    part.push(x);
                }
                acc.merge(&part);
                all.extend_from_slice(window);
                if let Some(&x) = extra.get(i) {
                    acc.push(x);
                    all.push(x);
                }
            }
            let batch = RobustAccumulator::from_samples(&all);
            prop_assert_eq!(&acc, &batch);
            prop_assert_eq!(answer(acc.median()), answer(batch.median()));
            prop_assert_eq!(answer(acc.mad()), answer(batch.mad()));
        }

        /// The one-vector profile against the per-feature accumulators
        /// it replaced, pushed once per window as the correlator did:
        /// after every window each feature's median is bit-equal, and the
        /// checkpoint bytes are byte-equal and restore to the same
        /// profile. Values repeat within and across
        /// windows, include ±0 and arrive sanitised as `ingest_epoch`
        /// sanitises them (non-finite → 0).
        #[test]
        fn window_profile_equals_per_feature_accumulators(
            values in proptest::collection::vec(
                (0usize..3, 0u8..4, sample()).prop_map(|(pick, small, x)| match pick {
                    0 => f64::from(small) - 1.5,
                    1 => [0.0, -0.0, 2.0, 7.25][usize::from(small)],
                    _ => x,
                }),
                0..400,
            ),
        ) {
            let mut profile = WindowProfile::default();
            let mut oracle = vec![RobustAccumulator::new(); STREAM_FEATURES];
            for chunk in values.chunks_exact(STREAM_FEATURES) {
                let window: [f64; STREAM_FEATURES] = std::array::from_fn(|d| {
                    if chunk[d].is_finite() { chunk[d] } else { 0.0 }
                });
                profile.push(&window);
                for (acc, &v) in oracle.iter_mut().zip(&window) {
                    acc.push(v);
                }
                let medians: Vec<u64> = profile.medians().map(f64::to_bits).collect();
                let expected: Vec<u64> = oracle.iter().map(|a| a.median().to_bits()).collect();
                prop_assert_eq!(medians, expected);
            }
            let mut w = Writer::new();
            profile.checkpoint_into(&mut w);
            let bytes = w.into_bytes();
            let mut w = Writer::new();
            for acc in &oracle {
                acc.checkpoint_into(&mut w);
            }
            prop_assert_eq!(&bytes, &w.into_bytes());
            let mut r = Reader::new(&bytes);
            let restored = WindowProfile::restore_from(&mut r).expect("own bytes restore");
            r.finish().expect("no trailing bytes");
            prop_assert_eq!(&restored, &profile);
        }

        /// Push order never matters.
        #[test]
        fn accumulator_is_order_independent(
            mut samples in proptest::collection::vec(sample(), 0..40),
        ) {
            let forward = RobustAccumulator::from_samples(&samples);
            samples.reverse();
            let backward = RobustAccumulator::from_samples(&samples);
            prop_assert_eq!(forward, backward);
        }
    }
}
