//! The epoch-by-epoch stream correlator: folds window summaries into
//! online robust statistics, re-runs the community pass incrementally,
//! and fires epoch-stamped, deduplicated fleet detections mid-run.
//!
//! Per-home state lives in one vector sorted by home id, each entry
//! carrying its community label: an epoch's summaries, sorted by
//! `(home, window)`, fold in with a forward cursor, the graph matrix is
//! written in table order, and the checkpoint writes the home and label
//! tables in that same ascending order, so its bytes are those a map
//! keyed by home id wrote. Homes that join late are merged in once per
//! epoch. A restore takes the tables as written and rejects, rather
//! than re-sorts, ids that do not strictly ascend.

use crate::checkpoint::{CheckpointError, Reader, Writer};
use crate::stats::{RobustAccumulator, WindowProfile};
use crate::window::{feature, WindowSummary, STREAM_FEATURES};
use std::collections::{BTreeMap, BTreeSet};
use xlf_analytics::graph::{community_report_into, GraphScratch};
use xlf_analytics::robust::MAD_SIGMA;

/// kNN graph degree of the community pass.
pub const GRAPH_K: usize = 8;
/// RBF similarity bandwidth of the community pass.
pub const GRAPH_GAMMA: f64 = 8.0;
/// Label-propagation iteration cap per community pass.
pub const GRAPH_ITERS: usize = 100;
/// Deviation-score floor below which nothing is flagged.
pub const MIN_DEVIATION: f64 = 0.15;
/// Robust z-score multiplier of the adaptive flag threshold.
pub const SIGMA: f64 = 4.0;

/// What one correlation epoch observed fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// Zero-based epoch index (== window index).
    pub epoch: u64,
    /// Homes contributing at least one window by this epoch.
    pub homes: u64,
    /// Detections first fired this epoch (new flags).
    pub alerts: u64,
    /// Detections suppressed this epoch because the home was already
    /// flagged in an earlier epoch (the epoch-stamped dedup).
    pub deduped: u64,
}

/// Final streaming summary: the per-epoch trace plus detection-latency
/// and loss accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// One record per completed epoch, in order.
    pub epochs: Vec<EpochRecord>,
    /// For every home ever flagged: the epoch it was *first* flagged in.
    pub first_detection: BTreeMap<u64, u64>,
    /// Every home flagged by the stream pass.
    pub flagged: BTreeSet<u64>,
    /// Homes whose summaries were marked partial (degraded homes
    /// correlated on their truncated evidence prefix), in id order.
    pub partial_homes: Vec<u64>,
    /// Window summaries folded in across all epochs.
    pub windows_ingested: u64,
    /// Window summaries shed before reaching the correlator (reported by
    /// the bounded per-home window buffers).
    pub windows_shed: u64,
}

/// Per-home streaming state: one entry of the correlator's id-sorted
/// home table.
#[derive(Debug, Clone, PartialEq)]
struct HomeState {
    /// Fleet-wide home id (the table's sort key).
    id: u64,
    /// Community label, carried across epochs (the incremental seed for
    /// label propagation).
    label: u64,
    /// Whether any summary was marked partial.
    partial: bool,
    /// Cumulative sum per feature (== the home's batch counters up to
    /// the last ingested window).
    cumulative: [f64; STREAM_FEATURES],
    /// Per-feature robust profile over the home's window deltas.
    profile: WindowProfile,
}

impl HomeState {
    fn new(id: u64, label: u64) -> Self {
        HomeState {
            id,
            label,
            partial: false,
            cumulative: [0.0; STREAM_FEATURES],
            profile: WindowProfile::default(),
        }
    }

    /// Appends the feature vector this home contributes to the epoch
    /// graph: cumulative counters plus the robust (median) per-window
    /// profile, so both *how much* a home has done and *what its typical
    /// window looks like* separate it from its community. The caller
    /// passes the graph matrix's own storage, so the per-epoch pass
    /// neither allocates nor copies a second feature buffer.
    fn graph_features_into(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.cumulative);
        out.extend(self.profile.medians());
    }
}

/// Reusable per-epoch working buffers: the fold order and seed staging
/// vectors and the whole graph-pipeline scratch, whose matrix
/// the homes' features are written into. Transient working state only —
/// excluded from equality and from checkpoints, so checkpoint bytes are
/// identical to the pre-scratch format.
#[derive(Debug, Clone, Default)]
struct CorrelatorScratch {
    /// Indices into the epoch's summaries, in `(home, window)` order.
    order: Vec<usize>,
    seed: Vec<usize>,
    graph: GraphScratch,
    finite: Vec<f64>,
}

/// The online fleet correlator. Feed it one epoch of window summaries at
/// a time ([`StreamCorrelator::ingest_epoch`]); it maintains mergeable
/// robust per-feature statistics per home, re-runs the kNN +
/// label-propagation community pass seeded with the previous epoch's
/// labels, and records epoch-stamped detections with dedup. All folding
/// happens in home-id order, so the outcome is independent of summary
/// arrival order — and of how many workers produced them.
#[derive(Debug, Clone, Default)]
pub struct StreamCorrelator {
    epoch: u64,
    next_label: u64,
    windows_ingested: u64,
    windows_shed: u64,
    /// Every home seen so far, in strictly ascending id order, each
    /// carrying its label.
    homes: Vec<HomeState>,
    /// Homes already flagged (dedup set).
    flagged: BTreeSet<u64>,
    /// First-detection epoch per flagged home.
    first_detection: BTreeMap<u64, u64>,
    epochs: Vec<EpochRecord>,
    scratch: CorrelatorScratch,
}

impl PartialEq for StreamCorrelator {
    /// Equality covers the correlator's logical state only — exactly
    /// what [`StreamCorrelator::checkpoint_into`] captures. The scratch
    /// buffers are warm caches, not state.
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.next_label == other.next_label
            && self.windows_ingested == other.windows_ingested
            && self.windows_shed == other.windows_shed
            && self.homes == other.homes
            && self.flagged == other.flagged
            && self.first_detection == other.first_detection
            && self.epochs == other.epochs
    }
}

impl StreamCorrelator {
    /// A fresh correlator at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next epoch to be ingested (== epochs completed so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Charges `n` shed windows to the loss accounting (the bounded
    /// per-home window buffers report their evictions here).
    pub fn note_shed(&mut self, n: u64) {
        self.windows_shed += n;
    }

    /// Homes flagged so far — the alert-consumption hook for anything
    /// that reacts to detections *between* epochs (e.g. a rollout health
    /// gate), without paying for a full [`StreamCorrelator::outcome`]
    /// clone per epoch.
    pub fn flagged(&self) -> &BTreeSet<u64> {
        &self.flagged
    }

    /// First-detection epoch per flagged home (same borrow-only hook as
    /// [`StreamCorrelator::flagged`]).
    pub fn first_detection(&self) -> &BTreeMap<u64, u64> {
        &self.first_detection
    }

    /// Folds one epoch of window summaries in and runs the incremental
    /// community pass. Summaries may arrive in any order and may omit
    /// homes (a truncated home stops contributing; a shed window is
    /// simply absent); folding is by home id, so the result is
    /// arrival-order-independent. Returns this epoch's record.
    pub fn ingest_epoch(&mut self, summaries: &[WindowSummary]) -> EpochRecord {
        let CorrelatorScratch {
            order,
            seed,
            graph,
            finite,
        } = &mut self.scratch;
        // Fold in id order for determinism.
        order.clear();
        order.extend(0..summaries.len());
        order.sort_by_key(|&i| (summaries[i].home, summaries[i].window));
        join_new_homes(
            &mut self.homes,
            &mut self.next_label,
            order.iter().map(|&i| summaries[i].home),
        );
        let mut at = 0;
        for &i in order.iter() {
            let s = &summaries[i];
            at += self.homes[at..].partition_point(|h| h.id < s.home);
            let state = &mut self.homes[at];
            state.partial |= s.partial;
            let window = s
                .features
                .map(|raw| if raw.is_finite() { raw } else { 0.0 });
            for (sum, v) in state.cumulative.iter_mut().zip(window) {
                *sum += v;
            }
            state.profile.push(&window);
            self.windows_ingested += 1;
        }

        // Incremental community pass over every home seen so far, run
        // entirely in the reusable scratch buffers: after the first
        // epoch at a given fleet size this allocates nothing.
        graph
            .matrix
            .refill(self.homes.len(), 2 * STREAM_FEATURES, |out| {
                for state in &self.homes {
                    state.graph_features_into(out);
                }
            });
        seed.clear();
        seed.extend(self.homes.iter().map(|h| h.label as usize));
        community_report_into(GRAPH_K, GRAPH_GAMMA, GRAPH_ITERS, Some(seed), graph);
        for (state, &label) in self.homes.iter_mut().zip(graph.labels()) {
            state.label = label as u64;
        }

        // Adaptive robust threshold over this epoch's deviation scores —
        // the same median + sigma·MAD rule as the batch aggregator.
        finite.clear();
        finite.extend(graph.scores().iter().copied().filter(|s| s.is_finite()));
        let stats = RobustAccumulator::from_samples(finite);
        let threshold = MIN_DEVIATION.max(stats.median() + SIGMA * MAD_SIGMA * stats.mad());

        // Epoch-stamped detection with dedup: a home fires at most one
        // alert across the whole run; repeats are counted, not re-raised.
        let (mut alerts, mut deduped) = (0u64, 0u64);
        for (state, &score) in self.homes.iter().zip(graph.scores()) {
            let deviant = score.is_finite() && score >= threshold;
            let critical = state.cumulative[feature::CRITICALS] > 0.0;
            if !(deviant || critical) {
                continue;
            }
            if self.flagged.insert(state.id) {
                alerts += 1;
                self.first_detection.insert(state.id, self.epoch);
            } else {
                deduped += 1;
            }
        }

        let record = EpochRecord {
            epoch: self.epoch,
            homes: self.homes.len() as u64,
            alerts,
            deduped,
        };
        self.epochs.push(record);
        self.epoch += 1;
        record
    }

    /// The streaming summary so far.
    pub fn outcome(&self) -> StreamOutcome {
        StreamOutcome {
            epochs: self.epochs.clone(),
            first_detection: self.first_detection.clone(),
            flagged: self.flagged.clone(),
            partial_homes: self
                .homes
                .iter()
                .filter(|s| s.partial)
                .map(|s| s.id)
                .collect(),
            windows_ingested: self.windows_ingested,
            windows_shed: self.windows_shed,
        }
    }

    /// Appends the complete correlator state to `w`. Same state → same
    /// bytes, always: the checkpoint of a resumed run byte-equals the
    /// checkpoint of an uninterrupted one. The caller's framing (the
    /// fleet's run snapshot) carries the magic, version and checksum.
    ///
    /// The home table is written as two id-keyed tables, in ascending
    /// id: each home's statistics, then each home's label.
    pub fn checkpoint_into(&self, w: &mut Writer) {
        w.u64(self.epoch);
        w.u64(self.next_label);
        w.u64(self.windows_ingested);
        w.u64(self.windows_shed);
        w.usize(self.homes.len());
        for state in &self.homes {
            w.u64(state.id);
            w.bool(state.partial);
            for v in state.cumulative {
                w.f64(v);
            }
            state.profile.checkpoint_into(w);
        }
        w.usize(self.homes.len());
        for state in &self.homes {
            w.u64(state.id);
            w.u64(state.label);
        }
        w.usize(self.flagged.len());
        for id in &self.flagged {
            w.u64(*id);
        }
        w.usize(self.first_detection.len());
        for (id, epoch) in &self.first_detection {
            w.u64(*id);
            w.u64(*epoch);
        }
        w.usize(self.epochs.len());
        for e in &self.epochs {
            w.u64(e.epoch);
            w.u64(e.homes);
            w.u64(e.alerts);
            w.u64(e.deduped);
        }
    }

    /// Reads a correlator written by [`StreamCorrelator::checkpoint_into`]
    /// from `r`. Continuing a restored correlator produces byte-identical
    /// state and outcome to never having checkpointed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::KeyOrder`] when the home, flagged or
    /// first-detection ids do not strictly ascend, or the label table's
    /// ids are not exactly the home ids in order: a checkpoint never
    /// holds such tables, and re-sorting or deduplicating them would
    /// restore a state no run reached. Other malformed bytes fail as
    /// their [`Reader`] read does.
    pub fn restore_from(r: &mut Reader) -> Result<StreamCorrelator, CheckpointError> {
        let epoch = r.u64()?;
        let next_label = r.u64()?;
        let windows_ingested = r.u64()?;
        let windows_shed = r.u64()?;
        let n_homes = r.usize()?;
        let mut homes: Vec<HomeState> = Vec::new();
        for _ in 0..n_homes {
            let id = r.u64()?;
            if homes.last().is_some_and(|h| h.id >= id) {
                return Err(CheckpointError::KeyOrder);
            }
            let partial = r.bool()?;
            let mut cumulative = [0.0; STREAM_FEATURES];
            for v in cumulative.iter_mut() {
                *v = r.f64()?;
            }
            let profile = WindowProfile::restore_from(r)?;
            homes.push(HomeState {
                id,
                label: 0,
                partial,
                cumulative,
                profile,
            });
        }
        // The untrusted count is not used to reserve; the table is
        // trimmed to its size instead, as a live one is.
        homes.shrink_to_fit();
        if r.usize()? != homes.len() {
            return Err(CheckpointError::KeyOrder);
        }
        for state in &mut homes {
            if r.u64()? != state.id {
                return Err(CheckpointError::KeyOrder);
            }
            state.label = r.u64()?;
        }
        let n_flagged = r.usize()?;
        let mut flagged = BTreeSet::new();
        for _ in 0..n_flagged {
            let id = r.u64()?;
            if flagged.last().is_some_and(|&last| last >= id) {
                return Err(CheckpointError::KeyOrder);
            }
            flagged.insert(id);
        }
        let n_first = r.usize()?;
        let mut first_detection = BTreeMap::new();
        for _ in 0..n_first {
            let id = r.u64()?;
            if first_detection
                .last_key_value()
                .is_some_and(|(&last, _)| last >= id)
            {
                return Err(CheckpointError::KeyOrder);
            }
            first_detection.insert(id, r.u64()?);
        }
        let n_epochs = r.usize()?;
        let mut epochs = Vec::with_capacity(n_epochs.min(1 << 20));
        for _ in 0..n_epochs {
            epochs.push(EpochRecord {
                epoch: r.u64()?,
                homes: r.u64()?,
                alerts: r.u64()?,
                deduped: r.u64()?,
            });
        }
        Ok(StreamCorrelator {
            epoch,
            next_label,
            windows_ingested,
            windows_shed,
            homes,
            flagged,
            first_detection,
            epochs,
            scratch: CorrelatorScratch::default(),
        })
    }
}

/// Adds the homes of `ids` (ascending, repeats allowed) that `homes`
/// (strictly ascending) lacks, each with the next fresh label in id
/// order: the seed a home's first label propagation starts from. When
/// any are new, the table is rebuilt once by a merge, exactly sized, so
/// neither a late joiner shifts the table nor its capacity doubles.
fn join_new_homes(
    homes: &mut Vec<HomeState>,
    next_label: &mut u64,
    ids: impl Iterator<Item = u64> + Clone,
) {
    fn distinct(ids: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
        let mut last = None;
        ids.filter(move |&id| last.replace(id) != Some(id))
    }
    let fresh = distinct(ids.clone())
        .filter(|&id| homes.binary_search_by_key(&id, |h| h.id).is_err())
        .count();
    if fresh == 0 {
        return;
    }
    let mut merged = Vec::with_capacity(homes.len() + fresh);
    let mut old = std::mem::take(homes).into_iter().peekable();
    for id in distinct(ids) {
        while let Some(state) = old.next_if(|h| h.id < id) {
            merged.push(state);
        }
        if old.peek().is_none_or(|h| h.id != id) {
            merged.push(HomeState::new(id, *next_label));
            *next_label += 1;
        }
    }
    merged.extend(old);
    *homes = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a full window set epoch by epoch: groups `windows` by window
    /// index, ingests epochs `0..epochs` in order, and returns the outcome.
    /// `shed` is the fleet-wide count of windows evicted by the bounded
    /// per-home buffers before reaching the correlator.
    fn correlate_windows(epochs: u64, windows: &[WindowSummary], shed: u64) -> StreamOutcome {
        let mut correlator = StreamCorrelator::new();
        correlator.note_shed(shed);
        let mut by_epoch: BTreeMap<u64, Vec<WindowSummary>> = BTreeMap::new();
        for w in windows {
            by_epoch.entry(w.window).or_default().push(w.clone());
        }
        for epoch in 0..epochs {
            let batch = by_epoch.remove(&epoch).unwrap_or_default();
            correlator.ingest_epoch(&batch);
        }
        correlator.outcome()
    }

    /// Two clusters of quiet homes plus one home that turns critical
    /// from window `attack_from` on.
    fn synthetic_fleet(n_epochs: u64, attack_from: u64, deviant: u64) -> Vec<WindowSummary> {
        let mut windows = Vec::new();
        for home in 0..6u64 {
            for w in 0..n_epochs {
                let mut features = [0.0; STREAM_FEATURES];
                features[feature::EVIDENCE] = 4.0 + home as f64 * 0.01;
                features[feature::FORWARDED] = 50.0 + home as f64 * 0.1;
                features[feature::WIRE_BYTES] = 5_000.0;
                features[feature::PACKETS] = 60.0;
                if home == deviant && w >= attack_from {
                    features[feature::CRITICALS] = 2.0;
                    features[feature::WIRE_BYTES] = 90_000.0;
                    features[feature::PACKETS] = 900.0;
                }
                windows.push(WindowSummary {
                    home,
                    window: w,
                    partial: false,
                    features,
                });
            }
        }
        windows
    }

    #[test]
    fn deviant_home_is_first_detected_at_its_attack_epoch_and_deduped_after() {
        let outcome = correlate_windows(10, &synthetic_fleet(10, 4, 3), 0);
        assert_eq!(outcome.epochs.len(), 10);
        assert!(outcome.flagged.contains(&3), "{outcome:?}");
        assert_eq!(outcome.first_detection.get(&3), Some(&4), "{outcome:?}");
        // Epochs after first detection dedup instead of re-alerting.
        let after: u64 = outcome.epochs[5..].iter().map(|e| e.alerts).sum();
        let deduped: u64 = outcome.epochs[5..].iter().map(|e| e.deduped).sum();
        assert_eq!(after, 0, "{outcome:?}");
        assert!(deduped >= 5, "{outcome:?}");
        assert_eq!(outcome.windows_ingested, 60);
    }

    #[test]
    fn outcome_is_arrival_order_independent() {
        let windows = synthetic_fleet(6, 2, 5);
        let mut reversed = windows.clone();
        reversed.reverse();
        let a = correlate_windows(6, &windows, 0);
        let b = correlate_windows(6, &reversed, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn missing_windows_and_shed_accounting_are_tolerated() {
        let mut windows = synthetic_fleet(5, 1, 2);
        // Home 4 truncates after two windows; one of home 0's windows is
        // shed before reaching the correlator.
        windows.retain(|w| !(w.home == 4 && w.window >= 2));
        windows.retain(|w| !(w.home == 0 && w.window == 3));
        let outcome = correlate_windows(5, &windows, 1);
        assert_eq!(outcome.windows_shed, 1);
        assert_eq!(outcome.windows_ingested, windows.len() as u64);
        assert_eq!(outcome.epochs.len(), 5);
    }

    #[test]
    fn partial_homes_are_annotated() {
        let mut windows = synthetic_fleet(4, 1, 2);
        for w in &mut windows {
            if w.home == 1 {
                w.partial = true;
            }
        }
        let outcome = correlate_windows(4, &windows, 0);
        assert_eq!(outcome.partial_homes, vec![1]);
    }

    fn checkpoint(correlator: &StreamCorrelator) -> Vec<u8> {
        let mut w = Writer::new();
        correlator.checkpoint_into(&mut w);
        w.into_bytes()
    }

    /// Restores a correlator that must fill `bytes` exactly.
    fn restore(bytes: &[u8]) -> Result<StreamCorrelator, CheckpointError> {
        let mut r = Reader::new(bytes);
        let correlator = StreamCorrelator::restore_from(&mut r)?;
        r.finish()?;
        Ok(correlator)
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_at_every_split() {
        let n_epochs = 8u64;
        let windows = synthetic_fleet(n_epochs, 3, 1);
        let mut by_epoch: BTreeMap<u64, Vec<WindowSummary>> = BTreeMap::new();
        for w in &windows {
            by_epoch.entry(w.window).or_default().push(w.clone());
        }
        // Uninterrupted reference.
        let mut reference = StreamCorrelator::new();
        for e in 0..n_epochs {
            reference.ingest_epoch(&by_epoch[&e]);
        }
        let reference_bytes = checkpoint(&reference);

        for split in 0..=n_epochs {
            let mut first = StreamCorrelator::new();
            for e in 0..split {
                first.ingest_epoch(&by_epoch[&e]);
            }
            let mid = checkpoint(&first);
            let mut resumed = restore(&mid).expect("restore");
            assert_eq!(resumed.epoch(), split);
            for e in split..n_epochs {
                resumed.ingest_epoch(&by_epoch[&e]);
            }
            assert_eq!(
                checkpoint(&resumed),
                reference_bytes,
                "split at epoch {split} diverged"
            );
            assert_eq!(resumed.outcome(), reference.outcome());
        }
    }

    #[test]
    fn restore_rejects_malformed_buffers() {
        let correlator = StreamCorrelator::new();
        let bytes = checkpoint(&correlator);
        assert_eq!(
            restore(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(restore(&trailing), Err(CheckpointError::TrailingBytes));
        // And the empty round trip works.
        let restored = restore(&bytes).expect("restore");
        assert_eq!(restored, correlator);

        // A home's `partial` flag is a bool: a tag of 2 does not restore.
        // It follows the four counters, the home count, and the first
        // home's id.
        let mut populated = StreamCorrelator::new();
        populated.ingest_epoch(&synthetic_fleet(1, 1, 0));
        let mut bad_partial = checkpoint(&populated);
        let tag = 4 * 8 + 8 + 8;
        assert_eq!(bad_partial[tag], 0, "the first home is not partial");
        bad_partial[tag] = 2;
        assert_eq!(restore(&bad_partial), Err(CheckpointError::Truncated));
        bad_partial[tag] = 1;
        assert!(restore(&bad_partial).is_ok());
    }
}
