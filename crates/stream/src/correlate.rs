//! The epoch-by-epoch stream correlator: folds window summaries into
//! online robust statistics, re-runs the community pass incrementally,
//! and fires epoch-stamped, deduplicated fleet detections mid-run.

use crate::checkpoint::{CheckpointError, Reader, Writer};
use crate::stats::RobustAccumulator;
use crate::window::{WindowSummary, STREAM_FEATURES};
use std::collections::{BTreeMap, BTreeSet};
use xlf_analytics::graph::{community_report_into, GraphScratch};

/// Checkpoint header.
const MAGIC: &[u8; 4] = b"XLFS";
const VERSION: u32 = 2;

/// Feature index of the per-window critical-alert delta (see
/// [`crate::window::STREAM_FEATURES`]).
const CRITICAL_DELTA: usize = 5;

/// Tuning for the streaming correlation pass. Defaults mirror the batch
/// fleet aggregator so streamed and batch verdicts are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// kNN graph degree.
    pub graph_k: usize,
    /// RBF similarity bandwidth.
    pub graph_gamma: f64,
    /// Label-propagation iteration cap per epoch.
    pub graph_iters: usize,
    /// Deviation-score floor below which nothing is flagged.
    pub min_deviation: f64,
    /// Robust z-score multiplier for the adaptive threshold.
    pub sigma: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            graph_k: 8,
            graph_gamma: 8.0,
            graph_iters: 100,
            min_deviation: 0.15,
            sigma: 4.0,
        }
    }
}

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

/// Per-home streaming state.
#[derive(Debug, Clone, PartialEq)]
struct HomeState {
    /// Windows folded in so far.
    windows: u64,
    /// Whether any summary was marked partial.
    partial: bool,
    /// Cumulative sum per feature (== the home's batch counters up to
    /// the last ingested window).
    cumulative: [f64; STREAM_FEATURES],
    /// Per-feature robust profile over the home's window deltas.
    stats: Vec<RobustAccumulator>,
}

impl HomeState {
    fn new() -> Self {
        HomeState {
            windows: 0,
            partial: false,
            cumulative: [0.0; STREAM_FEATURES],
            stats: vec![RobustAccumulator::new(); STREAM_FEATURES],
        }
    }

    /// Appends the feature vector this home contributes to the epoch
    /// graph: cumulative counters plus the robust (median) per-window
    /// profile, so both *how much* a home has done and *what its typical
    /// window looks like* separate it from its community. Appending into
    /// the caller's flat buffer keeps the per-epoch pass allocation-free.
    fn graph_features_into(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.cumulative);
        out.extend(self.stats.iter().map(|a| a.median()));
    }
}

/// Reusable per-epoch working buffers: the id/seed staging vectors, the
/// flat feature buffer, and the whole graph-pipeline scratch. Transient
/// working state only — excluded from equality and from checkpoints, so
/// checkpoint bytes are identical to the pre-scratch format.
#[derive(Debug, Clone, Default)]
struct CorrelatorScratch {
    ids: Vec<u64>,
    features: Vec<f64>,
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
#[derive(Debug, Clone)]
pub struct StreamCorrelator {
    cfg: StreamConfig,
    epoch: u64,
    next_label: u64,
    windows_ingested: u64,
    windows_shed: u64,
    homes: BTreeMap<u64, HomeState>,
    /// Community label per home, carried across epochs (the incremental
    /// seed for label propagation).
    labels: BTreeMap<u64, u64>,
    /// Homes already flagged (dedup set).
    flagged: BTreeSet<u64>,
    /// First-detection epoch per flagged home.
    first_detection: BTreeMap<u64, u64>,
    epochs: Vec<EpochRecord>,
    scratch: CorrelatorScratch,
}

impl PartialEq for StreamCorrelator {
    /// Equality covers the correlator's logical state only — exactly
    /// what [`StreamCorrelator::checkpoint`] captures. The scratch
    /// buffers are warm caches, not state.
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.epoch == other.epoch
            && self.next_label == other.next_label
            && self.windows_ingested == other.windows_ingested
            && self.windows_shed == other.windows_shed
            && self.homes == other.homes
            && self.labels == other.labels
            && self.flagged == other.flagged
            && self.first_detection == other.first_detection
            && self.epochs == other.epochs
    }
}

impl StreamCorrelator {
    /// A fresh correlator at epoch 0.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamCorrelator {
            cfg,
            epoch: 0,
            next_label: 0,
            windows_ingested: 0,
            windows_shed: 0,
            homes: BTreeMap::new(),
            labels: BTreeMap::new(),
            flagged: BTreeSet::new(),
            first_detection: BTreeMap::new(),
            epochs: Vec::new(),
            scratch: CorrelatorScratch::default(),
        }
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
        // Fold in id order for determinism.
        let mut ordered: Vec<&WindowSummary> = summaries.iter().collect();
        ordered.sort_by_key(|s| (s.home, s.window));
        for s in ordered {
            let state = self.homes.entry(s.home).or_insert_with(HomeState::new);
            state.windows += 1;
            state.partial |= s.partial;
            for (d, &raw) in s.features.iter().enumerate() {
                let v = if raw.is_finite() { raw } else { 0.0 };
                state.cumulative[d] += v;
                // Settled per window: the epoch pass reads every
                // profile's median.
                state.stats[d].push(v);
                state.stats[d].settle();
            }
            self.windows_ingested += 1;
        }

        // Incremental community pass over every home seen so far, run
        // entirely in the reusable scratch buffers: after the first
        // epoch at a given fleet size this allocates nothing.
        let CorrelatorScratch {
            ids,
            features,
            seed,
            graph,
            finite,
        } = &mut self.scratch;
        ids.clear();
        ids.extend(self.homes.keys().copied());
        features.clear();
        for state in self.homes.values() {
            state.graph_features_into(features);
        }
        seed.clear();
        for id in ids.iter() {
            seed.push(match self.labels.get(id) {
                Some(&l) => l as usize,
                None => {
                    let fresh = self.next_label;
                    self.next_label += 1;
                    fresh as usize
                }
            });
        }
        graph
            .matrix
            .fill_from_flat(features, ids.len(), 2 * STREAM_FEATURES);
        community_report_into(
            self.cfg.graph_k,
            self.cfg.graph_gamma,
            self.cfg.graph_iters,
            Some(seed),
            graph,
        );
        for (id, &label) in ids.iter().zip(graph.labels()) {
            self.labels.insert(*id, label as u64);
        }

        // Adaptive robust threshold over this epoch's deviation scores —
        // the same median + sigma·MAD rule as the batch aggregator.
        finite.clear();
        finite.extend(graph.scores().iter().copied().filter(|s| s.is_finite()));
        let stats = RobustAccumulator::from_samples(finite);
        let threshold = self
            .cfg
            .min_deviation
            .max(stats.median() + self.cfg.sigma * 1.4826 * stats.mad());

        // Epoch-stamped detection with dedup: a home fires at most one
        // alert across the whole run; repeats are counted, not re-raised.
        let (mut alerts, mut deduped) = (0u64, 0u64);
        for (i, &id) in ids.iter().enumerate() {
            let score = graph.scores()[i];
            let deviant = score.is_finite() && score >= threshold;
            let critical = self.homes[&id].cumulative[CRITICAL_DELTA] > 0.0;
            if !(deviant || critical) {
                continue;
            }
            if self.flagged.insert(id) {
                alerts += 1;
                self.first_detection.insert(id, self.epoch);
            } else {
                deduped += 1;
            }
        }

        let record = EpochRecord {
            epoch: self.epoch,
            homes: ids.len() as u64,
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
                .filter(|(_, s)| s.partial)
                .map(|(&id, _)| id)
                .collect(),
            windows_ingested: self.windows_ingested,
            windows_shed: self.windows_shed,
        }
    }

    /// Serializes the complete correlator state into a deterministic,
    /// versioned byte buffer. Same state → same bytes, always: the
    /// checkpoint of a resumed run byte-equals the checkpoint of an
    /// uninterrupted one.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.usize(self.cfg.graph_k);
        w.f64(self.cfg.graph_gamma);
        w.usize(self.cfg.graph_iters);
        w.f64(self.cfg.min_deviation);
        w.f64(self.cfg.sigma);
        w.u64(self.epoch);
        w.u64(self.next_label);
        w.u64(self.windows_ingested);
        w.u64(self.windows_shed);
        w.usize(self.homes.len());
        for (id, state) in &self.homes {
            w.u64(*id);
            w.u64(state.windows);
            w.u8(state.partial as u8);
            for v in state.cumulative {
                w.f64(v);
            }
            for acc in &state.stats {
                acc.checkpoint_into(&mut w);
            }
        }
        w.usize(self.labels.len());
        for (id, label) in &self.labels {
            w.u64(*id);
            w.u64(*label);
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
        w.into_bytes()
    }

    /// Restores a correlator from [`StreamCorrelator::checkpoint`]
    /// bytes. Continuing a restored correlator produces byte-identical
    /// state and outcome to never having checkpointed.
    pub fn restore(bytes: &[u8]) -> Result<StreamCorrelator, CheckpointError> {
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let cfg = StreamConfig {
            graph_k: r.usize()?,
            graph_gamma: r.f64()?,
            graph_iters: r.usize()?,
            min_deviation: r.f64()?,
            sigma: r.f64()?,
        };
        let epoch = r.u64()?;
        let next_label = r.u64()?;
        let windows_ingested = r.u64()?;
        let windows_shed = r.u64()?;
        let n_homes = r.usize()?;
        let mut homes = BTreeMap::new();
        for _ in 0..n_homes {
            let id = r.u64()?;
            let windows = r.u64()?;
            let partial = r.u8()? != 0;
            let mut cumulative = [0.0; STREAM_FEATURES];
            for v in cumulative.iter_mut() {
                *v = r.f64()?;
            }
            let mut stats = Vec::with_capacity(STREAM_FEATURES);
            for _ in 0..STREAM_FEATURES {
                stats.push(RobustAccumulator::restore_from(&mut r)?);
            }
            homes.insert(
                id,
                HomeState {
                    windows,
                    partial,
                    cumulative,
                    stats,
                },
            );
        }
        let n_labels = r.usize()?;
        let mut labels = BTreeMap::new();
        for _ in 0..n_labels {
            let id = r.u64()?;
            labels.insert(id, r.u64()?);
        }
        let n_flagged = r.usize()?;
        let mut flagged = BTreeSet::new();
        for _ in 0..n_flagged {
            flagged.insert(r.u64()?);
        }
        let n_first = r.usize()?;
        let mut first_detection = BTreeMap::new();
        for _ in 0..n_first {
            let id = r.u64()?;
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
        r.finish()?;
        Ok(StreamCorrelator {
            cfg,
            epoch,
            next_label,
            windows_ingested,
            windows_shed,
            homes,
            labels,
            flagged,
            first_detection,
            epochs,
            scratch: CorrelatorScratch::default(),
        })
    }
}

/// Replays a full window set epoch by epoch: groups `windows` by window
/// index, ingests epochs `0..epochs` in order, and returns the outcome.
/// `shed` is the fleet-wide count of windows evicted by the bounded
/// per-home buffers before reaching the correlator.
pub fn correlate_windows(
    cfg: StreamConfig,
    epochs: u64,
    windows: &[WindowSummary],
    shed: u64,
) -> StreamOutcome {
    let mut correlator = StreamCorrelator::new(cfg);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clusters of quiet homes plus one home that turns critical
    /// from window `attack_from` on.
    fn synthetic_fleet(n_epochs: u64, attack_from: u64, deviant: u64) -> Vec<WindowSummary> {
        let mut windows = Vec::new();
        for home in 0..6u64 {
            for w in 0..n_epochs {
                let mut features = [0.0; STREAM_FEATURES];
                features[0] = 4.0 + home as f64 * 0.01; // evidence
                features[6] = 50.0 + home as f64 * 0.1; // forwarded
                features[8] = 5_000.0; // wire bytes
                features[9] = 60.0; // packets
                if home == deviant && w >= attack_from {
                    features[CRITICAL_DELTA] = 2.0;
                    features[8] = 90_000.0;
                    features[9] = 900.0;
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
        let outcome = correlate_windows(StreamConfig::default(), 10, &synthetic_fleet(10, 4, 3), 0);
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
        let a = correlate_windows(StreamConfig::default(), 6, &windows, 0);
        let b = correlate_windows(StreamConfig::default(), 6, &reversed, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn missing_windows_and_shed_accounting_are_tolerated() {
        let mut windows = synthetic_fleet(5, 1, 2);
        // Home 4 truncates after two windows; one of home 0's windows is
        // shed before reaching the correlator.
        windows.retain(|w| !(w.home == 4 && w.window >= 2));
        windows.retain(|w| !(w.home == 0 && w.window == 3));
        let outcome = correlate_windows(StreamConfig::default(), 5, &windows, 1);
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
        let outcome = correlate_windows(StreamConfig::default(), 4, &windows, 0);
        assert_eq!(outcome.partial_homes, vec![1]);
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
        let mut reference = StreamCorrelator::new(StreamConfig::default());
        for e in 0..n_epochs {
            reference.ingest_epoch(&by_epoch[&e]);
        }
        let reference_bytes = reference.checkpoint();

        for split in 0..=n_epochs {
            let mut first = StreamCorrelator::new(StreamConfig::default());
            for e in 0..split {
                first.ingest_epoch(&by_epoch[&e]);
            }
            let mid = first.checkpoint();
            let mut resumed = StreamCorrelator::restore(&mid).expect("restore");
            assert_eq!(resumed.epoch(), split);
            for e in split..n_epochs {
                resumed.ingest_epoch(&by_epoch[&e]);
            }
            assert_eq!(
                resumed.checkpoint(),
                reference_bytes,
                "split at epoch {split} diverged"
            );
            assert_eq!(resumed.outcome(), reference.outcome());
        }
    }

    #[test]
    fn restore_rejects_malformed_buffers() {
        let correlator = StreamCorrelator::new(StreamConfig::default());
        let bytes = correlator.checkpoint();
        assert_eq!(
            StreamCorrelator::restore(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Y';
        assert_eq!(
            StreamCorrelator::restore(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            StreamCorrelator::restore(&bad_version),
            Err(CheckpointError::UnsupportedVersion(99))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            StreamCorrelator::restore(&trailing),
            Err(CheckpointError::TrailingBytes)
        );
        // And the empty round trip works.
        let restored = StreamCorrelator::restore(&bytes).expect("restore");
        assert_eq!(restored, correlator);
    }
}
