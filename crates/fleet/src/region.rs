//! The region tier of the two-tier fleet aggregation topology.
//!
//! `run_fleet` no longer funnels every home's full outcome into one
//! global vector: each finished home is routed (by its stamped logical
//! region) to a [`RegionAggregator`], which folds it into *mergeable*
//! per-region state — exact streaming median/MAD accumulators
//! ([`xlf_stream::RobustAccumulator`], proven bit-equal merged-vs-batch),
//! outcome/evidence tallies, and a bounded candidate-deviant pre-filter.
//! The global pass then correlates the compact region summaries plus the
//! forwarded candidates instead of all homes.
//!
//! **Determinism.** Everything a slot accumulates is a *set* property of
//! the homes routed to it: tallies are commutative, the sample columns
//! are sorted by `total_cmp` once the slot is gathered (values that
//! compare equal have equal bits, so arrival order is invisible), and
//! the candidate pre-filter selects the K magnitude extremes under a
//! strict total order (magnitude, then home id). So the gathered slot
//! state — and therefore the fleet report — is byte-identical for any
//! worker count, any arrival order, and any number of aggregator
//! instances. A home's *logical*
//! region is data (a pure hash, like its template/attack/fault);
//! [`FleetSpec::regions`] only decides how many aggregator instances the
//! logical slots are sharded across.
//!
//! **Candidate pre-filter.** A home is forwarded to the global pass when
//! it is (a) an *always*-candidate — its own Core raised criticals,
//! quarantined a device, or shed evidence under overload — or (b) among
//! its region's per-template top-K / bottom-K feature-magnitude extremes.
//! Both clauses are partition-invariant: (a) is a pure per-home
//! predicate, and (b) is a per-(logical slot, template) extreme-K under
//! a strict total order. The global pass can therefore see every
//! self-reporting home and every behavioural outlier, but never the
//! benign bulk — which is what makes candidates-only retention
//! ([`RowPolicy::CandidatesOnly`]) sublinear in fleet size.

use crate::engine::HomeStream;
use crate::snapshot;
use crate::spec::{FleetSpec, HomeSpec, RowPolicy};
use crate::supervise::HomeOutcome;
use std::collections::{BTreeMap, BTreeSet};
use xlf_core::framework::HomeReport;
use xlf_stream::{CheckpointError, Reader, RobustAccumulator, Writer};

/// Feature vector the fleet tier correlates: the home's
/// traffic-behaviour window plus its evidence-store summary and fused
/// verdict — "aggregates the raw and the detection results … from each
/// layer", one tier up. Non-finite components are zeroed so one NaN
/// cannot poison the merged statistics (the home is scored on what it
/// did report).
pub(crate) fn fleet_features(report: &HomeReport) -> Vec<f64> {
    let mut f = Vec::with_capacity(report.features.len() + 3);
    push_fleet_features(report, &mut f);
    f
}

/// Appends the [`fleet_features`] of `report` to `out`.
fn push_fleet_features(report: &HomeReport, out: &mut Vec<f64>) {
    let start = out.len();
    out.extend_from_slice(&report.features);
    out.push(report.evidence_total as f64);
    out.push(report.dropped_packets as f64);
    out.push(report.top_score);
    for v in &mut out[start..] {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
}

/// Scalar magnitude ordering homes within a region for the extreme-K
/// pre-filter: `Σ_d ln(1 + |x_d|)` — log-compressed so one huge
/// dimension cannot completely drown the rest, monotone in every
/// dimension so genuine outliers land at the extremes.
pub(crate) fn feature_magnitude(features: &[f64]) -> f64 {
    features.iter().map(|x| (1.0 + x.abs()).ln()).sum()
}

/// Which side of the magnitude order an extreme-K list keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Keep {
    Largest,
    Smallest,
}

/// A bounded list of the K extreme `(magnitude, id)` pairs seen so far,
/// under the strict total order (`total_cmp` on magnitude, then id).
/// Arrival-order independent: the retained set is exactly the K extremes
/// of the population, whatever order they arrived in.
#[derive(Debug, Clone)]
struct ExtremeK {
    keep: Keep,
    k: usize,
    /// Sorted ascending by (magnitude, id).
    items: Vec<(f64, u64)>,
}

impl ExtremeK {
    fn new(keep: Keep, k: usize) -> Self {
        ExtremeK {
            keep,
            k: k.max(1),
            items: Vec::new(),
        }
    }

    /// Inserts one home; returns the id evicted to stay within K, if
    /// any.
    fn insert(&mut self, magnitude: f64, id: u64) -> Option<u64> {
        let key = (magnitude, id);
        let at = self
            .items
            .partition_point(|&(m, i)| m.total_cmp(&key.0).then(i.cmp(&key.1)).is_lt());
        self.items.insert(at, key);
        if self.items.len() <= self.k {
            return None;
        }
        let evicted = match self.keep {
            Keep::Largest => self.items.remove(0),
            Keep::Smallest => self.items.pop().unwrap_or((0.0, 0)),
        };
        Some(evicted.1)
    }

    fn contains(&self, id: u64) -> bool {
        self.items.iter().any(|&(_, i)| i == id)
    }

    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().map(|&(_, i)| i)
    }

    /// Serializes the retained extreme pairs (the keep side and K are
    /// config, rebuilt at restore).
    fn checkpoint_into(&self, w: &mut Writer) {
        w.usize(self.items.len());
        for &(magnitude, id) in &self.items {
            w.f64(magnitude);
            w.u64(id);
        }
    }

    /// Restores a list serialized with [`ExtremeK::checkpoint_into`]
    /// under the configured keep side and K.
    fn restore_from(r: &mut Reader, keep: Keep, k: usize) -> Result<Self, CheckpointError> {
        let n = r.usize()?;
        let k = k.max(1);
        if n > k {
            return Err(CheckpointError::Truncated);
        }
        let mut items = Vec::new();
        for _ in 0..n {
            let magnitude = r.f64()?;
            let id = r.u64()?;
            items.push((magnitude, id));
        }
        Ok(ExtremeK { keep, k, items })
    }
}

/// Per-(region, template) mergeable state: one sample column per
/// feature plus the two extreme-K candidate lists.
#[derive(Debug, Clone)]
pub(crate) struct TemplateStats {
    /// One sample column per feature dimension, sorted once the slot is
    /// gathered ([`RegionSlot::gathered`]).
    pub(crate) features: Vec<Vec<f64>>,
    /// Feature rows consumed since, back to back, and each row's length.
    /// One append per home touches a line or two of memory where a push
    /// per column touched one per feature; gathering moves the rows into
    /// the columns.
    rows: Vec<f64>,
    row_lens: Vec<usize>,
    top: ExtremeK,
    bottom: ExtremeK,
}

impl TemplateStats {
    fn new(k: usize) -> Self {
        TemplateStats {
            features: Vec::new(),
            rows: Vec::new(),
            row_lens: Vec::new(),
            top: ExtremeK::new(Keep::Largest, k),
            bottom: ExtremeK::new(Keep::Smallest, k),
        }
    }

    /// Moves the consumed rows into the columns and sorts each column by
    /// `total_cmp`.
    fn gather(&mut self) {
        let width = self.row_lens.iter().copied().max().unwrap_or(0);
        if self.features.len() < width {
            self.features.resize_with(width, Vec::new);
        }
        for column in &mut self.features {
            column.reserve_exact(self.row_lens.len());
        }
        let mut rows = std::mem::take(&mut self.rows).into_iter();
        for len in std::mem::take(&mut self.row_lens) {
            for (column, x) in self.features.iter_mut().zip(rows.by_ref().take(len)) {
                column.push(x);
            }
        }
        for column in &mut self.features {
            column.sort_unstable_by(f64::total_cmp);
        }
    }
}

/// The compact per-region summary the global pass correlates (and the
/// report's v6 `regions` section serializes): outcome/evidence tallies,
/// forwarded-candidate count, and the region's magnitude merge stats.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSummary {
    /// Logical region id (`0..region_slots`).
    pub region: u32,
    /// Homes routed to this region.
    pub homes: u64,
    /// Homes that ran to the horizon.
    pub ok: u64,
    /// Homes truncated by the step event budget.
    pub degraded: u64,
    /// Homes that panicked past their retry budget.
    pub run_failed: u64,
    /// Homes that never built.
    pub build_failed: u64,
    /// Candidate deviants this region forwarded to the global pass.
    pub candidates: u64,
    /// Evidence records aggregated across the region's completed homes.
    pub evidence: u64,
    /// Evidence shed under overload across the region's completed homes.
    pub evidence_shed: u64,
    /// Completed homes whose own Core raised at least one critical.
    pub homes_with_critical: u64,
    /// Completed homes with at least one quarantined device.
    pub homes_with_quarantine: u64,
    /// Samples in the region's merge statistics (== completed homes).
    pub samples: u64,
    /// Median feature magnitude across the region's completed homes.
    pub magnitude_median: f64,
    /// MAD of feature magnitude across the region's completed homes.
    pub magnitude_mad: f64,
}

/// One logical region's accumulated state.
#[derive(Debug)]
pub(crate) struct RegionSlot {
    pub(crate) homes: u64,
    pub(crate) ok: u64,
    pub(crate) degraded: u64,
    pub(crate) run_failed: u64,
    pub(crate) build_failed: u64,
    pub(crate) evidence: u64,
    pub(crate) evidence_dropped: u64,
    pub(crate) evidence_shed: u64,
    pub(crate) forwarded: u64,
    pub(crate) dropped_packets: u64,
    pub(crate) homes_with_critical: u64,
    pub(crate) homes_with_quarantine: u64,
    /// Mergeable per-template statistics (keyed by template index —
    /// BTreeMap so gathering iterates in stable order).
    pub(crate) stats: BTreeMap<usize, TemplateStats>,
    /// Region-wide magnitude samples (their median/MAD are reported in
    /// the summary); ordered like [`TemplateStats::features`].
    pub(crate) magnitude: Vec<f64>,
    /// Always-candidates: criticals / quarantine / evidence shed.
    always: BTreeSet<u64>,
    /// Retained outcome triples, keyed by home id. Under
    /// [`RowPolicy::Full`] every triple; under
    /// [`RowPolicy::CandidatesOnly`] only candidates and
    /// degraded/failed/build-failed homes (those always reach their
    /// report sections). Boxed: when homes tie in magnitude, nearly every
    /// arrival enters a top-K list and evicts another, and the tree then
    /// shifts pointers instead of ~270-byte triples.
    pub(crate) retained: BTreeMap<u64, Box<(HomeSpec, HomeOutcome, HomeStream)>>,
}

impl RegionSlot {
    fn new() -> Self {
        RegionSlot {
            homes: 0,
            ok: 0,
            degraded: 0,
            run_failed: 0,
            build_failed: 0,
            evidence: 0,
            evidence_dropped: 0,
            evidence_shed: 0,
            forwarded: 0,
            dropped_packets: 0,
            homes_with_critical: 0,
            homes_with_quarantine: 0,
            stats: BTreeMap::new(),
            magnitude: Vec::new(),
            always: BTreeSet::new(),
            retained: BTreeMap::new(),
        }
    }

    /// Ids this region forwards to the global pass, in id order.
    pub(crate) fn candidate_ids(&self) -> BTreeSet<u64> {
        let mut ids = self.always.clone();
        for stats in self.stats.values() {
            ids.extend(stats.top.ids());
            ids.extend(stats.bottom.ids());
        }
        ids
    }

    fn is_candidate(&self, template: usize, id: u64) -> bool {
        if self.always.contains(&id) {
            return true;
        }
        self.stats
            .get(&template)
            .is_some_and(|s| s.top.contains(id) || s.bottom.contains(id))
    }

    fn consume(
        &mut self,
        hs: HomeSpec,
        outcome: HomeOutcome,
        stream: HomeStream,
        k: usize,
        policy: RowPolicy,
    ) {
        self.homes += 1;
        let id = hs.id;
        let template = hs.template;
        let mut candidate_ok = false;
        match &outcome {
            HomeOutcome::Ok { report, .. } => {
                self.ok += 1;
                self.evidence += report.evidence_total as u64;
                self.evidence_dropped += report.evidence_dropped;
                self.evidence_shed += report.evidence_shed;
                self.forwarded += report.forwarded;
                self.dropped_packets += report.dropped_packets;
                if report.critical_alerts > 0 {
                    self.homes_with_critical += 1;
                }
                if !report.quarantined.is_empty() {
                    self.homes_with_quarantine += 1;
                }
                let stats = self
                    .stats
                    .entry(template)
                    .or_insert_with(|| TemplateStats::new(k));
                let start = stats.rows.len();
                push_fleet_features(report, &mut stats.rows);
                let f = &stats.rows[start..];
                stats.row_lens.push(f.len());
                let mag = feature_magnitude(f);
                self.magnitude.push(mag);
                if report.critical_alerts > 0
                    || !report.quarantined.is_empty()
                    || report.evidence_shed > 0
                {
                    self.always.insert(id);
                }
                let evicted_top = stats.top.insert(mag, id);
                let evicted_bottom = stats.bottom.insert(mag, id);
                candidate_ok = true;
                if policy == RowPolicy::CandidatesOnly {
                    for evicted in [evicted_top, evicted_bottom].into_iter().flatten() {
                        if !self.is_candidate(template, evicted) {
                            self.retained.remove(&evicted);
                        }
                    }
                    candidate_ok = self.is_candidate(template, id);
                }
            }
            HomeOutcome::Degraded { .. } => self.degraded += 1,
            HomeOutcome::Failed(_) => self.run_failed += 1,
            HomeOutcome::BuildFailed(_) => self.build_failed += 1,
        }
        // Non-Ok outcomes are always retained (they fill the report's
        // quarantine sections and are rare by construction); Ok homes
        // are retained per policy.
        let retain = match &outcome {
            HomeOutcome::Ok { .. } => policy == RowPolicy::Full || candidate_ok,
            _ => true,
        };
        if retain {
            self.retained.insert(id, Box::new((hs, outcome, stream)));
        }
    }

    /// Sorts every sample column once, by `total_cmp`: the slot is read
    /// from here on (global merge, summary, snapshot encode). Keeping
    /// columns sorted on every consume would make region consume
    /// quadratic in the region's home count.
    fn gathered(mut self) -> Self {
        for stats in self.stats.values_mut() {
            stats.gather();
        }
        self.magnitude.sort_unstable_by(f64::total_cmp);
        self
    }

    /// The compact summary the global pass (and the report's `regions`
    /// section) sees.
    pub(crate) fn summary(&self, region: u32) -> RegionSummary {
        let magnitude = RobustAccumulator::from_samples(&self.magnitude);
        RegionSummary {
            region,
            homes: self.homes,
            ok: self.ok,
            degraded: self.degraded,
            run_failed: self.run_failed,
            build_failed: self.build_failed,
            candidates: self.candidate_ids().len() as u64,
            evidence: self.evidence,
            evidence_shed: self.evidence_shed,
            homes_with_critical: self.homes_with_critical,
            homes_with_quarantine: self.homes_with_quarantine,
            samples: magnitude.len() as u64,
            magnitude_median: magnitude.median(),
            magnitude_mad: magnitude.mad(),
        }
    }

    /// Serializes the slot's full mergeable state into a run snapshot.
    /// The slot must be gathered (its columns sorted). The [`HomeSpec`]s of retained triples are *not* serialized — they
    /// are pure functions of `(master_seed, id)` and are re-stamped at
    /// restore.
    pub(crate) fn checkpoint_into(&self, w: &mut Writer) {
        for tally in [
            self.homes,
            self.ok,
            self.degraded,
            self.run_failed,
            self.build_failed,
            self.evidence,
            self.evidence_dropped,
            self.evidence_shed,
            self.forwarded,
            self.dropped_packets,
            self.homes_with_critical,
            self.homes_with_quarantine,
        ] {
            w.u64(tally);
        }
        w.usize(self.stats.len());
        for (&template, stats) in &self.stats {
            debug_assert!(stats.rows.is_empty(), "only gathered slots are serialized");
            w.usize(template);
            w.usize(stats.features.len());
            for column in &stats.features {
                write_samples(w, column);
            }
            stats.top.checkpoint_into(w);
            stats.bottom.checkpoint_into(w);
        }
        write_samples(w, &self.magnitude);
        w.usize(self.always.len());
        for &id in &self.always {
            w.u64(id);
        }
        w.usize(self.retained.len());
        for (&id, retained) in &self.retained {
            let (_, outcome, stream) = &**retained;
            w.u64(id);
            snapshot::write_outcome(w, outcome);
            snapshot::write_stream(w, stream);
        }
    }

    /// Restores a slot serialized with [`RegionSlot::checkpoint_into`].
    /// `candidates` is the configured extreme-K width and `specs` the
    /// re-stamped home specs by id (a retained id the spec did not stamp
    /// is a framing error).
    pub(crate) fn restore_from(
        r: &mut Reader,
        candidates: usize,
        specs: &BTreeMap<u64, HomeSpec>,
    ) -> Result<RegionSlot, CheckpointError> {
        let mut slot = RegionSlot::new();
        slot.homes = r.u64()?;
        slot.ok = r.u64()?;
        slot.degraded = r.u64()?;
        slot.run_failed = r.u64()?;
        slot.build_failed = r.u64()?;
        slot.evidence = r.u64()?;
        slot.evidence_dropped = r.u64()?;
        slot.evidence_shed = r.u64()?;
        slot.forwarded = r.u64()?;
        slot.dropped_packets = r.u64()?;
        slot.homes_with_critical = r.u64()?;
        slot.homes_with_quarantine = r.u64()?;
        let n_stats = r.usize()?;
        for _ in 0..n_stats {
            let template = r.usize()?;
            let dims = r.usize()?;
            let mut stats = TemplateStats::new(candidates);
            for _ in 0..dims {
                stats.features.push(read_samples(r)?);
            }
            stats.top = ExtremeK::restore_from(r, Keep::Largest, candidates)?;
            stats.bottom = ExtremeK::restore_from(r, Keep::Smallest, candidates)?;
            slot.stats.insert(template, stats);
        }
        slot.magnitude = read_samples(r)?;
        let n_always = r.usize()?;
        for _ in 0..n_always {
            slot.always.insert(r.u64()?);
        }
        let n_retained = r.usize()?;
        for _ in 0..n_retained {
            let id = r.u64()?;
            let outcome = snapshot::read_outcome(r)?;
            let stream = snapshot::read_stream(r)?;
            let hs = specs.get(&id).cloned().ok_or(CheckpointError::Truncated)?;
            slot.retained.insert(id, Box::new((hs, outcome, stream)));
        }
        Ok(slot.gathered())
    }
}

/// Bit-exact sample-column serde: the sorted samples, each as its f64
/// bit pattern. Restore sorts once more, which keeps the sorted
/// invariant even on corrupted (re-ordered) input.
fn write_samples(w: &mut Writer, samples: &[f64]) {
    debug_assert!(
        samples.is_sorted_by(|a, b| a.total_cmp(b).is_le()),
        "only gathered slots are serialized"
    );
    w.usize(samples.len());
    for &x in samples {
        w.f64(x);
    }
}

fn read_samples(r: &mut Reader) -> Result<Vec<f64>, CheckpointError> {
    let n = r.usize()?;
    let mut samples = Vec::new();
    for _ in 0..n {
        samples.push(r.f64()?);
    }
    Ok(samples)
}

/// One region-aggregation shard: owns the logical slots `s` with
/// `s % instances == index` and folds finished homes into them as the
/// workers ship outcomes — the engine never holds the whole fleet in one
/// vector again.
#[derive(Debug)]
pub struct RegionAggregator {
    region_slots: usize,
    region_candidates: usize,
    row_policy: RowPolicy,
    index: usize,
    instances: usize,
    slots: BTreeMap<u32, RegionSlot>,
}

impl RegionAggregator {
    /// One shard of a `instances`-way region tier (this is shard
    /// `index`), configured from the fleet spec.
    pub fn new(spec: &FleetSpec, index: usize, instances: usize) -> Self {
        Self::from_parts(
            spec.region_slots,
            spec.region_candidates,
            spec.row_policy,
            index,
            instances,
        )
    }

    /// As [`RegionAggregator::new`] but from the raw knobs (the batch
    /// aggregation wrapper builds its single instance without a spec in
    /// hand).
    pub fn from_parts(
        region_slots: usize,
        region_candidates: usize,
        row_policy: RowPolicy,
        index: usize,
        instances: usize,
    ) -> Self {
        let instances = instances.max(1);
        assert!(index < instances, "shard index out of range");
        RegionAggregator {
            region_slots: region_slots.max(1),
            region_candidates: region_candidates.max(1),
            row_policy,
            index,
            instances,
            slots: BTreeMap::new(),
        }
    }

    /// Which shard a logical region lives in.
    pub fn shard_of(region: u32, instances: usize) -> usize {
        region as usize % instances.max(1)
    }

    /// Folds one finished home into its logical region's state.
    pub fn consume(&mut self, hs: HomeSpec, outcome: HomeOutcome, stream: HomeStream) {
        let region = hs.region % self.region_slots as u32;
        debug_assert_eq!(
            Self::shard_of(region, self.instances),
            self.index,
            "home routed to the wrong region shard"
        );
        let k = self.region_candidates;
        let policy = self.row_policy;
        self.slots
            .entry(region)
            .or_insert_with(RegionSlot::new)
            .consume(hs, outcome, stream, k, policy);
    }

    /// Removes and returns one logical slot's state (an empty slot for
    /// regions no home was routed to). The global pass gathers slots in
    /// ascending region order, so the merged state is independent of how
    /// slots were sharded across instances.
    pub(crate) fn take_slot(&mut self, region: u32) -> RegionSlot {
        self.slots
            .remove(&region)
            .unwrap_or_else(RegionSlot::new)
            .gathered()
    }

    /// Number of logical regions this tier was configured with.
    pub fn region_slots(&self) -> usize {
        self.region_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetAttack, FleetFault};

    fn report(seed: u64, traffic: f64, criticals: usize, shed: u64) -> HomeReport {
        HomeReport {
            seed,
            evidence_total: 10,
            evidence_dropped: shed,
            evidence_shed: shed,
            evidence_by_layer: [3, 4, 3],
            warning_alerts: criticals,
            critical_alerts: criticals,
            quarantined: Vec::new(),
            top_device: "cam".to_string(),
            top_score: 0.1,
            forwarded: 100,
            dropped_packets: 0,
            features: vec![traffic, 100.0, 5.0, traffic * 100.0, 1.0, 0.5],
        }
    }

    fn home(id: u64, region: u32) -> HomeSpec {
        HomeSpec {
            id,
            seed: id,
            template: 0,
            attack: FleetAttack::None,
            fault: FleetFault::None,
            region,
        }
    }

    fn ok(r: HomeReport) -> HomeOutcome {
        HomeOutcome::Ok {
            report: r,
            observer_accuracy: None,
        }
    }

    #[test]
    fn extreme_k_keeps_the_k_extremes_in_any_arrival_order() {
        let mags: Vec<f64> = vec![5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let mut forward = ExtremeK::new(Keep::Largest, 3);
        for (i, &m) in mags.iter().enumerate() {
            forward.insert(m, i as u64);
        }
        let mut backward = ExtremeK::new(Keep::Largest, 3);
        for (i, &m) in mags.iter().enumerate().rev() {
            backward.insert(m, i as u64);
        }
        let f: Vec<u64> = forward.ids().collect();
        let b: Vec<u64> = backward.ids().collect();
        assert_eq!(f, b);
        assert_eq!(f, vec![4, 6, 2], "ids of magnitudes 7, 8, 9 ascending");
        let mut small = ExtremeK::new(Keep::Smallest, 2);
        for (i, &m) in mags.iter().enumerate() {
            small.insert(m, i as u64);
        }
        assert_eq!(small.ids().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn extreme_k_breaks_magnitude_ties_by_id() {
        let mut a = ExtremeK::new(Keep::Largest, 2);
        for id in [3u64, 1, 2] {
            a.insert(1.0, id);
        }
        let mut b = ExtremeK::new(Keep::Largest, 2);
        for id in [2u64, 1, 3] {
            b.insert(1.0, id);
        }
        assert_eq!(a.ids().collect::<Vec<_>>(), b.ids().collect::<Vec<_>>());
        // Largest keeps the highest (mag, id) pairs: ids 2 and 3.
        assert_eq!(a.ids().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn slot_state_is_arrival_order_independent() {
        let spec = FleetSpec::new(1, 0);
        let mut fwd = RegionAggregator::new(&spec, 0, 1);
        let mut rev = RegionAggregator::new(&spec, 0, 1);
        let items: Vec<(HomeSpec, HomeOutcome)> = (0..20)
            .map(|i| {
                (
                    home(i, 0),
                    ok(report(i, 50.0 + i as f64, usize::from(i == 7), 0)),
                )
            })
            .collect();
        for (hs, o) in items.iter() {
            fwd.consume(hs.clone(), o.clone(), HomeStream::default());
        }
        for (hs, o) in items.iter().rev() {
            rev.consume(hs.clone(), o.clone(), HomeStream::default());
        }
        let a = fwd.take_slot(0);
        let b = rev.take_slot(0);
        assert_eq!(a.summary(0), b.summary(0));
        assert_eq!(a.candidate_ids(), b.candidate_ids());
        assert_eq!(a.stats[&0].features[0], b.stats[&0].features[0]);
    }

    #[test]
    fn candidates_only_retention_keeps_extremes_and_always_candidates() {
        let mut spec = FleetSpec::new(1, 0).with_region_candidates(2);
        spec.row_policy = RowPolicy::CandidatesOnly;
        let mut agg = RegionAggregator::new(&spec, 0, 1);
        // 30 benign homes with increasing traffic, one critical home in
        // the middle of the pack, one shedding home.
        for i in 0..30u64 {
            agg.consume(
                home(i, 0),
                ok(report(
                    i,
                    50.0 + i as f64,
                    usize::from(i == 13),
                    u64::from(i == 17),
                )),
                HomeStream::default(),
            );
        }
        let slot = agg.take_slot(0);
        let candidates = slot.candidate_ids();
        // Top-2 by magnitude (ids 28, 29), bottom-2 (ids 0, 1), plus the
        // critical home 13 and the shedding home 17.
        let expected: BTreeSet<u64> = [0, 1, 13, 17, 28, 29].into_iter().collect();
        assert_eq!(candidates, expected);
        // Retention is exactly the candidate set (no non-Ok homes here),
        // so memory is bounded by K, not fleet size.
        let retained: BTreeSet<u64> = slot.retained.keys().copied().collect();
        assert_eq!(retained, expected);
        // The merge statistics still cover every home.
        assert_eq!(slot.summary(0).samples, 30);
        assert_eq!(slot.stats[&0].features[0].len(), 30);
    }

    #[test]
    fn full_retention_keeps_every_triple() {
        let spec = FleetSpec::new(1, 0).with_region_candidates(2);
        let mut agg = RegionAggregator::new(&spec, 0, 1);
        for i in 0..10u64 {
            agg.consume(
                home(i, 0),
                ok(report(i, 50.0 + i as f64, 0, 0)),
                HomeStream::default(),
            );
        }
        assert_eq!(agg.take_slot(0).retained.len(), 10);
    }

    #[test]
    fn sharded_slots_gather_to_the_same_state_as_one_instance() {
        let spec = FleetSpec::new(1, 0);
        let instances = 3;
        let mut sharded: Vec<RegionAggregator> = (0..instances)
            .map(|i| RegionAggregator::new(&spec, i, instances))
            .collect();
        let mut single = RegionAggregator::new(&spec, 0, 1);
        for i in 0..40u64 {
            let hs = home(i, (i % 8) as u32);
            let o = ok(report(i, 50.0 + (i % 11) as f64, 0, 0));
            let shard = RegionAggregator::shard_of(hs.region, instances);
            sharded[shard].consume(hs.clone(), o.clone(), HomeStream::default());
            single.consume(hs, o, HomeStream::default());
        }
        for region in 0..8u32 {
            let shard = RegionAggregator::shard_of(region, instances);
            let a = sharded[shard].take_slot(region);
            let b = single.take_slot(region);
            assert_eq!(a.summary(region), b.summary(region));
            assert_eq!(a.candidate_ids(), b.candidate_ids());
        }
    }
}
