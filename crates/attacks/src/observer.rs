//! The passive traffic analyst of §IV-B1: Apthorpe et al.'s three-step
//! procedure (separate streams → identify devices → infer interactions)
//! plus HoMonit's packet-sequence fingerprinting of device states.
//!
//! **Metadata discipline.** The analyst consumes [`PacketRecord`]s but is
//! written to touch only the fields a real on-path observer has:
//! timestamp, endpoints, wire size, protocol. The `ground_truth_kind`
//! field is used exclusively inside [`TrafficAnalyst::train`], modeling
//! the standard assumption that the adversary owns identical devices and
//! can label their own traffic.

use xlf_analytics::fingerprint::SequenceClassifier;
use xlf_simnet::observer::PacketRecord;
use xlf_simnet::{Duration, NodeId, SimTime};

/// A burst: a maximal run of packets on one stream with inter-arrival
/// gaps below the threshold. Bursts are the unit HoMonit fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Stream endpoints (src, dst) as the observer sees them.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Start time.
    pub start: SimTime,
    /// Observable sizes in arrival order.
    pub sizes: Vec<i64>,
    /// Time of the burst's last packet.
    pub end_hint: SimTime,
}

/// Segments records into bursts per (src, dst) stream.
pub fn segment_bursts(records: &[PacketRecord], max_gap: Duration) -> Vec<Burst> {
    segment_sorted(&stream_order(records), max_gap)
        .into_iter()
        .map(|(burst, _)| burst)
        .collect()
}

/// The records in stream order: by (src, dst), then time, equal keys
/// in input order.
fn stream_order(records: &[PacketRecord]) -> Vec<&PacketRecord> {
    let mut sorted: Vec<&PacketRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.src, r.dst, r.at));
    sorted
}

/// Segments stream-ordered records into bursts, each with the index of
/// its first record in `sorted`.
fn segment_sorted(sorted: &[&PacketRecord], max_gap: Duration) -> Vec<(Burst, usize)> {
    let mut bursts: Vec<(Burst, usize)> = Vec::new();
    for (i, rec) in sorted.iter().enumerate() {
        let extend = bursts.last().is_some_and(|(b, _)| {
            b.src == rec.src && b.dst == rec.dst && rec.at.since(b.end_hint) <= max_gap
        });
        if extend {
            let (b, _) = bursts.last_mut().expect("just checked");
            b.sizes.push(rec.wire_size as i64);
            b.end_hint = rec.at;
        } else {
            let burst = Burst {
                src: rec.src,
                dst: rec.dst,
                start: rec.at,
                sizes: vec![rec.wire_size as i64],
                end_hint: rec.at,
            };
            bursts.push((burst, i));
        }
    }
    bursts
}

/// Segments records into bursts, each with its majority ground-truth
/// kind as [`majority_kind`] defines it: the most frequent kind among
/// the stream's records from the burst's start on, ties to the greatest
/// kind.
///
/// A burst opens only on a gap longer than `max_gap`, so every earlier
/// record of its stream is strictly older than its start, and the
/// window is exactly the stream's sorted records from the burst's first
/// one to the stream's end. Walking each stream from its end, the
/// counts of that suffix only grow, so the leading kind is kept as they
/// do: one pass over the records.
fn bursts_with_majority(records: &[PacketRecord], max_gap: Duration) -> Vec<(Burst, &str)> {
    let sorted = stream_order(records);
    let bursts = segment_sorted(&sorted, max_gap);
    let mut majorities = vec![""; bursts.len()];
    let mut counts: std::collections::BTreeMap<&str, u32> = std::collections::BTreeMap::new();
    let mut lead: (&str, u32) = ("", 0);
    let mut next = bursts.len();
    for (i, rec) in sorted.iter().enumerate().rev() {
        let stream_ends = sorted
            .get(i + 1)
            .is_none_or(|after| (after.src, after.dst) != (rec.src, rec.dst));
        if stream_ends {
            counts.clear();
            lead = ("", 0);
        }
        let kind = rec.ground_truth_kind.as_str();
        let count = counts.entry(kind).or_insert(0);
        *count += 1;
        if (*count, kind) > (lead.1, lead.0) {
            lead = (kind, *count);
        }
        if next > 0 && bursts[next - 1].1 == i {
            next -= 1;
            majorities[next] = lead.0;
        }
    }
    bursts
        .into_iter()
        .zip(majorities)
        .map(|((burst, _), majority)| (burst, majority))
        .collect()
}

/// The state-inference adversary.
#[derive(Debug, Default)]
pub struct TrafficAnalyst {
    classifier: SequenceClassifier,
    /// Burst gap threshold.
    pub max_gap: Duration,
}

impl TrafficAnalyst {
    /// Creates an analyst with a 2-second burst gap.
    pub fn new() -> Self {
        TrafficAnalyst {
            classifier: SequenceClassifier::new(),
            max_gap: Duration::from_secs(2),
        }
    }

    /// Trains on labeled observations of the adversary's *own* devices:
    /// bursts are labeled with the ground-truth kind active during them.
    pub fn train(&mut self, records: &[PacketRecord]) {
        // Group consecutive same-kind records into training bursts.
        let mut sorted: Vec<&PacketRecord> = records.iter().collect();
        sorted.sort_by_key(|r| (r.src, r.dst, r.at));
        let mut current: Option<(String, Vec<i64>)> = None;
        for rec in sorted {
            match &mut current {
                Some((label, sizes)) if *label == rec.ground_truth_kind => {
                    sizes.push(rec.wire_size as i64);
                }
                _ => {
                    if let Some((label, sizes)) = current.take() {
                        self.classifier.train(&label, sizes);
                    }
                    current = Some((rec.ground_truth_kind.clone(), vec![rec.wire_size as i64]));
                }
            }
        }
        if let Some((label, sizes)) = current {
            self.classifier.train(&label, sizes);
        }
    }

    /// Trains on labeled observations using the *same* burst segmentation
    /// inference uses: each burst becomes one exemplar labeled by its
    /// packets' majority ground truth. Preferred over
    /// [`TrafficAnalyst::train`] when the victim traffic will be
    /// burst-segmented.
    pub fn train_bursts(&mut self, records: &[PacketRecord]) {
        for (burst, label) in bursts_with_majority(records, self.max_gap) {
            if !label.is_empty() {
                self.classifier.train(label, burst.sizes);
            }
        }
    }

    /// Infers the label of each burst in unlabeled traffic; returns
    /// `(burst, inferred_label)` for the bursts it classified.
    pub fn infer(&self, records: &[PacketRecord]) -> Vec<(Burst, String)> {
        segment_bursts(records, self.max_gap)
            .into_iter()
            .filter_map(|b| {
                self.classifier
                    .classify(&b.sizes)
                    .map(|(label, _)| (b.clone(), label.to_string()))
            })
            .collect()
    }

    /// Scores inference accuracy against ground truth: the fraction of
    /// classified bursts whose inferred label matches the majority
    /// ground-truth kind of the burst's packets.
    pub fn accuracy(&self, records: &[PacketRecord]) -> f64 {
        let bursts = bursts_with_majority(records, self.max_gap);
        if bursts.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for (burst, truth) in &bursts {
            if let Some((label, _)) = self.classifier.classify(&burst.sizes) {
                total += 1;
                if label == *truth {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// The most frequent ground-truth kind among the burst's stream records,
/// borrowed from the records (ties go to the greatest kind, `""` when
/// none match), by a scan of every record: the definition
/// [`bursts_with_majority`] computes in one pass, kept as its oracle.
///
/// The window is every record of the stream from the burst's start on,
/// not just the burst's own records: later bursts of the same stream
/// are counted too. Scores depend on that, so narrowing the window to
/// the burst would change report bytes; it is left for a change that
/// may change them.
#[cfg(test)]
fn majority_kind<'r>(records: &'r [PacketRecord], burst: &Burst) -> &'r str {
    let mut counts = std::collections::BTreeMap::new();
    for rec in records {
        if rec.src == burst.src && rec.dst == burst.dst && rec.at >= burst.start {
            *counts.entry(rec.ground_truth_kind.as_str()).or_insert(0u32) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map_or("", |(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_simnet::Protocol;

    fn rec(at_ms: u64, src: u32, dst: u32, size: usize, kind: &str) -> PacketRecord {
        PacketRecord {
            at: SimTime::from_millis(at_ms),
            src: NodeId::from_raw(src),
            dst: NodeId::from_raw(dst),
            wire_size: size,
            protocol: Protocol::Tls,
            ground_truth_kind: kind.to_string(),
        }
    }

    #[test]
    fn bursts_split_on_gaps_and_streams() {
        let records = vec![
            rec(0, 1, 9, 100, "a"),
            rec(100, 1, 9, 100, "a"),
            rec(5000, 1, 9, 100, "a"), // gap > 2 s → new burst
            rec(100, 2, 9, 100, "b"),  // different stream
        ];
        let bursts = segment_bursts(&records, Duration::from_secs(2));
        assert_eq!(bursts.len(), 3);
    }

    #[test]
    fn analyst_identifies_device_states_from_sizes_alone() {
        // Training traffic from the adversary's own devices.
        let mut train = Vec::new();
        for i in 0..10 {
            train.push(rec(i * 100, 1, 9, 940, "streaming"));
        }
        for i in 0..10 {
            train.push(rec(100_000 + i * 30_000, 1, 9, 88, "idle"));
        }
        let mut analyst = TrafficAnalyst::new();
        analyst.train(&train);

        // Victim traffic: same size profile, different home.
        let mut victim = Vec::new();
        for i in 0..10 {
            victim.push(rec(i * 100, 5, 9, 942, "streaming"));
        }
        let inferred = analyst.infer(&victim);
        assert!(!inferred.is_empty());
        assert!(inferred.iter().all(|(_, label)| label == "streaming"));
        assert!(analyst.accuracy(&victim) > 0.9);
    }

    #[test]
    fn shaped_traffic_defeats_the_analyst() {
        // All packets padded to a constant size and paced: idle and
        // streaming become indistinguishable.
        let mut train = Vec::new();
        for i in 0..10 {
            train.push(rec(i * 500, 1, 9, 1000, "streaming"));
        }
        for i in 0..10 {
            train.push(rec(100_000 + i * 500, 1, 9, 1000, "idle"));
        }
        let mut analyst = TrafficAnalyst::new();
        analyst.train(&train);

        let mut victim = Vec::new();
        for i in 0..10 {
            victim.push(rec(i * 500, 5, 9, 1000, "idle"));
        }
        // Whatever the analyst answers, accuracy collapses to chance-ish:
        // both labels have identical fingerprints, so the nearest match is
        // arbitrary. We assert it cannot be reliably correct.
        let acc = analyst.accuracy(&victim);
        assert!(acc <= 1.0); // sanity
                             // Re-run with "streaming" as truth; at most one of the two can be
                             // classified correctly, never both.
        let mut victim2 = Vec::new();
        for i in 0..10 {
            victim2.push(rec(i * 500, 5, 9, 1000, "streaming"));
        }
        let acc2 = analyst.accuracy(&victim2);
        assert!(
            acc + acc2 <= 1.0 + 1e-9,
            "indistinguishable classes cannot both be right (acc={acc}, acc2={acc2})"
        );
    }

    proptest::proptest! {
        /// Over random streams (few endpoints and kinds, so ties and
        /// shared streams are common; coarse times, so equal timestamps
        /// are too), each burst's one-pass majority equals the scan of
        /// every record.
        #[test]
        fn one_pass_majorities_equal_the_scan(
            raw in proptest::collection::vec((0u64..40, 1u32..4, 8u32..10, 0usize..4), 0..120),
            gap_ms in 0u64..3000,
        ) {
            const KINDS: [&str; 4] = ["a", "b", "idle", "streaming"];
            let records: Vec<PacketRecord> = raw
                .iter()
                .map(|&(at, src, dst, kind)| rec(at * 250, src, dst, 100, KINDS[kind]))
                .collect();
            let gap = Duration::from_millis(gap_ms);
            let fast = bursts_with_majority(&records, gap);
            let bursts = segment_bursts(&records, gap);
            proptest::prop_assert_eq!(fast.len(), bursts.len());
            for ((burst, majority), expected) in fast.iter().zip(&bursts) {
                proptest::prop_assert_eq!(burst, expected);
                proptest::prop_assert_eq!(*majority, majority_kind(&records, expected));
            }
        }
    }

    #[test]
    fn unknown_traffic_is_left_unclassified() {
        let mut analyst = TrafficAnalyst::new();
        analyst.train(&[rec(0, 1, 9, 100, "idle")]);
        let alien = vec![rec(0, 5, 9, 5000, "?"), rec(10, 5, 9, 4000, "?")];
        assert!(analyst.infer(&alien).is_empty());
    }
}
