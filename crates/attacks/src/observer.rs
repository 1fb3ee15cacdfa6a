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
    let mut sorted: Vec<&PacketRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.src, r.dst, r.at));
    let mut bursts: Vec<Burst> = Vec::new();
    for rec in sorted {
        let extend = bursts.last().is_some_and(|b| {
            b.src == rec.src && b.dst == rec.dst && rec.at.since(last_time(b, rec)) <= max_gap
        });
        if extend {
            let b = bursts.last_mut().expect("just checked");
            b.sizes.push(rec.wire_size as i64);
            b.end_hint = rec.at;
        } else {
            bursts.push(Burst {
                src: rec.src,
                dst: rec.dst,
                start: rec.at,
                sizes: vec![rec.wire_size as i64],
                end_hint: rec.at,
            });
        }
    }
    bursts
}

fn last_time(b: &Burst, _rec: &PacketRecord) -> SimTime {
    b.end_hint
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
        for burst in segment_bursts(records, self.max_gap) {
            let label = majority_kind(records, &burst);
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
        let bursts = segment_bursts(records, self.max_gap);
        if bursts.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for burst in &bursts {
            let truth = majority_kind(records, burst);
            if let Some((label, _)) = self.classifier.classify(&burst.sizes) {
                total += 1;
                if label == truth {
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
/// none match).
///
/// The window is every record of the stream from the burst's start on,
/// not just the burst's own records: later bursts of the same stream
/// are counted too. Scores depend on that, so narrowing the window to
/// the burst would change report bytes; it is left for a change that
/// may change them.
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

    #[test]
    fn unknown_traffic_is_left_unclassified() {
        let mut analyst = TrafficAnalyst::new();
        analyst.train(&[rec(0, 1, 9, 100, "idle")]);
        let alien = vec![rec(0, 5, 9, 5000, "?"), rec(10, 5, 9, 4000, "?")];
        assert!(analyst.infer(&alien).is_empty());
    }
}
