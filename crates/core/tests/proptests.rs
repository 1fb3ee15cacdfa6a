//! Property-based tests over the XLF Core: correlation-score invariants,
//! shaping cost laws, and token-service behaviour under arbitrary inputs.

use proptest::prelude::*;
use xlf_core::correlation::{CorrelationConfig, CorrelationEngine};
use xlf_core::evidence::{Evidence, EvidenceKind, EvidenceStore, Layer};
use xlf_core::shaping::{ShapingMode, TrafficShaper};
use xlf_simnet::{Duration, SimTime};

fn kinds() -> impl Strategy<Value = EvidenceKind> {
    prop::sample::select(vec![
        EvidenceKind::AuthFailure,
        EvidenceKind::DpiMatch,
        EvidenceKind::TrafficAnomaly,
        EvidenceKind::DfaViolation,
        EvidenceKind::ActionDenied,
        EvidenceKind::FirmwareRejected,
        EvidenceKind::TelemetryAnomaly,
        EvidenceKind::StateTransition, // benign
        EvidenceKind::AuthSuccess,     // benign
    ])
}

fn layers() -> impl Strategy<Value = Layer> {
    prop::sample::select(vec![Layer::Device, Layer::Network, Layer::Service])
}

fn store_from(items: &[(Layer, EvidenceKind, f64)]) -> EvidenceStore {
    let mut store = EvidenceStore::new();
    for (layer, kind, weight) in items {
        store.push(Evidence::new(
            SimTime::from_secs(10),
            *layer,
            "dev",
            *kind,
            *weight,
            "prop",
        ));
    }
    store
}

proptest! {
    /// Scores always land in [0, 1], for any evidence mix.
    #[test]
    fn scores_are_bounded(items in prop::collection::vec(
        (layers(), kinds(), 0.0f64..1.0), 0..32)) {
        let store = store_from(&items);
        let engine = CorrelationEngine::new(CorrelationConfig::default());
        let v = engine.evaluate_device(&store, "dev", SimTime::from_secs(20));
        prop_assert!((0.0..=1.0).contains(&v.score), "score {}", v.score);
    }

    /// Adding suspicious evidence never lowers the score (monotonicity).
    #[test]
    fn more_evidence_never_helps_the_attacker(
        items in prop::collection::vec((layers(), kinds(), 0.1f64..1.0), 0..16),
        extra_layer in layers(),
        extra_weight in 0.1f64..1.0,
    ) {
        let engine = CorrelationEngine::new(CorrelationConfig::default());
        let now = SimTime::from_secs(20);
        let base = engine.evaluate_device(&store_from(&items), "dev", now).score;
        let mut more = items.clone();
        more.push((extra_layer, EvidenceKind::DpiMatch, extra_weight));
        let grown = engine.evaluate_device(&store_from(&more), "dev", now).score;
        prop_assert!(grown >= base - 1e-12, "score dropped: {base} -> {grown}");
    }

    /// The fused (all-layer) score is at least every single-layer score.
    #[test]
    fn fusion_dominates_single_layers(items in prop::collection::vec(
        (layers(), kinds(), 0.0f64..1.0), 0..24)) {
        let store = store_from(&items);
        let now = SimTime::from_secs(20);
        let fused = CorrelationEngine::new(CorrelationConfig::default())
            .evaluate_device(&store, "dev", now)
            .score;
        for layer in [Layer::Device, Layer::Network, Layer::Service] {
            let single = CorrelationEngine::new(CorrelationConfig {
                only_layer: Some(layer),
                ..Default::default()
            })
            .evaluate_device(&store, "dev", now)
            .score;
            prop_assert!(fused >= single - 1e-12);
        }
    }

    /// Purely benign evidence always scores exactly zero.
    #[test]
    fn benign_evidence_scores_zero(n in 0usize..32, layer in layers()) {
        let items: Vec<_> = (0..n)
            .map(|i| (layer, if i % 2 == 0 {
                EvidenceKind::StateTransition
            } else {
                EvidenceKind::AuthSuccess
            }, 1.0))
            .collect();
        let engine = CorrelationEngine::new(CorrelationConfig::default());
        let v = engine.evaluate_device(&store_from(&items), "dev", SimTime::from_secs(20));
        prop_assert_eq!(v.score, 0.0);
    }

    /// Shaping invariants: the padded size is never smaller, is
    /// bucket-aligned, and the delay respects the mode's bound; the cost
    /// ledger adds up.
    #[test]
    fn shaping_invariants(sizes in prop::collection::vec(1usize..2000, 1..64),
                          bucket in 1usize..2048,
                          max_delay_ms in 0u64..2000) {
        let mut shaper = TrafficShaper::new(
            ShapingMode::PadAndDelay {
                bucket,
                max_delay: Duration::from_millis(max_delay_ms),
            },
            9,
        );
        let mut expected_padding = 0u64;
        for &size in &sizes {
            let d = shaper.shape(size);
            prop_assert!(d.padded_size >= size);
            prop_assert_eq!(d.padded_size % bucket, 0);
            prop_assert!(d.delay <= Duration::from_millis(max_delay_ms));
            expected_padding += (d.padded_size - size) as u64;
        }
        prop_assert_eq!(shaper.cost.packets as usize, sizes.len());
        prop_assert_eq!(shaper.cost.padding_bytes, expected_padding);
        prop_assert!(shaper.cost.overhead_ratio() >= 0.0);
    }

    /// Alert dedup: raising the same alert twice within the window always
    /// suppresses the second, at any severity.
    #[test]
    fn alert_dedup_window(gap_s in 0u64..200) {
        use xlf_core::alerts::{Alert, AlertSink, Severity};
        let mut sink = AlertSink::new();
        let mk = |at| Alert {
            at: SimTime::from_secs(at),
            device: "d".to_string(),
            severity: Severity::Warning,
            score: 0.5,
            explanation: String::new(),
        };
        prop_assert!(sink.raise(mk(0)));
        let second = sink.raise(mk(gap_s));
        prop_assert_eq!(second, gap_s > 60, "gap {}", gap_s);
    }

    /// Bounded-bus conservation: for any interleaving of reports and
    /// (bounded) drains at any capacity, every reported observation is
    /// either drained into the store, still pending, or accounted as
    /// shed — nothing is lost silently, and drains never exceed the
    /// capacity in flight (a capacity of 0 is clamped to 1).
    #[test]
    fn bounded_bus_conserves_observations(
        cap in 0usize..24,
        ops in prop::collection::vec((0usize..5, 1usize..16), 1..64),
    ) {
        use xlf_core::bus::EvidenceBus;
        use xlf_core::evidence::{Evidence, EvidenceStore};

        let (bus, drain) = EvidenceBus::bounded(cap);
        let bus2 = bus.clone();
        let mut store = EvidenceStore::new();
        let mut reported = 0u64;
        let mut drained = 0u64;
        for (op, n) in ops {
            match op {
                // Report n observations, alternating handles.
                0..=2 => {
                    for i in 0..n {
                        let handle = if i % 2 == 0 { &bus } else { &bus2 };
                        handle.report(Evidence::new(
                            SimTime::ZERO,
                            Layer::Network,
                            "dev",
                            EvidenceKind::DpiMatch,
                            0.5,
                            "prop",
                        ));
                        reported += 1;
                    }
                }
                // Bounded drain of at most n.
                3 => drained += drain.drain_up_to(&mut store, n) as u64,
                // Full drain.
                _ => drained += drain.drain_into(&mut store) as u64,
            }
            prop_assert!(drain.pending() <= cap.max(1), "pending exceeds capacity");
            prop_assert_eq!(
                drained + drain.pending() as u64 + bus.shed(),
                reported,
                "drained {} + pending {} + shed {} != reported {}",
                drained, drain.pending(), bus.shed(), reported
            );
            // No disconnect happened, so every loss is an overload shed.
            prop_assert_eq!(bus.dropped(), bus.shed());
        }
        drained += drain.drain_into(&mut store) as u64;
        prop_assert_eq!(drained + bus2.shed(), reported);
        prop_assert_eq!(store.len() as u64, drained);
    }
}
