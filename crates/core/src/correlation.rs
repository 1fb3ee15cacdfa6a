//! Cross-layer correlation (§IV-D): the Core "connects and correlates the
//! security functions in different layers", fusing per-layer evidence into
//! per-device verdicts. Two fusion modes are provided:
//!
//! * **Rule fusion** (always on): per-layer scores with a cross-layer
//!   corroboration bonus — multiple layers seeing trouble is far stronger
//!   than one layer seeing a lot of it. This is the deterministic spine
//!   the Figure 4 experiment sweeps.
//! * **MKL fusion** (optional): per-layer evidence windows become feature
//!   vectors and an [`MklClassifier`] trained on labeled history refines
//!   the verdict — the paper's "integrated analysis of multiple data
//!   sources" with "a technically sound way to combine features from
//!   heterogeneous sources".

use crate::evidence::{Evidence, EvidenceKind, EvidenceStore, Layer};
use xlf_analytics::kernel::Kernel;
use xlf_analytics::mkl::MklClassifier;
use xlf_simnet::{Duration, SimTime};

/// A fused per-device verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Device concerned.
    pub device: String,
    /// Fused suspicion score in `[0, 1]`.
    pub score: f64,
    /// Layers contributing non-benign evidence.
    pub layers: Vec<Layer>,
    /// Evidence kinds that contributed.
    pub kinds: Vec<EvidenceKind>,
}

impl Verdict {
    /// Whether the verdict crosses the given decision threshold.
    pub fn is_malicious(&self, threshold: f64) -> bool {
        self.score >= threshold
    }
}

/// Tuning of the rule-fusion engine.
#[derive(Debug, Clone)]
pub struct CorrelationConfig {
    /// Evidence look-back window.
    pub window: Duration,
    /// Per-layer score saturation (max contribution of one layer).
    pub layer_cap: f64,
    /// Multiplicative bonus per additional corroborating layer.
    pub cross_layer_bonus: f64,
    /// Restrict fusion to this single layer (ablation: "device-only",
    /// "network-only", "service-only" monitors of the Figure 4 sweep).
    pub only_layer: Option<Layer>,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            window: Duration::from_secs(300),
            layer_cap: 0.6,
            cross_layer_bonus: 0.35,
            only_layer: None,
        }
    }
}

/// The correlation engine.
#[derive(Debug, Default)]
pub struct CorrelationEngine {
    /// Rule-fusion configuration.
    pub config: CorrelationConfig,
    /// Optional trained MKL refiner.
    mkl: Option<MklClassifier>,
}

/// Evidence kinds that are context, not suspicion.
fn is_benign(kind: &EvidenceKind) -> bool {
    matches!(
        kind,
        EvidenceKind::AuthSuccess | EvidenceKind::StateTransition
    )
}

/// Feature vector of one device's evidence in one layer (for MKL).
fn layer_features(evidence: &[&Evidence], layer: Layer) -> Vec<f64> {
    let in_layer: Vec<&&Evidence> = evidence.iter().filter(|e| e.layer == layer).collect();
    let suspicious: Vec<&&&Evidence> = in_layer.iter().filter(|e| !is_benign(&e.kind)).collect();
    let weight_sum: f64 = suspicious.iter().map(|e| e.weight).sum();
    let max_weight = suspicious.iter().map(|e| e.weight).fold(0.0f64, f64::max);
    vec![
        in_layer.len() as f64,
        suspicious.len() as f64,
        weight_sum,
        max_weight,
    ]
}

impl CorrelationEngine {
    /// Creates an engine with default rule fusion and no MKL refiner.
    pub fn new(config: CorrelationConfig) -> Self {
        CorrelationEngine { config, mkl: None }
    }

    /// Trains the MKL refiner on labeled device windows.
    ///
    /// `examples` are `(evidence-window, malicious?)` pairs; each window
    /// is featurized per layer (three heterogeneous sources, one kernel
    /// each, exactly the §IV-D construction).
    pub fn train_mkl(&mut self, examples: &[(Vec<Evidence>, bool)]) {
        let mut device_block = Vec::new();
        let mut network_block = Vec::new();
        let mut service_block = Vec::new();
        let mut labels = Vec::new();
        for (window, malicious) in examples {
            let refs: Vec<&Evidence> = window.iter().collect();
            device_block.push(layer_features(&refs, Layer::Device));
            network_block.push(layer_features(&refs, Layer::Network));
            service_block.push(layer_features(&refs, Layer::Service));
            labels.push(if *malicious { 1.0 } else { -1.0 });
        }
        let clf = MklClassifier::train(
            vec![
                Kernel::Rbf { gamma: 0.25 },
                Kernel::Rbf { gamma: 0.25 },
                Kernel::Rbf { gamma: 0.25 },
            ],
            vec![device_block, network_block, service_block],
            &labels,
            100,
        );
        self.mkl = Some(clf);
    }

    /// Whether an MKL refiner is installed.
    pub fn has_mkl(&self) -> bool {
        self.mkl.is_some()
    }

    /// Rule-fusion score for one device at `now`.
    pub fn evaluate_device(&self, store: &EvidenceStore, device: &str, now: SimTime) -> Verdict {
        let (score, layers, kinds) = self.fuse(store, device, now);
        Verdict {
            device: device.to_string(),
            score,
            layers,
            kinds,
        }
    }

    /// The fused score of one device at `now`, as
    /// [`CorrelationEngine::evaluate_device`] scores it.
    pub fn score_device(&self, store: &EvidenceStore, device: &str, now: SimTime) -> f64 {
        self.fuse(store, device, now).0
    }

    /// The fused score, contributing layers and evidence kinds of one
    /// device at `now`.
    fn fuse(
        &self,
        store: &EvidenceStore,
        device: &str,
        now: SimTime,
    ) -> (f64, Vec<Layer>, Vec<EvidenceKind>) {
        let window = store.for_device(device, now, self.config.window);
        let relevant: Vec<&Evidence> = window
            .into_iter()
            .filter(|e| self.config.only_layer.map(|l| e.layer == l).unwrap_or(true))
            .collect();

        let mut layers = Vec::new();
        let mut kinds = Vec::new();
        let mut per_layer_score = [0.0f64; 3];
        for e in relevant.iter().filter(|e| !is_benign(&e.kind)) {
            let idx = match e.layer {
                Layer::Device => 0,
                Layer::Network => 1,
                Layer::Service => 2,
            };
            per_layer_score[idx] += e.weight * 0.35;
            if !layers.contains(&e.layer) {
                layers.push(e.layer);
            }
            if !kinds.contains(&e.kind) {
                kinds.push(e.kind);
            }
        }
        for s in per_layer_score.iter_mut() {
            *s = s.min(self.config.layer_cap);
        }
        // Base score: the strongest layer counts fully, corroborating
        // layers add half their (capped) score, and the cross-layer bonus
        // multiplies on top — so one layer can raise a warning, but
        // confident verdicts need agreement.
        let sum: f64 = per_layer_score.iter().sum();
        let max = per_layer_score.iter().copied().fold(0.0f64, f64::max);
        let base = max + 0.5 * (sum - max);
        let corroborating = layers.len().saturating_sub(1) as f64;
        let mut score = (base * (1.0 + self.config.cross_layer_bonus * corroborating)).min(1.0);

        // MKL refinement: average the rule score with the (rescaled)
        // classifier decision when a refiner is installed.
        if let Some(clf) = &self.mkl {
            let sample = vec![
                layer_features(&relevant, Layer::Device),
                layer_features(&relevant, Layer::Network),
                layer_features(&relevant, Layer::Service),
            ];
            let decision = clf.decision(&sample);
            let mkl_score = 0.5 + 0.5 * decision.tanh();
            score = (score + mkl_score) / 2.0;
        }
        (score, layers, kinds)
    }

    /// Evaluates every device with recent evidence.
    pub fn evaluate_all(&self, store: &EvidenceStore, now: SimTime) -> Vec<Verdict> {
        store
            .active_devices(now, self.config.window)
            .into_iter()
            .map(|d| self.evaluate_device(store, &d, now))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_s: u64, device: &str, layer: Layer, kind: EvidenceKind, weight: f64) -> Evidence {
        Evidence::new(SimTime::from_secs(at_s), layer, device, kind, weight, "t")
    }

    fn now() -> SimTime {
        SimTime::from_secs(100)
    }

    #[test]
    fn cross_layer_corroboration_beats_single_layer_volume() {
        let engine = CorrelationEngine::new(CorrelationConfig::default());

        // Device A: one layer, many signals.
        let mut store_a = EvidenceStore::new();
        for i in 0..6 {
            store_a.push(ev(
                10 + i,
                "a",
                Layer::Network,
                EvidenceKind::TrafficAnomaly,
                0.6,
            ));
        }
        // Device B: three layers, two signals each.
        let mut store_b = EvidenceStore::new();
        for i in 0..2 {
            store_b.push(ev(
                10 + i,
                "b",
                Layer::Device,
                EvidenceKind::AuthFailure,
                0.6,
            ));
            store_b.push(ev(20 + i, "b", Layer::Network, EvidenceKind::DpiMatch, 0.6));
            store_b.push(ev(
                30 + i,
                "b",
                Layer::Service,
                EvidenceKind::ActionDenied,
                0.6,
            ));
        }
        let va = engine.evaluate_device(&store_a, "a", now());
        let vb = engine.evaluate_device(&store_b, "b", now());
        assert!(
            vb.score > va.score,
            "cross-layer {} must beat single-layer {}",
            vb.score,
            va.score
        );
        assert_eq!(vb.layers.len(), 3);
    }

    #[test]
    fn benign_evidence_scores_zero() {
        let engine = CorrelationEngine::new(CorrelationConfig::default());
        let mut store = EvidenceStore::new();
        for i in 0..20 {
            store.push(ev(
                i,
                "lamp",
                Layer::Service,
                EvidenceKind::StateTransition,
                1.0,
            ));
            store.push(ev(i, "lamp", Layer::Device, EvidenceKind::AuthSuccess, 1.0));
        }
        let v = engine.evaluate_device(&store, "lamp", now());
        assert_eq!(v.score, 0.0);
        assert!(!v.is_malicious(0.1));
    }

    #[test]
    fn single_layer_ablation_ignores_other_layers() {
        let engine = CorrelationEngine::new(CorrelationConfig {
            only_layer: Some(Layer::Device),
            ..Default::default()
        });
        let mut store = EvidenceStore::new();
        store.push(ev(10, "cam", Layer::Network, EvidenceKind::DpiMatch, 0.9));
        store.push(ev(
            11,
            "cam",
            Layer::Network,
            EvidenceKind::TrafficAnomaly,
            0.9,
        ));
        let v = engine.evaluate_device(&store, "cam", now());
        assert_eq!(
            v.score, 0.0,
            "device-only monitor must not see network evidence"
        );
    }

    #[test]
    fn old_evidence_ages_out_of_the_window() {
        let engine = CorrelationEngine::new(CorrelationConfig {
            window: Duration::from_secs(30),
            ..Default::default()
        });
        let mut store = EvidenceStore::new();
        store.push(ev(10, "cam", Layer::Network, EvidenceKind::DpiMatch, 0.9));
        let v = engine.evaluate_device(&store, "cam", SimTime::from_secs(100));
        assert_eq!(v.score, 0.0);
    }

    #[test]
    fn mkl_refinement_improves_separation() {
        // Train: malicious windows have multi-layer suspicion; benign have
        // sporadic single-layer noise.
        let mut examples = Vec::new();
        for i in 0..10 {
            let malicious = vec![
                ev(i, "x", Layer::Device, EvidenceKind::AuthFailure, 0.8),
                ev(i, "x", Layer::Network, EvidenceKind::DpiMatch, 0.8),
                ev(i, "x", Layer::Service, EvidenceKind::ActionDenied, 0.7),
            ];
            examples.push((malicious, true));
            let benign = vec![ev(
                i,
                "y",
                Layer::Network,
                EvidenceKind::TrafficAnomaly,
                0.2,
            )];
            examples.push((benign, false));
        }
        let mut engine = CorrelationEngine::new(CorrelationConfig::default());
        engine.train_mkl(&examples);
        assert!(engine.has_mkl());

        let mut bad_store = EvidenceStore::new();
        bad_store.push(ev(90, "bot", Layer::Device, EvidenceKind::AuthFailure, 0.8));
        bad_store.push(ev(91, "bot", Layer::Network, EvidenceKind::DpiMatch, 0.8));
        bad_store.push(ev(
            92,
            "bot",
            Layer::Service,
            EvidenceKind::ActionDenied,
            0.7,
        ));
        let mut ok_store = EvidenceStore::new();
        ok_store.push(ev(
            90,
            "tv",
            Layer::Network,
            EvidenceKind::TrafficAnomaly,
            0.2,
        ));

        let bad = engine.evaluate_device(&bad_store, "bot", now());
        let ok = engine.evaluate_device(&ok_store, "tv", now());
        assert!(bad.score > 0.6, "bad score {}", bad.score);
        assert!(ok.score < 0.45, "ok score {}", ok.score);
    }

    #[test]
    fn evaluate_all_covers_active_devices() {
        let engine = CorrelationEngine::new(CorrelationConfig::default());
        let mut store = EvidenceStore::new();
        store.push(ev(10, "a", Layer::Device, EvidenceKind::AuthFailure, 0.5));
        store.push(ev(10, "b", Layer::Network, EvidenceKind::DpiMatch, 0.5));
        let verdicts = engine.evaluate_all(&store, now());
        assert_eq!(verdicts.len(), 2);
    }
}
