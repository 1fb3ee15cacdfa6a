//! E-F4 (headline) — regenerates **Figure 4** (the XLF cross-layer
//! design) as a quantitative claim: the cross-layer Core's fused verdicts
//! beat every single-layer monitor on the same evidence.
//!
//! Method: run every attack scenario (plus the benign control) across
//! several seeds with all sensors enabled, collect each home's evidence
//! store, then score every device under four correlation configurations —
//! device-only, network-only, service-only, and full cross-layer fusion.
//! A device counts as "flagged" when its fused score reaches the warning
//! threshold. Ground truth is whether the attacker targeted that device.

use xlf_bench::scenarios::{run_scenario, SCENARIOS, SCENARIO_END_S};
use xlf_bench::{prf, print_table};
use xlf_core::correlation::{CorrelationConfig, CorrelationEngine};
use xlf_core::evidence::Layer;
use xlf_core::framework::XlfConfig;
use xlf_simnet::SimTime;

const THRESHOLD: f64 = 0.35;
const SEEDS: [u64; 3] = [1, 2, 3];

fn main() {
    let fusion_modes: Vec<(&str, Option<Layer>)> = vec![
        ("device-only", Some(Layer::Device)),
        ("network-only", Some(Layer::Network)),
        ("service-only", Some(Layer::Service)),
        ("XLF cross-layer", None),
    ];

    // Collect evidence stores (+ ground truth) from every scenario run.
    let mut runs = Vec::new();
    for scenario in SCENARIOS {
        for &seed in &SEEDS {
            let home = run_scenario(seed, XlfConfig::full(), scenario);
            let devices: Vec<String> = home.devices.keys().map(|d| d.to_string()).collect();
            runs.push((home, scenario, devices));
        }
    }

    let now = SimTime::from_secs(SCENARIO_END_S);

    // The MKL-refined engine (§IV-D): train on the seed-1 runs, evaluate
    // on the held-out seeds only.
    let mut mkl_engine = CorrelationEngine::new(CorrelationConfig::default());
    {
        let mut examples = Vec::new();
        for (home, scenario, devices) in &runs {
            // Training split: seed 1 == the first run of each scenario.
            if !std::ptr::eq(
                home,
                &runs.iter().find(|(_, s, _)| s == scenario).unwrap().0,
            ) {
                continue;
            }
            let core = home.core.borrow();
            for device in devices {
                let window: Vec<_> = core
                    .store
                    .all()
                    .iter()
                    .filter(|e| &e.device == device)
                    .cloned()
                    .collect();
                examples.push((window, scenario.target() == Some(device.as_str())));
            }
        }
        mkl_engine.train_mkl(&examples);
    }

    let mut rows = Vec::new();
    for (mode_name, only_layer) in &fusion_modes {
        let engine = CorrelationEngine::new(CorrelationConfig {
            only_layer: *only_layer,
            ..Default::default()
        });
        let mut outcomes = Vec::new();
        for (home, scenario, devices) in &runs {
            let core = home.core.borrow();
            for device in devices {
                let verdict = engine.evaluate_device(&core.store, device, now);
                let predicted = verdict.score >= THRESHOLD;
                let actual = scenario.target() == Some(device.as_str());
                outcomes.push((predicted, actual));
            }
        }
        let m = prf(&outcomes);
        rows.push(vec![
            mode_name.to_string(),
            format!("{:.2}", m.precision),
            format!("{:.2}", m.recall),
            format!("{:.2}", m.f1),
            outcomes.len().to_string(),
        ]);
    }

    // MKL row: held-out seeds only (skip each scenario's first run).
    {
        let mut outcomes = Vec::new();
        for scenario in SCENARIOS {
            for (home, s, devices) in runs.iter().filter(|(_, s, _)| *s == scenario).skip(1) {
                let core = home.core.borrow();
                for device in devices {
                    let verdict = mkl_engine.evaluate_device(&core.store, device, now);
                    let predicted = verdict.score >= THRESHOLD;
                    let actual = s.target() == Some(device.as_str());
                    outcomes.push((predicted, actual));
                }
            }
        }
        let m = prf(&outcomes);
        rows.push(vec![
            "XLF cross-layer + MKL (held-out)".to_string(),
            format!("{:.2}", m.precision),
            format!("{:.2}", m.recall),
            format!("{:.2}", m.f1),
            outcomes.len().to_string(),
        ]);
    }

    print_table(
        "Figure 4 — Cross-layer fusion vs single-layer monitors",
        &["Monitor", "Precision", "Recall", "F1", "Device-runs scored"],
        &rows,
    );

    // Per-scenario breakdown: which monitors catch which attack class.
    let mut detail_rows = Vec::new();
    for scenario in SCENARIOS {
        let Some(target) = scenario.target() else {
            continue;
        };
        let mut cells = vec![format!("{scenario:?}"), target.to_string()];
        for (_, only_layer) in &fusion_modes {
            let engine = CorrelationEngine::new(CorrelationConfig {
                only_layer: *only_layer,
                ..Default::default()
            });
            let detected = runs
                .iter()
                .filter(|(_, s, _)| *s == scenario)
                .all(|(home, _, _)| {
                    let core = home.core.borrow();
                    engine.evaluate_device(&core.store, target, now).score >= THRESHOLD
                });
            cells.push(if detected {
                "✓".to_string()
            } else {
                "–".to_string()
            });
        }
        detail_rows.push(cells);
    }
    print_table(
        "Per-attack detection (all seeds)",
        &[
            "Scenario",
            "Target",
            "device",
            "network",
            "service",
            "cross-layer",
        ],
        &detail_rows,
    );

    println!(
        "\nScenarios: {:?} × seeds {:?}; threshold = {THRESHOLD}.",
        SCENARIOS, SEEDS
    );
    println!(
        "Expected shape (paper's Figure 4 claim): the cross-layer row\n\
         dominates every single-layer row on F1 — each single layer misses\n\
         the attack classes it cannot observe."
    );
}
