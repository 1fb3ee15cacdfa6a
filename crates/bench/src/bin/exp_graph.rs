//! E-M6 — graph-based community learning (§IV-D): homes running the same
//! devices and automations form behavioural communities; a home whose
//! camera was recruited into a botnet deviates from its community and is
//! surfaced by the deviation ranking.
//!
//! Method: simulate 12 homes (8 "apartment" profiles, 4 "house" profiles);
//! compromise one apartment's camera. Per-home behaviour features come
//! from each home's own traffic trace (via the reusable
//! [`xlf_core::framework::HomeRunner`] handle); community detection and
//! deviation scoring run through the batch
//! [`xlf_analytics::graph::community_report`] entry point — the same
//! pipeline `exp_fleet` drives at 1000-home scale.

use xlf_analytics::graph::community_report;
use xlf_attacks::HomeAttack;
use xlf_bench::print_table;
use xlf_bench::scenarios::run_scenario;
use xlf_core::framework::{HomeRunner, XlfConfig};

/// Behaviour features of one home from its traffic trace.
fn home_features(seed: u64, scenario: HomeAttack, profile: &str) -> Vec<f64> {
    // Re-run the standard scenario home with a tap; profiles differ by
    // seed class (apartments share seeds 1..=8, houses 101..=104 — the
    // deterministic sensors make same-profile homes behave alike).
    let mut config = XlfConfig::off(); // observe raw behaviour
    config.learning_period = xlf_simnet::Duration::from_secs(1);
    let home_devices = if profile == "house" {
        let mut d = xlf_fleet::spec::standard_devices();
        for dev in &mut d {
            dev.telemetry_period = xlf_simnet::Duration::from_secs(3);
        }
        d
    } else {
        xlf_fleet::spec::standard_devices()
    };
    // The deviant home runs the attack scenario first, then we observe
    // its (compromised) behaviour window; healthy homes are observed
    // directly.
    let mut runner = if scenario != HomeAttack::None {
        run_scenario(seed, XlfConfig::off(), scenario).into_runner()
    } else {
        HomeRunner::build(seed, config, &home_devices)
    };
    runner.run_until(xlf_simnet::SimTime::from_secs(600));
    runner.report(xlf_simnet::SimTime::from_secs(600)).features
}

fn main() {
    let mut features = Vec::new();
    let mut names = Vec::new();
    for seed in 1..=8u64 {
        let scenario = if seed == 3 {
            HomeAttack::BotnetRecruit // the deviant home
        } else {
            HomeAttack::None
        };
        features.push(home_features(seed, scenario, "apartment"));
        names.push(format!(
            "apartment-{seed}{}",
            if seed == 3 { " (BOTNET)" } else { "" }
        ));
    }
    for seed in 101..=104u64 {
        features.push(home_features(seed, HomeAttack::None, "house"));
        names.push(format!("house-{}", seed - 100));
    }

    // Normalization, kNN graph, label propagation, and deviation scoring
    // all live behind the batch entry point.
    let report = community_report(&features, 3, 8.0, 100);

    let mut rows: Vec<Vec<String>> = names
        .iter()
        .zip(report.labels.iter().zip(report.scores.iter()))
        .map(|(name, (label, score))| {
            vec![
                name.clone(),
                format!("community {label}"),
                format!("{score:.3}"),
            ]
        })
        .collect();
    rows.sort_by(|a, b| b[2].partial_cmp(&a[2]).unwrap_or(std::cmp::Ordering::Equal));
    print_table(
        "E-M6 — Community detection + deviation ranking (§IV-D)",
        &["Home", "Community", "Deviation score (high = suspicious)"],
        &rows,
    );
    let top = &rows[0][0];
    println!(
        "\nShape check: the botnet-recruited home ranks first ({}), and the\n\
         apartment/house profiles form separate communities.",
        top
    );
}
