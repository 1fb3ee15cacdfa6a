//! Ablation study — each XLF mechanism switched off individually against
//! the botnet recruit+flood scenario, quantifying what every design
//! choice contributes to the end-to-end outcome (detection score,
//! quarantine, flood containment, evidence mix).

use xlf_attacks::HomeAttack;
use xlf_bench::print_table;
use xlf_bench::scenarios::{run_scenario, SCENARIO_END_S};
use xlf_core::framework::XlfConfig;
use xlf_simnet::SimTime;

fn main() {
    type ConfigMaker = Box<dyn Fn() -> XlfConfig>;
    let variants: Vec<(&str, ConfigMaker)> = vec![
        ("full XLF", Box::new(XlfConfig::full)),
        (
            "no DPI",
            Box::new(|| XlfConfig {
                dpi: false,
                ..XlfConfig::full()
            }),
        ),
        (
            "no net monitor",
            Box::new(|| XlfConfig {
                netmonitor: false,
                ..XlfConfig::full()
            }),
        ),
        (
            "no app verification",
            Box::new(|| XlfConfig {
                appverify: false,
                ..XlfConfig::full()
            }),
        ),
        (
            "no NAC/quarantine",
            Box::new(|| XlfConfig {
                nac: false,
                ..XlfConfig::full()
            }),
        ),
        (
            "no update vetting",
            Box::new(|| XlfConfig {
                update_vetting: false,
                ..XlfConfig::full()
            }),
        ),
        ("everything off", Box::new(XlfConfig::off)),
    ];

    let mut rows = Vec::new();
    for (name, make) in &variants {
        let home = run_scenario(1, make(), HomeAttack::BotnetRecruit);
        let score = home
            .core
            .borrow_mut()
            .verdict_for("cam", SimTime::from_secs(SCENARIO_END_S))
            .score;
        let quarantined = home.gateway_ref().nac.is_quarantined("cam");
        let dropped = home.gateway_ref().dropped;
        let evidence = home.core.borrow().store.len();
        rows.push(vec![
            name.to_string(),
            format!("{score:.2}"),
            if quarantined { "yes" } else { "NO" }.to_string(),
            dropped.to_string(),
            evidence.to_string(),
        ]);
    }
    print_table(
        "Ablation — botnet scenario with one mechanism removed at a time",
        &[
            "Configuration",
            "cam verdict score",
            "quarantined",
            "packets dropped",
            "evidence records",
        ],
        &rows,
    );
    println!(
        "\nReading: removing DPI or the net monitor weakens the verdict\n\
         (fewer corroborating layers); removing NAC keeps detection but\n\
         loses containment (no quarantine, flood escapes); 'everything\n\
         off' is the undefended baseline."
    );
}
