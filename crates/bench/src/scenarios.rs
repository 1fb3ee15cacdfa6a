//! Reusable attack scenarios over a standard XLF home, shared by the
//! Figure 4 / Table II harnesses and the Criterion benches.
//!
//! Every scenario is deterministic: same seed → identical trace.

use xlf_attacks::{scripted, HomeAttack};
use xlf_cloud::smartapp::SmartApp;
use xlf_core::framework::{XlfConfig, XlfHome};
use xlf_fleet::spec::{standard_devices, LEARNING_END_S};
use xlf_simnet::{Duration, SimTime};

/// The attacks the scenarios run, benign control first: the classes
/// Figure 4 scores.
pub const SCENARIOS: [HomeAttack; 5] = [
    HomeAttack::None,
    HomeAttack::BotnetRecruit,
    HomeAttack::BufferOverflow,
    HomeAttack::FirmwareTamper,
    HomeAttack::SpoofedEvents,
];

/// When the scenario run ends.
pub const SCENARIO_END_S: u64 = 420;

/// Builds the fleet's standard five-device home, runs `attack` against
/// it and returns the finished home (inspect the Core, gateway, and
/// devices for outcomes).
pub fn run_scenario(seed: u64, mut config: XlfConfig, attack: HomeAttack) -> XlfHome {
    config.learning_period = Duration::from_secs(LEARNING_END_S);
    let mut home = XlfHome::build(seed, config, &standard_devices());
    home.net
        .node_as_mut::<xlf_cloud::CloudNode>(home.cloud)
        .expect("cloud node")
        .cloud_mut()
        .install_app(SmartApp::auto_window());
    scripted::install(&mut home.net, home.gateway, home.cloud, attack);

    home.net.run_until(SimTime::from_secs(SCENARIO_END_S));
    // Final evaluation sweep so late evidence is fused.
    home.core
        .borrow_mut()
        .evaluate(SimTime::from_secs(SCENARIO_END_S));
    home
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_core::alerts::Severity;

    #[test]
    fn benign_scenario_raises_no_critical_alerts() {
        let home = run_scenario(1, XlfConfig::full(), HomeAttack::None);
        assert!(home
            .core
            .borrow()
            .alerts
            .at_least(Severity::Critical)
            .is_empty());
    }

    #[test]
    fn botnet_scenario_is_critically_flagged_under_full_xlf() {
        let home = run_scenario(1, XlfConfig::full(), HomeAttack::BotnetRecruit);
        let core = home.core.borrow();
        assert!(
            core.alerts.has_alert("cam", Severity::Critical),
            "alerts: {:?}",
            core.alerts.alerts()
        );
    }

    #[test]
    fn firmware_tamper_is_blocked_and_flagged() {
        let home = run_scenario(1, XlfConfig::full(), HomeAttack::FirmwareTamper);
        // Gateway vetting blocked the image, so the camera stays clean.
        assert!(!home.device_ref("cam").is_compromised());
        assert!(home
            .core
            .borrow()
            .store
            .all()
            .iter()
            .any(|e| e.kind == xlf_core::EvidenceKind::FirmwareRejected));
    }

    #[test]
    fn undefended_home_lets_the_attacks_through() {
        let home = run_scenario(1, XlfConfig::off(), HomeAttack::BotnetRecruit);
        assert!(home.device_ref("cam").is_compromised());
        let tampered = run_scenario(1, XlfConfig::off(), HomeAttack::FirmwareTamper);
        assert!(tampered.device_ref("cam").is_compromised());
    }
}
