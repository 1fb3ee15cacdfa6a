//! Reusable attack scenarios over a standard XLF home, shared by the
//! Figure 4 / Table II harnesses and the Criterion benches.
//!
//! Every scenario is deterministic: same seed → identical trace.

use xlf_attacks::scripted::{self, ScriptedAttack};
use xlf_cloud::smartapp::SmartApp;
use xlf_core::framework::{XlfConfig, XlfHome};
use xlf_fleet::spec::{standard_devices, LEARNING_END_S};
use xlf_simnet::{Duration, Medium, SimTime};

/// The attack injected into a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackScenario {
    /// No attack (benign control).
    None,
    /// Mirai-style recruitment of the weak camera through the gateway
    /// (C&C bootstrap string in the login payload), then a flood order.
    BotnetRecruitFlood,
    /// Oversized command exploiting the wall-pad buffer overflow.
    BufferOverflow,
    /// Unsigned malicious OTA pushed through the gateway.
    FirmwareTamper,
    /// Spoofed high-temperature events fired at the cloud to trigger the
    /// window automation.
    SpoofedEvents,
}

impl AttackScenario {
    /// All scenarios, benign first.
    pub fn all() -> &'static [AttackScenario] {
        &[
            AttackScenario::None,
            AttackScenario::BotnetRecruitFlood,
            AttackScenario::BufferOverflow,
            AttackScenario::FirmwareTamper,
            AttackScenario::SpoofedEvents,
        ]
    }

    /// The device the attack targets (ground truth for detection).
    pub fn target(&self) -> Option<&'static str> {
        match self {
            AttackScenario::None => None,
            AttackScenario::BotnetRecruitFlood => Some("cam"),
            AttackScenario::BufferOverflow => Some("wallpad"),
            AttackScenario::FirmwareTamper => Some("cam"),
            AttackScenario::SpoofedEvents => Some("window"),
        }
    }

    /// The scripted WAN attack that runs this scenario, if any.
    pub fn scripted(&self) -> Option<ScriptedAttack> {
        match self {
            AttackScenario::None => None,
            AttackScenario::BotnetRecruitFlood => Some(ScriptedAttack::BotnetRecruit),
            AttackScenario::BufferOverflow => Some(ScriptedAttack::BufferOverflow),
            AttackScenario::FirmwareTamper => Some(ScriptedAttack::FirmwareTamper),
            AttackScenario::SpoofedEvents => Some(ScriptedAttack::SpoofedEvents),
        }
    }
}

/// When the scenario run ends.
pub const SCENARIO_END_S: u64 = 420;

/// Builds and runs one scenario on the fleet's standard five-device home;
/// returns the finished home (inspect the Core, gateway, and devices for
/// outcomes).
pub fn run_scenario(seed: u64, mut config: XlfConfig, scenario: AttackScenario) -> XlfHome {
    config.learning_period = Duration::from_secs(LEARNING_END_S);
    let mut home = XlfHome::build(seed, config, &standard_devices());
    home.net
        .node_as_mut::<xlf_cloud::CloudNode>(home.cloud)
        .expect("cloud node")
        .cloud_mut()
        .install_app(SmartApp::auto_window());

    if let Some(attack) = scenario.scripted() {
        let attacker = scripted::install(&mut home.net, home.gateway, home.cloud, attack);
        home.net
            .connect(attacker, home.cloud, Medium::Wan.link().with_loss(0.0));
    }

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
        let home = run_scenario(1, XlfConfig::full(), AttackScenario::None);
        assert!(home
            .core
            .borrow()
            .alerts
            .at_least(Severity::Critical)
            .is_empty());
    }

    #[test]
    fn botnet_scenario_is_critically_flagged_under_full_xlf() {
        let home = run_scenario(1, XlfConfig::full(), AttackScenario::BotnetRecruitFlood);
        let core = home.core.borrow();
        assert!(
            core.alerts.has_alert("cam", Severity::Critical),
            "alerts: {:?}",
            core.alerts.alerts()
        );
    }

    #[test]
    fn firmware_tamper_is_blocked_and_flagged() {
        let home = run_scenario(1, XlfConfig::full(), AttackScenario::FirmwareTamper);
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
        let home = run_scenario(1, XlfConfig::off(), AttackScenario::BotnetRecruitFlood);
        assert!(home.device_ref("cam").is_compromised());
        let tampered = run_scenario(1, XlfConfig::off(), AttackScenario::FirmwareTamper);
        assert!(tampered.device_ref("cam").is_compromised());
    }
}
