//! Application verification (§IV-C2): "monitoring and profiling the state
//! transition patterns" of cloud applications from the *user end* —
//! robust even if the cloud itself is compromised. Every command reaching
//! a device must be explained by a recent, legitimate trigger event the
//! gateway itself witnessed; unexplained commands are the fingerprint of
//! spoofed events, compromised clouds, or over-privileged apps.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::rc::Rc;
use xlf_simnet::{Duration, SimTime};

/// A witnessed trigger: the gateway saw this device report this attribute
/// value at this time. The device is the gateway's shared name for it
/// and a standard attribute is a static name, so only the value is a
/// copy.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessedEvent {
    /// Reporting device.
    pub device: Rc<str>,
    /// Attribute.
    pub attribute: Cow<'static, str>,
    /// Value reported.
    pub value: String,
    /// When witnessed.
    pub at: SimTime,
}

/// A learned causal pattern: commands to `target` are explained by
/// matching recent events from `trigger_device.attribute`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalRule {
    /// Device whose events legitimately cause the command.
    pub trigger_device: String,
    /// Attribute of the trigger.
    pub trigger_attribute: String,
    /// Device the command targets.
    pub target_device: String,
    /// The command.
    pub command: String,
}

/// The gateway-side verifier.
#[derive(Debug)]
pub struct AppVerifier {
    rules: Vec<CausalRule>,
    witnessed: VecDeque<WitnessedEvent>,
    /// How recent a trigger must be to explain a command.
    pub causality_window: Duration,
    /// Whether observations currently train rules instead of enforcing.
    pub learning: bool,
    bus: Option<EvidenceBus>,
    /// (explained, unexplained) command counts.
    pub stats: (u64, u64),
}

impl AppVerifier {
    /// Creates a verifier in learning mode with a 30-second causality
    /// window.
    pub fn new() -> Self {
        AppVerifier {
            rules: Vec::new(),
            witnessed: VecDeque::new(),
            causality_window: Duration::from_secs(30),
            learning: true,
            bus: None,
            stats: (0, 0),
        }
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Ends the learning phase.
    pub fn finish_learning(&mut self) {
        self.learning = false;
    }

    /// Records a device event the gateway itself witnessed.
    pub fn witness_event(&mut self, event: WitnessedEvent) {
        self.witnessed.push_back(event);
        while self.witnessed.len() > 4096 {
            self.witnessed.pop_front();
        }
    }

    fn recent_trigger(&self, rule: &CausalRule, now: SimTime) -> bool {
        self.witnessed.iter().rev().any(|e| {
            *e.device == *rule.trigger_device
                && e.attribute == rule.trigger_attribute
                && now.since(e.at) <= self.causality_window
        })
    }

    /// Checks a command heading for `target_device`. In learning mode any
    /// command preceded by a witnessed event becomes a rule. In
    /// enforcement mode, returns `true` when the command is explained.
    pub fn check_command(&mut self, target_device: &str, command: &str, now: SimTime) -> bool {
        if self.learning {
            // Associate the command with the most recent witnessed event.
            if let Some(e) = self
                .witnessed
                .iter()
                .rev()
                .find(|e| now.since(e.at) <= self.causality_window)
            {
                let rule = CausalRule {
                    trigger_device: e.device.to_string(),
                    trigger_attribute: e.attribute.to_string(),
                    target_device: target_device.to_string(),
                    command: command.to_string(),
                };
                if !self.rules.contains(&rule) {
                    self.rules.push(rule);
                }
            }
            return true;
        }
        let explained = self
            .rules
            .iter()
            .filter(|r| r.target_device == target_device && r.command == command)
            .any(|r| self.recent_trigger(r, now));
        if explained {
            self.stats.0 += 1;
        } else {
            self.stats.1 += 1;
            if let Some(bus) = &self.bus {
                bus.report(Evidence::new(
                    now,
                    Layer::Service,
                    target_device,
                    EvidenceKind::ActionDenied,
                    0.8,
                    &format!("command '{command}' to {target_device} has no witnessed trigger"),
                ));
            }
        }
        explained
    }

    /// Learned rules (inspection).
    pub fn rules(&self) -> &[CausalRule] {
        &self.rules
    }
}

impl Default for AppVerifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;

    fn event(device: &str, attribute: &str, value: &str, at_s: u64) -> WitnessedEvent {
        WitnessedEvent {
            device: Rc::from(device),
            attribute: Cow::Owned(attribute.to_string()),
            value: value.to_string(),
            at: SimTime::from_secs(at_s),
        }
    }

    /// Teaches the verifier the benign pattern: thermostat temperature
    /// events explain window commands.
    fn trained() -> AppVerifier {
        let mut v = AppVerifier::new();
        for i in 0..5 {
            v.witness_event(event("thermostat", "temperature", "85", i * 100));
            v.check_command("window", "on", SimTime::from_secs(i * 100 + 5));
        }
        v.finish_learning();
        v
    }

    #[test]
    fn learning_builds_causal_rules() {
        let v = trained();
        assert_eq!(v.rules().len(), 1);
        assert_eq!(v.rules()[0].trigger_device, "thermostat");
        assert_eq!(v.rules()[0].target_device, "window");
    }

    #[test]
    fn commands_with_recent_triggers_are_explained() {
        let mut v = trained();
        v.witness_event(event("thermostat", "temperature", "88", 1000));
        assert!(v.check_command("window", "on", SimTime::from_secs(1010)));
        assert_eq!(v.stats, (1, 0));
    }

    #[test]
    fn commands_without_triggers_are_flagged() {
        // The spoofed-event / compromised-cloud case: a window command
        // arrives although the gateway never saw a hot thermostat.
        let (bus, drain) = EvidenceBus::new();
        let mut v = trained().with_bus(bus);
        assert!(!v.check_command("window", "on", SimTime::from_secs(5000)));
        assert_eq!(v.stats, (0, 1));
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert_eq!(store.all()[0].kind, EvidenceKind::ActionDenied);
    }

    #[test]
    fn stale_triggers_do_not_explain() {
        let mut v = trained();
        v.witness_event(event("thermostat", "temperature", "88", 1000));
        // 31 s later the trigger is outside the window.
        assert!(!v.check_command("window", "on", SimTime::from_secs(1031)));
    }

    #[test]
    fn unknown_commands_are_never_explained() {
        let mut v = trained();
        v.witness_event(event("thermostat", "temperature", "88", 1000));
        assert!(!v.check_command("front-door", "unlock", SimTime::from_secs(1001)));
    }

    #[test]
    fn witness_buffer_is_bounded() {
        let mut v = AppVerifier::new();
        for i in 0..5000 {
            v.witness_event(event("d", "a", "v", i));
        }
        assert!(v.witnessed.len() <= 4096);
    }
}
