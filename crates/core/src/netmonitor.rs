//! Malicious-activity identification (§IV-B3): per-device traffic-rate
//! anomaly detection (the DDoS signal) and behavioural DFA monitoring of
//! state transitions ("a Deterministic Finite Automation could be used to
//! reflect normal device behaviors").

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::collections::BTreeMap;
use std::rc::Rc;
use xlf_analytics::dfa::Dfa;
use xlf_analytics::timeseries::EwmaDetector;
use xlf_simnet::{Duration, SimTime};

/// Per-device network monitor. Its tables are keyed by the device's
/// shared name, so a device's first packet copies no text.
#[derive(Debug)]
pub struct NetMonitor {
    /// Packet-rate detectors per device (packets per window).
    rate: BTreeMap<Rc<str>, (EwmaDetector, u64, SimTime)>,
    /// Behavioural DFA per device.
    dfa: BTreeMap<Rc<str>, Dfa>,
    /// Rate window.
    pub window: Duration,
    /// Whether the DFA is in training (benign period) or enforcement.
    pub learning: bool,
    bus: Option<EvidenceBus>,
}

impl NetMonitor {
    /// Creates a monitor with 1-second rate windows, starting in learning
    /// mode.
    pub fn new() -> Self {
        NetMonitor {
            rate: BTreeMap::new(),
            dfa: BTreeMap::new(),
            window: Duration::from_secs(1),
            learning: true,
            bus: None,
        }
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Switches from learning to enforcement.
    pub fn finish_learning(&mut self) {
        self.learning = false;
    }

    /// Feeds one outgoing packet from `device`; closes rate windows and
    /// raises anomalies as needed.
    pub fn observe_packet(&mut self, device: &Rc<str>, now: SimTime) {
        let entry = self.rate.entry(Rc::clone(device)).or_insert_with(|| {
            let mut d = EwmaDetector::new(0.3, 6.0);
            d.warmup = 5;
            (d, 0, now)
        });
        if now.since(entry.2) >= self.window {
            let count = entry.1 as f64;
            entry.1 = 0;
            entry.2 = now;
            let anomalous = entry.0.observe(count);
            if anomalous && !self.learning {
                if let Some(bus) = &self.bus {
                    bus.report(Evidence::new(
                        now,
                        Layer::Network,
                        device,
                        EvidenceKind::TrafficAnomaly,
                        0.8,
                        &format!("packet rate {count}/window far above baseline"),
                    ));
                }
            }
        }
        entry.1 += 1;
    }

    /// Feeds one state-transition event (from hub-observed `event`
    /// packets). During learning, transitions train the DFA; afterwards,
    /// unknown transitions raise evidence.
    pub fn observe_transition(
        &mut self,
        device: &Rc<str>,
        from: &str,
        symbol: &str,
        to: &str,
        now: SimTime,
    ) {
        let dfa = self.dfa.entry(Rc::clone(device)).or_default();
        if self.learning {
            dfa.train(&[(from.to_string(), symbol.to_string(), to.to_string())]);
            return;
        }
        let verdict = dfa.check(from, symbol, to);
        if verdict.is_anomalous() {
            if let Some(bus) = &self.bus {
                bus.report(Evidence::new(
                    now,
                    Layer::Network,
                    device,
                    EvidenceKind::DfaViolation,
                    0.85,
                    &format!("transition {from} --{symbol}--> {to} outside learned behaviour"),
                ));
            }
        } else if let Some(bus) = &self.bus {
            bus.report(Evidence::new(
                now,
                Layer::Network,
                device,
                EvidenceKind::StateTransition,
                0.0,
                &format!("{from} --{symbol}--> {to}"),
            ));
        }
    }

    /// Devices with a trained DFA.
    pub fn profiled_devices(&self) -> usize {
        self.dfa.len()
    }
}

impl Default for NetMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;

    fn drain_kinds(drain: &crate::bus::EvidenceDrain) -> Vec<EvidenceKind> {
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        store.all().iter().map(|e| e.kind).collect()
    }

    #[test]
    fn steady_telemetry_rate_raises_nothing() {
        let (bus, drain) = EvidenceBus::new();
        let mut mon = NetMonitor::new().with_bus(bus);
        // Learn for 30 windows, then enforce 30 more at the same rate.
        for s in 0..30 {
            for _ in 0..3 {
                mon.observe_packet(&"lamp".into(), SimTime::from_secs(s));
            }
        }
        mon.finish_learning();
        for s in 30..60 {
            for _ in 0..3 {
                mon.observe_packet(&"lamp".into(), SimTime::from_secs(s));
            }
        }
        assert!(drain_kinds(&drain).is_empty());
    }

    #[test]
    fn ddos_burst_raises_traffic_anomaly() {
        let (bus, drain) = EvidenceBus::new();
        let mut mon = NetMonitor::new().with_bus(bus);
        for s in 0..30 {
            for _ in 0..3 {
                mon.observe_packet(&"cam".into(), SimTime::from_secs(s));
            }
        }
        mon.finish_learning();
        // Flood: 500 packets/window.
        for s in 30..35 {
            for _ in 0..500 {
                mon.observe_packet(&"cam".into(), SimTime::from_secs(s));
            }
        }
        let kinds = drain_kinds(&drain);
        assert!(
            kinds.contains(&EvidenceKind::TrafficAnomaly),
            "flood must be flagged, got {kinds:?}"
        );
    }

    #[test]
    fn dfa_learns_then_flags_novel_transitions() {
        let (bus, drain) = EvidenceBus::new();
        let mut mon = NetMonitor::new().with_bus(bus);
        for _ in 0..5 {
            mon.observe_transition(&"cam".into(), "idle", "cmd", "streaming", SimTime::ZERO);
            mon.observe_transition(&"cam".into(), "streaming", "cmd", "idle", SimTime::ZERO);
        }
        mon.finish_learning();
        mon.observe_transition(
            &"cam".into(),
            "idle",
            "cmd",
            "streaming",
            SimTime::from_secs(1),
        );
        mon.observe_transition(
            &"cam".into(),
            "idle",
            "exploit",
            "compromised",
            SimTime::from_secs(2),
        );
        let kinds = drain_kinds(&drain);
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == EvidenceKind::DfaViolation)
                .count(),
            1
        );
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == EvidenceKind::StateTransition)
                .count(),
            1
        );
        assert_eq!(mon.profiled_devices(), 1);
    }

    #[test]
    fn learning_mode_is_silent() {
        let (bus, drain) = EvidenceBus::new();
        let mut mon = NetMonitor::new().with_bus(bus);
        mon.observe_transition(&"cam".into(), "idle", "weird", "compromised", SimTime::ZERO);
        for _ in 0..1000 {
            mon.observe_packet(&"cam".into(), SimTime::ZERO);
        }
        assert!(drain_kinds(&drain).is_empty());
    }
}
