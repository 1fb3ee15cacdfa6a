//! Service-layer event spoofing (§IV-C2): "since the integrity of the
//! events is not protected, malicious actors could easily launch spoofing
//! event attacks." The spoofer injects fabricated attribute-change events
//! straight at the cloud, trying to trigger automations (e.g. fake a high
//! temperature so the window-opening app fires).

use xlf_simnet::{Context, Node, NodeId, Packet};

/// One fabricated event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpoofedEvent {
    /// Device to impersonate.
    pub device: String,
    /// Attribute to fake.
    pub attribute: String,
    /// Value to report.
    pub value: String,
}

/// A node that fires a batch of spoofed events at the cloud on start.
pub struct EventSpoofer {
    cloud: NodeId,
    events: Vec<SpoofedEvent>,
}

impl EventSpoofer {
    /// Creates a spoofer aimed at `cloud`.
    pub fn new(cloud: NodeId, events: Vec<SpoofedEvent>) -> Self {
        EventSpoofer { cloud, events }
    }

    /// The classic §IV-C3 scenario: fake a hot thermostat so the
    /// window-opening automation fires while the burglar waits outside.
    pub fn heater_attack(cloud: NodeId, thermostat: &str) -> Self {
        EventSpoofer::new(
            cloud,
            vec![SpoofedEvent {
                device: thermostat.to_string(),
                attribute: "temperature".to_string(),
                value: "95".to_string(),
            }],
        )
    }
}

impl Node for EventSpoofer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for event in &self.events {
            let pkt = Packet::new(ctx.id(), self.cloud, "spoofed-event", Vec::new())
                .with_meta("device", event.device.clone())
                .with_meta("attribute", event.attribute.clone())
                .with_meta("value", event.value.clone());
            ctx.send(self.cloud, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_cloud::smartapp::{PermissionModel, SmartApp};
    use xlf_cloud::{Capability, CloudNode, DeviceHandler, EventPolicy, SmartCloud};
    use xlf_simnet::{Medium, Network, SimTime};

    struct Sink;
    impl Node for Sink {}

    fn window_home(policy: EventPolicy) -> (Network, NodeId) {
        let mut net = Network::new(31);
        let hub_placeholder = NodeId::from_raw(1);
        let mut cloud = SmartCloud::new(policy, PermissionModel::Scoped, b"hub secret");
        cloud.register_device(DeviceHandler::new(
            "thermo",
            &[Capability::TemperatureMeasurement],
        ));
        cloud.register_device(DeviceHandler::new("window", &[Capability::Switch]));
        cloud.install_app(SmartApp::auto_window());
        let cloud_id = net.add_node(Box::new(CloudNode::new(cloud, hub_placeholder)));
        let hub = net.add_node(Box::new(Sink));
        assert_eq!(hub, hub_placeholder);
        net.connect(cloud_id, hub, Medium::Wan.link().with_loss(0.0));
        (net, cloud_id)
    }

    #[test]
    fn spoofed_heat_opens_the_window_on_a_permissive_cloud() {
        let (mut net, cloud) = window_home(EventPolicy::permissive());
        let spoofer = net.add_node(Box::new(EventSpoofer::heater_attack(cloud, "thermo")));
        net.connect(spoofer, cloud, Medium::Wan.link().with_loss(0.0));
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.run_until(SimTime::from_secs(5));
        assert!(
            records
                .borrow()
                .iter()
                .any(|r| r.ground_truth_kind == "cmd"),
            "window-open command must have been issued"
        );
    }

    #[test]
    fn hardened_cloud_ignores_the_spoof() {
        let (mut net, cloud) = window_home(EventPolicy::hardened());
        let spoofer = net.add_node(Box::new(EventSpoofer::heater_attack(cloud, "thermo")));
        net.connect(spoofer, cloud, Medium::Wan.link().with_loss(0.0));
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.run_until(SimTime::from_secs(5));
        assert!(
            !records
                .borrow()
                .iter()
                .any(|r| r.ground_truth_kind == "cmd"),
            "hardened cloud must not obey the spoofed event"
        );
    }
}
