//! Device-layer attack nodes (Table II rows 1–6).

use std::cell::RefCell;
use std::rc::Rc;
use xlf_device::firmware::{FirmwareImage, Version};
use xlf_protocols::ssdp::SsdpMessage;
use xlf_simnet::{Body, Context, Node, NodeId, Packet};

/// Outcome log shared between an attack node and the experiment harness.
pub type SharedLog = Rc<RefCell<Vec<String>>>;

/// Creates a fresh shared log.
pub fn shared_log() -> SharedLog {
    Rc::new(RefCell::new(Vec::new()))
}

/// Table II row 1 (and row 6 in generic-auth mode): tries factory-default
/// credentials against a set of target devices.
pub struct CredentialAttacker {
    targets: Vec<NodeId>,
    /// Devices that accepted `admin`/`admin`.
    pub log: SharedLog,
}

impl CredentialAttacker {
    /// Creates an attacker that will try every target at start.
    pub fn new(targets: Vec<NodeId>, log: SharedLog) -> Self {
        CredentialAttacker { targets, log }
    }
}

impl Node for CredentialAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &target in &self.targets {
            let (device, user, pass) = (None, "admin", "admin");
            let body = Body::Login { device, user, pass };
            ctx.send(target, Packet::new(ctx.id(), target, body, Vec::new()));
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
        let Body::LoginResult { device, outcome } = packet.body else {
            return;
        };
        if outcome == "success" {
            let line = format!("default-credential takeover of {device}");
            self.log.borrow_mut().push(line);
        }
    }
}

/// Table II row 2: sends an oversized command payload that smashes the
/// parser buffer on vulnerable devices.
pub struct OverflowAttacker {
    target: NodeId,
    /// Payload length (> 64 triggers the modeled overflow).
    pub payload_len: usize,
}

impl OverflowAttacker {
    /// Creates an attacker against one device.
    pub fn new(target: NodeId) -> Self {
        OverflowAttacker {
            target,
            payload_len: 256,
        }
    }
}

impl Node for OverflowAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Shellcode-shaped payload: NOP sled + marker.
        let mut payload = vec![0x90u8; self.payload_len];
        payload.extend_from_slice(b"SHELLCODE");
        // The exploit is the payload; the command word is empty.
        let (device, command) = (None, "".into());
        let body = Body::Cmd { device, command };
        let pkt = Packet::new(ctx.id(), self.target, body, payload);
        ctx.send(self.target, pkt);
    }
}

/// Table II row 3: pushes an unsigned malicious firmware image.
pub struct FirmwareTamperer {
    target: NodeId,
    /// OTA results observed.
    pub log: SharedLog,
}

impl FirmwareTamperer {
    /// Creates a tamperer against one device.
    pub fn new(target: NodeId, log: SharedLog) -> Self {
        FirmwareTamperer { target, log }
    }

    /// The malicious image: unsigned, wrong vendor, BOTNET payload.
    pub fn malicious_image() -> FirmwareImage {
        FirmwareImage::unsigned(
            Version(9, 9, 9),
            "mallory",
            b"BOTNET implant: exfiltrate and await C&C".to_vec(),
        )
    }

    /// The implant a supply-chain compromise appends to a *legitimate*
    /// release (fed to `OtaServer::compromise`): same bot payload, but
    /// riding the vendor's own distribution path instead of a wholly
    /// forged image. Carries [`IMPLANT_MARKER`].
    pub fn ota_implant() -> Vec<u8> {
        b"\nBOTNET implant: exfiltrate and await C&C".to_vec()
    }
}

/// Byte marker every BOTNET implant payload carries — what DPI
/// signatures and the management plane's compromise accounting scan for.
pub const IMPLANT_MARKER: &[u8] = b"BOTNET";

impl Node for FirmwareTamperer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let (body, image) = (Body::Ota { device: None }, Self::malicious_image());
        let pkt = Packet::new(ctx.id(), self.target, body, image.to_bytes());
        ctx.send(self.target, pkt);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
        if let Body::OtaResult { device, ok, detail } = packet.body {
            let line = format!("ota on {device}: ok={ok} ({detail})");
            self.log.borrow_mut().push(line);
        }
    }
}

/// Table II row 4: forges a deauthentication; vulnerable devices reconnect
/// to the attacker.
pub struct RickrollAttacker {
    target: NodeId,
    /// Reconnections received (successful hijacks).
    pub log: SharedLog,
}

impl RickrollAttacker {
    /// Creates an attacker against one device.
    pub fn new(target: NodeId, log: SharedLog) -> Self {
        RickrollAttacker { target, log }
    }
}

impl Node for RickrollAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let pkt = Packet::new(ctx.id(), self.target, "deauth", Vec::new());
        ctx.send(self.target, pkt);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
        if let Body::Reconnect { device } = packet.body {
            let line = format!("hijacked session of {device}");
            self.log.borrow_mut().push(line);
        }
    }
}

/// Table II row 5: passive LAN listener extracting secrets from plaintext
/// SSDP/UPnP announcements.
pub fn upnp_sniff(messages: &[SsdpMessage]) -> Vec<(String, String)> {
    messages
        .iter()
        .flat_map(|m| {
            m.disclosed_secrets()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_device::{DeviceConfig, SensorKind, SimDevice, VulnSet, Vulnerability};
    use xlf_simnet::{Medium, Network, SimTime};

    struct NullHub;
    impl Node for NullHub {}

    fn home_with(vulns: VulnSet) -> (Network, NodeId) {
        let mut net = Network::new(21);
        let hub = net.add_node(Box::new(NullHub));
        let cfg = DeviceConfig::new("victim", SensorKind::Power, hub).with_vulns(vulns);
        let dev = net.add_node(Box::new(SimDevice::new(cfg)));
        net.connect(hub, dev, Medium::Wifi.link().with_loss(0.0));
        (net, dev)
    }

    #[test]
    fn credential_attack_succeeds_only_against_static_passwords() {
        for (vulns, expect) in [
            (VulnSet::of(&[Vulnerability::StaticPassword]), true),
            (VulnSet::hardened(), false),
        ] {
            let (mut net, dev) = home_with(vulns);
            let log = shared_log();
            let attacker = net.add_node(Box::new(CredentialAttacker::new(vec![dev], log.clone())));
            net.connect(attacker, dev, Medium::Wifi.link().with_loss(0.0));
            net.run_until(SimTime::from_secs(5));
            assert_eq!(!log.borrow().is_empty(), expect);
        }
    }

    #[test]
    fn overflow_attack_compromises_vulnerable_device() {
        let (mut net, dev) = home_with(VulnSet::of(&[Vulnerability::BufferOverflow]));
        let attacker = net.add_node(Box::new(OverflowAttacker::new(dev)));
        net.connect(attacker, dev, Medium::Wifi.link().with_loss(0.0));
        net.run_until(SimTime::from_secs(5));
        assert!(net.node_as::<SimDevice>(dev).unwrap().is_compromised());
    }

    #[test]
    fn firmware_tamper_respects_verification() {
        for (vulns, expect_compromise) in [
            (VulnSet::of(&[Vulnerability::UnsignedFirmware]), true),
            (VulnSet::hardened(), false),
        ] {
            let (mut net, dev) = home_with(vulns);
            let log = shared_log();
            let attacker = net.add_node(Box::new(FirmwareTamperer::new(dev, log.clone())));
            net.connect(attacker, dev, Medium::Wifi.link().with_loss(0.0));
            net.run_until(SimTime::from_secs(5));
            assert_eq!(
                net.node_as::<SimDevice>(dev).unwrap().is_compromised(),
                expect_compromise
            );
            assert_eq!(log.borrow().len(), 1, "ota-result must be logged");
        }
    }

    #[test]
    fn rickroll_hijacks_only_vulnerable_streamers() {
        for (vulns, expect) in [
            (VulnSet::of(&[Vulnerability::RickrollReconnect]), true),
            (VulnSet::hardened(), false),
        ] {
            let (mut net, dev) = home_with(vulns);
            let log = shared_log();
            let attacker = net.add_node(Box::new(RickrollAttacker::new(dev, log.clone())));
            net.connect(attacker, dev, Medium::Wifi.link().with_loss(0.0));
            net.run_until(SimTime::from_secs(5));
            assert_eq!(!log.borrow().is_empty(), expect);
        }
    }

    #[test]
    fn upnp_sniffing_extracts_setup_secrets() {
        let messages = vec![
            SsdpMessage::notify("urn:x:tv:1", "uuid:tv").with_field("LOCATION", "http://x/"),
            SsdpMessage::notify("urn:acme:device:coffeemaker:1", "uuid:cafe")
                .with_field("X-Setup-Wifi-Pass", "home-network-password-123"),
        ];
        let secrets = upnp_sniff(&messages);
        assert_eq!(secrets.len(), 1);
        assert_eq!(secrets[0].1, "home-network-password-123");
    }
}
