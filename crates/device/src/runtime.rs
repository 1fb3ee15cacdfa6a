//! The simulated device runtime: a [`Node`] gluing together sensor,
//! firmware store, credential store, local storage, and vulnerability
//! profile, speaking the small packet vocabulary the rest of the system
//! (hub, cloud, attacks, XLF) shares.
//!
//! ## Wire vocabulary (packet `kind` + metadata)
//!
//! | kind | direction | meaning |
//! |---|---|---|
//! | `telemetry` | device → hub | periodic sensor reading |
//! | `event` | device → hub | state transition notification |
//! | `cmd` | hub → device | `action` meta: `on`/`off`/`stream`/`idle` |
//! | `login` | any → device | `user`/`pass` meta; replies `login-result` |
//! | `ota` | hub → device | firmware image payload; replies `ota-result` |
//! | `probe` | any → device | port probe; replies `probe-result` |
//! | `attack-cmd` | C&C → device | botnet order (only if compromised) |
//! | `ddos` | device → victim | flood packet (via hub, `final_dst` meta) |

use crate::credentials::{CredentialStore, LoginOutcome};
use crate::firmware::{vendor_key, FirmwareImage, FirmwareStore, UpdatePolicy};
use crate::sensor::{Sensor, SensorKind};
use crate::storage::{LocalStore, StorageEncryption};
use crate::vulns::{VulnSet, Vulnerability};
use std::rc::Rc;
use std::sync::Arc;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_simnet::{Context, Duration, Node, NodeId, Packet, Protocol};

/// Operational state of a device — the state machine the paper's
/// behavioural monitoring (HoMonit-style DFA, §IV-B3) profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Powered but dormant.
    Idle,
    /// Actively performing its function.
    Active,
    /// High-rate mode (e.g. camera streaming).
    Streaming,
    /// Turned off (still reachable for wake commands).
    Off,
    /// Under attacker control.
    Compromised,
}

impl DeviceState {
    /// Short label used in events and DFA symbols.
    pub fn label(self) -> &'static str {
        match self {
            DeviceState::Idle => "idle",
            DeviceState::Active => "active",
            DeviceState::Streaming => "streaming",
            DeviceState::Off => "off",
            DeviceState::Compromised => "compromised",
        }
    }
}

/// Static configuration of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable name (also used as the device identity).
    pub name: String,
    /// Sensing modality.
    pub sensor: SensorKind,
    /// Sensor determinism seed.
    pub seed: u64,
    /// Vulnerability profile.
    pub vulns: VulnSet,
    /// The hub/gateway this device talks through.
    pub hub: NodeId,
    /// Telemetry period while `Idle`/`Active`.
    pub telemetry_period: Duration,
    /// Vendor identity for firmware verification.
    pub vendor: String,
    /// Vendor signing secret (shared with the legitimate OTA server).
    pub vendor_secret: Vec<u8>,
}

impl DeviceConfig {
    /// A hardened device configuration with sane defaults.
    pub fn new(name: &str, sensor: SensorKind, hub: NodeId) -> Self {
        DeviceConfig {
            name: name.to_string(),
            sensor,
            seed: name.bytes().map(u64::from).sum(),
            vulns: VulnSet::hardened(),
            hub,
            telemetry_period: Duration::from_secs(30),
            vendor: "acme".to_string(),
            vendor_secret: b"acme vendor secret".to_vec(),
        }
    }

    /// Replaces the vulnerability profile (builder-style).
    pub fn with_vulns(mut self, vulns: VulnSet) -> Self {
        self.vulns = vulns;
        self
    }

    /// Overrides the telemetry period (builder-style).
    pub fn with_telemetry_period(mut self, period: Duration) -> Self {
        self.telemetry_period = period;
        self
    }
}

const TIMER_TELEMETRY: u64 = 1;
const TIMER_DDOS: u64 = 2;

/// A simulated IoT device.
pub struct SimDevice {
    config: Arc<DeviceConfig>,
    /// The configuration's name, shared by every packet that names the
    /// device and by whoever else holds it ([`SimDevice::name`]).
    name: Rc<str>,
    sensor: Sensor,
    state: DeviceState,
    /// The firmware slot, credentials and local store start shared with
    /// the device's kit (and every sibling built from it); the device's
    /// first write to one copies it (`Arc::make_mut`).
    firmware: Arc<FirmwareStore>,
    credentials: Arc<CredentialStore>,
    storage: Arc<LocalStore>,
    /// Target and packet budget for an active botnet order.
    ddos_order: Option<(NodeId, u32)>,
    /// Count of state transitions, for test inspection.
    pub transitions: Vec<(DeviceState, DeviceState)>,
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("name", &self.config.name)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

/// What a device's configuration fixes before it first runs: the
/// firmware slot holding the vendor-signed factory image under the
/// device's update policy, the hashed login credentials and the local
/// store with the sealed WiFi key. Each is a pure function of the
/// configuration (name, vulnerability profile, vendor and its secret),
/// so any number of devices built from one configuration share one kit
/// ([`SimDevice::from_kit`]) instead of re-deriving its keys or copying
/// its stores.
#[derive(Debug)]
pub struct DeviceKit {
    config: Arc<DeviceConfig>,
    firmware: Arc<FirmwareStore>,
    credentials: Arc<CredentialStore>,
    storage: Arc<LocalStore>,
}

impl DeviceKit {
    /// Derives the kit of `config`: one signed factory image, one
    /// credential hash and one sealed store.
    pub fn derive(config: DeviceConfig) -> Self {
        Self::derive_all([config])
            .pop()
            .unwrap_or_else(|| unreachable!("one kit per configuration"))
    }

    /// Derives the kits of `configs`, in order. Devices of one vendor
    /// (and vendor secret) share its signing key, derived once here.
    pub fn derive_all(configs: impl IntoIterator<Item = DeviceConfig>) -> Vec<Self> {
        let mut keys: Vec<(String, Vec<u8>, Speck128)> = Vec::new();
        configs
            .into_iter()
            .map(|config| {
                let known = keys
                    .iter()
                    .position(|(v, s, _)| *v == config.vendor && *s == config.vendor_secret);
                let at = known.unwrap_or_else(|| {
                    let key = vendor_key(&config.vendor, &config.vendor_secret);
                    keys.push((config.vendor.clone(), config.vendor_secret.clone(), key));
                    keys.len() - 1
                });
                Self::signed_with(config, &keys[at].2)
            })
            .collect()
    }

    /// The kit of `config`, its factory image signed under `key`.
    fn signed_with(config: DeviceConfig, key: &Speck128) -> Self {
        let factory = FirmwareImage::signed_with(
            crate::firmware::Version(1, 0, 0),
            &config.vendor,
            format!("factory firmware for {}", config.name).into_bytes(),
            key,
        );

        let credentials = if config.vulns.has(Vulnerability::StaticPassword)
            || config.vulns.has(Vulnerability::GenericAuth)
        {
            CredentialStore::factory_default()
        } else {
            let mut c = CredentialStore::hardened();
            c.add_user("owner", &format!("{}-Str0ng!Pass", config.name));
            c
        };

        let encryption = if config.vulns.has(Vulnerability::PlaintextStorage) {
            StorageEncryption::None
        } else {
            StorageEncryption::Encrypted {
                device_secret: format!("{}-device-secret", config.name).into_bytes(),
            }
        };
        let mut storage = LocalStore::new(encryption);
        storage.put("wifi-psk", b"home-network-password-123");

        let policy = if config.vulns.has(Vulnerability::UnsignedFirmware) {
            UpdatePolicy::promiscuous()
        } else {
            UpdatePolicy::strict()
        };
        let firmware = FirmwareStore::new(factory, policy, &config.vendor_secret);
        DeviceKit {
            config: Arc::new(config),
            firmware: Arc::new(firmware),
            credentials: Arc::new(credentials),
            storage: Arc::new(storage),
        }
    }
}

impl SimDevice {
    /// Builds a device from its configuration, deriving its kit.
    pub fn new(config: DeviceConfig) -> Self {
        Self::from_kit(&DeviceKit::derive(config))
    }

    /// Builds a fresh device from a kit: the device shares the kit's
    /// configuration (never written) and its firmware slot, credentials
    /// and store until its first write to one, which copies it, so
    /// nothing the device does reaches the kit or a sibling device. Its
    /// name is its own (never shared with a sibling built from the same
    /// kit).
    pub fn from_kit(kit: &DeviceKit) -> Self {
        let config = Arc::clone(&kit.config);
        let sensor = Sensor::new(config.sensor, config.seed);
        SimDevice {
            name: Rc::from(config.name.as_str()),
            config,
            sensor,
            state: DeviceState::Idle,
            firmware: Arc::clone(&kit.firmware),
            credentials: Arc::clone(&kit.credentials),
            storage: Arc::clone(&kit.storage),
            ddos_order: None,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device's name, as the one shared `Rc` its packets carry.
    pub fn name(&self) -> &Rc<str> {
        &self.name
    }

    /// Firmware store (inspection).
    pub fn firmware(&self) -> &FirmwareStore {
        &self.firmware
    }

    /// Local storage (inspection).
    pub fn storage(&self) -> &LocalStore {
        &self.storage
    }

    /// Credential store (inspection).
    pub fn credentials(&self) -> &CredentialStore {
        &self.credentials
    }

    /// Whether the device is under attacker control.
    pub fn is_compromised(&self) -> bool {
        self.state == DeviceState::Compromised
    }

    fn set_state(&mut self, ctx: &mut Context<'_>, next: DeviceState) {
        if next == self.state {
            return;
        }
        let prev = self.state;
        self.state = next;
        self.transitions.push((prev, next));
        let event = Packet::new(ctx.id(), self.config.hub, "event", Vec::new())
            .with_meta("device", &self.name)
            .with_meta("from", prev.label())
            .with_meta("to", next.label());
        ctx.send(self.config.hub, event);
    }

    fn telemetry_period(&self) -> Duration {
        match self.state {
            DeviceState::Streaming => Duration::from_millis(200),
            DeviceState::Active => self.config.telemetry_period,
            DeviceState::Idle => self.config.telemetry_period,
            DeviceState::Off => Duration::from_secs(300),
            DeviceState::Compromised => self.config.telemetry_period,
        }
    }

    fn telemetry_size(&self) -> usize {
        match self.state {
            DeviceState::Streaming => 900,
            DeviceState::Active => 120,
            _ => 48,
        }
    }

    fn handle_cmd(&mut self, ctx: &mut Context<'_>, packet: &Packet) {
        // Table II "wall pad" row: oversized command payloads smash the
        // parser buffer and execute attacker shellcode.
        if self.config.vulns.has(Vulnerability::BufferOverflow) && packet.payload.len() > 64 {
            self.set_state(ctx, DeviceState::Compromised);
            return;
        }
        match packet.meta("action") {
            Some("on") => self.set_state(ctx, DeviceState::Active),
            Some("off") => self.set_state(ctx, DeviceState::Off),
            Some("stream") => self.set_state(ctx, DeviceState::Streaming),
            Some("idle") => self.set_state(ctx, DeviceState::Idle),
            _ => {}
        }
    }

    fn handle_login(&mut self, ctx: &mut Context<'_>, packet: &Packet) {
        let user = packet.meta("user").unwrap_or_default().to_string();
        let pass = packet.meta("pass").unwrap_or_default().to_string();
        let outcome = Arc::make_mut(&mut self.credentials).login(&user, &pass);
        let outcome_str = match outcome {
            LoginOutcome::Success => "success",
            LoginOutcome::UnknownUser => "unknown-user",
            LoginOutcome::WrongPassword => "wrong-password",
            LoginOutcome::LockedOut => "locked-out",
        };
        // A successful login by the default credentials on a vulnerable
        // device hands over control (Table II smart-bulb / fridge rows).
        if outcome == LoginOutcome::Success
            && self.credentials.has_default_credentials
            && user == "admin"
        {
            self.set_state(ctx, DeviceState::Compromised);
        }
        let reply = Packet::new(ctx.id(), packet.src, "login-result", Vec::new())
            .with_meta("outcome", outcome_str)
            .with_meta("device", &self.name);
        ctx.send(packet.src, reply);
    }

    fn handle_ota(&mut self, ctx: &mut Context<'_>, packet: &Packet) {
        let result = FirmwareImage::from_bytes(&packet.payload)
            .and_then(|image| Arc::make_mut(&mut self.firmware).apply(image));
        let (ok, detail) = match &result {
            Ok(()) => (true, String::from("applied")),
            Err(e) => (false, e.to_string()),
        };
        if ok && self.firmware.payload_contains(b"BOTNET") {
            self.set_state(ctx, DeviceState::Compromised);
        }
        let reply = Packet::new(ctx.id(), packet.src, "ota-result", Vec::new())
            .with_meta("ok", if ok { "true" } else { "false" })
            .with_meta("detail", detail)
            .with_meta("device", &self.name);
        ctx.send(packet.src, reply);
    }

    fn handle_probe(&mut self, ctx: &mut Context<'_>, packet: &Packet) {
        let port = packet.meta("port").unwrap_or("23");
        let open = match port {
            "23" => {
                // Telnet open on weak-credential devices (the Mirai vector).
                self.config.vulns.has(Vulnerability::StaticPassword)
                    || self.config.vulns.has(Vulnerability::GenericAuth)
            }
            "1900" => {
                self.config.vulns.has(Vulnerability::OpenUpnpPorts)
                    || self.config.vulns.has(Vulnerability::UnprotectedChannel)
            }
            _ => false,
        };
        let reply = Packet::new(ctx.id(), packet.src, "probe-result", Vec::new())
            .with_meta("port", port.to_string())
            .with_meta("open", if open { "true" } else { "false" })
            .with_meta("device", &self.name);
        ctx.send(packet.src, reply);
    }

    fn handle_attack_cmd(&mut self, ctx: &mut Context<'_>, packet: &Packet) {
        if !self.is_compromised() {
            return; // healthy devices ignore C&C traffic
        }
        let Some(target) = packet
            .meta("target")
            .and_then(|t| t.parse::<u32>().ok())
            .map(NodeId::from_raw)
        else {
            return;
        };
        let count = packet
            .meta("count")
            .and_then(|c| c.parse::<u32>().ok())
            .unwrap_or(100);
        self.ddos_order = Some((target, count));
        ctx.set_timer(Duration::from_millis(10), TIMER_DDOS);
    }
}

impl Node for SimDevice {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.telemetry_period(), TIMER_TELEMETRY);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TIMER_TELEMETRY => {
                if self.state != DeviceState::Off {
                    let payload = self.sensor.encode_reading(ctx.now(), self.telemetry_size());
                    let pkt = Packet::new(ctx.id(), self.config.hub, "telemetry", payload)
                        .with_protocol(Protocol::Tls)
                        .with_meta("device", &self.name)
                        .with_meta("state", self.state.label());
                    ctx.send(self.config.hub, pkt);
                }
                ctx.set_timer(self.telemetry_period(), TIMER_TELEMETRY);
            }
            TIMER_DDOS => {
                if let Some((target, remaining)) = self.ddos_order {
                    let flood = Packet::new(ctx.id(), self.config.hub, "ddos", vec![0u8; 512])
                        .with_protocol(Protocol::Udp)
                        .with_meta("final_dst", target.raw().to_string())
                        .with_meta("device", &self.name);
                    ctx.send(self.config.hub, flood);
                    if remaining > 1 {
                        self.ddos_order = Some((target, remaining - 1));
                        ctx.set_timer(Duration::from_millis(2), TIMER_DDOS);
                    } else {
                        self.ddos_order = None;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        match packet.kind {
            "cmd" => self.handle_cmd(ctx, &packet),
            "login" => self.handle_login(ctx, &packet),
            "ota" => self.handle_ota(ctx, &packet),
            "probe" => self.handle_probe(ctx, &packet),
            "attack-cmd" => self.handle_attack_cmd(ctx, &packet),
            // Table II "Chromecast" row: a forged deauthentication makes a
            // rickroll-vulnerable device drop its session and reconnect to
            // the sender, handing over the stream.
            "deauth" if self.config.vulns.has(Vulnerability::RickrollReconnect) => {
                self.set_state(ctx, DeviceState::Compromised);
                let reconnect = Packet::new(ctx.id(), packet.src, "reconnect", Vec::new())
                    .with_meta("device", &self.name);
                ctx.send(packet.src, reconnect);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::Version;
    use std::cell::RefCell;
    use std::rc::Rc;
    use xlf_simnet::{Medium, Network, SimTime};

    /// Hub stub that records everything it hears.
    #[derive(Default)]
    struct HubStub {
        heard: Rc<RefCell<Vec<Packet>>>,
    }
    impl Node for HubStub {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
            self.heard.borrow_mut().push(packet);
        }
    }

    fn setup(vulns: VulnSet) -> (Network, NodeId, NodeId, Rc<RefCell<Vec<Packet>>>) {
        let mut net = Network::new(5);
        let heard = Rc::new(RefCell::new(Vec::new()));
        let hub = net.add_node(Box::new(HubStub {
            heard: heard.clone(),
        }));
        let cfg = DeviceConfig::new("lamp", SensorKind::Power, hub)
            .with_vulns(vulns)
            .with_telemetry_period(Duration::from_secs(5));
        let dev = net.add_node(Box::new(SimDevice::new(cfg)));
        net.connect(hub, dev, Medium::Zigbee.link().with_loss(0.0));
        (net, hub, dev, heard)
    }

    fn device_state(net: &Network, dev: NodeId) -> Vec<Packet> {
        // Inspect through emitted events instead of downcasting.
        let _ = (net, dev);
        Vec::new()
    }

    #[test]
    fn telemetry_flows_periodically() {
        let (mut net, _hub, _dev, heard) = setup(VulnSet::hardened());
        net.run_until(SimTime::from_secs(31));
        let telemetry: Vec<_> = heard
            .borrow()
            .iter()
            .filter(|p| p.kind == "telemetry")
            .cloned()
            .collect();
        assert!(telemetry.len() >= 5, "got {}", telemetry.len());
        assert_eq!(telemetry[0].meta("device"), Some("lamp"));
    }

    #[test]
    fn commands_drive_state_machine_and_events() {
        let (mut net, hub, dev, heard) = setup(VulnSet::hardened());
        net.inject(
            hub,
            dev,
            Packet::new(hub, dev, "cmd", Vec::new()).with_meta("action", "stream"),
        );
        net.run_until(SimTime::from_secs(2));
        let events: Vec<_> = heard
            .borrow()
            .iter()
            .filter(|p| p.kind == "event")
            .cloned()
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].meta("from"), Some("idle"));
        assert_eq!(events[0].meta("to"), Some("streaming"));
        let _ = device_state(&net, dev);
    }

    #[test]
    fn streaming_raises_telemetry_rate_and_size() {
        let (mut net, hub, dev, heard) = setup(VulnSet::hardened());
        net.inject(
            hub,
            dev,
            Packet::new(hub, dev, "cmd", Vec::new()).with_meta("action", "stream"),
        );
        net.run_until(SimTime::from_secs(10));
        let telemetry: Vec<_> = heard
            .borrow()
            .iter()
            .filter(|p| p.kind == "telemetry")
            .cloned()
            .collect();
        // 200 ms period → tens of packets in 10 s, with streaming size.
        assert!(telemetry.len() > 20);
        assert!(telemetry.iter().any(|p| p.payload.len() == 900));
    }

    #[test]
    fn default_credentials_grant_takeover_only_when_vulnerable() {
        // Vulnerable path.
        let (mut net, _hub, dev, heard) = setup(VulnSet::of(&[Vulnerability::StaticPassword]));
        let attacker = net.add_node(Box::new(HubStub::default()));
        net.connect(attacker, dev, Medium::Wifi.link().with_loss(0.0));
        net.inject(
            attacker,
            dev,
            Packet::new(attacker, dev, "login", Vec::new())
                .with_meta("user", "admin")
                .with_meta("pass", "admin"),
        );
        net.run_until(SimTime::from_secs(2));
        let compromised_event = heard
            .borrow()
            .iter()
            .any(|p| p.kind == "event" && p.meta("to") == Some("compromised"));
        assert!(compromised_event);

        // Hardened path.
        let (mut net2, _hub2, dev2, heard2) = setup(VulnSet::hardened());
        let attacker2 = net2.add_node(Box::new(HubStub::default()));
        net2.connect(attacker2, dev2, Medium::Wifi.link().with_loss(0.0));
        net2.inject(
            attacker2,
            dev2,
            Packet::new(attacker2, dev2, "login", Vec::new())
                .with_meta("user", "admin")
                .with_meta("pass", "admin"),
        );
        net2.run_until(SimTime::from_secs(2));
        let compromised2 = heard2
            .borrow()
            .iter()
            .any(|p| p.kind == "event" && p.meta("to") == Some("compromised"));
        assert!(!compromised2);
    }

    #[test]
    fn buffer_overflow_requires_the_vuln_flag() {
        let oversized = vec![b'A'; 200];

        let (mut net, hub, dev, heard) = setup(VulnSet::of(&[Vulnerability::BufferOverflow]));
        net.inject(hub, dev, Packet::new(hub, dev, "cmd", oversized.clone()));
        net.run_until(SimTime::from_secs(1));
        assert!(heard
            .borrow()
            .iter()
            .any(|p| p.kind == "event" && p.meta("to") == Some("compromised")));

        let (mut net2, hub2, dev2, heard2) = setup(VulnSet::hardened());
        net2.inject(hub2, dev2, Packet::new(hub2, dev2, "cmd", oversized));
        net2.run_until(SimTime::from_secs(1));
        assert!(!heard2.borrow().iter().any(|p| p.kind == "event"));
    }

    #[test]
    fn unsigned_firmware_attack_requires_the_vuln_flag() {
        let evil = FirmwareImage::unsigned(Version(9, 9, 9), "mallory", b"BOTNET code".to_vec());

        let (mut net, hub, dev, heard) = setup(VulnSet::of(&[Vulnerability::UnsignedFirmware]));
        net.inject(hub, dev, Packet::new(hub, dev, "ota", evil.to_bytes()));
        net.run_until(SimTime::from_secs(1));
        assert!(heard
            .borrow()
            .iter()
            .any(|p| p.kind == "ota-result" && p.meta("ok") == Some("true")));
        assert!(heard
            .borrow()
            .iter()
            .any(|p| p.kind == "event" && p.meta("to") == Some("compromised")));

        let (mut net2, hub2, dev2, heard2) = setup(VulnSet::hardened());
        net2.inject(hub2, dev2, Packet::new(hub2, dev2, "ota", evil.to_bytes()));
        net2.run_until(SimTime::from_secs(1));
        assert!(heard2
            .borrow()
            .iter()
            .any(|p| p.kind == "ota-result" && p.meta("ok") == Some("false")));
    }

    #[test]
    fn probe_reports_open_telnet_only_on_weak_devices() {
        let (mut net, hub, dev, heard) = setup(VulnSet::of(&[Vulnerability::StaticPassword]));
        net.inject(
            hub,
            dev,
            Packet::new(hub, dev, "probe", Vec::new()).with_meta("port", "23"),
        );
        net.run_until(SimTime::from_secs(1));
        assert!(heard
            .borrow()
            .iter()
            .any(|p| p.kind == "probe-result" && p.meta("open") == Some("true")));
    }

    #[test]
    fn healthy_devices_ignore_cnc_orders() {
        let (mut net, hub, dev, heard) = setup(VulnSet::hardened());
        net.inject(
            hub,
            dev,
            Packet::new(hub, dev, "attack-cmd", Vec::new())
                .with_meta("target", "0")
                .with_meta("count", "10"),
        );
        net.run_until(SimTime::from_secs(2));
        assert!(!heard.borrow().iter().any(|p| p.kind == "ddos"));
    }

    #[test]
    fn compromised_devices_flood_on_command() {
        let (mut net, hub, dev, heard) = setup(VulnSet::of(&[Vulnerability::BufferOverflow]));
        net.inject(hub, dev, Packet::new(hub, dev, "cmd", vec![b'A'; 200]));
        net.run_until(SimTime::from_secs(1));
        net.inject(
            hub,
            dev,
            Packet::new(hub, dev, "attack-cmd", Vec::new())
                .with_meta("target", "0")
                .with_meta("count", "25"),
        );
        net.run_until(SimTime::from_secs(5));
        let floods = heard.borrow().iter().filter(|p| p.kind == "ddos").count();
        assert_eq!(floods, 25);
    }
}
