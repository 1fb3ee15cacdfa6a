//! The assembled SmartThings-style cloud and its `simnet` node wrappers.
//!
//! Topology (Figure 1): devices ↔ hub (LAN media) — hub ↔ cloud (WAN).
//! The [`HubNode`] bridges both sides; the [`CloudNode`] hosts the
//! [`SmartCloud`] logic: device handlers, the event bus, SmartApp
//! execution, the API gateway, and the OTA server.

use crate::api::{ApiCall, ApiGateway};
use crate::capability::{DeviceHandler, DeviceHandlers};
use crate::events::{CloudEvent, EventBus, EventKeys, EventPolicy, EventSource, Subscription};
use crate::oauth::TokenService;
use crate::ota_server::OtaServer;
use crate::smartapp::{authorize_actions, Action, ActionVerdict, PermissionModel, SmartApp};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use xlf_protocols::rest::{Request, Response};
use xlf_simnet::{Context, MetaValue, Node, NodeId, Packet, Protocol, SimTime};

/// Installed apps and the event subscriptions they hold, as one value
/// any number of clouds share: a cloud given the set
/// ([`SmartCloud::with_apps`]) holds it by reference and copies it only
/// when it installs an app of its own.
#[derive(Debug, Clone, Default)]
pub struct AppSet {
    apps: Arc<Vec<SmartApp>>,
    subscriptions: Arc<Vec<Subscription>>,
}

impl AppSet {
    /// The set of `apps`, installed in order.
    pub fn new(apps: impl IntoIterator<Item = SmartApp>) -> Self {
        let mut set = AppSet::default();
        for app in apps {
            let subscriptions = Arc::make_mut(&mut set.subscriptions);
            subscriptions.extend(subscriptions_of(&app));
            Arc::make_mut(&mut set.apps).push(app);
        }
        set
    }
}

/// The bus subscriptions installing `app` makes.
fn subscriptions_of(app: &SmartApp) -> impl Iterator<Item = Subscription> + '_ {
    app.subscriptions().into_iter().map(|(device, attribute)| {
        let sensitive = app.permissions.sensitive_grant(&device);
        Subscription::new(&app.name, &device, &attribute, sensitive)
    })
}

/// The cloud's pure logic (testable without a network).
#[derive(Debug)]
pub struct SmartCloud {
    /// Registered device handlers.
    pub handlers: DeviceHandlers,
    /// The event subsystem.
    pub bus: EventBus,
    /// Installed SmartApps, shared with the [`AppSet`] they came from
    /// until this cloud installs one of its own.
    pub apps: Arc<Vec<SmartApp>>,
    /// Permission posture for app actions.
    pub permission_model: PermissionModel,
    /// Token authority.
    pub tokens: TokenService,
    /// API gateway.
    pub gateway: ApiGateway,
    /// OTA distribution.
    pub ota: OtaServer,
    /// Actions denied by the permission model (for monitoring/analytics).
    pub denied_actions: Vec<(String, Action)>,
}

impl SmartCloud {
    /// Creates a cloud with the given event/permission posture.
    pub fn new(
        event_policy: EventPolicy,
        permission_model: PermissionModel,
        hub_secret: &[u8],
    ) -> Self {
        let keys = Arc::new(EventKeys::new(hub_secret, []));
        Self::with_event_keys(event_policy, permission_model, keys)
    }

    /// As [`SmartCloud::new`], with the event bus over shared event keys
    /// (see [`EventBus::with_keys`]).
    pub fn with_event_keys(
        event_policy: EventPolicy,
        permission_model: PermissionModel,
        keys: Arc<EventKeys>,
    ) -> Self {
        Self::with_apps(event_policy, permission_model, keys, &AppSet::default())
    }

    /// As [`SmartCloud::with_event_keys`], with `apps` installed: the
    /// cloud shares the set until it installs an app of its own.
    pub fn with_apps(
        event_policy: EventPolicy,
        permission_model: PermissionModel,
        keys: Arc<EventKeys>,
        apps: &AppSet,
    ) -> Self {
        let subscriptions = Arc::clone(&apps.subscriptions);
        SmartCloud {
            handlers: DeviceHandlers::new(),
            bus: EventBus::with_subscriptions(event_policy, keys, subscriptions),
            apps: Arc::clone(&apps.apps),
            permission_model,
            tokens: TokenService::new(),
            gateway: ApiGateway::new(),
            ota: OtaServer::new("acme", b"acme vendor secret"),
            denied_actions: Vec::new(),
        }
    }

    /// Registers a device handler.
    pub fn register_device(&mut self, handler: DeviceHandler) {
        self.handlers.insert(Rc::clone(&handler.device), handler);
    }

    /// Installs an app: wires its subscriptions into the bus.
    pub fn install_app(&mut self, app: SmartApp) {
        self.bus.extend_subscriptions(subscriptions_of(&app));
        Arc::make_mut(&mut self.apps).push(app);
    }

    /// Whether the cloud still holds `set`'s apps and subscriptions by
    /// reference (it installed none of its own since it was given them).
    pub fn shares_apps(&self, set: &AppSet) -> bool {
        Arc::ptr_eq(&self.apps, &set.apps) && self.bus.has_subscriptions(&set.subscriptions)
    }

    /// Ingests a device attribute report, runs the event/app pipeline, and
    /// returns the authorized commands to dispatch. The event keeps the
    /// device's shared name and the attribute as given; only the value
    /// is copied.
    pub fn ingest(
        &mut self,
        at: SimTime,
        device: Rc<str>,
        attribute: Cow<'static, str>,
        value: &str,
        trusted_channel: bool,
    ) -> Vec<Action> {
        if let Some(handler) = self.handlers.get_mut(&*device) {
            handler.record(attribute.clone(), value);
        }
        let capability = self
            .handlers
            .get(&*device)
            .and_then(|h| h.capability_for_attribute(&attribute));
        let mut event = CloudEvent {
            at,
            device,
            attribute,
            value: value.to_string(),
            source: EventSource::Device,
            mac: None,
        };
        if trusted_channel {
            event = self.bus.sign(event);
        }
        if self.bus.publish(event, capability).is_err() {
            return Vec::new();
        }

        let mut commands = Vec::new();
        for app in self.apps.iter() {
            let inbox = self.bus.drain(&app.name);
            for event in inbox {
                let proposed = app.execute(&event);
                for verdict in
                    authorize_actions(self.permission_model, app, proposed, &self.handlers)
                {
                    match verdict {
                        ActionVerdict::Allowed(action) => commands.push(action),
                        ActionVerdict::DeniedScope(action)
                        | ActionVerdict::DeniedUnknownCommand(action) => {
                            self.denied_actions.push((app.name.clone(), action));
                        }
                    }
                }
            }
        }
        commands
    }

    /// Serves an API request, returning the response and any device
    /// commands the call produced.
    pub fn serve(&mut self, request: &Request, now: SimTime) -> (Response, Vec<Action>) {
        match self.gateway.route(request, &mut self.tokens, now) {
            Err(response) => (response, Vec::new()),
            Ok(ApiCall::ListDevices) => (ApiGateway::render_devices(&self.handlers), Vec::new()),
            Ok(ApiCall::GetDevice(device)) => match self.handlers.get(device.as_str()) {
                Some(handler) => {
                    let mut body = String::new();
                    for (attr, value) in &handler.attributes {
                        body.push_str(&format!("{attr}={value}\n"));
                    }
                    (Response::ok(body.into_bytes()), Vec::new())
                }
                None => (Response::not_found(), Vec::new()),
            },
            Ok(ApiCall::CommandDevice(device, command)) => {
                let Some(handler) = self.handlers.get(device.as_str()) else {
                    return (Response::not_found(), Vec::new());
                };
                if !handler.accepts_command(&command) {
                    return (Response::not_found(), Vec::new());
                }
                (
                    Response::ok(b"accepted".to_vec()),
                    vec![Action { device, command }],
                )
            }
            Ok(ApiCall::PushOta(device, _image)) => {
                // The gateway only authorizes; distribution goes through
                // the OTA server's published releases.
                match self.ota.image_for(&device) {
                    Some(_) => (Response::ok(b"scheduled".to_vec()), Vec::new()),
                    None => (Response::not_found(), Vec::new()),
                }
            }
        }
    }
}

/// Maps a device command to the packet `action` meta the device runtime
/// understands: a static word for the commands it knows, else the
/// command itself.
fn command_to_action(command: &str) -> MetaValue {
    match command {
        "on" | "lock" => "on".into(),
        "off" | "unlock" => "off".into(),
        "stream" => "stream".into(),
        "idle" => "idle".into(),
        _ => command.to_string().into(),
    }
}

/// Parses a telemetry payload (`Kind=value`, space-padded) into its
/// cloud attribute and value, e.g. `b"Temperature=71.20   "` →
/// `("temperature", "71.20")`. The five sensor kinds map to their static
/// attribute names; any other kind is lower-cased. The value is borrowed
/// from the payload. A payload that is not UTF-8 is read as
/// [`String::from_utf8_lossy`] reads it, and then the value is owned.
///
/// The space padding is skipped as bytes, eight at a time, before the
/// payload is decoded. That is exact: an ASCII byte is never part of a
/// multi-byte sequence and ends any invalid one, so the lossy decode of
/// `prefix ‖ ascii` is the decode of `prefix` followed by `ascii`, and
/// trailing whitespace is trimmed either way.
pub fn parse_reading(payload: &[u8]) -> Option<(Cow<'static, str>, Cow<'_, str>)> {
    fn split(text: &str) -> Option<(Cow<'static, str>, &str)> {
        let (kind, value) = text.trim_end().split_once('=')?;
        let attribute = match kind {
            "Temperature" => "temperature",
            "Motion" => "motion",
            "Power" => "power",
            "Camera" => "stream",
            "Smoke" => "smoke",
            other => return Some((Cow::Owned(other.to_ascii_lowercase()), value)),
        };
        Some((Cow::Borrowed(attribute), value))
    }
    match String::from_utf8_lossy(trim_ascii_whitespace(payload)) {
        Cow::Borrowed(text) => split(text).map(|(a, v)| (a, Cow::Borrowed(v))),
        Cow::Owned(text) => split(&text).map(|(a, v)| (a, Cow::Owned(v.to_string()))),
    }
}

/// `bytes` without its trailing ASCII whitespace (the bytes below 0x80
/// that [`str::trim_end`] trims, `\x0B` included): whole words of
/// spaces first, then byte by byte.
fn trim_ascii_whitespace(mut bytes: &[u8]) -> &[u8] {
    while let Some((rest, b"        ")) = bytes.split_last_chunk::<8>() {
        bytes = rest;
    }
    while let Some((&last, rest)) = bytes.split_last() {
        if !(last.is_ascii() && char::from(last).is_whitespace()) {
            break;
        }
        bytes = rest;
    }
    bytes
}

/// The cloud endpoint as a simulation node.
pub struct CloudNode {
    cloud: SmartCloud,
    hub: NodeId,
}

impl std::fmt::Debug for CloudNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudNode").field("hub", &self.hub).finish()
    }
}

impl CloudNode {
    /// Wraps a cloud, trusting traffic arriving from `hub` as
    /// integrity-protected (the hub↔cloud channel is TLS).
    pub fn new(cloud: SmartCloud, hub: NodeId) -> Self {
        CloudNode { cloud, hub }
    }

    /// Read access for post-run assertions.
    pub fn cloud(&self) -> &SmartCloud {
        &self.cloud
    }

    /// Mutable access (installing apps mid-simulation, inspecting logs).
    pub fn cloud_mut(&mut self) -> &mut SmartCloud {
        &mut self.cloud
    }

    fn dispatch_actions(&mut self, ctx: &mut Context<'_>, actions: Vec<Action>) {
        for Action { device, command } in actions {
            let pkt = Packet::new(ctx.id(), self.hub, "cmd", Vec::new())
                .with_protocol(Protocol::Tls)
                .with_meta("device", device)
                .with_meta("action", command_to_action(&command))
                .with_meta("command", command);
            ctx.send(self.hub, pkt);
        }
    }
}

impl Node for CloudNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let trusted = packet.src == self.hub;
        match packet.kind {
            "telemetry" => {
                let Some(device) = packet.meta_value("device") else {
                    return;
                };
                if let Some((attribute, value)) = parse_reading(&packet.payload) {
                    let actions = self.cloud.ingest(
                        ctx.now(),
                        device.to_shared(),
                        attribute,
                        &value,
                        trusted,
                    );
                    self.dispatch_actions(ctx, actions);
                }
            }
            "event" => {
                let (Some(device), Some(to)) = (packet.meta_value("device"), packet.meta("to"))
                else {
                    return;
                };
                let state = Cow::Borrowed("state");
                let actions = self
                    .cloud
                    .ingest(ctx.now(), device.to_shared(), state, to, trusted);
                self.dispatch_actions(ctx, actions);
            }
            "spoofed-event" => {
                // An attacker injecting an event from outside the hub
                // channel: always untrusted.
                let (Some(device), Some(attribute), Some(value)) = (
                    packet.meta("device"),
                    packet.meta("attribute"),
                    packet.meta("value"),
                ) else {
                    return;
                };
                let (device, attribute) = (Rc::from(device), Cow::Owned(attribute.to_string()));
                let actions = self
                    .cloud
                    .ingest(ctx.now(), device, attribute, value, false);
                self.dispatch_actions(ctx, actions);
            }
            "api" => {
                let Some(request) = Request::from_bytes(&packet.payload) else {
                    return;
                };
                let (response, actions) = self.cloud.serve(&request, ctx.now());
                let reply = Packet::new(ctx.id(), packet.src, "api-response", response.to_bytes())
                    .with_protocol(Protocol::Http);
                ctx.send(packet.src, reply);
                self.dispatch_actions(ctx, actions);
            }
            _ => {}
        }
    }
}

/// The home hub/gateway: bridges LAN devices to the WAN cloud and routes
/// `final_dst` traffic (the plain, non-XLF gateway — the XLF smart gateway
/// in `xlf-core` adds the security functions on top of this behaviour).
pub struct HubNode {
    cloud: NodeId,
    /// device name → node id.
    devices: BTreeMap<String, NodeId>,
}

impl std::fmt::Debug for HubNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubNode")
            .field("cloud", &self.cloud)
            .field("devices", &self.devices.len())
            .finish()
    }
}

impl HubNode {
    /// Creates a hub bridging to `cloud`.
    pub fn new(cloud: NodeId) -> Self {
        HubNode {
            cloud,
            devices: BTreeMap::new(),
        }
    }

    /// Registers a device's address.
    pub fn register_device(&mut self, name: &str, node: NodeId) {
        self.devices.insert(name.to_string(), node);
    }
}

impl Node for HubNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        // WAN-bound routing for compromised-device floods etc.
        if let Some(final_dst) = packet.meta("final_dst").and_then(|d| d.parse::<u32>().ok()) {
            let target = NodeId::from_raw(final_dst);
            let mut fwd = packet.clone();
            fwd.remove_meta("final_dst");
            ctx.send(target, fwd);
            return;
        }
        match packet.kind {
            // Upstream: device → cloud.
            "telemetry" | "event" | "ota-result" | "login-result" => {
                ctx.send(self.cloud, packet);
            }
            // Downstream: cloud → device (addressed by name).
            "cmd" | "ota" | "login" | "probe" => {
                if let Some(node) = packet.meta("device").and_then(|d| self.devices.get(d)) {
                    ctx.send(*node, packet);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::Capability;
    use crate::smartapp::{AppPermissions, Predicate, Trigger};
    use xlf_device::{DeviceConfig, SensorKind, SimDevice};
    use xlf_simnet::{Duration, Medium, Network};

    fn build_home(
        event_policy: EventPolicy,
        permission_model: PermissionModel,
    ) -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(11);
        // Create placeholder ids in order: cloud, hub, device.
        let cloud_id = NodeId::from_raw(0);
        let hub_id = NodeId::from_raw(1);

        let mut cloud = SmartCloud::new(event_policy, permission_model, b"hub secret");
        cloud.register_device(DeviceHandler::new(
            "thermo",
            &[Capability::TemperatureMeasurement],
        ));
        cloud.register_device(DeviceHandler::new("lamp", &[Capability::Switch]));
        cloud.install_app(
            SmartApp::new(
                "heat-lamp",
                AppPermissions::new().grant("lamp", Capability::Switch),
            )
            .rule(
                Trigger {
                    device: "thermo".into(),
                    attribute: "temperature".into(),
                    predicate: Predicate::GreaterThan(60.0),
                },
                Action {
                    device: "lamp".into(),
                    command: "on".into(),
                },
            ),
        );

        let cloud_node = net.add_node(Box::new(CloudNode::new(cloud, hub_id)));
        assert_eq!(cloud_node, cloud_id);
        let mut hub = HubNode::new(cloud_id);

        let thermo_cfg = DeviceConfig::new("thermo", SensorKind::Temperature, hub_id)
            .with_telemetry_period(Duration::from_secs(10));
        let lamp_cfg = DeviceConfig::new("lamp", SensorKind::Power, hub_id)
            .with_telemetry_period(Duration::from_secs(3600));

        // Add hub placeholder after devices known? Hub must be id 1.
        hub.register_device("thermo", NodeId::from_raw(2));
        hub.register_device("lamp", NodeId::from_raw(3));
        let hub_node = net.add_node(Box::new(hub));
        assert_eq!(hub_node, hub_id);
        let thermo = net.add_node(Box::new(SimDevice::new(thermo_cfg)));
        let lamp = net.add_node(Box::new(SimDevice::new(lamp_cfg)));

        net.connect(cloud_id, hub_id, Medium::Wan.link().with_loss(0.0));
        net.connect(hub_id, thermo, Medium::Zigbee.link().with_loss(0.0));
        net.connect(hub_id, lamp, Medium::Zigbee.link().with_loss(0.0));
        (net, cloud_id, thermo, lamp)
    }

    /// The owning parser `parse_reading` replaced, as the oracle.
    fn owned_reading(payload: &[u8]) -> Option<(String, String)> {
        let text = String::from_utf8_lossy(payload);
        let (kind, value) = text.trim_end().split_once('=')?;
        let attribute = match kind {
            "Temperature" => "temperature",
            "Motion" => "motion",
            "Power" => "power",
            "Camera" => "stream",
            "Smoke" => "smoke",
            other => return Some((other.to_ascii_lowercase(), value.to_string())),
        };
        Some((attribute.to_string(), value.to_string()))
    }

    #[test]
    fn parse_reading_borrows_and_agrees_with_the_owning_parser() {
        let payloads: [&[u8]; 9] = [
            b"Temperature=71.23                  ",
            b"Camera=912.07",
            b"Humidity=40.5   ",
            b"Smoke=0.02=x  ",
            b"no equals sign   ",
            b"",
            b"Motion=\xff\xfe1.00  ",
            b"\xc3=\xc3\xa9t\xc3 ",
            b"Power=\x80",
        ];
        for payload in payloads {
            let parsed = parse_reading(payload);
            let owned = parsed.as_ref().map(|(a, v)| (a.to_string(), v.to_string()));
            assert_eq!(owned, owned_reading(payload), "{payload:?}");
        }
        let (attribute, value) = parse_reading(b"Temperature=71.23   ").unwrap();
        assert!(matches!(attribute, Cow::Borrowed("temperature")));
        assert!(matches!(value, Cow::Borrowed("71.23")));
        let (_, value) = parse_reading(b"Power=\x80").unwrap();
        assert!(
            matches!(value, Cow::Owned(_)),
            "invalid UTF-8 is read lossily"
        );
    }

    /// Payload pieces: sensor text, invalid and truncated UTF-8, and the
    /// whitespace `trim_end` trims — ASCII (`\x0B` included, which
    /// `u8::is_ascii_whitespace` leaves out) and not (U+00A0, U+3000,
    /// U+0085).
    const PIECES: [&[u8]; 16] = [
        b"Temperature=",
        b"Motion=",
        b"Humidity=",
        b"=",
        b"71.23",
        b"x",
        b"\xff",
        b"\x80",
        b"\xc3",
        b"\xe3\x80",
        b"\xc3\xa9",
        b"\xc2\xa0",
        b"\xe3\x80\x80",
        b"\xc2\x85",
        b"\x0b",
        b"\t\r\n\x0c",
    ];

    proptest::proptest! {
        /// Skipping the padding as bytes reads every payload exactly as
        /// the decode-then-trim parser does: arbitrary text (invalid or
        /// truncated UTF-8 right before the padding included), then
        /// padding of spaces and other whitespace.
        #[test]
        fn parse_reading_equals_decode_then_trim(
            text in proptest::collection::vec(0..PIECES.len(), 0..8),
            padding in proptest::collection::vec(0..PIECES.len() + 3, 0..40),
        ) {
            let mut payload: Vec<u8> = text.iter().flat_map(|&p| PIECES[p]).copied().collect();
            for p in padding {
                // Mostly spaces, as devices pad; sometimes any piece.
                payload.extend_from_slice(PIECES.get(p).copied().unwrap_or(b"        "));
            }
            let parsed = parse_reading(&payload);
            let owned = parsed.as_ref().map(|(a, v)| (a.to_string(), v.to_string()));
            proptest::prop_assert_eq!(owned, owned_reading(&payload));
        }
    }

    #[test]
    fn telemetry_drives_automation_end_to_end() {
        let (mut net, _cloud, _thermo, _lamp) =
            build_home(EventPolicy::hardened(), PermissionModel::Scoped);
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.run_until(SimTime::from_secs(60));
        // The thermostat reports ~70°F, above the 60°F trigger, so the
        // cloud must have commanded the lamp on.
        let cmds = records
            .borrow()
            .iter()
            .filter(|r| r.ground_truth_kind == "cmd")
            .count();
        assert!(cmds >= 2, "cmd packets: {cmds} (cloud→hub and hub→lamp)");
    }

    #[test]
    fn spoofed_events_blocked_only_by_hardened_policy() {
        for (policy, expect_cmd) in [
            (EventPolicy::permissive(), true),
            (EventPolicy::hardened(), false),
        ] {
            let (mut net, cloud, _thermo, _lamp) = build_home(policy, PermissionModel::Scoped);
            let attacker = net.add_node(Box::new(crate::cloud::tests_support::Sink));
            net.connect(attacker, cloud, Medium::Wan.link().with_loss(0.0));
            let (tap, records) = xlf_simnet::observer::RecordingTap::new();
            net.add_tap(Box::new(tap));
            net.inject(
                attacker,
                cloud,
                Packet::new(attacker, cloud, "spoofed-event", Vec::new())
                    .with_meta("device", "thermo")
                    .with_meta("attribute", "temperature")
                    .with_meta("value", "99"),
            );
            net.run_until(SimTime::from_secs(5));
            let cmds = records
                .borrow()
                .iter()
                .filter(|r| r.ground_truth_kind == "cmd")
                .count();
            if expect_cmd {
                assert!(cmds > 0, "permissive cloud should obey spoofed event");
            } else {
                assert_eq!(cmds, 0, "hardened cloud must reject spoofed event");
            }
        }
    }

    #[test]
    fn api_command_path_reaches_the_device() {
        let (mut net, cloud, _thermo, _lamp) =
            build_home(EventPolicy::hardened(), PermissionModel::Scoped);
        let caller = net.add_node(Box::new(crate::cloud::tests_support::Sink));
        net.connect(caller, cloud, Medium::Wan.link().with_loss(0.0));
        // Issue a valid write token directly on the cloud node.
        let token = net
            .node_as_mut::<CloudNode>(cloud)
            .expect("cloud node")
            .cloud_mut()
            .tokens
            .issue(
                "owner",
                &["devices:write"],
                SimTime::ZERO,
                Duration::from_secs(3600),
                false,
            )
            .value;
        let request = Request::new(xlf_protocols::rest::Method::Post, "/devices/lamp/commands")
            .with_token(&token)
            .with_body(b"action=on".to_vec());
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.inject(
            caller,
            cloud,
            Packet::new(caller, cloud, "api", request.to_bytes()).with_protocol(Protocol::Http),
        );
        net.run_until(SimTime::from_secs(5));
        let records = records.borrow();
        assert_eq!(
            records
                .iter()
                .filter(|r| r.ground_truth_kind == "api-response")
                .count(),
            1
        );
        // The authorized command flows cloud→hub→lamp (two cmd hops).
        assert!(
            records
                .iter()
                .filter(|r| r.ground_truth_kind == "cmd")
                .count()
                >= 2
        );
    }

    #[test]
    fn api_rejects_bogus_tokens_without_side_effects() {
        let (mut net, cloud, _thermo, lamp) =
            build_home(EventPolicy::hardened(), PermissionModel::Scoped);
        let caller = net.add_node(Box::new(crate::cloud::tests_support::Sink));
        net.connect(caller, cloud, Medium::Wan.link().with_loss(0.0));
        let request = Request::new(xlf_protocols::rest::Method::Post, "/devices/lamp/commands")
            .with_token("bogus")
            .with_body(b"action=on".to_vec());
        net.inject(
            caller,
            cloud,
            Packet::new(caller, cloud, "api", request.to_bytes()).with_protocol(Protocol::Http),
        );
        net.run_until(SimTime::from_secs(2));
        let lamp_node = net.node_as::<SimDevice>(lamp).expect("lamp node");
        assert!(lamp_node.transitions.is_empty(), "lamp must not have moved");
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use xlf_simnet::Node;

    /// A do-nothing node for tests.
    pub struct Sink;
    impl Node for Sink {}
}
