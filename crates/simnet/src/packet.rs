//! Packets and flows: the unit of traffic every XLF mechanism observes.

use crate::node::NodeId;
use crate::payload::Payload;
use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

/// Transport/application protocol tag carried by a packet.
///
/// This is deliberately a coarse label (the granularity a middlebox sees
/// after port/heuristic classification), not a full header stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Plain UDP datagram.
    Udp,
    /// TCP segment (connection handling abstracted away).
    Tcp,
    /// DNS query/response.
    Dns,
    /// TLS record (possibly carrying DoT/DoH).
    Tls,
    /// HTTP request/response.
    Http,
    /// IEEE 802.15.4 frame (ZigBee/6LoWPAN).
    Ieee802154,
    /// SSDP/UPnP discovery.
    Ssdp,
    /// Application-level event/report (already decapsulated).
    App,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Udp => "UDP",
            Protocol::Tcp => "TCP",
            Protocol::Dns => "DNS",
            Protocol::Tls => "TLS",
            Protocol::Http => "HTTP",
            Protocol::Ieee802154 => "802.15.4",
            Protocol::Ssdp => "SSDP",
            Protocol::App => "APP",
        };
        f.write_str(s)
    }
}

/// Identifies a unidirectional flow: (src, dst, kind label).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Application-chosen flow label (e.g. `"telemetry"`).
    pub kind: &'static str,
}

/// A simulated packet.
///
/// `payload` carries application bytes; `wire_size` is what an observer
/// sees on the link (payload + header overhead, or a shaped/padded size).
/// What the packet says beyond its payload is its typed [`Body`], which
/// also decides its [`kind`](Packet::kind).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The message: its kind and the fields that kind always carries.
    pub body: Body,
    /// Protocol tag (defaults to [`Protocol::App`]).
    pub protocol: Protocol,
    /// Application payload.
    pub payload: Payload,
    /// Bytes on the wire as seen by observers; defaults to
    /// `payload.len() + 40` (IP+transport overhead) and may be raised by
    /// padding (traffic shaping) but never below the payload.
    pub wire_size: usize,
}

/// One message of the simulation's protocol vocabulary, with the fields
/// it always has; the variant decides the [`kind`](Body::kind) word.
/// Device names are the device's shared `Rc<str>`, optional only where a
/// sender may talk to the device directly rather than through a gateway
/// or hub. State and credential words are static.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `telemetry`, device → hub: a sensor reading (the payload).
    Telemetry {
        /// The sending device.
        device: Rc<str>,
        /// Its state label when it took the reading.
        state: &'static str,
    },
    /// `event`, device → hub: a state transition.
    Event {
        /// The sending device.
        device: Rc<str>,
        /// The state it left.
        from: &'static str,
        /// The state it entered.
        to: &'static str,
    },
    /// `cmd`, cloud → device: a capability command (`on`, `lock`, …).
    Cmd {
        /// The device to route to.
        device: Option<Rc<str>>,
        /// The command word.
        command: Cow<'static, str>,
    },
    /// `login`, any → device: a credential attempt.
    Login {
        /// The device to route to.
        device: Option<Rc<str>>,
        /// Claimed user.
        user: &'static str,
        /// Offered password.
        pass: &'static str,
    },
    /// `login-result`, device → login sender.
    LoginResult {
        /// The answering device.
        device: Rc<str>,
        /// `success`, `unknown-user`, `wrong-password` or `locked-out`.
        outcome: &'static str,
    },
    /// `ota`, any → device: a firmware image (the payload).
    Ota {
        /// The device to route to.
        device: Option<Rc<str>>,
    },
    /// `ota-result`, device → OTA sender.
    OtaResult {
        /// The answering device.
        device: Rc<str>,
        /// Whether the image was applied.
        ok: bool,
        /// `applied`, or why the image was rejected.
        detail: String,
    },
    /// `probe`, any → device: a port probe.
    Probe {
        /// The probed port.
        port: u16,
    },
    /// `probe-result`, device → prober.
    ProbeResult {
        /// The answering device.
        device: Rc<str>,
        /// The probed port.
        port: u16,
        /// Whether it is open.
        open: bool,
    },
    /// `attack-cmd`, C&C → device: a flood order, obeyed once compromised.
    AttackCmd {
        /// The device to route to.
        device: Option<Rc<str>>,
        /// The flood victim.
        target: NodeId,
        /// Flood packets to send.
        count: u32,
    },
    /// `ddos`, device → victim: a flood packet, source-routed via the hub.
    Flood {
        /// The sending device.
        device: Rc<str>,
        /// Where the hub routes it; `None` once it has.
        final_dst: Option<NodeId>,
    },
    /// `dns-response`, WAN → device: an answer claiming to resolve `name`.
    DnsResponse {
        /// The device to route to.
        device: Rc<str>,
        /// The resolved name.
        name: &'static str,
        /// The claimed address.
        value: &'static str,
        /// The transaction id it answers.
        txid: u16,
    },
    /// `spoofed-event`, attacker → cloud: a forged attribute change.
    SpoofedEvent {
        /// The impersonated device.
        device: Rc<str>,
        /// The faked attribute.
        attribute: Cow<'static, str>,
        /// The faked value.
        value: String,
    },
    /// `reconnect`, device → deauth sender: a hijacked session.
    Reconnect {
        /// The reconnecting device.
        device: Rc<str>,
    },
    /// A kind with no fields (`ping`, `deauth`, `api`, `cover`, …).
    Bare(&'static str),
}

impl Body {
    /// The kind word: the flow label observers and flows see.
    pub fn kind(&self) -> &'static str {
        match self {
            Body::Telemetry { .. } => "telemetry",
            Body::Event { .. } => "event",
            Body::Cmd { .. } => "cmd",
            Body::Login { .. } => "login",
            Body::LoginResult { .. } => "login-result",
            Body::Ota { .. } => "ota",
            Body::OtaResult { .. } => "ota-result",
            Body::Probe { .. } => "probe",
            Body::ProbeResult { .. } => "probe-result",
            Body::AttackCmd { .. } => "attack-cmd",
            Body::Flood { .. } => "ddos",
            Body::DnsResponse { .. } => "dns-response",
            Body::SpoofedEvent { .. } => "spoofed-event",
            Body::Reconnect { .. } => "reconnect",
            Body::Bare(kind) => kind,
        }
    }

    /// The device a gateway or hub delivers this message to, if named.
    pub fn addressee(&self) -> Option<&Rc<str>> {
        match self {
            Body::Cmd { device, .. }
            | Body::Login { device, .. }
            | Body::Ota { device }
            | Body::AttackCmd { device, .. } => device.as_ref(),
            Body::DnsResponse { device, .. } => Some(device),
            _ => None,
        }
    }
}

/// A bare kind: never a word a typed variant decides.
impl From<&'static str> for Body {
    fn from(kind: &'static str) -> Self {
        debug_assert!(TYPED_KINDS.split(' ').all(|k| k != kind), "typed: {kind}");
        Body::Bare(kind)
    }
}

/// The kind words of the typed variants, in declaration order.
const TYPED_KINDS: &str = "telemetry event cmd login login-result ota ota-result probe \
    probe-result attack-cmd ddos dns-response spoofed-event reconnect";

/// Default per-packet header overhead included in `wire_size`.
pub const HEADER_OVERHEAD: usize = 40;

impl Packet {
    /// Creates a packet with default protocol/overhead. `body` is a
    /// [`Body`], or a `&'static str` for a [`Body::Bare`] kind.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        body: impl Into<Body>,
        payload: impl Into<Payload>,
    ) -> Self {
        let payload = payload.into();
        let wire_size = payload.len() + HEADER_OVERHEAD;
        Packet {
            src,
            dst,
            body: body.into(),
            protocol: Protocol::App,
            payload,
            wire_size,
        }
    }

    /// The kind word its body decides (e.g. `"telemetry"`, `"ota"`).
    pub fn kind(&self) -> &'static str {
        self.body.kind()
    }

    /// Sets the protocol tag (builder-style).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Pads the observable wire size up to `size` (no-op if already
    /// larger) — the primitive traffic shaping uses.
    pub fn pad_to(&mut self, size: usize) {
        self.wire_size = self.wire_size.max(size);
    }

    /// The flow this packet belongs to.
    pub fn flow(&self) -> FlowKey {
        FlowKey {
            src: self.src,
            dst: self.dst,
            kind: self.kind(),
        }
    }

    /// Takes a flood's routing target: the hop that routes the flood
    /// calls this, so the copy it forwards carries none.
    pub fn take_final_dst(&mut self) -> Option<NodeId> {
        match &mut self.body {
            Body::Flood { final_dst, .. } => final_dst.take(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u32) -> NodeId {
        NodeId::from_raw(n)
    }

    #[test]
    fn wire_size_includes_overhead() {
        let p = Packet::new(node(1), node(2), "reading", vec![0u8; 100]);
        assert_eq!(p.wire_size, 140);
    }

    #[test]
    fn padding_never_shrinks() {
        let mut p = Packet::new(node(1), node(2), "t", vec![0u8; 100]);
        p.pad_to(64);
        assert_eq!(p.wire_size, 140);
        p.pad_to(512);
        assert_eq!(p.wire_size, 512);
    }

    #[test]
    fn builder_body_and_protocol() {
        let body = Body::Probe { port: 23 };
        let p = Packet::new(node(1), node(2), body.clone(), b"scan".to_vec())
            .with_protocol(Protocol::Tcp);
        assert_eq!(p.protocol, Protocol::Tcp);
        assert_eq!(p.body, body);
        assert_eq!(p.kind(), "probe");
        assert_eq!(
            Packet::new(node(1), node(2), "ping", Vec::new()).body,
            Body::Bare("ping")
        );
    }

    /// Each variant's kind word is the literal its sender used when kinds
    /// were chosen by hand: flows, observer labels and the traffic
    /// analyst key on these words, so a renamed one would change reports
    /// without failing a type check.
    #[test]
    fn each_body_has_its_senders_kind_word() {
        let dev: Rc<str> = Rc::from("cam");
        let table = [
            (
                Body::Telemetry {
                    device: dev.clone(),
                    state: "idle",
                },
                "telemetry",
            ),
            (
                Body::Event {
                    device: dev.clone(),
                    from: "idle",
                    to: "active",
                },
                "event",
            ),
            (
                Body::Cmd {
                    device: None,
                    command: "on".into(),
                },
                "cmd",
            ),
            (
                Body::Login {
                    device: None,
                    user: "admin",
                    pass: "admin",
                },
                "login",
            ),
            (
                Body::LoginResult {
                    device: dev.clone(),
                    outcome: "success",
                },
                "login-result",
            ),
            (Body::Ota { device: None }, "ota"),
            (
                Body::OtaResult {
                    device: dev.clone(),
                    ok: true,
                    detail: String::new(),
                },
                "ota-result",
            ),
            (Body::Probe { port: 23 }, "probe"),
            (
                Body::ProbeResult {
                    device: dev.clone(),
                    port: 23,
                    open: true,
                },
                "probe-result",
            ),
            (
                Body::AttackCmd {
                    device: None,
                    target: node(9),
                    count: 1,
                },
                "attack-cmd",
            ),
            (
                Body::Flood {
                    device: dev.clone(),
                    final_dst: None,
                },
                "ddos",
            ),
            (
                Body::DnsResponse {
                    device: dev.clone(),
                    name: "n",
                    value: "v",
                    txid: 1,
                },
                "dns-response",
            ),
            (
                Body::SpoofedEvent {
                    device: dev.clone(),
                    attribute: "t".into(),
                    value: "1".into(),
                },
                "spoofed-event",
            ),
            (Body::Reconnect { device: dev }, "reconnect"),
        ];
        for (body, word) in &table {
            assert_eq!(body.kind(), *word, "{body:?}");
        }
        let words: Vec<&str> = table.iter().map(|(_, word)| *word).collect();
        assert_eq!(
            words.join(" "),
            TYPED_KINDS,
            "every typed kind is pinned, in order"
        );
        assert_eq!(Body::Bare("deauth").kind(), "deauth");
    }

    #[test]
    #[should_panic(expected = "typed: telemetry")]
    #[cfg(debug_assertions)]
    fn a_typed_kind_cannot_be_built_bare() {
        let _ = Packet::new(node(1), node(2), "telemetry", Vec::new());
    }

    #[test]
    fn routing_a_flood_leaves_no_target() {
        let body = Body::Flood {
            device: Rc::from("cam"),
            final_dst: Some(node(9)),
        };
        let mut p = Packet::new(node(1), node(2), body, vec![0u8; 512]);
        assert_eq!(p.take_final_dst(), Some(node(9)));
        assert_eq!(
            p.take_final_dst(),
            None,
            "the forwarded copy carries no target"
        );
        assert_eq!(p.kind(), "ddos");
        let mut ping = Packet::new(node(1), node(2), "ping", Vec::new());
        assert_eq!(ping.take_final_dst(), None);
    }

    #[test]
    fn flow_key_groups_by_src_dst_kind() {
        let a = Packet::new(node(1), node(2), "reading", vec![1u8]);
        let b = Packet::new(node(1), node(2), "reading", vec![2u8; 50]);
        let c = Packet::new(node(1), node(2), Body::Ota { device: None }, vec![1u8]);
        assert_eq!(a.flow(), b.flow());
        assert_ne!(a.flow(), c.flow());
    }
}
