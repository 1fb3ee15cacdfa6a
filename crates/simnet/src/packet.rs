//! Packets and flows: the unit of traffic every XLF mechanism observes.

use crate::node::NodeId;
use bytes::Bytes;
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
///
/// Packet kinds and metadata keys are the simulation's static protocol
/// vocabulary (`"telemetry"`, `"device"`, `"final_dst"`, …): they are
/// `&'static str`, so building, routing and matching a packet never
/// copies them. Metadata *values* say by their [`MetaValue`] type
/// whether they are static words, names shared with their owner, or
/// owned text (readings, ids).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Flow label chosen by the sender (e.g. `"telemetry"`, `"ota"`),
    /// one word of the static protocol vocabulary.
    pub kind: &'static str,
    /// Protocol tag (defaults to [`Protocol::App`]).
    pub protocol: Protocol,
    /// Application payload.
    pub payload: Bytes,
    /// Bytes on the wire as seen by observers; defaults to
    /// `payload.len() + 40` (IP+transport overhead) and may be raised by
    /// padding (traffic shaping) but never below the payload.
    pub wire_size: usize,
    /// Metadata (header fields, auth tokens, markers) consumed by higher
    /// layers: at most one value per static key, in insertion order. A
    /// packet carries a handful of entries, so a linear scan beats a map.
    meta: Vec<(&'static str, MetaValue)>,
}

/// A packet metadata value. Static protocol words (`"idle"`, `"true"`)
/// and names shared with the node that owns them (a device's
/// `Rc<str>` name) are carried without a copy; anything else is owned.
#[derive(Debug, Clone)]
pub enum MetaValue {
    /// A word of the static protocol vocabulary.
    Static(&'static str),
    /// A name shared with its owner (a reference-count bump per packet).
    Shared(Rc<str>),
    /// Text made for this packet.
    Owned(String),
}

impl MetaValue {
    /// The value as text.
    pub fn as_str(&self) -> &str {
        match self {
            MetaValue::Static(s) => s,
            MetaValue::Shared(s) => s,
            MetaValue::Owned(s) => s,
        }
    }

    /// The value as a shared name: the same `Rc` when it is one,
    /// otherwise a new one.
    pub fn to_shared(&self) -> Rc<str> {
        match self {
            MetaValue::Shared(s) => Rc::clone(s),
            other => Rc::from(other.as_str()),
        }
    }
}

impl From<&'static str> for MetaValue {
    fn from(value: &'static str) -> Self {
        MetaValue::Static(value)
    }
}

impl From<&Rc<str>> for MetaValue {
    fn from(value: &Rc<str>) -> Self {
        MetaValue::Shared(Rc::clone(value))
    }
}

impl From<String> for MetaValue {
    fn from(value: String) -> Self {
        MetaValue::Owned(value)
    }
}

/// Default per-packet header overhead included in `wire_size`.
pub const HEADER_OVERHEAD: usize = 40;

impl Packet {
    /// Creates a packet with default protocol/overhead.
    pub fn new(src: NodeId, dst: NodeId, kind: &'static str, payload: impl Into<Bytes>) -> Self {
        let payload = payload.into();
        let wire_size = payload.len() + HEADER_OVERHEAD;
        Packet {
            src,
            dst,
            kind,
            protocol: Protocol::App,
            payload,
            wire_size,
            meta: Vec::new(),
        }
    }

    /// Sets the protocol tag (builder-style).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Attaches a metadata key/value (builder-style); a key already
    /// present has its value replaced. The value's type says how it is
    /// carried: a `&'static str` as is, a `&Rc<str>` shared, a `String`
    /// owned.
    pub fn with_meta(mut self, key: &'static str, value: impl Into<MetaValue>) -> Self {
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.meta.push((key, value)),
        }
        self
    }

    /// Removes a metadata key, if present.
    pub fn remove_meta(&mut self, key: &str) {
        self.meta.retain(|(k, _)| *k != key);
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
            kind: self.kind,
        }
    }

    /// The value of metadata `key`, or `None` if the packet has none.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta_value(key).map(MetaValue::as_str)
    }

    /// The value of metadata `key` as carried, or `None` if the packet
    /// has none.
    pub fn meta_value(&self, key: &str) -> Option<&MetaValue> {
        self.meta.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
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
        let p = Packet::new(node(1), node(2), "telemetry", vec![0u8; 100]);
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
    fn builder_metadata_and_protocol() {
        let p = Packet::new(node(1), node(2), "dns", b"query".to_vec())
            .with_protocol(Protocol::Dns)
            .with_meta("qname", "nest.example.com");
        assert_eq!(p.protocol, Protocol::Dns);
        assert_eq!(p.meta("qname"), Some("nest.example.com"));
        assert_eq!(p.meta("missing"), None);
    }

    #[test]
    fn with_meta_on_an_existing_key_replaces_its_value() {
        let p = Packet::new(node(1), node(2), "event", Vec::new())
            .with_meta("to", "idle")
            .with_meta("device", "cam")
            .with_meta("to", "compromised");
        assert_eq!(p.meta("to"), Some("compromised"));
        assert_eq!(p.meta("device"), Some("cam"));
        assert_eq!(p.meta.len(), 2, "a replaced key is not duplicated");
    }

    #[test]
    fn remove_meta_removes_the_key() {
        let mut p = Packet::new(node(1), node(2), "ddos", Vec::new())
            .with_meta("final_dst", "9")
            .with_meta("device", "cam");
        p.remove_meta("final_dst");
        assert_eq!(p.meta("final_dst"), None);
        assert_eq!(p.meta("device"), Some("cam"));
        p.remove_meta("absent");
        assert_eq!(p.meta.len(), 1);
    }

    #[test]
    fn meta_is_none_for_a_missing_key() {
        let p = Packet::new(node(1), node(2), "telemetry", Vec::new());
        assert_eq!(p.meta("device"), None);
        let p = p.with_meta("device", "thermo");
        assert_eq!(p.meta("state"), None);
    }

    #[test]
    fn flow_key_groups_by_src_dst_kind() {
        let a = Packet::new(node(1), node(2), "telemetry", vec![1u8]);
        let b = Packet::new(node(1), node(2), "telemetry", vec![2u8; 50]);
        let c = Packet::new(node(1), node(2), "ota", vec![1u8]);
        assert_eq!(a.flow(), b.flow());
        assert_ne!(a.flow(), c.flow());
    }
}
