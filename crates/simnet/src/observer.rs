//! Promiscuous observer taps: the vantage point of a passive network
//! adversary (Apthorpe et al.) and of XLF's own network-layer monitors.
//!
//! A tap sees each transmission's *metadata* — timestamp, endpoints, wire
//! size, protocol tag — exactly what an on-path observer of encrypted
//! traffic can see. The `kind` label is also recorded as ground truth for
//! experiment scoring; adversary implementations must not read it (the
//! attacks crate enforces this by constructing features from the metadata
//! fields only).

use crate::link::LinkConfig;
use crate::node::NodeId;
use crate::packet::{Body, Packet, Protocol};
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// One observed transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// When the packet hit the wire.
    pub at: SimTime,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Observable size on the wire (after any shaping/padding).
    pub wire_size: usize,
    /// Protocol tag (what port/heuristic classification would yield).
    pub protocol: Protocol,
    /// Ground-truth application label — **not** visible to adversaries.
    /// A telemetry packet's device state (device-state inference
    /// experiments), else the packet kind.
    pub ground_truth_kind: &'static str,
}

/// Anything that watches transmissions.
pub trait Tap {
    /// Called for every packet handed to a link (including ones the link
    /// later loses — a radio observer hears the transmission regardless).
    fn on_transmit(&mut self, at: SimTime, packet: &Packet, link: &LinkConfig);
}

/// A tap that records every transmission into a shared buffer.
///
/// # Example
///
/// ```
/// use xlf_simnet::observer::RecordingTap;
/// let (tap, handle) = RecordingTap::new();
/// // net.add_tap(Box::new(tap));
/// // ... run ...
/// assert!(handle.borrow().is_empty());
/// ```
pub struct RecordingTap {
    records: Rc<RefCell<Vec<PacketRecord>>>,
    filter: Option<Box<FilterFn>>,
}

impl std::fmt::Debug for RecordingTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingTap")
            .field("records", &self.records.borrow().len())
            .field("filtered", &self.filter.is_some())
            .finish()
    }
}

type FilterFn = dyn Fn(&Packet) -> bool;

impl RecordingTap {
    /// Creates a tap and the shared handle its records land in.
    #[allow(clippy::type_complexity)]
    pub fn new() -> (Self, Rc<RefCell<Vec<PacketRecord>>>) {
        let records = Rc::new(RefCell::new(Vec::new()));
        (
            RecordingTap {
                records: records.clone(),
                filter: None,
            },
            records,
        )
    }

    /// Creates a tap that only records packets matching `filter` —
    /// models an observer positioned on a specific link, e.g. outside the
    /// home NAT.
    #[allow(clippy::type_complexity)]
    pub fn filtered(
        filter: impl Fn(&Packet) -> bool + 'static,
    ) -> (Self, Rc<RefCell<Vec<PacketRecord>>>) {
        let records = Rc::new(RefCell::new(Vec::new()));
        (
            RecordingTap {
                records: records.clone(),
                filter: Some(Box::new(filter)),
            },
            records,
        )
    }
}

impl Tap for RecordingTap {
    fn on_transmit(&mut self, at: SimTime, packet: &Packet, _link: &LinkConfig) {
        if let Some(filter) = &self.filter {
            if !filter(packet) {
                return;
            }
        }
        let label = match packet.body {
            Body::Telemetry { state, .. } => state,
            _ => packet.kind(),
        };
        self.records.borrow_mut().push(PacketRecord {
            at,
            src: packet.src,
            dst: packet.dst,
            wire_size: packet.wire_size,
            protocol: packet.protocol,
            ground_truth_kind: label,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Network;
    use crate::medium::Medium;
    use crate::node::Node;

    struct Quiet;
    impl Node for Quiet {}

    #[test]
    fn tap_records_metadata() {
        let mut net = Network::new(3);
        let a = net.add_node(Box::new(Quiet));
        let b = net.add_node(Box::new(Quiet));
        net.connect(a, b, Medium::Wifi.link().with_loss(0.0));
        let (tap, records) = RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.inject(a, b, Packet::new(a, b, "camera-frame", vec![0u8; 900]));
        net.run();
        let records = records.borrow();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].wire_size, 940);
        assert_eq!(records[0].src, a);
        assert_eq!(records[0].ground_truth_kind, "camera-frame");
    }

    #[test]
    fn tap_sees_lost_packets_too() {
        let mut net = Network::new(3);
        let a = net.add_node(Box::new(Quiet));
        let b = net.add_node(Box::new(Quiet));
        net.connect(a, b, Medium::Wifi.link().with_loss(0.999));
        let (tap, records) = RecordingTap::new();
        net.add_tap(Box::new(tap));
        for _ in 0..50 {
            net.inject(a, b, Packet::new(a, b, "x", vec![0u8; 10]));
        }
        let stats = net.run();
        assert_eq!(records.borrow().len(), 50);
        assert!(stats.lost > 40);
    }

    #[test]
    fn filtered_tap_models_nat_vantage() {
        let mut net = Network::new(3);
        let a = net.add_node(Box::new(Quiet));
        let b = net.add_node(Box::new(Quiet));
        let c = net.add_node(Box::new(Quiet));
        net.connect(a, b, Medium::Ethernet.link());
        net.connect(a, c, Medium::Ethernet.link());
        let (tap, records) = RecordingTap::filtered(move |p| p.dst == b);
        net.add_tap(Box::new(tap));
        net.inject(a, b, Packet::new(a, b, "to-b", vec![0u8]));
        net.inject(a, c, Packet::new(a, c, "to-c", vec![0u8]));
        net.run();
        assert_eq!(records.borrow().len(), 1);
        assert_eq!(records.borrow()[0].ground_truth_kind, "to-b");
    }
}
