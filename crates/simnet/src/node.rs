//! Node identity and the behaviour trait implemented by every simulated
//! entity (devices, gateways, cloud endpoints, attackers, middleboxes).

use crate::engine::Context;
use crate::packet::Packet;
use std::fmt;

/// Opaque identifier of a node in a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Builds a node id from its raw index. Only useful in tests and
    /// serialization; real ids come from
    /// [`Network::add_node`](crate::Network::add_node).
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Object-safe downcasting support, blanket-implemented for every
/// `'static` type so [`Node`] implementors get it for free.
pub trait AsAny {
    /// `self` as [`std::any::Any`].
    fn as_any(&self) -> &dyn std::any::Any;
    /// `self` as mutable [`std::any::Any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Behaviour of a simulated node.
///
/// All callbacks run on the single simulation thread; re-entrancy is
/// impossible. Default implementations ignore every event, so passive
/// nodes (sinks, probes) need no code. Concrete node state can be
/// inspected after a run via [`Network::node_as`](crate::Network::node_as).
pub trait Node: AsAny {
    /// Called when a packet addressed to this node is delivered.
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let _ = (ctx, packet);
    }

    /// Called when a timer set via [`Context::set_timer`] fires. `tag` is
    /// the caller-chosen label passed at arming time.
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called once when the simulation starts (before any packet flows).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when the node comes back from an injected crash
    /// ([`crate::fault::FaultKind::NodeRestart`]). The crash voided all
    /// of its armed timers, so the default re-runs [`Node::on_start`] —
    /// a cold boot. Override to model warm restarts that recover state.
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.on_start(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_raw() {
        let id = NodeId::from_raw(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.raw(), 7);
    }

    #[test]
    fn default_node_impl_ignores_everything() {
        struct Passive;
        impl Node for Passive {}
        // Compiles and the default bodies exist — exercised via the engine
        // integration tests.
        let _ = Passive;
    }
}
