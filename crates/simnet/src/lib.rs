//! Deterministic discrete-event network simulator substrate for the XLF
//! reproduction.
//!
//! The paper's testbed is a physical smart home: devices on ZigBee/Z-Wave/
//! WiFi links behind a gateway, talking to a cloud. Every XLF mechanism
//! consumes *events, packets, timing, and sizes* — not physical RF — so this
//! simulator reproduces exactly those observables:
//!
//! * a virtual clock with microsecond resolution ([`SimTime`]),
//! * media models ([`Medium`]) with bandwidth/latency/loss/MTU drawn from
//!   the protocol families in the paper's Figure 2,
//! * promiscuous [`observer`] taps that expose the per-packet metadata a
//!   passive adversary sees (the Apthorpe et al. threat model in §IV-B1),
//! * a [`nat`] flow view grouping traffic the way an on-path observer
//!   outside the home NAT would.
//!
//! Everything is single-threaded and deterministic: the same seed and
//! topology produce byte-identical traces.
//!
//! # Example
//!
//! ```
//! use xlf_simnet::{Network, Medium, Packet, Node, Context};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
//!         let reply = Packet::new(ctx.id(), packet.src, "echo", packet.payload.clone());
//!         ctx.send(packet.src, reply);
//!     }
//! }
//!
//! struct Probe;
//! impl Node for Probe {}
//!
//! let mut net = Network::new(42);
//! let echo = net.add_node(Box::new(Echo));
//! let probe = net.add_node(Box::new(Probe));
//! net.connect(echo, probe, Medium::Ethernet.link());
//! net.inject(probe, echo, Packet::new(probe, echo, "ping", b"hi".to_vec()));
//! let stats = net.run();
//! assert!(stats.delivered >= 2); // ping + echo
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod fault;
mod link;
mod medium;
pub mod nat;
mod node;
pub mod observer;
mod packet;
pub mod queue;
mod time;

/// The payload buffer type of [`Packet::payload`].
pub use bytes::Bytes;
pub use engine::{Context, Event, Network, NetworkStats};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use link::LinkConfig;
pub use medium::Medium;
pub use node::{AsAny, Node, NodeId};
pub use packet::{Body, FlowKey, Packet, Protocol};
pub use time::{Duration, SimTime};
