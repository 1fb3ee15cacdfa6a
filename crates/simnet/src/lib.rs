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
mod payload;
pub mod queue;
mod time;

pub use engine::{Context, Event, Network, NetworkStats};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use link::LinkConfig;
pub use medium::Medium;
pub use node::{AsAny, Node, NodeId};
pub use packet::{Body, FlowKey, Packet, Protocol};
pub use payload::Payload;
pub use time::{Duration, SimTime};

/// SplitMix64: a stateless 64-bit mixer. The fleet's home stamping, the
/// control plane's cohort and config-drift hashes and the onboarding
/// joins derive every per-home quantity as a chain of it, so each is a
/// pure function of the seed it starts from.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_is_the_reference_generator() {
        // The first two outputs of the reference SplitMix64 seeded with 0.
        assert_eq!(super::splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            super::splitmix64(0x9E37_79B9_7F4A_7C15),
            0x6E78_9E6A_A1B9_65F4
        );
    }
}
