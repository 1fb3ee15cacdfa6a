//! Constrained-device secure onboarding for the XLF reproduction: CoAP +
//! ACE-style scoped tokens with per-class energy accounting.
//!
//! The paper's device layer owns authentication and lightweight crypto;
//! this crate supplies the missing piece — how a constrained device
//! *joins* the fleet securely:
//!
//! * [`coap`] — a deterministic RFC 7252-shaped message codec
//!   (confirmable/non-confirmable, options, payload marker), total on
//!   decode: every malformed buffer is a structured [`CoapError`].
//! * [`ace`] — an ACE-OAuth-style authorization flow: an
//!   [`AuthServer`] issues scoped, expiring, MAC-sealed tokens (via
//!   `xlf-lwcrypto`'s CBC-MAC + KDF); the gateway's [`ResourceServer`]
//!   verifies seal, audience, scope, expiry, and freshness.
//! * [`sweep`](mod@sweep) — per-device-class cipher selection over the Table III
//!   catalog: the cheapest cipher meeting the class's key-length floor
//!   within its Table I envelope.
//! * [`join`] — the handshake itself: two confirmable exchanges over a
//!   lossy constrained medium with RFC 7252 retransmission and seeded
//!   backoff, every transmitted byte charged against the Table I
//!   cycle/energy model.
//!
//! Everything is a pure function of its inputs, which is what lets the
//! fleet engine run joins per home while the fleet aggregator recomputes
//! the identical outcomes for the report's `onboarding` section —
//! byte-identical across worker and region-shard counts.
//!
//! # Example
//!
//! ```
//! use xlf_onboard::{join_device, JoinAttack, OnboardingSpec};
//! use xlf_device::DeviceClass;
//!
//! let spec = OnboardingSpec::new();
//! let join = join_device(&spec, DeviceClass::SensorDevice, 7, 42, JoinAttack::None);
//! assert!(join.admitted);
//!
//! let rogue = join_device(&spec, DeviceClass::SensorDevice, 7, 42, JoinAttack::RogueAs);
//! assert!(!rogue.admitted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ace;
pub mod coap;
pub mod join;
pub mod sweep;

pub use ace::{AccessToken, AuthServer, DenyCause, ResourceServer, TokenClaims, DENY_CAUSES};
pub use coap::{CoapError, CoapMessage, CoapOption, Code, MsgType};
pub use join::{join_device, join_with_choice, JoinAttack, JoinResult, OnboardingSpec};
pub use sweep::{candidate_infos, key_floor_bits, select_cipher, sweep, CipherChoice, ClassPlan};
