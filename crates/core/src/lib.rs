//! # XLF: the cross-layer IoT security framework
//!
//! The paper's contribution (§IV): security functions in the device,
//! network, and service layers that "do not work individually, but
//! interact with each other whenever possible through the XLF Core in the
//! center", which "aggregates the raw and the detection results … from
//! each layer, and conducts its own comprehensive evaluations".
//!
//! ## Layout
//!
//! **The Core** (§IV-D)
//! * [`evidence`] — the cross-layer observation records every mechanism
//!   emits, and the store the Core aggregates them in.
//! * [`bus`] — the channel fabric connecting layer mechanisms to the Core.
//! * [`correlation`] — rule- and MKL-based fusion of per-layer evidence
//!   into per-device verdicts.
//! * [`alerts`] — the alert pipeline.
//! * [`policy`] — automated responses (quarantine, token revocation).
//!
//! **Device layer** (§IV-A)
//! * [`auth`] — the authentication delegation proxy (SSO caching, LAN/WAN
//!   split, correlation-driven token lifetimes) and the cloud-only
//!   baseline it is evaluated against.
//! * [`negotiation`] — lightweight-cipher negotiation from Table I
//!   resource envelopes.
//! * [`nac`] — constrained access: destination allowlists + hardened DNS.
//! * [`updatevet`] — proactive OTA vetting (signature + payload scan).
//!
//! **Network layer** (§IV-B)
//! * [`shaping`] — privacy traffic shaping (padding + random delays).
//! * [`dpi`] — encrypted deep-packet inspection over searchable
//!   encryption (BlindBox-style), plus the plaintext baseline.
//! * [`netmonitor`] — malicious-activity identification (rate anomalies,
//!   behavioural DFAs).
//!
//! **Service layer** (§IV-C)
//! * [`appverify`] — application verification: commands must be explained
//!   by recent, legitimate triggers.
//! * [`dataanalytics`] — security analytics over device telemetry
//!   (seasonal baselines, context correlation).
//!
//! **Assembly**
//! * [`framework`] — [`framework::XlfCore`], the
//!   [`framework::XlfGateway`] smart-gateway node, and the
//!   [`framework::XlfHome`] builder that wires a full home with
//!   per-mechanism on/off switches (for ablations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod appverify;
pub mod auth;
pub mod bus;
pub mod correlation;
pub mod dataanalytics;
pub mod dpi;
pub mod evidence;
pub mod framework;
pub mod nac;
pub mod negotiation;
pub mod netmonitor;
pub mod policy;
pub mod shaping;
pub mod updatevet;

pub use alerts::{Alert, AlertSink, Severity};
pub use bus::EvidenceBus;
pub use correlation::{CorrelationEngine, Verdict};
pub use evidence::{Evidence, EvidenceKind, EvidenceStore, Layer};
pub use framework::{HomeKit, HomeReport, HomeRunner, XlfConfig, XlfCore, XlfGateway, XlfHome};
