//! The adversary library: every attack the paper enumerates, implemented
//! against the simulated home so that (a) the Table II and Figure 3
//! artifacts can be regenerated by *running* the attacks, and (b) the XLF
//! mechanisms have something real to stop.
//!
//! * [`catalog`] — the attack catalog with OWASP surface areas (Figure 3)
//!   and Table II row metadata, and [`HomeAttack`], the one name of the
//!   attack an experiment home runs, keyed to its catalog row.
//! * [`device`] — device-layer attack nodes: credential stuffing, buffer
//!   overflow, firmware tampering, deauth/rickroll, UPnP sniffing.
//! * [`mirai`] — the §IV-B3 botnet pipeline: scan → compromise → C&C →
//!   DDoS, with a victim node measuring the flood.
//! * [`mitm`] — on-path attacks against the TLS-lite channel, with and
//!   without a leaked PSK.
//! * [`replay`] — frame/record replay against the 802.15.4 and TLS
//!   substrates.
//! * [`dnspoison`] — off-path and on-path DNS cache poisoning.
//! * [`observer`] — the passive traffic analyst of §IV-B1 (Apthorpe/
//!   HoMonit): infers device state from packet metadata only.
//! * [`overprivilege`] — the malicious over-privileged SmartApp (§IV-C2).
//! * [`scripted`] — the scripted WAN attacker and victim sink every
//!   fleet and scenario home is attacked with, service-layer event
//!   spoofing (§IV-C2) included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod device;
pub mod dnspoison;
pub mod mirai;
pub mod mitm;
pub mod observer;
pub mod overprivilege;
pub mod replay;
pub mod scripted;

pub use catalog::{attack_catalog, AttackKind, AttackPhase, AttackSpec, HomeAttack, SurfaceArea};
pub use observer::TrafficAnalyst;
