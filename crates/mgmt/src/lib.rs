//! # xlf-mgmt — the fleet device-management control plane
//!
//! The rest of the workspace *detects*: per-home Cores fuse evidence,
//! the fleet tier correlates across homes, and the stream correlator
//! fires epoch-stamped alerts mid-run. This crate *acts*. It closes the
//! detection→response loop the paper's §III-C OTA analysis calls for
//! ("a robust OTA update mechanism is a core part of a system's
//! architecture") with three pieces:
//!
//! 1. [`CommandBus`] — a deterministic, append-only
//!    log of every command the control plane issued to a device
//!    (firmware update / rollback / quarantine / config remediation)
//!    with its disposition. No wall clock, no randomness: replaying the
//!    same fleet produces the same log.
//! 2. [`CampaignEngine`] — staged
//!    percentage-wave OTA rollout over a fleet. Wave cohorts are chosen
//!    by the same SplitMix64 layout-invariant stamping the fleet uses
//!    for faults, so cohorts are byte-reproducible across worker counts
//!    and nested (every wave is a superset of the previous one). Each
//!    device verifies the vendor signature at the device layer before
//!    [`FirmwareStore::apply`](xlf_device::firmware::FirmwareStore);
//!    a **health gate** between waves consumes the stream correlator's
//!    flagged-home set — if the updated cohort's deviation rate exceeds
//!    the gate, the rollout halts and the engine issues rollback +
//!    quarantine commands. This turns the Table II firmware-modulation
//!    attack from a detection scenario into a containment scenario.
//! 3. [`ConfigAuditor`] — a periodic config-hash
//!    audit: homes whose observed config fingerprint drifts from the
//!    golden fingerprint get a remediate command that resets them.
//!
//! The engines are driven from the fleet aggregator's stream pass (one
//! `epoch_begin` per correlation epoch), but depend only on the
//! device/cloud primitives — the fleet crate layers them in.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod command;
pub mod drift;

pub use campaign::{
    cohort_point, CampaignEngine, CampaignReport, CampaignSpec, HealthGate, TargetHome, WaveReport,
};
pub use command::{CommandBus, CommandKind, CommandRecord, Disposition, COMMAND_KINDS};
pub use drift::{ConfigAuditReport, ConfigAuditSpec, ConfigAuditor};
