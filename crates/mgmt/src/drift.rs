//! Config-drift detection and remediation: the control plane's second
//! command type.
//!
//! Every managed home has a golden configuration fingerprint (a pure
//! hash of `(master_seed, home)` — the stand-in for hashing the home's
//! rendered config files, as thin-edge.io's config plugin does). A
//! deterministic drift cohort mutates its observed fingerprint at a
//! configured epoch; the auditor re-hashes every home on a fixed
//! cadence, and any mismatch produces a `config-remediate` command that
//! resets the observed fingerprint to the golden one.

use crate::command::{CommandBus, CommandKind, Disposition};
use xlf_simnet::splitmix64;
use xlf_stream::{CheckpointError, Reader, Writer};

/// Salt for the drift-cohort hash word (independent of the campaign
/// salt so drift and rollout cohorts don't correlate).
const DRIFT_SALT: u64 = 0xD21F_C0DE_0000_0003;

/// Salt for the golden config fingerprint.
const CONFIG_SALT: u64 = 0xC0F1_6000_0000_0009;

/// The golden config fingerprint of one home.
pub fn golden_config_hash(master_seed: u64, home: u64) -> u64 {
    splitmix64(splitmix64(master_seed ^ splitmix64(home)) ^ CONFIG_SALT)
}

/// Which homes drift, and when the auditor looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigAuditSpec {
    /// Audit every this many epochs (cadence; audits run at epochs
    /// `every`, `2·every`, …).
    pub every: u64,
    /// Share of homes (percent) whose config drifts.
    pub drift_pct: u32,
    /// Epoch the drift cohort's configs mutate in.
    pub drift_epoch: u64,
}

impl ConfigAuditSpec {
    /// An audit every `every` epochs over a 10%-drift-at-epoch-10 fleet.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "audit cadence must be positive");
        ConfigAuditSpec {
            every,
            drift_pct: 10,
            drift_epoch: 10,
        }
    }

    /// Replaces the drift cohort share and onset epoch (builder-style).
    pub fn with_drift(mut self, drift_pct: u32, drift_epoch: u64) -> Self {
        assert!(drift_pct <= 100, "drift share is a percentage");
        self.drift_pct = drift_pct;
        self.drift_epoch = drift_epoch;
        self
    }
}

/// The audit's final accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigAuditReport {
    /// Audit cadence (epochs).
    pub every: u64,
    /// Audit passes run.
    pub audits: u64,
    /// Homes whose config drifted.
    pub drifted: u64,
    /// Drifts the auditor detected (hash mismatches observed).
    pub detected: u64,
    /// Homes remediated back to the golden fingerprint.
    pub remediated: u64,
}

/// One managed home's config fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HomeConfig {
    home: u64,
    golden: u64,
    observed: u64,
}

/// Runs the periodic config-hash audit over the managed homes.
#[derive(Debug, Clone)]
pub struct ConfigAuditor {
    spec: ConfigAuditSpec,
    /// One entry per managed home, in strictly ascending home id.
    configs: Vec<HomeConfig>,
    /// Homes stamped into the drift cohort (may not have drifted yet).
    drift_cohort: u64,
    audits: u64,
    detected: u64,
    remediated: u64,
}

impl ConfigAuditor {
    /// Builds the auditor over `homes` (the managed fleet). The drift
    /// cohort is stamped with the same layout-invariant hashing as
    /// campaign waves, under its own salt.
    pub fn new(spec: ConfigAuditSpec, master_seed: u64, homes: &[u64]) -> Self {
        let mut configs = Vec::with_capacity(homes.len());
        let mut drift_cohort = 0u64;
        for &home in homes {
            let golden = golden_config_hash(master_seed, home);
            let h0 = splitmix64(master_seed ^ splitmix64(home));
            let h1 = splitmix64(h0);
            let point = splitmix64(h1 ^ DRIFT_SALT) % 100;
            // A drifting home remembers the value its observed hash
            // flips to at drift_epoch.
            let observed = if point < spec.drift_pct as u64 {
                drift_cohort += 1;
                golden ^ splitmix64(golden)
            } else {
                golden
            };
            configs.push(HomeConfig {
                home,
                golden,
                observed,
            });
        }
        // A home listed twice has one entry (both are the same pure
        // function of the home id).
        configs.sort_unstable_by_key(|c| c.home);
        configs.dedup();
        configs.shrink_to_fit();
        ConfigAuditor {
            spec,
            configs,
            drift_cohort,
            audits: 0,
            detected: 0,
            remediated: 0,
        }
    }

    /// Advances the audit to `epoch`: on cadence epochs, re-hash every
    /// home and remediate mismatches. Drift only *manifests* from
    /// `drift_epoch` on — before that, drifted homes still observe their
    /// golden hash.
    pub fn epoch_begin(&mut self, epoch: u64, bus: &mut CommandBus) {
        if epoch == 0 || !epoch.is_multiple_of(self.spec.every) {
            return;
        }
        self.audits += 1;
        if epoch < self.spec.drift_epoch {
            return;
        }
        for config in self.configs.iter_mut() {
            if config.observed == config.golden {
                continue;
            }
            self.detected += 1;
            config.observed = config.golden;
            self.remediated += 1;
            bus.record(
                config.home,
                "config",
                epoch,
                CommandKind::ConfigRemediate,
                Disposition::Applied,
            );
        }
    }

    /// Serializes the auditor's *mutable* state (tallies + per-home
    /// observed fingerprints) into a run-level snapshot section. The
    /// golden fingerprints and drift cohort are pure functions of the
    /// seed and are rebuilt by the caller (via [`ConfigAuditor::new`])
    /// before [`ConfigAuditor::restore_state`] overlays this state.
    pub fn checkpoint_into(&self, w: &mut Writer) {
        w.u64(self.audits);
        w.u64(self.detected);
        w.u64(self.remediated);
        w.usize(self.configs.len());
        for config in &self.configs {
            w.u64(config.home);
            w.u64(config.observed);
        }
    }

    /// Restores state serialized with [`ConfigAuditor::checkpoint_into`]
    /// onto a freshly built auditor (same spec, seed, and homes).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any framing violation;
    /// [`CheckpointError::KeyOrder`] unless the home ids are exactly
    /// this auditor's managed homes, in ascending order.
    pub fn restore_state(&mut self, r: &mut Reader) -> Result<(), CheckpointError> {
        self.audits = r.u64()?;
        self.detected = r.u64()?;
        self.remediated = r.u64()?;
        let n = r.usize()?;
        if n != self.configs.len() {
            return Err(CheckpointError::Truncated);
        }
        for config in &mut self.configs {
            if r.u64()? != config.home {
                return Err(CheckpointError::KeyOrder);
            }
            config.observed = r.u64()?;
        }
        Ok(())
    }

    /// The audit's final accounting.
    pub fn report(&self) -> ConfigAuditReport {
        ConfigAuditReport {
            every: self.spec.every,
            audits: self.audits,
            drifted: self.drift_cohort,
            detected: self.detected,
            remediated: self.remediated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drifted_homes_are_detected_once_and_remediated() {
        let homes: Vec<u64> = (0..200).collect();
        let spec = ConfigAuditSpec::new(4).with_drift(20, 8);
        let mut auditor = ConfigAuditor::new(spec, 99, &homes);
        let mut bus = CommandBus::new();
        for epoch in 0..20 {
            auditor.epoch_begin(epoch, &mut bus);
        }
        let report = auditor.report();
        assert_eq!(report.every, 4);
        assert_eq!(report.audits, 4, "epochs 4, 8, 12, 16");
        assert!(
            (20..=70).contains(&report.drifted),
            "≈20% of 200: {}",
            report.drifted
        );
        assert_eq!(report.detected, report.drifted, "every drift caught");
        assert_eq!(report.remediated, report.drifted);
        assert_eq!(
            bus.applied(CommandKind::ConfigRemediate),
            report.remediated,
            "one remediate command per drifted home"
        );
        // Remediation is idempotent: later audits find nothing.
        let log_len = bus.total();
        auditor.epoch_begin(24, &mut bus);
        assert_eq!(bus.total(), log_len);
    }

    #[test]
    fn audit_before_drift_epoch_sees_golden_hashes() {
        let homes: Vec<u64> = (0..100).collect();
        let spec = ConfigAuditSpec::new(2).with_drift(50, 10);
        let mut auditor = ConfigAuditor::new(spec, 1, &homes);
        let mut bus = CommandBus::new();
        for epoch in 0..10 {
            auditor.epoch_begin(epoch, &mut bus);
        }
        assert_eq!(auditor.report().detected, 0, "no drift before epoch 10");
        assert!(auditor.report().audits > 0);
    }

    #[test]
    fn checkpoint_mid_audit_resumes_identically() {
        use xlf_stream::{Reader, Writer};
        let homes: Vec<u64> = (0..120).collect();
        let mk = || ConfigAuditor::new(ConfigAuditSpec::new(3).with_drift(25, 6), 11, &homes);

        let mut golden = mk();
        let mut bus_golden = CommandBus::new();
        for epoch in 0..18 {
            golden.epoch_begin(epoch, &mut bus_golden);
        }

        let mut first = mk();
        let mut bus = CommandBus::new();
        for epoch in 0..5 {
            first.epoch_begin(epoch, &mut bus);
        }
        let mut w = Writer::new();
        first.checkpoint_into(&mut w);
        let bytes = w.into_bytes();

        let mut resumed = mk();
        let mut r = Reader::new(&bytes);
        resumed.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut bus_resumed = bus.clone();
        for epoch in 5..18 {
            resumed.epoch_begin(epoch, &mut bus_resumed);
        }
        assert_eq!(resumed.report(), golden.report());
        assert_eq!(bus_resumed, bus_golden);
    }

    /// The checkpoint's home ids must be the auditor's homes in
    /// ascending order; a swapped pair, a repeated id or an unknown one
    /// is rejected. Each home's record is its id and observed hash, after
    /// the three tallies and the count.
    #[test]
    fn restore_rejects_homes_out_of_id_order() {
        use xlf_stream::{Reader, Writer};
        let homes = [4u64, 7, 9];
        let mk = || ConfigAuditor::new(ConfigAuditSpec::new(3), 11, &homes);
        let mut w = Writer::new();
        mk().checkpoint_into(&mut w);
        let bytes = w.into_bytes();
        let with_ids = |ids: [u64; 3]| {
            let mut crafted = bytes.clone();
            for (i, id) in ids.into_iter().enumerate() {
                let at = 32 + 16 * i;
                crafted[at..at + 8].copy_from_slice(&id.to_le_bytes());
            }
            crafted
        };
        let restore = |bytes: &[u8]| {
            let mut auditor = mk();
            let mut r = Reader::new(bytes);
            auditor.restore_state(&mut r).and_then(|()| r.finish())
        };
        assert_eq!(restore(&with_ids(homes)), Ok(()));
        for ids in [[7, 4, 9], [4, 4, 9], [4, 7, 8]] {
            assert_eq!(
                restore(&with_ids(ids)),
                Err(CheckpointError::KeyOrder),
                "ids {ids:?}"
            );
        }
    }

    #[test]
    fn auditor_is_deterministic() {
        let homes: Vec<u64> = (0..64).collect();
        let run = || {
            let mut auditor = ConfigAuditor::new(ConfigAuditSpec::new(3), 7, &homes);
            let mut bus = CommandBus::new();
            for epoch in 0..15 {
                auditor.epoch_begin(epoch, &mut bus);
            }
            (auditor.report(), bus)
        };
        assert_eq!(run(), run());
    }
}
