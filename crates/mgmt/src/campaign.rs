//! Staged OTA rollout campaigns with stream-alert health gates.
//!
//! A [`CampaignSpec`] stages one firmware release through cumulative
//! percentage waves (e.g. 10% → 30% → 60% → 100%). Wave membership is a
//! pure hash of `(master_seed, home id)` — the same SplitMix64 chain the
//! fleet uses to stamp faults, mixed with a campaign-specific salt — so
//! cohorts are layout-invariant: byte-reproducible across worker counts,
//! independent of the attack/fault mixes, and *nested* (a home in wave
//! `w` is in every later wave).
//!
//! Between waves a [`HealthGate`] consumes the stream correlator's
//! flagged-home set: if the fraction of already-updated homes that the
//! correlator has flagged exceeds the gate threshold, the rollout halts
//! and the engine issues rollback + quarantine commands for the updated
//! cohort. A supply-chain-compromised release (the [`OtaServer`] serving
//! an unsigned, implant-carrying image) therefore reaches at most the
//! first wave's share of the fleet before containment — the Table II
//! firmware-modulation attack met with detection *and* response.
//!
//! The engine keeps one slot per target in a vector sorted by home id
//! (a lookup is a binary search, every pass walks it in id order, as
//! its checkpoint is written). The slots' firmware stores share one
//! factory image, one copy of the vendor secret and, per wave, the one
//! release image the server built for it; a slot owns only its flags
//! and its version history.

use crate::command::{CommandBus, CommandKind, Disposition};
use std::collections::BTreeSet;
use std::sync::Arc;
use xlf_attacks::device::{FirmwareTamperer, IMPLANT_MARKER};
use xlf_cloud::OtaServer;
use xlf_device::firmware::{FirmwareImage, FirmwareStore, UpdatePolicy, Version};
use xlf_simnet::splitmix64;
use xlf_stream::{CheckpointError, Reader, Writer};

/// Salt for the campaign-cohort hash word. Like the fleet's fault word,
/// it branches off the stamping chain's `h1` so campaign membership
/// never relayouts (and is never relayouted by) seeds, templates,
/// attacks, or faults.
const CAMPAIGN_SALT: u64 = 0x0CA3_BA1D_0000_0007;

/// A home's rollout percentile in `0..100`: the home joins wave `w` iff
/// `cohort_point < waves[w]`. Derived from the fleet stamping chain
/// (`h0 = sm(master ^ sm(id))`, `h1 = sm(h0)`) with the campaign salt,
/// so it is a pure function of `(master_seed, home)` — identical for
/// every worker count and stable when the attack/fault mixes change.
pub fn cohort_point(master_seed: u64, home: u64) -> u64 {
    let h0 = splitmix64(master_seed ^ splitmix64(home));
    let h1 = splitmix64(h0);
    splitmix64(h1 ^ CAMPAIGN_SALT) % 100
}

/// The between-wave health gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthGate {
    /// Halt when `|flagged ∩ updated| / |updated|` exceeds this.
    pub max_deviation_rate: f64,
}

impl Default for HealthGate {
    fn default() -> Self {
        HealthGate {
            max_deviation_rate: 0.25,
        }
    }
}

/// One staged firmware rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in reports).
    pub name: String,
    /// Device (by template name) the release targets.
    pub device: String,
    /// Version of the staged release.
    pub version: Version,
    /// Release payload.
    pub payload: Vec<u8>,
    /// Cumulative rollout shares in percent, strictly increasing
    /// (e.g. `[10, 30, 60, 100]`).
    pub waves: Vec<u32>,
    /// Stream epoch the first wave launches in.
    pub start_epoch: u64,
    /// Epochs between wave launches (the gate observation window).
    pub epochs_per_wave: u64,
    /// Health gate between waves (`None` = ungated: waves launch on
    /// schedule no matter what the correlator says).
    pub gate: Option<HealthGate>,
    /// Supply-chain compromise: the OTA server serves an unsigned,
    /// implant-carrying variant of the release instead of the signed
    /// image — the Table II firmware-modulation attack staged through
    /// the campaign's own distribution path.
    pub tampered: bool,
}

impl CampaignSpec {
    /// A gated campaign with the default wave plan (10/30/60/100,
    /// starting at epoch 8, one wave every 3 epochs).
    pub fn new(name: &str, device: &str, version: Version, payload: Vec<u8>) -> Self {
        CampaignSpec {
            name: name.to_string(),
            device: device.to_string(),
            version,
            payload,
            waves: vec![10, 30, 60, 100],
            start_epoch: 8,
            epochs_per_wave: 3,
            gate: Some(HealthGate::default()),
            tampered: false,
        }
    }

    /// Replaces the wave plan (builder-style). Shares are cumulative
    /// percentages and must be strictly increasing, ending ≤ 100.
    pub fn with_waves(mut self, waves: Vec<u32>) -> Self {
        assert!(!waves.is_empty(), "campaign needs at least one wave");
        assert!(
            waves.windows(2).all(|w| w[0] < w[1]),
            "wave shares must be strictly increasing"
        );
        assert!(
            *waves.last().unwrap_or(&0) <= 100,
            "wave shares are percentages (≤ 100)"
        );
        self.waves = waves;
        self
    }

    /// Replaces the wave schedule (builder-style).
    pub fn with_schedule(mut self, start_epoch: u64, epochs_per_wave: u64) -> Self {
        assert!(epochs_per_wave > 0, "epochs_per_wave must be positive");
        self.start_epoch = start_epoch;
        self.epochs_per_wave = epochs_per_wave;
        self
    }

    /// Replaces the health gate (builder-style); `None` disables gating.
    pub fn with_gate(mut self, gate: Option<HealthGate>) -> Self {
        self.gate = gate;
        self
    }

    /// Marks the release supply-chain-compromised (builder-style); see
    /// [`CampaignSpec::tampered`].
    pub fn with_tampered(mut self) -> Self {
        self.tampered = true;
        self
    }
}

/// One home the campaign manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetHome {
    /// Fleet-wide home id.
    pub home: u64,
    /// Whether the target device runs the Table II vulnerable update
    /// path ([`UpdatePolicy::promiscuous`]) instead of the strict one —
    /// derived from the device's `UnsignedFirmware` vulnerability.
    pub promiscuous: bool,
}

/// Per-home campaign state: the device's firmware slot plus what the
/// campaign did to it.
#[derive(Debug, Clone)]
struct DeviceSlot {
    /// Fleet-wide home id (the slot table's sort key).
    home: u64,
    store: FirmwareStore,
    point: u64,
    /// The release was offered (a home is offered at most once; a
    /// device-layer rejection is final for the campaign).
    offered: bool,
    updated_epoch: Option<u64>,
    compromised: bool,
    rolled_back: bool,
    quarantined: bool,
}

/// One launched wave's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveReport {
    /// Wave index.
    pub wave: usize,
    /// Cumulative share this wave extended the rollout to (percent).
    pub share_pct: u32,
    /// Epoch the wave launched in.
    pub epoch: u64,
    /// Homes newly offered the release in this wave.
    pub cohort: u64,
    /// Offers the device layer applied.
    pub applied: u64,
    /// Offers the device layer rejected.
    pub rejected: u64,
}

/// The campaign's final accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Target device.
    pub device: String,
    /// Staged release version.
    pub version: Version,
    /// Whether the release was supply-chain-compromised.
    pub tampered: bool,
    /// Whether a health gate was configured.
    pub gated: bool,
    /// Gate threshold (0 when ungated).
    pub max_deviation_rate: f64,
    /// Homes the campaign managed.
    pub targets: u64,
    /// Homes that applied the release.
    pub updated: u64,
    /// Offers rejected by device-layer verification.
    pub rejected: u64,
    /// Homes that ever ran the implanted payload.
    pub compromised: u64,
    /// Homes rolled back to the known-good image on halt.
    pub rolled_back: u64,
    /// Homes quarantined on halt.
    pub quarantined: u64,
    /// Cumulative share of the last launched wave (percent; 0 when no
    /// wave launched).
    pub rollout_pct: u32,
    /// Wave index the gate halted before (None = ran to completion).
    pub halted_at_wave: Option<usize>,
    /// Epoch the halt fired in.
    pub halt_epoch: Option<u64>,
    /// Updated-cohort deviation rate that tripped the gate.
    pub halt_rate: Option<f64>,
    /// A tampered campaign was halted with every compromised home
    /// rolled off the implant — detection became containment.
    pub contained: bool,
    /// Per-wave outcomes, in launch order.
    pub waves: Vec<WaveReport>,
}

/// Drives one campaign across the fleet, one stream epoch at a time.
#[derive(Debug, Clone)]
pub struct CampaignEngine {
    spec: CampaignSpec,
    factory: Arc<FirmwareImage>,
    server: OtaServer,
    /// One slot per target, in strictly ascending home id.
    slots: Vec<DeviceSlot>,
    waves_run: Vec<WaveReport>,
    halted: Option<(usize, u64, f64)>,
    done: bool,
}

impl CampaignEngine {
    /// Builds the engine: a per-target firmware-store replica (factory
    /// image installed; policy from the target's vulnerability profile)
    /// and the vendor's OTA server with the release staged — compromised
    /// when the spec says so. A home listed twice keeps its last entry.
    pub fn new(
        spec: CampaignSpec,
        master_seed: u64,
        targets: &[TargetHome],
        vendor: &'static str,
        vendor_secret: &'static [u8],
    ) -> Self {
        let factory = Arc::new(FirmwareImage::signed(
            Version(1, 0, 0),
            vendor,
            b"factory firmware".to_vec(),
            vendor_secret,
        ));
        let secret: Arc<[u8]> = Arc::from(vendor_secret);
        let mut server = OtaServer::new(vendor, vendor_secret);
        server.publish(&spec.device, spec.version, spec.payload.clone());
        if spec.tampered {
            server.compromise(FirmwareTamperer::ota_implant());
        }
        // Reversed, then stably sorted: the first of each home's entries
        // is its last target, the one the dedup keeps.
        let mut slots: Vec<DeviceSlot> = targets
            .iter()
            .rev()
            .map(|t| {
                let policy = if t.promiscuous {
                    UpdatePolicy::promiscuous()
                } else {
                    UpdatePolicy::strict()
                };
                DeviceSlot {
                    home: t.home,
                    store: FirmwareStore::new(Arc::clone(&factory), policy, Arc::clone(&secret)),
                    point: cohort_point(master_seed, t.home),
                    offered: false,
                    updated_epoch: None,
                    compromised: false,
                    rolled_back: false,
                    quarantined: false,
                }
            })
            .collect();
        slots.sort_by_key(|s| s.home);
        slots.dedup_by_key(|s| s.home);
        slots.shrink_to_fit();
        CampaignEngine {
            spec,
            factory,
            server,
            slots,
            waves_run: Vec::new(),
            halted: None,
            done: false,
        }
    }

    /// Campaign name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Whether `home` is currently running the implanted payload —
    /// i.e. it applied a compromised image and has been neither rolled
    /// back nor quarantined. This is what feeds the implant's behaviour
    /// into the home's traffic windows.
    pub fn implant_active(&self, home: u64) -> bool {
        self.slots
            .binary_search_by_key(&home, |s| s.home)
            .is_ok_and(|i| {
                let s = &self.slots[i];
                s.compromised && !s.rolled_back && !s.quarantined
            })
    }

    /// Whether the gate has halted the rollout.
    pub fn halted(&self) -> bool {
        self.halted.is_some()
    }

    /// Advances the campaign to `epoch`. At wave boundaries the gate is
    /// evaluated first (over the homes updated in earlier waves, against
    /// the correlator's flagged set so far); if it holds, the next wave
    /// launches. One extra boundary after the last wave runs the final
    /// post-campaign gate check.
    pub fn epoch_begin(&mut self, epoch: u64, flagged: &BTreeSet<u64>, bus: &mut CommandBus) {
        if self.done || epoch < self.spec.start_epoch {
            return;
        }
        let since = epoch - self.spec.start_epoch;
        if !since.is_multiple_of(self.spec.epochs_per_wave) {
            return;
        }
        let wave = (since / self.spec.epochs_per_wave) as usize;
        if wave > self.spec.waves.len() {
            self.done = true;
            return;
        }
        if wave > 0 {
            if let Some(gate) = self.spec.gate {
                if let Some(rate) = self.updated_deviation_rate(flagged) {
                    if rate > gate.max_deviation_rate {
                        self.halt(wave, epoch, rate, bus);
                        return;
                    }
                }
            }
        }
        if wave == self.spec.waves.len() {
            // Final post-campaign gate check passed.
            self.done = true;
            return;
        }
        self.launch_wave(wave, epoch, bus);
    }

    /// `|flagged ∩ updated| / |updated|`; `None` before any update.
    fn updated_deviation_rate(&self, flagged: &BTreeSet<u64>) -> Option<f64> {
        let updated = self.slots.iter().filter(|s| s.updated_epoch.is_some());
        let (total, deviant) = updated.fold((0usize, 0usize), |(total, deviant), s| {
            (total + 1, deviant + usize::from(flagged.contains(&s.home)))
        });
        (total > 0).then(|| deviant as f64 / total as f64)
    }

    fn launch_wave(&mut self, wave: usize, epoch: u64, bus: &mut CommandBus) {
        let share = self.spec.waves[wave] as u64;
        let (mut cohort, mut applied, mut rejected) = (0u64, 0u64, 0u64);
        // The server builds the same image for every home of a wave, so
        // it is built once and every slot that applies it shares it;
        // each device still verifies it.
        let image = self.server.image_for(&self.spec.device).map(Arc::new);
        for slot in self.slots.iter_mut() {
            let home = slot.home;
            if slot.point >= share || slot.offered {
                continue;
            }
            slot.offered = true;
            cohort += 1;
            let Some(image) = &image else {
                continue;
            };
            match slot.store.apply(Arc::clone(image)) {
                Ok(()) => {
                    applied += 1;
                    slot.updated_epoch = Some(epoch);
                    slot.compromised |= slot.store.payload_contains(IMPLANT_MARKER);
                    bus.record(
                        home,
                        &self.spec.device,
                        epoch,
                        CommandKind::FirmwareUpdate,
                        Disposition::Applied,
                    );
                }
                Err(e) => {
                    rejected += 1;
                    bus.record(
                        home,
                        &self.spec.device,
                        epoch,
                        CommandKind::FirmwareUpdate,
                        Disposition::Rejected(e.to_string()),
                    );
                }
            }
        }
        self.waves_run.push(WaveReport {
            wave,
            share_pct: self.spec.waves[wave],
            epoch,
            cohort,
            applied,
            rejected,
        });
    }

    /// Containment: every updated home is rolled back to the factory
    /// image (rollback bypasses the downgrade check but still enforces
    /// the signature policy) and quarantined pending investigation.
    fn halt(&mut self, wave: usize, epoch: u64, rate: f64, bus: &mut CommandBus) {
        self.halted = Some((wave, epoch, rate));
        self.done = true;
        for slot in self.slots.iter_mut() {
            let home = slot.home;
            if slot.updated_epoch.is_none() {
                continue;
            }
            match slot.store.apply_rollback(Arc::clone(&self.factory)) {
                Ok(()) => {
                    slot.rolled_back = true;
                    bus.record(
                        home,
                        &self.spec.device,
                        epoch,
                        CommandKind::FirmwareRollback,
                        Disposition::Applied,
                    );
                }
                Err(e) => {
                    bus.record(
                        home,
                        &self.spec.device,
                        epoch,
                        CommandKind::FirmwareRollback,
                        Disposition::Rejected(e.to_string()),
                    );
                }
            }
            slot.quarantined = true;
            bus.record(
                home,
                &self.spec.device,
                epoch,
                CommandKind::Quarantine,
                Disposition::Issued,
            );
        }
    }

    /// Serializes the engine's *mutable* state into a run-level snapshot
    /// section: per-slot rollout flags + installed firmware, the wave
    /// log, the halt record, and the done flag. The spec, OTA server,
    /// and factory image are pure functions of the campaign inputs and
    /// are rebuilt by the caller (via [`CampaignEngine::new`]) before
    /// [`CampaignEngine::restore_state`] overlays this state.
    pub fn checkpoint_into(&self, w: &mut Writer) {
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.u64(slot.home);
            w.bool(slot.offered);
            match slot.updated_epoch {
                Some(e) => {
                    w.u8(1);
                    w.u64(e);
                }
                None => w.u8(0),
            }
            w.bool(slot.compromised);
            w.bool(slot.rolled_back);
            w.bool(slot.quarantined);
            let image = slot.store.installed().to_bytes();
            w.usize(image.len());
            w.bytes(&image);
            w.usize(slot.store.history.len());
            for v in &slot.store.history {
                write_version(w, *v);
            }
        }
        w.usize(self.waves_run.len());
        for wave in &self.waves_run {
            w.usize(wave.wave);
            w.u32(wave.share_pct);
            w.u64(wave.epoch);
            w.u64(wave.cohort);
            w.u64(wave.applied);
            w.u64(wave.rejected);
        }
        match self.halted {
            Some((wave, epoch, rate)) => {
                w.u8(1);
                w.usize(wave);
                w.u64(epoch);
                w.f64(rate);
            }
            None => w.u8(0),
        }
        w.bool(self.done);
    }

    /// Restores state serialized with [`CampaignEngine::checkpoint_into`]
    /// onto a freshly built engine (same spec, seed, and targets).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any framing violation or malformed content
    /// (malformed firmware image, invalid tag byte);
    /// [`CheckpointError::KeyOrder`] unless the slots' home ids are
    /// exactly this engine's targets, in ascending order.
    pub fn restore_state(&mut self, r: &mut Reader) -> Result<(), CheckpointError> {
        let n = r.usize()?;
        if n != self.slots.len() {
            return Err(CheckpointError::Truncated);
        }
        for slot in &mut self.slots {
            if r.u64()? != slot.home {
                return Err(CheckpointError::KeyOrder);
            }
            slot.offered = r.bool()?;
            slot.updated_epoch = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(CheckpointError::Truncated),
            };
            slot.compromised = r.bool()?;
            slot.rolled_back = r.bool()?;
            slot.quarantined = r.bool()?;
            let ilen = r.usize()?;
            let image = FirmwareImage::from_bytes(r.bytes(ilen)?)
                .map_err(|_| CheckpointError::Truncated)?;
            let hlen = r.usize()?;
            let mut history = Vec::new();
            for _ in 0..hlen {
                history.push(read_version(r)?);
            }
            slot.store.restore_state(image, history);
        }
        let waves = r.usize()?;
        self.waves_run.clear();
        for _ in 0..waves {
            self.waves_run.push(WaveReport {
                wave: r.usize()?,
                share_pct: r.u32()?,
                epoch: r.u64()?,
                cohort: r.u64()?,
                applied: r.u64()?,
                rejected: r.u64()?,
            });
        }
        self.halted = match r.u8()? {
            0 => None,
            1 => Some((r.usize()?, r.u64()?, r.f64()?)),
            _ => return Err(CheckpointError::Truncated),
        };
        self.done = r.bool()?;
        Ok(())
    }

    /// The campaign's final accounting.
    pub fn report(&self) -> CampaignReport {
        let count = |f: fn(&DeviceSlot) -> bool| self.slots.iter().filter(|s| f(s)).count() as u64;
        let updated = count(|s| s.updated_epoch.is_some());
        let compromised = count(|s| s.compromised);
        let rolled_back = count(|s| s.rolled_back);
        let quarantined = count(|s| s.quarantined);
        let rejected = self.waves_run.iter().map(|w| w.rejected).sum();
        let implant_free = self
            .slots
            .iter()
            .all(|s| !s.store.payload_contains(IMPLANT_MARKER));
        CampaignReport {
            name: self.spec.name.clone(),
            device: self.spec.device.clone(),
            version: self.spec.version,
            tampered: self.spec.tampered,
            gated: self.spec.gate.is_some(),
            max_deviation_rate: self.spec.gate.map_or(0.0, |g| g.max_deviation_rate),
            targets: self.slots.len() as u64,
            updated,
            rejected,
            compromised,
            rolled_back,
            quarantined,
            rollout_pct: self.waves_run.last().map_or(0, |w| w.share_pct),
            halted_at_wave: self.halted.map(|(w, _, _)| w),
            halt_epoch: self.halted.map(|(_, e, _)| e),
            halt_rate: self.halted.map(|(_, _, r)| r),
            contained: self.spec.tampered && self.halted.is_some() && implant_free,
            waves: self.waves_run.clone(),
        }
    }
}

fn write_version(w: &mut Writer, v: Version) {
    w.u32(u32::from(v.0));
    w.u32(u32::from(v.1));
    w.u32(u32::from(v.2));
}

fn read_version(r: &mut Reader) -> Result<Version, CheckpointError> {
    let v0 = u16::try_from(r.u32()?).map_err(|_| CheckpointError::Truncated)?;
    let v1 = u16::try_from(r.u32()?).map_err(|_| CheckpointError::Truncated)?;
    let v2 = u16::try_from(r.u32()?).map_err(|_| CheckpointError::Truncated)?;
    Ok(Version(v0, v1, v2))
}

#[cfg(test)]
mod tests {
    use super::*;

    const VENDOR: &str = "acme";
    const SECRET: &[u8] = b"acme vendor secret";

    fn targets(n: u64, promiscuous: bool) -> Vec<TargetHome> {
        (0..n)
            .map(|home| TargetHome { home, promiscuous })
            .collect()
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::new(
            "cam-2.0",
            "cam",
            Version(2, 0, 0),
            b"cam firmware v2".to_vec(),
        )
        .with_schedule(2, 2)
        .with_waves(vec![10, 40, 100])
    }

    /// Drives the engine through every epoch in `0..epochs`, feeding it
    /// a constant flagged set.
    fn drive(engine: &mut CampaignEngine, epochs: u64, flagged: &BTreeSet<u64>) -> CommandBus {
        let mut bus = CommandBus::new();
        for epoch in 0..epochs {
            engine.epoch_begin(epoch, flagged, &mut bus);
        }
        bus
    }

    #[test]
    fn cohort_points_are_deterministic_and_spread() {
        let a: Vec<u64> = (0..200).map(|h| cohort_point(42, h)).collect();
        let b: Vec<u64> = (0..200).map(|h| cohort_point(42, h)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| p < 100));
        // A different master seed re-points the cohort.
        let c: Vec<u64> = (0..200).map(|h| cohort_point(43, h)).collect();
        assert_ne!(a, c);
        // Rough uniformity: at least a fifth of homes land under 30.
        let under_30 = a.iter().filter(|&&p| p < 30).count();
        assert!((40..=120).contains(&under_30), "under_30: {under_30}");
    }

    #[test]
    fn clean_campaign_rolls_out_in_nested_waves_to_full_share() {
        let mut engine = CampaignEngine::new(spec(), 7, &targets(100, false), VENDOR, SECRET);
        let bus = drive(&mut engine, 12, &BTreeSet::new());
        let report = engine.report();
        assert_eq!(report.rollout_pct, 100);
        assert_eq!(report.halted_at_wave, None);
        assert_eq!(report.updated, 100, "signed release applies everywhere");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.compromised, 0);
        assert!(!report.contained, "nothing to contain");
        assert_eq!(report.waves.len(), 3);
        // Waves are nested and cover everyone exactly once.
        let offered: u64 = report.waves.iter().map(|w| w.cohort).sum();
        assert_eq!(offered, 100);
        assert!(report.waves.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(bus.applied(CommandKind::FirmwareUpdate), 100);
    }

    #[test]
    fn tampered_campaign_compromises_promiscuous_homes_and_gate_contains_it() {
        let mut engine = CampaignEngine::new(
            spec().with_tampered(),
            7,
            &targets(100, true),
            VENDOR,
            SECRET,
        );
        let mut bus = CommandBus::new();
        // Wave 0 at epoch 2: implant lands on the first cohort.
        for epoch in 0..3 {
            engine.epoch_begin(epoch, &BTreeSet::new(), &mut bus);
        }
        let wave0 = engine.report().waves[0].clone();
        assert!(wave0.applied > 0, "promiscuous homes accept the implant");
        assert_eq!(engine.report().compromised, wave0.applied);
        let infected: BTreeSet<u64> = (0..100).filter(|&h| engine.implant_active(h)).collect();
        assert_eq!(infected.len() as u64, wave0.applied);

        // The correlator flags every infected home before the next
        // boundary (epoch 4): the gate halts, rolls back, quarantines.
        engine.epoch_begin(4, &infected, &mut bus);
        let report = engine.report();
        assert_eq!(report.halted_at_wave, Some(1));
        assert_eq!(report.halt_epoch, Some(4));
        assert!(report.halt_rate.unwrap() > 0.99);
        assert_eq!(report.rollout_pct, 10, "never got past wave 0");
        assert_eq!(report.rolled_back, report.updated);
        assert_eq!(report.quarantined, report.updated);
        assert!(report.contained, "implant rolled off every home");
        assert!((0..100).all(|h| !engine.implant_active(h)));
        assert_eq!(bus.applied(CommandKind::FirmwareRollback), report.updated);
        assert_eq!(bus.issued(CommandKind::Quarantine), report.updated);
        // Later epochs are no-ops once halted.
        engine.epoch_begin(6, &infected, &mut bus);
        assert_eq!(engine.report().rollout_pct, 10);
    }

    #[test]
    fn strict_devices_reject_the_tampered_release() {
        let mut engine = CampaignEngine::new(
            spec().with_tampered(),
            7,
            &targets(50, false),
            VENDOR,
            SECRET,
        );
        let bus = drive(&mut engine, 12, &BTreeSet::new());
        let report = engine.report();
        assert_eq!(report.updated, 0, "strict policy refuses unsigned images");
        assert_eq!(report.compromised, 0);
        assert_eq!(report.rejected, 50);
        assert_eq!(bus.rejected(CommandKind::FirmwareUpdate), 50);
        // Nothing updated → the gate has nothing to halt.
        assert_eq!(report.halted_at_wave, None);
    }

    #[test]
    fn ungated_tampered_campaign_spreads_to_the_full_fleet() {
        let mut engine = CampaignEngine::new(
            spec().with_tampered().with_gate(None),
            7,
            &targets(100, true),
            VENDOR,
            SECRET,
        );
        // Even with every infected home flagged, no gate → no halt.
        let all: BTreeSet<u64> = (0..100).collect();
        drive(&mut engine, 12, &all);
        let report = engine.report();
        assert_eq!(report.rollout_pct, 100);
        assert_eq!(report.compromised, 100);
        assert_eq!(report.rolled_back, 0);
        assert!(!report.contained);
    }

    #[test]
    fn gate_tolerates_background_deviation_below_threshold() {
        // 100 promiscuous homes, clean release, but 3 homes flagged for
        // unrelated reasons: 3% < 25% gate → rollout completes.
        let mut engine = CampaignEngine::new(spec(), 7, &targets(100, true), VENDOR, SECRET);
        let background: BTreeSet<u64> = [3, 57, 91].into_iter().collect();
        drive(&mut engine, 12, &background);
        let report = engine.report();
        assert_eq!(report.rollout_pct, 100);
        assert_eq!(report.halted_at_wave, None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_waves_are_rejected() {
        let _ = spec().with_waves(vec![10, 10, 100]);
    }

    #[test]
    fn checkpoint_mid_campaign_resumes_byte_identically() {
        let mk = || {
            CampaignEngine::new(
                spec().with_tampered(),
                7,
                &targets(64, true),
                VENDOR,
                SECRET,
            )
        };
        let infected: BTreeSet<u64> = (0..64).collect();

        // Straight-through golden.
        let mut golden = mk();
        let mut bus_golden = CommandBus::new();
        for epoch in 0..12 {
            golden.epoch_begin(epoch, &infected, &mut bus_golden);
        }

        // Interrupted twin: checkpoint after epoch 3 (mid-campaign,
        // between wave boundaries) and resume on a fresh engine.
        let mut first = mk();
        let mut bus = CommandBus::new();
        for epoch in 0..4 {
            first.epoch_begin(epoch, &infected, &mut bus);
        }
        let mut w = Writer::new();
        first.checkpoint_into(&mut w);
        bus.checkpoint_into(&mut w);
        let bytes = w.into_bytes();

        let mut resumed = mk();
        let mut r = Reader::new(&bytes);
        resumed.restore_state(&mut r).unwrap();
        let mut bus_resumed = CommandBus::restore_from(&mut r).unwrap();
        r.finish().unwrap();
        for epoch in 4..12 {
            resumed.epoch_begin(epoch, &infected, &mut bus_resumed);
        }
        assert_eq!(resumed.report(), golden.report());
        assert_eq!(bus_resumed, bus_golden);

        // And the restored engine re-serializes to the same bytes the
        // original produced at the checkpoint.
        let mut twin = mk();
        let mut r = Reader::new(&bytes);
        twin.restore_state(&mut r).unwrap();
        let _ = CommandBus::restore_from(&mut r).unwrap();
        let mut w2 = Writer::new();
        twin.checkpoint_into(&mut w2);
        let mut w1 = Writer::new();
        first.checkpoint_into(&mut w1);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    /// The checkpoint's slot ids must be the engine's targets in
    /// ascending order: a swapped pair, a repeated id or an unknown one
    /// is rejected, not looked up slot by slot.
    #[test]
    fn campaign_restore_rejects_slots_out_of_id_order() {
        let homes = [1001u64, 1002, 1003];
        let targets: Vec<TargetHome> = homes
            .iter()
            .map(|&home| TargetHome {
                home,
                promiscuous: true,
            })
            .collect();
        let mk = || CampaignEngine::new(spec(), 7, &targets, VENDOR, SECRET);
        let mut w = Writer::new();
        mk().checkpoint_into(&mut w);
        let bytes = w.into_bytes();
        let at: Vec<usize> = homes
            .iter()
            .map(|h| {
                let le = h.to_le_bytes();
                let found: Vec<usize> = (0..bytes.len() - 7)
                    .filter(|&i| bytes[i..i + 8] == le)
                    .collect();
                assert_eq!(found.len(), 1, "home {h} written once");
                found[0]
            })
            .collect();
        let with_ids = |ids: [u64; 3]| {
            let mut crafted = bytes.clone();
            for (&pos, id) in at.iter().zip(ids) {
                crafted[pos..pos + 8].copy_from_slice(&id.to_le_bytes());
            }
            crafted
        };
        let restore = |bytes: &[u8]| {
            let mut engine = mk();
            let mut r = Reader::new(bytes);
            engine.restore_state(&mut r).and_then(|()| r.finish())
        };
        assert_eq!(restore(&with_ids(homes)), Ok(()));
        for ids in [[1002, 1001, 1003], [1001, 1001, 1003], [1001, 1002, 9999]] {
            assert_eq!(
                restore(&with_ids(ids)),
                Err(CheckpointError::KeyOrder),
                "ids {ids:?}"
            );
        }
    }

    #[test]
    fn targets_are_kept_in_id_order_and_a_repeat_keeps_its_last_entry() {
        let targets = [(5, false), (2, false), (5, true)]
            .map(|(home, promiscuous)| TargetHome { home, promiscuous });
        let engine = CampaignEngine::new(spec(), 7, &targets, VENDOR, SECRET);
        let homes: Vec<u64> = engine.slots.iter().map(|s| s.home).collect();
        assert_eq!(homes, vec![2, 5]);
        let mut tampered = CampaignEngine::new(spec().with_tampered(), 7, &targets, VENDOR, SECRET);
        drive(&mut tampered, 12, &BTreeSet::new());
        assert!(
            tampered.implant_active(5),
            "home 5 runs its last, promiscuous entry"
        );
        assert!(!tampered.implant_active(2));
    }

    #[test]
    fn campaign_restore_rejects_malformed_state() {
        let mut engine = CampaignEngine::new(spec(), 7, &targets(8, false), VENDOR, SECRET);
        let mut w = Writer::new();
        engine.checkpoint_into(&mut w);
        let bytes = w.into_bytes();
        // Every truncation point is a structured error, never a panic.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = engine.restore_state(&mut r);
            assert!(
                res.is_err() || {
                    // A prefix can decode cleanly only if the remainder
                    // check catches it.
                    r.finish().is_err()
                },
                "truncation at {cut} went unnoticed"
            );
        }
    }
}
