//! Fleet specification: templates describing *kinds* of homes (device
//! mix, automation recipes, defense config) and the deterministic
//! stamping that turns a master seed + home count into concrete
//! [`HomeSpec`]s. Stamping is pure hashing — it never depends on worker
//! count or scheduling, which is what makes fleet reports reproducible.

use crate::snapshot::RunSnapshotPolicy;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use xlf_cloud::smartapp::SmartApp;
use xlf_core::framework::{HomeDevice, HomeKit, XlfConfig};
use xlf_device::{SensorKind, VulnSet, Vulnerability};
use xlf_mgmt::{CampaignSpec, ConfigAuditSpec};
use xlf_onboard::OnboardingSpec;
use xlf_simnet::{splitmix64, Duration};

/// The attack injected into one home of the fleet: the catalog-keyed
/// [`xlf_attacks::HomeAttack`], under the fleet's name.
pub use xlf_attacks::HomeAttack as FleetAttack;

/// The infrastructure fault a home runs under (scheduled into its
/// simulation as a [`xlf_simnet::FaultPlan`] by the fleet engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetFault {
    /// Healthy infrastructure.
    None,
    /// The gateway↔cloud WAN link flaps down three times for 10 s each.
    WanFlap,
    /// The cloud is unreachable for 110 s covering the attack window.
    CloudOutage,
    /// The WAN link runs at 30% loss with +200 ms latency for 100 s.
    WanDegrade,
    /// The first device (BTreeMap name order) crashes at 200 s and cold
    /// restarts at 260 s.
    DeviceCrash,
    /// The gateway's clock skews 30 s ahead at 150 s.
    GatewaySkew,
    /// A chaos node panics the home's simulation thread at 210 s —
    /// exercises the supervisor's catch_unwind + retry path. The panic
    /// is deterministic, so a retry fails identically: the supervisor
    /// detects the repeated payload on the first retry and fails the
    /// home fast (`retries_futile`) instead of burning the whole budget.
    ChaosPanic,
    /// Radio interference jams the first device's radio (BTreeMap name
    /// order) for 90 s covering the attack window: every packet to or
    /// from it is dropped on the wire
    /// ([`xlf_simnet::FaultKind::RadioJam`]).
    RadioJam,
}

/// Every fault kind, in stable order (drives the metrics histogram).
pub const FLEET_FAULT_KINDS: [FleetFault; 8] = [
    FleetFault::None,
    FleetFault::WanFlap,
    FleetFault::CloudOutage,
    FleetFault::WanDegrade,
    FleetFault::DeviceCrash,
    FleetFault::GatewaySkew,
    FleetFault::ChaosPanic,
    FleetFault::RadioJam,
];

impl FleetFault {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FleetFault::None => "none",
            FleetFault::WanFlap => "wan-flap",
            FleetFault::CloudOutage => "cloud-outage",
            FleetFault::WanDegrade => "wan-degrade",
            FleetFault::DeviceCrash => "device-crash",
            FleetFault::GatewaySkew => "gateway-skew",
            FleetFault::ChaosPanic => "chaos-panic",
            FleetFault::RadioJam => "radio-jam",
        }
    }

    /// Index into [`FLEET_FAULT_KINDS`] (stable).
    pub fn index(&self) -> usize {
        match self {
            FleetFault::None => 0,
            FleetFault::WanFlap => 1,
            FleetFault::CloudOutage => 2,
            FleetFault::WanDegrade => 3,
            FleetFault::DeviceCrash => 4,
            FleetFault::GatewaySkew => 5,
            FleetFault::ChaosPanic => 6,
            FleetFault::RadioJam => 7,
        }
    }
}

/// A parameterized kind of home the fleet stamps out.
#[derive(Debug, Clone)]
pub struct HomeTemplate {
    /// Template name (used in reports).
    pub name: String,
    /// Device mix.
    pub devices: Vec<HomeDevice>,
    /// XLF deployment config for homes of this kind.
    pub config: XlfConfig,
    /// Whether to install the §IV-C3 auto-window automation recipe.
    pub automation: bool,
    /// Relative share of the fleet running this template.
    pub share: u32,
}

/// The standard five-device home (thermostat, weak camera, vulnerable
/// wall pad, lamp, window actuator) shared by the fleet templates and
/// the single-home experiment harnesses.
pub fn standard_devices() -> Vec<HomeDevice> {
    vec![
        HomeDevice::new("thermo", SensorKind::Temperature)
            .with_telemetry_period(Duration::from_secs(10)),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[
                Vulnerability::StaticPassword,
                Vulnerability::UnsignedFirmware,
            ]))
            .with_telemetry_period(Duration::from_secs(10)),
        HomeDevice::new("wallpad", SensorKind::Motion)
            .with_vulns(VulnSet::of(&[Vulnerability::BufferOverflow]))
            .with_telemetry_period(Duration::from_secs(15)),
        HomeDevice::new("lamp", SensorKind::Power).with_telemetry_period(Duration::from_secs(20)),
        HomeDevice::new("window", SensorKind::Power).with_telemetry_period(Duration::from_secs(20)),
    ]
}

impl HomeTemplate {
    /// The "apartment" profile: the standard device mix at standard
    /// telemetry rates, full XLF deployed, automation installed.
    pub fn apartment() -> Self {
        HomeTemplate {
            name: "apartment".to_string(),
            devices: standard_devices(),
            config: XlfConfig::full(),
            automation: true,
            share: 3,
        }
    }

    /// The "house" profile: same device mix but chattier telemetry
    /// (larger dwellings poll faster) — a distinct behavioural community.
    pub fn house() -> Self {
        let mut devices = standard_devices();
        for d in &mut devices {
            d.telemetry_period = Duration::from_secs(3);
        }
        HomeTemplate {
            name: "house".to_string(),
            devices,
            config: XlfConfig::full(),
            automation: true,
            share: 1,
        }
    }

    /// The "retrofit" profile: the standard device mix behind an older
    /// gateway that can only afford table-based access control — no
    /// encrypted DPI (§IV-B2's searchable encryption needs gateway-side
    /// crypto support) and no per-device behavioural DFA profiling. A
    /// botnet recruit slips past the missing payload/behaviour layers,
    /// the later flood actually fires, and every flood packet is denied
    /// (and reported) at the NAC layer — the evidence burst that bounded
    /// buses exist to absorb.
    pub fn retrofit() -> Self {
        HomeTemplate {
            name: "retrofit".to_string(),
            devices: standard_devices(),
            config: XlfConfig {
                dpi: false,
                netmonitor: false,
                ..XlfConfig::full()
            },
            automation: true,
            share: 1,
        }
    }

    /// Derives the kit every home of the template is built from: the
    /// devices' key material and, with `automation`, the §IV-C3
    /// auto-window app installed.
    pub(crate) fn kit(&self) -> HomeKit {
        let kit = HomeKit::derive(&self.devices);
        if self.automation {
            kit.with_apps([SmartApp::auto_window()])
        } else {
            kit
        }
    }

    /// Replaces the fleet share (builder-style).
    pub fn with_share(mut self, share: u32) -> Self {
        self.share = share;
        self
    }
}

/// When the homes' monitors stop learning (s of simulated time), in the
/// fleet and in the single-home experiment harness alike; an injected
/// attack fires later, at [`xlf_attacks::scripted::ATTACK_AT_S`].
pub const LEARNING_END_S: u64 = 120;

/// How many per-home rows the region tier retains for the final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Retain every home's full outcome: the report carries one row per
    /// correlated home (the historical shape). Memory is linear in
    /// fleet size.
    Full,
    /// Retain only candidate deviants (criticals/quarantine/shed homes
    /// plus each region's magnitude extremes): the report's `rows`
    /// section lists candidates only and peak memory stays sublinear in
    /// fleet size — the 100k+ home configuration. Requires batch mode
    /// (the stream pass needs every home's windows retained).
    CandidatesOnly,
}

impl RowPolicy {
    /// Stable name used in the report JSON (`rows_mode`).
    pub fn name(&self) -> &'static str {
        match self {
            RowPolicy::Full => "full",
            RowPolicy::CandidatesOnly => "candidates",
        }
    }
}

/// The complete description of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Master seed every per-home seed is derived from.
    pub master_seed: u64,
    /// Number of homes to stamp out.
    pub homes: usize,
    /// Worker threads stepping home event loops.
    pub workers: usize,
    /// Simulated horizon per home.
    pub horizon: Duration,
    /// Home kinds and their fleet shares.
    pub templates: Vec<HomeTemplate>,
    /// Attack mix: `(attack, share)` — shares are relative weights.
    pub attacks: Vec<(FleetAttack, u32)>,
    /// Fault mix: `(fault, share)` — which infrastructure fault each
    /// home runs under. Stamped from an independent hash word, so
    /// changing the fault mix never relayouts seeds/templates/attacks.
    pub faults: Vec<(FleetFault, u32)>,
    /// How many *re*-attempts a panicking home gets before it is
    /// reported `failed` (total attempts = `retry_budget + 1`).
    pub retry_budget: u32,
    /// Per-home event budget across the whole stepped horizon. `None` =
    /// unbounded; `Some(n)` truncates a home that exceeds `n` simulation
    /// events and reports it `degraded` with the evidence drained so far.
    pub step_event_budget: Option<u64>,
    /// Simulation slices per home (evidence is drained between slices).
    pub slices: u32,
    /// Max evidence items a worker ingests per home per slice
    /// ([`xlf_core::framework::XlfCore::drain_pending`] bound).
    pub drain_batch: usize,
    /// Per-home evidence-bus capacity. `None` = unbounded; `Some(cap)`
    /// runs every home on a bounded shed-oldest bus
    /// ([`xlf_core::bus::EvidenceBus::bounded`]) so overloaded homes
    /// shed stale observations instead of growing without bound. Sheds
    /// are charged to per-home and fleet-wide drop accounting. A
    /// capacity of 0 is clamped to 1.
    pub evidence_capacity: Option<usize>,
    /// Streaming correlation interval in simulated seconds. `None` =
    /// batch mode (correlate once at the horizon, schema's `epochs`
    /// section is `null`); `Some(secs)` makes every home emit one
    /// [`xlf_stream::WindowSummary`] per `secs` of simulated time and
    /// runs the incremental [`xlf_stream::StreamCorrelator`] pass over
    /// them epoch by epoch, so fleet detections carry first-detection
    /// epochs instead of only horizon verdicts.
    pub correlation_interval: Option<u64>,
    /// Per-home window-buffer capacity for streamed runs (bounded,
    /// shed-oldest; see [`xlf_stream::WindowBuffer`]). Irrelevant in
    /// batch mode.
    pub window_capacity: usize,
    /// OTA rollout campaigns the control plane drives during the stream
    /// pass (one [`xlf_mgmt::CampaignEngine`] each). Campaigns consume
    /// the correlator's flagged set as their between-wave health gate,
    /// so they require streamed correlation
    /// ([`FleetSpec::with_campaign`] asserts it, [`FleetSpec::check`]
    /// refuses a spec without it). Empty = no campaigns
    /// and a `null` `campaigns` report section.
    pub campaigns: Vec<CampaignSpec>,
    /// Periodic config-drift audit the control plane runs during the
    /// stream pass (`None` = no audit). Requires streamed correlation
    /// like campaigns — the audit cadence is measured in stream epochs.
    pub config_audit: Option<ConfigAuditSpec>,
    /// Number of *logical* regions homes are stamped into. Like
    /// template/attack/fault, a home's region is data — a pure hash of
    /// `(master_seed, id)` — so the report's `regions` section is
    /// identical no matter how the run is executed.
    pub region_slots: usize,
    /// Number of [`crate::region::RegionAggregator`] instances the
    /// engine shards region consumption across. Purely an execution
    /// knob (like `workers`): any value produces byte-identical
    /// reports, because each logical region's state lives in exactly
    /// one aggregator and the global pass gathers logical regions in
    /// stable order.
    pub regions: usize,
    /// Row retention policy; see [`RowPolicy`].
    pub row_policy: RowPolicy,
    /// When set, the run cuts durable `XLFR` snapshots (the aggregation
    /// tier's full state) into [`crate::RunSnapshotPolicy::dir`]: one at
    /// the homes→stream boundary, then one every
    /// [`crate::RunSnapshotPolicy::every`] stream epochs.
    /// [`crate::run_fleet_resume`] restores the newest good generation
    /// and replays only the post-snapshot epochs, byte-identically.
    pub run_snapshot: Option<RunSnapshotPolicy>,
    /// Test/chaos knob: the collector shard consuming this home id
    /// panics once before consuming it, exercising the region-shard
    /// supervision path (the torn region is rebuilt deterministically;
    /// report bytes and conservation are unaffected). `None` in
    /// production.
    pub shard_chaos: Option<u64>,
    /// Secure-onboarding configuration. `None` = homes are pre-admitted
    /// (the historical behaviour, and a `null` `onboarding` report
    /// section). `Some` runs one CoAP + ACE join per home before its
    /// simulation steps: the outcome is a pure function of
    /// `(OnboardingSpec, HomeSpec)`, so the report's v8 `onboarding`
    /// section is byte-identical for any worker or region-shard count.
    pub onboarding: Option<OnboardingSpec>,
    /// Each template's key material, derived on first use.
    kits: KitCache,
}

/// One [`HomeKit`] per template index, derived when a home of the
/// template is first built and shared by every later one. `templates`
/// is a public field, so a cached kit is checked against the template's
/// devices and automation flag on every lookup and rebuilt when they
/// differ. A cloned spec starts with an empty cache.
#[derive(Default)]
struct KitCache(Mutex<Vec<Option<CachedKit>>>);

/// A template's kit and the automation flag it was derived with.
type CachedKit = (bool, Arc<HomeKit>);

impl Clone for KitCache {
    fn clone(&self) -> Self {
        KitCache::default()
    }
}

impl std::fmt::Debug for KitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KitCache")
    }
}

impl FleetSpec {
    /// A fleet of `homes` homes with the default template/attack mix
    /// (3:1 apartment:house, all benign), 420 s horizon, one worker.
    pub fn new(master_seed: u64, homes: usize) -> Self {
        FleetSpec {
            master_seed,
            homes,
            workers: 1,
            horizon: Duration::from_secs(420),
            templates: vec![HomeTemplate::apartment(), HomeTemplate::house()],
            attacks: vec![(FleetAttack::None, 1)],
            faults: vec![(FleetFault::None, 1)],
            retry_budget: 1,
            step_event_budget: None,
            slices: 8,
            drain_batch: 256,
            evidence_capacity: None,
            correlation_interval: None,
            window_capacity: 256,
            campaigns: Vec::new(),
            config_audit: None,
            region_slots: 8,
            regions: 1,
            row_policy: RowPolicy::Full,
            run_snapshot: None,
            shard_chaos: None,
            onboarding: None,
            kits: KitCache::default(),
        }
    }

    /// The kit of template `index`, derived at most once per template
    /// (and again only after its devices or automation changed).
    pub(crate) fn kit(&self, index: usize, template: &HomeTemplate) -> Arc<HomeKit> {
        // A panic while holding the lock (only possible inside a
        // derivation) leaves every entry whole, so the cache stays usable.
        let mut kits = self.kits.0.lock().unwrap_or_else(|e| e.into_inner());
        if kits.len() <= index {
            kits.resize(index + 1, None);
        }
        match &kits[index] {
            Some((automation, kit))
                if *automation == template.automation && kit.is_for(&template.devices) =>
            {
                Arc::clone(kit)
            }
            _ => {
                let kit = Arc::new(template.kit());
                kits[index] = Some((template.automation, Arc::clone(&kit)));
                kit
            }
        }
    }

    /// Enables the secure-onboarding join phase (builder-style); see
    /// [`FleetSpec::onboarding`].
    pub fn with_onboarding(mut self, onboarding: OnboardingSpec) -> Self {
        self.onboarding = Some(onboarding);
        self
    }

    /// Enables durable run-level snapshots every `every` stream epochs
    /// into `dir` (builder-style); see [`FleetSpec::run_snapshot`].
    pub fn with_run_snapshot_every(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "run-snapshot cadence must be positive");
        self.run_snapshot = Some(RunSnapshotPolicy {
            every,
            dir: dir.into(),
        });
        self
    }

    /// Makes the collector shard panic once before consuming home `id`
    /// (builder-style); see [`FleetSpec::shard_chaos`].
    pub fn with_shard_chaos(mut self, id: u64) -> Self {
        self.shard_chaos = Some(id);
        self
    }

    /// Sets the number of logical regions homes are stamped into
    /// (builder-style); see [`FleetSpec::region_slots`]. Part of the
    /// fleet layout: changing it reshuffles region assignments (but
    /// never seeds/templates/attacks/faults).
    pub fn with_region_slots(mut self, slots: usize) -> Self {
        assert!(slots > 0, "fleet needs at least one region slot");
        self.region_slots = slots;
        self
    }

    /// Sets the number of region aggregators (builder-style); see
    /// [`FleetSpec::regions`]. Execution-only: report bytes are
    /// identical for any value.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Sets the row retention policy (builder-style); see [`RowPolicy`].
    /// Candidates-only retention is a batch-mode scale configuration:
    /// the stream pass (and therefore campaigns and config audits)
    /// replays every home's windows, which is exactly the linear state
    /// this policy exists to avoid.
    pub fn with_row_policy(mut self, policy: RowPolicy) -> Self {
        if policy == RowPolicy::CandidatesOnly {
            assert!(
                self.correlation_interval.is_none()
                    && self.campaigns.is_empty()
                    && self.config_audit.is_none(),
                "candidates-only rows require batch mode (no streaming/campaigns/audit)"
            );
        }
        self.row_policy = policy;
        self
    }

    /// Adds an OTA rollout campaign (builder-style); see
    /// [`FleetSpec::campaigns`]. Call after
    /// [`FleetSpec::with_correlation_interval`] — the campaign's health
    /// gate consumes the stream correlator's flagged set, so batch-mode
    /// campaigns are a spec bug.
    pub fn with_campaign(mut self, campaign: CampaignSpec) -> Self {
        assert!(
            self.correlation_interval.is_some(),
            "campaigns require streamed correlation (set with_correlation_interval first)"
        );
        self.campaigns.push(campaign);
        self
    }

    /// Enables the periodic config-drift audit (builder-style); see
    /// [`FleetSpec::config_audit`]. Requires streamed correlation like
    /// [`FleetSpec::with_campaign`].
    pub fn with_config_audit(mut self, audit: ConfigAuditSpec) -> Self {
        assert!(
            self.correlation_interval.is_some(),
            "config audits require streamed correlation (set with_correlation_interval first)"
        );
        self.config_audit = Some(audit);
        self
    }

    /// Enables streamed correlation every `secs` simulated seconds
    /// (builder-style); see [`FleetSpec::correlation_interval`].
    pub fn with_correlation_interval(mut self, secs: u64) -> Self {
        assert!(secs > 0, "correlation interval must be positive");
        assert!(
            self.row_policy == RowPolicy::Full,
            "streamed correlation requires full row retention"
        );
        self.correlation_interval = Some(secs);
        self
    }

    /// Checks what the public fields can set but no fleet can run; the
    /// run entry points ([`crate::run_fleet`], [`crate::run_fleet_chaos`],
    /// [`crate::run_fleet_resume`]) refuse such a spec before stamping a
    /// home. Zero `region_slots`, `workers` and `regions` are not errors:
    /// each runs as one.
    pub fn check(&self) -> Result<(), SpecError> {
        let streamed = self.correlation_interval.is_some();
        if !self.templates.iter().any(|t| t.share > 0) {
            Err(SpecError::EmptyMix("templates"))
        } else if !self.attacks.iter().any(|&(_, share)| share > 0) {
            Err(SpecError::EmptyMix("attacks"))
        } else if !self.faults.iter().any(|&(_, share)| share > 0) {
            Err(SpecError::EmptyMix("faults"))
        } else if self.correlation_interval == Some(0) {
            Err(SpecError::ZeroInterval)
        } else if self.run_snapshot.as_ref().is_some_and(|p| p.every == 0) {
            Err(SpecError::ZeroSnapshotCadence)
        } else if !streamed && !self.campaigns.is_empty() {
            Err(SpecError::NeedsStreaming("campaigns"))
        } else if !streamed && self.config_audit.is_some() {
            Err(SpecError::NeedsStreaming("config_audit"))
        } else if streamed && self.row_policy == RowPolicy::CandidatesOnly {
            Err(SpecError::CandidatesOnlyStreamed)
        } else {
            Ok(())
        }
    }

    /// Number of correlation windows (== stream epochs) a full-horizon
    /// home emits: one per whole `correlation_interval`, plus a final
    /// shorter window when the horizon is not a multiple. 0 in batch
    /// mode.
    pub fn stream_epochs(&self) -> u64 {
        let Some(interval) = self.correlation_interval else {
            return 0;
        };
        let horizon = self.horizon.as_micros() / 1_000_000;
        horizon / interval + u64::from(!horizon.is_multiple_of(interval))
    }

    /// Sets the worker-pool size (builder-style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-home simulated horizon (builder-style).
    pub fn with_horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Bounds every home's evidence bus (builder-style); see
    /// [`FleetSpec::evidence_capacity`].
    pub fn with_evidence_capacity(mut self, capacity: Option<usize>) -> Self {
        self.evidence_capacity = capacity;
        self
    }

    /// Replaces the template mix (builder-style). Shares are relative;
    /// zero-share templates are kept in the list (indices stay stable
    /// for reports) but are never stamped.
    pub fn with_templates(mut self, templates: Vec<HomeTemplate>) -> Self {
        assert!(!templates.is_empty(), "fleet needs at least one template");
        assert!(
            templates.iter().any(|t| t.share > 0),
            "template mix needs at least one positive share"
        );
        self.templates = templates;
        self
    }

    /// Replaces the attack mix (builder-style). Shares are relative:
    /// `[(None, 99), (BotnetRecruit, 1)]` compromises ~1% of homes.
    pub fn with_attacks(mut self, attacks: Vec<(FleetAttack, u32)>) -> Self {
        assert!(
            attacks.iter().any(|&(_, share)| share > 0),
            "attack mix needs at least one positive share"
        );
        self.attacks = attacks;
        self
    }

    /// Replaces the fault mix (builder-style). Shares are relative:
    /// `[(None, 9), (WanFlap, 1)]` runs ~10% of homes under a flapping
    /// WAN.
    pub fn with_faults(mut self, faults: Vec<(FleetFault, u32)>) -> Self {
        assert!(
            faults.iter().any(|&(_, share)| share > 0),
            "fault mix needs at least one positive share"
        );
        self.faults = faults;
        self
    }

    /// Sets the panic retry budget (builder-style); see
    /// [`FleetSpec::retry_budget`].
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Bounds every home's stepped event count (builder-style); see
    /// [`FleetSpec::step_event_budget`].
    pub fn with_step_event_budget(mut self, budget: Option<u64>) -> Self {
        self.step_event_budget = budget;
        self
    }

    /// Stamps the concrete per-home specs. Pure function of the spec —
    /// independent of worker count, scheduling, and wall-clock.
    pub fn stamp(&self) -> Vec<HomeSpec> {
        self.stamped().collect()
    }

    /// Stamps one home: `stamp_one(id) == stamp()[id]`, without stamping
    /// the others.
    pub fn stamp_one(&self, id: u64) -> HomeSpec {
        self.stamper().home(id)
    }

    /// The stamped homes in id order, each stamped as it is reached.
    pub(crate) fn stamped(&self) -> impl Iterator<Item = HomeSpec> + '_ {
        let stamper = self.stamper();
        (0..self.homes as u64).map(move |id| stamper.home(id))
    }

    /// A stamper with this spec's share totals summed once.
    pub(crate) fn stamper(&self) -> Stamper<'_> {
        // Zero-share templates are excluded outright (consistent with the
        // attack mix) — `with_share(0)` must mean "none of these", not
        // a silent promotion to share 1.
        let template_total: u64 = self.templates.iter().map(|t| t.share as u64).sum();
        assert!(
            template_total > 0,
            "template mix needs at least one positive share"
        );
        Stamper {
            spec: self,
            template_total,
            attack_total: self.attacks.iter().map(|&(_, s)| s as u64).sum(),
            fault_total: self.faults.iter().map(|&(_, s)| s as u64).sum(),
        }
    }
}

/// Why [`FleetSpec::check`] refused a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The named mix (`templates`, `attacks` or `faults`) is empty or
    /// has no positive share, so no home could be stamped from it.
    EmptyMix(&'static str),
    /// `correlation_interval` is `Some(0)`.
    ZeroInterval,
    /// `run_snapshot` cuts every 0 epochs.
    ZeroSnapshotCadence,
    /// The named control-plane field (`campaigns` or `config_audit`)
    /// runs in the stream pass, but the spec has no
    /// `correlation_interval`.
    NeedsStreaming(&'static str),
    /// Candidates-only rows keep too little for the stream pass, which
    /// replays every home's windows.
    CandidatesOnlyStreamed,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyMix(mix) => write!(f, "the {mix} mix has no positive share"),
            SpecError::ZeroInterval => f.write_str("the correlation interval is zero"),
            SpecError::ZeroSnapshotCadence => f.write_str("the run-snapshot cadence is zero"),
            SpecError::NeedsStreaming(field) => {
                write!(f, "{field} is set without a correlation interval")
            }
            SpecError::CandidatesOnlyStreamed => {
                f.write_str("candidates-only rows cannot be streamed")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Stamps homes of one spec on demand; see [`FleetSpec::stamp_one`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamper<'a> {
    spec: &'a FleetSpec,
    template_total: u64,
    attack_total: u64,
    fault_total: u64,
}

impl Stamper<'_> {
    /// The stamped spec of home `id`.
    #[inline]
    pub(crate) fn home(&self, id: u64) -> HomeSpec {
        let spec = self.spec;
        let h0 = splitmix64(spec.master_seed ^ splitmix64(id));
        let template = weighted_pick(
            h0 % self.template_total,
            spec.templates.iter().map(|t| t.share as u64),
        );
        let h1 = splitmix64(h0);
        let attack_idx = weighted_pick(
            h1 % self.attack_total,
            spec.attacks.iter().map(|&(_, s)| s as u64),
        );
        let seed = splitmix64(h1 ^ 0xF1EE_7000_0000_0000);
        // Faults draw from an independent mix of h1 so a fleet with
        // `faults = [(None, 1)]` stamps the exact same layout
        // (seed/template/attack) as a pre-fault fleet.
        let h2 = splitmix64(h1 ^ 0xFA17_0000_0000_0001);
        let fault_idx = weighted_pick(
            h2 % self.fault_total,
            spec.faults.iter().map(|&(_, s)| s as u64),
        );
        // Regions draw from their own hash word like faults do, so
        // adding region stamping never relayouts seeds/templates/
        // attacks/faults stamped by older specs.
        let h3 = splitmix64(h2 ^ 0x4E61_0000_0000_0002);
        let region = (h3 % spec.region_slots.max(1) as u64) as u32;
        HomeSpec {
            id,
            seed,
            template,
            attack: spec.attacks[attack_idx].0,
            fault: spec.faults[fault_idx].0,
            region,
        }
    }
}

fn weighted_pick(mut point: u64, shares: impl Iterator<Item = u64>) -> usize {
    for (i, share) in shares.enumerate() {
        if point < share {
            return i;
        }
        point -= share;
    }
    0
}

/// One stamped home: everything a worker needs to build and run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeSpec {
    /// Fleet-wide home id (stable across runs).
    pub id: u64,
    /// Derived simulation seed.
    pub seed: u64,
    /// Index into [`FleetSpec::templates`].
    pub template: usize,
    /// Injected attack.
    pub attack: FleetAttack,
    /// Infrastructure fault the home runs under.
    pub fault: FleetFault,
    /// Logical region the home reports into (`0..region_slots`).
    pub region: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Stamping one home on demand equals the whole-fleet stamp at
        /// its id, for any seed, size, region count and mix.
        #[test]
        fn stamp_one_equals_the_fleet_stamp(
            seed in any::<u64>(),
            homes in 1usize..200,
            slots in 1usize..16,
            attacked in 0u32..4,
            faulted in 0u32..4,
        ) {
            let spec = FleetSpec::new(seed, homes)
                .with_region_slots(slots)
                .with_attacks(vec![(FleetAttack::None, 3), (FleetAttack::BotnetRecruit, attacked)])
                .with_faults(vec![(FleetFault::None, 5), (FleetFault::WanFlap, faulted)]);
            let all = spec.stamp();
            prop_assert_eq!(all.len(), homes);
            for (id, hs) in all.iter().enumerate() {
                prop_assert_eq!(&spec.stamp_one(id as u64), hs);
            }
        }
    }

    #[test]
    fn stamping_is_deterministic_and_seed_sensitive() {
        let spec = FleetSpec::new(42, 64);
        let a = spec.stamp();
        let b = spec.stamp();
        assert_eq!(a, b);
        let c = FleetSpec::new(43, 64).stamp();
        assert_ne!(a, c, "different master seed must relayout the fleet");
        // Per-home seeds are all distinct.
        let mut seeds: Vec<u64> = a.iter().map(|h| h.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn template_and_attack_shares_are_roughly_respected() {
        let spec = FleetSpec::new(7, 1000).with_attacks(vec![
            (FleetAttack::None, 9),
            (FleetAttack::BotnetRecruit, 1),
        ]);
        let homes = spec.stamp();
        let apartments = homes.iter().filter(|h| h.template == 0).count();
        let attacked = homes
            .iter()
            .filter(|h| h.attack == FleetAttack::BotnetRecruit)
            .count();
        // 3:1 template mix → ~750 apartments; 10% attack share → ~100.
        assert!(
            (650..=850).contains(&apartments),
            "apartments: {apartments}"
        );
        assert!((60..=140).contains(&attacked), "attacked: {attacked}");
    }

    #[test]
    fn zero_share_templates_are_never_stamped() {
        // Regression: `with_share(0)` used to be silently promoted to
        // share 1 by a `.max(1)` in stamping, so "excluded" templates
        // still stamped homes.
        let spec = FleetSpec::new(3, 512).with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house().with_share(0),
        ]);
        assert!(
            spec.stamp().iter().all(|h| h.template == 0),
            "zero-share template was stamped"
        );
        // Zero-share templates elsewhere in the list don't shift the
        // indices of live ones.
        let spec = FleetSpec::new(3, 512).with_templates(vec![
            HomeTemplate::apartment().with_share(0),
            HomeTemplate::house(),
        ]);
        assert!(spec.stamp().iter().all(|h| h.template == 1));
    }

    #[test]
    #[should_panic(expected = "positive share")]
    fn all_zero_template_shares_are_rejected() {
        let _ = FleetSpec::new(3, 8).with_templates(vec![
            HomeTemplate::apartment().with_share(0),
            HomeTemplate::house().with_share(0),
        ]);
    }

    #[test]
    fn evidence_capacity_knob_defaults_to_unbounded() {
        let spec = FleetSpec::new(1, 4);
        assert_eq!(spec.evidence_capacity, None);
        assert_eq!(
            spec.with_evidence_capacity(Some(64)).evidence_capacity,
            Some(64)
        );
    }

    #[test]
    fn fault_mix_is_stamped_independently_of_the_layout() {
        // Changing the fault mix must not relayout seeds, templates or
        // attacks — faults draw from their own hash word.
        let base = FleetSpec::new(42, 256).stamp();
        let faulted = FleetSpec::new(42, 256)
            .with_faults(vec![(FleetFault::None, 9), (FleetFault::WanFlap, 1)])
            .stamp();
        for (a, b) in base.iter().zip(&faulted) {
            assert_eq!(
                (a.id, a.seed, a.template, a.attack),
                (b.id, b.seed, b.template, b.attack)
            );
        }
        assert!(base.iter().all(|h| h.fault == FleetFault::None));
        let flapped = faulted
            .iter()
            .filter(|h| h.fault == FleetFault::WanFlap)
            .count();
        // 10% share over 256 homes → ~26 expected.
        assert!((8..=48).contains(&flapped), "flapped: {flapped}");
    }

    #[test]
    #[should_panic(expected = "positive share")]
    fn all_zero_fault_shares_are_rejected() {
        let _ = FleetSpec::new(3, 8).with_faults(vec![(FleetFault::WanFlap, 0)]);
    }

    #[test]
    fn fault_kind_indices_match_the_stable_order() {
        for (i, f) in FLEET_FAULT_KINDS.iter().enumerate() {
            assert_eq!(f.index(), i, "{}", f.name());
        }
    }

    #[test]
    fn correlation_interval_defaults_to_batch_mode() {
        let spec = FleetSpec::new(1, 4);
        assert_eq!(spec.correlation_interval, None);
        assert_eq!(spec.stream_epochs(), 0);
        let streamed = spec.with_correlation_interval(15);
        assert_eq!(streamed.correlation_interval, Some(15));
        // 420 s horizon / 15 s interval → 28 whole windows.
        assert_eq!(streamed.stream_epochs(), 28);
        // A non-divisible horizon gets a final shorter window.
        let ragged = FleetSpec::new(1, 4)
            .with_horizon(Duration::from_secs(100))
            .with_correlation_interval(30);
        assert_eq!(ragged.stream_epochs(), 4);
    }

    #[test]
    fn campaign_and_audit_builders_attach_to_streamed_specs() {
        use xlf_device::firmware::Version;
        let spec = FleetSpec::new(1, 8)
            .with_correlation_interval(15)
            .with_campaign(CampaignSpec::new(
                "cam-2.0",
                "cam",
                Version(2, 0, 0),
                b"v2".to_vec(),
            ))
            .with_config_audit(ConfigAuditSpec::new(4));
        assert_eq!(spec.campaigns.len(), 1);
        assert!(spec.config_audit.is_some());
    }

    #[test]
    #[should_panic(expected = "campaigns require streamed correlation")]
    fn batch_mode_campaigns_are_rejected() {
        use xlf_device::firmware::Version;
        let _ = FleetSpec::new(1, 8).with_campaign(CampaignSpec::new(
            "cam-2.0",
            "cam",
            Version(2, 0, 0),
            b"v2".to_vec(),
        ));
    }

    #[test]
    #[should_panic(expected = "config audits require streamed correlation")]
    fn batch_mode_config_audits_are_rejected() {
        let _ = FleetSpec::new(1, 8).with_config_audit(ConfigAuditSpec::new(4));
    }

    #[test]
    fn region_stamping_is_layout_invariant_and_roughly_uniform() {
        // Changing region_slots must not relayout
        // seeds/templates/attacks/faults — regions draw from their own
        // hash word, exactly like faults.
        let base = FleetSpec::new(42, 256).stamp();
        let resliced = FleetSpec::new(42, 256).with_region_slots(3).stamp();
        for (a, b) in base.iter().zip(&resliced) {
            assert_eq!(
                (a.id, a.seed, a.template, a.attack, a.fault),
                (b.id, b.seed, b.template, b.attack, b.fault)
            );
        }
        assert!(base.iter().all(|h| h.region < 8));
        assert!(resliced.iter().all(|h| h.region < 3));
        // All 8 default slots are populated at 256 homes (expected ~32
        // per slot) and no slot hogs the fleet.
        let mut counts = [0usize; 8];
        for h in &base {
            counts[h.region as usize] += 1;
        }
        for (slot, &n) in counts.iter().enumerate() {
            assert!((8..=80).contains(&n), "slot {slot}: {n} homes");
        }
    }

    #[test]
    fn region_aggregator_count_is_not_part_of_the_layout() {
        // `regions` is an execution knob like `workers` — stamping must
        // ignore it entirely.
        let one = FleetSpec::new(9, 128).with_regions(1).stamp();
        let eight = FleetSpec::new(9, 128).with_regions(8).stamp();
        assert_eq!(one, eight);
    }

    #[test]
    #[should_panic(expected = "candidates-only rows require batch mode")]
    fn streamed_candidates_only_rows_are_rejected() {
        let _ = FleetSpec::new(1, 8)
            .with_correlation_interval(15)
            .with_row_policy(RowPolicy::CandidatesOnly);
    }

    #[test]
    #[should_panic(expected = "streamed correlation requires full row retention")]
    fn candidates_only_then_streaming_is_rejected() {
        let _ = FleetSpec::new(1, 8)
            .with_row_policy(RowPolicy::CandidatesOnly)
            .with_correlation_interval(15);
    }

    #[test]
    fn zero_attack_share_is_never_picked() {
        let spec = FleetSpec::new(11, 256).with_attacks(vec![
            (FleetAttack::None, 1),
            (FleetAttack::FirmwareTamper, 0),
        ]);
        assert!(spec.stamp().iter().all(|h| h.attack == FleetAttack::None));
    }
}
