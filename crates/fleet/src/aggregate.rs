//! The fleet aggregation tier: collects per-home evidence summaries and
//! fused verdicts, correlates them *across* homes with graph-based
//! community learning (the paper's §IV-D "knowledge obtained from the
//! group", productionizing experiment E-M6), and publishes fleet-wide
//! alerts through the existing alert pipeline.
//!
//! **Degraded mode.** Only homes that ran to the horizon participate in
//! the cross-home correlation (a truncated home's features would look
//! like a deviant simply for being cut short). Degraded, failed, and
//! build-failed homes are quarantined into their own report sections,
//! and the report satisfies the conservation law
//! `rows + degraded + run_failed + build_failed == homes` — a fleet that
//! silently loses homes looks healthier than it is.
//!
//! The JSON emitted by [`FleetReport::to_json`] and
//! [`FleetMetrics::to_json`](crate::metrics::FleetMetrics::to_json) is a
//! **versioned, stable schema** (see `schema_version` and the
//! field-by-field description in EXPERIMENTS.md) so longitudinal fleet
//! runs can be diffed byte-for-byte.

use crate::engine::{HomeBuildError, HomeStream};
use crate::onboard::OnboardSection;
use crate::region::{fleet_features, RegionAggregator, RegionSlot, RegionSummary};
use crate::snapshot::{self, KillPoint, ResumePhase, RunCtx, SnapshotIdentity};
use crate::spec::{FleetSpec, HomeSpec, RowPolicy, FLEET_FAULT_KINDS};
use crate::supervise::{FleetError, HomeOutcome, HomeRunError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Display, Write};
use xlf_analytics::graph::{community_report_into, GraphScratch};
use xlf_analytics::robust::robust_z;
use xlf_core::alerts::{Alert, AlertSink, Severity};
use xlf_core::framework::HomeReport;
use xlf_device::Vulnerability;
use xlf_mgmt::{
    CampaignEngine, CampaignReport, CommandBus, ConfigAuditReport, ConfigAuditor, TargetHome,
    COMMAND_KINDS,
};
use xlf_onboard::DENY_CAUSES;
use xlf_simnet::SimTime;
use xlf_stream::{
    EpochRecord, RobustAccumulator, StreamCorrelator, WindowSummary, GRAPH_GAMMA, GRAPH_ITERS,
    GRAPH_K, MIN_DEVIATION, SIGMA,
};

/// Vendor the control plane's campaigns sign as. Matches the vendor the
/// per-home gateways already trust for OTA vetting, so a clean campaign
/// image is exactly the image a home's own defense layers accept.
const CAMPAIGN_VENDOR: &str = "acme";
/// The campaign vendor's signing secret (shared with the devices'
/// verification keys, as the single-vendor fleet model assumes).
const CAMPAIGN_VENDOR_SECRET: &[u8] = b"acme vendor secret";

/// `WindowSummary` feature indices the active implant perturbs (must
/// match the `probe_delta` order in `engine.rs` /
/// [`xlf_stream::STREAM_FEATURES`]).
const FEAT_CRITICALS: usize = 5;
const FEAT_WIRE_BYTES: usize = 8;
const FEAT_PACKETS: usize = 9;

/// Version of the [`FleetReport::to_json`] schema. Bump on any
/// field add/remove/rename/reorder; goldens under `crates/fleet/tests/`
/// pin the current shape.
///
/// History: v1 — ad hoc (unversioned) PR-2 shape; v2 — adds
/// `schema_version`, per-home `evidence_shed`/`evidence_drop_rate`,
/// fleet `failed` rows, and totals drop/shed accounting; v3 — fault
/// injection + supervision: per-row `fault`/`observer_accuracy`,
/// `degraded` and `run_failed` sections (`failed` renamed
/// `build_failed`), outcome conservation totals
/// (`homes_ok`/`homes_degraded`/`homes_run_failed`/`homes_build_failed`),
/// fault-correlated fleet alerts; v4 — streamed correlation: the
/// `epochs` section (`null` in batch mode; per-epoch alert counts,
/// first-detection epoch per flagged home, window shed accounting and
/// partial-home annotations otherwise) and the epoch-stamped stream
/// alerts that precede the horizon alerts; v5 — control plane: the
/// `campaigns` section (`null` when the spec configures no campaigns
/// and no config audit; per-campaign rollout reports, command-bus
/// disposition totals, and config-audit accounting otherwise) plus the
/// campaign-halt and config-audit alerts; v6 — hierarchical
/// region→global aggregation: the `regions` section (one entry per
/// logical region: outcome tallies, forwarded-candidate count, merge
/// statistics), `rows_mode` (`"full"` or `"candidates"`), per-row
/// `region`/`candidate` fields, `community` nullable (only forwarded
/// candidates join the graph pass), `deviation` re-based to the robust
/// z-score against per-template merged median/MAD statistics (so
/// `threshold` is now in robust-σ units, `SIGMA.max(MIN_DEVIATION)`),
/// and the top-level `homes` count drawn from the outcome tallies (the
/// `rows` section no longer lists every home in candidates mode); v7 —
/// durable aggregation & recovery: the `recovery` section
/// (`snapshot_every` — the run-snapshot cadence in epochs, `null` when
/// the spec cuts no run snapshots). Run-invariant by construction: a
/// resumed run reports the same cadence as the uninterrupted run it is
/// byte-identical to; v8 — secure onboarding: the `onboarding` section
/// (`null` when the spec configures no onboarding; fleet-wide join
/// accounting, denials by structured cause, per-class negotiated cipher
/// with mean handshake latency/energy, and denied-home ids otherwise),
/// denied homes merged into `flagged`, and one onboarding-denial alert
/// per denied home. The section is recomputed purely from the spec, so
/// it is byte-identical for any worker or region-shard count.
pub const FLEET_REPORT_SCHEMA_VERSION: u32 = 8;

/// One home's row in the fleet report (homes that ran to the horizon —
/// the only homes the cross-home graph correlates).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHomeRow {
    /// Fleet-wide home id.
    pub id: u64,
    /// Template name the home was stamped from.
    pub template: String,
    /// Injected attack (ground truth for scoring the aggregator).
    pub attack: &'static str,
    /// Infrastructure fault the home ran under ("none" = healthy).
    pub fault: &'static str,
    /// Logical region the home reported into.
    pub region: u32,
    /// Whether the home's region forwarded it to the global pass (its
    /// own Core raised criticals/quarantines/sheds, or it sat at its
    /// region's per-template magnitude extremes).
    pub candidate: bool,
    /// Behavioural community the home landed in — `None` (serialized
    /// `null`) for homes the region tier did not forward; only
    /// candidates join the global graph pass.
    pub community: Option<usize>,
    /// Robust z-score against the fleet's merged per-template
    /// median/MAD statistics (high = suspicious). Always finite:
    /// non-finite features are zeroed before scoring.
    pub deviation: f64,
    /// Whether the fleet tier flagged this home.
    pub flagged: bool,
    /// Traffic-analysis accuracy for `traffic-observer` homes
    /// (`None` for every other attack; serializes as `null`).
    pub observer_accuracy: Option<f64>,
    /// The home's own summary.
    pub report: HomeReport,
}

impl FleetHomeRow {
    /// Fraction of this home's observations that were lost (shed under
    /// overload or dropped on a dead bus) out of everything it reported:
    /// `dropped / (aggregated + dropped)`; 0 when nothing was reported.
    pub fn evidence_drop_rate(&self) -> f64 {
        let lost = self.report.evidence_dropped;
        let total = self.report.evidence_total as u64 + lost;
        if total == 0 {
            0.0
        } else {
            lost as f64 / total as f64
        }
    }
}

/// A home truncated by its step event budget: excluded from the
/// correlation, quarantined here with whatever evidence it drained.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedHome {
    /// Fleet-wide home id.
    pub id: u64,
    /// Template name the home was stamped from.
    pub template: String,
    /// Injected attack.
    pub attack: &'static str,
    /// Infrastructure fault the home ran under.
    pub fault: &'static str,
    /// Simulation events processed before truncation.
    pub events_used: u64,
    /// The partial summary (drained evidence up to truncation).
    pub report: HomeReport,
}

/// Fleet-wide totals. Evidence/traffic totals cover **correlated rows
/// only** (degraded homes' partial counts would skew overload-rate
/// comparisons); the `homes_*` outcome counters cover every stamped home
/// and satisfy `homes_ok + homes_degraded + homes_run_failed +
/// homes_build_failed == homes`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTotals {
    /// Evidence records aggregated across correlated home Cores.
    pub evidence: u64,
    /// Evidence observations lost for any reason (dead buses and
    /// overload sheds; always `>=` `evidence_shed`).
    pub evidence_dropped: u64,
    /// Evidence observations shed oldest-first by bounded buses under
    /// overload (the overload subset of `evidence_dropped`).
    pub evidence_shed: u64,
    /// Packets forwarded by correlated homes' gateways.
    pub forwarded: u64,
    /// Packets dropped by correlated homes' gateways.
    pub dropped_packets: u64,
    /// Correlated homes with at least one critical alert from their own
    /// Core.
    pub homes_with_critical: u64,
    /// Correlated homes with at least one quarantined device.
    pub homes_with_quarantine: u64,
    /// Homes that ran to the horizon (one report row each).
    pub homes_ok: u64,
    /// Homes truncated by the step event budget
    /// ([`FleetReport::degraded`]).
    pub homes_degraded: u64,
    /// Homes that panicked on every attempt ([`FleetReport::run_failed`]).
    pub homes_run_failed: u64,
    /// Homes that never built ([`FleetReport::build_failed`]).
    pub homes_build_failed: u64,
}

impl FleetTotals {
    /// Fleet-wide evidence loss rate: `dropped / (aggregated + dropped)`;
    /// 0 when the fleet reported nothing.
    pub fn evidence_drop_rate(&self) -> f64 {
        let total = self.evidence + self.evidence_dropped;
        if total == 0 {
            0.0
        } else {
            self.evidence_dropped as f64 / total as f64
        }
    }

    /// Fleet-wide overload shed rate: `shed / (aggregated + dropped)`;
    /// 0 when the fleet reported nothing.
    pub fn evidence_shed_rate(&self) -> f64 {
        let total = self.evidence + self.evidence_dropped;
        if total == 0 {
            0.0
        } else {
            self.evidence_shed as f64 / total as f64
        }
    }

    /// All homes accounted for, by outcome.
    pub fn homes_accounted(&self) -> u64 {
        self.homes_ok + self.homes_degraded + self.homes_run_failed + self.homes_build_failed
    }
}

/// The streamed-correlation section of a v4 report: what the
/// epoch-by-epoch [`StreamCorrelator`] pass observed mid-run. `None`
/// (serialized `null`) in batch mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSection {
    /// Correlation interval in simulated seconds.
    pub interval_secs: u64,
    /// Epochs the stream pass ran (== windows per full-horizon home).
    pub count: u64,
    /// Window summaries folded in across all epochs.
    pub windows_ingested: u64,
    /// Window summaries shed by bounded per-home window buffers.
    pub windows_shed: u64,
    /// Homes correlated on a truncated (partial) window prefix, in id
    /// order — degraded homes that still joined the stream pass.
    pub partial_homes: Vec<u64>,
    /// One record per epoch, in order: homes seen, new detections,
    /// deduped re-detections.
    pub per_epoch: Vec<EpochRecord>,
    /// `(home, epoch)` pairs, in home-id order: the epoch each flagged
    /// home was *first* detected in (the detection-latency record).
    pub first_detection: Vec<(u64, u64)>,
}

/// The control-plane section of a v5 report: what the campaign engines
/// and the config auditor did during the stream pass. `None` (serialized
/// `null`) when the spec configures neither.
#[derive(Debug, Clone, PartialEq)]
pub struct MgmtSection {
    /// One final accounting per configured campaign, in spec order.
    pub campaigns: Vec<CampaignReport>,
    /// The full command log (every update/rollback/quarantine/remediate
    /// the control plane issued, with dispositions).
    pub commands: CommandBus,
    /// Config-drift audit accounting (`None` when no audit configured).
    pub config_audit: Option<ConfigAuditReport>,
}

/// The deterministic output of one fleet run: rows sorted by home id,
/// community structure, flagged homes, quarantined
/// degraded/failed/build-failed sections, and the fleet alert stream.
/// Contains **no wall-clock quantities** — the same spec produces a
/// byte-identical [`FleetReport::to_json`] for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Master seed the fleet was stamped from.
    pub master_seed: u64,
    /// Row retention policy the run used: under [`RowPolicy::Full`],
    /// `rows` lists every home that ran to the horizon; under
    /// [`RowPolicy::CandidatesOnly`] it lists forwarded candidates only
    /// (the outcome tallies in `totals` still cover every home).
    pub rows_mode: RowPolicy,
    /// Per-home rows, sorted by id (homes that ran to the horizon,
    /// filtered per `rows_mode`).
    pub rows: Vec<FleetHomeRow>,
    /// Per-logical-region summaries, in region order — the compact
    /// state the global pass correlated.
    pub regions: Vec<RegionSummary>,
    /// Homes truncated by the step event budget, sorted by id.
    pub degraded: Vec<DegradedHome>,
    /// Homes that panicked past their retry budget, sorted by id.
    pub run_failed: Vec<HomeRunError>,
    /// Homes that could not be built, sorted by id.
    pub build_failed: Vec<HomeBuildError>,
    /// Number of distinct behavioural communities found.
    pub communities: usize,
    /// Effective deviation threshold used for flagging.
    pub threshold: f64,
    /// Ids of flagged homes (sorted).
    pub flagged: Vec<u64>,
    /// Streamed-correlation trace (`None` in batch mode).
    pub epochs: Option<StreamSection>,
    /// Control-plane trace (`None` when no campaigns/audit configured).
    pub mgmt: Option<MgmtSection>,
    /// Secure-onboarding trace (`None` when the spec configures no
    /// onboarding): join accounting, denials by structured cause, and
    /// the per-class cipher/latency/energy record.
    pub onboarding: Option<OnboardSection>,
    /// Run-snapshot cadence in epochs (`None` when the spec cuts no run
    /// snapshots). A spec property, not a run property — resumed runs
    /// report the same value as the uninterrupted run.
    pub snapshot_every: Option<u64>,
    /// Fleet-wide totals.
    pub totals: FleetTotals,
    /// Fleet alerts (published through the standard alert pipeline).
    pub alerts: Vec<Alert>,
}

/// Fixed-precision float for the stable schema: 6 decimal places,
/// `null` for non-finite values (raw NaN/inf would not be valid JSON).
/// Like every helper here it formats straight into the buffer the
/// caller's `write!` targets, so no row builds a temporary `String`.
fn json_f64(v: f64) -> impl Display {
    fmt::from_fn(move |f| {
        if v.is_finite() {
            write!(f, "{v:.6}")
        } else {
            f.write_str("null")
        }
    })
}

/// `json_f64` lifted over `Option`: `None` serializes as `null`.
fn json_opt_f64(v: Option<f64>) -> impl Display {
    json_opt(v.map(json_f64))
}

/// A present value as itself (a JSON number, or a string already
/// wrapped by `json_str`), an absent one as `null`.
fn json_opt<T: Display>(v: Option<T>) -> impl Display {
    fmt::from_fn(move |f| match &v {
        Some(v) => write!(f, "{v}"),
        None => f.write_str("null"),
    })
}

/// Minimal JSON string escaping for the deterministic serializer.
fn json_str(s: &str) -> impl Display + '_ {
    fmt::from_fn(move |f| {
        f.write_char('"')?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    })
}

/// Writes a section's items comma-separated into the report buffer.
fn write_section<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item)?;
    }
    Ok(())
}

impl FleetReport {
    /// Total homes accounted for across every outcome — from the
    /// tallies, not the row sections, so the count covers the whole
    /// fleet even under candidates-only row retention.
    pub fn homes_accounted(&self) -> usize {
        self.totals.homes_accounted() as usize
    }

    /// Checks the conservation law against the number of homes stamped
    /// (`ok + degraded + failed + build_failed == homes`) *and* that the
    /// row sections agree with the tallies (`rows` covers every
    /// completed home under full retention; the quarantine sections
    /// always list every lost home).
    pub fn accounting_ok(&self, homes: usize) -> bool {
        self.totals.homes_accounted() == homes as u64
            && self.degraded.len() as u64 == self.totals.homes_degraded
            && self.run_failed.len() as u64 == self.totals.homes_run_failed
            && self.build_failed.len() as u64 == self.totals.homes_build_failed
            && (self.rows_mode != RowPolicy::Full || self.rows.len() as u64 == self.totals.homes_ok)
    }

    /// Serializes the report as deterministic JSON, schema version
    /// [`FLEET_REPORT_SCHEMA_VERSION`] (stable field order, fixed float
    /// precision, rows and failures sorted by home id). Every section is
    /// written straight into one output buffer, reserved up front from
    /// the section sizes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_capacity());
        // Writing into a `String` cannot fail.
        let _ = self.write_json(&mut out);
        out
    }

    /// A generous estimate of [`FleetReport::to_json`]'s length, so the
    /// buffer is not regrown while the rows are written.
    fn json_capacity(&self) -> usize {
        let epochs = self.epochs.as_ref().map_or(0, |s| {
            8 * s.partial_homes.len() + 64 * s.per_epoch.len() + 32 * s.first_detection.len()
        });
        let mgmt = self.mgmt.as_ref().map_or(0, |m| {
            1024 + m
                .campaigns
                .iter()
                .map(|c| 512 + 96 * c.waves.len())
                .sum::<usize>()
        });
        let onboarding = self.onboarding.as_ref().map_or(0, |o| {
            1024 + 160 * o.classes.len() + 8 * o.denied_homes.len()
        });
        1024 + epochs
            + mgmt
            + onboarding
            + 448 * self.rows.len()
            + 320 * self.regions.len()
            + 224 * self.degraded.len()
            + 128 * self.run_failed.len()
            + 64 * self.build_failed.len()
            + 8 * self.flagged.len()
            + 96 * self.alerts.len()
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "{{\"schema_version\":{},\"master_seed\":{},\"homes\":{},\"communities\":{},\
             \"threshold\":{},\"flagged\":[",
            FLEET_REPORT_SCHEMA_VERSION,
            self.master_seed,
            self.homes_accounted(),
            self.communities,
            json_f64(self.threshold),
        )?;
        write_section(out, &self.flagged, |out, id| write!(out, "{id}"))?;
        out.push_str("],\"epochs\":");
        match &self.epochs {
            None => out.push_str("null"),
            Some(s) => {
                write!(
                    out,
                    "{{\"interval_secs\":{},\"count\":{},\"windows_ingested\":{},\
                     \"windows_shed\":{},\"partial_homes\":[",
                    s.interval_secs, s.count, s.windows_ingested, s.windows_shed,
                )?;
                write_section(out, &s.partial_homes, |out, id| write!(out, "{id}"))?;
                out.push_str("],\"per_epoch\":[");
                write_section(out, &s.per_epoch, |out, e| {
                    write!(
                        out,
                        "{{\"epoch\":{},\"homes\":{},\"alerts\":{},\"deduped\":{}}}",
                        e.epoch, e.homes, e.alerts, e.deduped
                    )
                })?;
                out.push_str("],\"first_detection\":[");
                write_section(out, &s.first_detection, |out, (home, epoch)| {
                    write!(out, "{{\"home\":{home},\"epoch\":{epoch}}}")
                })?;
                out.push_str("]}");
            }
        }
        out.push_str(",\"campaigns\":");
        match &self.mgmt {
            None => out.push_str("null"),
            Some(m) => {
                out.push_str("{\"runs\":[");
                write_section(out, &m.campaigns, |out, c| {
                    write!(
                        out,
                        "{{\"name\":{},\"device\":{},\"version\":\"{}\",\"tampered\":{},\
                         \"gated\":{},\"max_deviation_rate\":{},\"targets\":{},\
                         \"updated\":{},\"rejected\":{},\"compromised\":{},\
                         \"rolled_back\":{},\"quarantined\":{},\"rollout_pct\":{},\
                         \"halted_at_wave\":{},\"halt_epoch\":{},\"halt_rate\":{},\
                         \"contained\":{},\"waves\":[",
                        json_str(&c.name),
                        json_str(&c.device),
                        c.version,
                        c.tampered,
                        c.gated,
                        json_f64(c.max_deviation_rate),
                        c.targets,
                        c.updated,
                        c.rejected,
                        c.compromised,
                        c.rolled_back,
                        c.quarantined,
                        c.rollout_pct,
                        json_opt(c.halted_at_wave),
                        json_opt(c.halt_epoch),
                        json_opt_f64(c.halt_rate),
                        c.contained,
                    )?;
                    write_section(out, &c.waves, |out, w| {
                        write!(
                            out,
                            "{{\"wave\":{},\"share_pct\":{},\"epoch\":{},\"cohort\":{},\
                             \"applied\":{},\"rejected\":{}}}",
                            w.wave, w.share_pct, w.epoch, w.cohort, w.applied, w.rejected
                        )
                    })?;
                    out.push_str("]}");
                    Ok(())
                })?;
                write!(out, "],\"commands\":{{\"total\":{},", m.commands.total())?;
                write_section(out, COMMAND_KINDS.iter(), |out, k| {
                    write!(
                        out,
                        "\"{}\":{{\"applied\":{},\"rejected\":{},\"issued\":{}}}",
                        k.name().replace('-', "_"),
                        m.commands.applied(*k),
                        m.commands.rejected(*k),
                        m.commands.issued(*k),
                    )
                })?;
                out.push_str("},\"config_audit\":");
                match &m.config_audit {
                    None => out.push_str("null"),
                    Some(a) => write!(
                        out,
                        "{{\"every\":{},\"audits\":{},\"drifted\":{},\"detected\":{},\
                         \"remediated\":{}}}",
                        a.every, a.audits, a.drifted, a.detected, a.remediated
                    )?,
                }
                out.push('}');
            }
        }
        write!(
            out,
            ",\"recovery\":{{\"snapshot_every\":{}}},\"onboarding\":",
            json_opt(self.snapshot_every),
        )?;
        match &self.onboarding {
            None => out.push_str("null"),
            Some(o) => {
                write!(
                    out,
                    "{{\"joins\":{},\"admitted\":{},\"denied\":{},\
                     \"rogue_admissions\":{},\"retransmissions\":{},\
                     \"bytes_sent\":{},\"energy_mj\":{},\"denials\":{{",
                    o.joins,
                    o.admitted,
                    o.denied,
                    o.rogue_admissions,
                    o.retransmissions,
                    o.bytes_sent,
                    json_f64(o.energy_mj),
                )?;
                write_section(out, DENY_CAUSES.iter().zip(&o.denials), |out, (c, n)| {
                    write!(out, "\"{}\":{}", c.label(), n)
                })?;
                out.push_str("},\"classes\":[");
                write_section(out, &o.classes, |out, c| {
                    write!(
                        out,
                        "{{\"class\":{},\"cipher\":{},\"key_floor_bits\":{},\
                         \"joins\":{},\"admitted\":{},\"mean_latency_ms\":{},\
                         \"mean_energy_mj\":{}}}",
                        json_str(&c.class),
                        json_opt(c.cipher.map(json_str)),
                        c.key_floor_bits,
                        c.joins,
                        c.admitted,
                        json_f64(c.mean_latency_ms),
                        json_f64(c.mean_energy_mj),
                    )
                })?;
                out.push_str("],\"denied_homes\":[");
                write_section(out, &o.denied_homes, |out, id| write!(out, "{id}"))?;
                out.push_str("]}");
            }
        }
        out.push_str(",\"regions\":[");
        write_section(out, &self.regions, |out, r| {
            write!(
                out,
                "{{\"region\":{},\"homes\":{},\"ok\":{},\"degraded\":{},\
                 \"run_failed\":{},\"build_failed\":{},\"candidates\":{},\
                 \"evidence\":{},\"evidence_shed\":{},\"homes_with_critical\":{},\
                 \"homes_with_quarantine\":{},\"samples\":{},\
                 \"magnitude_median\":{},\"magnitude_mad\":{}}}",
                r.region,
                r.homes,
                r.ok,
                r.degraded,
                r.run_failed,
                r.build_failed,
                r.candidates,
                r.evidence,
                r.evidence_shed,
                r.homes_with_critical,
                r.homes_with_quarantine,
                r.samples,
                json_f64(r.magnitude_median),
                json_f64(r.magnitude_mad),
            )
        })?;
        write!(
            out,
            "],\"rows_mode\":{},\
             \"totals\":{{\"evidence\":{},\"evidence_dropped\":{},\"evidence_shed\":{},\
             \"evidence_drop_rate\":{},\"evidence_shed_rate\":{},\"forwarded\":{},\
             \"dropped_packets\":{},\"homes_with_critical\":{},\
             \"homes_with_quarantine\":{},\"homes_ok\":{},\"homes_degraded\":{},\
             \"homes_run_failed\":{},\"homes_build_failed\":{}}},\
             \"degraded\":[",
            json_str(self.rows_mode.name()),
            self.totals.evidence,
            self.totals.evidence_dropped,
            self.totals.evidence_shed,
            json_f64(self.totals.evidence_drop_rate()),
            json_f64(self.totals.evidence_shed_rate()),
            self.totals.forwarded,
            self.totals.dropped_packets,
            self.totals.homes_with_critical,
            self.totals.homes_with_quarantine,
            self.totals.homes_ok,
            self.totals.homes_degraded,
            self.totals.homes_run_failed,
            self.totals.homes_build_failed,
        )?;
        write_section(out, &self.degraded, |out, d| {
            write!(
                out,
                "{{\"id\":{},\"template\":{},\"attack\":\"{}\",\"fault\":\"{}\",\
                 \"events_used\":{},\"evidence\":{},\"warnings\":{},\"criticals\":{},\
                 \"forwarded\":{},\"dropped\":{}}}",
                d.id,
                json_str(&d.template),
                d.attack,
                d.fault,
                d.events_used,
                d.report.evidence_total,
                d.report.warning_alerts,
                d.report.critical_alerts,
                d.report.forwarded,
                d.report.dropped_packets,
            )
        })?;
        out.push_str("],\"run_failed\":[");
        write_section(out, &self.run_failed, |out, f| {
            write!(
                out,
                "{{\"id\":{},\"attempts\":{},\"fault\":\"{}\",\"panic\":{}}}",
                f.home,
                f.attempts,
                f.fault,
                json_str(&f.panic)
            )
        })?;
        out.push_str("],\"build_failed\":[");
        write_section(out, &self.build_failed, |out, f| {
            write!(
                out,
                "{{\"id\":{},\"reason\":{}}}",
                f.home,
                json_str(&f.reason)
            )
        })?;
        out.push_str("],\"alerts\":[");
        write_section(out, &self.alerts, |out, a| {
            write!(
                out,
                "{{\"device\":{},\"severity\":\"{}\",\"score\":{}}}",
                json_str(&a.device),
                a.severity,
                json_f64(a.score)
            )
        })?;
        out.push_str("],\"rows\":[");
        write_section(out, &self.rows, |out, r| {
            write!(
                out,
                "{{\"id\":{},\"seed\":{},\"template\":{},\"attack\":\"{}\",\
                 \"fault\":\"{}\",\"region\":{},\"candidate\":{},\
                 \"community\":{},\"deviation\":{},\"flagged\":{},\
                 \"observer_accuracy\":{},\
                 \"evidence\":{},\"evidence_dropped\":{},\"evidence_shed\":{},\
                 \"evidence_drop_rate\":{},\"warnings\":{},\
                 \"criticals\":{},\"quarantined\":{},\"top_device\":{},\
                 \"top_score\":{},\"forwarded\":{},\"dropped\":{}}}",
                r.id,
                r.report.seed,
                json_str(&r.template),
                r.attack,
                r.fault,
                r.region,
                r.candidate,
                json_opt(r.community),
                json_f64(r.deviation),
                r.flagged,
                json_opt_f64(r.observer_accuracy),
                r.report.evidence_total,
                r.report.evidence_dropped,
                r.report.evidence_shed,
                json_f64(r.evidence_drop_rate()),
                r.report.warning_alerts,
                r.report.critical_alerts,
                r.report.quarantined.len(),
                json_str(&r.report.top_device),
                json_f64(r.report.top_score),
                r.report.forwarded,
                r.report.dropped_packets,
            )
        })?;
        out.push_str("]}");
        Ok(())
    }
}

/// Refills the stream pass's batch with epoch `epoch`'s windows: every
/// window numbered `epoch`, cloned from the homes in `streams` order.
/// The homes keep the only long-lived copy, and walking all their
/// windows costs a few integer compares per window and epoch.
fn fill_epoch(batch: &mut Vec<WindowSummary>, streams: &[&HomeStream], epoch: u64) {
    batch.clear();
    batch.extend(
        streams
            .iter()
            .flat_map(|s| &s.windows)
            .filter(|w| w.window == epoch)
            .cloned(),
    );
}

/// Collects per-home outcomes and fuses them into fleet intelligence.
pub struct FleetAggregator<'a> {
    spec: &'a FleetSpec,
    horizon: SimTime,
    /// The onboarding section plus the stamped attack of each denied
    /// home, in `denied_causes` order — recomputed here purely from the
    /// spec (never stored in slots), so resumed and region-sharded runs
    /// report identical bytes.
    onboard: Option<(OnboardSection, Vec<&'static str>)>,
    /// The fleet-level alert pipeline (same sink the per-home Cores use).
    pub alerts: AlertSink,
}

impl<'a> FleetAggregator<'a> {
    /// Creates an aggregator over the fleet spec.
    pub fn new(spec: &'a FleetSpec) -> Self {
        FleetAggregator {
            spec,
            horizon: SimTime::from_micros(spec.horizon.as_micros()),
            onboard: spec.onboarding.as_ref().map(|o| {
                let section = OnboardSection::compute(o, spec.stamped());
                let attacks = section
                    .denied_causes
                    .iter()
                    .map(|&(id, _)| spec.stamp_one(id).attack.name())
                    .collect();
                (section, attacks)
            }),
            alerts: AlertSink::new(),
        }
    }

    /// The run's onboarding section (`None` when the spec configures no
    /// onboarding), computed once by [`FleetAggregator::new`].
    pub(crate) fn onboarding(&self) -> Option<&OnboardSection> {
        self.onboard.as_ref().map(|(section, _)| section)
    }

    /// The epoch-by-epoch stream pass (the `epochs` section) plus the
    /// control plane riding on it (the v5 `campaigns` section). Runs
    /// only when the spec streams; batch mode returns `(None, None)`.
    ///
    /// Eligibility mirrors the batch pass one notch looser: homes that
    /// ran to the horizon always join; **degraded** homes join too when
    /// they completed at least one whole window (their truncated
    /// fragment is marked partial, so the section annotates them)
    /// instead of being quarantine-only. Stream detections are raised as
    /// epoch-stamped alerts *before* the horizon alerts — they happened
    /// first in simulated time.
    ///
    /// **Control plane.** At the start of every epoch, each campaign
    /// engine and the config auditor advance first (the campaigns read
    /// the correlator's flagged set *as of the previous epoch* — the
    /// gate can only react to what has already been detected); then any
    /// home currently running an implanted payload has its window deltas
    /// perturbed (extra criticals, wire bytes and packets — what a
    /// C&C-beaconing implant does to a home's traffic window) before the
    /// correlator ingests the batch. Detection therefore feeds the next
    /// boundary's gate, which is exactly the §IV-D detection→response
    /// loop.
    ///
    /// **Recovery.** The `ctx` threads the run-snapshot machinery
    /// through the loop: a chaos kill point aborts at the top of its
    /// epoch, the snapshot cadence cuts a durable generation at the end
    /// of every `every`-th epoch, and a resume overlays the serialized
    /// correlator/engine/auditor/bus state onto the freshly constructed
    /// objects and fast-forwards to the snapshot's epoch cursor.
    fn stream_pass(
        &mut self,
        items: &[(HomeSpec, HomeOutcome, HomeStream)],
        ctx: &mut RunCtx,
    ) -> Result<(Option<StreamSection>, Option<MgmtSection>), FleetError> {
        let spec = self.spec;
        let Some(interval) = spec.correlation_interval else {
            return Ok((None, None));
        };
        let stream_epochs = spec.stream_epochs();
        let mut shed = 0u64;
        let mut managed: Vec<&HomeSpec> = Vec::new();
        let mut streams: Vec<&HomeStream> = Vec::new();
        for (hs, outcome, stream) in items {
            let eligible = match outcome {
                HomeOutcome::Ok { .. } => true,
                HomeOutcome::Degraded { .. } => {
                    stream.windows.iter().filter(|w| !w.partial).count() >= 1
                }
                _ => false,
            };
            if !eligible {
                continue;
            }
            managed.push(hs);
            streams.push(stream);
            shed += stream.shed;
        }

        // Control-plane setup: one engine per configured campaign, over
        // the stream-eligible homes whose template actually carries the
        // target device. Whether a target runs the vulnerable
        // (promiscuous) or strict update policy comes straight from the
        // device's own vulnerability profile — the same ground truth the
        // simulations use.
        let mut bus = CommandBus::new();
        let mut engines: Vec<CampaignEngine> = spec
            .campaigns
            .iter()
            .map(|c| {
                let targets: Vec<TargetHome> = managed
                    .iter()
                    .filter_map(|hs| {
                        let template = spec.templates.get(hs.template)?;
                        let device = template.devices.iter().find(|d| d.name == c.device)?;
                        Some(TargetHome {
                            home: hs.id,
                            promiscuous: device.vulns.has(Vulnerability::UnsignedFirmware),
                        })
                    })
                    .collect();
                CampaignEngine::new(
                    c.clone(),
                    spec.master_seed,
                    &targets,
                    CAMPAIGN_VENDOR,
                    CAMPAIGN_VENDOR_SECRET,
                )
            })
            .collect();
        let mut auditor = spec.config_audit.map(|audit| {
            let homes: Vec<u64> = managed.iter().map(|hs| hs.id).collect();
            ConfigAuditor::new(audit, spec.master_seed, &homes)
        });

        let mut correlator = StreamCorrelator::new();
        correlator.note_shed(shed);

        // Resume overlay: everything pure was just rebuilt from the spec
        // (engines, targets, auditor roster, window batches); the
        // serialized *mutable* state replaces the fresh state, and the
        // loop fast-forwards to the snapshot's epoch cursor. The
        // restored correlator already carries the shed note it was
        // checkpointed with.
        let mut start_epoch = 0u64;
        if let Some(ResumePhase::Stream(sr)) = ctx.resume.take() {
            (correlator, bus) = sr
                .restore(&mut engines, auditor.as_mut())
                .map_err(FleetError::Snapshot)?;
            start_epoch = sr.next_epoch;
        }

        // The homes keep the only copy of each window. One batch is
        // refilled from them per epoch, because the implant perturbation
        // needs owned summaries; a home streams at most one window per
        // epoch, so one slot per home never grows. Epochs before the
        // resume cursor are already inside the restored state.
        let mut batch: Vec<WindowSummary> = Vec::with_capacity(streams.len());
        for epoch in start_epoch..stream_epochs {
            // The chaos kill fires before any of this epoch's work — the
            // newest durable generation is the one cut at an earlier
            // epoch boundary, exactly what a mid-epoch crash leaves.
            if ctx.kill == Some(KillPoint::Epoch(epoch)) {
                return Err(FleetError::ChaosKilled(KillPoint::Epoch(epoch)));
            }
            fill_epoch(&mut batch, &streams, epoch);
            for engine in &mut engines {
                engine.epoch_begin(epoch, correlator.flagged(), &mut bus);
            }
            if let Some(auditor) = auditor.as_mut() {
                auditor.epoch_begin(epoch, &mut bus);
            }
            if !engines.is_empty() {
                for w in &mut batch {
                    if engines.iter().any(|e| e.implant_active(w.home)) {
                        // A live implant beacons: critical alerts from
                        // the home's own layers plus a C&C traffic bump.
                        w.features[FEAT_CRITICALS] += 2.0;
                        w.features[FEAT_WIRE_BYTES] += 90_000.0;
                        w.features[FEAT_PACKETS] += 900.0;
                    }
                }
            }
            correlator.ingest_epoch(&batch);
            // Durable run snapshot at the cadence: the epoch boundary
            // state (cursor `epoch + 1`) lands atomically on disk.
            if let Some(every) = ctx.snapshot_every() {
                if (epoch + 1) % every == 0 {
                    ctx.write_stream_snapshot(
                        epoch + 1,
                        &correlator,
                        &engines,
                        auditor.as_ref(),
                        &bus,
                    )
                    .map_err(FleetError::Snapshot)?;
                }
            }
        }
        let outcome = correlator.outcome();

        let horizon_s = self.horizon.as_micros() / 1_000_000;
        for (&home, &epoch) in &outcome.first_detection {
            let at_s = ((epoch + 1).saturating_mul(interval)).min(horizon_s);
            self.alerts.raise(Alert {
                at: SimTime::from_secs(at_s),
                device: format!("home-{home:06}"),
                severity: Severity::Warning,
                score: 0.0,
                explanation: format!(
                    "stream correlation: home first detected at epoch {epoch} (t={at_s}s), \
                     {} epoch(s) before the horizon",
                    stream_epochs.saturating_sub(epoch + 1),
                ),
            });
        }

        // Campaign halts are the control plane's loudest signal: the
        // health gate turned a fleet of detections into a rollback.
        for engine in &engines {
            let r = engine.report();
            if let (Some(wave), Some(epoch), Some(rate)) =
                (r.halted_at_wave, r.halt_epoch, r.halt_rate)
            {
                let at_s = epoch.saturating_mul(interval).min(horizon_s);
                self.alerts.raise(Alert {
                    at: SimTime::from_secs(at_s),
                    device: format!("campaign-{}", r.name),
                    severity: Severity::Critical,
                    score: rate.clamp(0.0, 1.0),
                    explanation: format!(
                        "campaign {}: health gate halted the rollout before wave {wave} at \
                         epoch {epoch} (updated-cohort deviation rate {rate:.3}); \
                         {} home(s) rolled back, {} quarantined",
                        r.name, r.rolled_back, r.quarantined
                    ),
                });
            }
        }
        if let Some(auditor) = &auditor {
            let r = auditor.report();
            if r.detected > 0 {
                self.alerts.raise(Alert {
                    at: self.horizon,
                    device: "config-audit".to_string(),
                    severity: Severity::Warning,
                    score: 0.0,
                    explanation: format!(
                        "config audit: {} drifted home(s) detected and {} remediated \
                         across {} audit pass(es)",
                        r.detected, r.remediated, r.audits
                    ),
                });
            }
        }

        let mgmt = if engines.is_empty() && auditor.is_none() {
            None
        } else {
            Some(MgmtSection {
                campaigns: engines.iter().map(|e| e.report()).collect(),
                commands: bus,
                config_audit: auditor.map(|a| a.report()),
            })
        };

        Ok((
            Some(StreamSection {
                interval_secs: interval,
                count: stream_epochs,
                windows_ingested: outcome.windows_ingested,
                windows_shed: outcome.windows_shed,
                partial_homes: outcome.partial_homes,
                per_epoch: outcome.epochs,
                first_detection: outcome.first_detection.into_iter().collect(),
            }),
            mgmt,
        ))
    }

    fn template_name(&self, idx: usize) -> String {
        self.spec
            .templates
            .get(idx)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("template-{idx}"))
    }

    /// The global tier of the two-tier aggregation: gathers the logical
    /// region slots from the shards (in ascending region order — the
    /// merged state is therefore independent of how many shards the
    /// engine ran), merges each template's per-region feature columns
    /// *exactly* ([`RobustAccumulator::merge_many`] over the regions: the
    /// merged runs hold every home's sample), correlates the
    /// forwarded candidates with the graph pass, and scores every
    /// retained home against its own template's merged median/MAD. The
    /// report is byte-identical for any shard count because every input
    /// to this pass is a set property of the fleet, not of the
    /// partitioning.
    ///
    /// Flagging: a home is *deviant* when its region forwarded it as a
    /// candidate **and** its robust z-score clears
    /// `SIGMA.max(MIN_DEVIATION)`; it is *flagged* when it is deviant
    /// or its own Core raised criticals (criticals force candidacy, so
    /// the criticals-always-flag invariant survives the pre-filter).
    pub fn aggregate_regions(self, shards: Vec<RegionAggregator>) -> FleetReport {
        let mut ctx = RunCtx::passive(SnapshotIdentity::of(self.spec));
        match self.aggregate_regions_run(shards, &mut ctx) {
            Ok(report) => report,
            // A passive ctx snapshots nothing, kills nothing, and
            // resumes nothing — none of the fallible paths exist.
            Err(e) => unreachable!("passive aggregation cannot fail: {e}"),
        }
    }

    /// [`FleetAggregator::aggregate_regions`] with the snapshot/kill
    /// machinery threaded through — the engine's entry point.
    pub(crate) fn aggregate_regions_run(
        self,
        mut shards: Vec<RegionAggregator>,
        ctx: &mut RunCtx,
    ) -> Result<FleetReport, FleetError> {
        assert!(!shards.is_empty(), "at least one region shard required");
        let instances = shards.len();
        // Gather every logical slot in ascending region order.
        let slots: Vec<RegionSlot> = (0..self.spec.region_slots.max(1))
            .map(|r| shards[RegionAggregator::shard_of(r as u32, instances)].take_slot(r as u32))
            .collect();
        self.aggregate_slots(slots, ctx)
    }

    /// The global pass over already-gathered region slots. This is the
    /// homes→stream boundary: with a snapshot policy set, the slots are
    /// serialized once here (the homes-phase generation) and embedded in
    /// every later stream-phase generation; a resume enters here
    /// directly with slots restored from disk.
    pub(crate) fn aggregate_slots(
        mut self,
        mut slots: Vec<RegionSlot>,
        ctx: &mut RunCtx,
    ) -> Result<FleetReport, FleetError> {
        if ctx.policy.is_some() && ctx.resume.is_none() {
            ctx.set_slots_blob(snapshot::encode_slots(&slots));
            ctx.write_homes_snapshot().map_err(FleetError::Snapshot)?;
        }
        if ctx.kill == Some(KillPoint::AfterHomes) {
            return Err(FleetError::ChaosKilled(KillPoint::AfterHomes));
        }

        let regions: Vec<RegionSummary> = slots
            .iter()
            .enumerate()
            .map(|(r, s)| s.summary(r as u32))
            .collect();
        let mut candidates: BTreeSet<u64> = BTreeSet::new();
        for slot in &slots {
            candidates.extend(slot.candidate_ids());
        }

        // Exact global merge of the per-(region, template) statistics:
        // median/MAD per feature dimension, per template — each home is
        // scored against its own template's population, so a minority
        // template (e.g. houses among apartments) is never mass-flagged
        // for behaving like itself.
        let mut template_dims: BTreeMap<usize, usize> = BTreeMap::new();
        for slot in &slots {
            for (&t, stats) in &slot.stats {
                let dims = template_dims.entry(t).or_insert(0);
                *dims = (*dims).max(stats.features.len());
            }
        }
        let mut merged: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (&t, &dims) in &template_dims {
            let mut medians = Vec::with_capacity(dims);
            let mut mads = Vec::with_capacity(dims);
            for d in 0..dims {
                let acc = RobustAccumulator::merge_many(
                    slots
                        .iter()
                        .filter_map(|s| s.stats.get(&t))
                        .filter_map(|st| st.features.get(d)),
                );
                medians.push(acc.median());
                mads.push(acc.mad());
            }
            merged.insert(t, (medians, mads));
        }

        // Fleet totals come from the region tallies, not the retained
        // rows — they cover the whole fleet even under candidates-only
        // retention.
        let mut totals = FleetTotals::default();
        for slot in &slots {
            totals.evidence += slot.evidence;
            totals.evidence_dropped += slot.evidence_dropped;
            totals.evidence_shed += slot.evidence_shed;
            totals.forwarded += slot.forwarded;
            totals.dropped_packets += slot.dropped_packets;
            totals.homes_with_critical += slot.homes_with_critical;
            totals.homes_with_quarantine += slot.homes_with_quarantine;
            totals.homes_ok += slot.ok;
            totals.homes_degraded += slot.degraded;
            totals.homes_run_failed += slot.run_failed;
            totals.homes_build_failed += slot.build_failed;
        }

        // Drain the retained triples into one id-sorted vector (the
        // shape the stream pass and the report sections consume).
        let mut items: Vec<(HomeSpec, HomeOutcome, HomeStream)> = Vec::new();
        for slot in &mut slots {
            items.extend(std::mem::take(&mut slot.retained).into_values().map(|b| *b));
        }
        items.sort_by_key(|(hs, _, _)| hs.id);

        // Stream pass next: its alerts are epoch-stamped (mid-run sim
        // times), so they precede every horizon-stamped batch alert. The
        // control plane (campaigns + config audit) rides inside it.
        // Streaming requires full row retention (the spec enforces it),
        // so the pass sees every home exactly as before.
        let (epochs, mgmt) = self.stream_pass(&items, ctx)?;

        let mut ok_items: Vec<(HomeSpec, HomeReport, Option<f64>)> =
            Vec::with_capacity(items.len());
        let mut degraded: Vec<DegradedHome> = Vec::new();
        let mut run_failed: Vec<HomeRunError> = Vec::new();
        let mut build_failed: Vec<HomeBuildError> = Vec::new();
        for (hs, outcome, _stream) in items {
            match outcome {
                HomeOutcome::Ok {
                    report,
                    observer_accuracy,
                } => ok_items.push((hs, report, observer_accuracy)),
                HomeOutcome::Degraded {
                    report,
                    events_used,
                    ..
                } => degraded.push(DegradedHome {
                    id: hs.id,
                    template: self.template_name(hs.template),
                    attack: hs.attack.name(),
                    fault: hs.fault.name(),
                    events_used,
                    report,
                }),
                HomeOutcome::Failed(e) => run_failed.push(e),
                HomeOutcome::BuildFailed(e) => build_failed.push(e),
            }
        }

        // Graph pass over the forwarded candidates only: the community
        // structure of the homes the regions found interesting. Rows are
        // id-sorted, so candidate order — and thus the labelling — is
        // deterministic. The candidates' features are written straight
        // into the kNN matrix's storage.
        let cand: Vec<(u64, &HomeReport)> = ok_items
            .iter()
            .filter(|(hs, _, _)| candidates.contains(&hs.id))
            .map(|(hs, report, _)| (hs.id, report))
            .collect();
        let dims = cand
            .first()
            .map_or(0, |(_, report)| fleet_features(report).count());
        let mut graph = GraphScratch::new();
        graph.matrix.refill(cand.len(), dims, |out| {
            out.extend(cand.iter().flat_map(|(_, report)| fleet_features(report)));
        });
        community_report_into(GRAPH_K, GRAPH_GAMMA, GRAPH_ITERS, None, &mut graph);
        let label_of: BTreeMap<u64, usize> = cand
            .iter()
            .zip(graph.labels())
            .map(|(&(id, _), &label)| (id, label))
            .collect();
        let mut communities: Vec<usize> = graph.labels().to_vec();
        communities.sort_unstable();
        communities.dedup();

        // The flag threshold is an absolute robust-σ bar, not a quantile
        // of this run's score distribution — merged statistics make the
        // scores comparable across fleets and region layouts.
        let threshold = SIGMA.max(MIN_DEVIATION);

        let mut flagged_ids = Vec::new();
        let mut rows = Vec::with_capacity(ok_items.len());
        for (hs, report, observer_accuracy) in ok_items {
            let f: Vec<f64> = fleet_features(&report).collect();
            let deviation = merged
                .get(&hs.template)
                .map(|(med, mad)| robust_z(&f, med, mad))
                .unwrap_or(0.0);
            let candidate = candidates.contains(&hs.id);
            let deviant = candidate && deviation >= threshold;
            let flagged = deviant || report.critical_alerts > 0;
            if flagged {
                flagged_ids.push(hs.id);
                let severity = if report.critical_alerts > 0 {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                // A flagged home running under an injected fault is
                // called out: its deviation may be the fault, not an
                // attack, and the operator should read it that way.
                let fault_note = if hs.fault.name() == "none" {
                    String::new()
                } else {
                    format!(", under fault {}", hs.fault.name())
                };
                self.alerts.raise(Alert {
                    at: self.horizon,
                    device: format!("home-{:06}", hs.id),
                    severity,
                    score: deviation.clamp(0.0, 1.0),
                    explanation: format!(
                        "fleet correlation: region {} community {} robust z {:.3}{}{}{}",
                        hs.region,
                        label_of.get(&hs.id).copied().unwrap_or(0),
                        deviation,
                        if deviant { " (deviant)" } else { "" },
                        if report.critical_alerts > 0 {
                            ", home core critical"
                        } else {
                            ""
                        },
                        fault_note,
                    ),
                });
            }

            rows.push(FleetHomeRow {
                id: hs.id,
                template: self.template_name(hs.template),
                attack: hs.attack.name(),
                fault: hs.fault.name(),
                region: hs.region % self.spec.region_slots.max(1) as u32,
                candidate,
                community: label_of.get(&hs.id).copied(),
                deviation,
                flagged,
                observer_accuracy,
                report,
            });
        }

        // Quarantined homes are part of the record: one warning alert
        // each, in deterministic section order (degraded, run-failed,
        // build-failed; each sorted by id).
        for d in &degraded {
            self.alerts.raise(Alert {
                at: self.horizon,
                device: format!("home-{:06}", d.id),
                severity: Severity::Warning,
                score: 0.0,
                explanation: format!(
                    "fleet: home truncated after {} events (fault {}): excluded from correlation",
                    d.events_used, d.fault
                ),
            });
        }
        for f in &run_failed {
            self.alerts.raise(Alert {
                at: self.horizon,
                device: format!("home-{:06}", f.home),
                severity: Severity::Warning,
                score: 0.0,
                explanation: format!(
                    "fleet: home panicked on all {} attempts (fault {}): {}",
                    f.attempts, f.fault, f.panic
                ),
            });
        }
        for f in &build_failed {
            self.alerts.raise(Alert {
                at: self.horizon,
                device: format!("home-{:06}", f.home),
                severity: Severity::Warning,
                score: 0.0,
                explanation: format!("fleet: home failed to build/run: {}", f.reason),
            });
        }

        // Fault-correlated degradation summary: when homes under the same
        // injected fault kind were lost (degraded or failed), that is a
        // fleet-level signal, not a per-home anomaly.
        for fault in FLEET_FAULT_KINDS {
            let name = fault.name();
            if name == "none" {
                continue;
            }
            let affected = degraded.iter().filter(|d| d.fault == name).count()
                + run_failed.iter().filter(|f| f.fault == name).count();
            if affected > 0 {
                self.alerts.raise(Alert {
                    at: self.horizon,
                    device: format!("fleet-fault-{name}"),
                    severity: Severity::Warning,
                    score: 0.0,
                    explanation: format!(
                        "fault-correlated degradation: {name} cost {affected} home(s) \
                         their full run"
                    ),
                });
            }
        }

        // Onboarding: recompute the join phase purely from the spec (the
        // same outcomes the engine charged metrics for) and fold denials
        // into the fleet record — denied homes are flagged, and each
        // denial raises one warning with its structured cause. The fixed
        // position (after every quarantine/fault alert) keeps the alert
        // stream deterministic.
        let onboarding = self.onboard.take().map(|(section, attacks)| {
            for (&(id, cause), attack) in section.denied_causes.iter().zip(attacks) {
                self.alerts.raise(Alert {
                    at: self.horizon,
                    device: format!("home-{:06}", id),
                    severity: Severity::Warning,
                    score: 1.0,
                    explanation: format!(
                        "fleet onboarding: join denied ({}) under attack {} — \
                         device refused admission",
                        cause.label(),
                        attack,
                    ),
                });
            }
            section
        });
        if let Some(section) = &onboarding {
            flagged_ids.extend(section.denied_homes.iter().copied());
            flagged_ids.sort_unstable();
            flagged_ids.dedup();
        }

        Ok(FleetReport {
            master_seed: self.spec.master_seed,
            rows_mode: self.spec.row_policy,
            rows,
            regions,
            degraded,
            run_failed,
            build_failed,
            communities: communities.len(),
            threshold,
            flagged: flagged_ids,
            epochs,
            mgmt,
            onboarding,
            snapshot_every: self.spec.run_snapshot.as_ref().map(|p| p.every),
            totals,
            alerts: self.alerts.alerts().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetAttack, FleetFault};
    use proptest::prelude::*;
    use xlf_stream::{WindowBuffer, STREAM_FEATURES};

    /// The stream pass's former window grouping, kept as the oracle for
    /// [`fill_epoch`]: every window cloned into one vector, then moved
    /// into a per-epoch map.
    fn regroup_oracle(streams: &[&HomeStream]) -> BTreeMap<u64, Vec<WindowSummary>> {
        let mut windows: Vec<WindowSummary> = Vec::new();
        for stream in streams {
            windows.extend(stream.windows.iter().cloned());
        }
        let mut by_epoch: BTreeMap<u64, Vec<WindowSummary>> = BTreeMap::new();
        for w in windows {
            by_epoch.entry(w.window).or_default().push(w);
        }
        by_epoch
    }

    /// One home's stream as its worker hands it over: `emitted` windows
    /// through a buffer of `cap`, the last a partial fragment when the
    /// home is `degraded`.
    fn emitted_stream(home: u64, emitted: u64, cap: usize, degraded: bool) -> HomeStream {
        let mut buffer = WindowBuffer::new(cap);
        for window in 0..emitted {
            buffer.push(WindowSummary {
                home,
                window,
                partial: degraded && window + 1 == emitted,
                features: [(home * 100 + window) as f64; STREAM_FEATURES],
            });
        }
        let (windows, shed) = buffer.into_parts();
        HomeStream { windows, shed }
    }

    proptest! {
        /// The per-epoch batch fill gives every epoch the windows the
        /// clone-and-regroup gave it, in the same order: with shed
        /// prefixes, degraded homes' partial fragments, windows numbered
        /// past the last epoch, and the homes in any order. (The name is
        /// the former pointer index's, which the fill replaced.)
        #[test]
        fn epoch_index_matches_the_regroup_oracle(
            homes in proptest::collection::vec(
                (any::<u64>(), 0u64..16, 1usize..10, any::<bool>()),
                0..24,
            ),
            epochs in 1u64..14,
        ) {
            let mut homes: Vec<(u64, HomeStream)> = (0u64..)
                .zip(homes)
                .map(|(id, (order, emitted, cap, degraded))| {
                    (order, emitted_stream(id, emitted, cap, degraded))
                })
                .collect();
            homes.sort_by_key(|&(order, _)| order);
            let streams: Vec<&HomeStream> = homes.iter().map(|(_, s)| s).collect();
            let mut oracle = regroup_oracle(&streams);
            let mut batch = Vec::with_capacity(streams.len());
            for epoch in 0..epochs {
                fill_epoch(&mut batch, &streams, epoch);
                prop_assert_eq!(&batch, &oracle.remove(&epoch).unwrap_or_default());
                // One window per home at most: the pass's reservation
                // holds every batch.
                prop_assert!(batch.len() <= streams.len());
            }
            // All the oracle still holds lies past the last epoch, which
            // the pass never reaches.
            prop_assert!(oracle.keys().all(|&w| w >= epochs));
        }
    }

    fn fake_report(seed: u64, traffic: f64, criticals: usize) -> HomeReport {
        HomeReport {
            seed,
            evidence_total: 10,
            evidence_dropped: 0,
            evidence_shed: 0,
            evidence_by_layer: [3, 4, 3],
            warning_alerts: criticals,
            critical_alerts: criticals,
            quarantined: Vec::new(),
            top_device: "cam".to_string(),
            top_score: if criticals > 0 { 0.9 } else { 0.1 },
            forwarded: 100,
            dropped_packets: 0,
            features: vec![traffic, 100.0, 5.0, traffic * 100.0, 1.0, 0.5],
        }
    }

    fn ok(report: HomeReport) -> HomeOutcome {
        HomeOutcome::Ok {
            report,
            observer_accuracy: None,
        }
    }

    /// Batch aggregation through one region shard and the global pass.
    fn aggregate(spec: &FleetSpec, items: Vec<(HomeSpec, HomeOutcome)>) -> FleetReport {
        let mut shard = RegionAggregator::new(spec, 0, 1);
        for (hs, outcome) in items {
            shard.consume(hs, outcome, HomeStream::default());
        }
        FleetAggregator::new(spec).aggregate_regions(vec![shard])
    }

    fn items(n: usize, outlier: Option<usize>) -> Vec<(HomeSpec, HomeOutcome)> {
        (0..n)
            .map(|i| {
                let traffic = if Some(i) == outlier {
                    900.0
                } else {
                    50.0 + i as f64
                };
                (
                    HomeSpec {
                        id: i as u64,
                        seed: i as u64,
                        template: 0,
                        attack: FleetAttack::None,
                        fault: FleetFault::None,
                        region: (i % 4) as u32,
                    },
                    ok(fake_report(i as u64, traffic, 0)),
                )
            })
            .collect()
    }

    #[test]
    fn aggregation_is_input_order_independent() {
        let spec = FleetSpec::new(1, 12);
        let forward = aggregate(&spec, items(12, Some(3)));
        let mut reversed_items = items(12, Some(3));
        reversed_items.reverse();
        let reversed = aggregate(&spec, reversed_items);
        assert_eq!(forward.to_json(), reversed.to_json());
    }

    #[test]
    fn behavioural_outlier_is_flagged_with_a_fleet_alert() {
        let spec = FleetSpec::new(1, 16);
        let report = aggregate(&spec, items(16, Some(5)));
        assert!(report.flagged.contains(&5), "report: {:?}", report.flagged);
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "home-000005" && a.severity == Severity::Warning));
        // The healthy majority is not flagged.
        assert!(report.flagged.len() <= 2, "flagged: {:?}", report.flagged);
    }

    #[test]
    fn home_core_criticals_escalate_to_critical_fleet_alerts() {
        let spec = FleetSpec::new(1, 8);
        let mut all = items(8, None);
        all[2].1 = ok(fake_report(2, 52.0, 3));
        let report = aggregate(&spec, all);
        assert!(report.flagged.contains(&2));
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "home-000002" && a.severity == Severity::Critical));
        assert_eq!(report.totals.homes_with_critical, 1);
    }

    #[test]
    fn json_shape_is_stable_and_versioned() {
        let spec = FleetSpec::new(9, 4);
        let report = aggregate(&spec, items(4, None));
        let json = report.to_json();
        assert!(
            json.starts_with(&format!(
                "{{\"schema_version\":{FLEET_REPORT_SCHEMA_VERSION},\"master_seed\":9,\"homes\":4,"
            )),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(report.to_json(), json);
    }

    #[test]
    fn nan_deviation_scores_do_not_panic_or_poison_the_threshold() {
        // Regression: `median_of` used `partial_cmp().expect(...)` and
        // panicked on the first NaN deviation score (e.g. a degenerate
        // feature column). A NaN-featured home must degrade to one
        // unflagged row, not take down the whole aggregation.
        let spec = FleetSpec::new(1, 12);
        let mut all = items(12, Some(3));
        all[7].1 = ok(fake_report(7, f64::NAN, 0));
        let report = aggregate(&spec, all);
        assert_eq!(report.rows.len(), 12);
        assert!(
            report.threshold.is_finite(),
            "threshold poisoned: {}",
            report.threshold
        );
        // The genuine outlier is still caught.
        assert!(report.flagged.contains(&3), "flagged: {:?}", report.flagged);
        // A NaN deviation never flags its own home.
        let nan_row = report.rows.iter().find(|r| r.id == 7).unwrap();
        if !nan_row.deviation.is_finite() {
            assert!(!nan_row.flagged);
        }
        // And the serialized report stays valid JSON (no bare NaN).
        let json = report.to_json();
        assert!(!json.contains("NaN"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn build_failed_homes_are_recorded_not_fatal() {
        let spec = FleetSpec::new(1, 12);
        let mut all = items(12, Some(3));
        all[5].1 = HomeOutcome::BuildFailed(HomeBuildError {
            home: 5,
            reason: "no cloud node to host automation".to_string(),
        });
        let report = aggregate(&spec, all);
        assert_eq!(report.rows.len(), 11, "failed home must not get a row");
        assert_eq!(report.build_failed.len(), 1);
        assert_eq!(report.build_failed[0].home, 5);
        assert_eq!(report.totals.homes_build_failed, 1);
        assert!(report.accounting_ok(12));
        // The failure is visible in the alert stream and the JSON.
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "home-000005" && a.severity == Severity::Warning));
        let json = report.to_json();
        assert!(
            json.contains("\"build_failed\":[{\"id\":5,\"reason\":\"no cloud node"),
            "{json}"
        );
        // The genuine outlier is still flagged despite the hole.
        assert!(report.flagged.contains(&3));
    }

    #[test]
    fn degraded_and_run_failed_homes_are_quarantined_with_conservation() {
        let spec = FleetSpec::new(1, 12);
        let mut all = items(12, Some(3));
        all[6].0.fault = FleetFault::WanDegrade;
        all[6].1 = HomeOutcome::Degraded {
            report: fake_report(6, 55.0, 0),
            observer_accuracy: None,
            events_used: 5000,
        };
        all[9].0.fault = FleetFault::ChaosPanic;
        all[9].1 = HomeOutcome::Failed(HomeRunError {
            home: 9,
            attempts: 2,
            fault: "chaos-panic",
            panic: "chaos-panic: injected simulation fault in home 9".to_string(),
        });
        let report = aggregate(&spec, all);
        assert_eq!(report.rows.len(), 10);
        assert_eq!(report.degraded.len(), 1);
        assert_eq!(report.run_failed.len(), 1);
        assert!(report.accounting_ok(12));
        assert_eq!(report.totals.homes_accounted(), 12);
        // Quarantined homes never appear among correlated rows or flags.
        assert!(report.rows.iter().all(|r| r.id != 6 && r.id != 9));
        assert!(!report.flagged.contains(&6) && !report.flagged.contains(&9));
        // Both get warning alerts, plus fault-correlated summaries.
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "home-000006" && a.explanation.contains("truncated")));
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "home-000009" && a.explanation.contains("panicked")));
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "fleet-fault-wan-degrade"));
        assert!(report
            .alerts
            .iter()
            .any(|a| a.device == "fleet-fault-chaos-panic"));
        // The surviving outlier is still caught.
        assert!(report.flagged.contains(&3));
        let json = report.to_json();
        assert!(json.contains("\"homes\":12"), "{json}");
        assert!(
            json.contains("\"run_failed\":[{\"id\":9,\"attempts\":2,\"fault\":\"chaos-panic\""),
            "{json}"
        );
        assert!(json.contains("\"events_used\":5000"), "{json}");
    }

    #[test]
    fn flagged_homes_under_faults_get_annotated_alerts() {
        let spec = FleetSpec::new(1, 8);
        let mut all = items(8, None);
        all[2].0.fault = FleetFault::WanFlap;
        all[2].1 = ok(fake_report(2, 52.0, 3));
        let report = aggregate(&spec, all);
        let alert = report
            .alerts
            .iter()
            .find(|a| a.device == "home-000002")
            .expect("flagged home must alert");
        assert!(
            alert.explanation.contains("under fault wan-flap"),
            "{}",
            alert.explanation
        );
    }

    #[test]
    fn observer_accuracy_serializes_per_row() {
        let spec = FleetSpec::new(1, 4);
        let mut all = items(4, None);
        all[1].0.attack = FleetAttack::TrafficObserver;
        all[1].1 = HomeOutcome::Ok {
            report: fake_report(1, 51.0, 0),
            observer_accuracy: Some(0.75),
        };
        let report = aggregate(&spec, all);
        let json = report.to_json();
        assert!(json.contains("\"observer_accuracy\":0.750000"), "{json}");
        assert!(json.contains("\"observer_accuracy\":null"), "{json}");
    }

    #[test]
    fn drop_and_shed_rates_accumulate_into_totals() {
        let spec = FleetSpec::new(1, 8);
        let mut all = items(8, None);
        if let HomeOutcome::Ok { report, .. } = &mut all[1].1 {
            report.evidence_dropped = 30; // 10 aggregated + 30 lost
            report.evidence_shed = 20;
        }
        let report = aggregate(&spec, all);
        assert_eq!(report.totals.evidence, 80);
        assert_eq!(report.totals.evidence_dropped, 30);
        assert_eq!(report.totals.evidence_shed, 20);
        let expected_drop = 30.0 / 110.0;
        let expected_shed = 20.0 / 110.0;
        assert!((report.totals.evidence_drop_rate() - expected_drop).abs() < 1e-12);
        assert!((report.totals.evidence_shed_rate() - expected_shed).abs() < 1e-12);
        let row = report.rows.iter().find(|r| r.id == 1).unwrap();
        assert!((row.evidence_drop_rate() - 30.0 / 40.0).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"evidence_shed\":20"), "{json}");
        assert!(json.contains("\"evidence_shed_rate\":0.181818"), "{json}");
    }

    #[test]
    fn region_counts_do_not_change_the_batch_report() {
        // The execution-shard count is not part of the report: the same
        // items aggregated through 1, 2, and 8 region shards are
        // byte-identical (slot state is a set property; gathering is in
        // ascending region order either way).
        let spec = FleetSpec::new(1, 24);
        let baseline = aggregate(&spec, items(24, Some(9))).to_json();
        for instances in [2usize, 8] {
            let mut shards: Vec<RegionAggregator> = (0..instances)
                .map(|i| RegionAggregator::new(&spec, i, instances))
                .collect();
            for (hs, outcome) in items(24, Some(9)) {
                let shard =
                    RegionAggregator::shard_of(hs.region % spec.region_slots as u32, instances);
                shards[shard].consume(hs, outcome, HomeStream::default());
            }
            let sharded = FleetAggregator::new(&spec)
                .aggregate_regions(shards)
                .to_json();
            assert_eq!(sharded, baseline, "instances = {instances}");
        }
    }

    #[test]
    fn regions_section_tallies_cover_the_fleet() {
        let spec = FleetSpec::new(1, 16);
        let report = aggregate(&spec, items(16, Some(5)));
        assert_eq!(report.regions.len(), spec.region_slots);
        let homes: u64 = report.regions.iter().map(|r| r.homes).sum();
        assert_eq!(homes, 16);
        let ok: u64 = report.regions.iter().map(|r| r.ok).sum();
        assert_eq!(ok, report.totals.homes_ok);
        // Small fleet, default K: every completed home is a candidate.
        let cand: u64 = report.regions.iter().map(|r| r.candidates).sum();
        assert_eq!(cand, 16);
        assert!(report.rows.iter().all(|r| r.candidate));
        // Stamped regions survive into the rows.
        for row in &report.rows {
            assert_eq!(row.region, (row.id % 4) as u32);
        }
    }
}
