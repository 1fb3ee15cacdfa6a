//! Self-contained fleet metrics: atomic counters, gauges, and
//! fixed-bucket histograms — no external dependencies, safe to update
//! from every worker thread concurrently, dumpable as JSON.
//!
//! Wall-clock timings live here and **only** here: the deterministic
//! [`FleetReport`](crate::aggregate::FleetReport) never contains them,
//! which is what keeps fleet reports byte-identical across worker
//! counts.

use crate::spec::{FleetFault, FLEET_FAULT_KINDS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the [`FleetMetrics::to_json`] schema. Bump on any field
/// add/remove/rename/reorder (mirrors
/// [`crate::aggregate::FLEET_REPORT_SCHEMA_VERSION`] for the report).
///
/// History: v2 — first versioned shape; v3 — supervision counters
/// (`homes_degraded`, `homes_run_failed`, `panics_caught`, `retries`,
/// `deadline_truncations`; `homes_failed` renamed `homes_build_failed`)
/// and the `faults_injected` per-kind histogram; v4 — streaming counters
/// (`windows_emitted`, `windows_shed`) and the `radio-jam` bucket in
/// `faults_injected`; v5 — control-plane counters
/// (`campaign_updates_applied`, `campaign_updates_rejected`,
/// `campaign_rollbacks`, `campaign_quarantines`,
/// `config_drift_detected`, `config_remediations`); v6 — hierarchical
/// aggregation: `workers_effective` (spec workers clamped to the
/// machine's available parallelism), `regions` (region-aggregator
/// instances the run sharded the logical slots across), and
/// `region_candidates` (candidate deviants the region tier forwarded to
/// the global pass); v7 — durable aggregation & recovery:
/// `retries_futile` (retries cut short because the re-attempt panicked
/// identically), `snapshots_written`/`snapshot_bytes` (run-snapshot
/// generations cut and their total size), `resumes`/`replayed_epochs`
/// (runs restored from a snapshot and the stream epochs they had to
/// replay), and `shard_panics` (region-shard consume panics the
/// supervised collector caught); v8 — secure onboarding:
/// `onboard_joins`/`onboard_admitted`/`onboard_denied` (join handshakes
/// run before home stepping and their verdicts; all 0 when the spec
/// configures no onboarding) and `onboard_retransmissions` (CoAP
/// retransmissions across every handshake).
pub const FLEET_METRICS_SCHEMA_VERSION: u32 = 8;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge that also tracks its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// Records a new value.
    pub fn set(&self, v: u64) {
        self.current.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Last recorded value.
    pub fn get(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Highest value ever recorded.
    pub fn high_water(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// Upper bucket bounds (µs) for stage-latency histograms: roughly
/// half-decade steps from 100 µs to 1 s, plus an overflow bucket.
pub const LATENCY_BUCKETS_US: [u64; 9] = [
    100, 316, 1_000, 3_162, 10_000, 31_623, 100_000, 316_228, 1_000_000,
];

/// A fixed-bucket histogram (bounds in µs, cumulative-free counts).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Default::default(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (µs).
    pub fn observe(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (µs; 0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let bound = LATENCY_BUCKETS_US
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "\"+Inf\"".to_string());
                format!("[{bound},{}]", c.load(Ordering::Relaxed))
            })
            .collect();
        format!(
            "{{\"count\":{},\"sum_us\":{},\"mean_us\":{:.1},\"buckets\":[{}]}}",
            self.count(),
            self.sum_us(),
            self.mean_us(),
            buckets.join(",")
        )
    }
}

/// Per-fault-kind counts, indexed by [`FleetFault::index`]. Concurrent
/// like every other metric here; serialized as a `{name: count}` object
/// in [`FLEET_FAULT_KINDS`] order.
#[derive(Debug, Default)]
pub struct FaultCounts([AtomicU64; FLEET_FAULT_KINDS.len()]);

impl FaultCounts {
    /// Adds 1 to `fault`'s bucket.
    pub fn inc(&self, fault: FleetFault) {
        self.0[fault.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Current count for `fault`.
    pub fn get(&self, fault: FleetFault) -> u64 {
        self.0[fault.index()].load(Ordering::Relaxed)
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = FLEET_FAULT_KINDS
            .iter()
            .map(|f| format!("\"{}\":{}", f.name(), self.get(*f)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// All metrics of one fleet run.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Homes fully stepped to the horizon (ok + degraded outcomes).
    pub homes_stepped: Counter,
    /// Homes truncated by the step event budget (degraded outcomes).
    pub homes_degraded: Counter,
    /// Homes that panicked past their retry budget (failed outcomes).
    pub homes_run_failed: Counter,
    /// Homes that failed to build (shipped to the aggregator as
    /// build-failed rows instead of panicking the worker).
    pub homes_build_failed: Counter,
    /// Home-simulation panics caught by the per-home supervisor
    /// (includes panics that were later retried successfully).
    pub panics_caught: Counter,
    /// Re-attempts scheduled after a caught panic (within budget).
    pub retries: Counter,
    /// Retries abandoned early because the re-attempt panicked with the
    /// *identical* payload — a deterministic home will never recover, so
    /// the supervisor fails fast instead of burning the rest of its
    /// budget.
    pub retries_futile: Counter,
    /// Homes cut off by the per-home step event budget.
    pub deadline_truncations: Counter,
    /// Homes stamped per injected fault kind.
    pub faults_injected: FaultCounts,
    /// Evidence items ingested by worker-side bounded drains.
    pub evidence_drained: Counter,
    /// Evidence items aggregated into home stores over the whole run.
    pub evidence_total: Counter,
    /// Evidence items shed oldest-first by bounded per-home buses under
    /// overload.
    pub evidence_shed: Counter,
    /// Window summaries emitted by streamed homes (surviving their
    /// bounded window buffers). 0 in batch mode.
    pub windows_emitted: Counter,
    /// Window summaries shed oldest-first by bounded per-home window
    /// buffers. 0 in batch mode.
    pub windows_shed: Counter,
    /// Onboarding join handshakes run (one per stamped home when the
    /// spec onboards; 0 otherwise).
    pub onboard_joins: Counter,
    /// Joins the gateway resource server admitted.
    pub onboard_admitted: Counter,
    /// Joins denied (expired/replayed/bad-seal/infeasible/...).
    pub onboard_denied: Counter,
    /// CoAP retransmissions across every join handshake.
    pub onboard_retransmissions: Counter,
    /// Campaign firmware updates applied by device-layer stores.
    pub campaign_updates_applied: Counter,
    /// Campaign firmware offers rejected by device-layer verification.
    pub campaign_updates_rejected: Counter,
    /// Rollback commands applied after a campaign health-gate halt.
    pub campaign_rollbacks: Counter,
    /// Quarantine commands issued after a campaign health-gate halt.
    pub campaign_quarantines: Counter,
    /// Config-drift mismatches the periodic audit detected.
    pub config_drift_detected: Counter,
    /// Config remediations applied by the audit.
    pub config_remediations: Counter,
    /// Worker threads the engine actually spawned: the spec's worker
    /// count clamped to the machine's available parallelism
    /// (oversubscribing cores only adds contention).
    pub workers_effective: Gauge,
    /// Region-aggregator instances the logical region slots were
    /// sharded across.
    pub regions: Gauge,
    /// Candidate deviants the region tier forwarded to the global pass.
    pub region_candidates: Counter,
    /// Run-snapshot generations written durably (tmp + rename).
    pub snapshots_written: Counter,
    /// Total bytes across all run-snapshot generations written.
    pub snapshot_bytes: Counter,
    /// Runs restored from a durable run snapshot (0 or 1 per run).
    pub resumes: Counter,
    /// Stream epochs replayed after restore (or the full epoch count
    /// when no usable snapshot existed and the run restarted).
    pub replayed_epochs: Counter,
    /// Region-shard consume panics caught by the supervised collector
    /// (each one tears its region, which is then rebuilt from the spec).
    pub shard_panics: Counter,
    /// Home reports received by the aggregator.
    pub reports_received: Counter,
    /// Report-channel messages (each of up to 32 homes) sent and not
    /// yet received, sampled by a worker at each send before counting
    /// its own: the queued messages plus those of other blocked
    /// senders, so at most `2 + workers - 1`.
    pub report_channel_depth: Gauge,
    /// Per-home build time (µs).
    pub build_us: Histogram,
    /// Per-home simulation time to horizon (µs).
    pub step_us: Histogram,
    /// Per-home summary-extraction time (µs).
    pub report_us: Histogram,
    /// Cross-home aggregation time (µs) — one observation per run. The
    /// onboarding join phase, computed before the homes run, is not
    /// included.
    pub aggregate_us: Histogram,
}

impl FleetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes every counter/gauge/histogram as one JSON object,
    /// schema version [`FLEET_METRICS_SCHEMA_VERSION`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"homes_stepped\":{},\"homes_degraded\":{},\
             \"homes_run_failed\":{},\"homes_build_failed\":{},\"panics_caught\":{},\
             \"retries\":{},\"retries_futile\":{},\"deadline_truncations\":{},\
             \"evidence_drained\":{},\"evidence_total\":{},\"evidence_shed\":{},\
             \"windows_emitted\":{},\"windows_shed\":{},\
             \"onboard_joins\":{},\"onboard_admitted\":{},\"onboard_denied\":{},\
             \"onboard_retransmissions\":{},\
             \"campaign_updates_applied\":{},\"campaign_updates_rejected\":{},\
             \"campaign_rollbacks\":{},\"campaign_quarantines\":{},\
             \"config_drift_detected\":{},\"config_remediations\":{},\
             \"workers_effective\":{},\"regions\":{},\"region_candidates\":{},\
             \"snapshots_written\":{},\"snapshot_bytes\":{},\"resumes\":{},\
             \"replayed_epochs\":{},\"shard_panics\":{},\
             \"reports_received\":{},\"report_channel_depth\":{},\
             \"report_channel_high_water\":{},\"faults_injected\":{},\
             \"build\":{},\"step\":{},\"report\":{},\"aggregate\":{}}}",
            FLEET_METRICS_SCHEMA_VERSION,
            self.homes_stepped.get(),
            self.homes_degraded.get(),
            self.homes_run_failed.get(),
            self.homes_build_failed.get(),
            self.panics_caught.get(),
            self.retries.get(),
            self.retries_futile.get(),
            self.deadline_truncations.get(),
            self.evidence_drained.get(),
            self.evidence_total.get(),
            self.evidence_shed.get(),
            self.windows_emitted.get(),
            self.windows_shed.get(),
            self.onboard_joins.get(),
            self.onboard_admitted.get(),
            self.onboard_denied.get(),
            self.onboard_retransmissions.get(),
            self.campaign_updates_applied.get(),
            self.campaign_updates_rejected.get(),
            self.campaign_rollbacks.get(),
            self.campaign_quarantines.get(),
            self.config_drift_detected.get(),
            self.config_remediations.get(),
            self.workers_effective.get(),
            self.regions.get(),
            self.region_candidates.get(),
            self.snapshots_written.get(),
            self.snapshot_bytes.get(),
            self.resumes.get(),
            self.replayed_epochs.get(),
            self.shard_panics.get(),
            self.reports_received.get(),
            self.report_channel_depth.get(),
            self.report_channel_depth.high_water(),
            self.faults_injected.to_json(),
            self.build_us.to_json(),
            self.step_us.to_json(),
            self.report_us.to_json(),
            self.aggregate_us.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = FleetMetrics::new();
        m.homes_stepped.inc();
        m.homes_stepped.add(4);
        assert_eq!(m.homes_stepped.get(), 5);
        m.report_channel_depth.set(3);
        m.report_channel_depth.set(1);
        assert_eq!(m.report_channel_depth.get(), 1);
        assert_eq!(m.report_channel_depth.high_water(), 3);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        let h = Histogram::default();
        h.observe(50); // → first bucket (<= 100)
        h.observe(2_000); // → <= 3162
        h.observe(5_000_000); // → overflow
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 5_002_050);
        let json = h.to_json();
        assert!(json.contains("\"count\":3"), "{json}");
        assert!(json.contains("+Inf"), "{json}");
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let m = FleetMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.homes_stepped.inc();
                        m.build_us.observe(10);
                    }
                });
            }
        });
        assert_eq!(m.homes_stepped.get(), 4000);
        assert_eq!(m.build_us.count(), 4000);
    }

    #[test]
    fn metrics_json_is_well_formed_enough() {
        let m = FleetMetrics::new();
        m.evidence_drained.add(12);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"evidence_drained\":12"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }

    #[test]
    fn fault_counts_bucket_by_kind_in_stable_order() {
        let m = FleetMetrics::new();
        m.faults_injected.inc(FleetFault::WanFlap);
        m.faults_injected.inc(FleetFault::WanFlap);
        m.faults_injected.inc(FleetFault::ChaosPanic);
        assert_eq!(m.faults_injected.get(FleetFault::WanFlap), 2);
        assert_eq!(m.faults_injected.get(FleetFault::None), 0);
        let json = m.to_json();
        assert!(
            json.contains(
                "\"faults_injected\":{\"none\":0,\"wan-flap\":2,\"cloud-outage\":0,\
                 \"wan-degrade\":0,\"device-crash\":0,\"gateway-skew\":0,\"chaos-panic\":1,\
                 \"radio-jam\":0}"
            ),
            "{json}"
        );
    }
}
