//! # xlf-fleet — sharded multi-home fleet orchestration
//!
//! The paper deploys XLF per home but argues its real power is the
//! *group*: "the knowledge obtained from the group of smart homes is
//! used to detect deviations" (§IV-D). This crate productionizes that
//! tier. It stamps N independent homes (each a full xlf-simnet +
//! xlf-core deployment with its own derived seed) from one master seed,
//! shards them across a worker-thread pool under per-home supervision,
//! and correlates the per-home summaries with graph-based community
//! learning to flag deviant homes fleet-wide.
//!
//! Pipeline:
//!
//! 1. [`FleetSpec`] + [`HomeTemplate`]s → [`FleetSpec::stamp_one`]
//!    derives a [`HomeSpec`] per home id (template, attack, fault, seed)
//!    by pure hashing.
//! 2. [`run_fleet`]'s `workers` threads claim home ids from one atomic
//!    counter and stamp each home as they claim it; each worker builds
//!    its homes locally (a home's Core is `Rc`-shared and never crosses
//!    threads), steps them in slices with bounded evidence drains —
//!    under `catch_unwind` supervision with bounded retries and optional
//!    step event budgets — and ships [`HomeOutcome`]s back to the
//!    region tier over a bounded `std::sync::mpsc::sync_channel`, in
//!    messages of up to 32 homes, so one thread wake carries many
//!    homes.
//! 3. [`FleetAggregator`] sorts the outcomes, correlates the completed
//!    homes with [`xlf_analytics::graph::community_report_into`], quarantines
//!    degraded/failed homes into their own report sections under the
//!    conservation law `ok + degraded + failed + build_failed == homes`,
//!    flags deviants, and publishes fleet alerts through the standard
//!    alert pipeline.
//! 4. [`FleetMetrics`] (atomic counters / gauges / histograms, zero new
//!    dependencies) records throughput, stage latencies, supervision
//!    counters, and the injected-fault histogram, dumpable as JSON.
//!    Wall-clock lives only there: the [`FleetReport`] itself is
//!    byte-identical for any worker count — with or without faults.
//! 5. Durability ([`snapshot`], [`chaos`]): with a
//!    [`FleetSpec::with_run_snapshot_every`] policy the run cuts
//!    versioned `XLFR` generations atomically (the full aggregation-tier
//!    state: region slots, correlator, campaign engines, auditor,
//!    command bus); [`run_fleet_resume`] restores the newest good
//!    generation and replays only the post-snapshot epochs, producing a
//!    report **byte-identical** to the uninterrupted run. The chaos
//!    harness ([`run_fleet_chaos`], [`chaos::run_killed_and_resumed`])
//!    proves it at every deterministic kill point.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod chaos;
pub mod engine;
pub mod metrics;
pub mod onboard;
pub mod region;
pub mod snapshot;
pub mod spec;
pub mod supervise;

pub use aggregate::{
    DegradedHome, FleetAggregator, FleetHomeRow, FleetReport, FleetTotals, MgmtSection,
    StreamSection, FLEET_REPORT_SCHEMA_VERSION,
};
pub use chaos::{kill_points, run_killed_and_resumed, scratch_dir};
pub use engine::{
    build_home, run_fleet, run_fleet_chaos, run_fleet_resume, run_home, HomeBuildError, HomeStream,
};
pub use metrics::{
    Counter, FaultCounts, FleetMetrics, Gauge, Histogram, FLEET_METRICS_SCHEMA_VERSION,
};
pub use onboard::{join_attack_for, join_for, OnboardClassRow, OnboardSection};
pub use region::{RegionAggregator, RegionSummary};
pub use snapshot::{
    KillPoint, RunSnapshotPolicy, SnapshotError, SnapshotIdentity, RUN_SNAPSHOT_MAGIC,
    RUN_SNAPSHOT_VERSION,
};
pub use spec::{
    FleetAttack, FleetFault, FleetSpec, HomeSpec, HomeTemplate, RowPolicy, SpecError,
    FLEET_FAULT_KINDS,
};
pub use supervise::{FleetError, HomeOutcome, HomeRunError, ShardError};
pub use xlf_mgmt::{
    CampaignReport, CampaignSpec, ConfigAuditReport, ConfigAuditSpec, HealthGate, WaveReport,
};
pub use xlf_onboard::{DenyCause, JoinAttack, JoinResult, OnboardingSpec, DENY_CAUSES};
