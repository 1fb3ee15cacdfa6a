//! Supervision types for fault-tolerant fleet execution: every home run
//! ends in exactly one [`HomeOutcome`], and a completed fleet satisfies
//! the conservation law `ok + degraded + failed + build_failed == homes`
//! — a fleet that silently loses homes looks healthier than it is.

use crate::engine::HomeBuildError;
use crate::snapshot::{KillPoint, SnapshotError};
use crate::spec::SpecError;
use std::fmt;
use xlf_core::framework::HomeReport;

/// A home whose simulation panicked on every attempt its retry budget
/// allowed. The panic payload is captured verbatim (it is deterministic
/// for a deterministic home, so retries of a genuinely-broken home fail
/// identically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeRunError {
    /// Fleet-wide id of the home.
    pub home: u64,
    /// Total attempts made (first run + retries).
    pub attempts: u32,
    /// Stable name of the fault the home was stamped with.
    pub fault: &'static str,
    /// The captured panic message.
    pub panic: String,
}

impl fmt::Display for HomeRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "home {} panicked on all {} attempts (fault {}): {}",
            self.home, self.attempts, self.fault, self.panic
        )
    }
}

impl std::error::Error for HomeRunError {}

/// How one home's supervised run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum HomeOutcome {
    /// Ran to the horizon; full report.
    Ok {
        /// The home's summary.
        report: HomeReport,
        /// Traffic-analysis accuracy for `TrafficObserver` homes.
        observer_accuracy: Option<f64>,
    },
    /// Exceeded its step event budget: truncated mid-run, summarized
    /// from whatever evidence it had drained by then.
    Degraded {
        /// The (partial) summary.
        report: HomeReport,
        /// Traffic-analysis accuracy for `TrafficObserver` homes.
        observer_accuracy: Option<f64>,
        /// Simulation events processed before truncation.
        events_used: u64,
    },
    /// Panicked on every attempt in the retry budget.
    Failed(HomeRunError),
    /// Never got a simulation: structural build error.
    BuildFailed(HomeBuildError),
}

impl HomeOutcome {
    /// Stable accounting label: `ok`/`degraded`/`failed`/`build-failed`.
    pub fn label(&self) -> &'static str {
        match self {
            HomeOutcome::Ok { .. } => "ok",
            HomeOutcome::Degraded { .. } => "degraded",
            HomeOutcome::Failed(_) => "failed",
            HomeOutcome::BuildFailed(_) => "build-failed",
        }
    }

    /// The home report, when one exists (ok and degraded homes).
    pub fn report(&self) -> Option<&HomeReport> {
        match self {
            HomeOutcome::Ok { report, .. } | HomeOutcome::Degraded { report, .. } => Some(report),
            _ => None,
        }
    }
}

/// A fleet run that could not complete. Distinct from per-home failures
/// (those become report rows): these mean the *engine itself* lost work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The spec describes no runnable fleet (see
    /// [`crate::FleetSpec::check`]); refused before any home ran.
    Spec(SpecError),
    /// A worker thread itself panicked outside the per-home supervisor
    /// (the supervisor catches home panics, so this is engine-level).
    WorkerPanic(String),
    /// Conservation violation: outcomes collected != homes stamped.
    Accounting {
        /// Homes the spec stamped.
        expected: usize,
        /// Outcomes the aggregator received.
        accounted: usize,
    },
    /// The chaos harness killed the run at the named point (see
    /// [`crate::run_fleet_chaos`]). Not a failure: the durable state to
    /// resume from is on disk, and [`crate::run_fleet_resume`] picks the
    /// run back up.
    ChaosKilled(KillPoint),
    /// A run snapshot could not be written (resume-side read problems
    /// never surface here — the loader falls back to an earlier
    /// generation or a full re-run).
    Snapshot(SnapshotError),
    /// A torn region's deterministic rebuild *also* panicked — a genuine
    /// aggregation bug, reported with the original shard panic.
    ShardRebuild(ShardError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spec(e) => write!(f, "invalid fleet spec: {e}"),
            FleetError::WorkerPanic(msg) => write!(f, "fleet worker thread panicked: {msg}"),
            FleetError::Accounting {
                expected,
                accounted,
            } => write!(
                f,
                "home accounting violated: {accounted} outcomes for {expected} homes"
            ),
            FleetError::ChaosKilled(at) => write!(f, "chaos kill point reached: {at}"),
            FleetError::Snapshot(e) => write!(f, "run snapshot failed: {e}"),
            FleetError::ShardRebuild(e) => {
                write!(f, "region rebuild failed after shard panic: {e}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One supervised region-shard panic, captured by the collector: which
/// shard and logical region tore, on which home, with the payload. The
/// engine rebuilds the torn region deterministically, so these are
/// diagnostics, not failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Region-aggregator shard index that panicked.
    pub shard: usize,
    /// Logical region whose slot state was torn.
    pub region: u32,
    /// Home being consumed when the panic fired.
    pub home: u64,
    /// The captured panic message.
    pub panic: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region shard {} panicked consuming home {} (region {}): {}",
            self.shard, self.home, self.region, self.panic
        )
    }
}

impl std::error::Error for ShardError {}

/// Renders a `catch_unwind` payload as a stable string (`&str` and
/// `String` payloads verbatim, anything else a fixed placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_are_extracted_from_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(p), "boom 7");
        let p = std::panic::catch_unwind(|| panic!("static boom")).unwrap_err();
        assert_eq!(panic_message(p), "static boom");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }

    #[test]
    fn outcome_labels_are_stable() {
        let err = HomeRunError {
            home: 3,
            attempts: 2,
            fault: "chaos-panic",
            panic: "x".into(),
        };
        assert_eq!(HomeOutcome::Failed(err.clone()).label(), "failed");
        assert!(HomeOutcome::Failed(err.clone()).report().is_none());
        assert!(err.to_string().contains("all 2 attempts"));
        let build = HomeBuildError {
            home: 1,
            reason: "r".into(),
        };
        assert_eq!(HomeOutcome::BuildFailed(build).label(), "build-failed");
    }
}
