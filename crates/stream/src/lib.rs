//! Incremental windowed fleet correlation — the XLF Core run as an
//! *online* detection service rather than a post-hoc batch pass.
//!
//! The paper's Figure 4 places the Core between the layers *as traffic
//! flows*: correlation is meant to be continuous. The fleet tier's batch
//! aggregator only correlates once every home has reached the horizon;
//! this crate closes that gap. Homes emit per-window
//! [`WindowSummary`] feature deltas (behaviour / evidence / verdict
//! movement over `N` simulated seconds) through a bounded,
//! shed-accounted [`WindowBuffer`] and keep them, exactly packed, in a
//! [`WindowLog`] until the fleet's stream pass reads them; a
//! [`StreamCorrelator`] folds them into online robust statistics
//! (streaming median + MAD per feature, exactly mergeable across
//! windows — [`RobustAccumulator`]) and re-runs the kNN +
//! label-propagation community pass incrementally each epoch
//! (seeding propagation from the previous epoch's labels), so fleet
//! alerts fire mid-run with epoch-stamped dedup instead of at the
//! horizon.
//!
//! Everything is deterministic in the same sense as the rest of the
//! workspace: epochs are simulated-time barriers, summaries are folded
//! in home-id order regardless of arrival order, and there is no wall
//! clock anywhere. On top of that the correlator supports
//! **checkpoint/resume**: [`StreamCorrelator::checkpoint_into`] appends
//! the full correlator state at an epoch boundary to a byte-deterministic
//! [`Writer`] and [`StreamCorrelator::restore_from`] continues from a
//! [`Reader`] over those bytes such that the resumed run is
//! byte-identical to an uninterrupted one. The fleet's `XLFR` run
//! snapshot is the only framing: it writes the correlator inline and
//! carries the magic, version and checksum.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod correlate;
pub mod stats;
pub mod window;

pub use checkpoint::{CheckpointError, Reader, Writer};
pub use correlate::{
    EpochRecord, StreamCorrelator, StreamOutcome, GRAPH_GAMMA, GRAPH_ITERS, GRAPH_K, MIN_DEVIATION,
    SIGMA,
};
pub use stats::RobustAccumulator;
pub use window::{feature, WindowBuffer, WindowLog, WindowSummary, STREAM_FEATURES};
