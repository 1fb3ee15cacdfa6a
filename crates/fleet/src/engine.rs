//! The sharded fleet execution engine: a crossbeam channel-fed worker
//! pool. Home specs flow down an unbounded MPMC job channel; each worker
//! builds its homes locally (a home's Core is `Rc`-shared and never
//! crosses threads), steps their event loops in slices, drains their
//! evidence buses between slices with a bounded batch, and ships the
//! finished [`HomeOutcome`]s to the aggregator over a *bounded* channel —
//! a slow aggregator back-pressures the workers instead of buffering
//! unboundedly.
//!
//! **Supervision.** Every home attempt runs under `catch_unwind`: a
//! panicking home becomes a structured [`HomeRunError`] row instead of
//! poisoning its worker's scoped-thread join. Panicked homes get
//! `retry_budget` re-attempts with deterministic attempt-count backoff
//! (a failed home goes to the back of its worker's retry queue, behind
//! all fresh work), and a home that exceeds its step event budget is
//! truncated and reported `degraded` with whatever evidence it drained.
//!
//! Determinism: each home's simulation depends only on its stamped seed
//! and fault plan, and the aggregator sorts outcomes by home id before
//! correlating, so the fleet report is byte-identical for any worker
//! count — with or without faults.

use crate::aggregate::{FleetAggregator, FleetReport};
use crate::metrics::FleetMetrics;
use crate::region::RegionAggregator;
use crate::snapshot::{KillPoint, ResumePhase, RunCtx, SnapshotError, SnapshotIdentity};
use crate::spec::{FleetAttack, FleetFault, FleetSpec, HomeSpec, HomeTemplate, LEARNING_END_S};
use crate::supervise::{panic_message, FleetError, HomeOutcome, HomeRunError, ShardError};
use crossbeam::channel::{Receiver, Sender};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use xlf_attacks::observer::TrafficAnalyst;
use xlf_attacks::scripted;
use xlf_core::framework::{HomeKit, HomeProbe, HomeReport, HomeRunner, XlfHome};
use xlf_simnet::observer::PacketRecord;
use xlf_simnet::{Context, Duration, FaultPlan, Node, SimTime};
use xlf_stream::{WindowBuffer, WindowSummary, STREAM_FEATURES};

/// A home that could not be built. Workers ship this to the aggregator
/// instead of panicking, so one malformed home degrades the fleet report
/// by one row rather than taking down its whole worker scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeBuildError {
    /// Fleet-wide id of the home that failed.
    pub home: u64,
    /// What went wrong (stable, human-readable).
    pub reason: String,
}

impl fmt::Display for HomeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "home {} failed to build: {}", self.home, self.reason)
    }
}

impl std::error::Error for HomeBuildError {}

const TIMER_CHAOS: u64 = 910;

/// When the chaos node panics its home's simulation (past the attack
/// window, so a chaos home has real work to lose).
const CHAOS_PANIC_AT_S: u64 = 210;

/// Chaos node for [`FleetFault::ChaosPanic`]: deterministically panics
/// the home's simulation at a scheduled sim-time, exercising the
/// supervisor's catch_unwind + retry path end to end.
struct PanicNode {
    home: u64,
}

impl Node for PanicNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(CHAOS_PANIC_AT_S), TIMER_CHAOS);
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: u64) {
        if tag == TIMER_CHAOS {
            panic!(
                "chaos-panic: injected simulation fault in home {}",
                self.home
            );
        }
    }
}

/// The fault plan a stamped [`FleetFault`] expands to for one concrete
/// home. Timings are fixed relative to the scenario (learning ends at
/// 120 s, attacks fire at 180 s) so faults overlap the interesting
/// windows.
fn fault_plan_for(home: &XlfHome, fault: FleetFault) -> FaultPlan {
    let gw = home.gateway;
    let cloud = home.cloud;
    let s = SimTime::from_secs;
    let d = Duration::from_secs;
    match fault {
        FleetFault::None | FleetFault::ChaosPanic => FaultPlan::new(),
        FleetFault::WanFlap => FaultPlan::new()
            .link_flap(gw, cloud, s(150), d(10))
            .link_flap(gw, cloud, s(210), d(10))
            .link_flap(gw, cloud, s(300), d(10)),
        FleetFault::CloudOutage => FaultPlan::new().link_flap(gw, cloud, s(170), d(110)),
        FleetFault::WanDegrade => {
            FaultPlan::new().burst_loss(gw, cloud, s(160), d(100), 0.3, Duration::from_millis(200))
        }
        FleetFault::DeviceCrash => match home.devices.values().next().copied() {
            Some(dev) => FaultPlan::new().node_crash(dev, s(200), Some(d(60))),
            None => FaultPlan::new(),
        },
        FleetFault::GatewaySkew => FaultPlan::new().clock_skew(gw, s(150), d(30)),
        FleetFault::RadioJam => match home.devices.values().next().copied() {
            Some(dev) => FaultPlan::new().radio_jam(dev, s(170), d(90)),
            None => FaultPlan::new(),
        },
    }
}

/// A built home plus the extra observation channel a passive
/// traffic-analysis attack needs.
struct BuiltHome {
    runner: HomeRunner,
    observer: Option<Rc<RefCell<Vec<PacketRecord>>>>,
}

/// Builds one home from its stamped spec: template device mix + config
/// (evidence bus bounded per [`FleetSpec::evidence_capacity`]), the
/// §IV-C3 automation recipe, the injected attacker, and the stamped
/// fault plan. A template index out of range comes back as a
/// [`HomeBuildError`] instead of a panic.
///
/// Every home of a template holds the template's [`HomeKit`] (key
/// material, device stores, gateway tables and installed apps) by
/// reference; the first build of the template in `spec` derives it.
pub fn build_home(spec: &FleetSpec, hs: &HomeSpec) -> Result<HomeRunner, HomeBuildError> {
    build_home_inner(spec, hs).map(|b| b.runner)
}

fn build_home_inner(spec: &FleetSpec, hs: &HomeSpec) -> Result<BuiltHome, HomeBuildError> {
    build_home_with(spec, hs, |template| spec.kit(hs.template, template))
}

/// As [`build_home_inner`], with the home's kit taken from
/// `kit_of(template)` (tests pass a kit derived for the one home).
fn build_home_with(
    spec: &FleetSpec,
    hs: &HomeSpec,
    kit_of: impl FnOnce(&HomeTemplate) -> Arc<HomeKit>,
) -> Result<BuiltHome, HomeBuildError> {
    let template = spec
        .templates
        .get(hs.template)
        .ok_or_else(|| HomeBuildError {
            home: hs.id,
            reason: format!(
                "template index {} out of range ({} templates)",
                hs.template,
                spec.templates.len()
            ),
        })?;
    let mut config = template.config.clone();
    config.learning_period = Duration::from_secs(LEARNING_END_S);
    config.evidence_capacity = spec.evidence_capacity;
    let mut home = XlfHome::from_kit(hs.seed, config, &kit_of(template));

    if let Some(attack) = hs.attack.scripted() {
        scripted::install(&mut home.net, home.gateway, home.cloud, attack);
    }

    // A passive observer adds no nodes and no traffic — the home's
    // simulation is byte-identical to a benign one. The analyst is
    // scored on the tap records after the run.
    let observer = if hs.attack == FleetAttack::TrafficObserver {
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        home.net.add_tap(Box::new(tap));
        Some(records)
    } else {
        None
    };

    let plan = fault_plan_for(&home, hs.fault);
    if !plan.is_empty() {
        home.net.set_fault_plan(plan);
    }
    if hs.fault == FleetFault::ChaosPanic {
        home.net.add_node(Box::new(PanicNode { home: hs.id }));
    }

    Ok(BuiltHome {
        runner: HomeRunner::new(home),
        observer,
    })
}

/// Scores a passive traffic analyst on one home's tap records: trained
/// on the learning window (the adversary labeling their own devices'
/// traffic), judged on everything after it.
///
/// The records are split at the cut in place: a stable sort by time
/// keeps records of one instant in tap order, and the analyst orders
/// each side by stream and time (stably) anyway, so both sides see what
/// filtering copies of the records gave them.
fn observer_accuracy(mut records: Vec<PacketRecord>) -> f64 {
    let cut = SimTime::from_secs(LEARNING_END_S);
    records.sort_by_key(|r| r.at);
    let (train, test) = records.split_at(records.partition_point(|r| r.at <= cut));
    let mut analyst = TrafficAnalyst::new();
    analyst.train(train);
    analyst.accuracy(test)
}

/// The window summaries one home emitted through its bounded
/// [`WindowBuffer`], plus the buffer's shed accounting. Empty in batch
/// mode and for homes that never completed a window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HomeStream {
    /// Surviving window summaries, oldest first.
    pub windows: Vec<WindowSummary>,
    /// Windows shed oldest-first by the bounded buffer.
    pub shed: u64,
}

/// One finished attempt (the simulation neither panicked nor failed to
/// build; it may still have been truncated by the event budget).
struct AttemptSummary {
    report: HomeReport,
    observer_accuracy: Option<f64>,
    events_used: u64,
    truncated: bool,
    stream: HomeStream,
}

/// The per-window feature delta between two cumulative probes (see
/// [`xlf_stream::STREAM_FEATURES`] for the dimension order).
fn probe_delta(prev: &HomeProbe, now: &HomeProbe) -> [f64; STREAM_FEATURES] {
    [
        now.evidence_total.saturating_sub(prev.evidence_total) as f64,
        now.evidence_by_layer[0].saturating_sub(prev.evidence_by_layer[0]) as f64,
        now.evidence_by_layer[1].saturating_sub(prev.evidence_by_layer[1]) as f64,
        now.evidence_by_layer[2].saturating_sub(prev.evidence_by_layer[2]) as f64,
        now.warning_alerts.saturating_sub(prev.warning_alerts) as f64,
        now.critical_alerts.saturating_sub(prev.critical_alerts) as f64,
        now.forwarded.saturating_sub(prev.forwarded) as f64,
        now.dropped_packets.saturating_sub(prev.dropped_packets) as f64,
        now.wire_bytes.saturating_sub(prev.wire_bytes) as f64,
        now.packets.saturating_sub(prev.packets) as f64,
    ]
}

/// One stop on a home's run schedule: run to `at_us`, then drain
/// (slice end), close a window (window boundary), or both.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at_us: u64,
    drain: bool,
    window_end: bool,
}

/// Merges the batch slice deadlines (drain points) with the streaming
/// window boundaries (probe points) into one ascending schedule.
/// Running to an *extra* intermediate deadline never changes a
/// discrete-event simulation's event sequence, and drains still happen
/// exactly at the batch slice ends — so a streamed run replays the batch
/// run byte-for-byte and the probes are pure observation.
fn run_schedule(spec: &FleetSpec) -> Vec<Deadline> {
    let horizon_us = spec.horizon.as_micros();
    let slices = spec.slices.max(1) as u64;
    let interval_us = spec
        .correlation_interval
        .unwrap_or(0)
        .saturating_mul(1_000_000);
    let mut deadlines: Vec<Deadline> = (1..=slices)
        .map(|i| Deadline {
            at_us: horizon_us * i / slices,
            drain: true,
            window_end: false,
        })
        .collect();
    for w in 1..=spec.stream_epochs() {
        let at_us = (interval_us * w).min(horizon_us);
        match deadlines.iter_mut().find(|d| d.at_us == at_us) {
            Some(d) => d.window_end = true,
            None => deadlines.push(Deadline {
                at_us,
                drain: false,
                window_end: true,
            }),
        }
    }
    deadlines.sort_by_key(|d| d.at_us);
    deadlines
}

/// Runs one home to the fleet horizon in evidence-bounded slices,
/// closing a probe-delta window at every correlation boundary when the
/// spec streams. Panics from the home's simulation propagate to the
/// supervisor.
fn attempt_home(
    spec: &FleetSpec,
    hs: &HomeSpec,
    metrics: &FleetMetrics,
) -> Result<AttemptSummary, HomeBuildError> {
    let t0 = Instant::now();
    let built = build_home_inner(spec, hs)?;
    metrics.build_us.observe(t0.elapsed().as_micros() as u64);
    let mut runner = built.runner;

    let t1 = Instant::now();
    let horizon_us = spec.horizon.as_micros();
    let budget = spec.step_event_budget.unwrap_or(u64::MAX);
    let streaming = spec.correlation_interval.is_some();
    let mut buffer = WindowBuffer::new(spec.window_capacity);
    let mut last_probe = if streaming {
        runner.probe()
    } else {
        HomeProbe::default()
    };
    let mut windows_done = 0u64;
    let mut events_used = 0u64;
    let mut truncated = false;
    for deadline in run_schedule(spec) {
        let (n, t) = runner.run_until_capped(
            SimTime::from_micros(deadline.at_us),
            budget.saturating_sub(events_used),
        );
        events_used += n;
        if deadline.drain {
            // Bounded local drain: one chatty home ingests at most
            // `drain_batch` items per slice; the rest stays queued. A
            // truncated home still drains — degraded mode reports
            // whatever evidence survived.
            let drained = runner
                .home()
                .core
                .borrow_mut()
                .drain_pending(spec.drain_batch);
            metrics.evidence_drained.add(drained as u64);
        }
        if t {
            truncated = true;
            break;
        }
        if deadline.window_end {
            let probe = runner.probe();
            buffer.push(WindowSummary {
                home: hs.id,
                window: windows_done,
                partial: false,
                features: probe_delta(&last_probe, &probe),
            });
            last_probe = probe;
            windows_done += 1;
        }
    }
    // A home truncated mid-window still contributes its final fragment —
    // marked partial so the stream pass annotates the home — but only
    // when it completed at least one whole window (a home cut down in
    // window 0 stays quarantine-only).
    if streaming && truncated && windows_done >= 1 && windows_done < spec.stream_epochs() {
        let probe = runner.probe();
        buffer.push(WindowSummary {
            home: hs.id,
            window: windows_done,
            partial: true,
            features: probe_delta(&last_probe, &probe),
        });
    }
    metrics.step_us.observe(t1.elapsed().as_micros() as u64);

    let t2 = Instant::now();
    let report = runner.finish(SimTime::from_micros(horizon_us));
    metrics.report_us.observe(t2.elapsed().as_micros() as u64);
    let observer_accuracy = built
        .observer
        .map(|records| observer_accuracy(records.take()));
    let (windows, shed) = buffer.into_parts();
    metrics.windows_emitted.add(windows.len() as u64);
    metrics.windows_shed.add(shed);
    Ok(AttemptSummary {
        report,
        observer_accuracy,
        events_used,
        truncated,
        stream: HomeStream { windows, shed },
    })
}

/// What the supervisor decided after one attempt. One instance lives
/// on a worker's stack per attempt, so the variant size gap is moot.
#[allow(clippy::large_enum_variant)]
enum Supervised {
    /// Terminal: ship this outcome (plus any windows the final
    /// successful attempt streamed — a retried attempt's windows die
    /// with the attempt, so retries never double-emit).
    Done(HomeOutcome, HomeStream),
    /// The attempt panicked with retry budget left: try again later.
    /// Carries the panic message so the next attempt can detect a
    /// futile (identical) re-panic.
    Retry(String),
}

/// One supervised attempt: `catch_unwind` around the whole build+step
/// so a panicking home becomes data, not a dead worker. `attempts_done`
/// counts *previous* failed attempts of this home; `prev_panic` is the
/// previous attempt's panic message, if any. A home is deterministic in
/// its stamp, so a retry that panics with the *identical* payload is
/// futile — the supervisor fails it fast (counted `retries_futile`)
/// instead of burning the rest of the budget. Fault-kind transients
/// (payloads that differ across attempts) keep their full budget.
fn supervised_attempt(
    spec: &FleetSpec,
    hs: &HomeSpec,
    attempts_done: u32,
    prev_panic: Option<&str>,
    metrics: &FleetMetrics,
) -> Supervised {
    match catch_unwind(AssertUnwindSafe(|| attempt_home(spec, hs, metrics))) {
        Ok(Ok(attempt)) => {
            metrics.homes_stepped.inc();
            metrics
                .evidence_total
                .add(attempt.report.evidence_total as u64);
            metrics.evidence_shed.add(attempt.report.evidence_shed);
            if attempt.truncated {
                metrics.deadline_truncations.inc();
                metrics.homes_degraded.inc();
                Supervised::Done(
                    HomeOutcome::Degraded {
                        report: attempt.report,
                        observer_accuracy: attempt.observer_accuracy,
                        events_used: attempt.events_used,
                    },
                    attempt.stream,
                )
            } else {
                Supervised::Done(
                    HomeOutcome::Ok {
                        report: attempt.report,
                        observer_accuracy: attempt.observer_accuracy,
                    },
                    attempt.stream,
                )
            }
        }
        Ok(Err(build)) => {
            metrics.homes_build_failed.inc();
            Supervised::Done(HomeOutcome::BuildFailed(build), HomeStream::default())
        }
        Err(payload) => {
            metrics.panics_caught.inc();
            let attempts = attempts_done + 1;
            let panic = panic_message(payload);
            let futile = prev_panic == Some(panic.as_str());
            if futile {
                metrics.retries_futile.inc();
            }
            if futile || attempts > spec.retry_budget {
                metrics.homes_run_failed.inc();
                Supervised::Done(
                    HomeOutcome::Failed(HomeRunError {
                        home: hs.id,
                        attempts,
                        fault: hs.fault.name(),
                        panic,
                    }),
                    HomeStream::default(),
                )
            } else {
                metrics.retries.inc();
                Supervised::Retry(panic)
            }
        }
    }
}

fn worker_loop(
    spec: &FleetSpec,
    jobs: Receiver<HomeSpec>,
    results: Sender<(HomeSpec, HomeOutcome, HomeStream)>,
    metrics: &FleetMetrics,
) {
    // Deterministic attempt-count backoff: a panicked home waits at the
    // back of this queue behind every fresh job (and every earlier
    // retry) its worker still has — no wall-clock involved.
    let mut retries: VecDeque<(HomeSpec, u32, String)> = VecDeque::new();
    loop {
        let (hs, attempts_done, prev_panic) = match jobs.recv() {
            Ok(hs) => (hs, 0, None),
            Err(_) => match retries.pop_front() {
                Some((hs, attempts, panic)) => (hs, attempts, Some(panic)),
                None => break,
            },
        };
        match supervised_attempt(spec, &hs, attempts_done, prev_panic.as_deref(), metrics) {
            Supervised::Done(outcome, stream) => {
                metrics.report_channel_depth.set(results.len() as u64);
                if results.send((hs, outcome, stream)).is_err() {
                    // Aggregator gone — nothing left to do.
                    break;
                }
            }
            Supervised::Retry(panic) => retries.push_back((hs, attempts_done + 1, panic)),
        }
    }
}

/// Runs the whole fleet: stamps the homes, shards them across
/// `spec.workers` threads under per-home supervision, aggregates the
/// outcomes into the fleet report. `metrics` is updated live from every
/// worker. Returns an error only when the *engine* lost work (worker
/// thread panic outside the supervisor, accounting violation) or a
/// configured run snapshot could not be written — per-home failures are
/// rows in the report, not errors.
pub fn run_fleet(spec: &FleetSpec, metrics: &FleetMetrics) -> Result<FleetReport, FleetError> {
    run_fleet_inner(spec, metrics, None)
}

/// Runs the fleet but aborts deterministically at `kill` (after all
/// homes, or at the top of a stream epoch), returning
/// [`FleetError::ChaosKilled`] once the kill point is reached. With a
/// [`FleetSpec::run_snapshot`] policy set, the durable state cut before
/// the kill lets [`run_fleet_resume`] finish the run byte-identically —
/// the chaos harness's whole premise (see [`crate::chaos`]).
pub fn run_fleet_chaos(
    spec: &FleetSpec,
    metrics: &FleetMetrics,
    kill: KillPoint,
) -> Result<FleetReport, FleetError> {
    run_fleet_inner(spec, metrics, Some(kill))
}

/// Resumes a killed (or completed) run from the newest good snapshot
/// generation in the spec's [`FleetSpec::run_snapshot`] directory:
/// restores the region slots and stream state, then replays only the
/// post-snapshot epochs. The report is byte-identical to an
/// uninterrupted [`run_fleet`] of the same spec. When no generation is
/// usable (missing, corrupted, or cut from a different spec), falls
/// back to a full deterministic re-run — correctness is never hostage
/// to the snapshot files.
pub fn run_fleet_resume(
    spec: &FleetSpec,
    metrics: &FleetMetrics,
) -> Result<FleetReport, FleetError> {
    let Some(policy) = spec.run_snapshot.as_ref() else {
        return Err(FleetError::Snapshot(SnapshotError::Io(
            "resume requires a run-snapshot policy on the spec".to_string(),
        )));
    };
    // Walk the generations newest-first. A file that fails to decode —
    // or whose embedded state fails to restore mid-pass — is skipped in
    // favour of the previous good one; when nothing is usable the run
    // falls back to a full deterministic re-run.
    for path in crate::snapshot::generation_paths(&policy.dir) {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let Ok(snap) = crate::snapshot::decode(&bytes, spec) else {
            continue;
        };
        let next_epoch = match &snap.resume {
            ResumePhase::HomesDone => 0,
            ResumePhase::Stream(s) => s.next_epoch,
        };
        // Resume never re-cuts snapshots (policy cleared): the on-disk
        // generations stay the authoritative history of the original
        // run.
        let mut ctx = RunCtx::new(SnapshotIdentity::of(spec), None, None, Some(snap.resume));
        let slots = snap.slots;
        match finish_aggregation(spec, metrics, &mut ctx, move |agg, ctx| {
            agg.aggregate_slots(slots, ctx)
        }) {
            Ok(report) => {
                metrics.resumes.inc();
                metrics
                    .replayed_epochs
                    .add(spec.stream_epochs().saturating_sub(next_epoch));
                return Ok(report);
            }
            // Deeper corruption (an engine or auditor blob that only
            // fails against the live objects): fall back a generation.
            Err(FleetError::Snapshot(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    metrics.replayed_epochs.add(spec.stream_epochs());
    run_fleet_inner(spec, metrics, None)
}

/// Re-runs one home to a terminal outcome — the same supervised attempt
/// loop a worker runs, inline. Used to rebuild a torn region shard.
fn rerun_home(
    spec: &FleetSpec,
    hs: &HomeSpec,
    metrics: &FleetMetrics,
) -> (HomeOutcome, HomeStream) {
    let mut attempts_done = 0u32;
    let mut prev_panic: Option<String> = None;
    loop {
        match supervised_attempt(spec, hs, attempts_done, prev_panic.as_deref(), metrics) {
            Supervised::Done(outcome, stream) => return (outcome, stream),
            Supervised::Retry(panic) => {
                attempts_done += 1;
                prev_panic = Some(panic);
            }
        }
    }
}

/// Runs the aggregation under `ctx` and flushes the pass's snapshot and
/// campaign tallies into `metrics` — shared by the straight-through,
/// chaos, and resume entry points.
fn finish_aggregation(
    spec: &FleetSpec,
    metrics: &FleetMetrics,
    ctx: &mut RunCtx,
    aggregate: impl FnOnce(FleetAggregator, &mut RunCtx) -> Result<FleetReport, FleetError>,
) -> Result<FleetReport, FleetError> {
    let t0 = Instant::now();
    let result = aggregate(FleetAggregator::new(spec), ctx);
    metrics
        .aggregate_us
        .observe(t0.elapsed().as_micros() as u64);
    // Snapshot accounting is flushed even when the pass was chaos-killed
    // — the durable files it cut are real.
    metrics.snapshots_written.add(ctx.snapshots_written);
    metrics.snapshot_bytes.add(ctx.snapshot_bytes);
    let report = result?;
    metrics
        .region_candidates
        .add(report.regions.iter().map(|r| r.candidates).sum());
    if let Some(mgmt) = &report.mgmt {
        use xlf_mgmt::CommandKind;
        metrics
            .campaign_updates_applied
            .add(mgmt.commands.applied(CommandKind::FirmwareUpdate));
        metrics
            .campaign_updates_rejected
            .add(mgmt.commands.rejected(CommandKind::FirmwareUpdate));
        metrics
            .campaign_rollbacks
            .add(mgmt.commands.applied(CommandKind::FirmwareRollback));
        metrics
            .campaign_quarantines
            .add(mgmt.commands.issued(CommandKind::Quarantine));
        metrics
            .config_remediations
            .add(mgmt.commands.applied(CommandKind::ConfigRemediate));
        if let Some(audit) = &mgmt.config_audit {
            metrics.config_drift_detected.add(audit.detected);
        }
    }
    Ok(report)
}

fn run_fleet_inner(
    spec: &FleetSpec,
    metrics: &FleetMetrics,
    kill: Option<KillPoint>,
) -> Result<FleetReport, FleetError> {
    let homes = spec.stamp();
    let n = homes.len();

    // Join phase: every home's secure-onboarding handshake runs before
    // any simulation steps. The outcome is a pure function of
    // `(OnboardingSpec, HomeSpec)`, so only the live metrics are charged
    // here — the aggregator recomputes the identical outcomes for the
    // report's `onboarding` section, keeping report bytes independent of
    // worker count.
    if let Some(ob) = spec.onboarding.as_ref() {
        let section = crate::onboard::OnboardSection::compute(ob, &homes);
        metrics.onboard_joins.add(section.joins);
        metrics.onboard_admitted.add(section.admitted);
        metrics.onboard_denied.add(section.denied);
        metrics.onboard_retransmissions.add(section.retransmissions);
    }

    let (job_tx, job_rx) = crossbeam::channel::unbounded::<HomeSpec>();
    for (sent, hs) in homes.into_iter().enumerate() {
        metrics.faults_injected.inc(hs.fault);
        if job_tx.send(hs).is_err() {
            return Err(FleetError::JobFeed { sent, homes: n });
        }
    }
    drop(job_tx); // workers exit once the queue runs dry

    // Oversubscribing the machine only adds contention (on a 1-core CI
    // container, enough to make the "sharded" run *slower* than the
    // baseline): spawn at most the available parallelism. The spec's
    // worker count is untouched — it stays part of the deterministic
    // stamp — only the spawn count is clamped.
    let workers = spec
        .workers
        .max(1)
        .min(std::thread::available_parallelism().map_or(1, |p| p.get()));
    metrics.workers_effective.set(workers as u64);

    // The region tier: each finished home is routed straight into its
    // logical region's shard, so the engine never holds the whole
    // fleet's outcomes in one vector.
    let instances = spec.regions.max(1);
    metrics.regions.set(instances as u64);
    let mut aggs: Vec<RegionAggregator> = (0..instances)
        .map(|i| RegionAggregator::new(spec, i, instances))
        .collect();
    let region_slots = spec.region_slots.max(1) as u32;

    type WorkerResult = (HomeSpec, HomeOutcome, HomeStream);
    let (report_tx, report_rx) =
        crossbeam::channel::bounded::<WorkerResult>(spec.report_capacity.max(1));

    let shards = &mut aggs;
    let (received, dirty, shard_errors) = crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let jobs = job_rx.clone();
            let results = report_tx.clone();
            s.spawn(move || worker_loop(spec, jobs, results, metrics));
        }
        // Drop the originals so the report channel disconnects once the
        // last worker finishes.
        drop(report_tx);
        drop(job_rx);

        // The collector supervises the region tier the way workers
        // supervise homes: a panicking `consume` (injected via
        // `shard_chaos`, or a genuine aggregation bug) becomes a
        // structured ShardError + a dirty region, never a dead run. A
        // dirty region's later arrivals are skipped — its torn slot is
        // discarded and the whole region rebuilt from the spec below.
        let mut chaos_armed = spec.shard_chaos.is_some();
        let mut dirty: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut shard_errors: Vec<ShardError> = Vec::new();
        let mut received = 0usize;
        while let Ok((hs, outcome, stream)) = report_rx.recv() {
            metrics.reports_received.inc();
            received += 1;
            let region = hs.region % region_slots;
            if dirty.contains(&region) {
                continue;
            }
            let shard = RegionAggregator::shard_of(region, instances);
            let home = hs.id;
            let inject = chaos_armed && spec.shard_chaos == Some(home);
            if inject {
                chaos_armed = false;
            }
            let consumed = catch_unwind(AssertUnwindSafe(|| {
                assert!(
                    !inject,
                    "shard-chaos: injected region-shard fault at home {home}"
                );
                shards[shard].consume(hs, outcome, stream);
            }));
            if let Err(payload) = consumed {
                metrics.shard_panics.inc();
                shard_errors.push(ShardError {
                    shard,
                    region,
                    home,
                    panic: panic_message(payload),
                });
                dirty.insert(region);
            }
        }
        (received, dirty, shard_errors)
    })
    .map_err(|payload| FleetError::WorkerPanic(panic_message(payload)))?;

    // Rebuild torn regions: discard the half-mutated slot and re-run
    // every one of the region's homes from the spec. Slot state is
    // arrival-order independent, so the rebuilt slot is byte-identical
    // to one that never tore — conservation and report bytes hold.
    for (i, &region) in dirty.iter().enumerate() {
        let shard = RegionAggregator::shard_of(region, instances);
        let rebuilt = catch_unwind(AssertUnwindSafe(|| {
            let _torn = aggs[shard].take_slot(region);
            for hs in spec.stamp() {
                if hs.region % region_slots != region {
                    continue;
                }
                let (outcome, stream) = rerun_home(spec, &hs, metrics);
                aggs[shard].consume(hs, outcome, stream);
            }
        }));
        if rebuilt.is_err() {
            // A region that tears twice is a genuine aggregation bug;
            // surface the original shard panic as the engine error.
            return Err(FleetError::ShardRebuild(shard_errors[i].clone()));
        }
    }

    // Conservation: every stamped home must come back as exactly one
    // outcome (`ok + degraded + failed + build_failed == homes`).
    if received != n {
        return Err(FleetError::Accounting {
            expected: n,
            accounted: received,
        });
    }

    let mut ctx = RunCtx::new(
        SnapshotIdentity::of(spec),
        spec.run_snapshot.clone(),
        kill,
        None,
    );
    finish_aggregation(spec, metrics, &mut ctx, move |agg, ctx| {
        agg.aggregate_regions_run(aggs, ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HomeTemplate;
    use xlf_core::alerts::Severity;

    fn home_spec(seed: u64, attack: FleetAttack) -> HomeSpec {
        HomeSpec {
            id: 0,
            seed,
            template: 0,
            attack,
            fault: FleetFault::None,
            region: 0,
        }
    }

    /// Test shim with the old `run_one_home` shape: one unsupervised
    /// attempt, report or build error.
    fn run_one_home(
        spec: &FleetSpec,
        hs: &HomeSpec,
        metrics: &FleetMetrics,
    ) -> Result<HomeReport, HomeBuildError> {
        match supervised_attempt(spec, hs, 0, None, metrics) {
            Supervised::Done(HomeOutcome::Ok { report, .. }, _)
            | Supervised::Done(HomeOutcome::Degraded { report, .. }, _) => Ok(report),
            Supervised::Done(HomeOutcome::BuildFailed(e), _) => Err(e),
            Supervised::Done(HomeOutcome::Failed(e), _) => panic!("unexpected run failure: {e}"),
            Supervised::Retry(_) => panic!("unexpected retry"),
        }
    }

    #[test]
    fn a_botnet_home_is_compromised_then_flagged_by_its_own_core() {
        let spec = FleetSpec::new(5, 1);
        let hs = home_spec(1, FleetAttack::BotnetRecruit);
        let metrics = FleetMetrics::new();
        let report = run_one_home(&spec, &hs, &metrics).expect("home builds");
        assert!(report.warning_alerts > 0, "report: {report:?}");
        assert_eq!(report.top_device, "cam");
        assert_eq!(metrics.homes_stepped.get(), 1);
        let _ = Severity::Warning;
    }

    #[test]
    fn benign_homes_stay_quiet() {
        let spec = FleetSpec::new(5, 1);
        let hs = home_spec(2, FleetAttack::None);
        let report = run_one_home(&spec, &hs, &FleetMetrics::new()).expect("home builds");
        assert_eq!(report.critical_alerts, 0);
        assert!(report.quarantined.is_empty());
        assert!(report.forwarded > 0);
    }

    #[test]
    fn a_replayed_command_is_denied_and_detected() {
        let spec = FleetSpec::new(5, 1);
        let hs = home_spec(3, FleetAttack::Replay);
        let report = run_one_home(&spec, &hs, &FleetMetrics::new()).expect("home builds");
        // Every replay is denied (dropped) and reported at the service
        // layer; the repeated denials push the window actuator over the
        // act threshold.
        assert!(report.critical_alerts > 0, "report: {report:?}");
        assert_eq!(report.top_device, "window");
        assert!(report.dropped_packets >= 10, "report: {report:?}");
    }

    #[test]
    fn dns_poisoning_is_rejected_by_the_hardened_resolver() {
        let spec = FleetSpec::new(5, 1);
        let hs = home_spec(4, FleetAttack::DnsPoison);
        let report = run_one_home(&spec, &hs, &FleetMetrics::new()).expect("home builds");
        // Off-path spoofs all miss the txid; each rejection is DnsBlocked
        // evidence at the network layer.
        assert!(report.critical_alerts > 0, "report: {report:?}");
        assert_eq!(report.top_device, "cam");
        assert!(report.dropped_packets >= 20, "report: {report:?}");
    }

    #[test]
    fn a_passive_observer_home_raises_no_alarms_but_scores_accuracy() {
        let spec = FleetSpec::new(5, 1);
        let hs = home_spec(6, FleetAttack::TrafficObserver);
        let metrics = FleetMetrics::new();
        let outcome = match supervised_attempt(&spec, &hs, 0, None, &metrics) {
            Supervised::Done(o, _) => o,
            Supervised::Retry(_) => panic!("unexpected retry"),
        };
        let HomeOutcome::Ok {
            report,
            observer_accuracy,
        } = outcome
        else {
            panic!("observer home must complete ok");
        };
        // Passive observation is invisible to the home's own Core...
        assert_eq!(report.critical_alerts, 0);
        // ...but the analyst got a score from the tap records.
        let acc = observer_accuracy.expect("observer homes are scored");
        assert!((0.0..=1.0).contains(&acc), "accuracy: {acc}");
    }

    #[test]
    fn a_chaos_home_fails_fast_once_its_retry_is_futile() {
        let spec = FleetSpec::new(5, 1).with_retry_budget(2);
        let hs = HomeSpec {
            fault: FleetFault::ChaosPanic,
            ..home_spec(7, FleetAttack::None)
        };
        let metrics = FleetMetrics::new();
        // The first attempt panics with no precedent: supervisor retries.
        let panic = match supervised_attempt(&spec, &hs, 0, None, &metrics) {
            Supervised::Retry(panic) => panic,
            _ => panic!("first attempt must request a retry"),
        };
        // The retry panics *identically* — a deterministic home will
        // never recover, so the supervisor fails fast instead of
        // burning the remaining budget.
        match supervised_attempt(&spec, &hs, 1, Some(panic.as_str()), &metrics) {
            Supervised::Done(HomeOutcome::Failed(err), _) => {
                assert_eq!(err.attempts, 2);
                assert_eq!(err.fault, "chaos-panic");
                assert!(err.panic.contains("chaos-panic"), "{}", err.panic);
            }
            _ => panic!("a futile retry must be terminal"),
        }
        assert_eq!(metrics.panics_caught.get(), 2);
        assert_eq!(metrics.retries.get(), 1);
        assert_eq!(metrics.retries_futile.get(), 1);
        assert_eq!(metrics.homes_run_failed.get(), 1);
        assert_eq!(metrics.homes_stepped.get(), 0);
    }

    #[test]
    fn a_novel_panic_on_retry_keeps_the_full_budget() {
        // A retry that fails *differently* is a transient, not a
        // deterministic fault: the budget still applies in full.
        let spec = FleetSpec::new(5, 1).with_retry_budget(2);
        let hs = HomeSpec {
            fault: FleetFault::ChaosPanic,
            ..home_spec(7, FleetAttack::None)
        };
        let metrics = FleetMetrics::new();
        assert!(matches!(
            supervised_attempt(&spec, &hs, 1, Some("a different transient fault"), &metrics),
            Supervised::Retry(_)
        ));
        // Attempt 3 exhausts the budget (2 retries + first run).
        match supervised_attempt(&spec, &hs, 2, Some("another transient"), &metrics) {
            Supervised::Done(HomeOutcome::Failed(err), _) => {
                assert_eq!(err.attempts, 3);
            }
            _ => panic!("third attempt must be terminal"),
        }
        assert_eq!(metrics.retries.get(), 1);
        assert_eq!(metrics.retries_futile.get(), 0);
    }

    #[test]
    fn a_step_event_budget_truncates_into_a_degraded_outcome() {
        let spec = FleetSpec::new(5, 1).with_step_event_budget(Some(500));
        let hs = home_spec(8, FleetAttack::None);
        let metrics = FleetMetrics::new();
        match supervised_attempt(&spec, &hs, 0, None, &metrics) {
            Supervised::Done(
                HomeOutcome::Degraded {
                    report,
                    events_used,
                    ..
                },
                _,
            ) => {
                assert_eq!(events_used, 500);
                // Degraded mode still summarizes drained evidence.
                assert!(report.forwarded > 0 || report.evidence_total > 0);
            }
            other => panic!(
                "tiny budget must degrade the home, got {:?}",
                match other {
                    Supervised::Done(o, _) => o.label(),
                    Supervised::Retry(_) => "retry",
                }
            ),
        }
        assert_eq!(metrics.deadline_truncations.get(), 1);
        assert_eq!(metrics.homes_degraded.get(), 1);
    }

    #[test]
    fn infrastructure_faults_still_produce_complete_runs() {
        // Every non-panicking fault kind yields an Ok outcome: the home
        // may see degraded service, but the simulation completes.
        for fault in [
            FleetFault::WanFlap,
            FleetFault::CloudOutage,
            FleetFault::WanDegrade,
            FleetFault::DeviceCrash,
            FleetFault::GatewaySkew,
        ] {
            let spec = FleetSpec::new(5, 1);
            let hs = HomeSpec {
                fault,
                ..home_spec(9, FleetAttack::None)
            };
            match supervised_attempt(&spec, &hs, 0, None, &FleetMetrics::new()) {
                Supervised::Done(HomeOutcome::Ok { report, .. }, _) => {
                    assert!(report.forwarded > 0, "{}: {report:?}", fault.name());
                }
                _ => panic!("{} home must complete", fault.name()),
            }
        }
    }

    #[test]
    fn sliced_runs_match_single_shot_runs() {
        let hs = home_spec(9, FleetAttack::BotnetRecruit);
        let mut sliced_spec = FleetSpec::new(5, 1);
        sliced_spec.slices = 16;
        let mut oneshot_spec = FleetSpec::new(5, 1);
        oneshot_spec.slices = 1;
        let sliced = run_one_home(&sliced_spec, &hs, &FleetMetrics::new()).expect("home builds");
        let oneshot = run_one_home(&oneshot_spec, &hs, &FleetMetrics::new()).expect("home builds");
        assert_eq!(sliced, oneshot, "slicing must not change the outcome");
    }

    #[test]
    fn out_of_range_template_is_a_structured_error_not_a_panic() {
        let spec = FleetSpec::new(5, 1);
        let hs = HomeSpec {
            id: 42,
            template: 99,
            ..home_spec(1, FleetAttack::None)
        };
        let metrics = FleetMetrics::new();
        let err = run_one_home(&spec, &hs, &metrics).expect_err("bad template must fail");
        assert_eq!(err.home, 42);
        assert!(err.reason.contains("out of range"), "{err}");
        assert_eq!(metrics.homes_build_failed.get(), 1);
        assert_eq!(metrics.homes_stepped.get(), 0);
    }

    #[test]
    fn a_failing_home_degrades_the_fleet_report_instead_of_killing_the_run() {
        // A fleet whose stamped specs include one malformed home: the
        // worker ships the build error to the aggregator and every other
        // home still gets its row.
        let spec = FleetSpec::new(5, 3);
        let mut homes = spec.stamp();
        homes[1].template = 99;
        let metrics = FleetMetrics::new();
        let results: Vec<_> = homes
            .iter()
            .map(|hs| {
                let outcome = match supervised_attempt(&spec, hs, 0, None, &metrics) {
                    Supervised::Done(o, _) => o,
                    Supervised::Retry(_) => panic!("unexpected retry"),
                };
                (hs.clone(), outcome)
            })
            .collect();
        let report = FleetAggregator::new(&spec).aggregate(results);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.build_failed.len(), 1);
        assert_eq!(report.totals.homes_build_failed, 1);
        assert_eq!(metrics.homes_build_failed.get(), 1);
    }

    #[test]
    fn bounded_evidence_capacity_sheds_under_attack_but_not_at_rest() {
        // A retrofit (no-DPI) home is the overload case: the recruit
        // login is not caught at the payload layer, so the Mirai flood
        // actually fires and NAC reports ~300 blocked packets inside one
        // evaluation window — far over a 4-slot bus.
        let hs = home_spec(1, FleetAttack::BotnetRecruit);
        let mut spec = FleetSpec::new(5, 1).with_templates(vec![HomeTemplate::retrofit()]);
        spec.evidence_capacity = Some(4);
        let bounded = run_one_home(&spec, &hs, &FleetMetrics::new()).expect("home builds");
        assert!(
            bounded.evidence_shed > 0,
            "a flooding home on a tiny bus must shed: {bounded:?}"
        );
        assert_eq!(bounded.evidence_dropped, bounded.evidence_shed);
        // The same home unbounded loses nothing.
        let spec = FleetSpec::new(5, 1).with_templates(vec![HomeTemplate::retrofit()]);
        let unbounded = run_one_home(&spec, &hs, &FleetMetrics::new()).expect("home builds");
        assert_eq!(unbounded.evidence_shed, 0);
        assert!(unbounded.evidence_total > bounded.evidence_total);
        // Shed or not, the attack is still caught by the home's own Core.
        assert!(bounded.warning_alerts > 0, "report: {bounded:?}");
    }

    /// What a home leaves behind: its report, every transmission its tap
    /// recorded, its evidence and its observer score.
    type HomeTrace = (HomeReport, Vec<PacketRecord>, Vec<String>, Option<f64>);

    /// Runs a built home to the spec's horizon with a recording tap.
    fn trace(spec: &FleetSpec, built: BuiltHome) -> HomeTrace {
        let mut runner = built.runner;
        let (tap, records) = xlf_simnet::observer::RecordingTap::new();
        runner.home_mut().net.add_tap(Box::new(tap));
        let horizon = SimTime::from_micros(spec.horizon.as_micros());
        runner.run_until(horizon);
        runner.home().core.borrow_mut().drain_pending(usize::MAX);
        let evidence = runner
            .home()
            .core
            .borrow()
            .store
            .all()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        let report = runner.finish(horizon);
        let observer = built.observer.map(|r| observer_accuracy(r.take()));
        let records = records.borrow().clone();
        (report, records, evidence, observer)
    }

    const ALL_ATTACKS: [FleetAttack; 8] = [
        FleetAttack::None,
        FleetAttack::BotnetRecruit,
        FleetAttack::FirmwareTamper,
        FleetAttack::Replay,
        FleetAttack::DnsPoison,
        FleetAttack::TrafficObserver,
        FleetAttack::TokenReplay,
        FleetAttack::RogueAs,
    ];

    fn three_template_spec() -> FleetSpec {
        FleetSpec::new(3, 0)
            .with_horizon(Duration::from_secs(300))
            .with_templates(vec![
                HomeTemplate::apartment(),
                HomeTemplate::house(),
                HomeTemplate::retrofit(),
            ])
    }

    #[test]
    fn kit_built_homes_equal_homes_that_derive_their_own_keys() {
        // One spec for every home, so later homes reuse kits (and DPI
        // sessions) that attacked homes before them already used.
        let spec = three_template_spec();
        let fresh_kit = |t: &HomeTemplate| Arc::new(t.kit());
        for template in 0..spec.templates.len() {
            for (i, attack) in ALL_ATTACKS.into_iter().enumerate() {
                let hs = HomeSpec {
                    id: i as u64,
                    seed: 40 + i as u64,
                    template,
                    attack,
                    fault: FleetFault::None,
                    region: 0,
                };
                // A benign sibling from the same kit, built before the
                // attacked home writes what it shares (a login, an
                // image, a quarantine, cloud attribute records) and run
                // after it.
                let benign = HomeSpec {
                    attack: FleetAttack::None,
                    ..hs.clone()
                };
                let sibling = build_home_inner(&spec, &benign).expect("builds");
                let shared = trace(&spec, build_home_inner(&spec, &hs).expect("builds"));
                let own = trace(
                    &spec,
                    build_home_with(&spec, &hs, fresh_kit).expect("builds"),
                );
                assert_eq!(shared, own, "template {template}, {attack:?}");
                assert!(!shared.1.is_empty(), "the home ran");
                let sibling = trace(&spec, sibling);
                let alone = trace(
                    &spec,
                    build_home_with(&spec, &benign, fresh_kit).expect("builds"),
                );
                assert_eq!(sibling, alone, "sibling of template {template}, {attack:?}");
            }
        }
    }

    #[test]
    fn a_template_keeps_its_kit_until_its_devices_change() {
        let mut spec = three_template_spec();
        let apartment = spec.kit(0, &spec.templates[0]);
        assert!(Arc::ptr_eq(&apartment, &spec.kit(0, &spec.templates[0])));
        let house = spec.kit(1, &spec.templates[1]);

        spec.templates[0].devices[0].telemetry_period = Duration::from_secs(7);
        let changed = spec.kit(0, &spec.templates[0]);
        assert!(!Arc::ptr_eq(&apartment, &changed), "stale kit reused");
        assert!(changed.is_for(&spec.templates[0].devices));
        assert!(Arc::ptr_eq(&changed, &spec.kit(0, &spec.templates[0])));
        assert!(Arc::ptr_eq(&house, &spec.kit(1, &spec.templates[1])));

        // A clone derives its own kits.
        let clone = spec.clone();
        assert!(!Arc::ptr_eq(&house, &clone.kit(1, &clone.templates[1])));
    }
}
