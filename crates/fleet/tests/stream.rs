//! Streamed correlation: mid-run detection must be pure observation.
//!
//! The acceptance bar for `xlf-stream` integration: turning streaming on
//! never changes the science (final rows/flagged byte-identical to
//! batch), worker count stays an execution detail, and the stream flags
//! every actively-attacked home strictly before the horizon.

use xlf_fleet::{run_fleet, FleetAttack, FleetFault, FleetMetrics, FleetSpec};

fn streamed_spec(workers: usize, interval_s: u64) -> FleetSpec {
    FleetSpec::new(0x57AE_A401, 24)
        .with_workers(workers)
        .with_attacks(vec![
            (FleetAttack::None, 10),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
        ])
        .with_correlation_interval(interval_s)
}

#[test]
fn streamed_reports_are_byte_identical_across_worker_counts() {
    let baseline = run_fleet(&streamed_spec(1, 15), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    let epochs = baseline.epochs.as_ref().expect("streamed run has epochs");
    assert_eq!(epochs.interval_secs, 15);
    assert_eq!(epochs.count, 28, "420 s horizon / 15 s interval");
    assert!(epochs.windows_ingested > 0);

    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&streamed_spec(workers, 15), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the streamed fleet report"
        );
        assert_eq!(metrics.windows_emitted.get(), epochs.windows_ingested);
        assert_eq!(metrics.windows_shed.get(), epochs.windows_shed);
    }
}

#[test]
fn window_buffers_shorter_than_the_run_shed_each_homes_oldest_windows() {
    // Eight windows buffered of the 28 each home emits: every home loses
    // its 20 oldest, the stream pass sees only windows 20..28, and how
    // many workers ran the homes still changes no byte.
    fn spec(workers: usize) -> FleetSpec {
        let mut spec = streamed_spec(workers, 15);
        spec.window_capacity = 8;
        spec
    }
    let metrics = FleetMetrics::new();
    let baseline = run_fleet(&spec(1), &metrics).expect("fleet runs");
    assert!(
        baseline.degraded.is_empty(),
        "every home ran its 28 windows"
    );
    let homes = baseline.rows.len() as u64;
    assert_eq!(homes, 24);
    let epochs = baseline.epochs.as_ref().expect("streamed run has epochs");
    assert_eq!(epochs.count, 28);
    assert_eq!(epochs.windows_shed, homes * 20, "each home lost 20 windows");
    assert_eq!(epochs.windows_ingested, homes * 8);
    assert_eq!(metrics.windows_shed.get(), epochs.windows_shed);
    assert_eq!(metrics.windows_emitted.get(), epochs.windows_ingested);
    // The shed windows are the oldest: no home shows up before epoch 20.
    for record in &epochs.per_epoch {
        let expected = if record.epoch < 20 { 0 } else { homes };
        assert_eq!(record.homes, expected, "epoch {}", record.epoch);
    }

    let json = baseline.to_json();
    for workers in [2, 8] {
        let metrics = FleetMetrics::new();
        let report = run_fleet(&spec(workers), &metrics).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the shedding fleet's report"
        );
        assert_eq!(metrics.windows_shed.get(), epochs.windows_shed);
    }
}

#[test]
fn streamed_final_verdicts_match_batch_and_fire_strictly_earlier() {
    // The same fleet with streaming off is the reference: streaming may
    // only *add* the epochs section and its mid-run alerts — the batch
    // science (rows, flagged set, totals) must be untouched.
    let batch_spec = FleetSpec::new(0x57AE_A401, 24).with_attacks(vec![
        (FleetAttack::None, 10),
        (FleetAttack::BotnetRecruit, 1),
        (FleetAttack::FirmwareTamper, 1),
    ]);
    let batch = run_fleet(&batch_spec, &FleetMetrics::new()).expect("fleet runs");
    assert!(batch.epochs.is_none(), "batch runs carry no epochs section");

    let streamed = run_fleet(&streamed_spec(2, 15), &FleetMetrics::new()).expect("fleet runs");
    let epochs = streamed.epochs.as_ref().expect("streamed run has epochs");

    assert_eq!(streamed.rows, batch.rows, "streaming perturbed the rows");
    assert_eq!(streamed.flagged, batch.flagged);
    assert_eq!(streamed.totals, batch.totals);

    // Every actively-attacked home is first detected in an epoch strictly
    // before the last — i.e. the alert fires mid-run, not at the horizon.
    let attacked: Vec<u64> = streamed
        .rows
        .iter()
        .filter(|r| r.attack != "none" && r.attack != "traffic-observer")
        .map(|r| r.id)
        .collect();
    assert!(!attacked.is_empty(), "attack mix stamped no attacked homes");
    for id in &attacked {
        let (_, epoch) = epochs
            .first_detection
            .iter()
            .find(|(h, _)| h == id)
            .unwrap_or_else(|| panic!("attacked home {id} never stream-detected"));
        assert!(
            *epoch + 1 < epochs.count,
            "home {id} only detected at the final epoch ({epoch})"
        );
    }

    // Epoch-stamped alerts carry simulated timestamps before the horizon
    // and name the detection epoch.
    let stream_alerts: Vec<_> = streamed
        .alerts
        .iter()
        .filter(|a| a.explanation.contains("stream correlation"))
        .collect();
    assert_eq!(stream_alerts.len(), epochs.first_detection.len());

    // Dedup accounting: each flagged home contributes exactly one new
    // detection; re-detections in later epochs are deduped, not re-raised.
    let new_total: u64 = epochs.per_epoch.iter().map(|e| e.alerts).sum();
    assert_eq!(new_total, epochs.first_detection.len() as u64);
    let deduped_total: u64 = epochs.per_epoch.iter().map(|e| e.deduped).sum();
    assert!(
        deduped_total > 0,
        "persistent deviants must re-detect (and dedup) across epochs"
    );
}

#[test]
fn streamed_fleet_under_faults_keeps_conservation_and_determinism() {
    // Streaming composes with the fault plane: radio-jammed, panicking,
    // and budget-degraded homes must not break outcome conservation or
    // cross-worker byte-identity, and degraded homes with at least one
    // complete window join the stream pass annotated partial.
    fn spec(workers: usize) -> FleetSpec {
        FleetSpec::new(0x57AE_A402, 18)
            .with_workers(workers)
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::BotnetRecruit, 1),
            ])
            .with_faults(vec![
                (FleetFault::None, 3),
                (FleetFault::RadioJam, 2),
                (FleetFault::ChaosPanic, 1),
            ])
            .with_retry_budget(1)
            .with_step_event_budget(Some(60_000))
            .with_correlation_interval(60)
    }
    let metrics = FleetMetrics::new();
    let baseline = run_fleet(&spec(1), &metrics).expect("fleet runs");
    assert!(baseline.accounting_ok(18), "{:?}", baseline.totals);
    assert!(
        metrics.faults_injected.get(FleetFault::RadioJam) > 0,
        "radio-jam share stamped no homes"
    );
    let epochs = baseline.epochs.as_ref().expect("streamed run has epochs");
    // Partial homes are exactly a subset of the degraded section.
    let degraded: Vec<u64> = baseline.degraded.iter().map(|d| d.id).collect();
    for id in &epochs.partial_homes {
        assert!(
            degraded.contains(id),
            "partial home {id} not in the degraded section {degraded:?}"
        );
    }
    let json = baseline.to_json();
    for workers in [2, 8] {
        let report = run_fleet(&spec(workers), &FleetMetrics::new()).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the faulted streamed report"
        );
    }
}

#[test]
fn radio_jam_suppresses_traffic_without_perturbing_unjammed_homes() {
    // A jam window is a network-layer fault: jammed homes must still
    // complete, and unjammed homes must be byte-identical to the
    // fault-free stamping of the same fleet.
    fn spec(faults: Vec<(FleetFault, u32)>) -> FleetSpec {
        FleetSpec::new(0x57AE_A403, 12)
            .with_attacks(vec![(FleetAttack::None, 1)])
            .with_faults(faults)
    }
    let metrics = FleetMetrics::new();
    let jammed = run_fleet(
        &spec(vec![(FleetFault::None, 2), (FleetFault::RadioJam, 1)]),
        &metrics,
    )
    .expect("fleet runs");
    assert!(jammed.accounting_ok(12));
    assert!(metrics.faults_injected.get(FleetFault::RadioJam) > 0);

    let clean =
        run_fleet(&spec(vec![(FleetFault::None, 1)]), &FleetMetrics::new()).expect("fleet runs");
    let mut saw_suppression = false;
    for row in &jammed.rows {
        let base = clean
            .rows
            .iter()
            .find(|b| b.id == row.id)
            .expect("clean fleet has every id");
        if row.fault == "radio-jam" {
            // The jam swallows transmissions during its window, so the
            // jammed home forwards strictly less than its clean twin.
            if row.report.forwarded < base.report.forwarded {
                saw_suppression = true;
            }
        } else {
            assert_eq!(
                row.report, base.report,
                "unjammed home {} perturbed by another home's jam",
                row.id
            );
        }
    }
    assert!(saw_suppression, "no jammed home lost any forwarded traffic");
}
