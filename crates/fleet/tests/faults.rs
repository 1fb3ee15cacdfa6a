//! Supervised execution under injected faults: panic isolation, retry
//! budgets, outcome conservation, and byte-stable reports.
//!
//! The acceptance bar: a fleet containing a deliberately panicking home
//! completes, reports that home `failed` after its retry budget, keeps
//! every surviving home's per-home report byte-identical to the
//! fault-free run, and loses no worker thread.

use proptest::prelude::*;
use xlf_fleet::{run_fleet, FleetAttack, FleetFault, FleetMetrics, FleetSpec, FLEET_FAULT_KINDS};

fn chaos_spec(workers: usize, retry_budget: u32) -> FleetSpec {
    FleetSpec::new(0xFA17_0001, 18)
        .with_workers(workers)
        .with_attacks(vec![
            (FleetAttack::None, 8),
            (FleetAttack::BotnetRecruit, 1),
        ])
        .with_faults(vec![(FleetFault::None, 5), (FleetFault::ChaosPanic, 1)])
        .with_retry_budget(retry_budget)
}

#[test]
fn a_panicking_home_fails_cleanly_and_survivors_match_the_fault_free_run() {
    let retry_budget = 1;
    let metrics = FleetMetrics::new();
    let faulted =
        run_fleet(&chaos_spec(2, retry_budget), &metrics).expect("no worker thread may be lost");

    // The fault mix must actually have stamped chaos homes.
    let chaos_homes = metrics.faults_injected.get(FleetFault::ChaosPanic);
    assert!(chaos_homes > 0, "chaos share stamped no homes");

    // Every chaos home failed — after exactly retry_budget + 1 attempts —
    // and nothing else did.
    assert_eq!(faulted.run_failed.len() as u64, chaos_homes);
    for f in &faulted.run_failed {
        assert_eq!(f.attempts, retry_budget + 1);
        assert_eq!(f.fault, "chaos-panic");
        assert!(f.panic.contains("chaos-panic"), "{}", f.panic);
    }
    assert!(faulted.accounting_ok(18), "{:?}", faulted.totals);
    assert_eq!(metrics.panics_caught.get(), chaos_homes * 2);
    assert_eq!(metrics.retries.get(), chaos_homes);
    // Each chaos home's single retry panicked identically: futile.
    assert_eq!(metrics.retries_futile.get(), chaos_homes);
    assert_eq!(metrics.homes_run_failed.get(), chaos_homes);

    // Surviving homes' per-home reports are byte-identical to the
    // fault-free fleet (fault stamping is layout-invariant, so ids map
    // 1:1). The cross-home deviation scores legitimately differ — the
    // correlation graph lost the failed homes — so the comparison is on
    // the per-home `report`, not the whole row.
    let baseline = run_fleet(
        &chaos_spec(2, retry_budget).with_faults(vec![(FleetFault::None, 1)]),
        &FleetMetrics::new(),
    )
    .expect("baseline runs");
    assert_eq!(baseline.rows.len(), 18);
    for row in &faulted.rows {
        let base = baseline
            .rows
            .iter()
            .find(|b| b.id == row.id)
            .expect("baseline has every id");
        assert_eq!(
            row.report, base.report,
            "surviving home {} diverged from the fault-free run",
            row.id
        );
    }
}

#[test]
fn faulted_fleets_are_byte_identical_across_worker_counts() {
    // Worker count stays an execution detail under faults, retries, and
    // step budgets: the full report (including degraded/failed sections)
    // serializes to the same bytes.
    fn faulted_spec(workers: usize) -> FleetSpec {
        FleetSpec::new(0xFA17_0002, 18)
            .with_workers(workers)
            .with_attacks(vec![
                (FleetAttack::None, 6),
                (FleetAttack::Replay, 1),
                (FleetAttack::DnsPoison, 1),
            ])
            .with_faults(vec![
                (FleetFault::None, 4),
                (FleetFault::WanFlap, 1),
                (FleetFault::WanDegrade, 1),
                (FleetFault::DeviceCrash, 1),
                (FleetFault::ChaosPanic, 1),
            ])
            .with_retry_budget(1)
    }
    let baseline = run_fleet(&faulted_spec(1), &FleetMetrics::new()).expect("fleet runs");
    let json = baseline.to_json();
    assert!(baseline.accounting_ok(18));
    for workers in [2, 8] {
        let report = run_fleet(&faulted_spec(workers), &FleetMetrics::new()).expect("fleet runs");
        assert_eq!(
            report.to_json(),
            json,
            "worker count {workers} changed the faulted fleet report"
        );
    }
}

#[test]
fn fault_correlated_alerts_name_the_fault_kind() {
    let report = run_fleet(&chaos_spec(2, 0), &FleetMetrics::new()).expect("fleet runs");
    assert!(
        report
            .alerts
            .iter()
            .any(|a| a.device == "fleet-fault-chaos-panic"
                && a.explanation.contains("fault-correlated")),
        "missing fault-correlated fleet alert"
    );
}

proptest! {
    /// Conservation holds for *arbitrary* fault mixes, retry budgets,
    /// and step budgets: every stamped home comes back as exactly one
    /// outcome, and the serialized report stays internally consistent.
    #[test]
    fn outcome_conservation_under_arbitrary_fault_plans(
        seed in 0u64..u64::MAX,
        shares in proptest::collection::vec(0u32..3, FLEET_FAULT_KINDS.len()),
        retry_budget in 0u32..3,
        step_sel in 0usize..3,
        workers in 1usize..3,
    ) {
        let mut faults: Vec<(FleetFault, u32)> = FLEET_FAULT_KINDS
            .iter()
            .zip(&shares)
            .map(|(f, s)| (*f, *s))
            .collect();
        if faults.iter().all(|&(_, s)| s == 0) {
            faults[0].1 = 1; // all-zero mixes are rejected by construction
        }
        let step_budget = [None, Some(60_000u64), Some(1_000u64)][step_sel];
        let spec = FleetSpec::new(seed, 6)
            .with_workers(workers)
            .with_horizon(xlf_simnet::Duration::from_secs(240))
            .with_faults(faults)
            .with_retry_budget(retry_budget)
            .with_step_event_budget(step_budget);
        let metrics = FleetMetrics::new();
        let report = run_fleet(&spec, &metrics).expect("fleet must always complete");
        prop_assert!(report.accounting_ok(6), "totals: {:?}", report.totals);
        prop_assert_eq!(report.totals.homes_accounted(), 6);
        prop_assert_eq!(metrics.reports_received.get(), 6);
        // Metric counters agree with the report's own accounting.
        prop_assert_eq!(metrics.homes_run_failed.get(), report.run_failed.len() as u64);
        prop_assert_eq!(metrics.homes_degraded.get(), report.degraded.len() as u64);
        // A chaos home panics identically on retry, so the supervisor
        // fails fast after the first futile re-attempt: failed homes
        // burn at most 2 attempts however large the budget.
        for f in &report.run_failed {
            prop_assert_eq!(f.attempts, retry_budget.min(1) + 1);
        }
        if retry_budget >= 1 {
            prop_assert_eq!(metrics.retries_futile.get(), report.run_failed.len() as u64);
        } else {
            prop_assert_eq!(metrics.retries_futile.get(), 0);
        }
        // And the report serializes to valid-shaped JSON either way.
        let json = report.to_json();
        prop_assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
