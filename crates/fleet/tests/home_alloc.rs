//! Bounds what one fleet-wide home costs the allocator over its whole
//! lifecycle. A home of each stock template is built through
//! [`build_home`] from a warmed spec (its template's kit already derived
//! and every DPI session bound), run to the fleet-wide 20 s horizon and
//! finished (which drops it). Weighted by the templates' fleet shares,
//! as a fleet-wide run mixes them, a home makes at most
//! [`MAX_ALLOCS_PER_HOME`] allocations.
//!
//! Before homes held their template's device stores, gateway tables and
//! cloud set-up by reference, the same mix made 144 allocations to build
//! a home, 93 to step it and 15 to finish it (252): per-device copies of
//! credential stores, allowlists, handler capability tables and the
//! automation app, a `String` key copied on each per-device table's
//! first touch, and containers grown by doubling. With its cloud
//! borrowing the constant OTA vendor name and secret and its DPI
//! middleboxes the gateway's per-rule match buffer, a home made 93.6
//! (build 29, step 62.6, finish 2). Typed packet bodies dropped each
//! telemetry and event packet's metadata list: a home made 82.0
//! (build 29, step 51, finish 2). Handing each event to its apps by
//! reference, instead of cloning it into a per-app inbox, dropped the
//! step to 29 + 118 + 25 for the apartment, the house and the retrofit:
//! a home now makes 76.0 (build 28, step 46.0, finish 2). The budget
//! sits 5% above that, so one more copied key per device (five per home)
//! fails it, and so does a cloud that signs every trusted report, since
//! each home would derive its devices' event ciphers.
//!
//! A counting wrapper around the system allocator measures allocations.
//! The counter is per thread, so the test harness's own bookkeeping on
//! other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xlf_fleet::{
    build_home, FleetAttack, FleetFault, FleetSpec, HomeSpec, HomeTemplate, RowPolicy,
};
use xlf_simnet::{Duration, SimTime};

thread_local! {
    // A `const`-initialized `Cell` has no destructor and never allocates,
    // so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter increment has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations allowed per home, build to finish, in the fleet-wide mix.
const MAX_ALLOCS_PER_HOME: f64 = 79.8;

/// The fleet-wide horizon.
const HORIZON: Duration = Duration::from_secs(20);

/// The fleet-wide shape: the three stock templates, benign 20 s homes,
/// candidates-only rows.
fn wide_spec() -> FleetSpec {
    FleetSpec::new(0, 0)
        .with_horizon(HORIZON)
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_row_policy(RowPolicy::CandidatesOnly)
}

/// Allocations of each lifecycle phase: build, step, and finish (which
/// consumes the home, so its teardown counts here too).
fn lifecycle(spec: &FleetSpec, hs: &HomeSpec) -> [u64; 3] {
    let horizon = SimTime::from_micros(HORIZON.as_micros());
    let a0 = allocs();
    let mut runner = build_home(spec, hs).expect("a stock template builds");
    let a1 = allocs();
    runner.run_until(horizon);
    runner.home().core.borrow_mut().drain_pending(usize::MAX);
    let a2 = allocs();
    let report = runner.finish(horizon);
    let a3 = allocs();
    assert!(report.forwarded > 0, "the home ran: {report:?}");
    [a1 - a0, a2 - a1, a3 - a2]
}

#[test]
fn a_warm_fleet_wide_home_allocates_at_most_its_budget() {
    let spec = wide_spec();
    let (mut weighted, mut shares) = (0.0, 0.0);
    for (index, template) in spec.templates.iter().enumerate() {
        let hs = |id: u64| HomeSpec {
            id,
            seed: 0x5EED + id,
            template: index,
            attack: FleetAttack::None,
            fault: FleetFault::None,
            region: 0,
        };
        // The first home of a template derives its kit and binds its
        // DPI sessions; the budget is for every home after it.
        lifecycle(&spec, &hs(0));
        let [build, step, finish] = lifecycle(&spec, &hs(1));
        let total = build + step + finish;
        println!(
            "{}: build {build} + step {step} + finish {finish} = {total}",
            template.name
        );
        weighted += f64::from(template.share) * total as f64;
        shares += f64::from(template.share);
    }
    let per_home = weighted / shares;
    println!("fleet-wide mix: {per_home:.1} allocations per home");
    assert!(
        per_home <= MAX_ALLOCS_PER_HOME,
        "{per_home:.1} allocations per home (bound {MAX_ALLOCS_PER_HOME})"
    );
}
