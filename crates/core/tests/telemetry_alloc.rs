//! Proves the telemetry path allocates only what it stores: a warm,
//! benign home dispatching its steady traffic (telemetry through the
//! gateway's DPI, NAC and app verification into the cloud's event bus
//! and automation) makes at most [`MAX_ALLOCS_PER_EVENT`] allocations
//! per dispatched event. What is left per telemetry report is the
//! payload buffer and the copies of the value the witnessed and the
//! cloud event keep; the device name and state travel in the packet's
//! typed body, the attribute and the event tag are shared or inline, and
//! the app runs on the cloud's event by reference.
//!
//! The run makes 1,656 allocations over 1,950 events (0.849 per event;
//! 1.003 while each delivery was cloned into an app inbox). Its 550
//! telemetry packets are over a quarter of its events, so one more heap
//! allocation per telemetry packet (1.131) fails the bound, which leaves
//! a 5% margin over the measured value.
//!
//! A counting wrapper around the system allocator measures allocations
//! across the run. The counter is per thread, so the test harness's own
//! bookkeeping on other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xlf_cloud::smartapp::SmartApp;
use xlf_cloud::CloudNode;
use xlf_core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf_device::{SensorKind, VulnSet, Vulnerability};
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

/// Allocations allowed per dispatched event.
const MAX_ALLOCS_PER_EVENT: f64 = 0.89;

/// The fleet's standard five-device home.
fn devices() -> Vec<HomeDevice> {
    let period = Duration::from_secs;
    vec![
        HomeDevice::new("thermo", SensorKind::Temperature).with_telemetry_period(period(10)),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[
                Vulnerability::StaticPassword,
                Vulnerability::UnsignedFirmware,
            ]))
            .with_telemetry_period(period(10)),
        HomeDevice::new("wallpad", SensorKind::Motion)
            .with_vulns(VulnSet::of(&[Vulnerability::BufferOverflow]))
            .with_telemetry_period(period(15)),
        HomeDevice::new("lamp", SensorKind::Power).with_telemetry_period(period(20)),
        HomeDevice::new("window", SensorKind::Power).with_telemetry_period(period(20)),
    ]
}

#[test]
fn warm_telemetry_events_allocate_only_what_they_store() {
    let mut home = XlfHome::build(7, XlfConfig::full(), &devices());
    home.net
        .node_as_mut::<CloudNode>(home.cloud)
        .expect("cloud node")
        .cloud_mut()
        .install_app(SmartApp::auto_window());
    let mut runner = home.into_runner();
    // Past the learning period, with every device's DPI session bound.
    runner.run_until(SimTime::from_secs(300));

    let before = allocs();
    let (events, truncated) = runner.run_until_capped(SimTime::from_secs(1800), u64::MAX);
    let allocs = allocs() - before;

    assert!(!truncated && events > 1000, "{events} events");
    let per_event = allocs as f64 / events as f64;
    println!("{allocs} allocations over {events} events: {per_event:.3} per event");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{per_event:.3} allocations per event (bound {MAX_ALLOCS_PER_EVENT})"
    );
}
