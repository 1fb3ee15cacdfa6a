//! Bounds the bytes the calling thread of a small streamed [`run_fleet`]
//! allocates. Homes run on the worker threads; the calling thread
//! collects their outcomes into the region tier and then runs the global
//! pass, whose stream pass replays every retained window epoch by epoch.
//!
//! The stream pass used to clone every window into one flat vector and
//! then move each into a per-epoch map, while the homes still held their
//! own: on the fleet below the thread allocated 570,310 bytes, 350 KB
//! of them for the two window copies grown by doubling. It now borrows
//! the homes' windows through a per-epoch index of pointers and refills
//! one batch per epoch: 219,222 bytes. The budget is that plus 9%, so
//! one flat copy of the windows more (402,678 bytes) fails it.
//!
//! The fleet runs one worker. The engine spawns at most the machine's
//! available parallelism, and the order in which homes reach the region
//! tier follows the worker count, so one worker keeps the count the same
//! on every machine (with two workers it read 219,374 bytes).
//!
//! A counting wrapper around the system allocator sums the bytes of
//! every allocation and every reallocation's new size. The counter is
//! per thread, so the workers and the test harness cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xlf_fleet::{run_fleet, FleetAttack, FleetMetrics, FleetSpec};

thread_local! {
    // A `const`-initialized `Cell` has no destructor and never allocates,
    // so the allocator may touch it.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_bytes(n: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + n as u64));
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter increment has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread may allocate over the run.
const MAX_BYTES: u64 = 240_000;

#[test]
fn the_streamed_global_pass_allocates_at_most_its_budget() {
    // 24 homes streamed over 28 windows of 15 s: 672 windows of 104 B.
    let spec = FleetSpec::new(0x57AE_A401, 24)
        .with_workers(1)
        .with_attacks(vec![
            (FleetAttack::None, 10),
            (FleetAttack::BotnetRecruit, 1),
        ])
        .with_correlation_interval(15);
    let metrics = FleetMetrics::new();
    let before = bytes();
    let report = run_fleet(&spec, &metrics).expect("fleet runs");
    let used = bytes() - before;
    let epochs = report.epochs.as_ref().expect("streamed run has epochs");
    assert_eq!(epochs.windows_ingested, 24 * 28, "every home streamed");
    println!("calling thread allocated {used} bytes");
    assert!(used <= MAX_BYTES, "{used} bytes (bound {MAX_BYTES})");
}
