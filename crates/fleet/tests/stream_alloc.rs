//! Bounds the memory the calling thread of a small streamed
//! [`run_fleet`] uses: the bytes it allocates, and the high-water mark
//! of its live bytes (its allocations minus its frees). Homes run on the
//! worker threads; the calling thread collects their outcomes into the
//! region tier and then runs the global pass, whose stream pass replays
//! every retained window epoch by epoch. A second test bounds the bytes
//! each home's retained windows keep allocated.
//!
//! The stream pass used to clone every window into one flat vector and
//! then move each into a per-epoch map, while the homes still held their
//! own: on the 15 s fleet below the thread allocated 570,310 bytes. A
//! per-epoch index of pointers to the homes' windows brought that to
//! 218,240 bytes (live peak 108,512). The pass now refills its one batch
//! per epoch by walking the homes' windows, with no index, and each
//! home's correlator profile keeps all ten features' runs in one vector
//! instead of ten accumulators: 181,728 bytes, live peak 74,496. The
//! per-feature accumulators back (219,264 bytes, peak 111,072) fail both
//! on the 15 s fleet. The index costs 8 bytes per window, which the
//! 84-epoch 5 s fleet makes visible: its peak reads 84,112 bytes without
//! the index and 102,256 with it (232,368 and 250,512 bytes allocated).
//!
//! The region tier's accumulators then lost their unsorted pending
//! buffer: every push inserts into the sorted runs, a batch of samples
//! is sorted in one vector, and the global pass writes its candidates'
//! features straight into the kNN matrix instead of cloning them twice.
//! The 15 s fleet now allocates 163,512 bytes with a live peak of
//! 66,680, and the 5 s fleet 203,400 with 76,296. Each budget is its
//! measured value plus 9%, so the figures before that change (181,728 /
//! 74,496 and 232,368 / 84,112) fail every bound.
//!
//! The homes then packed their windows into varint logs, about 14 bytes
//! a window instead of 104, and the pass reads each home's log through
//! a byte-offset cursor. The calling thread holds one cursor per home in
//! place of the control-plane roster, which it frees before the epoch
//! loop: 162,648 bytes with a live peak of 66,616 on the 15 s fleet, and
//! 202,536 with 76,232 on the 5 s fleet. The budgets are those plus 9%,
//! rounded down to a hundred (the 15 s peak keeps its 72,600). The
//! windows themselves are allocated on the worker threads, out of the
//! counters' sight, so `a_home_keeps_its_windows_packed` bounds them
//! per window.
//!
//! The stream pass's state then went flat: the correlator keeps its
//! homes, each with its label, in one id-sorted vector instead of a map
//! of homes and a map of labels, and the kNN graph is one offsets
//! vector and one edge array instead of a vector per node. The 15 s
//! fleet allocates 158,040 bytes with a live peak of 61,144, and the
//! 5 s fleet 197,928 with 70,760. The budgets are those plus 9%,
//! rounded down to a hundred. The figures before that change pass
//! every bound but the 15 s peak (66,616 against 66,600): on 24 homes
//! the maps and per-node lists cost a few kilobytes, and the bytes
//! they saved on fleet-streamed's 2,000 homes show in its peak RSS.
//!
//! The fleets run one worker. The engine spawns at most the machine's
//! available parallelism, and the order in which homes reach the region
//! tier follows the worker count, so one worker keeps the counts the
//! same on every machine.
//!
//! A counting wrapper around the system allocator sums the bytes of
//! every allocation and every reallocation's new size, and tracks the
//! live total. The counters are per thread, so the workers and the test
//! harness cannot pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xlf_fleet::{run_fleet, run_home, FleetAttack, FleetMetrics, FleetSpec, HomeStream};

thread_local! {
    // `const`-initialized `Cell`s have no destructor and never allocate,
    // so the allocator may touch them.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts `grown` newly requested bytes and moves the live total by
/// `delta`, raising the high-water mark with it.
fn count(grown: usize, delta: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + grown as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Starts a new high-water mark at the current live total and returns
/// that total.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter updates have no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Per fleet: the correlation interval in seconds, the bytes the
/// calling thread may allocate over the run, and the most its live bytes
/// may rise above their level at the start of the run.
const BUDGETS: [(u64, u64, i64); 2] = [(15, 172_200, 66_600), (5, 215_700, 77_100)];

/// The 24-home fleet both tests run: 28 windows of 15 s or 84 of 5 s
/// per home over the 420 s horizon.
fn fleet(interval: u64) -> FleetSpec {
    FleetSpec::new(0x57AE_A401, 24)
        .with_workers(1)
        .with_attacks(vec![
            (FleetAttack::None, 10),
            (FleetAttack::BotnetRecruit, 1),
        ])
        .with_correlation_interval(interval)
}

#[test]
fn the_streamed_global_pass_allocates_at_most_its_budget() {
    for (interval, max_bytes, max_peak) in BUDGETS {
        let spec = fleet(interval);
        let metrics = FleetMetrics::new();
        let before = bytes();
        let live_before = reset_peak();
        let report = run_fleet(&spec, &metrics).expect("fleet runs");
        let used = bytes() - before;
        let peak_used = peak() - live_before;
        let epochs = report.epochs.as_ref().expect("streamed run has epochs");
        assert_eq!(
            epochs.windows_ingested,
            24 * (420 / interval),
            "every home streamed"
        );
        println!(
            "{interval} s windows: calling thread allocated {used} bytes, live peak {peak_used} bytes"
        );
        assert!(used <= max_bytes, "{used} bytes (bound {max_bytes})");
        assert!(
            peak_used <= max_peak,
            "live peak {peak_used} bytes (bound {max_peak})"
        );
    }
}

/// The most bytes a home's packed windows may keep allocated, per
/// window: 14.00 measured, plus 7%. A 104-byte `WindowSummary` per
/// window fails it, and so does a log that keeps its vector's doubling
/// slack (18.29).
const MAX_RETAINED_PER_WINDOW: f64 = 15.0;

/// Bounds what the homes' streams keep allocated until the stream pass
/// reads them. Each home of the 15 s fleet runs on the calling thread
/// through the workers' own attempt loop, and dropping its stream frees
/// exactly the bytes its windows kept: their allocation's size, growth
/// slack included.
#[test]
fn a_home_keeps_its_windows_packed() {
    // Batch and fleet-wide homes carry empty streams: 32 bytes each
    // before the windows were packed.
    assert!(std::mem::size_of::<HomeStream>() <= 32);
    let before = bytes();
    let empty = HomeStream::default();
    assert_eq!(bytes(), before, "an empty stream allocates nothing");
    drop(empty);

    let spec = fleet(15);
    let metrics = FleetMetrics::new();
    let streams: Vec<HomeStream> = (0..24)
        .map(|id| run_home(&spec, &spec.stamp_one(id), &metrics).1)
        .collect();
    let windows: usize = streams.iter().map(|s| s.windows.len()).sum();
    assert_eq!(windows, 24 * 28, "every home streamed");
    let mut retained = 0;
    for stream in streams {
        let held = live();
        drop(stream);
        retained += held - live();
    }
    let per_window = retained as f64 / windows as f64;
    println!("{windows} windows retain {retained} bytes, {per_window:.2} per window");
    assert!(
        per_window <= MAX_RETAINED_PER_WINDOW,
        "{per_window:.2} bytes per window (bound {MAX_RETAINED_PER_WINDOW})"
    );
}
