//! Proves a warm community epoch is allocation-free: the stream
//! correlator reruns `community_report_into` on every epoch over the
//! same fleet, so after one warm-up call at a fixed row count the whole
//! pipeline (grouping, distance table, selection, symmetrize,
//! propagation, scoring) must reuse its scratch buffers. The
//! duplicate-heavy input takes the grouped selection (20 groups over
//! 300 rows, more rows than k + 1, each row's nearest a tie at distance
//! 0, so the tie fill merges member lists); the all-distinct input
//! takes the dense one.
//!
//! A counting wrapper around the system allocator measures allocations
//! across one call. The counter is per thread, so the test harness's
//! own bookkeeping on other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xlf_analytics::graph::{community_report_into, GraphScratch};

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

const ROWS: usize = 300;
const DIMS: usize = 20;
const K: usize = 8;
/// Distinct rows of the duplicate-heavy input: fewer than the rows, so
/// the grouped path runs, and each group holds more than k + 1 rows.
const GROUPS: usize = 20;
const _: () = assert!(GROUPS < ROWS && ROWS / GROUPS > K + 1);

/// Row `i` of a flat `ROWS × DIMS` matrix whose rows take `distinct`
/// different values (`distinct == ROWS` makes every row distinct).
fn flat_features(distinct: usize) -> Vec<f64> {
    (0..ROWS)
        .flat_map(|i| {
            let pattern = (i * 7) % distinct;
            (0..DIMS).map(move |d| (pattern % 4) as f64 * 10.0 + d as f64 + pattern as f64 / 1e3)
        })
        .collect()
}

/// Allocations made by the second of two identical epochs.
fn warm_epoch_allocs(flat: &[f64]) -> u64 {
    let seed: Vec<usize> = (0..ROWS).collect();
    let mut scratch = GraphScratch::new();
    let epoch = |scratch: &mut GraphScratch| {
        scratch.matrix.fill_from_flat(flat, ROWS, DIMS);
        community_report_into(K, 8.0, 100, Some(&seed), scratch);
    };
    epoch(&mut scratch);
    let before = allocs();
    epoch(&mut scratch);
    let after = allocs();
    assert_eq!(scratch.scores().len(), ROWS);
    after - before
}

#[test]
fn warm_community_epoch_allocates_nothing() {
    let duplicate_heavy = flat_features(GROUPS);
    let all_distinct = flat_features(ROWS);
    assert_eq!(
        warm_epoch_allocs(&duplicate_heavy),
        0,
        "duplicate-heavy epoch"
    );
    assert_eq!(warm_epoch_allocs(&all_distinct), 0, "all-distinct epoch");
}
