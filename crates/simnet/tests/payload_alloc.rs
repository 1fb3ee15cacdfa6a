//! Proves what building a [`Payload`] allocates: nothing for every empty
//! form, and one buffer for a non-empty iterator of known exact length
//! (the shape `Sensor::encode_reading` collects, a slice chained with
//! padding).
//!
//! A counting wrapper around the system allocator measures allocations
//! around each construction. The counter is per thread, so the test
//! harness's own bookkeeping on other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use xlf_simnet::Payload;

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

/// Allocations `build` makes, the payload's drop included.
fn allocs_of(build: impl FnOnce() -> Payload) -> u64 {
    let before = allocs();
    drop(black_box(build()));
    allocs() - before
}

/// A reading's text padded (or cut) to `size` bytes, as
/// `Sensor::encode_reading` collects it.
fn padded_reading(size: usize) -> impl Iterator<Item = u8> {
    let text = black_box(b"Power=1.00");
    text.iter()
        .copied()
        .chain(std::iter::repeat(b' '))
        .take(size)
}

#[test]
fn empty_payloads_allocate_nothing() {
    assert_eq!(allocs_of(Payload::default), 0, "default");
    assert_eq!(allocs_of(|| Payload::from(Vec::new())), 0, "Vec::new()");
    assert_eq!(allocs_of(|| Payload::from([])), 0, "[]");
    assert_eq!(allocs_of(|| Payload::from(&[][..])), 0, "&[][..]");
    let empty_iter = || std::iter::empty().collect();
    assert_eq!(allocs_of(empty_iter), 0, "empty iterator");
    let empty_reading = || padded_reading(0).collect();
    assert_eq!(allocs_of(empty_reading), 0, "zero-length reading");
}

#[test]
fn an_exact_length_iterator_allocates_once() {
    for size in [1, 4, 10, 48] {
        let n = allocs_of(|| padded_reading(size).collect());
        assert_eq!(n, 1, "a {size}-byte padded reading");
    }
}
