//! `Summary` sorts its samples in place: on a million recorded samples
//! its queries must not touch the heap. A stable sort would allocate a
//! scratch buffer as long as the samples, and where that buffer lands
//! at the end of a run decides the run's peak resident memory. The
//! samples themselves take 4 bytes each, so recording a million of them
//! asks the allocator for at most 8 MiB over the buffer's doublings
//! (`f64` samples would ask for about 16 MiB).
//!
//! This file is its own test binary with its own counting global
//! allocator; it counts only the allocations of the thread that runs
//! the test, so the test harness's threads cannot disturb the count.

use sim_core::{SimRng, Summary, Tick};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request for `bytes` bytes.
fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// A million nanosecond latencies with plenty of duplicates, like the
/// scenario reports record.
fn record_a_million(s: &mut Summary) {
    let mut rng = SimRng::new(0x5027);
    for _ in 0..1_000_000 {
        s.record_ns(Tick::from_ns(rng.below(100_000)));
    }
}

#[test]
fn percentile_on_a_million_samples_does_not_allocate() {
    let mut s = Summary::new();
    record_a_million(&mut s);
    let before = allocs();
    let p50 = s.percentile(50.0);
    let p99 = s.percentile(99.0);
    let min = s.min();
    let max = s.max();
    let mean = s.mean();
    let steady = allocs() - before;
    assert!(min <= p50 && p50 <= p99 && p99 <= max);
    assert!(min <= mean && mean <= max);
    assert_eq!(steady, 0, "{steady} heap allocations querying 1M samples");
}

#[test]
fn recording_a_million_samples_requests_at_most_8_mib() {
    let before = bytes();
    let mut s = Summary::new();
    record_a_million(&mut s);
    let requested = bytes() - before;
    assert_eq!(s.len(), 1_000_000);
    // Doubling from 4 to 2^20 samples requests 4 B × (2^21 − 4) in all.
    assert!(
        requested <= 8 << 20,
        "recording 1M samples requested {requested} bytes"
    );
}
