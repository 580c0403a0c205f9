//! `Summary::percentile` sorts its samples in place: on a million
//! recorded samples it must not touch the heap. A stable sort would
//! allocate a scratch buffer as long as the samples (8 MB here), and
//! where that buffer lands at the end of a run decides the run's peak
//! resident memory.
//!
//! This file is its own test binary with its own counting global
//! allocator; it counts only the allocations of the thread that runs
//! the test, so the test harness's threads cannot disturb the count.

use sim_core::{SimRng, Summary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

#[test]
fn percentile_on_a_million_samples_does_not_allocate() {
    let mut rng = SimRng::new(0x5027);
    let mut s = Summary::new();
    for _ in 0..1_000_000 {
        // Nanosecond latencies with plenty of duplicates, like the
        // scenario reports record.
        s.record(rng.below(100_000) as f64);
    }
    let before = allocs();
    let p50 = s.percentile(50.0);
    let p99 = s.percentile(99.0);
    let max = s.max();
    let steady = allocs() - before;
    assert!(p50 <= p99 && p99 <= max);
    assert_eq!(steady, 0, "{steady} heap allocations sorting 1M samples");
}
