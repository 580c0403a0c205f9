//! Allocation gate for the Fig. 18 paths: a (de)serialization call must
//! not touch the heap per message or per line.
//!
//! The byte costs come from `encoded_len`, not from encoding and
//! decoding each message; the CXL.cache serializer reuses one
//! prefetch-target buffer and a fetch-queue-sized completion list. What
//! remains is per call: the coherence engine and its tables growing to
//! the working set, a few hundred allocations whatever the message
//! count. A path that allocates per message shows up here as thousands
//! (Bench1 has 15,000 messages).
//!
//! This file is its own test binary with its own counting global
//! allocator; it counts only the allocations of the thread that drives
//! the model, so the test harness's threads cannot disturb the count.

use protowire::{genbench, BenchId};
use simcxl_nic::{RpcNicModel, SerializeMode};
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

/// Per-call ceiling: well above the engine's per-call setup, far below
/// one allocation per message on any bench.
const MAX_ALLOCS_PER_CALL: u64 = 1_000;

/// Heap allocations `f` makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

#[test]
fn fig18_paths_allocate_per_call_not_per_message() {
    for id in BenchId::all() {
        let w = genbench::generate(id, genbench::FIG18_SEED);
        let mut m = RpcNicModel::asic();
        let check = |path: &str, n: u64| {
            assert!(
                n <= MAX_ALLOCS_PER_CALL,
                "{id:?} {path}: {n} allocations for {} messages",
                w.messages.len()
            );
        };
        check("deserialize_rpcnic", counted(|| m.deserialize_rpcnic(&w)));
        check("deserialize_cxl", counted(|| m.deserialize_cxl(&w)));
        for mode in SerializeMode::all() {
            check(mode.label(), counted(|| m.serialize(&w, mode)));
        }
    }
}
