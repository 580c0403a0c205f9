//! Steady-state allocation gate: once a wave-driven engine has warmed
//! up, driving more requests through `run_next` must not touch the heap.
//!
//! Every per-request structure recycles: request slots, MSHR waiter
//! nodes (one `PendingSlab` per cache), home pending lists, and the
//! completion buffer the driver hands back to `run_next`. What remains
//! is mostly the event queue's radix-heap buckets (256 of them) doubling
//! when a wave beats a bucket's occupancy record, which decays with time
//! and never scales with the request count. A regression that allocates
//! once per miss or per tick batch shows up here as tens of thousands of
//! allocations.
//!
//! This file is its own test binary with its own counting global
//! allocator; it counts only the allocations of the thread that drives
//! the engine, so the test harness's threads cannot disturb the count.

use sim_core::{SimRng, Tick};
use simcxl_coherence::prelude::*;
use simcxl_coherence::{AtomicKind, Completion};
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr, CACHELINE_BYTES};
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

const CACHES: usize = 8;
const HOT_LINES: u64 = 16;
const COLD_LINES: u64 = 2_048;
const WAVE: u64 = 256;
const WINDOW: Tick = Tick::from_us(4);

/// The hotpath stress mix's engine, scaled down: 8 small caches on a
/// four-home line interleave over two NUMA nodes.
fn engine() -> (ProtocolEngine, Vec<AgentId>) {
    let mut mi = MemoryInterface::new();
    for node in 0..2u64 {
        mi.add_memory(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
    }
    let mut eng = ProtocolEngine::builder()
        .memory(mi)
        .topology(Topology::line_interleaved(4))
        .build();
    eng.add_numa_extra(
        AddrRange::new(PhysAddr::new(1 << 30), 1 << 30),
        Tick::from_ns(40),
    );
    let agents = (0..CACHES)
        .map(|i| {
            eng.add_cache(if i % 2 == 0 {
                CacheConfig {
                    size_bytes: 8 * 1024,
                    ways: 8,
                    ..CacheConfig::cpu_l1()
                }
            } else {
                CacheConfig {
                    size_bytes: 16 * 1024,
                    ..CacheConfig::hmc_128k()
                }
            })
        })
        .collect();
    (eng, agents)
}

/// Issues `waves` waves of [`WAVE`] mixed requests, each spread over a
/// [`WINDOW`] from the engine's clock and stepped with `run_next` until
/// every request of the wave has completed. Returns the completion
/// count.
fn drive(
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    rng: &mut SimRng,
    done: &mut Vec<Completion>,
    waves: u64,
) -> u64 {
    let mut completed = 0;
    for _ in 0..waves {
        let base = eng.now();
        for _ in 0..WAVE {
            let agent = agents[rng.below(CACHES as u64) as usize];
            let at = base + Tick::from_ps(rng.below(WINDOW.as_ps()));
            let op = match rng.below(20) {
                0..=9 => MemOp::Load,
                10..=15 => MemOp::Store {
                    value: rng.next_u64(),
                },
                16 | 17 => MemOp::Rmw {
                    kind: AtomicKind::FetchAdd,
                    operand: 1,
                    operand2: 0,
                },
                18 => MemOp::NcPush {
                    value: rng.next_u64(),
                },
                _ => MemOp::Prefetch,
            };
            let line = if rng.below(5) == 0 {
                rng.below(HOT_LINES)
            } else {
                HOT_LINES + rng.below(COLD_LINES)
            };
            let addr = PhysAddr::new(((line % 2) << 30) | ((line / 2) * CACHELINE_BYTES));
            eng.issue(agent, op, addr, at);
        }
        let target = completed + WAVE;
        while completed < target {
            assert!(eng.run_next(done), "engine drained with requests open");
            completed += done.len() as u64;
        }
    }
    completed
}

#[test]
fn warm_wave_engine_does_not_allocate() {
    let (mut eng, agents) = engine();
    let mut rng = SimRng::new(0xA110C);
    let mut done = Vec::new();
    // Warm-up: touches every line many times over, so the directory,
    // functional memory, MSHR and pending slabs, request slab and queue
    // buckets all reach their working-set size.
    drive(&mut eng, &agents, &mut rng, &mut done, 200);

    let waves = 200; // 51,200 requests
    let before = allocs();
    let completed = drive(&mut eng, &agents, &mut rng, &mut done, waves);
    let steady = allocs() - before;
    assert_eq!(completed, waves * WAVE);
    // A constant (34 at this seed, 32 of them queue buckets beating
    // their occupancy records), far below one per miss or per batch.
    assert!(
        steady <= 64,
        "{steady} heap allocations while driving {completed} warm requests"
    );

    eng.run_to_quiescence();
    eng.verify_invariants();
}
