//! Layer microkernels: the event queue and the memory interface driven
//! alone with the workload's own shape, and two fixed std-only kernels
//! that share no repository code: one so results from different hosts
//! can be put side by side, one that pass times are normalised by.

use crate::{MemStream, Shape};
use sim_core::{EventQueue, Tick};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Link, home, snoop and memory hop latencies (ps) the replayed events
/// are scheduled at.
const HOPS_PS: [u64; 5] = [2_000, 10_000, 40_000, 80_000, 120_000];

/// Host ns per event of the workload's event stream replayed through
/// `EventQueue::push` / `pop_before`: `shape.requests` arrivals spread
/// over `shape.span_ps`, released one `window_ps` at a time, each
/// followed by a chain of hop events so `shape.events` pop in all.
pub fn queue_ns_per_event(shape: &Shape) -> f64 {
    let requests = shape.requests.max(1);
    let events = shape.events.max(requests);
    let gap = (shape.span_ps / requests).max(1);
    let window = shape.window_ps.max(1);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut issued = 0u64;
    let mut popped = 0u64;
    let mut end = 0u64;
    let mut drain = |q: &mut EventQueue<u64>, until: Tick, popped: &mut u64| {
        while let Some((t, hops)) = q.pop_before(until) {
            *popped += 1;
            if hops > 1 {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                let hop = HOPS_PS[(lcg >> 61) as usize % HOPS_PS.len()];
                q.push(t + Tick::from_ps(hop), hops - 1);
            }
        }
    };
    let start = Instant::now();
    while issued < requests {
        end += window;
        while issued < requests && issued * gap < end {
            // Spread `events` over the requests as evenly as integers
            // allow; every request is at least its own arrival event.
            let hops = ((issued + 1) * events / requests - issued * events / requests).max(1);
            q.push(Tick::from_ps(issued * gap), hops);
            issued += 1;
        }
        drain(&mut q, Tick::from_ps(end), &mut popped);
    }
    drain(&mut q, Tick::MAX, &mut popped);
    start.elapsed().as_secs_f64() * 1e9 / black_box(popped) as f64
}

/// Host ns per access of the workload's address stream replayed through
/// `MemoryInterface::read` / `write`.
pub fn mem_ns_per_access(stream: MemStream) -> f64 {
    let MemStream {
        mut mi,
        gap_ps,
        accesses,
    } = stream;
    let mut now = Tick::ZERO;
    let start = Instant::now();
    for &(addr, write) in &accesses {
        let done = if write {
            mi.write(now, addr, 64)
        } else {
            mi.read(now, addr, 64)
        };
        black_box(done);
        now += Tick::from_ps(gap_ps);
    }
    start.elapsed().as_secs_f64() * 1e9 / accesses.len().max(1) as f64
}

/// Host ns per iteration of a fixed xorshift-and-scatter loop over a
/// 32 KB table: a std-only calibration of the host's speed.
pub fn host_calib_ns() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut table = vec![0u64; 4096];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let start = Instant::now();
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 4095;
        table[j] = table[j].wrapping_add(x ^ i);
    }
    black_box(&table);
    start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

/// Host seconds of [`reference_s`] on this host when no other tenant
/// loads its memory hierarchy (2-vCPU Intel Xeon at 2.1 GHz).
pub const REFERENCE_QUIET_S: f64 = 0.046;

/// Host seconds of a fixed std-only event loop shaped like a simulator's:
/// a binary-heap calendar of 4096 pending events, each popped event
/// updating one of 2^20 keys in a freshly built hash map and scheduling
/// its successor. It shares no repository code, so no change to the
/// simulator moves it, but it allocates, hashes and misses the caches
/// the way a pass does, so the host's memory-side slow phases slow it
/// about as much as they slow a pass.
pub fn reference_s() -> f64 {
    type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;
    const EVENTS: u64 = 400_000;
    let start = Instant::now();
    let mut state = Map::default();
    let mut calendar: BinaryHeap<Reverse<(u64, u64)>> =
        (0..4096).map(|i| Reverse((i * 10, i))).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..EVENTS {
        let Reverse((t, k)) = calendar.pop().expect("the calendar never empties");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & ((1 << 20) - 1);
        *state.entry(key).or_insert(0) += k;
        calendar.push(Reverse((t + 1 + (x >> 40) % 1000, key)));
    }
    black_box(&state);
    start.elapsed().as_secs_f64()
}

/// Median of `runs` calls of `f`.
pub fn median_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..runs).map(|_| f()).collect();
    crate::median(&mut v)
}
