//! Engine-level determinism after the calendar-queue/slab refactor: two
//! identical runs must produce *identical* completion streams — same
//! requests, same values, same timestamps, same order.

use sim_core::{SimRng, Tick};
use simcxl_coherence::prelude::*;
use simcxl_mem::PhysAddr;

/// A randomized-but-seeded workload mixing every operation type over a
/// hot set (contention, snoops, replays) and a cold set (misses,
/// evictions), issued in waves so the queue stays partially drained.
fn run_workload(seed: u64) -> Vec<Completion> {
    run_workload_engine(seed).1
}

/// [`run_workload`], also returning the drained engine for its counters.
fn run_workload_engine(seed: u64) -> (ProtocolEngine, Vec<Completion>) {
    let mut eng = ProtocolEngine::builder().build();
    let mut agents = Vec::new();
    for i in 0..6 {
        agents.push(eng.add_cache(if i % 2 == 0 {
            CacheConfig {
                size_bytes: 8 * 1024,
                ways: 8,
                ..CacheConfig::cpu_l1()
            }
        } else {
            CacheConfig::hmc_128k()
        }));
    }
    let mut rng = SimRng::new(seed);
    let mut stream = Vec::new();
    for _wave in 0..40 {
        let base = eng.now();
        for _ in 0..64 {
            let agent = agents[rng.below(agents.len() as u64) as usize];
            let line = if rng.below(4) == 0 {
                rng.below(8)
            } else {
                8 + rng.below(512)
            };
            let addr = PhysAddr::new(line * 64);
            let op = match rng.below(10) {
                0..=4 => MemOp::Load,
                5..=7 => MemOp::Store {
                    value: rng.next_u64(),
                },
                8 => MemOp::Rmw {
                    kind: AtomicKind::FetchAdd,
                    operand: 1,
                    operand2: 0,
                },
                _ => MemOp::NcPush {
                    value: rng.next_u64(),
                },
            };
            let at = base + Tick::from_ps(rng.below(2_000_000));
            eng.issue(agent, op, addr, at);
        }
        stream.extend(eng.run_until(base + Tick::from_us(2)));
    }
    stream.extend(eng.run_to_quiescence());
    eng.verify_invariants();
    (eng, stream)
}

#[test]
fn identical_runs_produce_identical_completion_streams() {
    let a = run_workload(42);
    let b = run_workload(42);
    assert_eq!(a.len(), b.len());
    // Completion derives PartialEq over every field (req, agent, addr,
    // op, issued, done, level, value): element-wise equality is the
    // byte-identical-stream check.
    assert_eq!(a, b);
    assert!(a.len() >= 2_500, "workload too small: {}", a.len());
}

#[test]
fn fast_path_counts_inline_llc_grants() {
    // Every request reaching a home is counted exactly once: as a busy
    // hit, an inline LLC grant (`fast_path`) or anything else
    // (`general_path`). On the mixed workload the profile must account
    // for every request the homes saw, and inline grants must occur.
    let (eng, _) = run_workload_engine(42);
    let p = eng.profile();
    assert_eq!(p.requests(), eng.home_stats_view().total().requests);
    assert!(p.fast_path > 0);
    // The exact split on three loads of one line from three caches:
    // the first misses the LLC (memory fetch), the second snoops the
    // exclusive owner down, the third hits a clean shared line with no
    // owner and is granted inline.
    let mut eng = ProtocolEngine::builder().build();
    let caches: Vec<_> = (0..3)
        .map(|_| eng.add_cache(CacheConfig::cpu_l1()))
        .collect();
    for c in caches {
        eng.issue(c, MemOp::Load, PhysAddr::new(0x40), eng.now());
        eng.run_to_quiescence();
    }
    let p = eng.profile();
    assert_eq!((p.busy_hits, p.fast_path, p.general_path), (0, 1, 2));
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the stream actually depends on the workload (the
    // equality above is not vacuous).
    let a = run_workload(42);
    let b = run_workload(43);
    assert_ne!(a, b);
}

#[test]
fn request_slots_recycle_without_aliasing() {
    // Far more sequential requests than are ever concurrently live: slot
    // reuse must keep every returned ReqId unique.
    let mut eng = ProtocolEngine::builder().build();
    let c = eng.add_cache(CacheConfig::cpu_l1());
    let mut seen = std::collections::HashSet::new();
    let mut t = Tick::ZERO;
    for i in 0..2_000u64 {
        let id = eng.issue(
            c,
            MemOp::Store { value: i },
            PhysAddr::new((i % 32) * 64),
            t,
        );
        assert!(seen.insert(id), "ReqId reissued: {id}");
        let done = eng.run_to_quiescence();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].req, id);
        t = eng.now() + Tick::from_ns(1);
    }
    eng.verify_invariants();
}
