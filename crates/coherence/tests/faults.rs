//! Integration tests for the deterministic fault-injection layer:
//! efficacy (faults actually add latency and count), determinism
//! (the same plan reproduces the same stream), and the drain/rehome path.

#[path = "../../sim/tests/support/summary_reference.rs"]
mod summary_reference;

use sim_core::{Summary, Tick};
use simcxl_coherence::prelude::*;
use simcxl_coherence::{
    fault::{FaultKind, FaultPlan},
    Topology,
};
use simcxl_mem::{AddrRange, PhysAddr};

fn degrade_all(backoff: Tick) -> FaultKind {
    FaultKind::LinkDegrade {
        home: None,
        max_retries: 3,
        backoff,
    }
}

/// Issues a deterministic mixed workload and drains to quiescence.
fn drive(eng: &mut ProtocolEngine, a: AgentId, b: AgentId, lines: u64) -> Vec<Completion> {
    let mut t = eng.now();
    for i in 0..(lines * 4) {
        let agent = if i % 2 == 0 { a } else { b };
        let addr = PhysAddr::new(0x4000 + (i % lines) * 64);
        let op = if i % 3 == 0 {
            MemOp::Store { value: i }
        } else {
            MemOp::Load
        };
        eng.issue(agent, op, addr, t);
        t += Tick::from_ns(40 + (i * 13) % 200);
    }
    eng.run_to_quiescence()
}

fn build(topology: Topology, plan: Option<FaultPlan>) -> ProtocolEngine {
    let mut b = ProtocolEngine::builder().topology(topology);
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    b.build()
}

#[test]
fn link_degradation_inflates_latency_and_counts_retries() {
    let horizon = Tick::from_us(100);
    let plan = FaultPlan::new(0xFA17).with(Tick::ZERO, horizon, degrade_all(Tick::from_ns(60)));
    let run = |plan: Option<FaultPlan>| {
        let mut eng = build(Topology::line_interleaved(2), plan);
        let a = eng.add_cache(CacheConfig::cpu_l1());
        let b = eng.add_cache(CacheConfig::hmc_128k());
        let done = drive(&mut eng, a, b, 16);
        eng.verify_invariants();
        (done, eng.fault_stats())
    };
    let (healthy, none) = run(None);
    let (faulted, stats) = run(Some(plan));
    assert!(none.is_none(), "no plan armed, no stats");
    let stats = stats.expect("plan armed");
    assert!(stats.link().faulted > 0, "the degrade must fire");
    assert!(stats.link().retries >= stats.link().faulted);
    assert!(stats.link().backoff > Tick::ZERO);
    // Same completions (functional values), strictly more total latency.
    assert_eq!(healthy.len(), faulted.len());
    let h: Tick = healthy.iter().map(|c| c.done - c.issued).sum();
    let f: Tick = faulted.iter().map(|c| c.done - c.issued).sum();
    assert!(
        f > h,
        "degraded run must be slower in aggregate ({f} vs {h})"
    );
    // Faults reorder completions (timing shifts) but must never change
    // what any individual load observes at the same coherence point:
    // per-address read/write counts stay identical.
    let census = |done: &[Completion]| {
        let mut v: Vec<(u64, bool)> = done
            .iter()
            .map(|c| (c.addr.raw(), matches!(c.op, MemOp::Store { .. })))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(census(&healthy), census(&faulted));
}

#[test]
fn link_faults_apply_once_per_cache_home_hop() {
    // A window open for the whole run faults every cache<->home
    // transfer exactly once, and never a home<->memory one.
    let plan = FaultPlan::new(3).with(
        Tick::ZERO,
        Tick::from_us(1_000),
        degrade_all(Tick::from_ns(5)),
    );
    let mut eng = build(Topology::line_interleaved(2), Some(plan));
    let a = eng.add_cache(CacheConfig::cpu_l1());
    let b = eng.add_cache(CacheConfig::hmc_128k());
    let line = PhysAddr::new(0x4040);
    let faulted = |eng: &ProtocolEngine| eng.fault_stats().unwrap().link().faulted;
    // Cold load: RdShared up and DataGoE down; MemRd/MemData pass clean.
    eng.issue(a, MemOp::Load, line, Tick::ZERO);
    let cold = eng.run_to_quiescence();
    assert_eq!(cold[0].level, HitLevel::Mem);
    assert_eq!(faulted(&eng), 2);
    // Snooping the peer's E copy: RdShared, SnpData, SnpRespDown, DataGoS.
    eng.issue(b, MemOp::Load, line, eng.now());
    eng.run_to_quiescence();
    assert_eq!(faulted(&eng), 6);
    eng.verify_invariants();
}

#[test]
fn slow_and_stalled_ports_queue_requests_and_flag_starvation() {
    let port = HomeId(0);
    let plan = FaultPlan::new(7)
        .with(
            Tick::ZERO,
            Tick::from_us(4),
            FaultKind::SlowMemPort {
                port,
                extra: Tick::from_ns(500),
            },
        )
        .with(
            Tick::from_us(4),
            Tick::from_us(40),
            FaultKind::StallMemPort {
                port,
                watchdog: Tick::from_us(2),
            },
        );
    let mut eng = build(Topology::single(), Some(plan));
    let a = eng.add_cache(CacheConfig::cpu_l1());
    // Cold load in the slow window: pays the extra but completes.
    let r1 = eng.issue(a, MemOp::Load, PhysAddr::new(0x8000), Tick::ZERO);
    // Cold load landing in the stall window: queues until release at
    // 40us; its wait exceeds the 2us watchdog, so it counts as starved.
    let r2 = eng.issue(a, MemOp::Load, PhysAddr::new(0x9000), Tick::from_us(5));
    let done = eng.run_to_quiescence();
    eng.verify_invariants();
    let c1 = done.iter().find(|c| c.req == r1).unwrap();
    let c2 = done.iter().find(|c| c.req == r2).unwrap();
    assert_eq!(c1.level, HitLevel::Mem);
    assert!(c1.done >= Tick::from_ns(500));
    assert!(
        c2.done >= Tick::from_us(40),
        "stalled request released only at window end, got {}",
        c2.done
    );
    let stats = eng.fault_stats().unwrap();
    let p = stats.port(port).unwrap();
    assert_eq!(p.slowed, 1);
    assert_eq!(p.slow_extra, Tick::from_ns(500));
    assert_eq!(p.stalled, 1);
    assert_eq!(p.starved, 1, "wait > watchdog must flag starvation");
    assert!(p.max_stall > Tick::from_us(30));
    assert!(stats.any());
    assert_eq!(stats.port_total().stalled, 1);
}

#[test]
fn millisecond_stalls_spill_and_summarise_exactly() {
    // Cold loads queue behind a 5 ms port stall, so the early ones wait
    // longer than 2^32 ps and take `Summary`'s spill path; the loads
    // issued after the window keep the in-range run populated.
    let port = HomeId(0);
    let plan = FaultPlan::new(5).with(
        Tick::ZERO,
        Tick::from_us(5_000),
        FaultKind::StallMemPort {
            port,
            watchdog: Tick::from_us(100),
        },
    );
    let mut eng = build(Topology::single(), Some(plan));
    let a = eng.add_cache(CacheConfig::cpu_l1());
    for i in 0..96u64 {
        eng.issue(
            a,
            MemOp::Load,
            PhysAddr::new(0x10_0000 + i * 64),
            Tick::from_us(60 * i),
        );
    }
    let done = eng.run_to_quiescence();
    eng.verify_invariants();
    assert_eq!(done.len(), 96);
    let mut s = Summary::new();
    for c in &done {
        s.record_ns(c.latency());
    }
    let spilled = done
        .iter()
        .filter(|c| c.latency().as_ps() > u64::from(u32::MAX))
        .count();
    assert!(spilled > 0, "no latency reached 2^32 ps");
    assert!(spilled < done.len(), "every latency spilled");
    let r = summary_reference::Reference::new(done.iter().map(|c| c.latency().as_ns_f64()));
    assert_eq!(s.max().to_bits(), r.percentile(100.0).to_bits());
    assert_eq!(s.percentile(99.0).to_bits(), r.percentile(99.0).to_bits());
    assert_eq!(s.mean().to_bits(), r.mean.to_bits());
    assert_eq!(s.stddev().to_bits(), r.stddev.to_bits());
}

#[test]
fn faulted_stream_reproduces_on_rerun() {
    // Overlapping link faults (one on every home, one on home 1 only)
    // plus slow and stalled ports; a rerun of the same plan must
    // reproduce the stream bit-for-bit because every fault decision is
    // a pure function of the message's own coordinates.
    let plan = FaultPlan::new(0xD15EA5E)
        .with(
            Tick::ZERO,
            Tick::from_us(500),
            degrade_all(Tick::from_ns(40)),
        )
        .with(
            Tick::from_us(1),
            Tick::from_us(300),
            FaultKind::LinkDegrade {
                home: Some(HomeId(1)),
                max_retries: 2,
                backoff: Tick::from_ns(80),
            },
        )
        .with(
            Tick::from_us(2),
            Tick::from_us(60),
            FaultKind::SlowMemPort {
                port: HomeId(1),
                extra: Tick::from_ns(700),
            },
        )
        .with(
            Tick::from_us(60),
            Tick::from_us(90),
            FaultKind::StallMemPort {
                port: HomeId(0),
                watchdog: Tick::from_us(1),
            },
        );
    let run = || {
        let mut eng = build(Topology::line_interleaved(4), Some(plan.clone()));
        let a = eng.add_cache(CacheConfig::cpu_l1());
        let b = eng.add_cache(CacheConfig::hmc_128k());
        let done = drive(&mut eng, a, b, 48);
        eng.verify_invariants();
        (done, eng.fault_stats().unwrap(), eng.events_dispatched())
    };
    let (first, first_stats, first_events) = run();
    assert!(first_stats.link().faulted > 0, "link faults must fire");
    assert!(first_stats.port_total().slowed > 0, "slow port must fire");
    let (again, again_stats, again_events) = run();
    assert_eq!(first, again, "stream diverged on rerun");
    assert_eq!(first_stats, again_stats, "fault counters diverged");
    assert_eq!(first_events, again_events);
}

#[test]
fn rehome_migrates_directory_entries_and_preserves_invariants() {
    let mut eng = build(Topology::line_interleaved(2), None);
    let a = eng.add_cache(CacheConfig::cpu_l1());
    let b = eng.add_cache(CacheConfig::hmc_128k());
    drive(&mut eng, a, b, 32);
    eng.verify_invariants();
    let before = eng.home_stats_view().get(HomeId(1)).copied().unwrap();
    assert!(before.requests > 0, "home 1 must have seen traffic");
    // Drain home 1: every address now belongs to home 0 (the claim
    // covers the traffic range; the single-home fallback the rest).
    let drained = Topology::ranges(
        2,
        vec![(AddrRange::new(PhysAddr::new(0), 1 << 30), HomeId(0))],
        1,
        64,
    );
    let stats = eng.rehome(drained);
    assert!(stats.moved > 0, "half the lines lived at home 1");
    assert!(stats.with_peers > 0, "resident lines must migrate");
    assert!(stats.with_peers <= stats.moved);
    eng.verify_invariants(); // shard-locality now holds under the new map
                             // Traffic keeps flowing after the drain, all of it at home 0.
    let snapshot = eng.home_stats_view().get(HomeId(1)).copied();
    drive(&mut eng, a, b, 32);
    eng.verify_invariants();
    assert_eq!(
        eng.home_stats_view().get(HomeId(1)).copied(),
        snapshot,
        "drained home must see no further traffic"
    );
}

#[test]
fn rehome_stream_reproduces_on_rerun() {
    // A drain mid-run must not make the post-rehome stream depend on
    // anything but the inputs: a rerun reproduces both halves.
    let drained = Topology::ranges(
        2,
        vec![(AddrRange::new(PhysAddr::new(0), 1 << 30), HomeId(0))],
        1,
        64,
    );
    let run = || {
        let mut eng = build(Topology::line_interleaved(2), None);
        let a = eng.add_cache(CacheConfig::cpu_l1());
        let b = eng.add_cache(CacheConfig::hmc_128k());
        let first = drive(&mut eng, a, b, 24);
        eng.rehome(drained.clone());
        eng.verify_invariants();
        let second = drive(&mut eng, a, b, 24);
        (first, second, eng.home_stats_view().total())
    };
    let (s1, s2, s_stats) = run();
    let (p1, p2, p_stats) = run();
    assert_eq!(s1, p1);
    assert_eq!(s2, p2, "post-rehome stream diverged on rerun");
    assert_eq!(s_stats, p_stats);
}

#[test]
#[should_panic(expected = "rehome requires a quiescent engine")]
fn rehome_rejects_in_flight_traffic() {
    let mut eng = build(Topology::line_interleaved(2), None);
    let a = eng.add_cache(CacheConfig::cpu_l1());
    eng.issue(a, MemOp::Load, PhysAddr::new(0x4000), Tick::ZERO);
    // No drain: the request is still in flight.
    eng.rehome(Topology::line_interleaved(2));
}

#[test]
#[should_panic(expected = "fault plan names home")]
fn fault_plan_port_out_of_range_rejected() {
    let plan = FaultPlan::new(0).with(
        Tick::ZERO,
        Tick::from_us(1),
        FaultKind::SlowMemPort {
            port: HomeId(5),
            extra: Tick::from_ns(1),
        },
    );
    let _ = build(Topology::line_interleaved(2), Some(plan));
}
