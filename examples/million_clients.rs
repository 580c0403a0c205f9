//! Million-client scenario walkthrough: a logical client population
//! ramping onto a 4-way interleaved directory, holding steady, then
//! taking a thundering-herd burst — all multiplexed over 16 real cache
//! agents by the scenario engine.
//!
//! Run with: `cargo run --release --example million_clients -- 1000000`
//! (the population defaults to 50 000 so the debug build stays quick).

use cohet::prelude::*;
use cohet::TopologySpec;
use simcxl_workloads::scenario;

fn main() {
    let clients: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("client count"))
        .unwrap_or(50_000);

    // The scenario is declarative data: population, arrival discipline,
    // per-client session machine, and phased traffic shapes. Phase
    // windows scale with the population so arrival density stays at the
    // designed level.
    let spec = scenario::ramp_then_burst(clients, 42);
    println!(
        "scenario {:?}: {} clients over {} agents, {} phases, {:.0} us of simulated traffic",
        spec.name,
        spec.clients,
        spec.agents,
        spec.phases.len(),
        spec.total_duration().as_us_f64(),
    );

    // The system under test: same builder as every other Cohet
    // experiment, with the directory interleaved across four homes.
    let sys = CohetSystem::builder()
        .topology(TopologySpec::Interleaved {
            homes: 4,
            stride: 4096,
        })
        .build();

    let start = std::time::Instant::now();
    let out = sys.run_scenario(&spec);
    let wall = start.elapsed().as_secs_f64();

    // Every logical client reaches a terminal state on its own (none is
    // force-finished by the safety cap), and each is counted in exactly
    // one phase.
    assert_eq!(out.completed + out.capped, clients, "lost sessions");
    assert_eq!(out.capped, 0, "sessions hit the safety cap");
    assert_eq!(
        out.phases.iter().map(|p| p.sessions).sum::<u64>(),
        clients,
        "per-phase sessions must sum to the population"
    );
    for p in &out.phases {
        assert!(
            p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns,
            "{}: percentiles out of order",
            p.name
        );
    }
    assert_eq!(sys.run_scenario(&spec), out, "rerun diverged");

    println!(
        "completed {} sessions ({} capped), {} accesses, {} engine events in {:.2}s wall ({:.2} M events/s)",
        out.completed,
        out.capped,
        out.accesses,
        out.events,
        wall,
        out.events as f64 / wall / 1e6,
    );
    println!("peak concurrent sessions: {}", out.peak_live);
    println!(
        "completion checksum: {:#018x} (rerun reproduces it exactly)",
        out.checksum
    );
    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>9} {:>9} {:>12}",
        "phase", "sessions", "accesses", "p50 ns", "p95 ns", "p99 ns", "acc/us"
    );
    for p in &out.phases {
        println!(
            "{:<8} {:>10} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>12.1}",
            p.name,
            p.sessions,
            p.accesses,
            p.p50_ns,
            p.p95_ns,
            p.p99_ns,
            p.throughput_per_us(),
        );
    }
}
