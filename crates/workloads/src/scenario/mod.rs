//! Declarative million-client scenario engine.
//!
//! The hotpath stress harness drives the protocol engine with one flat
//! request stream; real deployments look different — *populations* of
//! clients arriving over time, each running a short session against a
//! shared store, with ramps, bursts, and adversarial hot-key storms.
//! This module turns that shape into data:
//!
//! * [`ScenarioSpec`] — the declarative description: client population,
//!   [`Arrival`] discipline (open or closed loop), per-client session
//!   machine, key space, and a sequence of [`PhaseSpec`]s with
//!   [`Traffic`] shapes.
//! * [`MachineSpec`] — the session machine, GET/PUT or
//!   scan-then-write: its transitions are one `match`, and a
//!   per-session safety cap force-finishes a runaway session.
//! * [`run`] / [`run_from`] — the executor: multiplexes millions of
//!   logical sessions as lightweight records over a handful of real
//!   cache agents, interleaving a scenario-side calendar queue with the
//!   engine's event loop.
//! * [`ScenarioOutcome`] — per-phase p50/p95/p99 latency, throughput,
//!   and the order-sensitive completion checksum (same folding as the
//!   hotpath determinism canary).
//!
//! Everything downstream of the spec is deterministic: arrival times
//! are computed by inverting traffic-shape integrals (no sampling), and
//! every random draw comes from one [`sim_core::SimRng`] seeded by the
//! spec. Identical specs reproduce identical checksums.

mod exec;
mod machine;
mod phase;
mod report;
mod session;
mod spec;

pub use exec::{run, run_from};
pub use phase::{PhaseSpec, Traffic};
pub use report::{PhaseReport, ScenarioOutcome};
pub use spec::{hot_key_storm, ramp_then_burst, steady_closed, Arrival, MachineSpec, ScenarioSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Tick;
    use simcxl_coherence::{AgentId, CacheConfig, ProtocolEngine, Topology};
    use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};

    fn engine_for(spec: &ScenarioSpec, homes: usize) -> (ProtocolEngine, Vec<AgentId>) {
        let mut mi = MemoryInterface::new();
        mi.add_memory(
            AddrRange::new(PhysAddr::new(0), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        let mut eng = ProtocolEngine::builder()
            .memory(mi)
            .topology(if homes == 1 {
                Topology::single()
            } else {
                Topology::interleaved(homes, 4096)
            })
            .build();
        let agents = (0..spec.agents)
            .map(|_| eng.add_cache(CacheConfig::cpu_l1()))
            .collect();
        (eng, agents)
    }

    fn small(clients: u64, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            clients,
            agents: 4,
            keys: 1 << 10,
            buckets: 1 << 11,
            ..ramp_then_burst(clients, seed)
        }
    }

    fn run_small(spec: &ScenarioSpec, homes: usize) -> ScenarioOutcome {
        let (mut eng, agents) = engine_for(spec, homes);
        run(spec, &mut eng, &agents, PhysAddr::new(0))
    }

    #[test]
    fn every_client_completes_exactly_once() {
        let spec = small(500, 7);
        let out = run_small(&spec, 2);
        assert_eq!(out.completed + out.capped, spec.clients);
        assert_eq!(out.capped, 0, "no sane session hits the cap");
        assert!(out.accesses >= spec.clients, "every session reads once");
        assert_eq!(
            out.phases.iter().map(|p| p.sessions).sum::<u64>(),
            spec.clients
        );
        assert!(out.elapsed > Tick::ZERO);
        assert!(out.events > 0);
    }

    #[test]
    fn identical_specs_reproduce_identical_outcomes() {
        let spec = small(400, 11);
        let a = run_small(&spec, 2);
        let b = run_small(&spec, 2);
        assert_eq!(a, b);
        assert_ne!(a.checksum, 0);
    }

    #[test]
    fn seed_changes_the_stream() {
        let a = run_small(&small(300, 1), 1);
        let b = run_small(&small(300, 2), 1);
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn closed_loop_bounds_concurrency() {
        let mut spec = small(400, 5);
        spec.arrival = Arrival::Closed { concurrency: 16 };
        spec.machine = MachineSpec::ScanThenWrite { reads: 2 };
        let out = run_small(&spec, 2);
        assert_eq!(out.completed, spec.clients);
        assert!(
            out.peak_live <= 16,
            "closed loop leaked to {} live sessions",
            out.peak_live
        );
        assert_eq!(out.accesses, spec.clients * 2);
    }

    #[test]
    fn hot_key_phase_reports_separately() {
        let mut spec = small(600, 9);
        spec.phases = vec![
            PhaseSpec::new("warm", Tick::from_us(200), Traffic::Steady { rate: 1.0 }),
            PhaseSpec::new(
                "storm",
                Tick::from_us(200),
                Traffic::HotKey {
                    rate: 1.0,
                    hot_keys: 8,
                    hot_fraction: 0.95,
                },
            ),
        ];
        let out = run_small(&spec, 2);
        assert_eq!(out.phases.len(), 2);
        assert_eq!(out.phases[0].name, "warm");
        assert_eq!(out.phases[1].name, "storm");
        assert!(out.phases[1].accesses > 0);
        for p in &out.phases {
            assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns);
        }
    }

    #[test]
    fn canonical_scenarios_run_small() {
        for spec in [
            ramp_then_burst(800, 1),
            steady_closed(800, 2),
            hot_key_storm(800, 3),
        ] {
            let out = run_small(&spec, 2);
            assert_eq!(out.completed + out.capped, spec.clients, "{}", spec.name);
            assert_ne!(out.checksum, 0, "{}", spec.name);
        }
    }
}
