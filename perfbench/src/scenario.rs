//! `million_clients`: 1.2M logical open-loop clients over 16 cache
//! agents, run through `CohetSystem::run_scenario` on a 4-home, 4 KB
//! stride interleave. The scenario executor's session slab and wake
//! queue do their most work here (~21.8k live sessions in the burst
//! backlog); the engine workloads bypass this layer entirely.

use crate::trace::Tracer;
use crate::{MemStream, Pass, Shape, Workload};
use cohet::{CohetSystem, TopologySpec};
use sim_core::{SimRng, Tick};
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};
use simcxl_workloads::kvstore::slot_addr;
use simcxl_workloads::scenario::{self, ScenarioSpec};

/// Default seed (the scenario suite's pin seed).
pub const SEED: u64 = 0xC0_11EC7;

/// `ramp_then_burst` at a client population.
#[derive(Debug, Clone)]
pub struct MillionClients {
    /// Logical client sessions per pass.
    pub clients: u64,
}

/// The built system and the scenario it runs.
pub struct Input {
    sys: CohetSystem,
    spec: ScenarioSpec,
}

impl Workload for MillionClients {
    type Input = Input;

    fn pins(&self) -> Vec<(&'static str, u64)> {
        match self.clients {
            1_200_000 => vec![("checksum", 0xe4071f9e605ecdfa)],
            30_000 => vec![("checksum", 0x1981fe52d2394759)],
            _ => Vec::new(),
        }
    }

    fn setup(&self, seed: Option<u64>, tr: &mut Tracer) -> Input {
        let seed = seed.unwrap_or(SEED);
        let sys = tr.span("cohet.build", || {
            CohetSystem::builder()
                .topology(TopologySpec::Interleaved {
                    homes: 4,
                    stride: 4096,
                })
                .build()
        });
        let spec = tr.span("scenario.spec", || {
            scenario::ramp_then_burst(self.clients, seed)
        });
        Input { sys, spec }
    }

    fn pass(&self, input: &mut Input, tr: &mut Tracer) -> Pass {
        let out = tr.span("cohet.run_scenario", || input.sys.run_scenario(&input.spec));
        let clients = input.spec.clients;
        // A session that neither completed nor hit the safety cap was
        // lost; both count as failed.
        let lost = clients.saturating_sub(out.completed + out.capped);
        let per_access = |x: u64| x as f64 / out.accesses.max(1) as f64;
        Pass {
            attempted: clients,
            failed: out.capped + lost,
            accesses: out.accesses,
            digests: vec![("checksum", out.checksum)],
            counters: vec![
                ("scenario.peak_live", out.peak_live as f64),
                ("scenario.events_per_access", per_access(out.events)),
                ("scenario.capped", out.capped as f64),
            ],
            shape: Shape {
                requests: out.accesses,
                events: out.events,
                span_ps: out.elapsed.as_ps(),
                window_ps: Tick::from_us(1).as_ps(),
            },
            dispatch_spans: &["cohet.run_scenario"],
        }
    }

    fn mem_stream(&self, seed: Option<u64>) -> MemStream {
        let seed = seed.unwrap_or(SEED);
        // The scenario's key table sits in host memory from address 0;
        // its bucket lines are what reaches DRAM (90% GETs, 10% PUTs).
        let spec = scenario::ramp_then_burst(self.clients, seed);
        let mut mi = MemoryInterface::new();
        mi.add_memory(
            AddrRange::new(PhysAddr::new(0), 256 << 20),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        let mut rng = SimRng::new(seed);
        let n = (self.clients as usize).min(1 << 20);
        MemStream {
            mi,
            gap_ps: 1_000,
            accesses: (0..n)
                .map(|_| {
                    let key = rng.below(spec.keys);
                    let addr = slot_addr(PhysAddr::new(0), key, spec.buckets);
                    (addr, rng.below(10) == 0)
                })
                .collect(),
        }
    }
}
