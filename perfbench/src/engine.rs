//! `wave_stress` and `dense_batch`: the hotpath stress mix driven
//! straight through `ProtocolEngine`, with no scenario layer between the
//! benchmark and the coherence engine.
//!
//! Both use the same engine (8 caches, a four-home line interleave over
//! four 1 GB NUMA nodes) and the same request mix; they differ in how
//! the requests are issued. `wave_stress` is semi-closed: 256-request
//! waves over 4 µs windows, each run to its window end before the next
//! is issued, which keeps ~3 MSHRs live per cache. `dense_batch` is open
//! loop: every request is issued ~1 ns apart up front and drained by one
//! `run_to_quiescence`, which keeps ~48 MSHRs live and the pending lists
//! deep.

use crate::trace::Tracer;
use crate::{MemStream, Pass, Shape, Workload};
use sim_core::{SimRng, Tick};
use simcxl_coherence::prelude::*;
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr, CACHELINE_BYTES};

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// Waves of `WAVE` requests over `WINDOW_US` windows.
    Waves,
    /// Everything up front, 1 ns apart, one drain.
    Dense,
}

const CACHES: usize = 8;
const HOMES: usize = 4;
const HOT_LINES: u64 = 16;
const COLD_LINES: u64 = 16_384;
const WAVE: usize = 256;
const WINDOW_US: u64 = 4;

/// Default seed of both engine workloads (the hotpath pin seed).
pub const SEED: u64 = 0xC0FFEE;

/// One of the two engine workloads at a request count.
#[derive(Debug, Clone)]
pub struct EngineBatch {
    /// Issue pattern.
    pub issue: Issue,
    /// External requests per pass.
    pub requests: usize,
}

impl EngineBatch {
    /// The benchmark's `wave_stress`.
    pub fn wave_stress() -> Self {
        EngineBatch {
            issue: Issue::Waves,
            requests: 400_000,
        }
    }

    /// The benchmark's `dense_batch`.
    pub fn dense_batch() -> Self {
        EngineBatch {
            issue: Issue::Dense,
            requests: 400_000,
        }
    }
}

/// One pre-generated external request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    agent: usize,
    op: MemOp,
    addr: PhysAddr,
    /// Waves: offset into the wave's window; dense: absolute issue time.
    at: Tick,
}

/// A built engine and the pass's requests.
pub struct Input {
    eng: ProtocolEngine,
    agents: Vec<AgentId>,
    reqs: Vec<Req>,
}

/// The engine's memory: four 1 GB DDR5 NUMA nodes.
pub fn memory() -> MemoryInterface {
    let mut mi = MemoryInterface::new();
    for node in 0..4u64 {
        mi.add_memory(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
    }
    mi
}

fn build_engine() -> (ProtocolEngine, Vec<AgentId>) {
    let mut eng = ProtocolEngine::builder()
        .memory(memory())
        .topology(Topology::line_interleaved(HOMES))
        .build();
    for node in 1..4u64 {
        eng.add_numa_extra(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            Tick::from_ns(40 * node),
        );
    }
    // Deliberately small caches, so capacity evictions keep the
    // writeback tables churning.
    let agents = (0..CACHES)
        .map(|i| {
            eng.add_cache(if i % 2 == 0 {
                CacheConfig {
                    size_bytes: 16 * 1024,
                    ways: 8,
                    ..CacheConfig::cpu_l1()
                }
            } else {
                CacheConfig {
                    size_bytes: 32 * 1024,
                    ..CacheConfig::hmc_128k()
                }
            })
        })
        .collect();
    (eng, agents)
}

fn pick_addr(rng: &mut SimRng) -> PhysAddr {
    // 20% of accesses hammer the hot set; the rest spread over the cold
    // set, striped round-robin over the four NUMA nodes.
    let line = if rng.below(5) == 0 {
        rng.below(HOT_LINES)
    } else {
        HOT_LINES + rng.below(COLD_LINES)
    };
    PhysAddr::new(((line % 4) << 30) | ((line / 4) * CACHELINE_BYTES))
}

fn pick_op(rng: &mut SimRng) -> MemOp {
    match rng.below(20) {
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
    }
}

/// The requests of one pass. The draw order per request is the hotpath
/// driver's (waves: agent, offset, op, address; dense: agent, op,
/// address, offset), so the default seed reproduces its pinned streams.
pub fn requests(issue: Issue, n: usize, seed: u64) -> Vec<Req> {
    let mut rng = SimRng::new(seed);
    let window_ps = Tick::from_us(WINDOW_US).as_ps();
    (0..n)
        .map(|i| {
            let agent = rng.below(CACHES as u64) as usize;
            match issue {
                Issue::Waves => {
                    let at = Tick::from_ps(rng.below(window_ps));
                    let op = pick_op(&mut rng);
                    Req {
                        agent,
                        op,
                        addr: pick_addr(&mut rng),
                        at,
                    }
                }
                Issue::Dense => {
                    let op = pick_op(&mut rng);
                    let addr = pick_addr(&mut rng);
                    let at = Tick::from_ns(i as u64) + Tick::from_ps(rng.below(999));
                    Req {
                        agent,
                        op,
                        addr,
                        at,
                    }
                }
            }
        })
        .collect()
}

/// Folds one completion into the order-sensitive stream digest the
/// hotpath pins use.
fn fold(acc: u64, c: &Completion) -> u64 {
    acc.rotate_left(7)
        .wrapping_add(c.value ^ c.done.as_ps() ^ c.addr.raw())
}

impl Workload for EngineBatch {
    type Input = Input;

    fn pins(&self) -> Vec<(&'static str, u64)> {
        match (self.issue, self.requests) {
            (Issue::Waves, 400_000) => vec![("checksum", 0xaf8d20619e573581)],
            (Issue::Dense, 400_000) => vec![("checksum", 0x09b49727d30b6680)],
            (Issue::Dense, 20_000) => vec![("checksum", 0x0c896c524bd5265a)],
            _ => Vec::new(),
        }
    }

    fn setup(&self, seed: Option<u64>, tr: &mut Tracer) -> Input {
        let seed = seed.unwrap_or(SEED);
        let (eng, agents) = tr.span("coherence.build", build_engine);
        let reqs = tr.span("inputs.generate", || {
            requests(self.issue, self.requests, seed)
        });
        Input { eng, agents, reqs }
    }

    fn pass(&self, input: &mut Input, tr: &mut Tracer) -> Pass {
        let Input { eng, agents, reqs } = input;
        let mut completions = 0u64;
        let mut checksum = 0u64;
        let mut take = |done: Vec<Completion>| {
            for c in &done {
                completions += 1;
                checksum = fold(checksum, c);
            }
        };
        match self.issue {
            Issue::Waves => {
                let window = Tick::from_us(WINDOW_US);
                for wave in reqs.chunks(WAVE) {
                    let base = eng.now();
                    tr.span("coherence.issue", || {
                        for r in wave {
                            eng.issue(agents[r.agent], r.op, r.addr, base + r.at);
                        }
                    });
                    take(tr.span("coherence.dispatch", || eng.run_until(base + window)));
                }
            }
            Issue::Dense => tr.span("coherence.issue", || {
                for r in reqs.iter() {
                    eng.issue(agents[r.agent], r.op, r.addr, r.at);
                }
            }),
        }
        take(tr.span("coherence.dispatch", || eng.run_to_quiescence()));
        tr.span("coherence.verify", || eng.verify_invariants());

        let events = eng.events_dispatched();
        let p = eng.profile();
        let home = eng.home_stats_view().total();
        let requests = reqs.len() as u64;
        let per_req = |x: u64| x as f64 / home.requests.max(1) as f64;
        let span_ps = eng.now().as_ps();
        Pass {
            attempted: requests,
            failed: requests.saturating_sub(completions),
            accesses: completions,
            digests: vec![("checksum", checksum)],
            counters: vec![
                (
                    "coherence.events_per_access",
                    events as f64 / requests as f64,
                ),
                ("coherence.fast_path_rate", p.fast_path_rate()),
                ("coherence.busy_hit_rate", p.busy_hit_rate()),
                ("coherence.pending_depth_mean", p.pending_depth.mean()),
                ("coherence.replay_chain_mean", p.replay_chain.mean()),
                ("coherence.snoop_fanout_mean", p.snoop_fanout.mean()),
                ("coherence.mshr_occupancy_mean", p.mshr_occupancy.mean()),
                ("coherence.llc_hit_rate", per_req(home.llc_hits)),
                ("coherence.snoops_per_request", per_req(home.snoops_sent)),
                ("mem.accesses_per_request", per_req(home.mem_fetches)),
                ("mem.accesses", home.mem_fetches as f64),
            ],
            shape: Shape {
                requests,
                events,
                span_ps,
                window_ps: match self.issue {
                    Issue::Waves => Tick::from_us(WINDOW_US).as_ps(),
                    Issue::Dense => span_ps,
                },
            },
            dispatch_spans: &["coherence.dispatch"],
        }
    }

    fn mem_stream(&self, seed: Option<u64>) -> MemStream {
        let seed = seed.unwrap_or(SEED);
        let reqs = requests(self.issue, self.requests, seed);
        MemStream {
            mi: memory(),
            gap_ps: 1_000,
            accesses: reqs
                .iter()
                .map(|r| {
                    let write = matches!(r.op, MemOp::Store { .. } | MemOp::NcPush { .. });
                    (r.addr, write)
                })
                .collect(),
        }
    }
}
