//! Degradation scenario suite: canonical fault cases over the scenario
//! engine.
//!
//! Each [`FaultCase`] chains single-phase scenario segments on **one**
//! coherence engine (via `scenario::run_from`), with a deterministic
//! [`FaultPlan`] whose windows are aligned
//! to the planned segment starts:
//!
//! * [`FlakyLink`](FaultCase::FlakyLink) — every cache↔home transfer
//!   retries with bounded exponential backoff during the degraded
//!   window (CRC-storm on the CXL link).
//! * [`StallingExpander`](FaultCase::StallingExpander) — the Type-3
//!   expander's memory port first runs slow, then stalls outright;
//!   queued requests release at the window end and the watchdog flags
//!   the starved ones.
//! * [`DrainUnderLoad`](FaultCase::DrainUnderLoad) — a planned
//!   hot-remove: the expander's link degrades under live traffic, its
//!   pages migrate off through the `cohet-os` machinery (cost modeled),
//!   and its address range is re-homed onto the host homes via
//!   [`TopologySpec::Ranges`] while the scenario keeps flowing.
//!
//! Every segment boundary asserts the engine's coherence invariants,
//! and every fault decision is a pure function of the plan's seed and
//! the message's own coordinates, so a case reruns bit-identically —
//! [`FaultOutcome::checksum`] is a pinnable
//! artifact, exactly like the hotpath and scenario checksums.

use crate::system::CohetSystem;
use crate::topo::TopologySpec;
use cohet_os::{migration, AccessKind, Accessor, Process, PAGE_SIZE};
use sim_core::Tick;
use simcxl_coherence::{AgentId, CacheConfig, FaultKind, FaultPlan, HomeId, ProtocolEngine};
use simcxl_mem::{AddrRange, PhysAddr};
use simcxl_pcie::{PcieLink, PcieLinkConfig};
use simcxl_workloads::scenario::{self, Arrival, MachineSpec, PhaseSpec, ScenarioSpec, Traffic};

/// Idle guard between planned segment starts: open-loop arrivals stop
/// at the segment's duration, and the tail of in-flight work (including
/// stall-window releases) must drain before the next segment — and the
/// next fault window — begins, so windows and traffic stay aligned.
const SEGMENT_GUARD: Tick = Tick::from_us(100);

/// Flits one link-layer retry puts back on the wire: the retried
/// transfer replays its header and cacheline data, five 16-byte slots,
/// which round up to two four-slot flits.
const FLITS_PER_REPLAY: u64 = 2;

/// Wire bytes of one CXL 1.1/2.0 flit: 64 B of slots, a 2 B CRC and a
/// 2 B protocol ID.
const FLIT_BYTES: u64 = 68;

/// What a segment measures, and how the recovery gates treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// Cache warm-up; excluded from the gates.
    Warmup,
    /// Fault-free baseline.
    Healthy,
    /// A fault window is active: median latency must sit strictly above
    /// the healthy baseline.
    Degraded,
    /// Faults cleared (and any drain completed): median latency must
    /// return to within 15% of the healthy baseline.
    Recovered,
}

impl PhaseMode {
    /// Stable lowercase name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            PhaseMode::Warmup => "warmup",
            PhaseMode::Healthy => "healthy",
            PhaseMode::Degraded => "degraded",
            PhaseMode::Recovered => "recovered",
        }
    }
}

/// Per-segment measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPhase {
    /// Segment name.
    pub name: String,
    /// Role in the recovery gates.
    pub mode: PhaseMode,
    /// Median access latency, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile access latency, nanoseconds.
    pub p95_ns: f64,
    /// Mean access latency, nanoseconds.
    pub mean_ns: f64,
    /// Coherent accesses completed in the segment.
    pub accesses: u64,
    /// The segment's own completion-stream checksum.
    pub checksum: u64,
}

/// The drain/hot-remove step of [`FaultCase::DrainUnderLoad`].
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// OS pages migrated off the expander.
    pub pages: u64,
    /// Total OS-side migration cost (kernel overhead + HMM handshake +
    /// page copies), from `cohet_os::migration`.
    pub migration_cost: Tick,
    /// Serialization time of the page copies over the expander's
    /// (degraded, one-retry-per-TLP) PCIe link.
    pub wire_time: Tick,
    /// Directory entries re-homed off the drained agent.
    pub moved_lines: u64,
    /// Re-homed entries that still had an owner or sharers (live cached
    /// state that migrated with its directory entry).
    pub with_peers: u64,
}

/// Everything one fault case produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Case name.
    pub name: String,
    /// Sessions that ran to a terminal state, across all segments.
    pub completed: u64,
    /// Sessions force-finished by the safety cap.
    pub capped: u64,
    /// Coherent accesses completed.
    pub accesses: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Fold of the per-segment checksums, in order — the case's
    /// determinism pin.
    pub checksum: u64,
    /// The final (recovered) segment's checksum: pins the
    /// post-recovery stream specifically.
    pub recovery_checksum: u64,
    /// `verify_invariants` passes at segment boundaries.
    pub invariant_checks: u64,
    /// Per-segment measurements, in order.
    pub phases: Vec<FaultPhase>,
    /// Link transfers that hit a degradation window.
    pub link_faulted: u64,
    /// Total link retries those transfers performed.
    pub link_retries: u64,
    /// Total backoff latency the retries injected.
    pub link_backoff: Tick,
    /// Flits re-transmitted by the retries (68-byte CXL flit model;
    /// each retried header+cacheline transfer replays two flits).
    pub replay_flits: u64,
    /// Wire bytes those replays burned.
    pub replay_wire_bytes: u64,
    /// Memory reads/writes that paid a slow-port penalty.
    pub port_slowed: u64,
    /// Memory reads/writes held by a stall window.
    pub port_stalled: u64,
    /// Stalled requests whose wait exceeded the watchdog.
    pub port_starved: u64,
    /// Total time requests spent held by stall windows.
    pub port_stall_time: Tick,
    /// The drain step, for [`FaultCase::DrainUnderLoad`].
    pub drain: Option<DrainReport>,
}

impl FaultOutcome {
    /// The healthy-baseline median, if a healthy segment ran.
    pub(crate) fn healthy_p50(&self) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.mode == PhaseMode::Healthy)
            .map(|p| p.p50_ns)
    }

    /// Asserts the degradation/recovery gates: every degraded segment's
    /// median sits strictly above the healthy baseline, and (when
    /// `strict_recovery`) every recovered segment's median is within
    /// 15% of it. Quick-mode populations are too small for the
    /// recovery band to be statistically meaningful, so the bench only
    /// sets `strict_recovery` on full runs.
    ///
    /// # Panics
    ///
    /// Panics, with the offending numbers, when a gate fails.
    pub fn assert_gates(&self, strict_recovery: bool) {
        let healthy = self
            .healthy_p50()
            .expect("a gated case needs a healthy segment");
        for p in &self.phases {
            match p.mode {
                PhaseMode::Degraded => assert!(
                    p.p50_ns > healthy,
                    "{}/{}: degraded p50 {} must exceed healthy {}",
                    self.name,
                    p.name,
                    p.p50_ns,
                    healthy
                ),
                PhaseMode::Recovered if strict_recovery => {
                    let drift = (p.p50_ns - healthy).abs() / healthy;
                    assert!(
                        drift <= 0.15,
                        "{}/{}: recovered p50 {} drifts {:.1}% from healthy {}",
                        self.name,
                        p.name,
                        p.p50_ns,
                        drift * 100.0,
                        healthy
                    );
                }
                _ => {}
            }
        }
    }
}

/// The canonical degradation scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCase {
    /// CRC-storm on every cache↔home link during the degraded window.
    FlakyLink,
    /// The expander's memory port runs slow, then stalls outright.
    StallingExpander,
    /// Planned expander hot-remove under live traffic.
    DrainUnderLoad,
}

impl FaultCase {
    /// Stable case name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultCase::FlakyLink => "flaky_link",
            FaultCase::StallingExpander => "stalling_expander",
            FaultCase::DrainUnderLoad => "drain_under_load",
        }
    }

    /// Runs the case with `clients` total logical sessions split across
    /// its segments. Same arguments → a bit-identical [`FaultOutcome`].
    ///
    /// `_threads` has no effect: the engine is sequential. The parameter
    /// stays until the callers that still pass it are updated.
    ///
    /// # Panics
    ///
    /// Panics if a segment boundary fails `verify_invariants` (a fault
    /// path corrupted coherence state).
    pub fn run(&self, clients: u64, seed: u64, _threads: usize) -> FaultOutcome {
        match self {
            FaultCase::FlakyLink => flaky_link(clients, seed),
            FaultCase::StallingExpander => stalling_expander(clients, seed),
            FaultCase::DrainUnderLoad => drain_under_load(clients, seed),
        }
    }
}

/// One planned segment: a single-phase spec and its absolute start.
struct Segment {
    spec: ScenarioSpec,
    mode: PhaseMode,
    start: Tick,
    /// Next segment's start — the natural fault-window bound.
    end: Tick,
}

/// What every segment of one case shares: key space, table size,
/// session machine and arrival shape.
struct Workload {
    keys: u64,
    buckets: u64,
    machine: MachineSpec,
    traffic: Traffic,
}

/// Builds a case's four single-phase segments from a `(name, mode,
/// duration)` table and lays them out back to back with
/// [`SEGMENT_GUARD`] of idle time after each, so every segment drains
/// before the next window opens. Segment `i` runs
/// `split(clients, 4)[i]` clients seeded `seed + i`.
fn plan(
    w: &Workload,
    clients: u64,
    seed: u64,
    segments: [(&str, PhaseMode, Tick); 4],
) -> Vec<Segment> {
    let mut at = Tick::ZERO;
    segments
        .into_iter()
        .zip(split(clients, 4))
        .zip(seed..)
        .map(|(((name, mode, duration), clients), seed)| {
            let start = at;
            at = start + duration + SEGMENT_GUARD;
            let spec = ScenarioSpec {
                name: name.into(),
                seed,
                clients,
                agents: 16,
                keys: w.keys,
                buckets: w.buckets,
                arrival: Arrival::Open,
                machine: w.machine,
                phases: vec![PhaseSpec::new(name, duration, w.traffic)],
            };
            Segment {
                spec,
                mode,
                start,
                end: at,
            }
        })
        .collect()
}

/// Splits `clients` evenly over `parts` parts (at least one client
/// each), remainder on the last. The fault segments and the rebalance
/// epochs share it.
pub(crate) fn split(clients: u64, parts: u64) -> Vec<u64> {
    let each = (clients / parts).max(1);
    let mut v = vec![each; parts as usize];
    if clients > each * parts {
        *v.last_mut().expect("parts >= 1") += clients - each * parts;
    }
    v
}

/// Accumulates segment outcomes into the case-level totals.
#[derive(Default)]
struct Acc {
    completed: u64,
    capped: u64,
    accesses: u64,
    checksum: u64,
    invariant_checks: u64,
    phases: Vec<FaultPhase>,
}

impl Acc {
    /// Runs `segs` on `eng` at their planned starts, verifying
    /// invariants at each boundary.
    fn run(
        &mut self,
        segs: &[Segment],
        eng: &mut ProtocolEngine,
        agents: &[AgentId],
        base: PhysAddr,
    ) {
        for seg in segs {
            let out = scenario::run_from(&seg.spec, eng, agents, base, seg.start);
            eng.verify_invariants();
            self.invariant_checks += 1;
            self.completed += out.completed;
            self.capped += out.capped;
            self.accesses += out.accesses;
            self.checksum = self.checksum.rotate_left(7).wrapping_add(out.checksum);
            let r = &out.phases[0];
            self.phases.push(FaultPhase {
                name: seg.spec.name.clone(),
                mode: seg.mode,
                p50_ns: r.p50_ns,
                p95_ns: r.p95_ns,
                mean_ns: r.mean_ns,
                accesses: out.accesses,
                checksum: out.checksum,
            });
        }
    }

    /// Assembles the outcome from the accumulated segments plus the
    /// engine's fault counters.
    fn finish(self, name: &str, eng: &ProtocolEngine, drain: Option<DrainReport>) -> FaultOutcome {
        let stats = eng.fault_stats().expect("fault cases arm a plan");
        let link = stats.link();
        let ports = stats.port_total();
        let replay_flits = link.retries * FLITS_PER_REPLAY;
        FaultOutcome {
            name: name.into(),
            completed: self.completed,
            capped: self.capped,
            accesses: self.accesses,
            events: eng.events_dispatched(),
            checksum: self.checksum,
            recovery_checksum: self.phases.last().expect("segments ran").checksum,
            invariant_checks: self.invariant_checks,
            phases: self.phases,
            link_faulted: link.faulted,
            link_retries: link.retries,
            link_backoff: link.backoff,
            replay_flits,
            replay_wire_bytes: replay_flits * FLIT_BYTES,
            port_slowed: ports.slowed,
            port_stalled: ports.stalled,
            port_starved: ports.starved,
            port_stall_time: ports.stall_time,
            drain,
        }
    }
}

/// Case 1: every cache↔home transfer on a four-home host directory
/// retries with exponential backoff during the degraded window.
fn flaky_link(clients: u64, seed: u64) -> FaultOutcome {
    // A working set the warmup segment fully saturates: the healthy and
    // recovered baselines then measure the same steady state (lines
    // ping-ponging between the 16 agents), not a cache-warming slope.
    let workload = Workload {
        keys: 1 << 11,
        buckets: 1 << 12,
        machine: MachineSpec::GetPut {
            get_ratio: 0.6,
            think: Tick::from_ns(150),
        },
        traffic: Traffic::Steady { rate: 1.0 },
    };
    let segs = plan(
        &workload,
        clients,
        seed,
        [
            ("warmup", PhaseMode::Warmup, Tick::from_us(150)),
            ("healthy", PhaseMode::Healthy, Tick::from_us(300)),
            ("degraded", PhaseMode::Degraded, Tick::from_us(300)),
            ("recovered", PhaseMode::Recovered, Tick::from_us(300)),
        ],
    );
    let plan = FaultPlan::new(seed ^ 0xF1A6).with(
        segs[2].start,
        segs[2].end,
        FaultKind::LinkDegrade {
            home: None,
            max_retries: 3,
            backoff: Tick::from_ns(60),
        },
    );
    let sys = CohetSystem::builder()
        .topology(TopologySpec::Interleaved {
            homes: 4,
            stride: PAGE_SIZE,
        })
        .fault_plan(plan)
        .build();
    let fabric = sys.fabric();
    let mut eng = sys.build_engine(fabric.mi, fabric.expander_range);
    let agents: Vec<AgentId> = (0..16)
        .map(|_| eng.add_cache(CacheConfig::cpu_l1()))
        .collect();
    let mut acc = Acc::default();
    acc.run(&segs, &mut eng, &agents, PhysAddr::new(0));
    acc.finish("flaky_link", &eng, None)
}

/// Case 2: the expander's memory port runs 2µs slow for a whole
/// window, then stalls outright mid-window; every access is a cold
/// expander read so the port is on the critical path of every request.
fn stalling_expander(clients: u64, seed: u64) -> FaultOutcome {
    // A key space far larger than the access count: every session reads
    // a line nobody has cached, so healthy and recovered segments are
    // equally cold and the recovery band is tight by construction.
    let workload = Workload {
        keys: 1 << 20,
        buckets: 1 << 21,
        machine: MachineSpec::GetPut {
            get_ratio: 1.0,
            think: Tick::from_ns(1),
        },
        traffic: Traffic::Diurnal {
            low: 0.5,
            high: 1.5,
            cycles: 2,
        },
    };
    let d = Tick::from_us(300);
    let segs = plan(
        &workload,
        clients,
        seed,
        [
            ("healthy", PhaseMode::Healthy, d),
            ("slow", PhaseMode::Degraded, d),
            ("stalled", PhaseMode::Degraded, d),
            ("recovered", PhaseMode::Recovered, d),
        ],
    );
    let expander_port = HomeId(2);
    let plan = FaultPlan::new(seed ^ 0x57A1)
        .with(
            segs[1].start,
            segs[1].end,
            FaultKind::SlowMemPort {
                port: expander_port,
                extra: Tick::from_us(2),
            },
        )
        .with(
            // The stall covers the middle of the segment: requests
            // landing in it queue until the release at 70% and the
            // 500ns watchdog flags them starved; the tail drains
            // within the segment guard.
            segs[2].start + Tick::from_us(30),
            segs[2].start + Tick::from_us(210),
            FaultKind::StallMemPort {
                port: expander_port,
                watchdog: Tick::from_ns(500),
            },
        );
    let expander_bytes: u64 = 128 << 20;
    assert!(
        workload.buckets * 64 <= expander_bytes,
        "table must fit the expander"
    );
    let sys = CohetSystem::builder()
        .topology(TopologySpec::Interleaved {
            homes: 2,
            stride: PAGE_SIZE,
        })
        .expander_memory(expander_bytes)
        .fault_plan(plan)
        .build();
    let fabric = sys.fabric();
    let range = fabric.expander_range.expect("expander configured");
    let mut eng = sys.build_engine(fabric.mi, fabric.expander_range);
    let agents: Vec<AgentId> = (0..16)
        .map(|_| eng.add_cache(CacheConfig::cpu_l1()))
        .collect();
    let mut acc = Acc::default();
    acc.run(&segs, &mut eng, &agents, range.base());
    acc.finish("stalling_expander", &eng, None)
}

/// Case 3: planned expander hot-remove. The working set lives on the
/// expander; its device link degrades during the draining segment,
/// then the pages migrate off (OS cost + degraded-wire serialization
/// both modeled), the range is re-homed onto the host homes via
/// [`TopologySpec::Ranges`], and traffic continues against the moved
/// directory state.
fn drain_under_load(clients: u64, seed: u64) -> FaultOutcome {
    // Small, warm working set: the drain moves live directory entries,
    // and the recovered segment re-runs against them at the new homes.
    let workload = Workload {
        keys: 1 << 12,
        buckets: 1 << 13,
        machine: MachineSpec::GetPut {
            get_ratio: 0.7,
            think: Tick::from_ns(120),
        },
        traffic: Traffic::Steady { rate: 1.0 },
    };
    let segs = plan(
        &workload,
        clients,
        seed,
        [
            ("warmup", PhaseMode::Warmup, Tick::from_us(150)),
            ("healthy", PhaseMode::Healthy, Tick::from_us(300)),
            ("draining", PhaseMode::Degraded, Tick::from_us(300)),
            ("recovered", PhaseMode::Recovered, Tick::from_us(300)),
        ],
    );
    let backoff = Tick::from_ns(80);
    let plan = FaultPlan::new(seed ^ 0xD4A1).with(
        segs[2].start,
        segs[2].end,
        FaultKind::LinkDegrade {
            home: Some(HomeId(2)),
            max_retries: 3,
            backoff,
        },
    );
    let host_mem: u64 = 256 << 20;
    let sys = CohetSystem::builder()
        .topology(TopologySpec::Interleaved {
            homes: 2,
            stride: PAGE_SIZE,
        })
        .host_memory(host_mem)
        .expander_memory(128 << 20)
        .fault_plan(plan)
        .build();
    let fabric = sys.fabric();
    let range = fabric.expander_range.expect("expander configured");
    let expander_node = fabric.expander_node.expect("expander configured");
    let cpu_node = fabric.cpu_node;
    let mut eng = sys.build_engine(fabric.mi, Some(range));
    let agents: Vec<AgentId> = (0..16)
        .map(|_| eng.add_cache(CacheConfig::cpu_l1()))
        .collect();

    let mut acc = Acc::default();
    // Warmup, healthy, and the degraded draining segment.
    acc.run(&segs[..3], &mut eng, &agents, range.base());

    // The drain proper, at the draining/recovered boundary. OS side:
    // the working set's pages migrate off the expander through the
    // page-table/HMM machinery, which prices each move.
    let footprint = workload.buckets * 64;
    let pages = footprint.div_ceil(PAGE_SIZE);
    let mut os = Process::new(fabric.numa);
    let buf = os.malloc(footprint).expect("drain buffer fits");
    let mut migration_cost = Tick::ZERO;
    for i in 0..pages {
        let va = buf + i * PAGE_SIZE;
        // First-touch on the CPU node, stage the page onto the
        // expander (where the scenario's table lives), then pay the
        // metered migration back off the failing device.
        os.access(Accessor::Cpu(cpu_node), va, AccessKind::Write)
            .expect("mapped");
        migration::migrate_page(
            &mut os,
            va,
            expander_node,
            migration::MigrationCost::default(),
        )
        .expect("expander has room");
        migration_cost +=
            migration::migrate_page(&mut os, va, cpu_node, migration::MigrationCost::default())
                .expect("host has room");
    }
    // Wire side: the same pages serialized over the degraded expander
    // link, each TLP nak'd once before it gets through.
    let mut link = PcieLink::new(PcieLinkConfig::gen5_x8());
    let mut wire_time = Tick::ZERO;
    for _ in 0..pages {
        wire_time = link.send_with_retries(wire_time, PAGE_SIZE, 1, backoff);
    }

    // Re-home the expander's range onto the host homes (split evenly)
    // while its agent stays attached owning nothing.
    let half = range.size() / 2;
    let drained = TopologySpec::Ranges {
        homes: 3,
        claims: vec![
            (AddrRange::new(range.base(), half), HomeId(0)),
            (
                AddrRange::new(
                    PhysAddr::new(range.base().raw() + half),
                    range.size() - half,
                ),
                HomeId(1),
            ),
        ],
        fallback_homes: 2,
        stride: PAGE_SIZE,
    }
    .resolve(host_mem, None);
    let rehome = eng.rehome(drained);
    eng.verify_invariants();
    acc.invariant_checks += 1;

    // Traffic keeps flowing against the moved directory state.
    acc.run(&segs[3..], &mut eng, &agents, range.base());
    let drain = DrainReport {
        pages,
        migration_cost,
        wire_time,
        moved_lines: rehome.moved,
        with_peers: rehome.with_peers,
    };
    acc.finish("drain_under_load", &eng, Some(drain))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_link_gates_hold_and_rerun_is_bit_identical() {
        let a = FaultCase::FlakyLink.run(1200, 9, 1);
        a.assert_gates(false);
        assert!(a.link_faulted > 0 && a.link_retries >= a.link_faulted);
        assert!(a.replay_wire_bytes > 0);
        assert_eq!(a.completed + a.capped, 1200);
        assert!(a.invariant_checks >= 4);
        let b = FaultCase::FlakyLink.run(1200, 9, 1);
        assert_eq!(a, b, "same case, same seed: bit-identical");
    }

    #[test]
    fn stalling_expander_flags_starvation() {
        let a = FaultCase::StallingExpander.run(800, 5, 1);
        a.assert_gates(false);
        assert!(a.port_slowed > 0);
        assert!(a.port_stalled > 0);
        assert!(a.port_starved > 0, "500ns watchdog must trip");
        assert!(a.port_stall_time > Tick::ZERO);
    }

    #[test]
    fn drain_under_load_moves_state_and_recovers() {
        let a = FaultCase::DrainUnderLoad.run(1200, 3, 1);
        a.assert_gates(false);
        let d = a.drain.as_ref().expect("drain case reports the drain");
        assert_eq!(d.pages, (1u64 << 13) * 64 / PAGE_SIZE);
        assert!(d.migration_cost > Tick::ZERO);
        assert!(d.wire_time > Tick::ZERO);
        assert!(d.moved_lines > 0, "the warm set lived at the expander home");
        assert!(d.with_peers > 0, "live cached lines migrated");
        // A rerun is bit-identical (the thread count has no effect).
        let b = FaultCase::DrainUnderLoad.run(1200, 3, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn split_covers_population() {
        assert_eq!(split(10, 4), vec![2, 2, 2, 4]);
        assert_eq!(split(4, 4), vec![1, 1, 1, 1]);
        assert_eq!(split(3, 4), vec![1, 1, 1, 1]); // tiny pops round up
    }
}
