//! The protocol engine: event loop, memory agent, functional memory and
//! invariant checking.

use crate::array::LineState;
use crate::cache::{CacheAgent, CacheStats};
use crate::config::{CacheConfig, HomeConfig};
use crate::fault::{FaultPlan, FaultState, FaultStatsView, Hop, RehomeStats};
use crate::funcmem::FuncMem;
use crate::home::{DirEntry, HomeAgent, HomeStatsView};
use crate::msg::{AgentId, HitLevel, MemOp, Msg, MsgKind, ReqId};
use crate::topology::{HomeId, Topology};
use sim_core::{EventQueue, Link, SimRng, Tick};
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};

pub use crate::msg::Completion;

#[derive(Debug)]
enum Ev {
    /// An external request reaches its cache agent.
    Issue { req: ReqId },
    /// A protocol message arrives at `dst`. `level` piggybacks the hit
    /// classification on data grants.
    Deliver {
        dst: AgentId,
        msg: Msg,
        level: Option<HitLevel>,
    },
    /// A request completes at its cache agent.
    Complete { req: ReqId, level: HitLevel },
}

/// Queue-resident packed encoding of [`Ev`]: 16 bytes against `Ev`'s 48,
/// so a queue entry is 32 bytes on the event queue's ring (tick, link and
/// payload) and 24 in its radix heap, instead of 64 and 56. Dense
/// upfront batches park hundreds of thousands of events in the queue at
/// once, and their per-event cost is dominated by memory traffic through
/// those entries. The encoding round-trips exactly (agent fields hold a
/// whole `AgentId` byte; pack asserts the generous 2^13 home ceiling),
/// so event order and payloads — and therefore completion streams — are
/// untouched.
///
/// Word `a` carries the 64-bit payload id (`ReqId` bits for
/// `Issue`/`Complete`, `PhysAddr` bits for `Deliver`); word `b` packs the
/// variant tag, hit level, message kind + dirty flag, and the home / from
/// / dst indices.
#[derive(Debug, Clone, Copy)]
struct PackedEv {
    a: u64,
    b: u64,
}

const EV_TAG_ISSUE: u64 = 0;
const EV_TAG_COMPLETE: u64 = 1;
const EV_TAG_DELIVER: u64 = 2;
const EV_LEVEL_SHIFT: u32 = 2; // 3 bits: 0 = None, 1..=4 = Some(level)
const EV_KIND_SHIFT: u32 = 5; // 5 bits: MsgKind variant code
const EV_DIRTY_SHIFT: u32 = 10; // 1 bit: snoop-response dirty flag
const EV_HOME_SHIFT: u32 = 11; // 13 bits: HomeId
const EV_FROM_SHIFT: u32 = 24; // 8 bits: Msg::from (an `AgentId` is a u8)
const EV_DST_SHIFT: u32 = 32; // 8 bits: Deliver dst
const EV_HOME_MAX: u64 = (1 << 13) - 1;

fn level_code(level: Option<HitLevel>) -> u64 {
    match level {
        None => 0,
        Some(HitLevel::Local) => 1,
        Some(HitLevel::Llc) => 2,
        Some(HitLevel::Mem) => 3,
        Some(HitLevel::Peer) => 4,
    }
}

fn code_level(code: u64) -> Option<HitLevel> {
    match code {
        0 => None,
        1 => Some(HitLevel::Local),
        2 => Some(HitLevel::Llc),
        3 => Some(HitLevel::Mem),
        4 => Some(HitLevel::Peer),
        _ => unreachable!("corrupt packed hit level {code}"),
    }
}

fn kind_code(kind: MsgKind) -> (u64, u64) {
    match kind {
        MsgKind::RdShared => (0, 0),
        MsgKind::RdOwn => (1, 0),
        MsgKind::ItoMWr => (2, 0),
        MsgKind::DirtyEvict => (3, 0),
        MsgKind::CleanEvict => (4, 0),
        MsgKind::SnpInv => (5, 0),
        MsgKind::SnpData => (6, 0),
        MsgKind::SnpRespInv { dirty } => (7, u64::from(dirty)),
        MsgKind::SnpRespDown { dirty } => (8, u64::from(dirty)),
        MsgKind::WbData => (9, 0),
        MsgKind::DataGoE => (10, 0),
        MsgKind::DataGoS => (11, 0),
        MsgKind::GoUpgrade => (12, 0),
        MsgKind::GoWritePull => (13, 0),
        MsgKind::GoI => (14, 0),
        MsgKind::GoNcp => (15, 0),
        MsgKind::MemRd => (16, 0),
        MsgKind::MemWr => (17, 0),
        MsgKind::MemData => (18, 0),
    }
}

fn code_kind(code: u64, dirty: bool) -> MsgKind {
    match code {
        0 => MsgKind::RdShared,
        1 => MsgKind::RdOwn,
        2 => MsgKind::ItoMWr,
        3 => MsgKind::DirtyEvict,
        4 => MsgKind::CleanEvict,
        5 => MsgKind::SnpInv,
        6 => MsgKind::SnpData,
        7 => MsgKind::SnpRespInv { dirty },
        8 => MsgKind::SnpRespDown { dirty },
        9 => MsgKind::WbData,
        10 => MsgKind::DataGoE,
        11 => MsgKind::DataGoS,
        12 => MsgKind::GoUpgrade,
        13 => MsgKind::GoWritePull,
        14 => MsgKind::GoI,
        15 => MsgKind::GoNcp,
        16 => MsgKind::MemRd,
        17 => MsgKind::MemWr,
        18 => MsgKind::MemData,
        _ => unreachable!("corrupt packed msg kind {code}"),
    }
}

impl Ev {
    fn pack(self) -> PackedEv {
        match self {
            Ev::Issue { req } => PackedEv {
                a: req.0,
                b: EV_TAG_ISSUE,
            },
            Ev::Complete { req, level } => PackedEv {
                a: req.0,
                b: EV_TAG_COMPLETE | (level_code(Some(level)) << EV_LEVEL_SHIFT),
            },
            Ev::Deliver { dst, msg, level } => {
                let (kind, dirty) = kind_code(msg.kind);
                let (home, from, dst) = (msg.home.0 as u64, msg.from.0 as u64, dst.0 as u64);
                assert!(
                    home <= EV_HOME_MAX,
                    "home index {home} exceeds the packed-event ceiling"
                );
                PackedEv {
                    a: msg.addr.raw(),
                    b: EV_TAG_DELIVER
                        | (level_code(level) << EV_LEVEL_SHIFT)
                        | (kind << EV_KIND_SHIFT)
                        | (dirty << EV_DIRTY_SHIFT)
                        | (home << EV_HOME_SHIFT)
                        | (from << EV_FROM_SHIFT)
                        | (dst << EV_DST_SHIFT),
                }
            }
        }
    }
}

impl PackedEv {
    fn unpack(self) -> Ev {
        let field = |shift: u32, bits: u32| (self.b >> shift) & ((1 << bits) - 1);
        match self.b & 0b11 {
            EV_TAG_ISSUE => Ev::Issue { req: ReqId(self.a) },
            EV_TAG_COMPLETE => Ev::Complete {
                req: ReqId(self.a),
                level: code_level(field(EV_LEVEL_SHIFT, 3)).expect("completion carries a level"),
            },
            EV_TAG_DELIVER => Ev::Deliver {
                dst: AgentId(field(EV_DST_SHIFT, 8) as u8),
                msg: Msg {
                    kind: code_kind(field(EV_KIND_SHIFT, 5), field(EV_DIRTY_SHIFT, 1) != 0),
                    addr: PhysAddr::new(self.a),
                    from: AgentId(field(EV_FROM_SHIFT, 8) as u8),
                    home: HomeId(field(EV_HOME_SHIFT, 13) as usize),
                },
                level: code_level(field(EV_LEVEL_SHIFT, 3)),
            },
            tag => unreachable!("corrupt packed event tag {tag}"),
        }
    }
}

/// Where an agent files the events one handler call produces: straight
/// into the queue, in emission order, routed and link-faulted on the
/// way. `dispatch` builds one from disjoint borrows of the engine.
pub(crate) struct Sink<'a> {
    queue: &'a mut EventQueue<PackedEv>,
    topology: &'a Topology,
    fault: Option<&'a mut FaultState>,
}

impl Sink<'_> {
    /// Files a cache's message to its home. The cache is topology-blind,
    /// so this stamps the shard owning the line, then applies the
    /// cache→home link fault.
    pub(crate) fn send_home(&mut self, tick: Tick, mut msg: Msg) {
        msg.home = self.topology.home_for(msg.addr);
        let hop = Hop::CacheToHome {
            from: msg.from,
            home: msg.home,
        };
        let tick = self.link(hop, tick, msg.addr);
        self.deliver(tick, AgentId::HOME, msg);
    }

    /// Files a home's message to `dst`. Link faults cover the
    /// cache↔home links only: fetches and writebacks to memory pass
    /// untouched.
    pub(crate) fn send_from_home(
        &mut self,
        tick: Tick,
        dst: AgentId,
        msg: Msg,
        level: Option<HitLevel>,
    ) {
        let home = msg.home;
        let tick = match dst {
            AgentId::MEMORY => tick,
            _ => self.link(Hop::HomeToCache { dst, home }, tick, msg.addr),
        };
        self.push(tick, Ev::Deliver { dst, msg, level });
    }

    /// Files a request's completion at its cache.
    pub(crate) fn complete(&mut self, tick: Tick, req: ReqId, level: HitLevel) {
        self.push(tick, Ev::Complete { req, level });
    }

    /// Files a message that crosses no faulted link: a snoop deferred by
    /// a locked line, or a memory reply.
    pub(crate) fn deliver(&mut self, tick: Tick, dst: AgentId, msg: Msg) {
        self.push(
            tick,
            Ev::Deliver {
                dst,
                msg,
                level: None,
            },
        );
    }

    fn link(&mut self, hop: Hop, tick: Tick, addr: PhysAddr) -> Tick {
        self.fault
            .as_deref_mut()
            .map_or(tick, |f| f.perturb_link(hop, tick, addr))
    }

    /// Same-tick events dispatch in push order.
    fn push(&mut self, tick: Tick, ev: Ev) {
        self.queue.push(tick, ev.pack());
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    agent: AgentId,
    op: MemOp,
    addr: PhysAddr,
    issued: Tick,
}

/// Memory-side agent: bridges `MemRd`/`MemWr` to a [`MemoryInterface`].
#[derive(Debug)]
struct MemAgent {
    mi: MemoryInterface,
    /// Per-home memory port: the reply link back to that home and the
    /// memory-controller front latency its requests pay. Indexed by
    /// [`HomeId`]; each home agent fronts its own memory channel.
    ports: Vec<(Link, Tick)>,
    /// Additional per-line latency by NUMA distance, applied when the
    /// line's address falls into the node's range (Fig. 12). Kept sorted
    /// by range start so [`Self::extra_for`] can binary-search.
    numa_extra: Vec<(AddrRange, Tick)>,
}

impl MemAgent {
    /// Registers `extra` latency for `range`, keeping the table sorted by
    /// range start (ties: later registrations sort after earlier ones).
    fn add_extra(&mut self, range: AddrRange, extra: Tick) {
        let pos = self
            .numa_extra
            .partition_point(|(r, _)| r.base() <= range.base());
        self.numa_extra.insert(pos, (range, extra));
    }

    /// Services a memory-agent message arriving at `now`: reads file the
    /// `MemData` reply, writes are posted.
    fn handle(&mut self, msg: Msg, now: Tick, out: &mut Sink<'_>) {
        let extra = self.extra_for(msg.addr);
        // `msg.home` names the requesting home; replies return through
        // that home's memory port.
        let (link, front) = &mut self.ports[msg.home.index()];
        let mut start = now + *front + extra;
        if let Some(f) = out.fault.as_deref_mut() {
            // Slow/stall windows gate service start; the request queues
            // (the DRAM model serializes it after release) rather than
            // being dropped.
            start = f.perturb_mem_start(msg.home, start);
        }
        let bytes = simcxl_mem::CACHELINE_BYTES;
        match msg.kind {
            MsgKind::MemRd => {
                let done = self
                    .mi
                    .read(start, msg.addr, bytes)
                    .unwrap_or_else(|| panic!("no memory claims {}", msg.addr));
                let arrival = link.send(done + extra, MsgKind::MemData.bytes());
                let reply = Msg {
                    kind: MsgKind::MemData,
                    from: AgentId::MEMORY,
                    ..msg
                };
                out.deliver(arrival, AgentId::HOME, reply);
            }
            MsgKind::MemWr => {
                let _ = self.mi.write(start, msg.addr, bytes);
            }
            other => panic!("memory agent received {:?}", other),
        }
    }

    /// Extra latency for `addr`: binary-search for the insertion point,
    /// then walk back over the candidates starting at or before `addr`.
    /// O(log n) for the disjoint ranges NUMA maps use; when ranges
    /// overlap, the containing range with the greatest start wins.
    fn extra_for(&self, addr: PhysAddr) -> Tick {
        let i = self.numa_extra.partition_point(|(r, _)| r.base() <= addr);
        self.numa_extra[..i]
            .iter()
            .rev()
            .find(|(r, _)| r.contains(addr))
            .map(|&(_, t)| t)
            .unwrap_or(Tick::ZERO)
    }
}

/// One slot of the engine's request slab: the slot index plus its
/// generation form a [`ReqId`], so slots recycle without ever reissuing
/// an id (generations disambiguate reuse).
#[derive(Debug, Clone, Copy)]
struct ReqSlot {
    gen: u32,
    req: Option<Request>,
}

/// Builder for [`ProtocolEngine`].
#[derive(Debug, Default)]
pub struct ProtocolEngineBuilder {
    home: HomeConfig,
    topology: Topology,
    memory: Option<MemoryInterface>,
    jitter_ns: Option<(u64, f64)>,
    fault: Option<FaultPlan>,
}

impl ProtocolEngineBuilder {
    /// Sets the home-agent configuration every home in the topology is
    /// built from.
    pub fn home(mut self, home: HomeConfig) -> Self {
        self.home = home;
        self
    }

    /// Distributes the directory across home agents according to `t`
    /// (default: [`Topology::single`], the monolithic home).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Attaches a custom memory interface (defaults to 32 GB of
    /// DDR5-4400 starting at physical address 0, matching Table I).
    pub fn memory(mut self, mi: MemoryInterface) -> Self {
        self.memory = Some(mi);
        self
    }

    /// Adds Gaussian latency jitter (standard deviation in nanoseconds)
    /// to every request issue, seeded deterministically. Models the
    /// run-to-run spread visible in the paper's box plots.
    pub fn jitter_ns(mut self, seed: u64, stddev_ns: f64) -> Self {
        self.jitter_ns = Some((seed, stddev_ns));
        self
    }

    /// Arms a deterministic fault-injection plan (see
    /// [`fault`](crate::fault) module). Fault decisions are pure functions of
    /// the plan's seed and each message's own coordinates, so the same
    /// plan reproduces bit-identical completion streams on every rerun.
    /// An empty plan is equivalent to none.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> ProtocolEngine {
        let mi = self.memory.unwrap_or_else(|| {
            let mut mi = MemoryInterface::new();
            mi.add_memory(
                AddrRange::new(PhysAddr::new(0), 32 << 30),
                DramConfig::preset(DramKind::Ddr5_4400),
                Tick::ZERO,
            );
            mi
        });
        let (topology, home) = (self.topology, self.home);
        let mem = MemAgent {
            mi,
            ports: vec![(Link::new(home.mem_link), home.mem_front_latency); topology.homes()],
            numa_extra: Vec::new(),
        };
        let homes: Vec<HomeAgent> = (0..topology.homes())
            .map(|i| HomeAgent::new(HomeId(i), home.clone()))
            .collect();
        let fault = self.fault.filter(|p| !p.is_empty()).map(|plan| {
            if let Some(h) = plan.max_home() {
                assert!(
                    h < homes.len(),
                    "fault plan names home {h} but the topology has {} homes",
                    homes.len()
                );
            }
            FaultState::new(plan, homes.len())
        });
        ProtocolEngine {
            queue: EventQueue::new(),
            now: Tick::ZERO,
            topology,
            homes,
            mem,
            caches: Vec::new(),
            requests: Vec::new(),
            free_slots: Vec::new(),
            events: 0,
            func: FuncMem::new(),
            completions: Vec::new(),
            jitter: self.jitter_ns.map(|(seed, sd)| (SimRng::new(seed), sd)),
            fault,
        }
    }
}

/// The event-driven coherence protocol engine.
///
/// See the [crate docs](crate) for the protocol description and an
/// end-to-end example.
#[derive(Debug)]
pub struct ProtocolEngine {
    queue: EventQueue<PackedEv>,
    now: Tick,
    /// Which home owns which address; routes every request, snoop
    /// response, writeback and replay.
    topology: Topology,
    /// One directory shard per home in the topology; `homes[h.index()]`
    /// owns exactly the lines with `topology.home_for(addr) == h`.
    homes: Vec<HomeAgent>,
    mem: MemAgent,
    caches: Vec<CacheAgent>,
    /// Outstanding-request slab, indexed by the slot half of [`ReqId`].
    /// Completed slots go on the free list, so long runs stay bounded by
    /// the peak number of *concurrent* requests, not the total issued.
    requests: Vec<ReqSlot>,
    free_slots: Vec<u32>,
    events: u64,
    func: FuncMem,
    completions: Vec<Completion>,
    jitter: Option<(SimRng, f64)>,
    /// Armed fault-injection plan and its counters, if any.
    fault: Option<FaultState>,
}

impl ProtocolEngine {
    /// Starts building an engine.
    pub fn builder() -> ProtocolEngineBuilder {
        ProtocolEngineBuilder::default()
    }

    /// Attaches a peer cache and returns its id.
    ///
    /// # Panics
    ///
    /// Panics beyond 62 peer caches: the directory tracks sharers in a
    /// 64-bit vector ([`crate::home::SharerSet`]), and agent indices 0–1
    /// are the home and memory agents. Failing here keeps oversized
    /// configs from panicking mid-simulation instead.
    pub fn add_cache(&mut self, cfg: CacheConfig) -> AgentId {
        let index = 2 + self.caches.len();
        assert!(
            index < 64,
            "at most 62 peer caches (sharer bit-vector is 64 bits wide)"
        );
        let id = AgentId(index as u8);
        // Every home needs its own response link to the new cache.
        for home in &mut self.homes {
            home.add_cache_link(cfg.link);
        }
        self.caches.push(CacheAgent::new(id, cfg));
        id
    }

    /// Registers an extra per-access latency for addresses in `range`
    /// (NUMA hop modelling for Fig. 12). If registered ranges overlap,
    /// the containing range with the greatest start address wins.
    pub fn add_numa_extra(&mut self, range: AddrRange, extra: Tick) {
        self.mem.add_extra(range, extra);
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Total events dispatched since construction (perf accounting).
    pub fn events_dispatched(&self) -> u64 {
        self.events
    }

    /// The functional memory (for seeding workload data).
    pub fn func_mem(&mut self) -> &mut FuncMem {
        &mut self.func
    }

    /// Per-cache statistics.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is not a cache agent of this engine.
    pub fn cache_stats(&self, agent: AgentId) -> CacheStats {
        self.caches[agent.index() - 2].stats()
    }

    /// A snapshot of every home's statistics paired with the topology's
    /// load weights — the one per-home query surface: aggregate
    /// ([`total`](HomeStatsView::total)), per-home lookup
    /// ([`get`](HomeStatsView::get)), iteration and balance error.
    pub fn home_stats_view(&self) -> HomeStatsView {
        HomeStatsView::new(
            self.homes.iter().map(|h| h.stats()).collect(),
            self.topology.home_weights(),
        )
    }

    /// Aggregated hot-path profiling counters: home-agent busy-hit /
    /// fast-path / replay / snoop-fan-out figures summed over every
    /// home, plus the caches' MSHR-occupancy histogram (see
    /// [`crate::profile::EngineProfile`]).
    pub fn profile(&self) -> crate::profile::EngineProfile {
        let mut p = crate::profile::EngineProfile::default();
        for h in &self.homes {
            p += h.profile();
        }
        for c in &self.caches {
            p.mshr_occupancy += c.mshr_occupancy();
        }
        p
    }

    /// Number of home agents (`topology().homes()`).
    pub fn num_homes(&self) -> usize {
        self.homes.len()
    }

    /// The address-to-home topology this engine routes with.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Line state at a given cache.
    #[cfg(test)]
    fn line_state(&self, agent: AgentId, addr: PhysAddr) -> Option<LineState> {
        self.caches[agent.index() - 2].line_state(addr)
    }

    /// Directory entry for a line, consulted at the home that owns the
    /// address (tests).
    pub fn dir_entry(&self, addr: PhysAddr) -> Option<&DirEntry> {
        self.home_of(addr).dir_entry(addr)
    }

    /// The home agent owning `addr` under the engine's topology.
    fn home_of(&self, addr: PhysAddr) -> &HomeAgent {
        &self.homes[self.topology.home_for(addr).index()]
    }

    fn home_of_mut(&mut self, addr: PhysAddr) -> &mut HomeAgent {
        let h = self.topology.home_for(addr);
        &mut self.homes[h.index()]
    }

    /// Issues an external request; returns its id. The request reaches
    /// the cache after the agent's configured issue latency (plus jitter,
    /// if enabled).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past or `agent` is not a cache.
    pub fn issue(&mut self, agent: AgentId, op: MemOp, addr: PhysAddr, at: Tick) -> ReqId {
        assert!(at >= self.now, "issue at {at} before now {}", self.now);
        assert!(agent.index() >= 2, "can only issue to cache agents");
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                assert!(self.requests.len() < u32::MAX as usize, "request slab full");
                self.requests.push(ReqSlot { gen: 0, req: None });
                (self.requests.len() - 1) as u32
            }
        };
        let req = ReqId::from_parts(slot, self.requests[slot as usize].gen);
        let mut delay = self.caches[agent.index() - 2].config().issue_latency;
        if let Some((rng, sd)) = &mut self.jitter {
            let j = rng.normal(0.0, *sd).max(0.0);
            delay += Tick::from_ns_f64(j);
        }
        self.requests[slot as usize].req = Some(Request {
            agent,
            op,
            addr,
            issued: at,
        });
        self.queue.push(at + delay, Ev::Issue { req }.pack());
        req
    }

    /// Time of the next pending event (an O(1) queue peek).
    pub fn next_event(&self) -> Option<Tick> {
        self.queue.peek_tick()
    }

    /// Dispatches the earliest pending event *and everything else at the
    /// same tick*, leaving the completions produced in `done`; returns
    /// `false` (with `done` empty) if the queue is empty.
    ///
    /// `done` is cleared, then swapped with the engine's internal
    /// completion buffer, so a driver that passes the same `Vec` on
    /// every call ping-pongs two buffers and never allocates once both
    /// have grown to the largest tick batch.
    ///
    /// Exactly equivalent to `next_event()` followed by
    /// `run_until(next)`.
    pub fn run_next(&mut self, done: &mut Vec<Completion>) -> bool {
        done.clear();
        let Some((tick, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(tick >= self.now, "time went backwards");
        self.now = tick;
        self.events += 1;
        self.dispatch(ev.unpack());
        while let Some((t, ev)) = self.queue.pop_before(tick) {
            debug_assert!(t == tick);
            self.events += 1;
            self.dispatch(ev.unpack());
        }
        std::mem::swap(done, &mut self.completions);
        true
    }

    /// Runs until the queue is exhausted; returns completions in
    /// completion order.
    pub fn run_to_quiescence(&mut self) -> Vec<Completion> {
        self.run_until(Tick::MAX)
    }

    /// Runs all events up to and including `t`; returns completions.
    pub fn run_until(&mut self, t: Tick) -> Vec<Completion> {
        // `pop_before` fuses the old peek-then-pop pair into a single
        // queue traversal — the dispatch loop is the simulator's hottest
        // path.
        while let Some((tick, ev)) = self.queue.pop_before(t) {
            debug_assert!(tick >= self.now, "time went backwards");
            self.now = tick;
            self.events += 1;
            self.dispatch(ev.unpack());
        }
        if t != Tick::MAX && t > self.now {
            self.now = t;
        }
        std::mem::take(&mut self.completions)
    }

    fn dispatch(&mut self, ev: Ev) {
        let now = self.now;
        let mut out = Sink {
            queue: &mut self.queue,
            topology: &self.topology,
            fault: self.fault.as_mut(),
        };
        match ev {
            Ev::Issue { req } => {
                let slot = &self.requests[req.slot()];
                assert_eq!(slot.gen, req.gen(), "stale request id {req}");
                let r = slot.req.expect("request slot vacant");
                let cache = &mut self.caches[r.agent.index() - 2];
                cache.handle_request(req, r.op, r.addr, now, &mut out);
            }
            Ev::Deliver { dst, msg, level } => match dst {
                AgentId::HOME => self.homes[msg.home.index()].handle_msg(msg, now, &mut out),
                AgentId::MEMORY => self.mem.handle(msg, now, &mut out),
                _ => self.caches[dst.index() - 2].handle_msg(msg, level, now, &mut out),
            },
            Ev::Complete { req, level } => self.apply_complete(now, req, level),
        }
    }

    /// Retires a request at time `now`: recycles its slab slot, applies
    /// the operation to functional memory and appends the
    /// [`Completion`].
    fn apply_complete(&mut self, now: Tick, req: ReqId, level: HitLevel) {
        let slot = &mut self.requests[req.slot()];
        assert_eq!(slot.gen, req.gen(), "completion for stale request {req}");
        let r = slot.req.take().expect("completion for unknown request");
        // Recycle the slot under the next generation — unless the
        // generation counter would wrap, which would reissue an
        // old ReqId; such a slot is retired instead (the slab
        // grows by one and the id-uniqueness guarantee holds).
        if let Some(gen) = slot.gen.checked_add(1) {
            slot.gen = gen;
            self.free_slots.push(req.slot() as u32);
        }
        let value = match r.op {
            MemOp::Load | MemOp::Prefetch => self.func.read_u64(r.addr),
            MemOp::Store { value } => {
                self.func.write_u64(r.addr, value);
                value
            }
            MemOp::NcPush { value } => {
                self.func.write_u64(r.addr, value);
                value
            }
            MemOp::Rmw {
                kind,
                operand,
                operand2,
            } => self.func.rmw(r.addr, kind, operand, operand2),
        };
        self.completions.push(Completion {
            req,
            agent: r.agent,
            addr: r.addr,
            op: r.op,
            issued: r.issued,
            done: now,
            level,
            value,
        });
    }

    /// Installs a line in a cache *and* the directory so tests and
    /// CLDEMOTE/CLFLUSH-style experiment setups can place data without
    /// protocol traffic.
    pub fn preload(&mut self, agent: AgentId, addr: PhysAddr, state: LineState) {
        let idx = agent.index() - 2;
        self.caches[idx].preload(addr, state);
        // One topology lookup and one directory probe: the owning home
        // updates (or creates) the entry in place.
        self.home_of_mut(addr)
            .preload_update(addr, |entry| match state {
                LineState::Modified | LineState::Exclusive => {
                    entry.owner = Some(agent);
                    entry.sharers.clear();
                }
                LineState::Shared => {
                    entry.sharers.insert(agent);
                }
            });
    }

    /// Installs a line only at the LLC of the home owning `addr`
    /// (CLDEMOTE analog: data demoted from a core cache into the LLC).
    /// A line the directory already tracks keeps its entry, so a cache
    /// that holds it stays its owner or sharer.
    pub fn preload_llc(&mut self, addr: PhysAddr) {
        self.home_of_mut(addr).preload_update(addr, |_| {});
    }

    /// Whether all agents are idle and the event queue is empty.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
            && self.homes.iter().all(HomeAgent::is_quiescent)
            && self.caches.iter().all(|c| c.is_quiescent())
    }

    /// Checks the single-writer/multiple-reader and directory-consistency
    /// invariants; call at quiescence.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn verify_invariants(&self) {
        assert!(self.is_quiescent(), "verify_invariants before quiescence");
        // Cache -> directory direction: the entry must live at the home
        // that owns the line's address.
        for c in &self.caches {
            for line in c.resident_lines() {
                let entry = self
                    .home_of(line.addr)
                    .dir_entry(line.addr)
                    .unwrap_or_else(|| {
                        panic!(
                            "cache {} holds {} but no directory entry at {}",
                            c.id(),
                            line.addr,
                            self.topology.home_for(line.addr),
                        )
                    });
                match line.state {
                    LineState::Modified | LineState::Exclusive => {
                        assert_eq!(
                            entry.owner,
                            Some(c.id()),
                            "line {} is {:?} at {} but directory owner is {:?}",
                            line.addr,
                            line.state,
                            c.id(),
                            entry.owner
                        );
                    }
                    LineState::Shared => {
                        assert!(
                            entry.sharers.contains(&c.id()),
                            "line {} is S at {} but absent from sharer vector",
                            line.addr,
                            c.id()
                        );
                    }
                }
            }
        }
        // Directory -> cache direction plus SWMR, per home; every entry
        // must also sit at the home the topology assigns its address.
        // Since `home_for` is a total function, that shard-locality
        // assert already rules out any line being tracked by two homes.
        for h in &self.homes {
            for (key, entry) in h.dir_iter() {
                let addr = PhysAddr::new(key);
                assert_eq!(
                    self.topology.home_for(addr),
                    h.id(),
                    "line {addr} tracked by {} but the topology homes it at {}",
                    h.id(),
                    self.topology.home_for(addr)
                );
                assert!(
                    entry.owner.is_none() || entry.sharers.is_empty(),
                    "line {addr} has both an owner and sharers"
                );
                if let Some(owner) = entry.owner {
                    let state = self.caches[owner.index() - 2].line_state(addr);
                    assert!(
                        matches!(state, Some(LineState::Modified | LineState::Exclusive)),
                        "directory says {owner} owns {addr} but cache state is {state:?}"
                    );
                }
                for sharer in entry.sharers.iter() {
                    let state = self.caches[sharer.index() - 2].line_state(addr);
                    assert_eq!(
                        state,
                        Some(LineState::Shared),
                        "directory says {sharer} shares {addr}"
                    );
                }
            }
        }
    }

    /// A snapshot of the fault counters, if a plan is armed: aggregate
    /// link retry/backoff totals plus per-memory-port slow/stall/
    /// starvation counters (the fault-layer analog of
    /// [`home_stats_view`](Self::home_stats_view)).
    pub fn fault_stats(&self) -> Option<FaultStatsView> {
        self.fault.as_ref().map(|f| f.stats.clone())
    }

    /// Re-points the directory at `new_topology` — the planned
    /// drain/hot-remove path. Every directory entry whose address the
    /// new topology homes elsewhere migrates to its new home (entries
    /// with live peer copies *must* move for coherence to survive;
    /// LLC-only entries move too, modelling the drain copying the
    /// device's LLC contents out with its data). Call at a quiescent
    /// phase boundary; the engine stays fully consistent, so
    /// [`verify_invariants`](Self::verify_invariants) passes on both
    /// sides of the swap.
    ///
    /// The home count cannot change: a drained home simply ends up
    /// owning no addresses.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not quiescent or `new_topology` has a
    /// different home count.
    pub fn rehome(&mut self, new_topology: Topology) -> RehomeStats {
        assert!(
            self.is_quiescent(),
            "rehome requires a quiescent engine (drain traffic first)"
        );
        assert_eq!(
            new_topology.homes(),
            self.homes.len(),
            "rehome cannot change the home count"
        );
        let mut stats = RehomeStats::default();
        let mut moved: Vec<(PhysAddr, DirEntry, HomeId)> = Vec::new();
        for h in &mut self.homes {
            let hid = h.id();
            let leaving: Vec<(u64, DirEntry)> = h
                .dir_iter()
                .filter(|(key, _)| new_topology.home_for(PhysAddr::new(*key)) != hid)
                .map(|(key, entry)| (key, *entry))
                .collect();
            for (key, entry) in leaving {
                let addr = PhysAddr::new(key);
                h.flush_line(addr);
                stats.moved += 1;
                if entry.owner.is_some() || !entry.sharers.is_empty() {
                    stats.with_peers += 1;
                }
                moved.push((addr, entry, new_topology.home_for(addr)));
            }
        }
        for (addr, entry, dst) in moved {
            self.homes[dst.index()].preload(addr, entry);
        }
        self.topology = new_topology;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcmem::AtomicKind;

    fn engine() -> (ProtocolEngine, AgentId, AgentId) {
        let mut eng = ProtocolEngine::builder().build();
        let cpu = eng.add_cache(CacheConfig::cpu_l1());
        let hmc = eng.add_cache(CacheConfig::hmc_128k());
        (eng, cpu, hmc)
    }

    fn one(eng: &mut ProtocolEngine, agent: AgentId, op: MemOp, addr: u64, at: Tick) -> Completion {
        let id = eng.issue(agent, op, PhysAddr::new(addr), at);
        let done = eng.run_to_quiescence();
        done.into_iter().find(|c| c.req == id).expect("completed")
    }

    #[test]
    fn cold_load_hits_memory() {
        let (mut eng, cpu, _) = engine();
        let c = one(&mut eng, cpu, MemOp::Load, 0x1000, Tick::ZERO);
        assert_eq!(c.level, HitLevel::Mem);
        assert_eq!(c.value, 0);
        eng.verify_invariants();
    }

    #[test]
    fn second_load_hits_locally() {
        let (mut eng, cpu, _) = engine();
        one(&mut eng, cpu, MemOp::Load, 0x1000, Tick::ZERO);
        let t = eng.now() + Tick::from_ns(1);
        let c = one(&mut eng, cpu, MemOp::Load, 0x1000, t);
        assert_eq!(c.level, HitLevel::Local);
        assert!(c.latency() < Tick::from_ns(20));
        eng.verify_invariants();
    }

    #[test]
    fn store_then_load_round_trip() {
        let (mut eng, cpu, hmc) = engine();
        one(
            &mut eng,
            cpu,
            MemOp::Store { value: 77 },
            0x2000,
            Tick::ZERO,
        );
        let t = eng.now() + Tick::from_ns(1);
        let c = one(&mut eng, hmc, MemOp::Load, 0x2000, t);
        assert_eq!(c.value, 77);
        assert_eq!(c.level, HitLevel::Peer);
        eng.verify_invariants();
        // CPU downgraded to S, HMC has S.
        assert_eq!(
            eng.line_state(cpu, PhysAddr::new(0x2000)),
            Some(LineState::Shared)
        );
        assert_eq!(
            eng.line_state(hmc, PhysAddr::new(0x2000)),
            Some(LineState::Shared)
        );
    }

    #[test]
    fn rdown_invalidates_peer() {
        let (mut eng, cpu, hmc) = engine();
        one(&mut eng, cpu, MemOp::Store { value: 1 }, 0x3000, Tick::ZERO);
        let t = eng.now() + Tick::from_ns(1);
        let c = one(&mut eng, hmc, MemOp::Store { value: 2 }, 0x3000, t);
        assert_eq!(c.level, HitLevel::Peer);
        assert_eq!(eng.line_state(cpu, PhysAddr::new(0x3000)), None);
        assert_eq!(
            eng.line_state(hmc, PhysAddr::new(0x3000)),
            Some(LineState::Modified)
        );
        let t2 = eng.now() + Tick::from_ns(1);
        let c2 = one(&mut eng, cpu, MemOp::Load, 0x3000, t2);
        assert_eq!(c2.value, 2);
        eng.verify_invariants();
    }

    #[test]
    fn shared_upgrade_uses_go_without_data() {
        let (mut eng, cpu, hmc) = engine();
        // Both read the line -> S everywhere.
        one(&mut eng, cpu, MemOp::Load, 0x4000, Tick::ZERO);
        let t = eng.now() + Tick::from_ns(1);
        one(&mut eng, hmc, MemOp::Load, 0x4000, t);
        let t = eng.now() + Tick::from_ns(1);
        // CPU upgrades.
        let c = one(&mut eng, cpu, MemOp::Store { value: 5 }, 0x4000, t);
        assert_eq!(c.level, HitLevel::Llc);
        assert_eq!(eng.line_state(hmc, PhysAddr::new(0x4000)), None);
        assert_eq!(
            eng.line_state(cpu, PhysAddr::new(0x4000)),
            Some(LineState::Modified)
        );
        eng.verify_invariants();
    }

    #[test]
    fn rmw_is_atomic_and_returns_old() {
        let (mut eng, cpu, _) = engine();
        eng.func_mem().write_u64(PhysAddr::new(0x5000), 10);
        let c = one(
            &mut eng,
            cpu,
            MemOp::Rmw {
                kind: AtomicKind::FetchAdd,
                operand: 5,
                operand2: 0,
            },
            0x5000,
            Tick::ZERO,
        );
        assert_eq!(c.value, 10);
        assert_eq!(eng.func_mem().read_u64(PhysAddr::new(0x5000)), 15);
    }

    #[test]
    fn contended_atomics_sum_correctly() {
        let (mut eng, cpu, hmc) = engine();
        let addr = PhysAddr::new(0x6000);
        let mut t = Tick::ZERO;
        for _ in 0..50 {
            eng.issue(
                cpu,
                MemOp::Rmw {
                    kind: AtomicKind::FetchAdd,
                    operand: 1,
                    operand2: 0,
                },
                addr,
                t,
            );
            eng.issue(
                hmc,
                MemOp::Rmw {
                    kind: AtomicKind::FetchAdd,
                    operand: 1,
                    operand2: 0,
                },
                addr,
                t,
            );
            t += Tick::from_ns(50);
        }
        let done = eng.run_to_quiescence();
        assert_eq!(done.len(), 100);
        assert_eq!(eng.func_mem().read_u64(addr), 100);
        eng.verify_invariants();
    }

    #[test]
    fn ncp_pushes_line_to_llc_and_invalidates_locally() {
        let (mut eng, cpu, hmc) = engine();
        let addr = PhysAddr::new(0x7000);
        let c = one(
            &mut eng,
            hmc,
            MemOp::NcPush { value: 9 },
            0x7000,
            Tick::ZERO,
        );
        assert_eq!(c.level, HitLevel::Llc);
        assert_eq!(eng.line_state(hmc, addr), None);
        assert!(eng.dir_entry(addr).is_some());
        // CPU load now hits the LLC, not memory.
        let t = eng.now() + Tick::from_ns(1);
        let c2 = one(&mut eng, cpu, MemOp::Load, 0x7000, t);
        assert_eq!(c2.value, 9);
        assert_eq!(c2.level, HitLevel::Llc);
        eng.verify_invariants();
    }

    #[test]
    fn ncp_invalidates_peer_copies() {
        let (mut eng, cpu, hmc) = engine();
        one(&mut eng, cpu, MemOp::Store { value: 1 }, 0x8000, Tick::ZERO);
        let t = eng.now() + Tick::from_ns(1);
        let c = one(&mut eng, hmc, MemOp::NcPush { value: 2 }, 0x8000, t);
        assert_eq!(eng.line_state(cpu, PhysAddr::new(0x8000)), None);
        assert_eq!(c.value, 2);
        let t = eng.now() + Tick::from_ns(1);
        let c2 = one(&mut eng, cpu, MemOp::Load, 0x8000, t);
        assert_eq!(c2.value, 2);
        eng.verify_invariants();
    }

    #[test]
    fn preload_llc_makes_llc_hits() {
        let (mut eng, _, hmc) = engine();
        eng.preload_llc(PhysAddr::new(0x9000));
        let c = one(&mut eng, hmc, MemOp::Load, 0x9000, Tick::ZERO);
        assert_eq!(c.level, HitLevel::Llc);
    }

    #[test]
    fn preload_llc_keeps_a_cached_lines_directory_entry() {
        let (mut eng, _, hmc) = engine();
        let a = PhysAddr::new(0x9040);
        eng.preload(hmc, a, LineState::Exclusive);
        eng.preload_llc(a);
        assert_eq!(eng.dir_entry(a).unwrap().owner, Some(hmc));
        eng.verify_invariants();
        let c = one(&mut eng, hmc, MemOp::Load, a.raw(), Tick::ZERO);
        assert_eq!(c.level, HitLevel::Local);
    }

    #[test]
    fn preload_local_makes_local_hits() {
        let (mut eng, _, hmc) = engine();
        eng.preload(hmc, PhysAddr::new(0xa000), LineState::Exclusive);
        eng.verify_invariants();
        let c = one(&mut eng, hmc, MemOp::Load, 0xa000, Tick::ZERO);
        assert_eq!(c.level, HitLevel::Local);
    }

    #[test]
    fn latency_tiers_are_ordered() {
        let (mut eng, _, hmc) = engine();
        eng.preload(hmc, PhysAddr::new(0x100), LineState::Exclusive);
        eng.preload_llc(PhysAddr::new(0x200));
        let local = one(&mut eng, hmc, MemOp::Load, 0x100, Tick::ZERO).latency();
        let t = eng.now() + Tick::from_ns(1);
        let llc = one(&mut eng, hmc, MemOp::Load, 0x200, t).latency();
        let t = eng.now() + Tick::from_ns(1);
        let mem = one(&mut eng, hmc, MemOp::Load, 0x300, t).latency();
        assert!(local < llc, "local {local} !< llc {llc}");
        assert!(llc < mem, "llc {llc} !< mem {mem}");
    }

    #[test]
    fn run_next_matches_peek_then_run_until() {
        // The fused step must process exactly the events run_until(next)
        // would: same completions, same clock, batch by batch.
        let build = |jitterless: &mut ProtocolEngine| {
            let c = jitterless.add_cache(CacheConfig::cpu_l1());
            let mut t = Tick::ZERO;
            for i in 0..32u64 {
                jitterless.issue(c, MemOp::Store { value: i }, PhysAddr::new(i % 8 * 64), t);
                t += Tick::from_ns(7);
            }
        };
        let mut a = ProtocolEngine::builder().build();
        let mut b = ProtocolEngine::builder().build();
        build(&mut a);
        build(&mut b);
        let mut done = Vec::new();
        loop {
            let stepped = a.run_next(&mut done).then(|| done.clone());
            let reference = b.next_event().map(|t| b.run_until(t));
            assert_eq!(stepped, reference);
            assert_eq!(a.now(), b.now());
            if stepped.is_none() {
                break;
            }
        }
        a.verify_invariants();
    }

    #[test]
    #[should_panic(expected = "62 peer caches")]
    fn add_cache_rejects_more_than_sharer_bits() {
        let mut eng = ProtocolEngine::builder().build();
        for _ in 0..63 {
            eng.add_cache(CacheConfig::cpu_l1());
        }
    }

    #[test]
    fn coalesced_requests_complete_in_order() {
        let (mut eng, cpu, _) = engine();
        let addr = PhysAddr::new(0xb000);
        let r1 = eng.issue(cpu, MemOp::Load, addr, Tick::ZERO);
        let r2 = eng.issue(cpu, MemOp::Store { value: 3 }, addr, Tick::from_ps(100));
        let r3 = eng.issue(cpu, MemOp::Load, addr, Tick::from_ps(200));
        let done = eng.run_to_quiescence();
        assert_eq!(done.len(), 3);
        let pos = |r: ReqId| done.iter().position(|c| c.req == r).unwrap();
        assert!(pos(r1) < pos(r2));
        assert!(pos(r2) < pos(r3));
        assert_eq!(done[pos(r3)].value, 3);
        eng.verify_invariants();
    }

    #[test]
    fn capacity_evictions_write_back() {
        let mut eng = ProtocolEngine::builder().build();
        // A tiny 8-line direct-mapped-ish cache to force evictions.
        let cfg = CacheConfig {
            size_bytes: 8 * 64,
            ways: 2,
            ..CacheConfig::cpu_l1()
        };
        let c = eng.add_cache(cfg);
        // Write 64 distinct lines: far more than capacity.
        let mut t = Tick::ZERO;
        for i in 0..64u64 {
            eng.issue(c, MemOp::Store { value: i }, PhysAddr::new(i * 64), t);
            t += Tick::from_ns(200);
        }
        let done = eng.run_to_quiescence();
        assert_eq!(done.len(), 64);
        eng.verify_invariants();
        // All values readable back.
        let mut t = eng.now() + Tick::from_ns(1);
        let mut ids = Vec::new();
        for i in 0..64u64 {
            ids.push(eng.issue(c, MemOp::Load, PhysAddr::new(i * 64), t));
            t += Tick::from_ns(200);
        }
        let done = eng.run_to_quiescence();
        for (i, id) in ids.iter().enumerate() {
            let c = done.iter().find(|c| c.req == *id).unwrap();
            assert_eq!(c.value, i as u64);
        }
        eng.verify_invariants();
    }

    /// Regression: evicting a line whose own S->M upgrade is in flight
    /// must not notify the home — the CleanEvict used to erase the
    /// ownership the in-flight RdOwn had just established, leaving the
    /// cache Modified while the directory said "untracked" (found by
    /// the weighted-interleave stress seed 0xD1CE, minimized here: all
    /// of lines 2/194/418/450/226 land in set 2 of the 8 KB 4-way
    /// cache, so the four fills after the upgrade victimize line 194
    /// while its RdOwn is outstanding).
    #[test]
    fn upgrade_in_flight_survives_conflict_eviction() {
        let mut eng = ProtocolEngine::builder()
            .topology(Topology::line_interleaved(4))
            .build();
        let a = eng.add_cache(CacheConfig {
            size_bytes: 8 * 1024,
            ..CacheConfig::hmc_128k()
        });
        let b = eng.add_cache(CacheConfig {
            size_bytes: 8 * 1024,
            ..CacheConfig::hmc_128k()
        });
        let at = |ps: u64| Tick::from_ps(ps);
        let line = |n: u64| PhysAddr::new(n * 64);
        eng.issue(a, MemOp::Load, line(194), at(56_004));
        eng.issue(b, MemOp::Load, line(194), at(558_513));
        eng.issue(a, MemOp::Store { value: 1 }, line(2), at(1_538_148));
        // The upgrade: `a` holds 194 in S (shared with `b`).
        eng.issue(a, MemOp::Store { value: 2 }, line(194), at(1_578_660));
        // Three more set-2 fills while the RdOwn is in flight.
        let rmw = MemOp::Rmw {
            kind: AtomicKind::FetchAdd,
            operand: 1,
            operand2: 0,
        };
        eng.issue(a, rmw, line(418), at(1_632_861));
        eng.issue(a, MemOp::Load, line(450), at(1_644_570));
        eng.issue(a, rmw, line(226), at(1_715_138));
        let done = eng.run_to_quiescence();
        assert_eq!(done.len(), 7);
        eng.verify_invariants();
        assert_eq!(eng.func_mem().read_u64(line(194)), 2);
    }

    /// Pins the order a handler files its events in. A `DataGoS` fill
    /// releases a queued load, then a queued store that needs ownership:
    /// the cache completes the load and re-requests the line with
    /// `RdOwn` in the same handler call, so any reorder of completions
    /// and messages inside the sink shows up here by name.
    #[test]
    fn shared_fill_completes_queued_load_then_upgrades_for_the_store() {
        let (mut eng, cpu, hmc) = engine();
        let a = PhysAddr::new(0xc000);
        // A peer sharer makes the home grant the CPU's read in S.
        eng.preload(hmc, a, LineState::Shared);
        let ops = [
            MemOp::Load,
            MemOp::Load,
            MemOp::Store { value: 5 },
            MemOp::Load,
        ];
        let ids: Vec<ReqId> = (0..ops.len())
            .map(|i| eng.issue(cpu, ops[i], a, Tick::from_ps(100 * i as u64)))
            .collect();
        let done = eng.run_to_quiescence();
        let seen: Vec<(usize, u64, u64, HitLevel)> = done
            .iter()
            .map(|c| {
                let i = ids.iter().position(|&r| r == c.req).unwrap();
                (i, c.done.as_ps(), c.value, c.level)
            })
            .collect();
        assert_eq!(
            seen,
            [
                (0, 79_500, 0, HitLevel::Llc),
                (1, 80_000, 0, HitLevel::Llc),
                (2, 630_750, 5, HitLevel::Llc),
                (3, 631_250, 5, HitLevel::Llc),
            ]
        );
        assert_eq!(eng.line_state(cpu, a), Some(LineState::Modified));
        assert_eq!(eng.line_state(hmc, a), None);
        eng.verify_invariants();
    }

    fn mem_agent_with(ranges: &[(u64, u64, u64)]) -> MemAgent {
        let mut m = MemAgent {
            mi: MemoryInterface::new(),
            ports: vec![(
                Link::new(sim_core::LinkConfig::latency_only(Tick::ZERO)),
                Tick::ZERO,
            )],
            numa_extra: Vec::new(),
        };
        for &(base, size, extra_ns) in ranges {
            m.add_extra(
                AddrRange::new(PhysAddr::new(base), size),
                Tick::from_ns(extra_ns),
            );
        }
        m
    }

    #[test]
    fn numa_extra_adjacent_ranges_resolve_exactly() {
        const G: u64 = 1 << 30;
        let m = mem_agent_with(&[(0, G, 10), (G, G, 20), (2 * G, G, 30)]);
        // Boundaries are half-open: the last line of a range stays in it,
        // the first address of the next range switches over.
        assert_eq!(m.extra_for(PhysAddr::new(0)), Tick::from_ns(10));
        assert_eq!(m.extra_for(PhysAddr::new(G - 64)), Tick::from_ns(10));
        assert_eq!(m.extra_for(PhysAddr::new(G)), Tick::from_ns(20));
        assert_eq!(m.extra_for(PhysAddr::new(2 * G - 1)), Tick::from_ns(20));
        assert_eq!(m.extra_for(PhysAddr::new(2 * G)), Tick::from_ns(30));
        assert_eq!(m.extra_for(PhysAddr::new(3 * G)), Tick::ZERO); // past all
    }

    #[test]
    fn numa_extra_overlapping_ranges_prefer_greatest_start() {
        const G: u64 = 1 << 30;
        // A wide range with a narrower, later-starting override inside.
        let m = mem_agent_with(&[(0, 4 * G, 5), (G, G, 7)]);
        assert_eq!(m.extra_for(PhysAddr::new(G + 64)), Tick::from_ns(7));
        // Past the narrow range's end the backward walk must skip it and
        // land on the containing wide range.
        assert_eq!(m.extra_for(PhysAddr::new(3 * G)), Tick::from_ns(5));
        assert_eq!(m.extra_for(PhysAddr::new(64)), Tick::from_ns(5));
    }

    #[test]
    fn numa_extra_lookup_is_insertion_order_independent() {
        const G: u64 = 1 << 30;
        let a = mem_agent_with(&[(0, G, 1), (G, G, 2), (2 * G, G, 3)]);
        let b = mem_agent_with(&[(2 * G, G, 3), (0, G, 1), (G, G, 2)]);
        for addr in [0, G - 64, G, 2 * G + 4096, 3 * G - 1] {
            assert_eq!(
                a.extra_for(PhysAddr::new(addr)),
                b.extra_for(PhysAddr::new(addr)),
                "mismatch at {addr:#x}"
            );
        }
    }

    #[test]
    fn numa_extra_latency_applies() {
        let mut mi = MemoryInterface::new();
        mi.add_memory(
            AddrRange::new(PhysAddr::new(0), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        mi.add_memory(
            AddrRange::new(PhysAddr::new(1 << 30), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        let mut eng = ProtocolEngine::builder().memory(mi).build();
        let hmc = eng.add_cache(CacheConfig::hmc_128k());
        eng.add_numa_extra(
            AddrRange::new(PhysAddr::new(1 << 30), 1 << 30),
            Tick::from_ns(44),
        );
        let near = one(&mut eng, hmc, MemOp::Load, 0x100, Tick::ZERO).latency();
        let t = eng.now() + Tick::from_ns(1);
        let far = one(&mut eng, hmc, MemOp::Load, (1 << 30) + 0x100, t).latency();
        assert!(far > near + Tick::from_ns(80), "far {far} vs near {near}");
    }

    fn multihome_engine(homes: usize) -> (ProtocolEngine, AgentId, AgentId) {
        let mut eng = ProtocolEngine::builder()
            .topology(Topology::line_interleaved(homes))
            .build();
        let cpu = eng.add_cache(CacheConfig::cpu_l1());
        let hmc = eng.add_cache(CacheConfig::hmc_128k());
        (eng, cpu, hmc)
    }

    #[test]
    fn multihome_store_load_round_trip_across_homes() {
        let (mut eng, cpu, hmc) = multihome_engine(2);
        // Adjacent lines land on different homes under line interleave.
        let a0 = PhysAddr::new(0x1000); // line 0x40 -> home 0
        let a1 = PhysAddr::new(0x1040); // line 0x41 -> home 1
        assert_eq!(eng.topology().home_for(a0), HomeId(0));
        assert_eq!(eng.topology().home_for(a1), HomeId(1));
        one(
            &mut eng,
            cpu,
            MemOp::Store { value: 7 },
            a0.raw(),
            Tick::ZERO,
        );
        let t = eng.now() + Tick::from_ns(1);
        one(&mut eng, cpu, MemOp::Store { value: 9 }, a1.raw(), t);
        let t = eng.now() + Tick::from_ns(1);
        let c0 = one(&mut eng, hmc, MemOp::Load, a0.raw(), t);
        let t = eng.now() + Tick::from_ns(1);
        let c1 = one(&mut eng, hmc, MemOp::Load, a1.raw(), t);
        assert_eq!(c0.value, 7);
        assert_eq!(c1.value, 9);
        // Each line's entry lives at its owning home and nowhere else.
        assert!(eng.homes[0].dir_entry(a0).is_some());
        assert!(eng.homes[1].dir_entry(a0).is_none());
        assert!(eng.homes[1].dir_entry(a1).is_some());
        assert!(eng.homes[0].dir_entry(a1).is_none());
        eng.verify_invariants();
    }

    #[test]
    fn multihome_stats_sum_to_aggregate() {
        let (mut eng, cpu, _) = multihome_engine(4);
        let mut t = Tick::ZERO;
        for i in 0..32u64 {
            eng.issue(cpu, MemOp::Store { value: i }, PhysAddr::new(i * 64), t);
            t += Tick::from_ns(100);
        }
        eng.run_to_quiescence();
        eng.verify_invariants();
        let view = eng.home_stats_view();
        let active = view.iter().filter(|(_, s)| s.requests > 0).count();
        assert_eq!(active, 4, "line interleave should spread across all homes");
        assert_eq!(view.total().requests, 32);
    }

    #[test]
    fn multihome_contended_atomics_sum_correctly() {
        let (mut eng, cpu, hmc) = multihome_engine(4);
        // Four contended lines, one per home.
        let mut t = Tick::ZERO;
        for _ in 0..25 {
            for line in 0..4u64 {
                let addr = PhysAddr::new(line * 64);
                for agent in [cpu, hmc] {
                    eng.issue(
                        agent,
                        MemOp::Rmw {
                            kind: AtomicKind::FetchAdd,
                            operand: 1,
                            operand2: 0,
                        },
                        addr,
                        t,
                    );
                }
            }
            t += Tick::from_ns(50);
        }
        let done = eng.run_to_quiescence();
        assert_eq!(done.len(), 200);
        for line in 0..4u64 {
            assert_eq!(eng.func_mem().read_u64(PhysAddr::new(line * 64)), 50);
        }
        eng.verify_invariants();
    }

    #[test]
    fn multihome_flush_and_preload_consult_owning_home() {
        let (mut eng, _, hmc) = multihome_engine(2);
        let odd = PhysAddr::new(0x40); // home 1
        eng.preload_llc(odd);
        assert!(eng.homes[1].dir_entry(odd).is_some());
        let c = one(&mut eng, hmc, MemOp::Load, odd.raw(), Tick::ZERO);
        assert_eq!(c.level, HitLevel::Llc);
        let owned = PhysAddr::new(0xc0); // home 1
        eng.preload(hmc, owned, LineState::Exclusive);
        assert_eq!(eng.homes[1].dir_entry(owned).unwrap().owner, Some(hmc));
        eng.verify_invariants();
        let llc_only = PhysAddr::new(0x140); // home 1
        eng.preload_llc(llc_only);
        eng.home_of_mut(llc_only).flush_line(llc_only);
        assert!(eng.homes[1].dir_entry(llc_only).is_none());
        eng.verify_invariants();
    }

    #[test]
    fn single_home_topology_is_the_default() {
        let eng = ProtocolEngine::builder().build();
        assert_eq!(eng.num_homes(), 1);
        assert!(eng.topology().is_single());
    }

    #[test]
    fn jitter_spreads_latencies() {
        let mut eng = ProtocolEngine::builder().jitter_ns(9, 5.0).build();
        let hmc = eng.add_cache(CacheConfig::hmc_128k());
        let mut latencies = Vec::new();
        let mut t = Tick::ZERO;
        for i in 0..64u64 {
            eng.preload(hmc, PhysAddr::new(i * 64), LineState::Exclusive);
        }
        for i in 0..64u64 {
            eng.issue(hmc, MemOp::Load, PhysAddr::new(i * 64), t);
            t += Tick::from_us(1);
        }
        for c in eng.run_to_quiescence() {
            latencies.push(c.latency());
        }
        let min = latencies.iter().min().unwrap();
        let max = latencies.iter().max().unwrap();
        assert!(*max > *min, "jitter produced identical latencies");
    }
}
