//! The home agent: shared LLC with an embedded directory.
//!
//! Mirrors SimCXL's Ruby home agent: "The metadata of each LLC cacheline
//! embeds directory information for coherence management, including a
//! CacheState field ..., an ID field tracking the exclusive holder, and a
//! bit vector recording all sharers" (paper §IV-B2). The home agent
//! serializes transactions per line; requests that hit a busy line queue
//! and replay in arrival order.

use crate::config::HomeConfig;
use crate::engine::Sink;
use crate::msg::{AgentId, HitLevel, Msg, MsgKind};
use crate::pending::{PendingList, PendingSlab};
use crate::profile::EngineProfile;
use crate::topology::HomeId;
use sim_core::{FxHashMap, Link, Tick};
use std::collections::hash_map::Entry;

/// Compact sharer set: the paper's "bit vector recording all sharers"
/// (§IV-B2), one bit per agent index.
///
/// Inline (no heap) and O(1) for every operation; iteration yields agents
/// in ascending index order, matching the ordered-set semantics the
/// directory logic relies on for deterministic snoop fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharerSet(u64);

impl SharerSet {
    fn bit(agent: AgentId) -> u64 {
        let i = agent.index();
        assert!(i < 64, "SharerSet supports agent indices < 64 (got {i})");
        1 << i
    }

    /// Adds an agent; no-op if already present.
    pub(crate) fn insert(&mut self, agent: AgentId) {
        self.0 |= Self::bit(agent);
    }

    /// Removes an agent; no-op if absent.
    pub(crate) fn remove(&mut self, agent: &AgentId) {
        self.0 &= !Self::bit(*agent);
    }

    /// Whether the agent is present.
    pub(crate) fn contains(&self, agent: &AgentId) -> bool {
        self.0 & Self::bit(*agent) != 0
    }

    /// Whether no agents are present.
    pub(crate) fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Drops all sharers.
    pub(crate) fn clear(&mut self) {
        self.0 = 0;
    }

    /// The raw 64-bit word, one bit per agent index — the batched
    /// snoop fan-out iterates set bits of this word directly instead of
    /// materializing an agent list.
    pub fn word(&self) -> u64 {
        self.0
    }

    /// Iterates sharers in ascending agent-index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = AgentId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(AgentId(i))
        })
    }
}

/// Directory entry embedded in an LLC line.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirEntry {
    /// Exclusive holder (E or M at the peer), if any.
    pub owner: Option<AgentId>,
    /// Peers holding the line in S.
    pub sharers: SharerSet,
    /// Whether the LLC copy is newer than memory.
    pub dirty: bool,
}

#[derive(Debug)]
enum HomeTx {
    /// Waiting for `MemData`.
    Fetch { requester: AgentId },
    /// Waiting for snoop responses.
    Collect {
        requester: AgentId,
        for_own: bool,
        pending: usize,
        dirty_seen: bool,
        /// Requester already holds the line in S (ownership upgrade).
        upgrade: bool,
        /// Collecting on behalf of an NC-P push.
        ncp: bool,
    },
    /// Waiting for `WbData` from an evictor.
    WritePull { evictor: AgentId },
}

/// Per-line busy state: the in-flight transaction plus the intrusive
/// list of requests that arrived while it held the line. Embedding the
/// list here means the arrival-path busy probe *is* the enqueue probe —
/// there is no separate pending map to hash into.
#[derive(Debug)]
struct BusyLine {
    tx: HomeTx,
    pending: PendingList,
}

impl BusyLine {
    fn new(tx: HomeTx) -> Self {
        BusyLine {
            tx,
            pending: PendingList::default(),
        }
    }
}

/// Statistics exposed by the `HomeAgent`.
///
/// In a multi-home topology each home keeps its own copy; summing them
/// (via [`AddAssign`](std::ops::AddAssign)) yields the aggregate the
/// single-home engine used to report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomeStats {
    /// Channel requests accepted (LLC hits + fetches + snoop-collects +
    /// evict notices); per-home counts expose interleave imbalance.
    pub requests: u64,
    /// Requests served from the LLC without memory or snoops.
    pub llc_hits: u64,
    /// Requests requiring a memory fetch.
    pub mem_fetches: u64,
    /// Snoop messages sent.
    pub snoops_sent: u64,
    /// Writebacks pulled from peers.
    pub write_pulls: u64,
    /// NC-P pushes absorbed.
    pub ncp_pushes: u64,
}

impl std::ops::AddAssign for HomeStats {
    fn add_assign(&mut self, rhs: HomeStats) {
        self.requests += rhs.requests;
        self.llc_hits += rhs.llc_hits;
        self.mem_fetches += rhs.mem_fetches;
        self.snoops_sent += rhs.snoops_sent;
        self.write_pulls += rhs.write_pulls;
        self.ncp_pushes += rhs.ncp_pushes;
    }
}

/// An immutable snapshot of every home agent's statistics, paired with
/// the topology's per-home load weights.
///
/// This is the single per-home stats query surface: the aggregate
/// ([`total`](Self::total)), one home's counters ([`get`](Self::get)),
/// iteration in [`HomeId`] order ([`iter`](Self::iter)), and how far
/// directory traffic deviates from the weight shares
/// ([`balance_error`](Self::balance_error)) all come from the same
/// snapshot.
///
/// Obtain one from
/// [`ProtocolEngine::home_stats_view`](crate::engine::ProtocolEngine::home_stats_view),
/// or from recorded counters through
/// [`balance_error_of`](crate::rebalance::balance_error_of).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeStatsView {
    stats: Vec<HomeStats>,
    weights: Vec<u64>,
}

impl HomeStatsView {
    /// Builds a view from per-home counters and the matching weights
    /// (both indexed by [`HomeId`]).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, the view would be empty, or a
    /// weight is zero ([`balance_error`](Self::balance_error) divides
    /// by each weight's share).
    pub(crate) fn new(stats: Vec<HomeStats>, weights: Vec<u64>) -> Self {
        assert_eq!(
            stats.len(),
            weights.len(),
            "one weight per home's stats entry"
        );
        assert!(!stats.is_empty(), "a topology has at least one home");
        assert!(
            weights.iter().all(|&w| w > 0),
            "home weights must be nonzero"
        );
        HomeStatsView { stats, weights }
    }

    /// Number of homes in the snapshot.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the snapshot is empty (never true for engine-produced
    /// views; a topology has at least one home).
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// One home's counters, or `None` if `home` is out of range.
    pub fn get(&self, home: HomeId) -> Option<&HomeStats> {
        self.stats.get(home.index())
    }

    /// Iterates `(HomeId, stats)` pairs in home order.
    pub fn iter(&self) -> impl Iterator<Item = (HomeId, &HomeStats)> {
        self.stats.iter().enumerate().map(|(i, s)| (HomeId(i), s))
    }

    /// The per-home counters as a slice, indexed by [`HomeId`].
    pub fn stats(&self) -> &[HomeStats] {
        &self.stats
    }

    /// Counters summed over every home — the aggregate the single-home
    /// engine used to report.
    pub fn total(&self) -> HomeStats {
        let mut total = HomeStats::default();
        for s in &self.stats {
            total += *s;
        }
        total
    }

    /// Maximum relative deviation of per-home request traffic from its
    /// weight share: `max_i |share_i - w_i/sum(w)| / (w_i/sum(w))` over
    /// the per-home `requests` counters. `0.0` is perfect
    /// capacity-proportional balance; `0.0` is also returned when no
    /// requests were recorded at all.
    pub fn balance_error(&self) -> f64 {
        let total_req: u64 = self.stats.iter().map(|s| s.requests).sum();
        let total_w: u64 = self.weights.iter().sum();
        if total_req == 0 {
            return 0.0;
        }
        self.stats
            .iter()
            .zip(&self.weights)
            .map(|(s, &w)| {
                let share = s.requests as f64 / total_req as f64;
                let want = w as f64 / total_w as f64;
                (share - want).abs() / want
            })
            .fold(0.0, f64::max)
    }
}

/// The shared-LLC home agent.
///
/// A multi-home engine instantiates one per directory shard; each agent
/// only ever sees the slice of the address space its
/// [`Topology`](crate::topology::Topology) assigns to it.
#[derive(Debug)]
pub(crate) struct HomeAgent {
    /// This agent's shard id, stamped into every message it sends.
    id: HomeId,
    cfg: HomeConfig,
    /// Hot per-line maps keyed by line address; Fx-hashed — SipHash was
    /// a measurable fraction of every directory lookup.
    dir: FxHashMap<u64, DirEntry>,
    busy: FxHashMap<u64, BusyLine>,
    /// Shared node arena for every busy line's pending list: one
    /// allocation for the whole agent, O(1) enqueue/dequeue.
    slab: PendingSlab<(AgentId, MsgKind)>,
    /// Links to each peer cache, indexed by `AgentId.index() - 2`.
    links: Vec<Link>,
    mem_link: Link,
    next_serve: Tick,
    stats: HomeStats,
    profile: EngineProfile,
}

impl HomeAgent {
    pub(crate) fn new(id: HomeId, cfg: HomeConfig) -> Self {
        let mem_link = Link::new(cfg.mem_link);
        HomeAgent {
            id,
            cfg,
            dir: FxHashMap::default(),
            busy: FxHashMap::default(),
            slab: PendingSlab::new(),
            links: Vec::new(),
            mem_link,
            next_serve: Tick::ZERO,
            stats: HomeStats::default(),
            profile: EngineProfile::default(),
        }
    }

    /// Hot-path profiling counters accumulated by this agent.
    pub(crate) fn profile(&self) -> EngineProfile {
        self.profile
    }

    pub(crate) fn add_cache_link(&mut self, cfg: sim_core::LinkConfig) {
        self.links.push(Link::new(cfg));
    }

    /// This agent's shard id.
    pub(crate) fn id(&self) -> HomeId {
        self.id
    }

    /// Counters.
    pub(crate) fn stats(&self) -> HomeStats {
        self.stats
    }

    /// Directory entry for a line (tests / invariant checking).
    pub(crate) fn dir_entry(&self, addr: simcxl_mem::PhysAddr) -> Option<&DirEntry> {
        self.dir.get(&addr.line().raw())
    }

    /// Iterates over `(line_address, entry)` pairs.
    pub(crate) fn dir_iter(&self) -> impl Iterator<Item = (u64, &DirEntry)> {
        self.dir.iter().map(|(k, v)| (*k, v))
    }

    /// Installs a directory entry (engine preload helper).
    pub(crate) fn preload(&mut self, addr: simcxl_mem::PhysAddr, entry: DirEntry) {
        self.dir.insert(addr.line().raw(), entry);
    }

    /// Updates (creating if absent) the directory entry for `addr` in
    /// place — the single-probe variant of read-modify-`preload`.
    pub(crate) fn preload_update(
        &mut self,
        addr: simcxl_mem::PhysAddr,
        f: impl FnOnce(&mut DirEntry),
    ) {
        f(self.dir.entry(addr.line().raw()).or_default());
    }

    /// Removes a line entirely (CLFLUSH analog; caller must have
    /// invalidated peers).
    pub(crate) fn flush_line(&mut self, addr: simcxl_mem::PhysAddr) {
        let key = addr.line().raw();
        assert!(!self.busy.contains_key(&key), "flush of a busy line");
        self.dir.remove(&key);
    }

    pub(crate) fn is_quiescent(&self) -> bool {
        // Pending lists live inside busy entries, so an empty busy map
        // implies no queued requests either.
        debug_assert!(!self.busy.is_empty() || self.slab.live() == 0);
        self.busy.is_empty()
    }

    fn send_to_cache(
        &mut self,
        now: Tick,
        dst: AgentId,
        kind: MsgKind,
        addr: simcxl_mem::PhysAddr,
        level: Option<HitLevel>,
        out: &mut Sink<'_>,
    ) {
        let link = &mut self.links[dst.index() - 2];
        let arrival = link.send(now, kind.bytes());
        let msg = Msg {
            kind,
            addr,
            from: AgentId::HOME,
            home: self.id,
        };
        out.send_from_home(arrival, dst, msg, level);
    }

    fn send_to_mem(
        &mut self,
        now: Tick,
        kind: MsgKind,
        addr: simcxl_mem::PhysAddr,
        out: &mut Sink<'_>,
    ) {
        let arrival = self.mem_link.send(now, kind.bytes());
        let msg = Msg {
            kind,
            addr,
            from: AgentId::HOME,
            home: self.id,
        };
        out.send_from_home(arrival, AgentId::MEMORY, msg, None);
    }

    /// Handles any message arriving at the home agent.
    ///
    /// Channel *requests* pass through the serialized coherence-check
    /// pipeline (the `serve_gap` occupancy responsible for the paper's
    /// LLC/mem-hit bandwidth degradation, §VI-C1); data responses refill
    /// through a dedicated port with the shorter `refill_latency`.
    pub(crate) fn handle_msg(&mut self, msg: Msg, now: Tick, out: &mut Sink<'_>) {
        match msg.kind {
            MsgKind::RdShared
            | MsgKind::RdOwn
            | MsgKind::ItoMWr
            | MsgKind::DirtyEvict
            | MsgKind::CleanEvict => {
                self.stats.requests += 1;
                let start = now.max(self.next_serve);
                self.next_serve = start + self.cfg.serve_gap;
                let t = start + self.cfg.lookup_latency;
                let key = msg.addr.raw();
                // One busy probe covers both the busy check and the
                // enqueue: the pending list lives inside the entry.
                if let Some(line) = self.busy.get_mut(&key) {
                    self.profile.busy_hits += 1;
                    self.profile
                        .pending_depth
                        .record(u64::from(line.pending.len()));
                    self.slab.push_back(&mut line.pending, (msg.from, msg.kind));
                } else {
                    let busied = self.process_request(msg.from, msg.kind, msg.addr, t, out);
                    // A read granted inline is an LLC hit that needed no
                    // snoop, fetch or transaction.
                    if !busied && matches!(msg.kind, MsgKind::RdShared | MsgKind::RdOwn) {
                        self.profile.fast_path += 1;
                    } else {
                        self.profile.general_path += 1;
                    }
                }
            }
            MsgKind::SnpRespInv { dirty } | MsgKind::SnpRespDown { dirty } => {
                let t = now + self.cfg.refill_latency;
                self.snoop_resp(msg, dirty, t, out)
            }
            MsgKind::WbData => {
                let t = now + self.cfg.refill_latency;
                self.wb_data(msg, t, out)
            }
            MsgKind::MemData => {
                let t = now + self.cfg.refill_latency;
                self.mem_data(msg, t, out)
            }
            other => panic!("home received unexpected {:?}", other),
        }
    }

    /// Sends `kind` to every agent whose bit is set in `word`, in
    /// ascending index order — the batched snoop fan-out. Iterating the
    /// `SharerSet` word directly replaces the per-request scratch
    /// `Vec<AgentId>` snapshot.
    fn fan_out(
        &mut self,
        t: Tick,
        mut word: u64,
        kind: MsgKind,
        addr: simcxl_mem::PhysAddr,
        out: &mut Sink<'_>,
    ) {
        while word != 0 {
            let i = word.trailing_zeros() as u8;
            word &= word - 1;
            self.send_to_cache(t, AgentId(i), kind, addr, None, out);
        }
    }

    /// Dispatches one request against the directory. Returns `true`
    /// when the request allocated a busy transaction (the line is now
    /// occupied), `false` when it completed inline — the replay loop
    /// uses this to stop draining without re-probing the busy map.
    fn process_request(
        &mut self,
        from: AgentId,
        kind: MsgKind,
        addr: simcxl_mem::PhysAddr,
        t: Tick,
        out: &mut Sink<'_>,
    ) -> bool {
        let key = addr.raw();
        match kind {
            MsgKind::RdShared => match self.dir.get_mut(&key) {
                None => {
                    self.stats.mem_fetches += 1;
                    self.busy
                        .insert(key, BusyLine::new(HomeTx::Fetch { requester: from }));
                    self.send_to_mem(t, MsgKind::MemRd, addr, out);
                    true
                }
                Some(e) if e.owner.is_some() && e.owner != Some(from) => {
                    let owner = e.owner.expect("checked");
                    self.stats.snoops_sent += 1;
                    self.profile.snoop_fanout.record(1);
                    self.busy.insert(
                        key,
                        BusyLine::new(HomeTx::Collect {
                            requester: from,
                            for_own: false,
                            pending: 1,
                            dirty_seen: false,
                            upgrade: false,
                            ncp: false,
                        }),
                    );
                    self.send_to_cache(t, owner, MsgKind::SnpData, addr, None, out);
                    true
                }
                Some(e) => {
                    self.stats.llc_hits += 1;
                    let grant = if e.sharers.is_empty() && e.owner.is_none() {
                        e.owner = Some(from);
                        MsgKind::DataGoE
                    } else {
                        // Requester may be re-reading its own line.
                        if e.owner == Some(from) {
                            e.owner = None;
                        }
                        e.sharers.insert(from);
                        MsgKind::DataGoS
                    };
                    self.send_to_cache(t, from, grant, addr, Some(HitLevel::Llc), out);
                    false
                }
            },
            MsgKind::RdOwn => match self.dir.get_mut(&key) {
                None => {
                    self.stats.mem_fetches += 1;
                    self.busy
                        .insert(key, BusyLine::new(HomeTx::Fetch { requester: from }));
                    self.send_to_mem(t, MsgKind::MemRd, addr, out);
                    true
                }
                Some(e) => {
                    let owner = e.owner;
                    // Snoop targets as a bit word: sharers minus the
                    // requester, iterated in ascending order below —
                    // the same order the former Vec snapshot produced.
                    let others = e.sharers.word() & !SharerSet::bit(from);
                    let upgrade = e.sharers.contains(&from) || owner == Some(from);
                    if let Some(o) = owner.filter(|&o| o != from) {
                        self.stats.snoops_sent += 1;
                        self.profile.snoop_fanout.record(1);
                        self.busy.insert(
                            key,
                            BusyLine::new(HomeTx::Collect {
                                requester: from,
                                for_own: true,
                                pending: 1,
                                dirty_seen: false,
                                upgrade: false,
                                ncp: false,
                            }),
                        );
                        self.send_to_cache(t, o, MsgKind::SnpInv, addr, None, out);
                        true
                    } else if others != 0 {
                        let n = others.count_ones() as usize;
                        self.stats.snoops_sent += n as u64;
                        self.profile.snoop_fanout.record(n as u64);
                        self.busy.insert(
                            key,
                            BusyLine::new(HomeTx::Collect {
                                requester: from,
                                for_own: true,
                                pending: n,
                                dirty_seen: false,
                                upgrade,
                                ncp: false,
                            }),
                        );
                        self.fan_out(t, others, MsgKind::SnpInv, addr, out);
                        true
                    } else {
                        // No other copies.
                        self.stats.llc_hits += 1;
                        e.sharers.remove(&from);
                        e.owner = Some(from);
                        let grant = if upgrade {
                            MsgKind::GoUpgrade
                        } else {
                            MsgKind::DataGoE
                        };
                        self.send_to_cache(t, from, grant, addr, Some(HitLevel::Llc), out);
                        false
                    }
                }
            },
            MsgKind::ItoMWr => match self.dir.get_mut(&key) {
                None => {
                    // Full-line write: no memory fetch needed.
                    self.stats.ncp_pushes += 1;
                    self.dir.insert(
                        key,
                        DirEntry {
                            owner: None,
                            sharers: SharerSet::default(),
                            dirty: true,
                        },
                    );
                    self.send_to_cache(t, from, MsgKind::GoNcp, addr, Some(HitLevel::Llc), out);
                    false
                }
                Some(e) => {
                    // Owner first, then sharers ascending — the same
                    // order the former owner-then-others snapshot
                    // produced.
                    let owner = e.owner.filter(|&o| o != from);
                    let others = e.sharers.word() & !SharerSet::bit(from);
                    let n = usize::from(owner.is_some()) + others.count_ones() as usize;
                    if n == 0 {
                        self.stats.ncp_pushes += 1;
                        e.owner = None;
                        e.sharers.clear();
                        e.dirty = true;
                        self.send_to_cache(t, from, MsgKind::GoNcp, addr, Some(HitLevel::Llc), out);
                        false
                    } else {
                        self.stats.snoops_sent += n as u64;
                        self.profile.snoop_fanout.record(n as u64);
                        self.busy.insert(
                            key,
                            BusyLine::new(HomeTx::Collect {
                                requester: from,
                                for_own: true,
                                pending: n,
                                dirty_seen: false,
                                upgrade: false,
                                ncp: true,
                            }),
                        );
                        if let Some(o) = owner {
                            self.send_to_cache(t, o, MsgKind::SnpInv, addr, None, out);
                        }
                        self.fan_out(t, others, MsgKind::SnpInv, addr, out);
                        true
                    }
                }
            },
            MsgKind::DirtyEvict => {
                let is_owner = self
                    .dir
                    .get(&key)
                    .map(|e| e.owner == Some(from))
                    .unwrap_or(false);
                if is_owner {
                    self.stats.write_pulls += 1;
                    self.busy
                        .insert(key, BusyLine::new(HomeTx::WritePull { evictor: from }));
                    self.send_to_cache(t, from, MsgKind::GoWritePull, addr, None, out);
                    true
                } else {
                    // Stale eviction (the line was snooped away first).
                    self.send_to_cache(t, from, MsgKind::GoI, addr, None, out);
                    false
                }
            }
            MsgKind::CleanEvict => {
                if let Some(e) = self.dir.get_mut(&key) {
                    e.sharers.remove(&from);
                    if e.owner == Some(from) {
                        e.owner = None;
                    }
                }
                false
            }
            other => panic!("process_request on {:?}", other),
        }
    }

    fn snoop_resp(&mut self, msg: Msg, dirty: bool, t: Tick, out: &mut Sink<'_>) {
        let key = msg.addr.raw();
        // One busy probe for both the countdown and the finish-removal:
        // an occupied entry is decremented in place and removed (with
        // its pending list) the moment the last response lands.
        let finished = match self.busy.entry(key) {
            Entry::Occupied(mut o) => {
                let finish = match &mut o.get_mut().tx {
                    HomeTx::Collect {
                        pending,
                        dirty_seen,
                        ..
                    } => {
                        *pending -= 1;
                        *dirty_seen |= dirty;
                        *pending == 0
                    }
                    other => panic!("snoop response during {:?}", other),
                };
                if finish {
                    Some(o.remove())
                } else {
                    None
                }
            }
            Entry::Vacant(_) => panic!("snoop response for idle line {}", msg.addr),
        };
        let Some(line) = finished else {
            // Intermediate response: responder bookkeeping only — the
            // responder no longer holds the line (SnpInv) or has been
            // downgraded to S (SnpData).
            if let Some(e) = self.dir.get_mut(&key) {
                match msg.kind {
                    MsgKind::SnpRespInv { .. } => {
                        e.sharers.remove(&msg.from);
                        if e.owner == Some(msg.from) {
                            e.owner = None;
                        }
                    }
                    MsgKind::SnpRespDown { .. } => {
                        if e.owner == Some(msg.from) {
                            e.owner = None;
                        }
                        e.sharers.insert(msg.from);
                    }
                    _ => {}
                }
                if dirty {
                    // Peer's modified data lands in the LLC and is
                    // written through to memory (Fig. 7: "writes back
                    // dirty data to memory").
                    e.dirty = false;
                }
            }
            if dirty {
                self.send_to_mem(t, MsgKind::MemWr, msg.addr, out);
            }
            return;
        };
        let HomeTx::Collect {
            requester,
            for_own,
            dirty_seen,
            upgrade,
            ncp,
            ..
        } = line.tx
        else {
            unreachable!("entry arm verified a Collect");
        };
        // Final response: one dir probe covers both the responder
        // bookkeeping and the grant update (the or_default entry is
        // only reachable when the grant overwrites it anyway).
        let e = self.dir.entry(key).or_default();
        match msg.kind {
            MsgKind::SnpRespInv { .. } => {
                e.sharers.remove(&msg.from);
                if e.owner == Some(msg.from) {
                    e.owner = None;
                }
            }
            MsgKind::SnpRespDown { .. } => {
                if e.owner == Some(msg.from) {
                    e.owner = None;
                }
                e.sharers.insert(msg.from);
            }
            _ => {}
        }
        if dirty {
            e.dirty = false;
        }
        // `dirty_seen` already folded in this response's dirty bit
        // during the countdown above.
        let level = if dirty_seen {
            HitLevel::Peer
        } else {
            HitLevel::Llc
        };
        let grant = if ncp {
            self.stats.ncp_pushes += 1;
            e.owner = None;
            e.sharers.clear();
            e.dirty = true;
            MsgKind::GoNcp
        } else if for_own {
            let requester_has_data = upgrade && e.sharers.contains(&requester);
            e.sharers.remove(&requester);
            e.owner = Some(requester);
            if requester_has_data {
                MsgKind::GoUpgrade
            } else {
                MsgKind::DataGoE
            }
        } else {
            e.sharers.insert(requester);
            MsgKind::DataGoS
        };
        if dirty {
            self.send_to_mem(t, MsgKind::MemWr, msg.addr, out);
        }
        self.send_to_cache(t, requester, grant, msg.addr, Some(level), out);
        self.replay_pending(key, line.pending, msg.addr, t, out);
    }

    fn wb_data(&mut self, msg: Msg, t: Tick, out: &mut Sink<'_>) {
        let key = msg.addr.raw();
        let line = self.busy.remove(&key);
        match line {
            Some(BusyLine {
                tx: HomeTx::WritePull { evictor },
                pending,
            }) => {
                if let Some(e) = self.dir.get_mut(&key) {
                    if e.owner == Some(evictor) {
                        e.owner = None;
                    }
                    e.sharers.remove(&evictor);
                    e.dirty = false; // written through below
                }
                self.send_to_mem(t, MsgKind::MemWr, msg.addr, out);
                self.send_to_cache(t, evictor, MsgKind::GoI, msg.addr, None, out);
                self.replay_pending(key, pending, msg.addr, t, out);
            }
            other => panic!("WbData during {:?}", other.map(|l| l.tx)),
        }
    }

    fn mem_data(&mut self, msg: Msg, t: Tick, out: &mut Sink<'_>) {
        let key = msg.addr.raw();
        let line = self.busy.remove(&key);
        match line {
            Some(BusyLine {
                tx: HomeTx::Fetch { requester },
                pending,
            }) => {
                // Freshly fetched: grant E (sole copy) regardless of
                // read-for-share vs read-for-ownership.
                self.dir.insert(
                    key,
                    DirEntry {
                        owner: Some(requester),
                        sharers: SharerSet::default(),
                        dirty: false,
                    },
                );
                self.send_to_cache(
                    t,
                    requester,
                    MsgKind::DataGoE,
                    msg.addr,
                    Some(HitLevel::Mem),
                    out,
                );
                self.replay_pending(key, pending, msg.addr, t, out);
            }
            other => panic!("MemData during {:?}", other.map(|l| l.tx)),
        }
    }

    /// Drains the pending list a retired transaction left behind.
    ///
    /// The list arrives *by value* (it was embedded in the removed busy
    /// entry), so the drain itself touches no hash map at all: pop from
    /// the slab, dispatch, repeat. Draining must continue past requests
    /// that finish inline (LLC hit, evict notice) — stopping there
    /// would strand the remainder forever — and stops only when a
    /// dispatch re-occupies the line (its own completion will replay
    /// the rest). Only at that point does a single busy probe run, to
    /// hand the remaining list to the new transaction.
    fn replay_pending(
        &mut self,
        key: u64,
        mut list: PendingList,
        addr: simcxl_mem::PhysAddr,
        t: Tick,
        out: &mut Sink<'_>,
    ) {
        let mut chain = 0u64;
        while let Some((from, kind)) = self.slab.pop_front(&mut list) {
            chain += 1;
            if self.process_request(from, kind, addr, t, out) {
                if !list.is_empty() {
                    let line = self.busy.get_mut(&key).expect("dispatch busied the line");
                    line.pending = list;
                }
                break;
            }
        }
        if chain > 0 {
            self.profile.replay_chain.record(chain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(requests: u64) -> HomeStats {
        HomeStats {
            requests,
            ..HomeStats::default()
        }
    }

    #[test]
    fn hot_table_layouts_stay_narrow() {
        // The directory stores `(line, DirEntry)` pairs and every queued
        // event unpacks to a `Msg`: a widened field here costs footprint
        // on every probe, so it has to fail a test.
        use std::mem::size_of;
        assert_eq!(size_of::<DirEntry>(), 16);
        assert_eq!(size_of::<(u64, DirEntry)>(), 24);
        assert_eq!(size_of::<Msg>(), 24);
    }

    #[test]
    fn view_total_and_lookup() {
        let v = HomeStatsView::new(vec![mk(3), mk(5)], vec![1, 1]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.total().requests, 8);
        assert_eq!(v.get(HomeId(1)).unwrap().requests, 5);
        assert!(v.get(HomeId(2)).is_none());
        let ids: Vec<HomeId> = v.iter().map(|(h, _)| h).collect();
        assert_eq!(ids, vec![HomeId(0), HomeId(1)]);
    }

    #[test]
    fn view_balance_error_math() {
        // Perfect 4:2:1:1 split.
        let v = HomeStatsView::new(vec![mk(400), mk(200), mk(100), mk(100)], vec![4, 2, 1, 1]);
        assert!(v.balance_error() < 1e-12);
        // Home 2 at double its weight's worth of the (now larger)
        // total: share 200/900 vs want 1/8 -> deviation 7/9.
        let v = HomeStatsView::new(vec![mk(400), mk(200), mk(200), mk(100)], vec![4, 2, 1, 1]);
        assert!((v.balance_error() - 7.0 / 9.0).abs() < 1e-9);
        // No traffic at all: defined as perfectly balanced.
        let v = HomeStatsView::new(vec![mk(0), mk(0)], vec![1, 1]);
        assert_eq!(v.balance_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one weight per home")]
    fn view_rejects_length_mismatch() {
        let _ = HomeStatsView::new(vec![mk(1)], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "weights must be nonzero")]
    fn view_rejects_zero_weight() {
        let _ = HomeStatsView::new(vec![mk(0), mk(0)], vec![1, 0]);
    }
}
