//! A peer cache agent: CPU L1 or device HMC (behind its DCOH).
//!
//! Peer caches are privately owned by one requester (a CPU core or the
//! device's processing elements) and kept coherent by the home agent.
//! This module implements the cache-side of the paper's Fig. 7 flows:
//! read-for-ownership, silent E→M modification, and dirty eviction, plus
//! NC-P pushes and locked atomics.

use crate::array::{CacheArray, Line, LineState};
use crate::config::CacheConfig;
use crate::engine::Sink;
use crate::msg::{AgentId, HitLevel, MemOp, Msg, MsgKind, ReqId};
use crate::pending::{PendingList, PendingSlab};
use crate::profile::DepthHist;
use crate::topology::HomeId;
use sim_core::{FxHashMap, Link, Tick};
use std::collections::hash_map::Entry;

#[derive(Debug)]
struct Mshr {
    /// Requests waiting on this line, in arrival order (nodes live in
    /// the agent's `waiters` slab). An MSHR tracks an NC-P push rather
    /// than a fill exactly when its head waiter is the `NcPush` that
    /// opened it.
    waiting: PendingList,
}

impl Mshr {
    /// A fresh MSHR whose only waiter is the request that opened it.
    fn open(waiters: &mut PendingSlab<(ReqId, MemOp)>, first: (ReqId, MemOp)) -> Self {
        let mut waiting = PendingList::default();
        waiters.push_back(&mut waiting, first);
        Mshr { waiting }
    }
}

#[derive(Debug)]
struct EvictState {
    dirty: bool,
}

/// Statistics exposed by a `CacheAgent`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that hit locally.
    pub hits: u64,
    /// Requests that missed and went to the home agent.
    pub misses: u64,
    /// Snoops received from the home agent.
    pub snoops: u64,
    /// Snoops that found a locked line and were deferred.
    pub deferred_snoops: u64,
    /// Lines written back via `DirtyEvict`.
    pub writebacks: u64,
}

/// A peer cache: tag array + MSHRs + the CXL.cache request port.
#[derive(Debug)]
pub(crate) struct CacheAgent {
    id: AgentId,
    cfg: CacheConfig,
    array: CacheArray,
    /// Line-keyed transaction tables; Fx-hashed (hit on every message).
    mshrs: FxHashMap<u64, Mshr>,
    /// Node arena of every MSHR's waiter list: a miss links a recycled
    /// node instead of allocating a queue.
    waiters: PendingSlab<(ReqId, MemOp)>,
    evictions: FxHashMap<u64, EvictState>,
    pub(crate) link: Link,
    next_accept: Tick,
    stats: CacheStats,
    /// MSHR-map occupancy sampled at each miss allocation (profile).
    mshr_occupancy: DepthHist,
}

impl CacheAgent {
    pub(crate) fn new(id: AgentId, cfg: CacheConfig) -> Self {
        let link = Link::new(cfg.link);
        let array = CacheArray::new(cfg.size_bytes, cfg.ways);
        CacheAgent {
            id,
            cfg,
            array,
            mshrs: FxHashMap::default(),
            waiters: PendingSlab::new(),
            evictions: FxHashMap::default(),
            link,
            next_accept: Tick::ZERO,
            stats: CacheStats::default(),
            mshr_occupancy: DepthHist::default(),
        }
    }

    /// MSHR-occupancy histogram (profile layer).
    pub(crate) fn mshr_occupancy(&self) -> DepthHist {
        self.mshr_occupancy
    }

    /// Agent id.
    pub(crate) fn id(&self) -> AgentId {
        self.id
    }

    /// Configuration used to build this agent.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current line state (tests / invariant checking).
    pub(crate) fn line_state(&self, addr: simcxl_mem::PhysAddr) -> Option<LineState> {
        self.array.peek(addr).map(|l| l.state)
    }

    /// Installs a line in the given state without any protocol traffic
    /// (test setup; the engine's `preload` keeps the directory in sync).
    pub(crate) fn preload(&mut self, addr: simcxl_mem::PhysAddr, state: LineState) {
        if self.array.peek(addr).is_none() {
            let victim = self.array.insert(addr, state);
            assert!(
                victim.is_none(),
                "preload evicted a line; enlarge the cache"
            );
        } else {
            let line = self.array.get_mut(addr).expect("just checked");
            line.state = state;
        }
        if state == LineState::Modified {
            self.array.get_mut(addr).expect("resident").dirty = true;
        }
    }

    fn send(&mut self, now: Tick, kind: MsgKind, addr: simcxl_mem::PhysAddr, out: &mut Sink<'_>) {
        let arrival = self.link.send(now, kind.bytes());
        // The cache is topology-blind: it addresses "the home" and the
        // sink stamps `home` with the shard owning the line.
        out.send_home(
            arrival,
            Msg {
                kind,
                addr: addr.line(),
                from: self.id,
                home: HomeId::ZERO,
            },
        );
    }

    /// Handles an external request arriving at `now` (already including
    /// the requester's issue latency).
    pub(crate) fn handle_request(
        &mut self,
        req: ReqId,
        op: MemOp,
        addr: simcxl_mem::PhysAddr,
        now: Tick,
        out: &mut Sink<'_>,
    ) {
        let start = now.max(self.next_accept);
        self.next_accept = start + self.cfg.accept_gap;
        let t = start + self.cfg.lookup_latency;
        let line_key = addr.line().raw();

        // Single MSHR probe: an occupied entry absorbs the request in
        // place; a vacant one is filled directly on the miss paths
        // below (no second hash on insert).
        let occupancy = self.mshrs.len() as u64;
        let vacant = match self.mshrs.entry(line_key) {
            Entry::Occupied(mut o) => {
                self.waiters.push_back(&mut o.get_mut().waiting, (req, op));
                return;
            }
            Entry::Vacant(v) => v,
        };

        match op {
            MemOp::NcPush { .. } => {
                // NC-P: drop any local copy (its data is superseded by the
                // push) and send the full line to the LLC.
                self.array.remove(addr);
                self.mshr_occupancy.record(occupancy);
                vacant.insert(Mshr::open(&mut self.waiters, (req, op)));
                self.send(t, MsgKind::ItoMWr, addr, out);
            }
            MemOp::Load | MemOp::Prefetch => {
                if let Some(line) = self.array.get_mut(addr) {
                    let done = t.max(line.locked_until);
                    self.stats.hits += 1;
                    out.complete(done, req, HitLevel::Local);
                } else {
                    self.stats.misses += 1;
                    self.mshr_occupancy.record(occupancy);
                    vacant.insert(Mshr::open(&mut self.waiters, (req, op)));
                    self.send(t, MsgKind::RdShared, addr, out);
                }
            }
            MemOp::Store { .. } | MemOp::Rmw { .. } => {
                let lock = self.cfg.rmw_lock;
                let is_rmw = matches!(op, MemOp::Rmw { .. });
                if let Some(line) = self.array.get_mut(addr) {
                    if line.state.writable() {
                        // Silent E->M upgrade (Fig. 7 phase 2).
                        let done = t.max(line.locked_until);
                        line.state = LineState::Modified;
                        line.dirty = true;
                        if is_rmw {
                            line.locked_until = done + lock;
                        }
                        self.stats.hits += 1;
                        out.complete(done, req, HitLevel::Local);
                    } else {
                        // Shared: upgrade via RdOwn.
                        self.stats.misses += 1;
                        self.mshr_occupancy.record(occupancy);
                        vacant.insert(Mshr::open(&mut self.waiters, (req, op)));
                        self.send(t, MsgKind::RdOwn, addr, out);
                    }
                } else {
                    self.stats.misses += 1;
                    self.mshr_occupancy.record(occupancy);
                    vacant.insert(Mshr::open(&mut self.waiters, (req, op)));
                    self.send(t, MsgKind::RdOwn, addr, out);
                }
            }
        }
    }

    /// Handles a message from the home agent.
    pub(crate) fn handle_msg(
        &mut self,
        msg: Msg,
        level: Option<HitLevel>,
        now: Tick,
        out: &mut Sink<'_>,
    ) {
        match msg.kind {
            MsgKind::SnpInv => self.snoop_inv(msg, now, out),
            MsgKind::SnpData => self.snoop_data(msg, now, out),
            MsgKind::DataGoE => self.fill(msg.addr, LineState::Exclusive, level, now, out),
            MsgKind::DataGoS => self.fill(msg.addr, LineState::Shared, level, now, out),
            MsgKind::GoUpgrade => self.upgrade_grant(msg.addr, level, now, out),
            MsgKind::GoNcp => self.ncp_done(msg.addr, level, now, out),
            MsgKind::GoWritePull => {
                if self.evictions.contains_key(&msg.addr.raw()) {
                    self.stats.writebacks += 1;
                    self.send(now, MsgKind::WbData, msg.addr, out);
                }
                // Stale write pull (eviction raced with an invalidating
                // snoop): nothing to send; the home falls back on the
                // snoop-supplied data and will GoI us.
            }
            MsgKind::GoI => {
                self.evictions.remove(&msg.addr.raw());
            }
            other => panic!("cache {} received unexpected {:?}", self.id, other),
        }
    }

    fn snoop_inv(&mut self, msg: Msg, now: Tick, out: &mut Sink<'_>) {
        self.stats.snoops += 1;
        if let Some(line) = self.array.peek(msg.addr) {
            if line.locked_until > now {
                self.stats.deferred_snoops += 1;
                out.deliver(line.locked_until, self.id, msg);
                return;
            }
        }
        let t = now + self.cfg.lookup_latency;
        let dirty = if let Some(line) = self.array.remove(msg.addr) {
            line.dirty
        } else if let Some(ev) = self.evictions.get(&msg.addr.raw()) {
            // The line sits in the writeback buffer: hand its data over via
            // the snoop response; the pending DirtyEvict becomes stale.
            ev.dirty
        } else {
            false
        };
        self.send(t, MsgKind::SnpRespInv { dirty }, msg.addr, out);
    }

    fn snoop_data(&mut self, msg: Msg, now: Tick, out: &mut Sink<'_>) {
        self.stats.snoops += 1;
        if let Some(line) = self.array.peek(msg.addr) {
            if line.locked_until > now {
                self.stats.deferred_snoops += 1;
                out.deliver(line.locked_until, self.id, msg);
                return;
            }
        }
        let t = now + self.cfg.lookup_latency;
        if let Some(line) = self.array.get_mut(msg.addr) {
            let was_dirty = line.dirty;
            line.state = LineState::Shared;
            line.dirty = false;
            self.send(t, MsgKind::SnpRespDown { dirty: was_dirty }, msg.addr, out);
        } else {
            // The line already left this cache (it sits in the writeback
            // buffer or was silently clean-evicted): answer with an
            // *invalidated* response so the home does not record us as a
            // sharer of a line we no longer hold.
            let dirty = self
                .evictions
                .get(&msg.addr.raw())
                .map(|ev| ev.dirty)
                .unwrap_or(false);
            self.send(t, MsgKind::SnpRespInv { dirty }, msg.addr, out);
        }
    }

    fn fill(
        &mut self,
        addr: simcxl_mem::PhysAddr,
        state: LineState,
        level: Option<HitLevel>,
        now: Tick,
        out: &mut Sink<'_>,
    ) {
        let level = level.expect("data grant carries a hit level");
        let key = addr.raw();
        let mshr = self
            .mshrs
            .remove(&key)
            .unwrap_or_else(|| panic!("fill for {addr} without MSHR"));
        if self.array.peek(addr).is_none() {
            if let Some(victim) = self.array.insert(addr, state) {
                self.start_eviction(victim, now, out);
            }
        } else {
            let line = self.array.get_mut(addr).expect("resident");
            line.state = state;
        }
        self.drain_waiting(mshr.waiting, addr, level, now, out);
    }

    fn upgrade_grant(
        &mut self,
        addr: simcxl_mem::PhysAddr,
        level: Option<HitLevel>,
        now: Tick,
        out: &mut Sink<'_>,
    ) {
        let level = level.unwrap_or(HitLevel::Llc);
        let mshr = self
            .mshrs
            .remove(&addr.raw())
            .unwrap_or_else(|| panic!("upgrade grant for {addr} without MSHR"));
        if let Some(line) = self.array.get_mut(addr) {
            line.state = LineState::Exclusive;
        } else {
            // Our shared copy was snooped away while the upgrade was in
            // flight; the home should have sent data instead, but be
            // permissive and install the line.
            if let Some(victim) = self.array.insert(addr, LineState::Exclusive) {
                self.start_eviction(victim, now, out);
            }
        }
        self.drain_waiting(mshr.waiting, addr, level, now, out);
    }

    fn ncp_done(
        &mut self,
        addr: simcxl_mem::PhysAddr,
        level: Option<HitLevel>,
        now: Tick,
        out: &mut Sink<'_>,
    ) {
        let mut mshr = self
            .mshrs
            .remove(&addr.raw())
            .unwrap_or_else(|| panic!("GoNcp for {addr} without MSHR"));
        debug_assert!(
            matches!(
                self.waiters.front(&mshr.waiting),
                Some((_, MemOp::NcPush { .. }))
            ),
            "GoNcp for {addr} answers a fill MSHR"
        );
        let level = level.unwrap_or(HitLevel::Llc);
        let mut done = now;
        while let Some((req, _op)) = self.waiters.pop_front(&mut mshr.waiting) {
            out.complete(done, req, level);
            done += self.cfg.accept_gap;
        }
    }

    fn drain_waiting(
        &mut self,
        mut waiting: PendingList,
        addr: simcxl_mem::PhysAddr,
        level: HitLevel,
        now: Tick,
        out: &mut Sink<'_>,
    ) {
        let mut t = now;
        while let Some((req, op)) = self.waiters.pop_front(&mut waiting) {
            let line = self
                .array
                .get_mut(addr)
                .expect("line resident during drain");
            match op {
                MemOp::Load | MemOp::Prefetch => {
                    out.complete(t, req, level);
                }
                MemOp::NcPush { .. } => {
                    // An NC-P queued behind a fill: reissue it, and
                    // everything behind it, as fresh requests so it
                    // follows the normal push path.
                    self.handle_request(req, op, addr, t, out);
                    while let Some((r, o)) = self.waiters.pop_front(&mut waiting) {
                        self.handle_request(r, o, addr, t, out);
                    }
                    return;
                }
                MemOp::Store { .. } | MemOp::Rmw { .. } => {
                    if line.state.writable() {
                        line.state = LineState::Modified;
                        line.dirty = true;
                        if matches!(op, MemOp::Rmw { .. }) {
                            line.locked_until = t + self.cfg.rmw_lock;
                        }
                        out.complete(t, req, level);
                    } else {
                        // Only S was granted but this op needs ownership:
                        // put it back and upgrade.
                        self.waiters.push_front(&mut waiting, (req, op));
                        self.mshrs.insert(addr.raw(), Mshr { waiting });
                        self.send(t, MsgKind::RdOwn, addr, out);
                        return;
                    }
                }
            }
            t += self.cfg.accept_gap;
        }
    }

    fn start_eviction(&mut self, victim: Line, now: Tick, out: &mut Sink<'_>) {
        if self.mshrs.contains_key(&victim.addr.raw()) {
            // The victim's own upgrade is in flight: a resident line
            // with an MSHR is always a clean S copy awaiting RdOwn
            // ownership. Notifying the home would erase the directory
            // entry the in-flight transaction rewrites (the home would
            // drop the requester it just recorded as owner), so drop
            // the copy silently; the grant re-installs the line through
            // the permissive path in `upgrade_grant`.
            debug_assert!(
                victim.state == LineState::Shared && !victim.dirty,
                "MSHR-pinned victim must be a clean shared copy"
            );
            return;
        }
        if victim.dirty || victim.state == LineState::Modified {
            self.evictions
                .insert(victim.addr.raw(), EvictState { dirty: true });
            self.send(now, MsgKind::DirtyEvict, victim.addr, out);
        } else {
            self.send(now, MsgKind::CleanEvict, victim.addr, out);
        }
    }

    /// Lines currently resident (for invariant checking).
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = &Line> {
        self.array.iter()
    }

    /// Whether the agent has any outstanding transactions.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.mshrs.is_empty() && self.evictions.is_empty()
    }
}
