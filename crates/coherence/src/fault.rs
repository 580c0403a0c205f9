//! Deterministic, seeded fault injection for the protocol engine.
//!
//! A [`FaultPlan`] is a list of timed, composable fault events — link
//! degradation windows, slow or fully stalled memory ports — that the
//! engine consults on its hot paths. The central design constraint is
//! that every fault decision must be a *pure function* of the fault
//! seed and the affected message's own coordinates (endpoint, line
//! address, and the active window), never of processing order:
//!
//! * the same seed and plan reproduce bit-identical completion streams
//!   on every rerun;
//! * delivery stays FIFO per (channel, line). The coherence protocol
//!   relies on send order for messages about one line on one channel;
//!   a retry penalty that varied per transfer could let a later send
//!   overtake an earlier one and corrupt the directory. So within a
//!   window the penalty is *constant* for a given (rule, channel,
//!   line), and when a window closes the penalty ramps down linearly
//!   (residual backlog behind the last replays) instead of dropping to
//!   zero — delivery time is a monotone function of send time.
//!
//! Injection hooks sit at the two places timing is decided:
//! cache→home and home→cache message delivery (link retry/replay with
//! bounded exponential backoff), and memory-port service start (latency
//! inflation and stall-until-window-end with a starvation watchdog).
//! Requests delayed by a stall are queued behind the window, not lost;
//! the DRAM model then serializes them as usual.
//!
//! The drain/hot-remove path is separate: [`ProtocolEngine::rehome`]
//! re-points the directory topology at a quiescent boundary and
//! migrates the affected directory entries, reported via
//! [`RehomeStats`].
//!
//! [`ProtocolEngine::rehome`]: crate::ProtocolEngine::rehome

use crate::msg::AgentId;
use crate::topology::HomeId;
use sim_core::{mix64, Tick, Window};
use simcxl_mem::PhysAddr;
use std::ops::AddAssign;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flit corruption on the cache↔home links (requests up,
    /// snoops/grants down): every transfer is retried
    /// `1..=max_retries` times, each replay paying exponentially growing
    /// backoff (retry *k* waits `backoff * 2^(k-1)`, so a faulted
    /// transfer with `n` retries is delayed by `backoff * (2^n - 1)` in
    /// total). The induced delivery delay extends the home agent's
    /// per-line serialization occupancy, which is how retry storms
    /// back-pressure the rest of the fabric. The retry count is drawn
    /// per (channel, line), not per transfer, so same-line traffic on a
    /// channel shifts uniformly and delivery order is preserved (see
    /// the module docs); after the window closes, affected transfers
    /// keep queuing behind the residual replay backlog, which drains
    /// at wire speed.
    LinkDegrade {
        /// Restrict to hops homed at this agent (`None`: all homes).
        home: Option<HomeId>,
        /// Upper bound on replays per faulted transfer (≥ 1).
        max_retries: u32,
        /// Backoff unit for the first replay.
        backoff: Tick,
    },
    /// A slow expander: every request serviced by this memory port
    /// while the window is open starts `extra` later (device-internal
    /// congestion, thermal throttling, ...).
    SlowMemPort {
        /// The home whose memory port is slow.
        port: HomeId,
        /// Added service-start latency.
        extra: Tick,
    },
    /// A stalled expander: requests reaching this memory port while the
    /// window is open queue (they are not lost) and start service only
    /// when the window closes. A watchdog flags any request that waited
    /// longer than `watchdog` as starved.
    StallMemPort {
        /// The home whose memory port stalls.
        port: HomeId,
        /// Waits longer than this are counted as starvation.
        watchdog: Tick,
    },
}

/// A deterministic, seeded schedule of fault events.
///
/// Events compose: overlapping link windows all sample independently
/// and the strongest penalty wins (retry storms don't stack — the
/// slowest path dominates, which also keeps per-channel delivery
/// monotone where residual ramps overlap). The seed decorrelates the
/// sampling of independent events and plans; two plans with different
/// seeds degrade different transfers.
///
/// ```
/// use sim_core::Tick;
/// use simcxl_coherence::fault::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(7).with(
///     Tick::from_us(10),
///     Tick::from_us(20),
///     FaultKind::LinkDegrade {
///         home: None,
///         max_retries: 3,
///         backoff: Tick::from_ns(50),
///     },
/// );
/// let engine = simcxl_coherence::ProtocolEngine::builder().fault_plan(plan).build();
/// assert!(engine.fault_stats().is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    link: Vec<LinkRule>,
    slow: Vec<SlowRule>,
    stall: Vec<StallRule>,
}

impl FaultPlan {
    /// An empty plan with the given sampling seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds `kind` active over `[from, until)` and returns the plan
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics on an empty window or degenerate parameters (zero
    /// `max_retries` or more than 16 — the exponential
    /// backoff is bounded — zero `backoff`/`extra`/`watchdog`).
    pub fn with(mut self, from: Tick, until: Tick, kind: FaultKind) -> Self {
        let window = Window::new(from, until);
        match kind {
            FaultKind::LinkDegrade {
                home,
                max_retries,
                backoff,
            } => {
                assert!(
                    (1..=16).contains(&max_retries),
                    "max_retries must be in 1..=16, got {max_retries}"
                );
                assert!(backoff > Tick::ZERO, "backoff must be nonzero");
                self.link.push(LinkRule {
                    window,
                    home,
                    max_retries,
                    backoff,
                });
            }
            FaultKind::SlowMemPort { port, extra } => {
                assert!(extra > Tick::ZERO, "slow-port extra must be nonzero");
                self.slow.push(SlowRule {
                    window,
                    port,
                    extra,
                });
            }
            FaultKind::StallMemPort { port, watchdog } => {
                assert!(watchdog > Tick::ZERO, "watchdog must be nonzero");
                self.stall.push(StallRule {
                    window,
                    port,
                    watchdog,
                });
            }
        }
        self
    }

    /// Whether the plan schedules anything at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.link.is_empty() && self.slow.is_empty() && self.stall.is_empty()
    }

    /// The largest home/port index any event names, for validation
    /// against the engine's home count.
    pub(crate) fn max_home(&self) -> Option<usize> {
        let link = self.link.iter().filter_map(|r| r.home);
        let slow = self.slow.iter().map(|r| r.port);
        let stall = self.stall.iter().map(|r| r.port);
        link.chain(slow).chain(stall).map(HomeId::index).max()
    }

    /// Retry count and delivery penalty for a transfer taking `hop`
    /// that would arrive at `at`, or `None` if it sails through. The
    /// penalty size is pure in `(seed, rule, hop, addr)` — constant
    /// over a rule's window so same-line transfers on a channel never
    /// reorder — and `at` only selects the phase: full penalty inside
    /// the window, a linear residual-backlog ramp after it (reported
    /// with `0` retries: the transfer queued behind replays without
    /// being replayed itself), nothing before. Overlapping rules take
    /// the max, so `at + penalty` is monotone in `at` per (channel,
    /// line) even across window edges.
    pub(crate) fn link_penalty(&self, hop: Hop, at: Tick, addr: PhysAddr) -> Option<(u32, Tick)> {
        let mut best: Option<(u32, Tick)> = None;
        for (i, r) in self.link.iter().enumerate() {
            if at < r.window.from || r.home.is_some_and(|h| h != hop.home()) {
                continue;
            }
            let digest = mix64(
                self.seed
                    .wrapping_add(mix64(hop.salt() ^ ((i as u64) << 40)))
                    .wrapping_add(addr.line().raw()),
            );
            let n = 1 + ((digest >> 32) % r.max_retries as u64) as u32;
            let full = r.backoff * ((1u64 << n) - 1);
            let (retries, penalty) = if r.window.contains(at) {
                (n, full)
            } else {
                // Past the window: the replay backlog drains at wire
                // speed, delaying stragglers to the same horizon the
                // last in-window transfer was pushed to.
                let horizon = r.window.until + full;
                if horizon <= at {
                    continue;
                }
                (0, horizon - at)
            };
            if best.is_none_or(|(_, p)| penalty > p) {
                best = Some((retries, penalty));
            }
        }
        best
    }

    /// Added service-start latency at `port` for a request arriving at
    /// `at`: the max over open slow windows, with the same trailing
    /// residual ramp as [`link_penalty`](Self::link_penalty) so service
    /// starts stay monotone across window edges.
    pub(crate) fn slow_extra(&self, port: HomeId, at: Tick) -> Tick {
        let mut extra = Tick::ZERO;
        for r in &self.slow {
            if r.port != port || at < r.window.from {
                continue;
            }
            let e = if r.window.contains(at) {
                r.extra
            } else {
                let horizon = r.window.until + r.extra;
                if horizon <= at {
                    continue;
                }
                horizon - at
            };
            extra = extra.max(e);
        }
        extra
    }

    /// If `port` is stalled at `at`: the release tick (latest matching
    /// window end) and the tightest watchdog bound among the matching
    /// windows.
    pub(crate) fn stall_until(&self, port: HomeId, at: Tick) -> Option<(Tick, Tick)> {
        let mut release: Option<Tick> = None;
        let mut watchdog = Tick::MAX;
        for r in &self.stall {
            if r.port == port && r.window.contains(at) {
                release = Some(release.map_or(r.window.until, |u| u.max(r.window.until)));
                watchdog = watchdog.min(r.watchdog);
            }
        }
        release.map(|u| (u, watchdog))
    }
}

/// A directed hop a message is about to take, as seen by the fault
/// sampler. Carries exactly the coordinates the decision may depend on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Hop {
    /// Cache request arriving at its home.
    CacheToHome {
        /// The requesting cache.
        from: AgentId,
        /// The home it targets.
        home: HomeId,
    },
    /// Home snoop/grant arriving at a cache.
    HomeToCache {
        /// The target cache.
        dst: AgentId,
        /// The sending home.
        home: HomeId,
    },
}

impl Hop {
    fn home(&self) -> HomeId {
        match *self {
            Hop::CacheToHome { home, .. } | Hop::HomeToCache { home, .. } => home,
        }
    }

    /// Direction-and-endpoint salt so the two hop kinds sample
    /// independent fault streams even at equal timestamps.
    fn salt(&self) -> u64 {
        match *self {
            Hop::CacheToHome { from, .. } => 0x1000 + from.index() as u64,
            Hop::HomeToCache { dst, .. } => 0x2000 + dst.index() as u64,
        }
    }
}

/// A link-degrade window, as [`FaultPlan::with`] files it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkRule {
    window: Window,
    home: Option<HomeId>,
    max_retries: u32,
    backoff: Tick,
}

/// A slow-port window, as [`FaultPlan::with`] files it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlowRule {
    window: Window,
    port: HomeId,
    extra: Tick,
}

/// A stall window, as [`FaultPlan::with`] files it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StallRule {
    window: Window,
    port: HomeId,
    watchdog: Tick,
}

/// Retry/backoff counters for the cache↔home links, surfaced through
/// [`FaultStatsView`] (mirroring how [`HomeStats`](crate::HomeStats)
/// surface through [`HomeStatsView`](crate::HomeStatsView)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultStats {
    /// Transfers that were replayed at least once (in-window faults;
    /// transfers merely delayed by the post-window residual backlog are
    /// not counted here).
    pub faulted: u64,
    /// Total replays across all faulted transfers.
    pub retries: u64,
    /// Total fault-induced delivery delay (replay backoff plus residual
    /// post-window backlog).
    pub backoff: Tick,
}

/// Slow/stall counters for one memory port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortFaultStats {
    /// Requests that started late due to a slow window.
    pub slowed: u64,
    /// Total slow-window latency added.
    pub slow_extra: Tick,
    /// Requests that queued behind a stall window.
    pub stalled: u64,
    /// Total time spent queued behind stall windows.
    pub stall_time: Tick,
    /// The single longest stall any request observed.
    pub max_stall: Tick,
    /// Requests whose stall exceeded the watchdog bound.
    pub starved: u64,
}

impl AddAssign for PortFaultStats {
    fn add_assign(&mut self, rhs: PortFaultStats) {
        self.slowed += rhs.slowed;
        self.slow_extra += rhs.slow_extra;
        self.stalled += rhs.stalled;
        self.stall_time += rhs.stall_time;
        self.max_stall = self.max_stall.max(rhs.max_stall);
        self.starved += rhs.starved;
    }
}

/// A point-in-time view of the engine's fault counters: aggregate link
/// retry/backoff totals plus per-memory-port slow/stall/starvation
/// counters, indexed by [`HomeId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStatsView {
    link: LinkFaultStats,
    ports: Vec<PortFaultStats>,
}

impl FaultStatsView {
    /// Aggregate link retry/backoff counters (both directions).
    pub fn link(&self) -> &LinkFaultStats {
        &self.link
    }

    /// Counters for one home's memory port.
    pub fn port(&self, home: HomeId) -> Option<&PortFaultStats> {
        self.ports.get(home.index())
    }

    /// Sum (and max, for `max_stall`) over all ports.
    pub fn port_total(&self) -> PortFaultStats {
        let mut total = PortFaultStats::default();
        for p in &self.ports {
            total += *p;
        }
        total
    }

    /// Whether any fault actually fired.
    pub fn any(&self) -> bool {
        self.link.faulted > 0 || self.ports.iter().any(|p| p.slowed + p.stalled > 0)
    }
}

/// Engine-side fault state: the plan plus the counters the hooks
/// update.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    pub(crate) stats: FaultStatsView,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, nhomes: usize) -> Self {
        FaultState {
            plan,
            stats: FaultStatsView {
                link: LinkFaultStats::default(),
                ports: vec![PortFaultStats::default(); nhomes],
            },
        }
    }

    /// Applies any link fault to a transfer that would arrive at `at`,
    /// returning the (possibly later) delivery tick.
    pub(crate) fn perturb_link(&mut self, hop: Hop, at: Tick, addr: PhysAddr) -> Tick {
        let Some((retries, penalty)) = self.plan.link_penalty(hop, at, addr) else {
            return at;
        };
        let stats = &mut self.stats.link;
        stats.faulted += u64::from(retries > 0);
        stats.retries += u64::from(retries);
        stats.backoff += penalty;
        at + penalty
    }

    /// Applies slow/stall windows to a memory-port request arriving at
    /// `at`, returning the adjusted service-start tick.
    pub(crate) fn perturb_mem_start(&mut self, port: HomeId, at: Tick) -> Tick {
        let mut start = at;
        let extra = self.plan.slow_extra(port, at);
        let p = &mut self.stats.ports[port.index()];
        if extra > Tick::ZERO {
            start += extra;
            p.slowed += 1;
            p.slow_extra += extra;
        }
        if let Some((until, watchdog)) = self.plan.stall_until(port, at) {
            if until > start {
                let wait = until - start;
                start = until;
                p.stalled += 1;
                p.stall_time += wait;
                p.max_stall = p.max_stall.max(wait);
                if wait > watchdog {
                    p.starved += 1;
                }
            }
        }
        start
    }
}

/// What [`ProtocolEngine::rehome`](crate::ProtocolEngine::rehome) did
/// to the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehomeStats {
    /// Directory entries migrated to a new home.
    pub moved: u64,
    /// Of those, entries with live peer copies (an owner or sharers) —
    /// the ones coherence correctness strictly required moving.
    pub with_peers: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrade(max_retries: u32) -> FaultKind {
        FaultKind::LinkDegrade {
            home: None,
            max_retries,
            backoff: Tick::from_ns(10),
        }
    }

    /// A request from cache 2 to `home`.
    fn up(home: HomeId) -> Hop {
        Hop::CacheToHome {
            from: AgentId(2),
            home,
        }
    }

    /// A snoop or grant from `home` to cache 3.
    fn down(home: HomeId) -> Hop {
        Hop::HomeToCache {
            dst: AgentId(3),
            home,
        }
    }

    #[test]
    fn penalty_is_pure_and_window_scoped() {
        let plan = FaultPlan::new(1).with(Tick::from_ns(100), Tick::from_ns(200), degrade(3));
        let at = Tick::from_ns(150);
        let addr = PhysAddr::new(0x40);
        let a = plan.link_penalty(up(HomeId(0)), at, addr);
        let b = plan.link_penalty(up(HomeId(0)), at, addr);
        assert_eq!(a, b, "same coordinates must sample identically");
        let (n, full) = a.expect("every transfer faults in-window");
        assert!(n >= 1);
        assert!(plan
            .link_penalty(up(HomeId(0)), Tick::from_ns(99), addr)
            .is_none());
        // The trailing edge ramps down (residual backlog, 0 retries)
        // instead of dropping to zero, so delivery stays monotone.
        assert_eq!(
            plan.link_penalty(up(HomeId(0)), Tick::from_ns(200), addr),
            Some((0, full))
        );
        assert!(plan
            .link_penalty(up(HomeId(0)), Tick::from_ns(200) + full, addr)
            .is_none());
    }

    #[test]
    fn delivery_is_fifo_per_channel_and_line() {
        // Send times straddling the window edges must arrive in send
        // order: the protocol's per-line channel ordering depends on it.
        let plan = FaultPlan::new(11).with(Tick::from_ns(100), Tick::from_ns(200), degrade(4));
        let addr = PhysAddr::new(0x1c0);
        let mut last = Tick::ZERO;
        for ns in 0..400u64 {
            let at = Tick::from_ns(ns);
            let deliver = match plan.link_penalty(up(HomeId(0)), at, addr) {
                Some((_, p)) => at + p,
                None => at,
            };
            assert!(
                deliver >= last,
                "delivery inverted at {ns}ns: {deliver} < {last}"
            );
            last = deliver;
        }
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let plan = FaultPlan::new(2).with(Tick::ZERO, Tick::from_us(1), degrade(4));
        for i in 0..256u64 {
            let (n, p) = plan
                .link_penalty(up(HomeId(0)), Tick::from_ns(i), PhysAddr::new(i * 64))
                .expect("every transfer faults in-window");
            assert!((1..=4).contains(&n));
            assert_eq!(p, Tick::from_ns(10) * ((1u64 << n) - 1));
        }
    }

    #[test]
    fn home_filter_restricts_scope() {
        let plan = FaultPlan::new(4).with(
            Tick::ZERO,
            Tick::from_us(1),
            FaultKind::LinkDegrade {
                home: Some(HomeId(1)),
                max_retries: 1,
                backoff: Tick::from_ns(5),
            },
        );
        let at = Tick::from_ns(10);
        let addr = PhysAddr::new(0x80);
        assert!(plan.link_penalty(up(HomeId(0)), at, addr).is_none());
        assert!(plan.link_penalty(up(HomeId(1)), at, addr).is_some());
    }

    /// Pins the sampled link penalties on a plan that interleaves every
    /// fault kind with two overlapping link rules, so a change to how
    /// rules are stored cannot shift the second rule's salt unnoticed.
    #[test]
    fn mixed_plan_link_penalties_are_pinned() {
        let plan = FaultPlan::new(9)
            .with(
                Tick::ZERO,
                Tick::from_ns(300),
                FaultKind::SlowMemPort {
                    port: HomeId(0),
                    extra: Tick::from_ns(5),
                },
            )
            .with(Tick::from_ns(100), Tick::from_ns(400), degrade(3))
            .with(
                Tick::from_ns(150),
                Tick::from_ns(250),
                FaultKind::StallMemPort {
                    port: HomeId(1),
                    watchdog: Tick::from_ns(20),
                },
            )
            .with(
                Tick::from_ns(200),
                Tick::from_ns(500),
                FaultKind::LinkDegrade {
                    home: Some(HomeId(1)),
                    max_retries: 4,
                    backoff: Tick::from_ns(7),
                },
            );
        let mut got = Vec::new();
        for home in [HomeId(0), HomeId(1)] {
            for hop in [up(home), down(home)] {
                for addr in [0x1c0, 0x2040] {
                    // Before, in the first window, in both, on the first
                    // ramp, in the second only, on the second ramp.
                    got.push([50, 150, 300, 405, 450, 505].map(|ns| {
                        plan.link_penalty(hop, Tick::from_ns(ns), PhysAddr::new(addr))
                            .map(|(n, p)| (n, p.as_ps()))
                    }));
                }
            }
        }
        // (retries, penalty in ps); rows run home 0 then 1, each up
        // then down, each at the two addresses.
        #[rustfmt::skip]
        let want = [
            [None,             Some((1, 10000)), Some((1, 10000)), Some((0, 5000)),  None,             None],
            [None,             Some((3, 70000)), Some((3, 70000)), Some((0, 65000)), Some((0, 20000)), None],
            [None,             Some((3, 70000)), Some((3, 70000)), Some((0, 65000)), Some((0, 20000)), None],
            [None,             Some((1, 10000)), Some((1, 10000)), Some((0, 5000)),  None,             None],
            [None,             Some((1, 10000)), Some((1, 10000)), Some((1, 7000)),  Some((1, 7000)),  Some((0, 2000))],
            [None,             Some((3, 70000)), Some((3, 70000)), Some((0, 65000)), Some((3, 49000)), Some((0, 44000))],
            [None,             Some((3, 70000)), Some((3, 70000)), Some((0, 65000)), Some((0, 20000)), Some((0, 2000))],
            [None,             Some((1, 10000)), Some((3, 49000)), Some((3, 49000)), Some((3, 49000)), Some((0, 44000))],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn slow_windows_take_max_and_stall_windows_release_at_end() {
        let port = HomeId(2);
        let plan = FaultPlan::new(5)
            .with(
                Tick::from_ns(0),
                Tick::from_ns(100),
                FaultKind::SlowMemPort {
                    port,
                    extra: Tick::from_ns(7),
                },
            )
            .with(
                Tick::from_ns(50),
                Tick::from_ns(100),
                FaultKind::SlowMemPort {
                    port,
                    extra: Tick::from_ns(3),
                },
            )
            .with(
                Tick::from_ns(200),
                Tick::from_ns(300),
                FaultKind::StallMemPort {
                    port,
                    watchdog: Tick::from_ns(40),
                },
            );
        assert_eq!(plan.slow_extra(port, Tick::from_ns(10)), Tick::from_ns(7));
        // Overlapping slow windows take the max, not the sum.
        assert_eq!(plan.slow_extra(port, Tick::from_ns(60)), Tick::from_ns(7));
        assert_eq!(plan.slow_extra(HomeId(0), Tick::from_ns(60)), Tick::ZERO);
        // Trailing residual: service start stays monotone at the edge.
        assert_eq!(plan.slow_extra(port, Tick::from_ns(103)), Tick::from_ns(4));
        assert_eq!(plan.slow_extra(port, Tick::from_ns(107)), Tick::ZERO);
        assert_eq!(
            plan.stall_until(port, Tick::from_ns(250)),
            Some((Tick::from_ns(300), Tick::from_ns(40)))
        );
        assert_eq!(plan.stall_until(port, Tick::from_ns(150)), None);
        assert_eq!(plan.stall_until(HomeId(0), Tick::from_ns(250)), None);
    }

    #[test]
    fn perturb_mem_start_counts_starvation() {
        let port = HomeId(0);
        let plan = FaultPlan::new(6).with(
            Tick::from_ns(0),
            Tick::from_ns(100),
            FaultKind::StallMemPort {
                port,
                watchdog: Tick::from_ns(30),
            },
        );
        let mut f = FaultState::new(plan, 1);
        // Arrives at 90: waits 10 (< watchdog), released at 100.
        assert_eq!(
            f.perturb_mem_start(port, Tick::from_ns(90)),
            Tick::from_ns(100)
        );
        // Arrives at 10: waits 90 (> watchdog) -> starved.
        assert_eq!(
            f.perturb_mem_start(port, Tick::from_ns(10)),
            Tick::from_ns(100)
        );
        let v = &f.stats;
        let p = v.port(port).unwrap();
        assert_eq!(p.stalled, 2);
        assert_eq!(p.starved, 1);
        assert_eq!(p.max_stall, Tick::from_ns(90));
        assert_eq!(p.stall_time, Tick::from_ns(100));
        assert!(v.any());
    }

    #[test]
    fn max_home_spans_all_event_kinds() {
        let plan = FaultPlan::new(0)
            .with(
                Tick::ZERO,
                Tick::from_ns(1),
                FaultKind::SlowMemPort {
                    port: HomeId(3),
                    extra: Tick::from_ns(1),
                },
            )
            .with(Tick::ZERO, Tick::from_ns(1), degrade(1));
        assert_eq!(plan.max_home(), Some(3));
        assert_eq!(FaultPlan::new(0).max_home(), None);
        assert!(FaultPlan::new(0).is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_backoff_rejected() {
        let _ = FaultPlan::new(0).with(
            Tick::ZERO,
            Tick::from_ns(1),
            FaultKind::LinkDegrade {
                home: None,
                max_retries: 1,
                backoff: Tick::ZERO,
            },
        );
    }

    #[test]
    #[should_panic]
    fn oversized_retry_bound_rejected() {
        let _ = FaultPlan::new(0).with(Tick::ZERO, Tick::from_ns(1), degrade(17));
    }
}
