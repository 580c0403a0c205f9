//! Event-loop hot-path suite: a mixed coherence stress workload plus
//! the machine-readable `BENCH_hotpath.json` report.
//!
//! The stress workload drives [`simcxl_coherence::ProtocolEngine`] through
//! the exact code paths every figure regenerator exercises — event-queue
//! push/pop, directory/MSHR map lookups, request-table churn, NUMA range
//! classification, snoop fan-out — at a scale where the event loop itself
//! dominates. The report holds only what the code determines (event
//! counts, checksums, profile and per-home counters); host time is the
//! separate `perfbench` package's job, whose headline metric is
//! `norm_wall_s`.
//!
//! Four variants (see the README for the full `simcxl-hotpath/v9`
//! schema): `stress` (single home, wave driver — its checksum is the
//! repo's oldest determinism anchor), `multihome` (the same waves over a
//! four-home line interleave), `multihome_weighted` (the waves over a
//! skewed 4:2:1:1 weighted interleave, reporting how closely per-home
//! directory traffic tracks the weights as `balance_error`), and
//! `stress_upfront` (the multihome workload as one dense upfront
//! batch). Every variant embeds a `profile` block — the engine's
//! always-on hot-path counters (busy-hit/fast-path/general split plus
//! depth histograms).

use crate::report::{Json, Suite};
use sim_core::{SimRng, Tick};
use simcxl_coherence::prelude::*;
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};

/// The pinned full-mode `stress` checksum: stable since the
/// calendar-queue engine landed; behavior-preserving changes must
/// reproduce it bit-for-bit ([`Suite::check_committed`] gates CI on
/// it).
pub(crate) const PINNED_STRESS_CHECKSUM_FULL: u64 = 0x8b604ff32e480de3;
/// The pinned quick-mode (unit-test) `stress` checksum — the same
/// stream anchor at the reduced request count, also pinned by
/// `n1_reproduces_pre_refactor_completion_stream`.
pub(crate) const PINNED_STRESS_CHECKSUM_QUICK: u64 = 0xb1e18caf05b4d6a4;

/// The pinned full-mode checksum of the dense upfront batch — the
/// `stress_upfront` entry's stream (the whole multihome workload issued
/// ~1 ns apart and drained in one `run_to_quiescence`). This is the
/// stream the dense-contention hot path (pending slab, snoop batching)
/// reshapes internally, so it is pinned separately from the
/// wave-driven `stress` anchor: [`SUITE`]'s pins cover both.
pub(crate) const PINNED_UPFRONT_CHECKSUM_FULL: u64 = 0x09b49727d30b6680;
/// The pinned quick-mode upfront-batch checksum (also pinned by
/// `upfront_quick_stress_checksum_pinned`).
pub(crate) const PINNED_UPFRONT_CHECKSUM_QUICK: u64 = 0x0c896c524bd5265a;

/// Parameters of the stress workload.
#[derive(Debug, Clone)]
pub(crate) struct StressConfig {
    /// Number of peer caches (half CPU-L1-like, half HMC-like).
    pub caches: usize,
    /// Total external requests issued.
    pub requests: usize,
    /// Heavily contended lines (snoop + pending-queue pressure).
    pub hot_lines: u64,
    /// Lightly shared lines (directory + MSHR breadth).
    pub cold_lines: u64,
    /// Requests issued per wave before draining the queue.
    pub wave: usize,
    /// RNG seed; the workload is fully deterministic given the config.
    pub seed: u64,
    /// Home agents the directory is line-interleaved across (1 = the
    /// monolithic single-home engine the `stress` checksum anchors).
    pub homes: usize,
    /// Per-home stripe weights for the weighted-interleave variant
    /// (`None` = uniform; `Some` overrides `homes` with its length and
    /// routes through [`Topology::weighted`] at cacheline stride).
    pub weights: Option<Vec<u64>>,
}

impl StressConfig {
    /// The reference configuration the acceptance numbers use.
    pub(crate) fn full() -> Self {
        StressConfig {
            caches: 8,
            requests: 400_000,
            hot_lines: 16,
            cold_lines: 16_384,
            wave: 256,
            seed: 0xC0FFEE,
            homes: 1,
            weights: None,
        }
    }

    /// A sub-second configuration for unit tests.
    pub(crate) fn quick() -> Self {
        StressConfig {
            requests: 20_000,
            ..Self::full()
        }
    }

    /// The multi-home stress variant: the same workload with the
    /// directory line-interleaved across four home agents (two host
    /// sockets + two expander-side shards is the smallest topology the
    /// paper's multi-device figures need).
    pub(crate) fn multihome() -> Self {
        StressConfig {
            homes: 4,
            ..Self::full()
        }
    }

    /// Sub-second multi-home configuration for unit tests.
    pub(crate) fn multihome_quick() -> Self {
        StressConfig {
            homes: 4,
            ..Self::quick()
        }
    }

    /// The stripe weights of the weighted stress variant: one big host
    /// home next to a half-size and two quarter-size pools — the
    /// acceptance shape for capacity-proportional balance.
    pub(crate) const WEIGHTED_WEIGHTS: [u64; 4] = [4, 2, 1, 1];

    /// The weighted-interleave stress variant: the same wave workload
    /// with the directory striped 4:2:1:1 across four homes at
    /// cacheline stride. The hot set is widened from 16 to 32 lines so
    /// it spans the full 8-stripe repeat pattern (16 lines cover only
    /// half the pattern, which would skew the hot 20% of traffic away
    /// from the weights regardless of the interleave's quality).
    pub(crate) fn multihome_weighted() -> Self {
        StressConfig {
            homes: 4,
            hot_lines: 32,
            weights: Some(Self::WEIGHTED_WEIGHTS.to_vec()),
            ..Self::full()
        }
    }

    /// Sub-second weighted configuration for unit tests.
    pub(crate) fn multihome_weighted_quick() -> Self {
        StressConfig {
            requests: 20_000,
            ..Self::multihome_weighted()
        }
    }
}

/// Outcome of one stress run.
#[derive(Debug, Clone)]
pub(crate) struct StressResult {
    /// Events dispatched by the engine.
    pub events: u64,
    /// External requests completed.
    pub completions: u64,
    /// Order-sensitive digest of the completion stream; identical runs
    /// must produce identical checksums (determinism canary).
    pub checksum: u64,
    /// Per-home directory statistics snapshot (length 1 for the
    /// single-home configuration), carrying the topology's load weights
    /// alongside the counters. Exposes interleave imbalance via
    /// [`HomeStatsView::balance_error`].
    pub per_home: HomeStatsView,
    /// Always-on hot-path profile counters aggregated over every home
    /// agent (plus cache MSHR occupancy), snapshotted at run end.
    pub profile: simcxl_coherence::EngineProfile,
}

fn build_engine(cfg: &StressConfig) -> (ProtocolEngine, Vec<AgentId>) {
    // Four 1 GB NUMA ranges with distinct extra latencies so every memory
    // access walks the NUMA classifier.
    let mut mi = MemoryInterface::new();
    for node in 0..4u64 {
        mi.add_memory(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
    }
    let mut eng = ProtocolEngine::builder()
        .memory(mi)
        .topology(if let Some(w) = &cfg.weights {
            Topology::weighted(w, simcxl_mem::CACHELINE_BYTES)
        } else if cfg.homes == 1 {
            Topology::single()
        } else {
            Topology::line_interleaved(cfg.homes)
        })
        .build();
    for node in 1..4u64 {
        eng.add_numa_extra(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            Tick::from_ns(40 * node),
        );
    }
    let mut agents = Vec::new();
    for i in 0..cfg.caches {
        // Deliberately small caches: capacity evictions keep the
        // writeback/eviction tables churning.
        let c = if i % 2 == 0 {
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
        };
        agents.push(eng.add_cache(c));
    }
    (eng, agents)
}

fn pick_addr(rng: &mut SimRng, cfg: &StressConfig) -> PhysAddr {
    // 20% of accesses hammer the hot set (peer snoops, replay queues);
    // the rest spread over the cold set across all four NUMA nodes.
    let line = if rng.below(5) == 0 {
        rng.below(cfg.hot_lines)
    } else {
        cfg.hot_lines + rng.below(cfg.cold_lines)
    };
    // Stripe lines round-robin over the four 1 GB NUMA nodes.
    PhysAddr::new(((line % 4) << 30) | ((line / 4) * 64))
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

/// Folds one completion into the order-sensitive stream digest — the
/// single definition of the determinism canary every stress variant
/// (and every pinned checksum) uses.
fn fold_checksum(acc: u64, c: &Completion) -> u64 {
    acc.rotate_left(7)
        .wrapping_add(c.value ^ c.done.as_ps() ^ c.addr.raw())
}

/// The in-process gate on the full-mode `multihome_weighted` entry:
/// [`SUITE`] refuses to produce a full report whose
/// [`HomeStatsView::balance_error`] exceeds this, so the committed
/// number cannot silently regress (quick mode is exempt — 20k requests
/// carry statistical noise; its unit test bounds it separately).
pub(crate) const BALANCE_ERROR_GATE: f64 = 0.05;

/// Runs the stress workload in waves and reports its counters.
pub(crate) fn stress(cfg: &StressConfig) -> StressResult {
    let (mut eng, agents) = build_engine(cfg);
    let mut rng = SimRng::new(cfg.seed);
    let mut issued = 0usize;
    let mut completions = 0u64;
    let mut checksum = 0u64;
    while issued < cfg.requests {
        // Issue one wave spread over a 4 us window, then drain it. The
        // interleaving keeps a realistic queue depth: follow-on protocol
        // events mix with not-yet-issued external requests.
        let window = Tick::from_us(4);
        let base = eng.now();
        let n = cfg.wave.min(cfg.requests - issued);
        for _ in 0..n {
            let agent = agents[rng.below(agents.len() as u64) as usize];
            let at = base + Tick::from_ps(rng.below(window.as_ps()));
            eng.issue(agent, pick_op(&mut rng), pick_addr(&mut rng, cfg), at);
        }
        issued += n;
        for c in eng.run_until(base + window) {
            completions += 1;
            checksum = fold_checksum(checksum, &c);
        }
    }
    for c in eng.run_to_quiescence() {
        completions += 1;
        checksum = fold_checksum(checksum, &c);
    }
    eng.verify_invariants();
    StressResult {
        events: eng.events_dispatched(),
        completions,
        checksum,
        per_home: eng.home_stats_view(),
        profile: eng.profile(),
    }
}

/// Issues the whole workload up front — `requests` mixed operations
/// spaced ~1 ns apart — and drains it with a single `run_to_quiescence`.
///
/// The dense batch keeps far more requests in flight per cache than
/// the wave driver (MSHR occupancy mean ~48 vs ~3), so it exercises
/// deep pending lists, snoop batching and the far-future queue tier
/// harder.
pub(crate) fn stress_upfront(cfg: &StressConfig) -> StressResult {
    let (mut eng, agents) = build_engine(cfg);
    let mut rng = SimRng::new(cfg.seed);
    for i in 0..cfg.requests {
        let agent = agents[rng.below(agents.len() as u64) as usize];
        let op = pick_op(&mut rng);
        let addr = pick_addr(&mut rng, cfg);
        let at = Tick::from_ns(i as u64) + Tick::from_ps(rng.below(999));
        eng.issue(agent, op, addr, at);
    }
    let mut completions = 0u64;
    let mut checksum = 0u64;
    for c in eng.run_to_quiescence() {
        completions += 1;
        checksum = fold_checksum(checksum, &c);
    }
    eng.verify_invariants();
    StressResult {
        events: eng.events_dispatched(),
        completions,
        checksum,
        per_home: eng.home_stats_view(),
        profile: eng.profile(),
    }
}

/// Runs a stress driver twice and asserts that the two runs' report
/// sections are equal in every field, not just the checksum.
fn run_twice(cfg: &StressConfig, run: fn(&StressConfig) -> StressResult) -> StressResult {
    let first = run(cfg);
    let second = run(cfg);
    assert_eq!(
        stress_json(cfg, &first),
        stress_json(cfg, &second),
        "stress workload is nondeterministic"
    );
    first
}

/// The `simcxl-hotpath/v9` suite: the four stress variants, pinning
/// the wave-driven `stress` and the dense upfront-batch
/// `stress_upfront` streams.
pub(crate) const SUITE: Suite = Suite {
    name: "hotpath",
    schema: "simcxl-hotpath/v9",
    file: "BENCH_hotpath.json",
    run,
    pins: &[
        (
            "stress",
            PINNED_STRESS_CHECKSUM_FULL,
            PINNED_STRESS_CHECKSUM_QUICK,
        ),
        (
            "stress_upfront",
            PINNED_UPFRONT_CHECKSUM_FULL,
            PINNED_UPFRONT_CHECKSUM_QUICK,
        ),
    ],
    columns: &[
        ("events", "events"),
        ("fast path rate", "profile.fast_path_rate"),
        ("balance err", "balance_error"),
        ("checksum", "checksum"),
    ],
};

// The `profile` block: the engine's always-on hot-path counters for
// this run (see README for field-by-field docs). Histograms are
// summarized as count/mean/max — the committed numbers a perf PR argues
// from; the full bucket vectors stay available via the library API.
fn profile_json(p: &simcxl_coherence::EngineProfile) -> Json {
    let hist = |h: &simcxl_coherence::DepthHist| {
        Json::obj([
            ("count", h.count.into()),
            ("mean", Json::fixed(h.mean(), 2)),
            ("max", h.max.into()),
        ])
    };
    Json::obj([
        ("requests", p.requests().into()),
        ("busy_hits", p.busy_hits.into()),
        ("fast_path", p.fast_path.into()),
        ("general_path", p.general_path.into()),
        ("busy_hit_rate", Json::fixed(p.busy_hit_rate(), 4)),
        ("fast_path_rate", Json::fixed(p.fast_path_rate(), 4)),
        ("pending_depth", hist(&p.pending_depth)),
        ("replay_chain", hist(&p.replay_chain)),
        ("snoop_fanout", hist(&p.snoop_fanout)),
        ("mshr_occupancy", hist(&p.mshr_occupancy)),
    ])
}

/// One variant's section. The weighted variant adds its stripe
/// `weights` and `balance_error`; per-home directory counters make
/// interleave imbalance visible at a glance.
fn stress_json(cfg: &StressConfig, r: &StressResult) -> Json {
    let mut m = vec![("caches", cfg.caches.into()), ("homes", cfg.homes.into())];
    if let Some(w) = &cfg.weights {
        m.push(("weights", w.as_slice().into()));
    }
    m.extend([
        ("requests", cfg.requests.into()),
        ("events", r.events.into()),
        ("completions", r.completions.into()),
        ("checksum", Json::hex(r.checksum)),
    ]);
    if cfg.weights.is_some() {
        m.push(("balance_error", Json::fixed(r.per_home.balance_error(), 4)));
    }
    let per_home = r.per_home.iter().map(|(h, s)| {
        Json::obj([
            ("home", h.index().into()),
            ("requests", s.requests.into()),
            ("llc_hits", s.llc_hits.into()),
            ("mem_fetches", s.mem_fetches.into()),
            ("snoops_sent", s.snoops_sent.into()),
            ("write_pulls", s.write_pulls.into()),
            ("ncp_pushes", s.ncp_pushes.into()),
        ])
    });
    m.push(("profile", profile_json(&r.profile)));
    m.push(("per_home", Json::Arr(per_home.collect())));
    Json::obj(m)
}

/// Runs every variant (each twice, see [`run_twice`]); the report body
/// of [`SUITE`].
///
/// # Panics
///
/// Panics in full mode if the weighted variant's balance error exceeds
/// [`BALANCE_ERROR_GATE`], or if any variant's two runs disagree.
fn run(quick: bool) -> Json {
    let (cfg, mh_cfg, w_cfg) = if quick {
        (
            StressConfig::quick(),
            StressConfig::multihome_quick(),
            StressConfig::multihome_weighted_quick(),
        )
    } else {
        (
            StressConfig::full(),
            StressConfig::multihome(),
            StressConfig::multihome_weighted(),
        )
    };
    let r = run_twice(&cfg, stress);
    let mh = run_twice(&mh_cfg, stress);
    let wt = run_twice(&w_cfg, stress);
    if !quick {
        // The acceptance gate on the committed entry: the full-size
        // weighted run must track its weights or the report refuses to
        // exist.
        let err = wt.per_home.balance_error();
        assert!(
            err <= BALANCE_ERROR_GATE,
            "weighted stress balance_error {err:.4} exceeds the {BALANCE_ERROR_GATE} gate"
        );
    }
    let up = run_twice(&mh_cfg, stress_upfront);
    Json::obj([
        ("stress", stress_json(&cfg, &r)),
        ("multihome", stress_json(&mh_cfg, &mh)),
        ("multihome_weighted", stress_json(&w_cfg, &wt)),
        ("stress_upfront", stress_json(&mh_cfg, &up)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_is_deterministic() {
        let cfg = StressConfig {
            requests: 2_000,
            ..StressConfig::quick()
        };
        let a = stress(&cfg);
        let b = stress(&cfg);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.events, b.events);
        assert_eq!(a.completions, b.completions);
        assert!(a.completions >= cfg.requests.min(2_000) as u64);
    }

    #[test]
    fn multihome_stress_is_deterministic_and_spreads_load() {
        let cfg = StressConfig {
            requests: 2_000,
            ..StressConfig::multihome_quick()
        };
        let a = stress(&cfg);
        let b = stress(&cfg);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.events, b.events);
        assert_eq!(a.per_home.len(), 4);
        // Line interleave must put directory traffic on every shard.
        for (h, s) in a.per_home.iter() {
            assert!(s.requests > 0, "home {h} saw no requests: {:?}", a.per_home);
        }
    }

    /// The N=1 topology must reproduce the completion stream of the
    /// pre-multi-home engine bit-for-bit: the checksum and event count
    /// below were recorded with `StressConfig::quick()` on the
    /// single-`HomeAgent` engine immediately before the topology
    /// refactor (PR 2's calendar-queue engine, commit `9ca7236`).
    #[test]
    fn n1_reproduces_pre_refactor_completion_stream() {
        let r = stress(&StressConfig::quick());
        assert_eq!(
            r.checksum, PINNED_STRESS_CHECKSUM_QUICK,
            "completion stream diverged"
        );
        assert_eq!(r.events, 139_624);
        assert_eq!(r.completions, 20_000);
    }

    /// The v9 shape of the quick report (shared with the generic suite
    /// check, so it is not regenerated here).
    #[test]
    fn report_json_is_well_formed() {
        let report = crate::report::tests::quick_report(&SUITE);
        for gone in ["baseline", "speedup_vs_baseline", "figures"] {
            assert!(report.get(gone).is_none(), "v8/v9 dropped {gone}");
        }
        let homes = [
            ("stress", 1),
            ("multihome", 4),
            ("multihome_weighted", 4),
            ("stress_upfront", 4),
        ];
        for (variant, n) in homes {
            let sec = report.get(variant).expect("variant section");
            assert!(sec.path("profile.fast_path_rate").is_some(), "{variant}");
            assert!(
                matches!(sec.get("per_home"), Some(Json::Arr(h)) if h.len() == n),
                "{variant}"
            );
        }
        let weights: &[u64] = &StressConfig::WEIGHTED_WEIGHTS;
        assert_eq!(
            report.path("multihome_weighted.weights"),
            Some(&Json::from(weights))
        );
    }

    #[test]
    fn weighted_stress_is_deterministic_and_tracks_weights() {
        let cfg = StressConfig::multihome_weighted_quick();
        let a = stress(&cfg);
        let b = stress(&cfg);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.events, b.events);
        assert_eq!(a.per_home.len(), 4);
        let err = a.per_home.balance_error();
        // The full-size run is gated at 0.05 in the committed JSON; the
        // 20k-request quick run gets statistical slack.
        assert!(
            err <= 0.10,
            "weighted balance error {err} (per_home {:?})",
            a.per_home
        );
    }

    #[test]
    fn checksum_drift_is_detected() {
        crate::report::tests::check_suite(&SUITE);
    }

    /// Pins the quick multihome upfront-batch stream — the committed
    /// regression anchor for the dense-contention hot path (the
    /// full-size `BENCH_hotpath.json` entry carries the full pin).
    #[test]
    fn upfront_quick_stress_checksum_pinned() {
        let r = stress_upfront(&StressConfig::multihome_quick());
        assert_eq!(
            r.checksum, PINNED_UPFRONT_CHECKSUM_QUICK,
            "completion stream diverged"
        );
        assert_eq!(r.events, 130_774);
        assert_eq!(r.completions, 20_000);
    }
}
