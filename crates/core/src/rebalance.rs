//! Adaptive traffic-aware rebalancing: the `cohet`-level epoch driver
//! for the [`RebalanceController`] (ROADMAP item 3).
//!
//! Each [`RebalanceCase`] runs a multi-epoch workload on **one**
//! coherence engine built over a four-home weighted directory. An epoch
//! is a background scenario segment (open-loop GetPut over the whole
//! striped table) plus a driver-issued *hot sweep* of home-affine
//! tenant demand (see below). At each quiescent epoch
//! boundary the driver:
//!
//! 1. verifies the coherence invariants,
//! 2. reads the cumulative per-home request counters and hands them to
//!    the [`RebalanceController`] (armed through
//!    [`CohetSystemBuilder::rebalance`](crate::system::CohetSystemBuilder::rebalance)),
//! 3. when the controller moves the weights, charges the migration of
//!    the minimal changed line-set — every stripe whose home changes
//!    pays a metered `cohet-os` page move plus its PCIe wire
//!    serialization, exactly like the hot-remove drain in
//!    [`faults`](crate::faults) — and applies the remap with
//!    [`ProtocolEngine::rehome`](simcxl_coherence::ProtocolEngine::rehome).
//!
//! The same traffic replayed with the controller disabled gives the
//! static-weights baseline, so every outcome carries its own control:
//! [`RebalanceOutcome::assert_gates`] requires the adaptive run's
//! final-epoch balance error to sit under the convergence bound *and*
//! strictly below the static baseline's.
//!
//! # Why the hot demand is home-affine
//!
//! Stride-scheduling interleave is prefix-fair: spatially smooth
//! traffic is balanced under *any* weight vector, so nothing would ever
//! need adapting. Conversely, mass pinned to a few fixed stripes routes
//! through the pattern's combinatorics — tiny weight moves reshuffle
//! which home owns a given stripe, the controller's aggregate counters
//! cannot see why, and the closed loop has no stable fixed point to
//! find. The demonstrable rebalancing scenario is the one the paper's
//! capacity-weighted topology implies: per-home *demand*. Each hot
//! "tenant" has affinity to one home — its working set lives on lines
//! that home serves, and when a re-interleave moves those lines the
//! (charged) page migrations re-establish the affinity, so the tenant's
//! per-home demand `d` is independent of the weight vector. The
//! observed share is then `(1-f)·w/64 + f·d` (background tracks the
//! weights, hot mass doesn't), the controller's apportionment contracts
//! geometrically onto the unique fixed point `w = 64·d`, and the
//! per-epoch `max_delta` clamp just bounds the step — convergence is
//! monotone by construction, which is exactly what the benchmark
//! trajectory pins.

use crate::faults::split;
use crate::system::CohetSystem;
use crate::topo::TopologySpec;
use cohet_os::{migration, AccessKind, Accessor, Process, PAGE_SIZE};
use sim_core::{SimRng, Tick};
use simcxl_coherence::rebalance::{balance_error_of, moved_stripes};
use simcxl_coherence::{AgentId, CacheConfig, MemOp, RebalanceController, RebalanceSpec, Topology};
use simcxl_mem::{PhysAddr, WeightedInterleave};
use simcxl_pcie::{PcieLink, PcieLinkConfig};
use simcxl_workloads::scenario::{self, Arrival, MachineSpec, PhaseSpec, ScenarioSpec, Traffic};
use std::collections::HashMap;

/// Directory homes in every rebalance case.
const HOMES: usize = 4;
/// Interleave stripe — one OS page, so a re-homed stripe is one page
/// migration.
const STRIDE: u64 = PAGE_SIZE;
/// Stripes in the shared table. A multiple of 64 (the weight
/// resolution), so the *background* traffic covers every residue class
/// equally and only the hot sweep is imbalanced.
const STRIPES: u64 = 256;
/// Cachelines per stripe.
const LINES_PER_STRIPE: u64 = STRIDE / 64;
/// Scenario hash-table buckets: exactly the table's cacheline count,
/// so background traffic spreads over the whole striped region.
const BUCKETS: u64 = STRIPES * STRIDE / 64;
/// Background key population.
const KEYS: u64 = 1 << 12;
/// Idle guard before each epoch's background segment.
const EPOCH_GUARD: Tick = Tick::from_us(50);
/// Hot working-set lines per home. Small enough that all four sets
/// stay cache-resident in the two tenant caches, so hot stores never
/// trigger eviction writebacks and the per-home request counters are
/// exactly proportional to the issued demand.
const HOT_SET: u64 = 16;
/// Initial (capacity-uniform) weights; the sum fixes the weight
/// resolution at 64.
const INITIAL_WEIGHTS: [u64; HOMES] = [16, 16, 16, 16];

/// One traffic regime: a per-home demand vector the hot mass is
/// proportioned to, held for a number of epochs.
struct Regime {
    /// Per-home hot demand, in weight units (sums to 64): home `h`
    /// absorbs `target[h]/64` of the hot mass, so this vector is the
    /// controller's fixed point while the regime lasts.
    target: [u64; HOMES],
    /// Epochs the regime lasts.
    epochs: u32,
    /// Hot stores per demand unit per epoch (0 disables the hot sweep).
    hot_per_slot: u64,
}

/// Per-epoch measurement of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index, 0-based across the whole run.
    pub epoch: u32,
    /// Balance error of this epoch's per-home request deltas against
    /// the weights that were in force while it ran.
    pub balance_error: f64,
    /// Weights in force during the epoch.
    pub weights: Vec<u64>,
    /// Per-home request deltas observed during the epoch.
    pub epoch_requests: Vec<u64>,
    /// Whether the controller moved the weights at this boundary.
    pub changed: bool,
    /// Stripes whose home changes under the new weights (the minimal
    /// migration set; 0 when unchanged).
    pub moved_stripes: u64,
    /// Directory entries `rehome` actually moved.
    pub moved_lines: u64,
    /// Metered OS-side migration cost of the stripe moves.
    pub migration_cost: Tick,
    /// PCIe serialization time of the page copies.
    pub wire_time: Tick,
}

/// One full multi-epoch run (adaptive or static baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceRun {
    /// Per-epoch measurements, in order.
    pub epochs: Vec<EpochReport>,
    /// Background sessions that ran to a terminal state.
    pub completed: u64,
    /// Background sessions force-finished by the safety cap.
    pub capped: u64,
    /// Coherent accesses completed (background + hot sweep).
    pub accesses: u64,
    /// Fold of the background segment checksums and the hot-sweep
    /// completion streams, in order — the run's determinism pin.
    pub checksum: u64,
    /// `verify_invariants` passes at epoch boundaries.
    pub invariant_checks: u64,
    /// Weights in force after the final boundary.
    pub final_weights: Vec<u64>,
}

impl RebalanceRun {
    /// Balance error of the final epoch.
    pub fn final_balance_error(&self) -> f64 {
        self.epochs.last().expect("runs have epochs").balance_error
    }

    /// Boundaries at which the weights moved.
    pub fn rebalances(&self) -> u32 {
        self.epochs.iter().filter(|e| e.changed).count() as u32
    }

    /// Total stripes re-homed across the run.
    pub fn total_moved_stripes(&self) -> u64 {
        self.epochs.iter().map(|e| e.moved_stripes).sum()
    }

    /// Total directory entries moved by the rehomes.
    pub fn total_moved_lines(&self) -> u64 {
        self.epochs.iter().map(|e| e.moved_lines).sum()
    }

    /// Total metered migration cost.
    pub fn total_migration_cost(&self) -> Tick {
        self.epochs
            .iter()
            .fold(Tick::ZERO, |t, e| t + e.migration_cost)
    }

    /// Total PCIe wire time of the page copies.
    pub fn total_wire_time(&self) -> Tick {
        self.epochs.iter().fold(Tick::ZERO, |t, e| t + e.wire_time)
    }
}

/// Everything one rebalance case produces: the adaptive run and its
/// static-weights control.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceOutcome {
    /// Case name.
    pub name: String,
    /// Total background sessions per run.
    pub clients: u64,
    /// The controller spec in force (read back through
    /// [`CohetSystem::rebalance_spec`]).
    pub spec: RebalanceSpec,
    /// The run with the controller closing the loop.
    pub adaptive: RebalanceRun,
    /// The identical traffic with the weights frozen at the initial
    /// vector.
    pub static_run: RebalanceRun,
    /// Fold of both runs' checksums — the case's determinism pin.
    pub checksum: u64,
}

impl RebalanceOutcome {
    /// Convergence bound the gated cases must reach by the final epoch.
    pub const FINAL_ERROR_BOUND: f64 = 0.05;

    /// Asserts the case's gates.
    ///
    /// * [`DriftingHotSet`](RebalanceCase::DriftingHotSet) and
    ///   [`StationaryHotSet`](RebalanceCase::StationaryHotSet): the
    ///   adaptive run's final-epoch balance error is at most
    ///   [`FINAL_ERROR_BOUND`](Self::FINAL_ERROR_BOUND) **and** strictly
    ///   below the static baseline's, and the adaptation was not free —
    ///   stripes moved and their migration was metered.
    /// * [`UniformNoop`](RebalanceCase::UniformNoop): the controller
    ///   never fires — no rebalances, no moved stripes, zero cost.
    ///
    /// # Panics
    ///
    /// Panics, with the offending numbers, when a gate fails.
    pub fn assert_gates(&self) {
        match self.name.as_str() {
            "uniform_noop" => {
                assert_eq!(
                    self.adaptive.rebalances(),
                    0,
                    "{}: balanced traffic must never trip the controller",
                    self.name
                );
                assert_eq!(self.adaptive.total_moved_stripes(), 0);
                assert_eq!(self.adaptive.total_migration_cost(), Tick::ZERO);
            }
            _ => {
                let final_err = self.adaptive.final_balance_error();
                let static_err = self.static_run.final_balance_error();
                assert!(
                    final_err <= Self::FINAL_ERROR_BOUND,
                    "{}: final balance error {:.4} exceeds {:.2}",
                    self.name,
                    final_err,
                    Self::FINAL_ERROR_BOUND
                );
                assert!(
                    final_err < static_err,
                    "{}: adaptive final error {:.4} must beat static {:.4}",
                    self.name,
                    final_err,
                    static_err
                );
                assert!(
                    self.adaptive.rebalances() > 0,
                    "{}: the imbalance must trip the controller",
                    self.name
                );
                assert!(
                    self.adaptive.total_moved_stripes() > 0
                        && self.adaptive.total_migration_cost() > Tick::ZERO
                        && self.adaptive.total_wire_time() > Tick::ZERO,
                    "{}: adaptation must charge a nonzero migration",
                    self.name
                );
                // The static control never moves anything.
                assert_eq!(self.static_run.rebalances(), 0);
                assert_eq!(self.static_run.total_moved_stripes(), 0);
                // The error trajectory trends monotonically down: each
                // epoch improves on the last, has already settled under
                // the bound, or is a fresh drift spike (a jump the
                // controller then has to work back down).
                for w in self.adaptive.epochs.windows(2) {
                    let (prev, cur) = (w[0].balance_error, w[1].balance_error);
                    assert!(
                        cur <= prev || cur <= Self::FINAL_ERROR_BOUND || cur >= 2.0 * prev,
                        "{}: error rose {:.4} -> {:.4} at epoch {} without a drift spike",
                        self.name,
                        prev,
                        cur,
                        w[1].epoch
                    );
                }
            }
        }
    }
}

/// The canonical rebalance scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceCase {
    /// The hot set's target split drifts mid-run: epochs 0–3 favour
    /// home 0 (34:14:8:8), epochs 4–8 favour home 3 (8:8:14:34). The
    /// controller must converge, re-converge after the drift, and beat
    /// the static baseline.
    DriftingHotSet,
    /// One skewed regime held for the whole run: pure convergence.
    StationaryHotSet,
    /// No hot mass at all — background traffic is balanced by
    /// construction, and the hysteresis must hold the weights for the
    /// whole run.
    UniformNoop,
}

impl RebalanceCase {
    /// All cases, in canonical report order.
    pub fn all() -> [RebalanceCase; 3] {
        [
            RebalanceCase::DriftingHotSet,
            RebalanceCase::StationaryHotSet,
            RebalanceCase::UniformNoop,
        ]
    }

    /// Stable case name.
    pub fn name(&self) -> &'static str {
        match self {
            RebalanceCase::DriftingHotSet => "drifting_hot_set",
            RebalanceCase::StationaryHotSet => "stationary_hot_set",
            RebalanceCase::UniformNoop => "uniform_noop",
        }
    }

    /// The controller spec the case arms. The gated cases use a tight
    /// dead-band so the controller walks all the way to the designed
    /// fixed point; the noop case uses the default spec to show the
    /// stock hysteresis riding out background sampling noise.
    pub fn spec(&self) -> RebalanceSpec {
        match self {
            RebalanceCase::UniformNoop => RebalanceSpec::default(),
            _ => RebalanceSpec {
                epoch_len: Tick::from_us(200),
                threshold: 0.04,
                max_delta: 8,
            },
        }
    }

    fn regimes(&self) -> Vec<Regime> {
        const A: [u64; HOMES] = [34, 14, 8, 8];
        const B: [u64; HOMES] = [8, 8, 14, 34];
        match self {
            RebalanceCase::DriftingHotSet => vec![
                Regime {
                    target: A,
                    epochs: 4,
                    hot_per_slot: 96,
                },
                Regime {
                    target: B,
                    epochs: 6,
                    hot_per_slot: 96,
                },
            ],
            RebalanceCase::StationaryHotSet => vec![Regime {
                target: A,
                epochs: 5,
                hot_per_slot: 96,
            }],
            // Uniform demand: exactly proportional to the initial
            // weights, so the controller has nothing to do and the
            // hysteresis must ride out the sampling noise.
            RebalanceCase::UniformNoop => vec![Regime {
                target: INITIAL_WEIGHTS,
                epochs: 5,
                hot_per_slot: 96,
            }],
        }
    }

    /// Runs the case with `clients` background sessions per run, twice
    /// — adaptive and static — over the identical traffic program. Same
    /// arguments → a bit-identical [`RebalanceOutcome`].
    ///
    /// `_threads` has no effect: the engine is sequential. The parameter
    /// stays until the callers that still pass it are updated.
    ///
    /// # Panics
    ///
    /// Panics if an epoch boundary fails `verify_invariants` (a remap
    /// corrupted coherence state).
    pub fn run(&self, clients: u64, seed: u64, _threads: usize) -> RebalanceOutcome {
        let spec = self.spec();
        let regimes = self.regimes();
        let adaptive = run_epochs(&regimes, clients, seed, &spec, true);
        let static_run = run_epochs(&regimes, clients, seed, &spec, false);
        let checksum = adaptive
            .checksum
            .rotate_left(7)
            .wrapping_add(static_run.checksum);
        RebalanceOutcome {
            name: self.name().into(),
            clients,
            spec,
            adaptive,
            static_run,
            checksum,
        }
    }
}

/// The stripes each home owns under `weights`, in stripe order. With
/// the weight sum fixed at 64 the table is a whole number of pattern
/// periods, so home `h` owns exactly `4·w_h` stripes.
fn stripes_of(weights: &[u64]) -> Vec<Vec<u64>> {
    let wi = WeightedInterleave::new(weights, STRIDE);
    let mut own = vec![Vec::new(); weights.len()];
    for s in 0..STRIPES {
        own[wi.index_of(PhysAddr::new(s * STRIDE))].push(s);
    }
    own
}

/// Builds one epoch's background segment spec.
fn background(epoch: u32, seed: u64, clients: u64, epoch_len: Tick) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("epoch{epoch}"),
        seed: seed.wrapping_add(epoch as u64),
        clients,
        agents: 16,
        keys: KEYS,
        buckets: BUCKETS,
        arrival: Arrival::Open,
        machine: MachineSpec::GetPut {
            get_ratio: 0.6,
            think: Tick::from_ns(150),
        },
        phases: vec![PhaseSpec::new(
            "steady",
            epoch_len,
            Traffic::Steady { rate: 1.0 },
        )],
    }
}

/// The epoch engine shared by the adaptive run and the static control:
/// identical traffic program; only the boundary action differs.
fn run_epochs(
    regimes: &[Regime],
    clients: u64,
    seed: u64,
    spec: &RebalanceSpec,
    adaptive: bool,
) -> RebalanceRun {
    let initial: Vec<u64> = INITIAL_WEIGHTS.to_vec();
    let sys = CohetSystem::builder()
        .topology(TopologySpec::Weighted {
            weights: initial.clone(),
            stride: STRIDE,
        })
        .rebalance(spec.clone())
        .build();
    // The driver consumes the spec the builder armed, not a copy the
    // caller happened to hold — the round-trip is the contract.
    let spec = sys
        .rebalance_spec()
        .expect("rebalance cases arm a spec")
        .clone();
    let fabric = sys.fabric();
    let cpu_node = fabric.cpu_node;
    let xpu_node = fabric.xpu_nodes[0];
    let mut eng = sys.build_engine(fabric.mi, fabric.expander_range);
    let mut os = Process::new(fabric.numa);
    // 16 background caches plus two dedicated hot-tenant caches. The
    // hot pair alternates strictly per address, so every hot store
    // misses (the other tenant cache, or a background cache, holds the
    // line) and reaches its home directory — the hot demand is exactly
    // the issued store counts.
    let agents: Vec<AgentId> = (0..18)
        .map(|_| eng.add_cache(CacheConfig::cpu_l1()))
        .collect();
    let (bg_agents, hot_agents) = agents.split_at(16);
    let mut ctl = RebalanceController::new(spec.clone(), &initial);

    let total_epochs: u64 = regimes.iter().map(|r| r.epochs as u64).sum();
    let quota = split(clients, total_epochs);
    let base = PhysAddr::new(0);

    let mut run = RebalanceRun {
        epochs: Vec::new(),
        completed: 0,
        capped: 0,
        accesses: 0,
        checksum: 0,
        invariant_checks: 0,
        final_weights: initial.clone(),
    };
    let mut weights = initial.clone();
    let mut static_baseline = vec![0u64; HOMES];
    // Per-home hot-sweep counters and the per-address tenant parity
    // both persist across epochs: the counter walks each home's
    // working set in order, and the parity keeps the strict
    // agent alternation that makes every hot store a directory miss.
    let mut hot_k = [0u64; HOMES];
    let mut parity: HashMap<u64, bool> = HashMap::new();
    let mut epoch_idx = 0u32;

    for regime in regimes {
        for _ in 0..regime.epochs {
            // Background segment: uniform coverage of the whole table.
            let bg = background(epoch_idx, seed, quota[epoch_idx as usize], spec.epoch_len);
            let start = eng.now() + EPOCH_GUARD;
            let out = scenario::run_from(&bg, &mut eng, bg_agents, base, start);
            run.completed += out.completed;
            run.capped += out.capped;
            run.accesses += out.accesses;
            run.checksum = run.checksum.rotate_left(7).wrapping_add(out.checksum);

            // Hot sweep: home-affine demand. Each home's tenant mass
            // walks the stripes *currently homed there* (recomputed
            // from the weights in force, i.e. after the charged page
            // migrations re-established affinity), proportioned to the
            // regime's target vector.
            let own = stripes_of(&weights);
            let mut rng = SimRng::new(seed ^ 0xB0B ^ (epoch_idx as u64) << 32);
            let mut t = eng.now();
            for h in 0..HOMES {
                let stripes = &own[h];
                let n = stripes.len() as u64;
                for _ in 0..regime.hot_per_slot * regime.target[h] {
                    let k = hot_k[h];
                    hot_k[h] += 1;
                    // Small fixed-size working set per home: the hot
                    // lines stay cache-resident, so every store is a
                    // clean two-agent ping-pong through the home and
                    // the request counters track demand exactly (no
                    // eviction-dependent writeback noise).
                    let i = k % HOT_SET;
                    let stripe = stripes[(i % n) as usize];
                    let line = (i / n) % LINES_PER_STRIPE;
                    let addr = PhysAddr::new(base.raw() + stripe * STRIDE + line * 64);
                    let turn = parity.entry(addr.raw()).or_insert(false);
                    let agent = hot_agents[*turn as usize];
                    *turn = !*turn;
                    t += Tick::from_ns(40);
                    eng.issue(
                        agent,
                        MemOp::Store {
                            value: rng.next_u64(),
                        },
                        addr,
                        t,
                    );
                    run.accesses += 1;
                }
            }
            for c in &eng.run_to_quiescence() {
                run.checksum = run
                    .checksum
                    .rotate_left(7)
                    .wrapping_add(c.value ^ c.done.as_ps() ^ c.addr.raw());
            }
            eng.verify_invariants();
            run.invariant_checks += 1;

            // Epoch boundary: counters in, decision out.
            let cum: Vec<u64> = eng
                .home_stats_view()
                .stats()
                .iter()
                .map(|s| s.requests)
                .collect();
            let report = if adaptive {
                let d = ctl.epoch(&cum);
                let mut rep = EpochReport {
                    epoch: epoch_idx,
                    balance_error: d.observed_error,
                    weights: weights.clone(),
                    epoch_requests: d.epoch_requests,
                    changed: d.changed,
                    moved_stripes: 0,
                    moved_lines: 0,
                    migration_cost: Tick::ZERO,
                    wire_time: Tick::ZERO,
                };
                if d.changed {
                    let (m, cost, wire) =
                        charge_migration(&weights, &d.weights, &mut os, cpu_node, xpu_node);
                    let stats = eng.rehome(Topology::weighted(&d.weights, STRIDE));
                    eng.verify_invariants();
                    run.invariant_checks += 1;
                    rep.moved_stripes = m;
                    rep.moved_lines = stats.moved;
                    rep.migration_cost = cost;
                    rep.wire_time = wire;
                    weights = d.weights;
                }
                rep
            } else {
                let delta: Vec<u64> = cum
                    .iter()
                    .zip(&static_baseline)
                    .map(|(&now, &then)| now - then)
                    .collect();
                static_baseline.copy_from_slice(&cum);
                EpochReport {
                    epoch: epoch_idx,
                    balance_error: balance_error_of(&delta, &weights),
                    weights: weights.clone(),
                    epoch_requests: delta,
                    changed: false,
                    moved_stripes: 0,
                    moved_lines: 0,
                    migration_cost: Tick::ZERO,
                    wire_time: Tick::ZERO,
                }
            };
            run.epochs.push(report);
            epoch_idx += 1;
        }
    }
    run.final_weights = weights;
    run
}

/// Charges the minimal line-set migration for a weight move: every
/// stripe whose home changes pays one metered `cohet-os` cross-node
/// page move (kernel overhead + HMM handshake + copy) and one PCIe
/// gen5 x8 page serialization.
fn charge_migration(
    old: &[u64],
    new: &[u64],
    os: &mut Process,
    cpu_node: cohet_os::NodeId,
    xpu_node: cohet_os::NodeId,
) -> (u64, Tick, Tick) {
    let moved = moved_stripes(old, new, STRIDE, STRIPES);
    if moved == 0 {
        return (0, Tick::ZERO, Tick::ZERO);
    }
    let buf = os
        .malloc(moved * PAGE_SIZE)
        .expect("migration staging fits");
    let mut cost = Tick::ZERO;
    let mut link = PcieLink::new(PcieLinkConfig::gen5_x8());
    let mut wire = Tick::ZERO;
    for i in 0..moved {
        let va = buf + i * PAGE_SIZE;
        os.access(Accessor::Cpu(cpu_node), va, AccessKind::Write)
            .expect("mapped");
        cost += migration::migrate_page(os, va, xpu_node, migration::MigrationCost::default())
            .expect("target node has room");
        wire = link.send(wire, PAGE_SIZE);
    }
    (moved, cost, wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcxl_coherence::ProtocolEngine;

    #[test]
    fn drifting_converges_reconverges_and_beats_static() {
        let o = RebalanceCase::DriftingHotSet.run(360, 11, 1);
        o.assert_gates();
        let e = &o.adaptive.epochs;
        // Converged to the first regime's fixed point before the drift,
        // saw the drift as an error spike, then re-converged.
        assert!(e[3].balance_error <= RebalanceOutcome::FINAL_ERROR_BOUND);
        assert!(
            e[4].balance_error > 1.0,
            "the regime flip must register as a spike, got {:.4}",
            e[4].balance_error
        );
        assert_eq!(o.adaptive.final_weights, vec![8, 8, 14, 34]);
        // Once converged the controller goes quiet: no migrations in
        // the settled tail.
        assert_eq!(e[8].moved_stripes + e[9].moved_stripes, 0);
    }

    #[test]
    fn stationary_converges_to_the_demand_vector() {
        let o = RebalanceCase::StationaryHotSet.run(240, 7, 1);
        o.assert_gates();
        assert_eq!(o.adaptive.final_weights, vec![34, 14, 8, 8]);
    }

    #[test]
    fn uniform_noop_holds_weights() {
        let o = RebalanceCase::UniformNoop.run(240, 7, 1);
        o.assert_gates();
        assert_eq!(o.adaptive.final_weights, INITIAL_WEIGHTS.to_vec());
        // With the controller idle both runs executed the identical
        // program on identical engines.
        assert_eq!(o.adaptive.checksum, o.static_run.checksum);
    }

    #[test]
    fn outcome_is_bit_identical_across_reruns() {
        let one = RebalanceCase::StationaryHotSet.run(240, 7, 1);
        let again = RebalanceCase::StationaryHotSet.run(240, 7, 1);
        assert_eq!(one, again);
    }

    fn engine_over(weights: &[u64]) -> ProtocolEngine {
        let sys = CohetSystem::builder()
            .topology(TopologySpec::Weighted {
                weights: weights.to_vec(),
                stride: STRIDE,
            })
            .build();
        let fabric = sys.fabric();
        sys.build_engine(fabric.mi, fabric.expander_range)
    }

    fn store_wave(eng: &mut ProtocolEngine, agents: &[AgentId], wave: u64) {
        let mut rng = SimRng::new(0x5EED ^ wave);
        let mut t = eng.now();
        for j in 0..STRIPES {
            let addr = PhysAddr::new(j * STRIDE + (j % LINES_PER_STRIPE) * 64);
            let agent = agents[((j + wave) % agents.len() as u64) as usize];
            t += Tick::from_ns(25);
            eng.issue(
                agent,
                MemOp::Store {
                    value: rng.next_u64(),
                },
                addr,
                t,
            );
        }
        eng.run_to_quiescence();
    }

    /// Satellite regression: a directory that lived through a chain of
    /// epoch remaps must end up indistinguishable from a from-scratch
    /// engine built directly over the final topology and fed the same
    /// store program — entry for entry.
    #[test]
    fn rehome_chain_matches_from_scratch_directory() {
        let chain: [[u64; HOMES]; 4] = [
            INITIAL_WEIGHTS,
            [24, 17, 12, 11],
            [32, 15, 9, 8],
            [34, 14, 8, 8],
        ];
        let mut live = engine_over(&chain[0]);
        let live_agents: Vec<AgentId> = (0..4)
            .map(|_| live.add_cache(CacheConfig::cpu_l1()))
            .collect();
        for (i, w) in chain.iter().enumerate() {
            if i > 0 {
                live.rehome(Topology::weighted(w, STRIDE));
                live.verify_invariants();
            }
            store_wave(&mut live, &live_agents, i as u64);
        }

        let mut scratch = engine_over(chain.last().expect("chain nonempty"));
        let scratch_agents: Vec<AgentId> = (0..4)
            .map(|_| scratch.add_cache(CacheConfig::cpu_l1()))
            .collect();
        for i in 0..chain.len() {
            store_wave(&mut scratch, &scratch_agents, i as u64);
        }

        live.verify_invariants();
        scratch.verify_invariants();
        for j in 0..STRIPES {
            let addr = PhysAddr::new(j * STRIDE + (j % LINES_PER_STRIPE) * 64);
            assert_eq!(
                live.topology().home_for(addr),
                scratch.topology().home_for(addr),
                "home mismatch at stripe {j}"
            );
            let a = live.dir_entry(addr).expect("stored line has an entry");
            let b = scratch.dir_entry(addr).expect("stored line has an entry");
            assert_eq!(a.owner, b.owner, "owner mismatch at stripe {j}");
            assert_eq!(
                a.sharers.word(),
                b.sharers.word(),
                "sharer mismatch at stripe {j}"
            );
            assert_eq!(a.dirty, b.dirty, "dirty mismatch at stripe {j}");
        }
    }
}
