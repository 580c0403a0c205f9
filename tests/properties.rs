//! Property-based tests on the core data structures and invariants.

use cohet_os::{PageTable, Pte, VirtAddr, PAGE_SIZE};
use proptest::prelude::*;
use protowire::schema::MessageRef;
use protowire::{FieldDescriptor, FieldType, MessageDescriptor, MessageValue, Schema, Value};
use sim_core::Tick;
use simcxl_coherence::prelude::*;
use simcxl_coherence::AtomicKind;
use simcxl_mem::PhysAddr;

fn flat_schema() -> Schema {
    let root = MessageDescriptor {
        name: "P".into(),
        fields: vec![
            FieldDescriptor {
                number: 1,
                name: "a".into(),
                ty: FieldType::UInt64,
                repeated: true,
            },
            FieldDescriptor {
                number: 2,
                name: "b".into(),
                ty: FieldType::SInt64,
                repeated: true,
            },
            FieldDescriptor {
                number: 3,
                name: "s".into(),
                ty: FieldType::Bytes,
                repeated: true,
            },
        ],
    };
    Schema::new(vec![root], MessageRef(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any message built from arbitrary field values survives an
    /// encode/decode round trip.
    #[test]
    fn wire_round_trip(
        uints in prop::collection::vec(any::<u64>(), 0..8),
        sints in prop::collection::vec(any::<i64>(), 0..8),
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..4),
    ) {
        let schema = flat_schema();
        let mut m = MessageValue::new();
        for v in &uints { m.push(1, Value::UInt64(*v)); }
        for v in &sints { m.push(2, Value::SInt64(*v)); }
        for b in &blobs { m.push(3, Value::Bytes(b.clone())); }
        let bytes = protowire::encode(&schema, &m);
        prop_assert_eq!(bytes.len(), protowire::encode::encoded_len(&m));
        let back = protowire::decode(&schema, &bytes).unwrap();
        prop_assert_eq!(m, back);
    }

    /// Varints round-trip for every value.
    #[test]
    fn varint_round_trip(v in any::<u64>()) {
        let mut buf = Vec::new();
        protowire::wire::put_varint(&mut buf, v);
        let (back, n) = protowire::wire::get_varint(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(n, buf.len());
    }

    /// The page table behaves like a map from pages to frames.
    #[test]
    fn page_table_models_a_map(
        ops in prop::collection::vec((0u64..512, any::<bool>()), 1..64)
    ) {
        let mut pt = PageTable::new();
        let mut model = std::collections::HashMap::new();
        for (page, insert) in ops {
            let va = VirtAddr::new(page * PAGE_SIZE);
            if insert {
                let pte = Pte {
                    frame: PhysAddr::new(page * PAGE_SIZE + (1 << 30)),
                    writable: true,
                    node: cohet_os::NodeId(0),
                    accesses: 0,
                };
                pt.map(va, pte);
                model.insert(page, pte.frame);
            } else {
                pt.unmap(va);
                model.remove(&page);
            }
        }
        prop_assert_eq!(pt.mapped_pages() as usize, model.len());
        for (page, frame) in model {
            let va = VirtAddr::new(page * PAGE_SIZE);
            prop_assert_eq!(pt.walk(va).map(|(p, _)| p.frame), Some(frame));
        }
    }

    /// Under an arbitrary interleaving of loads/stores/atomics from two
    /// agents, the coherence engine reaches quiescence with all
    /// directory invariants intact and atomics summing exactly.
    #[test]
    fn coherence_invariants_hold_under_random_traffic(
        ops in prop::collection::vec((0u8..4, 0u64..16, any::<u16>()), 1..80)
    ) {
        let mut eng = ProtocolEngine::builder().build();
        let a = eng.add_cache(CacheConfig::cpu_l1());
        let b = eng.add_cache(CacheConfig::hmc_128k());
        let mut adds = 0u64;
        let mut t = Tick::ZERO;
        for (kind, line, val) in ops {
            let agent = if val % 2 == 0 { a } else { b };
            let addr = PhysAddr::new(0x4000 + line * 64);
            let op = match kind {
                0 => MemOp::Load,
                1 => MemOp::Store { value: val as u64 },
                2 => {
                    adds += 1;
                    MemOp::Rmw {
                        kind: AtomicKind::FetchAdd,
                        operand: 1,
                        operand2: 0,
                    }
                }
                _ => MemOp::NcPush { value: val as u64 },
            };
            eng.issue(agent, op, addr, t);
            t += Tick::from_ns(val as u64 % 300);
        }
        let done = eng.run_to_quiescence();
        prop_assert!(eng.is_quiescent());
        eng.verify_invariants();
        prop_assert_eq!(done.iter().filter(|c| matches!(c.op, MemOp::Rmw { .. })).count() as u64, adds);
    }

    /// The interleave policy partitions the address space: every
    /// address maps to exactly one home (a total function with index
    /// `< homes`), and the shift/mask fast path agrees with the
    /// brute-force `(addr / stride) % homes` reference.
    #[test]
    fn topology_interleave_partitions_address_space(
        addr in any::<u64>(),
        homes_log2 in 0u32..5,
        stride_log2 in 6u32..13,
    ) {
        let homes = 1usize << homes_log2;
        let stride = 1u64 << stride_log2;
        let t = Topology::interleaved(homes, stride);
        let h = t.home_for(PhysAddr::new(addr));
        prop_assert!(h.index() < homes, "home {h:?} out of range");
        prop_assert_eq!(h.index() as u64, (addr / stride) % homes as u64);
    }

    /// A range table built claim-by-claim to mirror a pow2 interleave
    /// agrees with it on every address — inside the claimed region the
    /// explicit claims route, outside it the fallback does, and the two
    /// policies never disagree.
    #[test]
    fn topology_range_table_agrees_with_pow2(
        addr in 0u64..(1 << 19),
        homes_log2 in 1u32..3,
        stride_log2 in 9u32..13,
    ) {
        let homes = 1usize << homes_log2;
        let stride = 1u64 << stride_log2;
        let pow2 = Topology::interleaved(homes, stride);
        // Claims cover the low 256 KiB; the fallback interleave (same
        // parameters) covers the rest, so the table must equal the
        // pow2 policy everywhere.
        let mut claims = Vec::new();
        let mut base = 0u64;
        while base < (1 << 18) {
            claims.push((
                simcxl_mem::AddrRange::new(PhysAddr::new(base), stride),
                pow2.home_for(PhysAddr::new(base)),
            ));
            base += stride;
        }
        let table = Topology::ranges(homes, claims, homes, stride);
        prop_assert_eq!(table.home_for(PhysAddr::new(addr)), pow2.home_for(PhysAddr::new(addr)));
    }

    /// The weighted interleave partitions the address space: every
    /// address maps to exactly one home with index `< homes`, the O(1)
    /// pattern-table lookup agrees with the brute-force
    /// stripe-mod-period reference, and each home owns exactly its
    /// weight's worth of every pattern repeat.
    #[test]
    fn topology_weighted_partitions_address_space(
        addr in any::<u64>(),
        weights in prop::collection::vec(1u64..8, 1..6),
        stride_log2 in 6u32..13,
    ) {
        let stride = 1u64 << stride_log2;
        let t = Topology::weighted(&weights, stride);
        let h = t.home_for(PhysAddr::new(addr));
        prop_assert!(h.index() < weights.len(), "home {h:?} out of range");
        // Brute-force reference: expand one pattern period by walking
        // stripes 0..period and counting ownership.
        let norm = t.home_weights();
        let period: u64 = norm.iter().sum();
        let pattern: Vec<usize> = (0..period)
            .map(|s| t.home_for(PhysAddr::new(s.wrapping_mul(stride))).index())
            .collect();
        let stripe = addr / stride;
        prop_assert_eq!(h.index(), pattern[(stripe % period) as usize]);
        for (i, &w) in norm.iter().enumerate() {
            prop_assert_eq!(pattern.iter().filter(|&&p| p == i).count() as u64, w,
                "home {i} owns the wrong stripe count in {pattern:?}");
        }
    }

    /// Equal weight vectors degenerate to the pow2 interleave —
    /// structurally equal topologies, hence identical routing (and
    /// identical completion streams for equal-weight configs).
    #[test]
    fn topology_weighted_equal_weights_degenerate_to_interleaved(
        addr in any::<u64>(),
        w in 1u64..100,
        homes_log2 in 0u32..5,
        stride_log2 in 6u32..13,
    ) {
        let homes = 1usize << homes_log2;
        let stride = 1u64 << stride_log2;
        let weighted = Topology::weighted(&vec![w; homes], stride);
        let plain = Topology::interleaved(homes, stride);
        prop_assert_eq!(&weighted, &plain, "equal weights must degenerate structurally");
        prop_assert_eq!(
            weighted.home_for(PhysAddr::new(addr)),
            plain.home_for(PhysAddr::new(addr))
        );
    }

    /// Differential: a range table built by expanding the weighted
    /// stripe pattern claim-by-claim (same weights, same stride) agrees
    /// with the weighted policy on every address of the expanded
    /// region — the two formulations of capacity-proportional homing
    /// are interchangeable.
    #[test]
    fn topology_weighted_agrees_with_ranges_expansion(
        addr in 0u64..(1 << 18),
        weights in prop::collection::vec(1u64..5, 2..5),
        stride_log2 in 9u32..13,
    ) {
        let stride = 1u64 << stride_log2;
        let homes = weights.len();
        let weighted = Topology::weighted(&weights, stride);
        // Expand the pattern over the low 256 KiB as explicit claims;
        // the fallback interleaves over a pow2 home prefix but is never
        // consulted inside the claimed region.
        let mut claims = Vec::new();
        let mut base = 0u64;
        while base < (1 << 18) {
            claims.push((
                simcxl_mem::AddrRange::new(PhysAddr::new(base), stride),
                weighted.home_for(PhysAddr::new(base)),
            ));
            base += stride;
        }
        let fallback_homes = 1 << homes.ilog2(); // pow2 prefix
        let table = Topology::ranges(homes, claims, fallback_homes, stride);
        prop_assert_eq!(
            table.home_for(PhysAddr::new(addr)),
            weighted.home_for(PhysAddr::new(addr)),
            "range expansion diverged from the weighted policy"
        );
    }

    /// Random traffic against a multi-home engine reaches quiescence
    /// with the directory invariants intact (which include: every line
    /// tracked at exactly the home owning it, and by no other home).
    #[test]
    fn multihome_invariants_hold_under_random_traffic(
        homes_log2 in 0u32..3,
        ops in prop::collection::vec((0u8..4, 0u64..16, any::<u16>()), 1..60)
    ) {
        let mut eng = ProtocolEngine::builder()
            .topology(Topology::line_interleaved(1 << homes_log2))
            .build();
        let a = eng.add_cache(CacheConfig::cpu_l1());
        let b = eng.add_cache(CacheConfig::hmc_128k());
        let mut t = Tick::ZERO;
        for (kind, line, val) in ops {
            let agent = if val % 2 == 0 { a } else { b };
            let addr = PhysAddr::new(0x4000 + line * 64);
            let op = match kind {
                0 => MemOp::Load,
                1 => MemOp::Store { value: val as u64 },
                2 => MemOp::Rmw {
                    kind: AtomicKind::FetchAdd,
                    operand: 1,
                    operand2: 0,
                },
                _ => MemOp::NcPush { value: val as u64 },
            };
            eng.issue(agent, op, addr, t);
            t += Tick::from_ns(val as u64 % 300);
        }
        eng.run_to_quiescence();
        prop_assert!(eng.is_quiescent());
        eng.verify_invariants();
    }

    /// For random topologies (pow2 interleaves, asymmetric range
    /// tables and skewed weighted stripes) and random mixed traffic,
    /// the engine reaches quiescence with its invariants intact, and a
    /// rerun reproduces the completion stream — completion by
    /// completion, including timestamps and values.
    #[test]
    fn random_topologies_keep_invariants_and_rerun_identically(
        homes_log2 in 0u32..3,
        topo_kind in 0u8..3,
        weights in prop::collection::vec(1u64..5, 4),
        ops in prop::collection::vec((0u8..5, 0u64..24, any::<u16>()), 1..120)
    ) {
        let homes = 1usize << homes_log2;
        let topology = match topo_kind {
            1 if homes > 1 => {
                // Claim a window of the traffic range for the last home;
                // the rest falls back to a line interleave.
                let claim = simcxl_mem::AddrRange::new(PhysAddr::new(0x4000), 8 * 64);
                Topology::ranges(homes, vec![(claim, HomeId(homes - 1))], homes, 64)
            }
            // Skewed weighted stripes.
            2 => Topology::weighted(&weights[..homes], 64),
            _ => Topology::line_interleaved(homes),
        };
        let build = || {
            let mut eng = ProtocolEngine::builder().topology(topology.clone()).build();
            let a = eng.add_cache(CacheConfig::cpu_l1());
            let c = eng.add_cache(CacheConfig::hmc_128k());
            (eng, a, c)
        };
        let drive = |eng: &mut ProtocolEngine, a: AgentId, b: AgentId| {
            let mut t = Tick::ZERO;
            for (kind, line, val) in &ops {
                let agent = if val % 2 == 0 { a } else { b };
                let addr = PhysAddr::new(0x4000 + line * 64);
                let op = match kind {
                    0 => MemOp::Load,
                    1 => MemOp::Store { value: *val as u64 },
                    2 => MemOp::Rmw {
                        kind: AtomicKind::FetchAdd,
                        operand: 1,
                        operand2: 0,
                    },
                    3 => MemOp::NcPush { value: *val as u64 },
                    _ => MemOp::Prefetch,
                };
                eng.issue(agent, op, addr, t);
                t += Tick::from_ps((*val as u64 % 2000) * 97);
            }
            eng.run_to_quiescence()
        };
        let (mut first, a1, b1) = build();
        let (mut again, a2, b2) = build();
        let s = drive(&mut first, a1, b1);
        let p = drive(&mut again, a2, b2);
        prop_assert!(first.is_quiescent());
        first.verify_invariants();
        prop_assert_eq!(s, p, "rerun stream diverged");
        prop_assert_eq!(first.events_dispatched(), again.events_dispatched());
        prop_assert_eq!(first.now(), again.now());
        prop_assert_eq!(first.home_stats_view(), again.home_stats_view());
    }

    /// Scenario runs are deterministic functions of the spec: identical
    /// specs reproduce identical outcomes.
    #[test]
    fn scenario_outcomes_rerun_invariant(
        seed in any::<u64>(),
        clients in 50u64..400,
        closed in any::<bool>(),
    ) {
        use cohet::{CohetSystem, TopologySpec};
        use simcxl_workloads::scenario::{self, Arrival};
        let mut spec = scenario::ramp_then_burst(clients, seed);
        spec.agents = 4;
        spec.keys = 1 << 10;
        spec.buckets = 1 << 11;
        if closed {
            spec.arrival = Arrival::Closed { concurrency: 8 };
        }
        let run = || {
            CohetSystem::builder()
                .topology(TopologySpec::Interleaved { homes: 2, stride: 4096 })
                .build()
                .run_scenario(&spec)
        };
        let base = run();
        prop_assert_eq!(base.completed + base.capped, spec.clients);
        let again = run();
        prop_assert_eq!(&base, &again, "identical spec failed to reproduce");
    }

    /// Fault injection never loses work and never breaks determinism:
    /// for any random fault plan (random windows, kinds, and valid
    /// parameters) over random scenario traffic, every logical client
    /// still reaches a terminal state (the run drains — no deadlock,
    /// even through stall windows), and the completion checksum is
    /// identical across reruns.
    #[test]
    fn faulted_scenarios_deterministic_and_lossless(
        seed in any::<u64>(),
        clients in 50u64..300,
        events in prop::collection::vec(
            ((0u8..3, 0u64..400, 1u64..200, 0usize..2), (1u64..6, 1u32..5, 10u64..200)),
            0..3),
    ) {
        use cohet::prelude::{FaultKind, FaultPlan};
        use cohet::{CohetSystem, TopologySpec};
        use simcxl_workloads::scenario;
        let mut spec = scenario::ramp_then_burst(clients, seed);
        spec.agents = 4;
        spec.keys = 1 << 10;
        spec.buckets = 1 << 11;
        let mut plan = FaultPlan::new(seed ^ 0xF00D);
        for ((kind, from_us, dur_us, port), (pick, retries, backoff_ns)) in events {
            let from = Tick::from_us(from_us);
            let until = from + Tick::from_us(dur_us);
            let k = match kind {
                0 => FaultKind::LinkDegrade {
                    home: if pick % 2 == 0 { Some(HomeId(port)) } else { None },
                    max_retries: retries,
                    backoff: Tick::from_ns(backoff_ns),
                },
                1 => FaultKind::SlowMemPort {
                    port: HomeId(port),
                    extra: Tick::from_ns(backoff_ns * 10),
                },
                _ => FaultKind::StallMemPort {
                    port: HomeId(port),
                    watchdog: Tick::from_ns(backoff_ns),
                },
            };
            plan = plan.with(from, until, k);
        }
        let run = || {
            CohetSystem::builder()
                .topology(TopologySpec::Interleaved { homes: 2, stride: 4096 })
                .fault_plan(plan.clone())
                .build()
                .run_scenario(&spec)
        };
        let base = run();
        prop_assert_eq!(base.completed + base.capped, spec.clients);
        let again = run();
        prop_assert_eq!(&base, &again, "identical faulted run failed to reproduce");
    }

    /// CircusTent streams always target the configured footprint and
    /// are deterministic in their seed.
    #[test]
    fn circustent_streams_well_formed(seed in any::<u64>(), ops in 1usize..256) {
        use simcxl_workloads::circustent::{self, CtConfig, CtPattern};
        let cfg = CtConfig { ops, seed, ..CtConfig::default() };
        for p in CtPattern::all() {
            let s1 = circustent::generate(p, cfg);
            let s2 = circustent::generate(p, cfg);
            prop_assert_eq!(&s1, &s2);
            for op in &s1 {
                prop_assert!(op.addr >= cfg.base);
                prop_assert!(op.addr.raw() < cfg.base.raw() + cfg.footprint);
            }
        }
    }
}
