//! Experiment runners regenerating every evaluation figure (§VI).
//!
//! Each function returns plain data rows: the `bench` crate's figures
//! suite reports them beside the paper's values and asserts the paper
//! tolerances, and `perfbench` times them.

use crate::profile::{reference, DeviceProfile};
use protowire::{genbench, BenchId};
use sim_core::{Summary, Tick};
use simcxl_coherence::array::LineState;
use simcxl_coherence::prelude::*;
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr, CACHELINE_BYTES};
use simcxl_nic::{CxlRaoNic, PcieRaoNic, RpcNicModel, SerializeMode};
use simcxl_pcie::DmaEngine;
use simcxl_workloads::circustent::{self, CtConfig, CtPattern};
use simcxl_workloads::lsu;

fn engine_for(profile: &DeviceProfile, jitter: Option<(u64, f64)>) -> (ProtocolEngine, AgentId) {
    let mut b = ProtocolEngine::builder().home(profile.home.clone());
    if let Some((seed, sd)) = jitter {
        b = b.jitter_ns(seed, sd);
    }
    let mut eng = b.build();
    let hmc = eng.add_cache(profile.hmc.clone());
    (eng, hmc)
}

/// Which placement tier a latency/bandwidth test exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Line preloaded into the device HMC.
    HmcHit,
    /// Line demoted to the host LLC (CLDEMOTE analog).
    LlcHit,
    /// Line flushed to memory (CLFLUSH analog).
    MemHit,
}

impl Tier {
    /// All tiers in Fig. 13/15 order.
    pub fn all() -> [Tier; 3] {
        [Tier::HmcHit, Tier::LlcHit, Tier::MemHit]
    }

    /// Label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Tier::HmcHit => "HMC Hit",
            Tier::LlcHit => "LLC Hit",
            Tier::MemHit => "Mem Hit",
        }
    }
}

fn place(eng: &mut ProtocolEngine, hmc: AgentId, tier: Tier, base: PhysAddr, lines: u64) {
    for i in 0..lines {
        let a = base + i * CACHELINE_BYTES;
        match tier {
            Tier::HmcHit => eng.preload(hmc, a, LineState::Exclusive),
            Tier::LlcHit => eng.preload_llc(a),
            Tier::MemHit => {}
        }
    }
}

/// Measures the median (and percentile spread) of 64 B load latency for
/// one tier: the paper's LSU test, 32 sequential loads × `trials`.
pub fn cxl_load_latency(profile: &DeviceProfile, tier: Tier, trials: usize) -> Summary {
    let (mut eng, hmc) = engine_for(profile, Some((42, 1.5)));
    let mut sum = Summary::new();
    for t in 0..trials {
        // HMC hits are tested "by repeating address sequences" (§VI-A4):
        // the same 32 lines stay resident across trials. The other tiers
        // use fresh lines each trial so earlier trials cannot warm them.
        let base = match tier {
            Tier::HmcHit => PhysAddr::new(0x100_0000),
            _ => PhysAddr::new(0x100_0000 + (t as u64 + 1) * 32 * CACHELINE_BYTES),
        };
        if tier != Tier::HmcHit || t == 0 {
            place(&mut eng, hmc, tier, base, 32);
        }
        // Serial issue: the LSU measures per-request round trips.
        let mut at = eng.now() + Tick::from_ns(100);
        for req in lsu::latency_burst(base) {
            let id = eng.issue(hmc, MemOp::Load, req.addr, at);
            let done = eng.run_to_quiescence();
            let c = done.iter().find(|c| c.req == id).expect("completed");
            sum.record_ns(c.latency());
            at = eng.now().max(c.done) + Tick::from_ns(10);
        }
    }
    sum
}

/// One row of Fig. 13.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Configuration label.
    pub config: String,
    /// Median latencies in ns: HMC hit, LLC hit, mem hit, DMA@64 B.
    pub hmc_ns: f64,
    /// LLC-hit median.
    pub llc_ns: f64,
    /// Memory-hit median.
    pub mem_ns: f64,
    /// DMA read latency at 64 B.
    pub dma64_ns: f64,
}

/// Fig. 13: median load latency per tier vs DMA@64 B for one profile.
pub fn fig13(profile: &DeviceProfile, trials: usize) -> Fig13Row {
    let med = |tier| cxl_load_latency(profile, tier, trials).median();
    let dma = DmaEngine::new(profile.dma);
    Fig13Row {
        config: profile.name.to_owned(),
        hmc_ns: med(Tier::HmcHit),
        llc_ns: med(Tier::LlcHit),
        mem_ns: med(Tier::MemHit),
        dma64_ns: dma.unloaded_latency(64).as_ns_f64(),
    }
}

/// Measures sustained CXL.cache load bandwidth (GB/s) for a tier: the
/// paper's 2048-request (128 KB) burst.
pub fn cxl_load_bandwidth(profile: &DeviceProfile, tier: Tier) -> f64 {
    let (mut eng, hmc) = engine_for(profile, None);
    let base = PhysAddr::new(0x100_0000);
    let reqs = lsu::bandwidth_burst(base);
    place(&mut eng, hmc, tier, base, reqs.len() as u64);
    // Saturating issue with a bounded window, as a streaming LSU would.
    let window = 320usize;
    let mut issued = 0usize;
    let mut done = 0usize;
    let mut first_issue = None;
    let mut comps = Vec::new();
    while done < reqs.len() {
        while issued - done < window && issued < reqs.len() {
            let at = eng.now();
            if first_issue.is_none() {
                first_issue = Some(at);
            }
            eng.issue(hmc, MemOp::Load, reqs[issued].addr, at);
            issued += 1;
        }
        if !eng.run_next(&mut comps) {
            break;
        }
        done += comps.len();
    }
    let span = eng.now() - first_issue.unwrap_or(Tick::ZERO);
    (reqs.len() as u64 * CACHELINE_BYTES) as f64 / span.as_secs_f64() / 1e9
}

/// One row of Fig. 15.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Configuration label.
    pub config: String,
    /// Bandwidths in GB/s.
    pub hmc_gbps: f64,
    /// LLC-hit bandwidth.
    pub llc_gbps: f64,
    /// Memory-hit bandwidth.
    pub mem_gbps: f64,
    /// DMA bandwidth at 64 B messages.
    pub dma64_gbps: f64,
}

/// Fig. 15: sustained bandwidth per tier vs DMA@64 B.
pub fn fig15(profile: &DeviceProfile) -> Fig15Row {
    let mut dma = DmaEngine::new(profile.dma);
    Fig15Row {
        config: profile.name.to_owned(),
        hmc_gbps: cxl_load_bandwidth(profile, Tier::HmcHit),
        llc_gbps: cxl_load_bandwidth(profile, Tier::LlcHit),
        mem_gbps: cxl_load_bandwidth(profile, Tier::MemHit),
        dma64_gbps: dma.stream_bandwidth(64, 2048) / 1e9,
    }
}

/// Figs. 14/16: DMA latency (µs) and bandwidth (GB/s) across message
/// granularities 64 B – 256 KB; returns `(size, latency_us, gbps)` rows.
pub fn dma_sweep(profile: &DeviceProfile) -> Vec<(u64, f64, f64)> {
    let mut rows = Vec::new();
    let mut size = 64u64;
    while size <= 256 * 1024 {
        let mut dma = DmaEngine::new(profile.dma);
        let lat = dma.unloaded_latency(size).as_us_f64();
        let count = (16 << 20) / size; // stream 16 MB total
        let bw = dma.stream_bandwidth(size, count.max(8)) / 1e9;
        rows.push((size, lat, bw));
        size *= 2;
    }
    rows
}

/// Fig. 12: per-NUMA-node CXL.cache load latency distributions.
///
/// Eight nodes are modelled with hop latencies fitted so medians match
/// the testbed (SNC-4 across two sockets); jitter produces the spread.
/// Returns one [`Summary`] per node.
pub fn fig12(profile: &DeviceProfile, trials: usize) -> Vec<Summary> {
    let node_span = 1u64 << 26;
    let mut mi = MemoryInterface::new();
    for n in 0..8u64 {
        mi.add_memory(
            AddrRange::new(PhysAddr::new(n * node_span), node_span),
            DramConfig::preset(DramKind::Ddr5_4800),
            Tick::ZERO,
        );
    }
    let mut eng = ProtocolEngine::builder()
        .home(profile.home.clone())
        .memory(mi)
        .jitter_ns(7, 2.0)
        .build();
    let hmc = eng.add_cache(profile.hmc.clone());
    let base_ns = reference::FIG12_NODE_MEDIANS_NS[7];
    for (n, &median) in reference::FIG12_NODE_MEDIANS_NS.iter().enumerate() {
        // Extra hop cost is paid twice (there and back), so halve it.
        let extra = ((median - base_ns) / 2.0).max(0.0);
        eng.add_numa_extra(
            AddrRange::new(PhysAddr::new(n as u64 * node_span), node_span),
            Tick::from_ns_f64(extra),
        );
    }
    let mut out = Vec::new();
    for n in 0..8u64 {
        let mut sum = Summary::new();
        for t in 0..trials {
            let base = PhysAddr::new(n * node_span + (t as u64) * 32 * CACHELINE_BYTES + 0x10_000);
            let mut at = eng.now() + Tick::from_ns(50);
            for req in lsu::latency_burst(base) {
                let id = eng.issue(hmc, MemOp::Load, req.addr, at);
                let done = eng.run_to_quiescence();
                let c = done.iter().find(|c| c.req == id).expect("completed");
                sum.record_ns(c.latency());
                at = eng.now().max(c.done) + Tick::from_ns(10);
            }
        }
        out.push(sum);
    }
    out
}

/// Fig. 17: RAO throughput speedup of CXL-NIC over PCIe-NIC for the six
/// CircusTent patterns. Returns `(pattern, speedup)` rows.
pub fn fig17(profile: &DeviceProfile, ops: usize) -> Vec<(CtPattern, f64)> {
    CtPattern::all()
        .into_iter()
        .map(|pattern| {
            let stream = circustent::generate(
                pattern,
                CtConfig {
                    ops,
                    ..CtConfig::default()
                },
            );
            let mut pcie = PcieRaoNic::new(profile.dma);
            let p = pcie.run(&stream);
            let mut cxl = CxlRaoNic::new(profile.hmc.clone(), profile.home.clone(), 1);
            let c = cxl.run(&stream);
            (pattern, c.mops() / p.mops())
        })
        .collect()
}

/// One bench's worth of Fig. 18 results (times in µs).
#[derive(Debug, Clone)]
pub struct Fig18Row {
    /// Which bench.
    pub bench: BenchId,
    /// Deserialization: RpcNIC baseline.
    pub deser_rpcnic_us: f64,
    /// Deserialization: CXL-NIC.
    pub deser_cxl_us: f64,
    /// Serialization per mode, in [`SerializeMode::all`] order.
    pub ser_us: [f64; 4],
}

impl Fig18Row {
    /// Deserialization speedup.
    pub fn deser_speedup(&self) -> f64 {
        self.deser_rpcnic_us / self.deser_cxl_us
    }

    /// Serialization speedup of `mode` over RpcNIC.
    pub fn ser_speedup(&self, mode: SerializeMode) -> f64 {
        let idx = SerializeMode::all()
            .iter()
            .position(|&m| m == mode)
            .expect("known mode");
        self.ser_us[0] / self.ser_us[idx]
    }
}

/// Fig. 18: RPC (de)serialization times across the six benches.
/// `limit` truncates each workload (0 = full size) to bound runtime.
pub fn fig18(limit: usize) -> Vec<Fig18Row> {
    BenchId::all()
        .into_iter()
        .map(|id| {
            let mut w = genbench::generate(id, 7);
            if limit > 0 {
                w.messages.truncate(limit);
            }
            let mut m = RpcNicModel::asic();
            let deser_rpc = m.deserialize_rpcnic(&w).total.as_us_f64();
            let deser_cxl = m.deserialize_cxl(&w).total.as_us_f64();
            let mut ser = [0.0; 4];
            for (i, mode) in SerializeMode::all().into_iter().enumerate() {
                ser[i] = m.serialize(&w, mode).total.as_us_f64();
            }
            Fig18Row {
                bench: id,
                deser_rpcnic_us: deser_rpc,
                deser_cxl_us: deser_cxl,
                ser_us: ser,
            }
        })
        .collect()
}

/// The calibration table: `(label, reference, measured)` triples across
/// Figs. 13/15 for both profiles, plus the bulk-DMA point of Fig. 16.
pub fn calibration_points(trials: usize) -> Vec<(String, f64, f64)> {
    let mut pts = Vec::new();
    for (profile, lat_ref, bw_ref) in [
        (
            DeviceProfile::fpga_400mhz(),
            reference::FIG13_FPGA_NS,
            reference::FIG15_FPGA_GBPS,
        ),
        (
            DeviceProfile::asic_1500mhz(),
            reference::FIG13_ASIC_NS,
            reference::FIG15_ASIC_GBPS,
        ),
    ] {
        let f13 = fig13(&profile, trials);
        let f15 = fig15(&profile);
        let name = profile.name;
        pts.push((format!("{name} lat HMC"), lat_ref.0, f13.hmc_ns));
        pts.push((format!("{name} lat LLC"), lat_ref.1, f13.llc_ns));
        pts.push((format!("{name} lat mem"), lat_ref.2, f13.mem_ns));
        pts.push((format!("{name} lat DMA@64B"), lat_ref.3, f13.dma64_ns));
        pts.push((format!("{name} bw HMC"), bw_ref.0, f15.hmc_gbps));
        pts.push((format!("{name} bw LLC"), bw_ref.1, f15.llc_gbps));
        pts.push((format!("{name} bw mem"), bw_ref.2, f15.mem_gbps));
        pts.push((format!("{name} bw DMA@64B"), bw_ref.3, f15.dma64_gbps));
    }
    let fpga = DeviceProfile::fpga_400mhz();
    let bulk = dma_sweep(&fpga).last().expect("sweep nonempty").2;
    pts.push((
        "FPGA bw DMA@256K".to_owned(),
        reference::FIG16_DMA_256K_GBPS,
        bulk,
    ));
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_fpga_matches_paper_within_tolerance() {
        let row = fig13(&DeviceProfile::fpga_400mhz(), 4);
        let (hmc, llc, mem, dma) = reference::FIG13_FPGA_NS;
        for (got, want) in [
            (row.hmc_ns, hmc),
            (row.llc_ns, llc),
            (row.mem_ns, mem),
            (row.dma64_ns, dma),
        ] {
            let err = ((got - want) / want).abs();
            assert!(err < 0.08, "latency {got:.1} vs {want:.1} ({err:.3})");
        }
    }

    #[test]
    fn fig13_asic_matches_paper_within_tolerance() {
        let row = fig13(&DeviceProfile::asic_1500mhz(), 4);
        let (hmc, llc, mem, dma) = reference::FIG13_ASIC_NS;
        for (got, want) in [
            (row.hmc_ns, hmc),
            (row.llc_ns, llc),
            (row.mem_ns, mem),
            (row.dma64_ns, dma),
        ] {
            let err = ((got - want) / want).abs();
            assert!(err < 0.10, "latency {got:.1} vs {want:.1} ({err:.3})");
        }
    }

    #[test]
    fn fig15_fpga_matches_paper_within_tolerance() {
        let row = fig15(&DeviceProfile::fpga_400mhz());
        let (hmc, llc, mem, dma) = reference::FIG15_FPGA_GBPS;
        for (got, want) in [
            (row.hmc_gbps, hmc),
            (row.llc_gbps, llc),
            (row.mem_gbps, mem),
            (row.dma64_gbps, dma),
        ] {
            let err = ((got - want) / want).abs();
            assert!(err < 0.10, "bw {got:.2} vs {want:.2} ({err:.3})");
        }
    }

    #[test]
    fn fig12_medians_track_numa_distance() {
        let sums = fig12(&DeviceProfile::fpga_400mhz(), 8);
        let medians: Vec<f64> = sums.into_iter().map(|mut s| s.median()).collect();
        // Node 7 nearest, node 3 farthest; gap close to the paper's 88 ns.
        assert!(medians[3] > medians[7] + 60.0, "gap too small: {medians:?}");
        assert!(medians[3] < medians[7] + 120.0, "gap too big: {medians:?}");
        for n in [0, 1, 2, 3] {
            assert!(
                medians[n] > medians[6],
                "remote socket node{n} faster than local: {medians:?}"
            );
        }
    }

    #[test]
    fn dma_sweep_shapes() {
        let rows = dma_sweep(&DeviceProfile::fpga_400mhz());
        assert_eq!(rows[0].0, 64);
        assert_eq!(rows.last().unwrap().0, 256 * 1024);
        // Fig. 14: flat below 8 KB, growing after.
        let lat = |size: u64| rows.iter().find(|r| r.0 == size).unwrap().1;
        assert!(lat(4096) < lat(64) * 1.3);
        assert!(lat(256 * 1024) > lat(64) * 3.0);
        // Fig. 16: bandwidth grows monotonically with size.
        for w in rows.windows(2) {
            assert!(w[1].2 >= w[0].2 * 0.98, "bw dipped at {}", w[1].0);
        }
    }

    #[test]
    fn dma_crossover_lies_between_fine_and_bulk() {
        // The paper's conclusion from Figs. 14–16: "CXL.cache provides a
        // clear throughput advantage for small-message exchanges ...
        // whereas DMA remains the preferred mechanism for bulk
        // transfers". The crossover must exist and sit between 64 B and
        // 256 KB.
        let profile = DeviceProfile::fpga_400mhz();
        let cxl_bw = cxl_load_bandwidth(&profile, Tier::MemHit);
        let rows = dma_sweep(&profile);
        let small = rows.first().expect("nonempty").2;
        let bulk = rows.last().expect("nonempty").2;
        assert!(small < cxl_bw, "DMA must lose at 64 B: {small} vs {cxl_bw}");
        assert!(bulk > cxl_bw, "DMA must win at 256 KB: {bulk} vs {cxl_bw}");
        let crossover = rows
            .iter()
            .find(|r| r.2 > cxl_bw)
            .expect("crossover exists")
            .0;
        assert!(
            (512..=16 * 1024).contains(&crossover),
            "crossover at {crossover} B is implausible"
        );
    }

    #[test]
    fn headline_ratios_hold() {
        // §VI: "CXL.cache reduces latency by 68% and increases bandwidth
        // by 14.4x compared to DMA transfers at cacheline granularity".
        let profile = DeviceProfile::fpga_400mhz();
        let f13 = fig13(&profile, 4);
        let reduction = 1.0 - f13.mem_ns / f13.dma64_ns;
        assert!(
            (reduction - reference::HEADLINE_LATENCY_REDUCTION).abs() < 0.05,
            "latency reduction {reduction:.2}"
        );
        let f15 = fig15(&profile);
        let ratio = f15.mem_gbps / f15.dma64_gbps;
        assert!(
            (ratio / reference::HEADLINE_BW_RATIO - 1.0).abs() < 0.15,
            "bandwidth ratio {ratio:.1}"
        );
    }

    #[test]
    fn calibration_error_is_small() {
        let pairs: Vec<(f64, f64)> = calibration_points(4)
            .into_iter()
            .map(|(_, r, m)| (r, m))
            .collect();
        let err = sim_core::mape(&pairs);
        assert!(err < 5.0, "calibration MAPE {err:.2}% too large");
    }

    #[test]
    fn fig17_speedups_in_paper_band() {
        let rows = fig17(&DeviceProfile::fpga_400mhz(), 384);
        let get = |p: CtPattern| rows.iter().find(|r| r.0 == p).unwrap().1;
        assert!(get(CtPattern::Central) > 25.0 && get(CtPattern::Central) < 55.0);
        assert!(get(CtPattern::Rand) > 4.0 && get(CtPattern::Rand) < 10.0);
        assert!(get(CtPattern::Stride1) > get(CtPattern::Scatter));
        assert!(get(CtPattern::Central) > get(CtPattern::Stride1));
    }

    #[test]
    fn fig18_shapes_hold() {
        for row in fig18(30) {
            assert!(
                row.deser_speedup() > 1.05,
                "{:?} deser speedup {:.2}",
                row.bench,
                row.deser_speedup()
            );
            // All CXL serialization modes beat RpcNIC; CXL.mem fastest.
            for mode in [
                SerializeMode::CxlCacheNoPrefetch,
                SerializeMode::CxlCachePrefetch,
                SerializeMode::CxlMem,
            ] {
                assert!(
                    row.ser_speedup(mode) > 1.0,
                    "{:?} {mode:?} {:.2}",
                    row.bench,
                    row.ser_speedup(mode)
                );
            }
            assert!(
                row.ser_speedup(SerializeMode::CxlMem)
                    >= row.ser_speedup(SerializeMode::CxlCachePrefetch),
                "{:?}: CXL.mem must be fastest",
                row.bench
            );
        }
    }
}
