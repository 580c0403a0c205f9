//! The `simcxl-report` library: printers whose rows and series match
//! the paper's tables and figures (plus the §VIII ablations), and the
//! four bench suites behind the committed, fully deterministic
//! `BENCH_*.json` reports ([`report::SUITES`]).

pub mod faults;
pub mod hotpath;
pub mod rebalance;
pub mod report;
pub mod scenarios;

use cohet::experiments;
use cohet::extensions::{graph_offload, kvstore_offload};
use cohet::profile::reference;
use cohet::DeviceProfile;
use protowire::genbench;
use protowire::BenchId;
use sim_core::{SimRng, Tick};
use simcxl_coherence::hierarchy::{HierarchicalDirectory, HierarchyCost, NodeId};
use simcxl_mem::PhysAddr;
use simcxl_nic::{RpcNicModel, SerializeMode};
use simcxl_workloads::kvstore::KvConfig;

/// Prints Table I (testbed vs SimCXL configuration).
pub fn table1() {
    println!("== Table I: configurations (testbed -> this reproduction) ==");
    let rows = [
        (
            "Linux kernel",
            "v6.5.0 testbed / modified v6.12",
            "cohet-os library OS",
        ),
        (
            "CPU type",
            "Xeon 8468V / X86O3CPU",
            "clocked request generators",
        ),
        ("CPU cores", "48 / 48", "n/a (memory-system study)"),
        ("Local DRAM", "DDR5-4800 / DDR5-4400", "DDR5-4400 model"),
        (
            "LLC size",
            "97.5 MB / 96 MB",
            "unbounded directory (96 MB-equivalent)",
        ),
        (
            "Accelerator",
            "Agilex CXL-FPGA / CXL+PCIe NIC models",
            "calibrated profiles",
        ),
        ("HMC", "128 KB 4-way / 128 KB 4-way", "128 KB 4-way"),
        (
            "CXL expander",
            "Samsung 512 GB / expander model",
            "Type-3 model",
        ),
    ];
    for (k, paper, ours) in rows {
        println!("  {k:14} | paper: {paper:42} | here: {ours}");
    }
    let fpga = DeviceProfile::fpga_400mhz();
    println!(
        "  calibrated profiles: {} and {}",
        fpga.name,
        DeviceProfile::asic_1500mhz().name
    );
}

/// Prints Fig. 12 (NUMA latency distributions).
pub fn fig12(trials: usize) {
    println!("== Fig. 12: CXL.cache load latency by NUMA node (ns) ==");
    println!("  node |   p25 |   p50 |   p75 | paper p50");
    let sums = experiments::fig12(&DeviceProfile::fpga_400mhz(), trials);
    for (n, mut s) in sums.into_iter().enumerate() {
        println!(
            "  {n:4} | {:5.0} | {:5.0} | {:5.0} | {:9.0}",
            s.percentile(25.0),
            s.median(),
            s.percentile(75.0),
            reference::FIG12_NODE_MEDIANS_NS[n]
        );
    }
}

/// Prints Fig. 13 (latency tiers vs DMA@64 B) for both profiles.
pub fn fig13(trials: usize) {
    println!("== Fig. 13: median 64 B load latency (ns) ==");
    println!("  config       |  HMC hit |  LLC hit |  Mem hit | DMA@64B");
    for profile in [DeviceProfile::fpga_400mhz(), DeviceProfile::asic_1500mhz()] {
        let r = experiments::fig13(&profile, trials);
        println!(
            "  {:12} | {:8.1} | {:8.1} | {:8.1} | {:7.0}",
            r.config, r.hmc_ns, r.llc_ns, r.mem_ns, r.dma64_ns
        );
    }
    println!(
        "  paper (FPGA) | {:8.1} | {:8.1} | {:8.1} | {:7.0}",
        reference::FIG13_FPGA_NS.0,
        reference::FIG13_FPGA_NS.1,
        reference::FIG13_FPGA_NS.2,
        reference::FIG13_FPGA_NS.3
    );
}

/// Prints Fig. 14 (DMA latency vs message granularity).
pub fn fig14() {
    println!("== Fig. 14: H2D DMA read latency vs message size ==");
    println!("  size (B) | latency (us)");
    for (size, lat, _) in experiments::dma_sweep(&DeviceProfile::fpga_400mhz()) {
        println!("  {size:8} | {lat:10.2}");
    }
}

/// Prints Fig. 15 (bandwidth tiers vs DMA@64 B).
pub fn fig15() {
    println!("== Fig. 15: 64 B load bandwidth (GB/s) ==");
    println!("  config       |   HMC |   LLC |   Mem | DMA@64B");
    for profile in [DeviceProfile::fpga_400mhz(), DeviceProfile::asic_1500mhz()] {
        let r = experiments::fig15(&profile);
        println!(
            "  {:12} | {:5.2} | {:5.2} | {:5.2} | {:7.2}",
            r.config, r.hmc_gbps, r.llc_gbps, r.mem_gbps, r.dma64_gbps
        );
    }
    println!(
        "  paper (FPGA) | {:5.2} | {:5.2} | {:5.2} | {:7.2}",
        reference::FIG15_FPGA_GBPS.0,
        reference::FIG15_FPGA_GBPS.1,
        reference::FIG15_FPGA_GBPS.2,
        reference::FIG15_FPGA_GBPS.3
    );
}

/// Prints Fig. 16 (DMA bandwidth vs message granularity).
pub fn fig16() {
    println!("== Fig. 16: H2D DMA read bandwidth vs message size ==");
    println!("  size (B) | bandwidth (GB/s)");
    for (size, _, bw) in experiments::dma_sweep(&DeviceProfile::fpga_400mhz()) {
        println!("  {size:8} | {bw:10.2}");
    }
}

/// Prints Fig. 17 (RAO speedups).
pub fn fig17(ops: usize) {
    println!("== Fig. 17: CXL-NIC vs PCIe-NIC RAO throughput speedup ==");
    println!("  pattern  | speedup (paper band: CENTRAL 40.2x ... RAND 5.5x)");
    for (pattern, speedup) in experiments::fig17(&DeviceProfile::fpga_400mhz(), ops) {
        println!("  {:8} | {speedup:5.1}x", pattern.label());
    }
}

/// Prints Fig. 18 (RPC de/serialization).
pub fn fig18(limit: usize) {
    println!("== Fig. 18a: RPC deserialization time (us) ==");
    println!("  bench  | RpcNIC | CXL-NIC | speedup");
    let rows = experiments::fig18(limit);
    for r in &rows {
        println!(
            "  {:6} | {:6.0} | {:7.0} | {:6.2}x",
            r.bench.label(),
            r.deser_rpcnic_us,
            r.deser_cxl_us,
            r.deser_speedup()
        );
    }
    println!("== Fig. 18b: RPC serialization time (us) ==");
    println!("  bench  | RpcNIC | .cache w/o pf | .cache w/ pf | CXL.mem");
    for r in &rows {
        println!(
            "  {:6} | {:6.0} | {:13.0} | {:12.0} | {:7.0}",
            r.bench.label(),
            r.ser_us[0],
            r.ser_us[1],
            r.ser_us[2],
            r.ser_us[3]
        );
    }
    let avg: f64 = rows
        .iter()
        .map(|r| {
            (r.deser_speedup()
                + r.ser_speedup(SerializeMode::CxlCachePrefetch)
                + r.ser_speedup(SerializeMode::CxlMem))
                / 3.0
        })
        .sum::<f64>()
        / rows.len() as f64;
    println!("  mean CXL (de)serialization speedup: {avg:.2}x (paper: 1.86x)");
}

/// Prints the calibration table and MAPE (§VI-C2: "our simulator
/// achieves a mean absolute percentage error of 3%").
pub fn calibration(trials: usize) {
    println!("== Calibration: paper-measured vs simulated ==");
    for (label, r, m) in experiments::calibration_points(trials) {
        println!(
            "  {label:24} paper {r:9.2}   sim {m:9.2}   err {:+6.2}%",
            (m - r) / r * 100.0
        );
    }
    let err = experiments::calibration_mape(trials);
    println!(
        "  MAPE: {err:.2}%  (paper reports {:.0}%)",
        reference::PAPER_MAPE_PERCENT
    );
}

/// Prints the §VI headline numbers.
pub fn headline(trials: usize) {
    let profile = DeviceProfile::fpga_400mhz();
    let f13 = experiments::fig13(&profile, trials);
    let f15 = experiments::fig15(&profile);
    println!("== Headline (paper abstract / §VI) ==");
    println!(
        "  CXL.cache latency reduction vs DMA @64B: {:.0}% (paper: 68%)",
        (1.0 - f13.mem_ns / f13.dma64_ns) * 100.0
    );
    println!(
        "  CXL.cache bandwidth gain vs DMA @64B: {:.1}x (paper: 14.4x)",
        f15.mem_gbps / f15.dma64_gbps
    );
}

/// Prints workload shape statistics for the six RPC benches.
pub fn bench_shapes() {
    println!("== HyperProtoBench-like workload shapes ==");
    println!("  bench  | messages | mean bytes | mean depth | fields");
    for id in BenchId::all() {
        let w = genbench::generate(id, 7);
        println!(
            "  {:6} | {:8} | {:10.0} | {:10.1} | {:6}",
            id.label(),
            w.messages.len(),
            w.mean_wire_bytes(),
            w.mean_depth(),
            w.total_fields()
        );
    }
}

/// Prints the three paper §VIII tables: hierarchical vs flat coherence
/// for supernodes, the RPC prefetcher's gain per bench, and KV-store /
/// graph offload on the CXL vs PCIe paths.
pub fn ablations() {
    ablation_hierarchy();
    ablation_prefetch();
    ext_offload();
}

/// One supernode run: the share of accesses local agents absorb, and
/// the hierarchical and flat directory times.
fn supernode(nodes: usize, locality: f64) -> (f64, Tick, Tick) {
    let mut d = HierarchicalDirectory::new(nodes, HierarchyCost::default());
    let mut rng = SimRng::new(9);
    let mut hier = Tick::ZERO;
    let mut flat = Tick::ZERO;
    for i in 0..20_000u64 {
        let node = NodeId((i % nodes as u64) as usize);
        // With probability `locality`, access the node's own region.
        let line = if rng.chance(locality) {
            node.0 as u64 * 1024 + rng.below(256)
        } else {
            rng.below(nodes as u64 * 1024)
        };
        let addr = PhysAddr::new(line * 64);
        let cost = if rng.chance(0.2) {
            d.write(node, addr)
        } else {
            d.read(node, addr)
        };
        hier += cost;
        flat += d.flat_cost();
    }
    let s = d.stats();
    let absorbed = s.local_hits as f64 / (s.local_hits + s.global_consults) as f64;
    (absorbed, hier, flat)
}

/// How much global traffic local agents absorb as the node count
/// scales.
fn ablation_hierarchy() {
    println!("== Ablation: hierarchical coherence for supernodes (paper §VIII) ==");
    println!("  nodes | locality | local-absorbed | hier/flat time");
    for nodes in [2usize, 4, 8, 16] {
        for locality in [0.5, 0.9] {
            let (absorbed, hier, flat) = supernode(nodes, locality);
            println!(
                "  {nodes:5} | {locality:8.1} | {:13.1}% | {:.2}",
                absorbed * 100.0,
                hier.as_secs_f64() / flat.as_secs_f64()
            );
        }
    }
}

/// The multi-stride RPC prefetcher's contribution per bench (paper
/// §VI-E: 12% average improvement, minimum 3.6% on the deeply nested
/// bench).
fn ablation_prefetch() {
    println!("== Ablation: RPC prefetcher gain per bench ==");
    println!("  bench  | w/o prefetch (us) | w/ prefetch (us) | gain");
    let mut gains = Vec::new();
    for id in BenchId::all() {
        let mut w = genbench::generate(id, 7);
        w.messages.truncate(300);
        let mut m = RpcNicModel::asic();
        let no = m
            .serialize(&w, SerializeMode::CxlCacheNoPrefetch)
            .total
            .as_us_f64();
        let yes = m
            .serialize(&w, SerializeMode::CxlCachePrefetch)
            .total
            .as_us_f64();
        let gain = no / yes - 1.0;
        gains.push(gain);
        println!(
            "  {:6} | {no:17.0} | {yes:16.0} | {:+5.1}%",
            id.label(),
            gain * 100.0
        );
    }
    println!(
        "  mean gain: {:.1}% (paper: 12% average, 3.6% minimum)",
        gains.iter().sum::<f64>() / gains.len() as f64 * 100.0
    );
}

/// KV-store GET/PUT and graph-BFS offload on the CXL vs PCIe paths.
fn ext_offload() {
    let profile = DeviceProfile::fpga_400mhz();
    println!("== Extension: KV-store / graph offload (paper §VIII) ==");
    let kv = kvstore_offload(
        &profile,
        KvConfig {
            keys: 1 << 14,
            ops: 2000,
            ..KvConfig::default()
        },
    );
    println!(
        "  KV GET/PUT ({} ops):   PCIe {:.1} us, CXL {:.1} us -> {:.1}x",
        kv.ops,
        kv.pcie.as_us_f64(),
        kv.cxl.as_us_f64(),
        kv.speedup()
    );
    let gr = graph_offload(&profile, 1024, 6);
    println!(
        "  BFS stream ({} accesses): PCIe {:.1} us, CXL {:.1} us -> {:.1}x",
        gr.ops,
        gr.pcie.as_us_f64(),
        gr.cxl.as_us_f64(),
        gr.speedup()
    );
}
