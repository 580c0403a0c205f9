//! The paper-fidelity suite behind `BENCH_figures.json`: Figs. 12–18,
//! the calibration table, the §VI headline ratios, the RPC workload
//! shapes and the §VIII ablations. Each section lists its simulated
//! values beside the paper's (where the paper prints one) with their
//! relative error, and tags where its numbers come from: `input` (the
//! paper's values feed the model), `fitted` (the device profiles were
//! tuned to them), `predicted` (no paper value feeds the model),
//! `unknown` (the constants say they were calibrated, not to what) or
//! `model` (the paper prints no number).
//!
//! `full` mode uses the trial counts of the committed report, `quick`
//! mode those of the unit tests. `SUITE` pins the checksums of the
//! seven figures and the calibration; the full-mode pins equal
//! `perfbench`'s figure digests. Each section function asserts its
//! paper tolerances before the report is produced.

use crate::report::{Json, Suite};
use cohet::experiments::{self, Fig13Row, Fig15Row};
use cohet::extensions::{graph_offload, kvstore_offload};
use cohet::profile::reference;
use cohet::DeviceProfile;
use protowire::{genbench, BenchId};
use sim_core::{mape, Summary};
use simcxl_cxl::{CxlMemConfig, CxlMemPath};
use simcxl_nic::{RpcNicModel, SerializeMode};
use simcxl_workloads::circustent::CtPattern;
use simcxl_workloads::kvstore::KvConfig;

/// The `simcxl-figures/v1` suite. Its pins are the section checksums
/// `(name, full, quick)` of the seven figures and the calibration.
pub(crate) const SUITE: Suite = Suite {
    name: "figures",
    schema: "simcxl-figures/v1",
    file: "BENCH_figures.json",
    run,
    pins: &[
        ("fig12", 0xba2bfccce8013300, 0x9c2308ae857b1a40),
        ("fig13", 0x55f4d480b5935d2b, 0x7707ac645e64e9f3),
        ("fig14", 0xc621846784daf2b2, 0xc621846784daf2b2),
        ("fig15", 0x9d25bfad69e35259, 0x9d25bfad69e35259),
        ("fig16", 0xa6f69e2571787db1, 0xa6f69e2571787db1),
        ("fig17", 0xc445626a83345157, 0x1d1b8a184b46c581),
        ("fig18", 0x133d32b1f4170cfd, 0xd7659a707fc15021),
        ("calibration", 0x3ff11c803fee97ce, 0x3ff2d8424fdd10e9),
    ],
    columns: &[("provenance", "provenance"), ("checksum", "checksum")],
};

/// Paper values no experiment feeds back into the model (§VI-D, §VI-E).
const FIG17_RAND_X: f64 = 5.5;
const FIG17_CENTRAL_X: f64 = 40.2;
const FIG18_MEAN_SPEEDUP_X: f64 = 1.86;
const PREFETCH_MEAN_GAIN_PCT: f64 = 12.0;
const PREFETCH_MIN_GAIN_PCT: f64 = 3.6;
const CXL_MEM_CONSTRUCTION_PCT: f64 = 8.0;

/// `(label, paper value, simulated value)`.
type Row = (String, Option<f64>, f64);

fn row(label: impl Into<String>, paper: Option<f64>, model: f64) -> Row {
    (label.into(), paper, model)
}

/// Order-sensitive fold of the raw bits of a section's values (the
/// `perfbench` figure digest).
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |acc, v| acc.rotate_left(7).wrapping_add(v.to_bits()))
}

/// A section whose checksum folds `folded`.
fn section(provenance: &str, folded: impl IntoIterator<Item = f64>, rows: &[Row]) -> Json {
    let num = |x: f64| Json::fixed(x, 4);
    let rows = rows.iter().map(|(label, paper, model)| {
        Json::obj([
            ("label", label.as_str().into()),
            ("paper", paper.map_or(Json::Null, num)),
            ("model", num(*model)),
            (
                "rel_err",
                paper.map_or(Json::Null, |p| num((model - p) / p)),
            ),
        ])
    });
    Json::obj([
        ("provenance", provenance.into()),
        ("checksum", Json::hex(digest(folded))),
        ("rows", Json::Arr(rows.collect())),
    ])
}

/// A section whose checksum folds its own simulated values.
fn model_section(provenance: &str, rows: &[Row]) -> Json {
    section(provenance, rows.iter().map(|r| r.2), rows)
}

/// Asserts `rows`' paper values are matched within `tolerance`.
fn assert_within(rows: &[Row], tolerance: f64) {
    for (label, paper, model) in rows {
        let paper = paper.expect("a gated row has a paper value");
        let err = ((model - paper) / paper).abs();
        assert!(
            err < tolerance,
            "{label}: {model:.2} vs paper {paper:.2} ({err:.3} off, tolerance {tolerance})"
        );
    }
}

/// Runs every section and asserts the paper tolerances; the report body
/// of `SUITE` (see README for the field-by-field description).
///
/// # Panics
///
/// Panics if a simulated value falls outside its paper tolerance.
fn run(quick: bool) -> Json {
    // Fig. 12 trials per node, Fig. 13 / calibration trials, Fig. 17 RAO
    // ops and the Fig. 18 message limit (0 = every message).
    let (t12, t13, ops17, limit18) = if quick {
        (8, 4, 384, 30)
    } else {
        (200, 100, 2048, 0)
    };
    let fpga = DeviceProfile::fpga_400mhz();
    let asic = DeviceProfile::asic_1500mhz();
    let f13 = [
        experiments::fig13(&fpga, t13),
        experiments::fig13(&asic, t13),
    ];
    let f15 = [experiments::fig15(&fpga), experiments::fig15(&asic)];
    // Figs. 14 and 16 are one DMA sweep; only its 256 KB bandwidth is
    // a paper (calibration) point.
    let sweep = experiments::dma_sweep(&fpga);
    let latency: Vec<Row> = sweep
        .iter()
        .map(|&(size, us, _)| row(format!("{size} B (us)"), None, us))
        .collect();
    let bandwidth: Vec<Row> = sweep
        .iter()
        .map(|&(size, _, gbps)| {
            let paper = (size == 256 * 1024).then_some(reference::FIG16_DMA_256K_GBPS);
            row(format!("{size} B (GB/s)"), paper, gbps)
        })
        .collect();
    Json::obj([
        ("fig12", fig12(&fpga, t12)),
        ("fig13", fig13(&f13)),
        ("fig14", model_section("model", &latency)),
        ("fig15", fig15(&f15)),
        ("fig16", model_section("fitted", &bandwidth)),
        ("fig17", fig17(&fpga, ops17)),
        ("fig18", fig18(limit18)),
        ("calibration", calibration(t13)),
        ("headline", headline(&f13[0], &f15[0])),
        ("shapes", shapes()),
        ("prefetch", prefetch()),
        ("offload", offload(&fpga)),
    ])
}

/// Per-node p25 / p50 / p75; the checksum folds every sample in
/// recorded order. Gate: node 3 (farthest) sits 60–120 ns above node 7
/// (nearest), and every remote-socket node above local node 6.
fn fig12(fpga: &DeviceProfile, trials: usize) -> Json {
    let sums = experiments::fig12(fpga, trials);
    let samples: Vec<f64> = sums.iter().flat_map(Summary::samples).collect();
    let mut rows = Vec::new();
    let mut medians = [0.0; 8];
    for (n, mut s) in sums.into_iter().enumerate() {
        medians[n] = s.median();
        let paper = reference::FIG12_NODE_MEDIANS_NS[n];
        rows.push(row(format!("node {n} p25 (ns)"), None, s.percentile(25.0)));
        rows.push(row(format!("node {n} p50 (ns)"), Some(paper), medians[n]));
        rows.push(row(format!("node {n} p75 (ns)"), None, s.percentile(75.0)));
    }
    assert!(medians[3] > medians[7] + 60.0, "gap too small: {medians:?}");
    assert!(medians[3] < medians[7] + 120.0, "gap too big: {medians:?}");
    for n in 0..4 {
        assert!(
            medians[n] > medians[6],
            "remote socket node{n} faster than local: {medians:?}"
        );
    }
    section("input", samples, &rows)
}

/// Median latency per tier and DMA at 64 B, both profiles.
fn fig13(f13: &[Fig13Row; 2]) -> Json {
    let mut all = Vec::new();
    for (r, paper, tolerance) in [
        (&f13[0], reference::FIG13_FPGA_NS, 0.08),
        (&f13[1], reference::FIG13_ASIC_NS, 0.10),
    ] {
        let rows = [
            ("HMC hit", paper.0, r.hmc_ns),
            ("LLC hit", paper.1, r.llc_ns),
            ("Mem hit", paper.2, r.mem_ns),
            ("DMA@64B", paper.3, r.dma64_ns),
        ]
        .map(|(tier, p, m)| row(format!("{} {tier} (ns)", r.config), Some(p), m));
        assert_within(&rows, tolerance);
        all.extend(rows);
    }
    model_section("fitted", &all)
}

/// Bandwidth per tier and DMA at 64 B, both profiles; the FPGA points
/// are gated within 10%.
fn fig15(f15: &[Fig15Row; 2]) -> Json {
    let mut all = Vec::new();
    for (r, paper) in [
        (&f15[0], reference::FIG15_FPGA_GBPS),
        (&f15[1], reference::FIG15_ASIC_GBPS),
    ] {
        all.extend(
            [
                ("HMC", paper.0, r.hmc_gbps),
                ("LLC", paper.1, r.llc_gbps),
                ("Mem", paper.2, r.mem_gbps),
                ("DMA@64B", paper.3, r.dma64_gbps),
            ]
            .map(|(tier, p, m)| row(format!("{} {tier} (GB/s)", r.config), Some(p), m)),
        );
    }
    assert_within(&all[..4], 0.10);
    model_section("fitted", &all)
}

/// RAO speedup of the CXL-NIC over the PCIe-NIC per CircusTent pattern.
/// Gate: CENTRAL within 25–55×, RAND within 4–10×, and
/// CENTRAL > STRIDE1 > SCATTER.
fn fig17(fpga: &DeviceProfile, ops: usize) -> Json {
    let speedups = experiments::fig17(fpga, ops);
    let get = |p: CtPattern| speedups.iter().find(|r| r.0 == p).expect("every pattern").1;
    let (central, rand) = (get(CtPattern::Central), get(CtPattern::Rand));
    assert!(central > 25.0 && central < 55.0, "CENTRAL {central:.1}x");
    assert!(rand > 4.0 && rand < 10.0, "RAND {rand:.1}x");
    assert!(get(CtPattern::Stride1) > get(CtPattern::Scatter));
    assert!(central > get(CtPattern::Stride1));
    let rows: Vec<Row> = speedups
        .iter()
        .map(|&(p, x)| {
            let paper = match p {
                CtPattern::Rand => Some(FIG17_RAND_X),
                CtPattern::Central => Some(FIG17_CENTRAL_X),
                _ => None,
            };
            row(format!("{} speedup (x)", p.label()), paper, x)
        })
        .collect();
    model_section("predicted", &rows)
}

/// RPC (de)serialization times per bench, the mean CXL speedup and the
/// CXL.mem message-construction overhead; the checksum folds the times.
/// Gate: every CXL design beats the RpcNIC (deserialization by more
/// than 5%), and CXL.mem serializes at least as fast as CXL.cache with
/// the prefetcher.
fn fig18(limit: usize) -> Json {
    let results = experiments::fig18(limit);
    let mut rows = Vec::new();
    let mut times = Vec::new();
    let mut speedup_sum = 0.0;
    for r in &results {
        let bench = r.bench.label();
        let deser = r.deser_speedup();
        assert!(deser > 1.05, "{bench} deser speedup {deser:.2}");
        for mode in &SerializeMode::all()[1..] {
            let x = r.ser_speedup(*mode);
            assert!(x > 1.0, "{bench} {mode:?} {x:.2}");
        }
        assert!(
            r.ser_speedup(SerializeMode::CxlMem) >= r.ser_speedup(SerializeMode::CxlCachePrefetch),
            "{bench}: CXL.mem must be fastest"
        );
        speedup_sum += (deser
            + r.ser_speedup(SerializeMode::CxlCachePrefetch)
            + r.ser_speedup(SerializeMode::CxlMem))
            / 3.0;
        times.extend([r.deser_rpcnic_us, r.deser_cxl_us]);
        times.extend(r.ser_us);
        let deser_rows = [
            ("deser RpcNIC (us)", r.deser_rpcnic_us),
            ("deser CXL-NIC (us)", r.deser_cxl_us),
            ("deser speedup (x)", deser),
        ];
        rows.extend(deser_rows.map(|(what, v)| row(format!("{bench} {what}"), None, v)));
        for (mode, us) in SerializeMode::all().into_iter().zip(r.ser_us) {
            rows.push(row(format!("{bench} ser {} (us)", mode.label()), None, us));
        }
    }
    let mean = speedup_sum / results.len() as f64;
    let label = "mean CXL (de)serialization speedup (x)";
    rows.push(row(label, Some(FIG18_MEAN_SPEEDUP_X), mean));
    // 64 KB built in 64 B pieces in device memory vs host DDR5 streaming.
    let mut path = CxlMemPath::new(CxlMemConfig::expander_default());
    let overhead = path.construction_overhead(64 * 1024, 64, 24.0) * 100.0;
    let label = "CXL.mem construction overhead (%)";
    rows.push(row(label, Some(CXL_MEM_CONSTRUCTION_PCT), overhead));
    section("unknown", times, &rows)
}

/// The 17 calibration points and their MAPE, which the checksum folds
/// alone. Gate: MAPE under 5%.
fn calibration(trials: usize) -> Json {
    let points = experiments::calibration_points(trials);
    let pairs: Vec<(f64, f64)> = points.iter().map(|&(_, r, m)| (r, m)).collect();
    let err = mape(&pairs);
    assert!(err < 5.0, "calibration MAPE {err:.2}% too large");
    let mut rows: Vec<Row> = points
        .into_iter()
        .map(|(l, r, m)| row(l, Some(r), m))
        .collect();
    rows.push(row("MAPE (%)", Some(reference::PAPER_MAPE_PERCENT), err));
    section("fitted", [err], &rows)
}

/// §VI: CXL.cache cuts 64 B latency by 68% and multiplies bandwidth by
/// 14.4× over DMA. Gate: the cut within 5 points, the gain within 15%.
fn headline(f13: &Fig13Row, f15: &Fig15Row) -> Json {
    let reduction = 1.0 - f13.mem_ns / f13.dma64_ns;
    let gain = f15.mem_gbps / f15.dma64_gbps;
    assert!(
        (reduction - reference::HEADLINE_LATENCY_REDUCTION).abs() < 0.05,
        "latency reduction {reduction:.2}"
    );
    assert!(
        (gain / reference::HEADLINE_BW_RATIO - 1.0).abs() < 0.15,
        "bandwidth ratio {gain:.1}"
    );
    let cut = reduction * 100.0;
    let paper_cut = reference::HEADLINE_LATENCY_REDUCTION * 100.0;
    let paper_gain = reference::HEADLINE_BW_RATIO;
    let rows = [
        row("latency cut vs DMA@64B (%)", Some(paper_cut), cut),
        row("bandwidth gain vs DMA@64B (x)", Some(paper_gain), gain),
    ];
    model_section("fitted", &rows)
}

/// The six HyperProtoBench-like workloads Fig. 18 runs.
fn shapes() -> Json {
    let mut rows = Vec::new();
    for id in BenchId::all() {
        let w = genbench::generate(id, genbench::FIG18_SEED);
        let bench = id.label();
        let shape = [
            ("messages", w.messages.len() as f64),
            ("mean bytes", w.mean_wire_bytes()),
            ("mean depth", w.mean_depth()),
            ("fields", w.total_fields() as f64),
        ];
        rows.extend(shape.map(|(what, v)| row(format!("{bench} {what}"), None, v)));
    }
    model_section("model", &rows)
}

/// The multi-stride RPC prefetcher's gain per bench over its first 300
/// messages (§VI-E: 12% on average, 3.6% at least).
fn prefetch() -> Json {
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for id in BenchId::all() {
        let mut w = genbench::generate(id, genbench::FIG18_SEED);
        w.messages.truncate(300);
        let mut m = RpcNicModel::asic();
        let mut us = |mode| m.serialize(&w, mode).total.as_us_f64();
        let no = us(SerializeMode::CxlCacheNoPrefetch);
        let yes = us(SerializeMode::CxlCachePrefetch);
        let gain = (no / yes - 1.0) * 100.0;
        gains.push(gain);
        let bench = id.label();
        rows.push(row(format!("{bench} w/o prefetch (us)"), None, no));
        rows.push(row(format!("{bench} w/ prefetch (us)"), None, yes));
        rows.push(row(format!("{bench} gain (%)"), None, gain));
    }
    let mean = gains.iter().sum::<f64>() / gains.len() as f64;
    let min = gains.iter().copied().fold(f64::INFINITY, f64::min);
    rows.push(row("mean gain (%)", Some(PREFETCH_MEAN_GAIN_PCT), mean));
    rows.push(row("min gain (%)", Some(PREFETCH_MIN_GAIN_PCT), min));
    model_section("unknown", &rows)
}

/// §VIII's KV-store GET/PUT and graph-BFS offload on the PCIe and CXL
/// paths.
fn offload(fpga: &DeviceProfile) -> Json {
    let kv = kvstore_offload(
        fpga,
        KvConfig {
            keys: 1 << 14,
            ops: 2000,
            ..KvConfig::default()
        },
    );
    let bfs = graph_offload(fpga, 1024, 6);
    let mut rows = Vec::new();
    for (name, unit, r) in [("KV GET/PUT", "ops", kv), ("BFS stream", "accesses", bfs)] {
        rows.push(row(format!("{name} {unit}"), None, r.ops as f64));
        rows.push(row(format!("{name} PCIe (us)"), None, r.pcie.as_us_f64()));
        rows.push(row(format!("{name} CXL (us)"), None, r.cxl.as_us_f64()));
        rows.push(row(format!("{name} speedup (x)"), None, r.speedup()));
    }
    model_section("model", &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned sections are exactly the seven figures and the
    /// calibration, in report order.
    #[test]
    fn pins_cover_every_figure() {
        let report = crate::report::tests::quick_report(&SUITE);
        let figures: Vec<&str> = report
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| k.starts_with("fig") || *k == "calibration")
            .collect();
        let pinned: Vec<&str> = SUITE.pins.iter().map(|&(name, ..)| name).collect();
        assert_eq!(pinned, figures);
    }

    #[test]
    fn determinism_check_flags_drift_and_missing_fields() {
        crate::report::tests::check_suite(&SUITE);
    }
}
