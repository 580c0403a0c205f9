//! `figures_and_faults`: every paper regenerator at the `simcxl-report`
//! trial counts, then the three fault arcs and the three rebalance cases
//! at their full populations, all single-threaded.
//!
//! The only workload that exercises the CXL, PCIe, NIC and protowire
//! models, cohet-os migration, fault hooks, `rehome` and the rebalance
//! controller; the only one that builds many small engines; and the one
//! that carries the calibration error against the paper.

use crate::trace::Tracer;
use crate::{MemStream, Pass, Shape, Workload};
use cohet::experiments;
use cohet::{DeviceProfile, FaultCase, RebalanceCase};
use sim_core::{mape, Tick};
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};
use simcxl_workloads::lsu;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default seed of the fault cases (the fault suite's pin seed).
pub const FAULT_SEED: u64 = 0xFA17;
/// Default seed of the rebalance cases (the rebalance suite's pin seed).
pub const REBALANCE_SEED: u64 = 0x5EBA;

/// Trial counts and populations of one size.
#[derive(Debug, Clone)]
pub struct FiguresAndFaults {
    /// `simcxl-report` trial counts (fig12, fig13/calibration, fig17 ops,
    /// fig18 message limit with 0 = full) or a reduced set.
    pub trials: (usize, usize, usize, usize),
    /// Fault case populations.
    pub faults: [(FaultCase, u64); 3],
    /// Rebalance case background populations.
    pub rebalance: [(RebalanceCase, u64); 3],
    /// Whether the fault recovery band is gated (full populations only:
    /// small ones are too noisy for it).
    pub strict_recovery: bool,
}

impl FiguresAndFaults {
    /// The benchmark's workload.
    pub fn full() -> Self {
        FiguresAndFaults {
            trials: (200, 100, 2048, 0),
            faults: [
                (FaultCase::FlakyLink, 48_000),
                (FaultCase::StallingExpander, 32_000),
                (FaultCase::DrainUnderLoad, 48_000),
            ],
            rebalance: [
                (RebalanceCase::DriftingHotSet, 3_600),
                (RebalanceCase::StationaryHotSet, 2_400),
                (RebalanceCase::UniformNoop, 2_400),
            ],
            strict_recovery: true,
        }
    }

    /// Small trial counts and the quick-mode populations of the fault
    /// and rebalance suites (whose pins exist), for the self-test.
    #[cfg(test)]
    pub fn quick() -> Self {
        FiguresAndFaults {
            trials: (8, 4, 256, 30),
            faults: [
                (FaultCase::FlakyLink, 4_000),
                (FaultCase::StallingExpander, 2_400),
                (FaultCase::DrainUnderLoad, 4_000),
            ],
            rebalance: [
                (RebalanceCase::DriftingHotSet, 360),
                (RebalanceCase::StationaryHotSet, 240),
                (RebalanceCase::UniformNoop, 240),
            ],
            strict_recovery: false,
        }
    }
}

/// The two calibrated device profiles and the run's seeds.
pub struct Input {
    fpga: DeviceProfile,
    asic: DeviceProfile,
    fault_seed: u64,
    rebalance_seed: u64,
}

/// Order-sensitive digest of a figure's numbers.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |acc, v| acc.rotate_left(7).wrapping_add(v.to_bits()))
}

/// Calibration points of one regenerator run: `(reference, simulated)`.
pub fn calibration(trials: usize) -> Vec<(f64, f64)> {
    experiments::calibration_points(trials)
        .into_iter()
        .map(|(_, r, m)| (r, m))
        .collect()
}

/// The calibration MAPE (percent) at the `simcxl-report` trial count.
pub fn calib_mape_pct() -> f64 {
    mape(&calibration(100))
}

/// `calib_mape_pct` as recorded when the benchmark was defined; any
/// other value means the model's output moved.
pub const CALIB_MAPE_PCT: f64 = 1.0694582459777737;

const FIGURE_SPANS: [&str; 7] = [
    "figures.fig12",
    "figures.fig13",
    "figures.fig14",
    "figures.fig15",
    "figures.fig16",
    "figures.fig17",
    "figures.fig18",
];
const FAULT_SPANS: [&str; 3] = [
    "faults.flaky_link",
    "faults.stalling_expander",
    "faults.drain_under_load",
];
const REBALANCE_SPANS: [&str; 3] = [
    "rebalance.drifting_hot_set",
    "rebalance.stationary_hot_set",
    "rebalance.uniform_noop",
];

impl Workload for FiguresAndFaults {
    type Input = Input;

    fn pins(&self) -> Vec<(&'static str, u64)> {
        if self.trials == Self::full().trials {
            vec![
                ("figures.fig12", 0xba2bfccce8013300),
                ("figures.fig13", 0x55f4d480b5935d2b),
                ("figures.fig14", 0xc621846784daf2b2),
                ("figures.fig15", 0x9d25bfad69e35259),
                ("figures.fig16", 0xa6f69e2571787db1),
                ("figures.fig17", 0xc445626a83345157),
                ("figures.fig18", 0x133d32b1f4170cfd),
                ("calibration.mape_bits", CALIB_MAPE_PCT.to_bits()),
                ("faults.flaky_link", 0x9afef3c7575426d3),
                ("faults.stalling_expander", 0xf09d0be2e00aff31),
                ("faults.drain_under_load", 0x3e1e19b626616091),
                ("rebalance.drifting_hot_set", 0x7551a884452a80c7),
                ("rebalance.stationary_hot_set", 0xc4682cd5dddc7377),
                ("rebalance.uniform_noop", 0xeed41cc518f1d823),
            ]
        } else {
            vec![
                ("faults.flaky_link", 0x74416ba7608fd8db),
                ("faults.stalling_expander", 0x44a64054528d95f9),
                ("faults.drain_under_load", 0x49559fcbca042abf),
                ("rebalance.drifting_hot_set", 0xfe184be115abd013),
                ("rebalance.stationary_hot_set", 0x3453e1d84b80bbc2),
                ("rebalance.uniform_noop", 0x451d27e63b2d8cd5),
            ]
        }
    }

    fn setup(&self, seed: Option<u64>, tr: &mut Tracer) -> Input {
        let (fpga, asic) = tr.span("cohet.profiles", || {
            (DeviceProfile::fpga_400mhz(), DeviceProfile::asic_1500mhz())
        });
        Input {
            fpga,
            asic,
            fault_seed: seed.unwrap_or(FAULT_SEED),
            rebalance_seed: seed.unwrap_or(REBALANCE_SEED),
        }
    }

    fn pass(&self, input: &mut Input, tr: &mut Tracer) -> Pass {
        let (fpga, asic) = (&input.fpga, &input.asic);
        let (t12, t13, ops17, limit18) = self.trials;
        let mut digests = Vec::new();
        let mut figure = |name: &'static str, tr: &mut Tracer, f: &mut dyn FnMut() -> Vec<f64>| {
            let values = tr.span(name, f);
            digests.push((name, digest(values)));
        };
        figure("figures.fig12", tr, &mut || {
            experiments::fig12(fpga, t12)
                .iter()
                .flat_map(|s| s.samples().to_vec())
                .collect()
        });
        figure("figures.fig13", tr, &mut || {
            [fpga, asic]
                .into_iter()
                .flat_map(|p| {
                    let r = experiments::fig13(p, t13);
                    [r.hmc_ns, r.llc_ns, r.mem_ns, r.dma64_ns]
                })
                .collect()
        });
        figure("figures.fig14", tr, &mut || {
            experiments::dma_sweep(fpga)
                .into_iter()
                .map(|(_, lat, _)| lat)
                .collect()
        });
        figure("figures.fig15", tr, &mut || {
            [fpga, asic]
                .into_iter()
                .flat_map(|p| {
                    let r = experiments::fig15(p);
                    [r.hmc_gbps, r.llc_gbps, r.mem_gbps, r.dma64_gbps]
                })
                .collect()
        });
        figure("figures.fig16", tr, &mut || {
            experiments::dma_sweep(fpga)
                .into_iter()
                .map(|(_, _, bw)| bw)
                .collect()
        });
        figure("figures.fig17", tr, &mut || {
            experiments::fig17(fpga, ops17)
                .into_iter()
                .map(|(_, speedup)| speedup)
                .collect()
        });
        figure("figures.fig18", tr, &mut || {
            experiments::fig18(limit18)
                .into_iter()
                .flat_map(|r| {
                    let mut v = vec![r.deser_rpcnic_us, r.deser_cxl_us];
                    v.extend(r.ser_us);
                    v
                })
                .collect()
        });
        let points = tr.span("figures.calibration", || calibration(t13));
        digests.push(("calibration.mape_bits", mape(&points).to_bits()));

        // Every figure and calibration point is one operation.
        let mut attempted = (FIGURE_SPANS.len() + points.len()) as u64;
        let mut failed = 0u64;
        let mut accesses = 0u64;
        let (mut fault_accesses, mut fault_events) = (0u64, 0u64);
        let (mut link_retries, mut port_stalled, mut moved_stripes) = (0u64, 0u64, 0u64);
        let mut gates_ok = true;
        for ((case, clients), span) in self.faults.iter().zip(FAULT_SPANS) {
            let out = tr.span(span, || case.run(*clients, input.fault_seed, 1));
            gates_ok &=
                catch_unwind(AssertUnwindSafe(|| out.assert_gates(self.strict_recovery))).is_ok();
            attempted += clients;
            failed += out.capped + clients.saturating_sub(out.completed + out.capped);
            accesses += out.accesses;
            fault_accesses += out.accesses;
            fault_events += out.events;
            link_retries += out.link_retries;
            port_stalled += out.port_stalled;
            digests.push((span, out.checksum));
        }
        for ((case, clients), span) in self.rebalance.iter().zip(REBALANCE_SPANS) {
            let out = tr.span(span, || case.run(*clients, input.rebalance_seed, 1));
            gates_ok &= catch_unwind(AssertUnwindSafe(|| out.assert_gates())).is_ok();
            for run in [&out.adaptive, &out.static_run] {
                attempted += out.clients;
                failed += run.capped + out.clients.saturating_sub(run.completed + run.capped);
                accesses += run.accesses;
            }
            moved_stripes += out.adaptive.total_moved_stripes();
            digests.push((span, out.checksum));
        }
        if !gates_ok {
            failed = attempted;
        }
        Pass {
            attempted,
            failed,
            accesses,
            digests,
            counters: vec![
                ("faults.link_retries", link_retries as f64),
                ("faults.port_stalled", port_stalled as f64),
                ("rebalance.moved_stripes", moved_stripes as f64),
            ],
            // The fault cases do not expose their simulated span; their
            // accesses are replayed open loop at a 10 ns spacing.
            shape: Shape {
                requests: fault_accesses,
                events: fault_events,
                span_ps: Tick::from_ns(10 * fault_accesses).as_ps(),
                window_ps: Tick::from_us(1).as_ps(),
            },
            dispatch_spans: &FAULT_SPANS,
        }
    }

    fn mem_stream(&self, _seed: Option<u64>) -> MemStream {
        // fig15's memory-hit bandwidth burst over the default engine
        // memory, repeated 64 times.
        let mut mi = MemoryInterface::new();
        mi.add_memory(
            AddrRange::new(PhysAddr::new(0), 32 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        let burst = lsu::bandwidth_burst(PhysAddr::new(0x100_0000));
        MemStream {
            mi,
            gap_ps: 1_000,
            accesses: (0..64)
                .flat_map(|_| burst.iter().map(|r| (r.addr, false)))
                .collect(),
        }
    }
}
