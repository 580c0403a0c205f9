//! Bank/row/channel DRAM timing models.
//!
//! The model captures the three effects that matter for the paper's
//! experiments: row-buffer locality (open-row hits are fast), bank-level
//! parallelism (independent banks overlap), and channel bandwidth (the data
//! bus serializes bursts). Absolute latencies come from per-kind presets
//! and can be overridden for calibration.

use crate::addr::PhysAddr;
use sim_core::{Link, LinkConfig, Tick};

/// Supported memory technologies (gem5's native models in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// DDR4-3200.
    Ddr4_3200,
    /// DDR5-4400 (SimCXL's simulated host memory).
    Ddr5_4400,
    /// DDR5-4800 (the hardware testbed's host memory).
    Ddr5_4800,
    /// High-bandwidth memory, one stack.
    Hbm2,
    /// Non-volatile memory (Optane-like read/write asymmetry).
    Nvm,
}

/// Timing/geometry configuration for one memory device.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Technology preset the config was derived from.
    pub kind: DramKind,
    /// Number of independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size per bank in bytes.
    pub row_bytes: u64,
    /// Column access latency (row already open).
    pub t_cas: Tick,
    /// Row activate latency (row closed).
    pub t_rcd: Tick,
    /// Precharge latency (row conflict).
    pub t_rp: Tick,
    /// Additional write-recovery cost applied to writes.
    pub t_wr: Tick,
    /// Per-channel data bus bandwidth in GB/s.
    pub channel_gbps: f64,
}

impl DramConfig {
    /// Preset timings for a technology.
    pub fn preset(kind: DramKind) -> Self {
        match kind {
            DramKind::Ddr4_3200 => DramConfig {
                kind,
                channels: 2,
                banks_per_channel: 16,
                row_bytes: 8 * 1024,
                t_cas: Tick::from_ps(13_750),
                t_rcd: Tick::from_ps(13_750),
                t_rp: Tick::from_ps(13_750),
                t_wr: Tick::from_ps(15_000),
                channel_gbps: 25.6,
            },
            DramKind::Ddr5_4400 => DramConfig {
                kind,
                channels: 2,
                banks_per_channel: 32,
                row_bytes: 8 * 1024,
                t_cas: Tick::from_ps(14_545),
                t_rcd: Tick::from_ps(14_545),
                t_rp: Tick::from_ps(14_545),
                t_wr: Tick::from_ps(15_000),
                channel_gbps: 35.2,
            },
            DramKind::Ddr5_4800 => DramConfig {
                kind,
                channels: 2,
                banks_per_channel: 32,
                row_bytes: 8 * 1024,
                t_cas: Tick::from_ps(13_333),
                t_rcd: Tick::from_ps(13_333),
                t_rp: Tick::from_ps(13_333),
                t_wr: Tick::from_ps(15_000),
                channel_gbps: 38.4,
            },
            DramKind::Hbm2 => DramConfig {
                kind,
                channels: 8,
                banks_per_channel: 16,
                row_bytes: 2 * 1024,
                t_cas: Tick::from_ps(14_000),
                t_rcd: Tick::from_ps(14_000),
                t_rp: Tick::from_ps(14_000),
                t_wr: Tick::from_ps(16_000),
                channel_gbps: 32.0,
            },
            DramKind::Nvm => DramConfig {
                kind,
                channels: 1,
                banks_per_channel: 16,
                row_bytes: 4 * 1024,
                t_cas: Tick::from_ns(170),
                t_rcd: Tick::from_ns(130),
                t_rp: Tick::from_ns(50),
                t_wr: Tick::from_ns(500),
                channel_gbps: 6.4,
            },
        }
    }
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Tick,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus: Link,
}

/// An event-free DRAM device model: callers ask "access at time T" and get
/// back the completion time, with bank and bus contention accounted.
#[derive(Debug)]
pub struct DramModel {
    config: DramConfig,
    channels: Vec<Channel>,
    /// `(channel, bank, lines-per-row)` shift amounts: the geometry is
    /// power-of-two, so the address decomposition is shifts and masks.
    map_shifts: (u32, u32, u32),
    reads: u64,
}

impl DramModel {
    /// Creates an idle memory with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the channel count, the banks per channel and the
    /// cachelines per row are all powers of two (every preset is).
    pub fn new(config: DramConfig) -> Self {
        let lines_per_row = config.row_bytes / crate::CACHELINE_BYTES;
        assert!(
            config.channels.is_power_of_two()
                && config.banks_per_channel.is_power_of_two()
                && lines_per_row.is_power_of_two(),
            "DRAM geometry must be powers of two: {} channels, {} banks, {} lines per row",
            config.channels,
            config.banks_per_channel,
            lines_per_row
        );
        let map_shifts = (
            config.channels.trailing_zeros(),
            config.banks_per_channel.trailing_zeros(),
            lines_per_row.trailing_zeros(),
        );
        let channels = (0..config.channels)
            .map(|_| Channel {
                banks: vec![
                    Bank {
                        open_row: None,
                        busy_until: Tick::ZERO,
                    };
                    config.banks_per_channel as usize
                ],
                bus: Link::new(LinkConfig::with_gbps(Tick::ZERO, config.channel_gbps)),
            })
            .collect();
        DramModel {
            config,
            channels,
            map_shifts,
            reads: 0,
        }
    }

    /// The `(channel, bank, row)` an address maps to: cacheline
    /// interleave across channels, then banks, then rows.
    fn map(&self, addr: PhysAddr) -> (usize, usize, u64) {
        let (ch_sh, bank_sh, lpr_sh) = self.map_shifts;
        let line = addr.raw() / crate::CACHELINE_BYTES;
        let ch = (line & ((1 << ch_sh) - 1)) as usize;
        let per_ch = line >> ch_sh;
        let bank = (per_ch & ((1 << bank_sh) - 1)) as usize;
        let row = per_ch >> (bank_sh + lpr_sh);
        (ch, bank, row)
    }

    /// Performs a read of `bytes` at `addr` starting no earlier than `now`;
    /// returns the completion time.
    pub fn read(&mut self, now: Tick, addr: PhysAddr, bytes: u64) -> Tick {
        self.reads += 1;
        self.access(now, addr, bytes, false)
    }

    /// Performs a write of `bytes` at `addr`; returns the completion time.
    pub fn write(&mut self, now: Tick, addr: PhysAddr, bytes: u64) -> Tick {
        self.access(now, addr, bytes, true)
    }

    fn access(&mut self, now: Tick, addr: PhysAddr, bytes: u64, is_write: bool) -> Tick {
        let (ch, bank_idx, row) = self.map(addr);
        let (t_cas, t_rcd, t_rp, t_wr) = (
            self.config.t_cas,
            self.config.t_rcd,
            self.config.t_rp,
            self.config.t_wr,
        );
        let channel = &mut self.channels[ch];
        let bank = &mut channel.banks[bank_idx];

        let start = now.max(bank.busy_until);
        let array_latency = match bank.open_row {
            Some(open) if open == row => t_cas,
            Some(_) => t_rp + t_rcd + t_cas,
            None => t_rcd + t_cas,
        };
        bank.open_row = Some(row);
        let data_ready = start + array_latency;
        let done = channel.bus.send(data_ready, bytes);
        bank.busy_until = if is_write { done + t_wr } else { done };
        done
    }

    /// Number of reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Clears occupancy and counters.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.bus.reset();
            for b in &mut ch.banks {
                b.open_row = None;
                b.busy_until = Tick::ZERO;
            }
        }
        self.reads = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig::preset(DramKind::Ddr5_4400))
    }

    #[test]
    fn first_access_pays_activate() {
        let mut m = model();
        let done = m.read(Tick::ZERO, PhysAddr::new(0), 64);
        let cfg = m.config.clone();
        let expected = cfg.t_rcd
            + cfg.t_cas
            + LinkConfig::with_gbps(Tick::ZERO, cfg.channel_gbps).serialize_time(64);
        assert_eq!(done, expected);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut m = model();
        let a = PhysAddr::new(0);
        let _ = m.read(Tick::ZERO, a, 64);
        let t0 = Tick::from_us(1);
        let hit = m.read(t0, a, 64) - t0;
        let cfg = m.config.clone();
        let bus = LinkConfig::with_gbps(Tick::ZERO, cfg.channel_gbps).serialize_time(64);
        assert_eq!(hit, cfg.t_cas + bus, "the open row skips activate");
        // Now touch a different row in the same bank: same channel & bank
        // requires stepping by channels*banks*row_lines lines.
        let stride = cfg.channels as u64 * cfg.banks_per_channel as u64 * cfg.row_bytes;
        let t1 = Tick::from_us(2);
        let conflict = m.read(t1, PhysAddr::new(stride), 64) - t1;
        assert!(conflict > hit, "conflict {conflict} <= hit {hit}");
    }

    #[test]
    fn banks_overlap() {
        let mut m = model();
        // Two accesses to different channels start concurrently.
        let d0 = m.read(Tick::ZERO, PhysAddr::new(0), 64);
        let d1 = m.read(Tick::ZERO, PhysAddr::new(64), 64);
        let serial_estimate = d0 * 2;
        assert!(
            d1 < serial_estimate,
            "no overlap: {d1} vs {serial_estimate}"
        );
    }

    #[test]
    fn writes_tracked_separately() {
        let mut m = model();
        m.write(Tick::ZERO, PhysAddr::new(0), 64);
        m.read(Tick::ZERO, PhysAddr::new(4096), 64);
        assert_eq!(m.reads(), 1, "the write is not counted as a read");
    }

    #[test]
    fn nvm_slower_than_ddr5() {
        let mut ddr = model();
        let mut nvm = DramModel::new(DramConfig::preset(DramKind::Nvm));
        let d = ddr.read(Tick::ZERO, PhysAddr::new(0), 64);
        let n = nvm.read(Tick::ZERO, PhysAddr::new(0), 64);
        assert!(n > d * 3, "NVM should be much slower: {n} vs {d}");
    }

    #[test]
    fn reset_restores_idle() {
        let mut m = model();
        m.read(Tick::ZERO, PhysAddr::new(0), 64);
        m.reset();
        assert_eq!(m.reads(), 0);
        let done = m.read(Tick::ZERO, PhysAddr::new(0), 64);
        let cfg = m.config.clone();
        assert_eq!(
            done,
            cfg.t_rcd
                + cfg.t_cas
                + LinkConfig::with_gbps(Tick::ZERO, cfg.channel_gbps).serialize_time(64)
        );
    }

    /// Pins the preset's `(channel, bank, row)` decomposition over the
    /// first 8192 lines, so any drift in the address mapping is loud.
    #[test]
    fn decomposition_pinned() {
        const PINNED_DECOMPOSE_CHECKSUM: u64 = 0xd657_595d_6575_7595;
        let m = model();
        let mut checksum = 0u64;
        for line in 0..8192u64 {
            let (ch, bank, row) = m.map(PhysAddr::new(line * 64));
            checksum = checksum
                .rotate_left(7)
                .wrapping_add(ch as u64 ^ (bank as u64) << 8 ^ row << 16);
        }
        assert_eq!(
            checksum, PINNED_DECOMPOSE_CHECKSUM,
            "DRAM decomposition drifted: got {checksum:#018x}"
        );
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_geometry_rejected() {
        let _ = DramModel::new(DramConfig {
            channels: 3,
            ..DramConfig::preset(DramKind::Ddr5_4400)
        });
    }

    #[test]
    fn presets_are_distinct() {
        let kinds = [
            DramKind::Ddr4_3200,
            DramKind::Ddr5_4400,
            DramKind::Ddr5_4800,
            DramKind::Hbm2,
            DramKind::Nvm,
        ];
        for k in kinds {
            let c = DramConfig::preset(k);
            assert_eq!(c.kind, k);
            assert!(c.channel_gbps > 0.0);
        }
    }
}
