//! Bank/row/channel DRAM timing models.
//!
//! The model captures the three effects that matter for the paper's
//! experiments: row-buffer locality (open-row hits are fast), bank-level
//! parallelism (independent banks overlap), and channel bandwidth (the data
//! bus serializes bursts). Absolute latencies come from per-kind presets
//! and can be overridden for calibration.

use crate::addr::{PhysAddr, WeightedInterleave};
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

/// Per-line weighted channel dealing for unequal channel widths: the
/// same [`WeightedInterleave`] stripe pattern the directory topology
/// uses, folded into the DRAM decomposition (ROADMAP item 3 — it lives
/// in `simcxl_mem` for exactly this).
///
/// Line `l` takes pattern slot `l % period`; its per-channel line
/// ordinal is reconstructed in O(1) from the precomputed slot ranks:
/// `(l / period) * slots_of(channel) + rank(slot)`, where `rank` counts
/// earlier same-channel slots in the pattern. Equal weights reproduce
/// the shift/mask decomposition bit-for-bit (the pattern degenerates to
/// the identity and `rank` to zero), which the no-op checksum pins.
#[derive(Debug, Clone)]
struct WeightedChannelMap {
    /// Channel of each pattern slot.
    pattern: Vec<u32>,
    /// Earlier same-channel slots at each pattern slot.
    rank: Vec<u64>,
    /// Slots each channel owns per period.
    per_period: Vec<u64>,
    period: u64,
}

impl WeightedChannelMap {
    fn new(weights: &[u64], channels: u32) -> Self {
        assert_eq!(
            weights.len(),
            channels as usize,
            "one weight per DRAM channel"
        );
        let wi = WeightedInterleave::new(weights, crate::CACHELINE_BYTES);
        let period = wi.period();
        let mut per_period = vec![0u64; channels as usize];
        let mut pattern = Vec::with_capacity(period as usize);
        let mut rank = Vec::with_capacity(period as usize);
        for slot in 0..period {
            let ch = wi.index_of(PhysAddr::new(slot * crate::CACHELINE_BYTES));
            pattern.push(ch as u32);
            rank.push(per_period[ch]);
            per_period[ch] += 1;
        }
        WeightedChannelMap {
            pattern,
            rank,
            per_period,
            period,
        }
    }

    /// `(channel, per-channel line ordinal)` of a line index.
    fn deal(&self, line: u64) -> (usize, u64) {
        let slot = (line % self.period) as usize;
        let ch = self.pattern[slot] as usize;
        (
            ch,
            (line / self.period) * self.per_period[ch] + self.rank[slot],
        )
    }
}

/// An event-free DRAM device model: callers ask "access at time T" and get
/// back the completion time, with bank and bus contention accounted.
#[derive(Debug)]
pub struct DramModel {
    config: DramConfig,
    channels: Vec<Channel>,
    /// `(channel, bank, lines-per-row)` shift amounts when the geometry
    /// is power-of-two (every preset is), replacing three divisions per
    /// access with shifts and masks.
    map_shifts: Option<(u32, u32, u32)>,
    /// Unequal-channel-width dealing; `None` keeps the historical
    /// equal-width shift/mask (or div/mod) decomposition.
    weighted: Option<WeightedChannelMap>,
    reads: u64,
    writes: u64,
    row_hits: u64,
}

impl DramModel {
    /// Creates an idle memory with the given configuration.
    pub fn new(config: DramConfig) -> Self {
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
        let lines_per_row = config.row_bytes / crate::CACHELINE_BYTES;
        let map_shifts = if config.channels.is_power_of_two()
            && config.banks_per_channel.is_power_of_two()
            && lines_per_row.is_power_of_two()
        {
            Some((
                config.channels.trailing_zeros(),
                config.banks_per_channel.trailing_zeros(),
                lines_per_row.trailing_zeros(),
            ))
        } else {
            None
        };
        DramModel {
            config,
            channels,
            map_shifts,
            weighted: None,
            reads: 0,
            writes: 0,
            row_hits: 0,
        }
    }

    /// Creates an idle memory whose channels have *unequal widths*:
    /// channel `i` absorbs `weights[i] / sum(weights)` of the lines,
    /// dealt through the same evenly-spread [`WeightedInterleave`]
    /// stripe pattern the directory topology uses. Bank and row are
    /// then decomposed from the per-channel line ordinal exactly as in
    /// the equal-width model, so equal weight vectors reproduce
    /// [`DramModel::new`]'s shift/mask decomposition bit-for-bit (the
    /// no-op checksum test pins this).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != config.channels`, or on an invalid
    /// weight vector (see [`WeightedInterleave::new`]).
    pub fn with_channel_weights(config: DramConfig, weights: &[u64]) -> Self {
        let weighted = Some(WeightedChannelMap::new(weights, config.channels));
        let mut model = DramModel::new(config);
        model.weighted = weighted;
        model
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The `(channel, bank, row)` decomposition of an address — the
    /// routing every access takes, exposed so differential tests can
    /// compare the weighted dealing against brute-force pattern
    /// expansion.
    pub fn decompose(&self, addr: PhysAddr) -> (usize, usize, u64) {
        self.map(addr)
    }

    fn map(&self, addr: PhysAddr) -> (usize, usize, u64) {
        // Cacheline-interleave across channels, then banks, then rows.
        let line = addr.raw() / crate::CACHELINE_BYTES;
        if let Some(w) = &self.weighted {
            let (ch, per_ch) = w.deal(line);
            let bank = (per_ch % self.config.banks_per_channel as u64) as usize;
            let lines_per_row = self.config.row_bytes / crate::CACHELINE_BYTES;
            let row = per_ch / self.config.banks_per_channel as u64 / lines_per_row;
            return (ch, bank, row);
        }
        if let Some((ch_sh, bank_sh, lpr_sh)) = self.map_shifts {
            let ch = (line & ((1 << ch_sh) - 1)) as usize;
            let per_ch = line >> ch_sh;
            let bank = (per_ch & ((1 << bank_sh) - 1)) as usize;
            let row = per_ch >> (bank_sh + lpr_sh);
            return (ch, bank, row);
        }
        let ch = (line % self.config.channels as u64) as usize;
        let per_ch = line / self.config.channels as u64;
        let bank = (per_ch % self.config.banks_per_channel as u64) as usize;
        let lines_per_row = self.config.row_bytes / crate::CACHELINE_BYTES;
        let row = per_ch / self.config.banks_per_channel as u64 / lines_per_row;
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
        self.writes += 1;
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
            Some(open) if open == row => {
                self.row_hits += 1;
                t_cas
            }
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

    /// Number of writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Row-buffer hit count across all accesses.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
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
        self.writes = 0;
        self.row_hits = 0;
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
        let cfg = m.config().clone();
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
        assert_eq!(m.row_hits(), 1);
        // Now touch a different row in the same bank: same channel & bank
        // requires stepping by channels*banks*row_lines lines.
        let cfg = m.config().clone();
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
        assert_eq!(m.writes(), 1);
        assert_eq!(m.reads(), 1);
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
        assert_eq!(m.row_hits(), 0);
        let done = m.read(Tick::ZERO, PhysAddr::new(0), 64);
        let cfg = m.config().clone();
        assert_eq!(
            done,
            cfg.t_rcd
                + cfg.t_cas
                + LinkConfig::with_gbps(Tick::ZERO, cfg.channel_gbps).serialize_time(64)
        );
    }

    /// Equal channel weights must reproduce the historical shift/mask
    /// decomposition bit-for-bit; the folded checksum is pinned so any
    /// drift in the weighted dealing (or in the default path) is loud.
    /// Pin established when the weighted dealing landed.
    #[test]
    fn equal_weights_are_a_noop_pinned() {
        const PINNED_DECOMPOSE_CHECKSUM: u64 = 0xd657_595d_6575_7595;
        let plain = model();
        let weighted =
            DramModel::with_channel_weights(DramConfig::preset(DramKind::Ddr5_4400), &[1, 1]);
        let mut checksum = 0u64;
        for line in 0..8192u64 {
            let addr = PhysAddr::new(line * 64);
            let (ch, bank, row) = plain.decompose(addr);
            assert_eq!(
                (ch, bank, row),
                weighted.decompose(addr),
                "weighted dealing diverged at line {line}"
            );
            checksum = checksum
                .rotate_left(7)
                .wrapping_add(ch as u64 ^ (bank as u64) << 8 ^ row << 16);
        }
        assert_eq!(
            checksum, PINNED_DECOMPOSE_CHECKSUM,
            "DRAM decomposition drifted: got {checksum:#018x}"
        );
    }

    /// Unequal widths deal lines in exact weight proportion with dense
    /// per-channel ordinals (banks keep cycling without holes).
    #[test]
    fn unequal_weights_split_proportionally() {
        let m = DramModel::with_channel_weights(DramConfig::preset(DramKind::Ddr5_4400), &[3, 1]);
        let mut per_ch = [0u64; 2];
        for line in 0..4096u64 {
            let (ch, _, _) = m.decompose(PhysAddr::new(line * 64));
            per_ch[ch] += 1;
        }
        assert_eq!(per_ch, [3072, 1024]);
    }

    /// Timing equivalence of the no-op: the same access stream completes
    /// at identical ticks through both models.
    #[test]
    fn equal_weights_same_timing() {
        let mut plain = model();
        let mut weighted =
            DramModel::with_channel_weights(DramConfig::preset(DramKind::Ddr5_4400), &[2, 2]);
        for i in 0..512u64 {
            let addr = PhysAddr::new((i * 197) % 4096 * 64);
            let t = Tick::from_ns(i * 3);
            assert_eq!(plain.read(t, addr, 64), weighted.read(t, addr, 64));
        }
        assert_eq!(plain.row_hits(), weighted.row_hits());
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
