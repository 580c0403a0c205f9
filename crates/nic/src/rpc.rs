//! RPC (de)serialization offload engines (paper §V-B, Figs. 10/11).
//!
//! Four designs are modelled, all driven by the *wire lengths and object
//! graphs* of a [`BenchWorkload`]:
//!
//! * **RpcNIC** (PCIe baseline \[49\]): the HW deserializer decodes
//!   field-by-field into a 4 KB on-chip temp buffer, flushing each
//!   completed message (or full buffer) to host memory with a one-shot
//!   DMA plus a ring-head update; responses are pre-serialized by a
//!   DSA-style memcpy engine into a DMA-safe buffer, doorbelled over
//!   MMIO, DMA-read by the NIC and encoded.
//! * **CXL-NIC deserialization**: each decoded line is pushed into the
//!   host LLC with NC-P through the coherence engine; the notification
//!   ring lives in the LLC.
//! * **CXL-NIC.cache serialization** (± the multi-stride prefetcher):
//!   the serializer pulls the object graph from host memory over
//!   CXL.cache with a small demand-fetch pipeline; the prefetcher warms
//!   the HMC along detected strides.
//! * **CXL-NIC.mem serialization**: the CPU has constructed the objects
//!   in device memory, so encoding reads local DRAM.

use crate::layout::StreamArena;
use crate::prefetch::MultiStridePrefetcher;
use protowire::encode::encoded_len;
use protowire::{BenchWorkload, MessageValue};
use sim_core::Tick;
use simcxl_coherence::prelude::*;
use simcxl_mem::{PhysAddr, CACHELINE_BYTES};
use simcxl_pcie::{DmaConfig, DmaEngine};
use std::collections::VecDeque;

/// Serialization design point (Fig. 18b legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerializeMode {
    /// PCIe RpcNIC baseline.
    RpcNic,
    /// CXL.cache without the prefetcher.
    CxlCacheNoPrefetch,
    /// CXL.cache with the multi-stride prefetcher.
    CxlCachePrefetch,
    /// CXL.mem (objects constructed in device memory).
    CxlMem,
}

impl SerializeMode {
    /// All four, in the paper's legend order.
    pub fn all() -> [SerializeMode; 4] {
        [
            SerializeMode::RpcNic,
            SerializeMode::CxlCacheNoPrefetch,
            SerializeMode::CxlCachePrefetch,
            SerializeMode::CxlMem,
        ]
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SerializeMode::RpcNic => "RpcNIC",
            SerializeMode::CxlCacheNoPrefetch => "CXL-NIC.cache(w/o prefetch)",
            SerializeMode::CxlCachePrefetch => "CXL-NIC.cache(w/ prefetch)",
            SerializeMode::CxlMem => "CXL-NIC.mem",
        }
    }
}

/// Timing constants of the codec datapaths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcTiming {
    /// Decoder/encoder cost per field.
    pub per_field: Tick,
    /// Decoder/encoder cost per wire byte, in picoseconds.
    pub per_byte_ps: u64,
    /// RpcNIC extra per-byte cost of staging through the temp buffer.
    pub copy_per_byte_ps: u64,
    /// Fraction of the one-shot DMA latency the single 4 KB temp buffer
    /// exposes per flush (the rest overlaps with decoding).
    pub flush_exposure: f64,
    /// Per-message ring-head DMA update cost.
    pub ring_update: Tick,
    /// DSA memcpy engine cost per gathered field.
    pub dsa_per_field: Tick,
    /// DSA memcpy engine cost per byte, in picoseconds.
    pub dsa_per_byte_ps: u64,
    /// Amortized MMIO doorbell cost per message.
    pub mmio_doorbell: Tick,
    /// Exposed share of the NIC's DMA read of the pre-serialized buffer.
    pub dma_read_exposure: f64,
    /// Temp buffer capacity.
    pub temp_buffer: u64,
    /// Demand-fetch pipeline depth of the CXL.cache serializer.
    pub fetch_queue: usize,
    /// CXL.mem local-read bandwidth in GB/s (device-attached DRAM).
    pub local_gbps: f64,
}

impl RpcTiming {
    /// Calibrated for the 1.5 GHz ASIC configuration used in Fig. 18.
    pub(crate) fn asic_1500mhz() -> Self {
        RpcTiming {
            per_field: Tick::from_ps(8_000),
            per_byte_ps: 333,
            copy_per_byte_ps: 150,
            flush_exposure: 0.12,
            ring_update: Tick::from_ns(35),
            dsa_per_field: Tick::from_ns(20),
            dsa_per_byte_ps: 300,
            mmio_doorbell: Tick::from_ns(50),
            dma_read_exposure: 0.12,
            temp_buffer: 4096,
            fetch_queue: 6,
            local_gbps: 35.0,
        }
    }
}

/// Per-workload result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcResult {
    /// Total processing time.
    pub total: Tick,
    /// Messages processed.
    pub messages: usize,
    /// Total wire bytes moved.
    pub wire_bytes: u64,
}

/// The RPC offload model: owns the DMA engine (PCIe paths) and a
/// coherence engine with an HMC (CXL paths).
#[derive(Debug)]
pub struct RpcNicModel {
    timing: RpcTiming,
    dma: DmaEngine,
    hmc_cfg: CacheConfig,
    home_cfg: HomeConfig,
}

impl RpcNicModel {
    /// Creates a model.
    pub(crate) fn new(
        timing: RpcTiming,
        dma: DmaConfig,
        hmc_cfg: CacheConfig,
        home_cfg: HomeConfig,
    ) -> Self {
        RpcNicModel {
            timing,
            dma: DmaEngine::new(dma),
            hmc_cfg,
            home_cfg,
        }
    }

    /// A model using the ASIC-calibrated profiles throughout.
    pub fn asic() -> Self {
        Self::new(
            RpcTiming::asic_1500mhz(),
            DmaConfig::asic_1500mhz(),
            CacheConfig {
                issue_latency: Tick::from_ns(5),
                lookup_latency: Tick::from_ns(5),
                accept_gap: Tick::from_ps(700),
                link: sim_core::LinkConfig::with_gbps(Tick::from_ns(73), 90.0),
                ..CacheConfig::hmc_128k()
            },
            HomeConfig {
                lookup_latency: Tick::from_ns(50),
                refill_latency: Tick::from_ns(4),
                serve_gap: Tick::from_ps(1_300),
                mem_front_latency: Tick::from_ns(10),
                ..HomeConfig::default()
            },
        )
    }

    fn decode_cost(&self, msg: &MessageValue, wire_len: u64) -> Tick {
        self.timing.per_field * msg.total_fields()
            + Tick::from_ps(self.timing.per_byte_ps * wire_len)
    }

    /// RpcNIC deserialization (Fig. 10 steps 1–3). Byte costs follow
    /// each message's wire length, `encoded_len`; that every message
    /// Fig. 18 times encodes to exactly that length and decodes back to
    /// itself is checked by `genbench::tests::all_benches_round_trip`.
    pub fn deserialize_rpcnic(&mut self, w: &BenchWorkload) -> RpcResult {
        self.dma.reset();
        let mut now = Tick::ZERO;
        let mut wire_total = 0u64;
        for msg in &w.messages {
            let wire = encoded_len(msg) as u64;
            wire_total += wire;
            // Field-by-field decode, staged through the temp buffer.
            now += self.decode_cost(msg, wire) + Tick::from_ps(self.timing.copy_per_byte_ps * wire);
            // One-shot DMA per filled buffer (at least one per message).
            let flushes = wire.div_ceil(self.timing.temp_buffer).max(1);
            for _ in 0..flushes {
                let chunk = wire.min(self.timing.temp_buffer);
                let done = self.dma.transfer(now, chunk.max(1));
                let exposure = Tick::from_ps(
                    ((done - now).as_ps() as f64 * self.timing.flush_exposure) as u64,
                );
                now += exposure;
            }
            // Ring-head update DMA write.
            now += self.timing.ring_update;
        }
        RpcResult {
            total: now,
            messages: w.messages.len(),
            wire_bytes: wire_total,
        }
    }

    /// CXL-NIC deserialization (Fig. 11 steps 1–3): decode at the same
    /// datapath rate, pushing each completed 64 B line into the LLC via
    /// NC-P through the coherence engine. Wire lengths come from
    /// `encoded_len`, as in [`deserialize_rpcnic`](Self::deserialize_rpcnic).
    pub fn deserialize_cxl(&mut self, w: &BenchWorkload) -> RpcResult {
        let mut eng = ProtocolEngine::builder()
            .home(self.home_cfg.clone())
            .build();
        let hmc = eng.add_cache(self.hmc_cfg.clone());
        let mut now = Tick::ZERO;
        let mut wire_total = 0u64;
        let mut dst = 0x4000_0000u64; // RX ring region in host memory
        for msg in &w.messages {
            let wire = encoded_len(msg) as u64;
            wire_total += wire;
            let decode_time = self.decode_cost(msg, wire);
            let lines = wire.div_ceil(CACHELINE_BYTES).max(1);
            // Fields become ready uniformly across the decode window and
            // are pushed (posted) as their lines fill.
            for k in 0..lines {
                let at = now + decode_time * k / lines;
                eng.issue(hmc, MemOp::NcPush { value: k }, PhysAddr::new(dst), at);
                dst += CACHELINE_BYTES;
            }
            now += decode_time;
        }
        // Drain tick by tick through one buffer: the posted pushes'
        // completions are not needed, so none is kept.
        let mut comps = Vec::new();
        while eng.run_next(&mut comps) {}
        if cfg!(debug_assertions) {
            eng.verify_invariants();
        }
        let total = now.max(eng.now());
        RpcResult {
            total,
            messages: w.messages.len(),
            wire_bytes: wire_total,
        }
    }

    /// Serialization under any [`SerializeMode`]. Byte costs follow each
    /// message's `encoded_len`, which `genbench::tests::
    /// all_benches_round_trip` checks against the real encoding.
    pub fn serialize(&mut self, w: &BenchWorkload, mode: SerializeMode) -> RpcResult {
        match mode {
            SerializeMode::RpcNic => self.serialize_rpcnic(w),
            SerializeMode::CxlMem => self.serialize_cxl_mem(w),
            SerializeMode::CxlCacheNoPrefetch => self.serialize_cxl_cache(w, false),
            SerializeMode::CxlCachePrefetch => self.serialize_cxl_cache(w, true),
        }
    }

    fn serialize_rpcnic(&mut self, w: &BenchWorkload) -> RpcResult {
        self.dma.reset();
        let mut now = Tick::ZERO;
        let mut wire_total = 0u64;
        for msg in &w.messages {
            let wire = encoded_len(msg) as u64;
            wire_total += wire;
            let fields = msg.total_fields();
            // CPU-side DSA gather of noncontiguous fields into the
            // DMA-safe buffer (Fig. 10 step 4).
            now += self.timing.dsa_per_field * fields
                + Tick::from_ps(self.timing.dsa_per_byte_ps * wire);
            // MMIO doorbell (step 5).
            now += self.timing.mmio_doorbell;
            // NIC DMA read of the prepared buffer (step 6), partially
            // overlapped with encoding.
            let done = self.dma.transfer(now, wire.max(1));
            now +=
                Tick::from_ps(((done - now).as_ps() as f64 * self.timing.dma_read_exposure) as u64);
            // HW serializer encode (step 7).
            now += self.decode_cost(msg, wire);
        }
        RpcResult {
            total: now,
            messages: w.messages.len(),
            wire_bytes: wire_total,
        }
    }

    fn serialize_cxl_mem(&mut self, w: &BenchWorkload) -> RpcResult {
        let mut now = Tick::ZERO;
        let mut wire_total = 0u64;
        for msg in &w.messages {
            let wire = encoded_len(msg) as u64;
            wire_total += wire;
            // Objects already sit in device memory: encode reads local
            // DRAM at stream bandwidth.
            let local_read =
                Tick::from_ps((wire as f64 / (self.timing.local_gbps * 1e9) * 1e12) as u64);
            now += self.decode_cost(msg, wire) + local_read;
        }
        RpcResult {
            total: now,
            messages: w.messages.len(),
            wire_bytes: wire_total,
        }
    }

    fn serialize_cxl_cache(&mut self, w: &BenchWorkload, prefetch: bool) -> RpcResult {
        let mut eng = ProtocolEngine::builder()
            .home(self.home_cfg.clone())
            .build();
        let hmc = eng.add_cache(self.hmc_cfg.clone());
        let mut pf = MultiStridePrefetcher::rpc_default();
        let mut now = Tick::ZERO;
        let mut wire_total = 0u64;
        // Paces demand fetches; `now` is the encode pipeline, which
        // overlaps with fetching subsequent lines.
        let mut issue_clock = Tick::ZERO;
        // Demand-load completions drained from the engine and not yet
        // awaited (prefetch completions are dropped on the floor). At
        // most `fetch_queue` loads are live, so a linear scan suffices.
        let mut completed: Vec<(ReqId, Tick)> = Vec::new();
        let mut comps = Vec::new();
        let mut targets = Vec::new();
        let mut arena = StreamArena::new(PhysAddr::new(0x1_0000_0000), 1);
        let mut stream = Vec::new();
        // In-flight demand fetches; drained by the end of every message.
        let mut pending: VecDeque<ReqId> = VecDeque::new();
        for msg in &w.messages {
            let wire = encoded_len(msg) as u64;
            wire_total += wire;
            arena.stream_into(msg, &mut stream);
            // Full encode work for the message, spread across its lines
            // so it overlaps with the line fetches.
            let per_line_encode = self.decode_cost(msg, wire) / stream.len() as u64;
            // The CPU constructed these objects moments ago: they are
            // resident in the host LLC, not just in DRAM.
            for line in &stream {
                eng.preload_llc(*line);
            }
            let q = self.timing.fetch_queue;
            let mut next = 0usize;
            let mut fetched = 0usize;
            while fetched < stream.len() {
                // Keep the demand pipeline full.
                while pending.len() < q && next < stream.len() {
                    let line = stream[next];
                    issue_clock = issue_clock.max(eng.now());
                    if prefetch {
                        pf.access(line, &mut targets);
                        for &target in &targets {
                            eng.issue(hmc, MemOp::Prefetch, target, issue_clock);
                        }
                    }
                    let req = eng.issue(hmc, MemOp::Load, line, issue_clock);
                    pending.push_back(req);
                    next += 1;
                }
                // Wait for the oldest demand fetch.
                let want = pending.pop_front().expect("pipeline nonempty");
                let done = loop {
                    if let Some(i) = completed.iter().position(|&(r, _)| r == want) {
                        break completed.swap_remove(i).1;
                    }
                    if !eng.run_next(&mut comps) {
                        break eng.now();
                    }
                    for c in &comps {
                        if matches!(c.op, MemOp::Load) {
                            completed.push((c.req, c.done));
                        }
                    }
                };
                issue_clock = issue_clock.max(done);
                // Encode overlaps with the in-flight fetches.
                now = now.max(done) + per_line_encode;
                fetched += 1;
            }
        }
        if cfg!(debug_assertions) {
            while eng.run_next(&mut comps) {}
            eng.verify_invariants();
        }
        RpcResult {
            total: now,
            messages: w.messages.len(),
            wire_bytes: wire_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protowire::{genbench, BenchId};

    fn small(id: BenchId) -> BenchWorkload {
        let mut w = genbench::generate(id, genbench::FIG18_SEED);
        w.messages.truncate(40);
        w
    }

    #[test]
    fn cxl_deserialization_beats_rpcnic_everywhere() {
        for id in [BenchId::Bench1, BenchId::Bench2, BenchId::Bench5] {
            let w = small(id);
            let mut m = RpcNicModel::asic();
            let rpc = m.deserialize_rpcnic(&w);
            let cxl = m.deserialize_cxl(&w);
            let speedup = rpc.total.as_ns_f64() / cxl.total.as_ns_f64();
            assert!(
                speedup > 1.1 && speedup < 3.0,
                "{id:?} deser speedup {speedup:.2} out of band"
            );
        }
    }

    #[test]
    fn small_field_bench_gains_most_in_deserialization() {
        let mut m = RpcNicModel::asic();
        let w1 = small(BenchId::Bench1);
        let w5 = small(BenchId::Bench5);
        let s1 =
            m.deserialize_rpcnic(&w1).total.as_ns_f64() / m.deserialize_cxl(&w1).total.as_ns_f64();
        let s5 =
            m.deserialize_rpcnic(&w5).total.as_ns_f64() / m.deserialize_cxl(&w5).total.as_ns_f64();
        assert!(s1 > s5, "Bench1 {s1:.2} should beat Bench5 {s5:.2}");
    }

    #[test]
    fn all_cxl_serialization_modes_beat_rpcnic() {
        let w = small(BenchId::Bench3);
        let mut m = RpcNicModel::asic();
        let base = m.serialize(&w, SerializeMode::RpcNic).total;
        for mode in [
            SerializeMode::CxlCacheNoPrefetch,
            SerializeMode::CxlCachePrefetch,
            SerializeMode::CxlMem,
        ] {
            let t = m.serialize(&w, mode).total;
            assert!(t < base, "{mode:?}: {t} !< {base}");
        }
    }

    #[test]
    fn cxl_mem_is_fastest_serialization() {
        let w = small(BenchId::Bench1);
        let mut m = RpcNicModel::asic();
        let mem = m.serialize(&w, SerializeMode::CxlMem).total;
        for mode in [
            SerializeMode::RpcNic,
            SerializeMode::CxlCacheNoPrefetch,
            SerializeMode::CxlCachePrefetch,
        ] {
            assert!(mem < m.serialize(&w, mode).total, "{mode:?} beat CXL.mem");
        }
    }

    #[test]
    fn prefetcher_helps_flat_more_than_nested() {
        let mut m = RpcNicModel::asic();
        let flat = small(BenchId::Bench1);
        let nested = small(BenchId::Bench2);
        let gain = |m: &mut RpcNicModel, w: &BenchWorkload| {
            let no = m
                .serialize(w, SerializeMode::CxlCacheNoPrefetch)
                .total
                .as_ns_f64();
            let yes = m
                .serialize(w, SerializeMode::CxlCachePrefetch)
                .total
                .as_ns_f64();
            no / yes - 1.0
        };
        let g_flat = gain(&mut m, &flat);
        let g_nested = gain(&mut m, &nested);
        assert!(
            g_flat > g_nested,
            "prefetch gain flat {g_flat:.3} !> nested {g_nested:.3}"
        );
        assert!(g_nested >= 0.0, "prefetch must not hurt: {g_nested:.3}");
    }

    /// Every path over every full Fig. 18 workload. The CXL paths check
    /// the engine's coherence invariants at their end in debug builds,
    /// so this covers the whole of Fig. 18's protocol traffic.
    #[test]
    fn full_fig18_workloads_keep_engine_invariants() {
        for id in BenchId::all() {
            let w = genbench::generate(id, genbench::FIG18_SEED);
            let mut m = RpcNicModel::asic();
            let mut results = vec![m.deserialize_rpcnic(&w), m.deserialize_cxl(&w)];
            results.extend(SerializeMode::all().map(|mode| m.serialize(&w, mode)));
            for r in results {
                assert_eq!(r.messages, w.messages.len(), "{id:?}");
                assert_eq!(r.wire_bytes, w.total_wire_bytes(), "{id:?}");
            }
        }
    }

    #[test]
    fn results_count_messages_and_bytes() {
        let w = small(BenchId::Bench0);
        let mut m = RpcNicModel::asic();
        let r = m.deserialize_rpcnic(&w);
        assert_eq!(r.messages, w.messages.len());
        assert_eq!(r.wire_bytes, w.total_wire_bytes());
        assert!(r.total > Tick::ZERO);
    }
}
