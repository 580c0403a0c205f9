//! The multi-stride RPC prefetcher (paper §V-B2).
//!
//! "The RPC prefetcher is a multi-stride prefetcher, which records
//! cache-miss addresses to identify data streams with various stride
//! patterns and issues prefetches accordingly, achieving a balance
//! between performance and design complexity."

use sim_core::fxhash::FxHashSet;
use simcxl_mem::{PhysAddr, CACHELINE_BYTES};

/// One tracked stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    last: u64,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// Statistics of a [`MultiStridePrefetcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Accesses observed.
    pub accesses: u64,
    /// Prefetches issued.
    pub issued: u64,
    /// Accesses that had been prefetched (useful prefetches).
    pub hits: u64,
}

/// A table of stride streams with confidence counters.
///
/// Call `access` with each demand line address; the prefetcher fills
/// the caller's buffer with the lines to prefetch (prefetch degree 2
/// once a stream is confident). [`coverage`](Self::coverage) reports
/// how many accesses a prefetch covered.
#[derive(Debug)]
pub struct MultiStridePrefetcher {
    streams: Vec<Option<Stream>>,
    /// Lines prefetched and not yet demanded; only inserted, removed and
    /// probed, never iterated.
    issued: FxHashSet<u64>,
    stats: PrefetchStats,
    tick: u64,
    degree: usize,
    last_line: Option<u64>,
}

impl MultiStridePrefetcher {
    /// Creates a prefetcher with `streams` stream slots and the given
    /// prefetch degree.
    ///
    /// # Panics
    ///
    /// Panics if `streams` or `degree` is zero.
    pub(crate) fn new(streams: usize, degree: usize) -> Self {
        assert!(streams > 0 && degree > 0);
        MultiStridePrefetcher {
            streams: vec![None; streams],
            issued: FxHashSet::default(),
            stats: PrefetchStats::default(),
            tick: 0,
            degree,
            last_line: None,
        }
    }

    /// Default configuration: 8 streams, degree 2.
    pub(crate) fn rpc_default() -> Self {
        Self::new(8, 2)
    }

    /// Observes a demand access to the line containing `addr`; replaces
    /// the contents of `out` with the line addresses to prefetch, so one
    /// buffer serves a whole run.
    pub(crate) fn access(&mut self, addr: PhysAddr, out: &mut Vec<PhysAddr>) {
        out.clear();
        let line = addr.line().raw();
        self.tick += 1;
        self.stats.accesses += 1;
        if self.issued.remove(&line) {
            self.stats.hits += 1;
        }
        // Back-to-back accesses to the same line train nothing (the
        // table records distinct miss addresses).
        if self.last_line == Some(line) {
            return;
        }
        self.last_line = Some(line);

        // Find the stream whose next expected address matches, or the
        // closest stream by last address.
        let mut matched: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if let Some(s) = s {
                let delta = line as i64 - s.last as i64;
                if delta == s.stride && s.stride != 0 {
                    matched = Some(i);
                    break;
                }
                // A plausible continuation within 8 lines trains a new stride.
                if matched.is_none() && delta.unsigned_abs() <= 8 * CACHELINE_BYTES {
                    matched = Some(i);
                }
            }
        }
        match matched {
            Some(i) => {
                let s = self.streams[i].as_mut().expect("matched");
                let delta = line as i64 - s.last as i64;
                if delta == s.stride && s.stride != 0 {
                    s.confidence = s.confidence.saturating_add(1);
                } else {
                    s.stride = delta;
                    s.confidence = if delta == 0 { 0 } else { 1 };
                }
                s.last = line;
                s.lru = self.tick;
                if s.confidence >= 2 {
                    let stride = s.stride;
                    for k in 1..=self.degree as i64 {
                        let target = (line as i64 + stride * k) as u64;
                        if self.issued.insert(target) {
                            self.stats.issued += 1;
                            out.push(PhysAddr::new(target));
                        }
                    }
                }
            }
            None => {
                // Allocate (victimize LRU) a new stream.
                let slot = self
                    .streams
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or_else(|| {
                        self.streams
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.as_ref().map(|s| s.lru).unwrap_or(0))
                            .map(|(i, _)| i)
                            .expect("nonempty table")
                    });
                self.streams[slot] = Some(Stream {
                    last: line,
                    stride: 0,
                    confidence: 0,
                    lru: self.tick,
                });
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Useful-prefetch fraction of all accesses.
    pub fn coverage(&self) -> f64 {
        if self.stats.accesses == 0 {
            return 0.0;
        }
        self.stats.hits as f64 / self.stats.accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `addrs` to `p` as demand accesses through one reused buffer.
    fn feed(p: &mut MultiStridePrefetcher, addrs: impl IntoIterator<Item = u64>) {
        let mut out = Vec::new();
        for a in addrs {
            p.access(PhysAddr::new(a), &mut out);
        }
    }

    #[test]
    fn sequential_stream_gets_covered() {
        let mut p = MultiStridePrefetcher::rpc_default();
        feed(&mut p, (0..64u64).map(|i| i * 64));
        let cov = p.coverage();
        assert!(cov > 0.8, "sequential coverage {cov}");
    }

    #[test]
    fn large_stride_stream_gets_covered() {
        let mut p = MultiStridePrefetcher::rpc_default();
        feed(&mut p, (0..64u64).map(|i| i * 256));
        assert!(
            p.coverage() > 0.7,
            "stride-4-line coverage {}",
            p.coverage()
        );
    }

    #[test]
    fn random_stream_is_not_covered() {
        let mut p = MultiStridePrefetcher::rpc_default();
        let mut x = 12345u64;
        feed(
            &mut p,
            (0..256).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 20) & !63
            }),
        );
        assert!(p.coverage() < 0.1, "random coverage {}", p.coverage());
    }

    #[test]
    fn interleaved_streams_both_tracked() {
        let mut p = MultiStridePrefetcher::new(4, 2);
        feed(
            &mut p,
            (0..64u64).flat_map(|i| [0x10_0000 + i * 64, 0x80_0000 + i * 128]),
        );
        assert!(p.coverage() > 0.6, "two-stream coverage {}", p.coverage());
    }

    #[test]
    fn was_prefetched_reflects_outstanding() {
        let mut p = MultiStridePrefetcher::rpc_default();
        let mut out = Vec::new();
        for i in 0..8u64 {
            p.access(PhysAddr::new(i * 64), &mut out);
        }
        // The last confident access asked for the next line beyond the
        // degree-2 window (the one before it was already issued).
        assert_eq!(out, [PhysAddr::new(9 * 64)]);
        assert!(p.issued.contains(&(8 * 64)));
        // Consuming it via access counts a hit and clears it; a repeat
        // of the same line trains nothing and leaves the buffer empty.
        p.access(PhysAddr::new(8 * 64), &mut out);
        assert!(p.stats().hits > 0);
        p.access(PhysAddr::new(8 * 64), &mut out);
        assert!(out.is_empty());
    }
}
