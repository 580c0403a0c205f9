//! Always-on hot-path profiling counters (`EngineProfile`).
//!
//! The dense-contention hot path (pending slab, batched snoops, reads
//! granted inline from the LLC directory) is justified by *measured*
//! behaviour, not assertion: every home and cache agent maintains a
//! handful of plain integer counters and power-of-two histograms that
//! cost one add (and at most one leading-zeros instruction) per event,
//! cheap enough to leave on in release benchmarks. [`ProtocolEngine::profile`]
//! aggregates them into an [`EngineProfile`], which the
//! `BENCH_hotpath.json` schema (since v5) embeds per section.
//!
//! [`ProtocolEngine::profile`]: crate::engine::ProtocolEngine::profile

use std::fmt;
use std::ops::AddAssign;

/// Number of power-of-two buckets a [`DepthHist`] tracks; bucket `i ≥ 2`
/// counts samples in `[2^(i-2)+1 .. 2^(i-1)]` (bucket 0 is exactly 0,
/// bucket 1 is exactly 1), with the last bucket absorbing the tail.
pub(crate) const HIST_BUCKETS: usize = 12;

/// A power-of-two-bucketed histogram of small non-negative depths
/// (queue lengths, fan-out sizes, chain lengths).
///
/// Bucket layout: `0, 1, 2, 3..4, 5..8, 9..16, …` — bucket `i ≥ 1`
/// covers `(2^(i-2), 2^(i-1)]` samples, the final bucket is open-ended.
/// Also tracks the exact sample count, sum, and maximum so averages
/// survive the bucketing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthHist {
    /// Per-bucket sample counts (see the type docs for the layout).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (for exact averages).
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl DepthHist {
    /// Records one sample. O(1): a leading-zeros instruction picks the
    /// bucket.
    #[inline]
    pub(crate) fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            // v=1 → 1, v=2 → 2, v in 3..=4 → 3, v in 5..=8 → 4, ...
            ((64 - (v - 1).leading_zeros()) as usize + 1).min(HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the tail).
    #[cfg(test)]
    fn bucket_limit(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i == HIST_BUCKETS - 1 => u64::MAX,
            _ => 1u64 << (i - 1),
        }
    }
}

impl AddAssign for DepthHist {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a += b;
        }
        self.count += rhs.count;
        self.sum += rhs.sum;
        self.max = self.max.max(rhs.max);
    }
}

/// Aggregated hot-path counters for one engine run.
///
/// Summed across all home agents and caches by
/// [`ProtocolEngine::profile`](crate::engine::ProtocolEngine::profile).
/// All counters are cumulative since engine construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Requests that arrived at a home agent whose line was already
    /// busy and therefore joined the per-line pending list.
    pub busy_hits: u64,
    /// `RdShared`/`RdOwn` requests that found their line idle and were
    /// granted inline from the LLC directory: no snoop, no memory
    /// fetch, no transaction.
    pub fast_path: u64,
    /// Every other request that found its line idle: LLC misses,
    /// snooping reads, NC-P pushes and evictions.
    pub general_path: u64,
    /// Pending-list depth observed at each busy-hit enqueue.
    pub pending_depth: DepthHist,
    /// Number of queued requests dispatched per replay drain.
    pub replay_chain: DepthHist,
    /// Snoop targets per fan-out (recorded once per snooping request).
    pub snoop_fanout: DepthHist,
    /// MSHR-map occupancy observed at each cache-miss allocation.
    pub mshr_occupancy: DepthHist,
}

impl EngineProfile {
    /// Total requests that reached a home-agent decision point.
    pub fn requests(&self) -> u64 {
        self.busy_hits + self.fast_path + self.general_path
    }

    /// Fraction of requests that found their line busy (0.0 when no
    /// requests were recorded).
    pub fn busy_hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            self.busy_hits as f64 / total as f64
        }
    }

    /// Fraction of requests granted inline from the LLC
    /// ([`fast_path`](Self::fast_path)).
    pub fn fast_path_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            self.fast_path as f64 / total as f64
        }
    }
}

impl AddAssign for EngineProfile {
    fn add_assign(&mut self, rhs: Self) {
        self.busy_hits += rhs.busy_hits;
        self.fast_path += rhs.fast_path;
        self.general_path += rhs.general_path;
        self.pending_depth += rhs.pending_depth;
        self.replay_chain += rhs.replay_chain;
        self.snoop_fanout += rhs.snoop_fanout;
        self.mshr_occupancy += rhs.mshr_occupancy;
    }
}

impl fmt::Display for EngineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests {} | busy-hit {:.2}% | fast-path {:.2}% | general {}",
            self.requests(),
            100.0 * self.busy_hit_rate(),
            100.0 * self.fast_path_rate(),
            self.general_path,
        )?;
        for (name, h) in [
            ("pending depth", &self.pending_depth),
            ("replay chain ", &self.replay_chain),
            ("snoop fan-out", &self.snoop_fanout),
            ("mshr occup.  ", &self.mshr_occupancy),
        ] {
            writeln!(
                f,
                "  {name}: n={} mean={:.2} max={}",
                h.count,
                h.mean(),
                h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_cover_pow2_ranges() {
        let mut h = DepthHist::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(5);
        h.record(8);
        h.record(9);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 2
        assert_eq!(h.buckets[3], 2); // 3..4
        assert_eq!(h.buckets[4], 2); // 5..8
        assert_eq!(h.buckets[5], 1); // 9..16
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 9);
        assert!((h.mean() - 32.0 / 8.0).abs() < 1e-12);
        // Every bucket's inclusive limit lands in it, one past in the next.
        let bucket_of = |v: u64| {
            let mut h = DepthHist::default();
            h.record(v);
            h.buckets.iter().position(|&n| n == 1).unwrap()
        };
        for i in 0..HIST_BUCKETS - 1 {
            let limit = DepthHist::bucket_limit(i);
            assert_eq!(bucket_of(limit), i, "limit {limit}");
            assert_eq!(bucket_of(limit + 1), i + 1, "limit {limit} + 1");
        }
    }

    #[test]
    fn hist_tail_bucket_absorbs_large_samples() {
        let mut h = DepthHist::default();
        h.record(u64::MAX / 2);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(DepthHist::bucket_limit(HIST_BUCKETS - 1), u64::MAX);
        assert_eq!(DepthHist::bucket_limit(0), 0);
        assert_eq!(DepthHist::bucket_limit(3), 4);
    }

    #[test]
    fn profile_rates_and_merge() {
        let mut a = EngineProfile {
            busy_hits: 30,
            fast_path: 60,
            general_path: 10,
            ..Default::default()
        };
        assert!((a.busy_hit_rate() - 0.30).abs() < 1e-12);
        assert!((a.fast_path_rate() - 0.60).abs() < 1e-12);
        let mut b = EngineProfile::default();
        b.pending_depth.record(7);
        a += b;
        assert_eq!(a.pending_depth.count, 1);
        assert_eq!(a.requests(), 100);
        assert_eq!(EngineProfile::default().busy_hit_rate(), 0.0);
    }
}
