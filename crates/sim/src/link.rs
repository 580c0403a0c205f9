//! Transport links with propagation latency and serialization bandwidth.

use crate::Tick;

/// Static configuration of a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation latency added to every message.
    pub latency: Tick,
    /// Serialization bandwidth in bytes per second; `f64::INFINITY` models
    /// an un-throttled link.
    pub bytes_per_sec: f64,
}

impl LinkConfig {
    /// A link with latency only (infinite bandwidth).
    pub fn latency_only(latency: Tick) -> Self {
        LinkConfig {
            latency,
            bytes_per_sec: f64::INFINITY,
        }
    }

    /// A link with the given latency and bandwidth in GB/s (10^9 bytes/s).
    pub fn with_gbps(latency: Tick, gbytes_per_sec: f64) -> Self {
        assert!(gbytes_per_sec > 0.0, "bandwidth must be positive");
        LinkConfig {
            latency,
            bytes_per_sec: gbytes_per_sec * 1e9,
        }
    }

    /// Pure serialization time of `bytes` on this link (no latency).
    pub fn serialize_time(&self, bytes: u64) -> Tick {
        if self.bytes_per_sec.is_infinite() {
            return Tick::ZERO;
        }
        let secs = bytes as f64 / self.bytes_per_sec;
        Tick::from_ps((secs * 1e12).round() as u64)
    }
}

/// A point-to-point transport with latency and a serializing channel.
///
/// `Link` tracks when its channel next becomes free, so back-to-back
/// messages queue behind each other (head-of-line serialization) while
/// propagation latency pipelines.
///
/// ```
/// use sim_core::{Link, LinkConfig, Tick};
/// let mut link = Link::new(LinkConfig::with_gbps(Tick::from_ns(10), 64.0));
/// // 64 bytes at 64 GB/s serialize in 1 ns, then 10 ns of flight time.
/// let arrival = link.send(Tick::ZERO, 64);
/// assert_eq!(arrival, Tick::from_ns(11));
/// // Next message waits for the channel, not for the previous arrival.
/// let arrival2 = link.send(Tick::ZERO, 64);
/// assert_eq!(arrival2, Tick::from_ns(12));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    free_at: Tick,
    bytes_sent: u64,
    /// Memo of recent `(bytes, serialize_time)` results: traffic uses a
    /// handful of fixed message sizes, and the float division in
    /// [`LinkConfig::serialize_time`] is hot-loop-visible. `u64::MAX`
    /// marks an empty way; values are identical to the uncached math.
    ser_memo: [(u64, Tick); 2],
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            free_at: Tick::ZERO,
            bytes_sent: 0,
            ser_memo: [(u64::MAX, Tick::ZERO); 2],
        }
    }

    fn serialize_time_memo(&mut self, bytes: u64) -> Tick {
        if bytes == u64::MAX {
            // Would alias the empty-way sentinel; bypass the memo.
            return self.config.serialize_time(bytes);
        }
        if self.ser_memo[0].0 == bytes {
            return self.ser_memo[0].1;
        }
        if self.ser_memo[1].0 == bytes {
            self.ser_memo.swap(0, 1);
            return self.ser_memo[0].1;
        }
        let t = self.config.serialize_time(bytes);
        self.ser_memo[1] = self.ser_memo[0];
        self.ser_memo[0] = (bytes, t);
        t
    }

    /// Sends `bytes` at `now`, returning the arrival time at the far end.
    ///
    /// The channel is occupied for the serialization time; propagation
    /// latency overlaps with subsequent messages.
    pub fn send(&mut self, now: Tick, bytes: u64) -> Tick {
        let start = now.max(self.free_at);
        let ser = self.serialize_time_memo(bytes);
        self.free_at = start + ser;
        self.bytes_sent += bytes;
        self.free_at + self.config.latency
    }

    /// Total bytes pushed through the link.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Resets occupancy and counters (for reusing a link across trials).
    pub fn reset(&mut self) {
        self.free_at = Tick::ZERO;
        self.bytes_sent = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_link_pipelines() {
        let mut l = Link::new(LinkConfig::latency_only(Tick::from_ns(100)));
        assert_eq!(l.send(Tick::ZERO, 1 << 20), Tick::from_ns(100));
        assert_eq!(l.send(Tick::ZERO, 1 << 20), Tick::from_ns(100));
        assert_eq!(l.free_at, Tick::ZERO);
    }

    #[test]
    fn bandwidth_serializes() {
        let mut l = Link::new(LinkConfig::with_gbps(Tick::ZERO, 1.0));
        // 1000 bytes at 1 GB/s = 1 us.
        assert_eq!(l.send(Tick::ZERO, 1000), Tick::from_us(1));
        assert_eq!(l.send(Tick::ZERO, 1000), Tick::from_us(2));
        assert_eq!(l.bytes_sent(), 2000);
    }

    #[test]
    fn send_after_idle_gap_starts_at_now() {
        let mut l = Link::new(LinkConfig::with_gbps(Tick::ZERO, 1.0));
        l.send(Tick::ZERO, 1000);
        let arrival = l.send(Tick::from_us(10), 1000);
        assert_eq!(arrival, Tick::from_us(11));
    }

    #[test]
    fn serialize_time_math() {
        let c = LinkConfig::with_gbps(Tick::ZERO, 25.6);
        // 64 bytes at 25.6 GB/s = 2.5 ns
        assert_eq!(c.serialize_time(64), Tick::from_ps(2_500));
        let inf = LinkConfig::latency_only(Tick::ZERO);
        assert_eq!(inf.serialize_time(u64::MAX), Tick::ZERO);
    }

    #[test]
    fn reset_clears_state() {
        let mut l = Link::new(LinkConfig::with_gbps(Tick::ZERO, 1.0));
        l.send(Tick::ZERO, 5000);
        l.reset();
        assert_eq!(l.free_at, Tick::ZERO);
        assert_eq!(l.bytes_sent(), 0);
    }
}
