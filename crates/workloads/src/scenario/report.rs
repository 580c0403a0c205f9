//! Scenario results: per-phase latency percentiles, throughput, and the
//! determinism checksum.

use sim_core::{Summary, Tick};

/// Aggregates for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name from the spec.
    pub name: String,
    /// Sessions attributed to (and completed in) the phase.
    pub sessions: u64,
    /// Coherent accesses those sessions issued.
    pub accesses: u64,
    /// Median access latency, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile access latency, nanoseconds.
    pub p95_ns: f64,
    /// 99th-percentile access latency, nanoseconds.
    pub p99_ns: f64,
    /// Mean access latency, nanoseconds.
    pub mean_ns: f64,
    /// Simulated span from the phase's first issue to its last
    /// completion.
    pub span: Tick,
}

impl PhaseReport {
    /// Completed accesses per simulated microsecond over the phase's
    /// measured span.
    pub fn throughput_per_us(&self) -> f64 {
        let us = self.span.as_us_f64();
        if us > 0.0 {
            self.accesses as f64 / us
        } else {
            0.0
        }
    }
}

/// Everything a scenario run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name from the spec.
    pub name: String,
    /// Sessions that ran to a terminal state.
    pub completed: u64,
    /// Sessions force-finished by the safety cap.
    pub capped: u64,
    /// Total coherent accesses completed.
    pub accesses: u64,
    /// Engine events dispatched during the run.
    pub events: u64,
    /// Order-sensitive digest of the completion stream (same folding as
    /// the hotpath canary); identical specs must reproduce it exactly.
    pub checksum: u64,
    /// Peak concurrent sessions.
    pub peak_live: u64,
    /// Simulated time at the last completion.
    pub elapsed: Tick,
    /// Per-phase aggregates, in spec order.
    pub phases: Vec<PhaseReport>,
}

/// Accumulator behind one [`PhaseReport`].
#[derive(Debug)]
pub(crate) struct PhaseAcc {
    pub name: String,
    pub sessions: u64,
    pub latencies: Summary,
    pub first_issue: Tick,
    pub last_done: Tick,
}

impl PhaseAcc {
    pub(crate) fn new(name: String) -> Self {
        PhaseAcc {
            name,
            sessions: 0,
            latencies: Summary::new(),
            first_issue: Tick::MAX,
            last_done: Tick::ZERO,
        }
    }

    pub(crate) fn record(&mut self, issued: Tick, done: Tick) {
        self.latencies.record_ns(done.saturating_sub(issued));
        self.first_issue = self.first_issue.min(issued);
        self.last_done = self.last_done.max(done);
    }

    pub(crate) fn finish(mut self) -> PhaseReport {
        let accesses = self.latencies.len() as u64;
        let (span, p50, p95, p99, mean) = if accesses > 0 {
            (
                self.last_done.saturating_sub(self.first_issue),
                self.latencies.percentile(50.0),
                self.latencies.percentile(95.0),
                self.latencies.percentile(99.0),
                self.latencies.mean(),
            )
        } else {
            (Tick::ZERO, 0.0, 0.0, 0.0, 0.0)
        };
        PhaseReport {
            name: self.name,
            sessions: self.sessions,
            accesses,
            p50_ns: p50,
            p95_ns: p95,
            p99_ns: p99,
            mean_ns: mean,
            span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_acc_tracks_span_and_percentiles() {
        let mut acc = PhaseAcc::new("p".into());
        for i in 1..=100u64 {
            acc.record(Tick::from_ns(1000), Tick::from_ns(1000 + i));
        }
        acc.sessions = 10;
        let r = acc.finish();
        assert_eq!(r.accesses, 100);
        assert_eq!(r.p50_ns, 50.0);
        assert_eq!(r.p99_ns, 99.0);
        assert_eq!(r.span, Tick::from_ns(100));
        assert!(r.throughput_per_us() > 0.0);
    }

    #[test]
    fn empty_phase_reports_zeroes() {
        let r = PhaseAcc::new("empty".into()).finish();
        assert_eq!(r.accesses, 0);
        assert_eq!(r.span, Tick::ZERO);
        assert_eq!(r.throughput_per_us(), 0.0);
    }
}
