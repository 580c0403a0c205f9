//! Declarative scenario descriptions.
//!
//! A [`ScenarioSpec`] is data, not code: client population, arrival
//! discipline, session machine, key space, and the phase sequence. Two
//! identical specs produce bit-identical simulations — every random
//! draw flows from the spec's seed through [`sim_core::SimRng`], and
//! arrival schedules are computed, not sampled.

use super::phase::{PhaseSpec, Traffic};
use sim_core::Tick;

/// How client sessions enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Open loop: arrivals follow each phase's traffic shape regardless
    /// of completions (load is injected, latency absorbs it).
    Open,
    /// Closed loop: at most `concurrency` sessions in flight; each
    /// completion immediately admits the next queued client (throughput
    /// is measured, not imposed).
    Closed {
        /// In-flight session bound.
        concurrency: u64,
    },
}

/// The session machines, named so a spec stays plain data. Their
/// transitions are one `match` in the `machine` module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineSpec {
    /// Classic KV session: look a key up; with probability `get_ratio`
    /// that is the whole session, otherwise think for `think` and write
    /// the same key back.
    GetPut {
        /// Fraction of read-only sessions.
        get_ratio: f64,
        /// Client-side think time before the write-back.
        think: Tick,
    },
    /// Scan `reads` random keys, then write the last one — a
    /// read-mostly session with a dependent update.
    ScanThenWrite {
        /// Keys scanned before the write.
        reads: u32,
    },
}

/// A complete scenario description: who arrives, when, and what each
/// client does.
///
/// ```
/// use simcxl_workloads::scenario::{
///     Arrival, MachineSpec, PhaseSpec, ScenarioSpec, Traffic,
/// };
/// use sim_core::Tick;
///
/// let spec = ScenarioSpec {
///     name: "warm-then-storm".into(),
///     seed: 42,
///     clients: 10_000,
///     agents: 8,
///     keys: 1 << 14,
///     buckets: 1 << 15,
///     arrival: Arrival::Open,
///     machine: MachineSpec::GetPut {
///         get_ratio: 0.9,
///         think: Tick::from_ns(200),
///     },
///     phases: vec![
///         PhaseSpec::new(
///             "ramp",
///             Tick::from_us(300),
///             Traffic::Ramp { from: 0.0, to: 2.0 },
///         ),
///         PhaseSpec::new("storm", Tick::from_us(100), Traffic::Burst { rate: 3.0 }),
///     ],
/// };
/// assert_eq!(spec.total_duration(), Tick::from_us(400));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reported verbatim).
    pub name: String,
    /// Seed for every random draw in the scenario.
    pub seed: u64,
    /// Total logical client sessions across all phases.
    pub clients: u64,
    /// Real cache agents the sessions are multiplexed over.
    pub agents: usize,
    /// Logical key-space size.
    pub keys: u64,
    /// Hash-table buckets the keys map onto (64 B slots; should exceed
    /// `keys` to keep collisions realistic rather than pathological).
    pub buckets: u64,
    /// Arrival discipline.
    pub arrival: Arrival,
    /// Per-client session machine.
    pub machine: MachineSpec,
    /// Phase sequence (at least one).
    pub phases: Vec<PhaseSpec>,
}

impl ScenarioSpec {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an empty phase list, zero clients/keys/buckets, an
    /// agent count outside the engine's peer budget, a zero
    /// closed-loop concurrency, a `get_ratio` outside `[0, 1]`, or a
    /// scan of zero keys.
    pub(crate) fn validate(&self) {
        assert!(
            !self.phases.is_empty(),
            "a scenario needs at least one phase"
        );
        assert!(self.clients > 0, "a scenario needs clients");
        assert!(self.keys > 0 && self.buckets > 0, "empty key space");
        assert!(
            self.agents >= 1 && self.agents <= 62,
            "agent count must fit the engine's peer budget (1..=62)"
        );
        if let Arrival::Closed { concurrency } = self.arrival {
            assert!(concurrency > 0, "closed loop needs concurrency");
        }
        match self.machine {
            MachineSpec::GetPut { get_ratio, .. } => assert!(
                (0.0..=1.0).contains(&get_ratio),
                "get_ratio is a probability"
            ),
            MachineSpec::ScanThenWrite { reads } => assert!(reads > 0, "scan of zero keys"),
        }
        let weight: f64 = self
            .phases
            .iter()
            .map(|p| p.traffic.mean_rate() * p.duration.as_ns_f64())
            .sum();
        assert!(weight > 0.0, "every phase has zero arrival weight");
    }

    /// Splits the client population across phases in proportion to each
    /// phase's `mean_rate × duration`; rounding remainders land on the
    /// last nonzero-weight phase so the quotas sum to `clients` exactly.
    pub(crate) fn phase_quotas(&self) -> Vec<u64> {
        let weights: Vec<f64> = self
            .phases
            .iter()
            .map(|p| p.traffic.mean_rate() * p.duration.as_ns_f64())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut quotas: Vec<u64> = weights
            .iter()
            .map(|w| ((w / total) * self.clients as f64).floor() as u64)
            .collect();
        let assigned: u64 = quotas.iter().sum();
        let last = weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("validate: some phase has weight");
        quotas[last] += self.clients - assigned;
        quotas
    }

    /// Sum of all phase durations.
    pub fn total_duration(&self) -> Tick {
        self.phases
            .iter()
            .fold(Tick::ZERO, |acc, p| acc + p.duration)
    }
}

/// Duration multiplier for the canonical scenarios: phase windows grow
/// with the client population so the arrival *density* (clients per
/// simulated ns) stays at the designed level. Without this, a
/// million-client population squeezed into the same microseconds is not
/// "more clients" but an unserviceable injection rate — the open-loop
/// backlog grows without bound and the run measures queue pathology
/// instead of the scenario.
fn population_scale(clients: u64) -> u64 {
    clients.div_ceil(50_000).max(1)
}

/// Canonical scenario 1: open-loop GET/PUT traffic that ramps up, holds
/// steady, then takes a thundering-herd burst — the bread-and-butter
/// "can the directory absorb a spike" question.
pub fn ramp_then_burst(clients: u64, seed: u64) -> ScenarioSpec {
    let scale = population_scale(clients);
    ScenarioSpec {
        name: "ramp_then_burst".into(),
        seed,
        clients,
        agents: 16,
        keys: 1 << 16,
        buckets: 1 << 17,
        arrival: Arrival::Open,
        machine: MachineSpec::GetPut {
            get_ratio: 0.9,
            think: Tick::from_ns(120),
        },
        phases: vec![
            PhaseSpec::new(
                "ramp",
                Tick::from_us(400) * scale,
                Traffic::Ramp { from: 0.0, to: 2.0 },
            ),
            PhaseSpec::new(
                "steady",
                Tick::from_us(400) * scale,
                Traffic::Steady { rate: 2.0 },
            ),
            PhaseSpec::new(
                "burst",
                Tick::from_us(200) * scale,
                Traffic::Burst { rate: 6.0 },
            ),
        ],
    }
}

/// Canonical scenario 2: closed-loop scan-then-write sessions at a
/// fixed concurrency — measures sustainable throughput rather than
/// injected load.
pub fn steady_closed(clients: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "steady_closed".into(),
        seed,
        clients,
        agents: 32,
        keys: 1 << 18,
        buckets: 1 << 19,
        arrival: Arrival::Closed { concurrency: 512 },
        machine: MachineSpec::ScanThenWrite { reads: 2 },
        phases: vec![PhaseSpec::new(
            "steady",
            Tick::from_us(1000) * population_scale(clients),
            Traffic::Steady { rate: 1.0 },
        )],
    }
}

/// Canonical scenario 3: adversarial hot-key storm — open-loop GET/PUT
/// where a steady warm-up hands over to a phase that slams 90% of its
/// traffic onto 64 keys, maximizing directory conflict pressure.
pub fn hot_key_storm(clients: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "hot_key_storm".into(),
        seed,
        clients,
        agents: 16,
        keys: 1 << 16,
        buckets: 1 << 17,
        arrival: Arrival::Open,
        machine: MachineSpec::GetPut {
            get_ratio: 0.5,
            think: Tick::from_ns(80),
        },
        phases: vec![
            PhaseSpec::new(
                "warmup",
                Tick::from_us(300) * population_scale(clients),
                Traffic::Steady { rate: 1.0 },
            ),
            PhaseSpec::new(
                "storm",
                Tick::from_us(300) * population_scale(clients),
                Traffic::HotKey {
                    rate: 3.0,
                    hot_keys: 64,
                    hot_fraction: 0.9,
                },
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_sum_to_clients() {
        for spec in [
            ramp_then_burst(999_983, 1),
            steady_closed(1_000_003, 2),
            hot_key_storm(777_777, 3),
        ] {
            spec.validate();
            let q = spec.phase_quotas();
            assert_eq!(q.iter().sum::<u64>(), spec.clients, "{}", spec.name);
            assert_eq!(q.len(), spec.phases.len());
        }
    }

    #[test]
    #[should_panic(expected = "get_ratio is a probability")]
    fn get_ratio_outside_unit_interval_rejected() {
        let mut spec = ramp_then_burst(10, 1);
        spec.machine = MachineSpec::GetPut {
            get_ratio: 1.5,
            think: Tick::ZERO,
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "scan of zero keys")]
    fn empty_scan_rejected() {
        let mut spec = steady_closed(10, 1);
        spec.machine = MachineSpec::ScanThenWrite { reads: 0 };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let mut spec = ramp_then_burst(10, 1);
        spec.phases.clear();
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "peer budget")]
    fn agent_overflow_rejected() {
        let mut spec = ramp_then_burst(10, 1);
        spec.agents = 63;
        spec.validate();
    }
}
