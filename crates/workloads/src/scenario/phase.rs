//! Phased traffic shapes and their deterministic arrival schedules.
//!
//! A scenario is a sequence of phases — ramp-up, steady state, a burst,
//! an adversarial hot-key storm — each with a simulated duration and a
//! [`Traffic`] shape. Arrival instants are computed by inverting the
//! shape's cumulative rate integral, so the schedule is a pure function
//! of the spec: no RNG draw is spent on arrival timing, and determinism
//! holds by construction.

use sim_core::Tick;

/// The traffic shape of one phase. Rates are *relative*: the scenario's
/// total client population is split across phases in proportion to each
/// phase's `mean_rate() * duration`, then each phase schedules its
/// share according to its shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Linearly ramping arrival rate, `from` to `to`, across the phase.
    Ramp {
        /// Relative rate at the start of the phase.
        from: f64,
        /// Relative rate at the end of the phase.
        to: f64,
    },
    /// Constant arrival rate.
    Steady {
        /// Relative rate.
        rate: f64,
    },
    /// Thundering herd: the phase's whole population arrives uniformly
    /// within the first quarter of the phase, then silence.
    Burst {
        /// Relative rate (still weighted over the whole duration).
        rate: f64,
    },
    /// Steady arrivals whose key choice is skewed onto a small hot set
    /// (adversarial contention: every client hammers the same lines).
    HotKey {
        /// Relative rate.
        rate: f64,
        /// Size of the hot set.
        hot_keys: u64,
        /// Probability mass on the hot set.
        hot_fraction: f64,
    },
    /// Day/night oscillation: the rate sweeps `low → high → low`
    /// linearly, `cycles` times across the phase (a triangle wave).
    /// Long-running degradation scenarios use this to overlap fault
    /// windows with both peak and trough load.
    Diurnal {
        /// Relative rate in the troughs.
        low: f64,
        /// Relative rate at the peaks.
        high: f64,
        /// Full low→high→low cycles across the phase (≥ 1).
        cycles: u32,
    },
}

impl Traffic {
    /// Mean relative rate over the phase (the phase's share weight).
    pub(crate) fn mean_rate(&self) -> f64 {
        match *self {
            Traffic::Ramp { from, to } => (from + to) / 2.0,
            Traffic::Diurnal { low, high, .. } => (low + high) / 2.0,
            Traffic::Steady { rate } | Traffic::Burst { rate } | Traffic::HotKey { rate, .. } => {
                rate
            }
        }
    }

    /// Hot-set override this shape imposes on key selection.
    pub(crate) fn hot(&self) -> Option<(u64, f64)> {
        match *self {
            Traffic::HotKey {
                hot_keys,
                hot_fraction,
                ..
            } => Some((hot_keys, hot_fraction)),
            _ => None,
        }
    }

    /// Offset (from the phase start) of arrival `j` of `n`, for a phase
    /// of duration `d` — the inverse of the shape's normalized
    /// cumulative rate at quantile `(j + ½) / n`.
    pub(crate) fn arrival_offset(&self, j: u64, n: u64, d: Tick) -> Tick {
        assert!(j < n, "arrival index out of range");
        let frac = (j as f64 + 0.5) / n as f64;
        let d_ns = d.as_ns_f64();
        let at_ns = match *self {
            Traffic::Steady { .. } | Traffic::HotKey { .. } => frac * d_ns,
            Traffic::Burst { .. } => frac * d_ns * 0.25,
            Traffic::Ramp { from, to } => invert_ramp(from, to, d_ns, frac),
            Traffic::Diurnal { low, high, cycles } => {
                assert!(cycles >= 1, "a diurnal shape needs at least one cycle");
                // 2·cycles half-cycles, each a linear ramp between low
                // and high. Every half-cycle carries the same mass
                // (duration · (low+high)/2), so the quantile picks the
                // half-cycle uniformly and the ramp inversion finishes
                // the job inside it.
                let segments = 2 * u64::from(cycles);
                let seg_ns = d_ns / segments as f64;
                let s = ((frac * segments as f64) as u64).min(segments - 1);
                let local = frac * segments as f64 - s as f64;
                let (from, to) = if s.is_multiple_of(2) {
                    (low, high)
                } else {
                    (high, low)
                };
                s as f64 * seg_ns + invert_ramp(from, to, seg_ns, local)
            }
        };
        Tick::from_ns_f64(at_ns)
    }
}

/// Instant (in ns) where fraction `frac` of a linear `from → to` ramp's
/// mass over `d_ns` has arrived: solve
/// `F(t) = (from·t + (to-from)·t²/2D) / (D·(from+to)/2) = frac` for `t`.
fn invert_ramp(from: f64, to: f64, d_ns: f64, frac: f64) -> f64 {
    let a = (to - from) / (2.0 * d_ns);
    let b = from;
    let c = frac * d_ns * (from + to) / 2.0;
    if a.abs() < f64::EPSILON {
        c / b
    } else {
        (-b + (b * b + 4.0 * a * c).sqrt()) / (2.0 * a)
    }
}

/// One phase: a name (reported verbatim), a simulated duration, and a
/// traffic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name, carried into the per-phase report.
    pub name: String,
    /// Simulated duration of the phase.
    pub duration: Tick,
    /// Arrival shape.
    pub traffic: Traffic,
}

impl PhaseSpec {
    /// Creates a phase.
    pub fn new(name: impl Into<String>, duration: Tick, traffic: Traffic) -> Self {
        let duration_ok = duration > Tick::ZERO;
        assert!(duration_ok, "a phase needs a nonzero duration");
        PhaseSpec {
            name: name.into(),
            duration,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_arrivals_form_a_uniform_grid() {
        let t = Traffic::Steady { rate: 1.0 };
        let d = Tick::from_us(100);
        let offs: Vec<f64> = (0..4)
            .map(|j| t.arrival_offset(j, 4, d).as_ns_f64())
            .collect();
        assert_eq!(offs, vec![12_500.0, 37_500.0, 62_500.0, 87_500.0]);
    }

    #[test]
    fn burst_compresses_into_first_quarter() {
        let t = Traffic::Burst { rate: 1.0 };
        let d = Tick::from_us(100);
        for j in 0..100 {
            assert!(t.arrival_offset(j, 100, d) <= Tick::from_us(25));
        }
    }

    #[test]
    fn ramp_arrivals_densify_toward_the_end() {
        let t = Traffic::Ramp { from: 0.0, to: 2.0 };
        let d = Tick::from_us(100);
        // Quantile 0.25 of a 0->r ramp lands at t = D·√0.25 = D/2.
        let q25 = t.arrival_offset(0, 2, d); // frac = 0.25
        assert!(
            (q25.as_ns_f64() - d.as_ns_f64() / 2.0).abs() < 2.0,
            "{q25:?}"
        );
        // Monotone and within the phase.
        let offs: Vec<f64> = (0..50)
            .map(|j| t.arrival_offset(j, 50, d).as_ns_f64())
            .collect();
        for w in offs.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*offs.last().unwrap() <= d.as_ns_f64());
        // Back half holds more arrivals than the front half.
        let front = offs.iter().filter(|&&o| o < d.as_ns_f64() / 2.0).count();
        assert!(front < 25, "front half holds {front} of 50");
    }

    #[test]
    fn flat_ramp_degenerates_to_steady() {
        let ramp = Traffic::Ramp { from: 3.0, to: 3.0 };
        let steady = Traffic::Steady { rate: 3.0 };
        let d = Tick::from_us(10);
        for j in 0..10 {
            let a = ramp.arrival_offset(j, 10, d).as_ns_f64();
            let b = steady.arrival_offset(j, 10, d).as_ns_f64();
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn diurnal_arrivals_cluster_at_peaks() {
        // Two cycles over 100us: peaks at 25us and 75us, troughs at 0,
        // 50us, 100us. With low = 0 the density at the troughs vanishes.
        let t = Traffic::Diurnal {
            low: 0.0,
            high: 2.0,
            cycles: 2,
        };
        let d = Tick::from_us(100);
        let offs: Vec<f64> = (0..200)
            .map(|j| t.arrival_offset(j, 200, d).as_ns_f64())
            .collect();
        for w in offs.windows(2) {
            assert!(w[0] <= w[1], "offsets must be monotone");
        }
        assert!(*offs.last().unwrap() <= d.as_ns_f64());
        let near = |center_us: f64| {
            offs.iter()
                .filter(|&&o| (o - center_us * 1_000.0).abs() < 10_000.0)
                .count()
        };
        // A 20us band around each peak vs the same band at the middle
        // trough: peak bands must hold clearly more arrivals.
        assert!(
            near(25.0) > 2 * near(50.0),
            "{} vs {}",
            near(25.0),
            near(50.0)
        );
        assert!(near(75.0) > 2 * near(50.0));
    }

    #[test]
    fn flat_diurnal_degenerates_to_steady() {
        let diurnal = Traffic::Diurnal {
            low: 3.0,
            high: 3.0,
            cycles: 4,
        };
        let steady = Traffic::Steady { rate: 3.0 };
        let d = Tick::from_us(10);
        for j in 0..16 {
            let a = diurnal.arrival_offset(j, 16, d).as_ns_f64();
            let b = steady.arrival_offset(j, 16, d).as_ns_f64();
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn one_cycle_first_half_matches_rising_ramp() {
        // The first half-cycle of a 1-cycle diurnal IS a low→high ramp
        // over half the phase holding half the mass.
        let diurnal = Traffic::Diurnal {
            low: 1.0,
            high: 5.0,
            cycles: 1,
        };
        let ramp = Traffic::Ramp { from: 1.0, to: 5.0 };
        let d = Tick::from_us(100);
        for j in 0..8 {
            // Quantiles 0..0.5 of the diurnal = quantiles 0..1 of the
            // ramp, compressed into [0, d/2).
            let a = diurnal.arrival_offset(j, 16, d).as_ns_f64();
            let b = ramp.arrival_offset(j, 8, Tick::from_us(50)).as_ns_f64();
            assert!((a - b).abs() < 2.0, "{a} vs {b}");
        }
    }

    /// A shape from integer draws: `kind` picks the variant, `a`/`b`
    /// are rates in hundredths (either may be the larger, so ramps and
    /// diurnal sweeps run both ways), `cycles` feeds `Diurnal`.
    fn shape(kind: u8, a: u32, b: u32, cycles: u32) -> Traffic {
        let (a, b) = (f64::from(a) / 100.0, f64::from(b) / 100.0);
        match kind {
            0 => Traffic::Ramp { from: a, to: b },
            1 => Traffic::Steady { rate: a + 0.01 },
            2 => Traffic::Burst { rate: a + 0.01 },
            3 => Traffic::HotKey {
                rate: a + 0.01,
                hot_keys: 8,
                hot_fraction: 0.9,
            },
            _ => Traffic::Diurnal {
                low: a,
                high: b,
                cycles,
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The scenario executor yields open-loop arrivals in client
        /// order and relies on that being tick order, so every shape's
        /// offsets must be non-decreasing in `j` (and stay inside the
        /// phase). Small populations are scanned whole; large ones at
        /// both ends and around every diurnal half-cycle boundary, where
        /// one ramp inversion hands over to the next.
        #[test]
        fn arrival_offsets_are_non_decreasing(
            kind in 0u8..5,
            rates in (1u32..=1_000, 1u32..=1_000),
            zero in 0u8..4,
            cycles in 1u32..=6,
            n_small in 1u64..=2_000,
            n_large in 2_000u64..=5_000_000,
            d_ns in 1u64..=20_000_000,
        ) {
            // One time in four, a zero-rate end (ramps from or to
            // silence, diurnal troughs at zero).
            let (a, b) = match zero {
                0 => (0, rates.1),
                1 => (rates.0, 0),
                _ => rates,
            };
            let t = shape(kind, a, b, cycles);
            let d = Tick::from_ns(d_ns);
            let segments = 2 * u64::from(cycles);
            for n in [n_small, n_large] {
                let mut js: Vec<u64> = if n == n_small {
                    (0..n).collect()
                } else {
                    (0..=segments)
                        .flat_map(|k| {
                            let b = k * n / segments;
                            b.saturating_sub(3)..(b + 3).min(n)
                        })
                        .collect()
                };
                js.dedup();
                for w in js.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    let (x, y) = (t.arrival_offset(lo, n, d), t.arrival_offset(hi, n, d));
                    proptest::prop_assert!(
                        x <= y,
                        "{t:?}: offset({lo}/{n}) = {x:?} > offset({hi}/{n}) = {y:?} over {d:?}"
                    );
                }
                let last = t.arrival_offset(n - 1, n, d);
                proptest::prop_assert!(last <= d, "{t:?}: last arrival {last:?} past {d:?}");
            }
        }
    }

    #[test]
    fn mean_rates_weight_phases() {
        assert_eq!(Traffic::Ramp { from: 0.0, to: 4.0 }.mean_rate(), 2.0);
        assert_eq!(Traffic::Steady { rate: 5.0 }.mean_rate(), 5.0);
        assert_eq!(
            Traffic::Diurnal {
                low: 1.0,
                high: 3.0,
                cycles: 2
            }
            .mean_rate(),
            2.0
        );
        assert!(Traffic::HotKey {
            rate: 1.0,
            hot_keys: 4,
            hot_fraction: 0.9
        }
        .hot()
        .is_some());
    }
}
