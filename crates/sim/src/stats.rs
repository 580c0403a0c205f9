//! Measurement helpers: sample summaries, percentiles, MAPE.

use crate::Tick;

/// A collection of duration samples supporting exact percentile queries.
///
/// Samples are kept in full (the experiments in this repository collect
/// at most a few million points), so percentiles are exact. Each sample
/// is a duration stored in picoseconds: a `u32` (4 bytes) when it is
/// below 2^32 ps (about 4.29 ms), otherwise a `u64` in a spill vector.
/// Every spilled sample is larger than every in-range one, so ascending
/// order is the sorted `u32` run followed by the sorted spill run. The
/// statistics are reported in nanoseconds: each sample converts with
/// [`Tick::as_ns_f64`] only when a query reads it.
///
/// Queries sort the samples in place first, so [`Summary::mean`] and
/// [`Summary::stddev`] always sum in ascending order and give the same
/// bits whatever was asked before them.
///
/// ```
/// use sim_core::{Summary, Tick};
/// let mut s = Summary::new();
/// for ns in [1, 2, 3, 4, 5] {
///     s.record_ns(Tick::from_ns(ns));
/// }
/// assert_eq!(s.median(), 3.0);
/// assert_eq!(s.percentile(25.0), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 5.0);
/// assert_eq!(s.mean(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Samples below 2^32 ps.
    ps: Vec<u32>,
    /// Samples of 2^32 ps or more.
    spill: Vec<u64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            ps: Vec::new(),
            spill: Vec::new(),
            sorted: true,
        }
    }

    /// Records a [`Tick`] duration; the statistics report it in
    /// nanoseconds.
    pub fn record_ns(&mut self, t: Tick) {
        match u32::try_from(t.as_ps()) {
            Ok(ps) => self.ps.push(ps),
            Err(_) => self.spill.push(t.as_ps()),
        }
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.ps.len() + self.spill.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples in nanoseconds, in stored order.
    fn ns(&self) -> impl Iterator<Item = f64> + '_ {
        self.ps
            .iter()
            .map(|&ps| u64::from(ps))
            .chain(self.spill.iter().copied())
            .map(|ps| Tick::from_ps(ps).as_ns_f64())
    }

    /// Arithmetic mean, summed in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn mean(&mut self) -> f64 {
        assert!(!self.is_empty(), "no samples");
        self.sort();
        self.ns().sum::<f64>() / self.len() as f64
    }

    /// Population standard deviation, summed in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn stddev(&mut self) -> f64 {
        let m = self.mean();
        let var = self.ns().map(|v| (v - m) * (v - m)).sum::<f64>() / self.len() as f64;
        var.sqrt()
    }

    /// Sorts both runs in place. Unstable sorting allocates nothing (the
    /// stable sort takes a scratch buffer as long as the slice), and
    /// equal integers are indistinguishable, so it is as good as stable.
    fn sort(&mut self) {
        if !self.sorted {
            self.ps.sort_unstable();
            self.spill.sort_unstable();
            self.sorted = true;
        }
    }

    /// Exact percentile in nanoseconds by nearest rank (`p` in
    /// `[0, 100]`).
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        assert!(!self.is_empty(), "no samples");
        self.sort();
        let rank = if p == 0.0 {
            0
        } else {
            ((p / 100.0 * self.len() as f64).ceil() as usize).saturating_sub(1)
        };
        let ps = match self.ps.get(rank) {
            Some(&ps) => u64::from(ps),
            None => self.spill[rank - self.ps.len()],
        };
        Tick::from_ps(ps).as_ns_f64()
    }

    /// The median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&mut self) -> f64 {
        self.percentile(0.0)
    }

    /// Largest sample.
    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    /// The samples in nanoseconds, in stored order: the in-range samples
    /// then the spilled ones, each in insertion order until a query
    /// sorts them. With nothing spilled and no query yet, that is
    /// insertion order.
    pub fn samples(&self) -> Vec<f64> {
        self.ns().collect()
    }
}

/// Mean absolute percentage error between `(reference, measured)` pairs.
///
/// This is the figure of merit the paper reports for simulator calibration
/// ("an average simulation error of 3%"). Returned as a percentage.
///
/// # Panics
///
/// Panics if `pairs` is empty or any reference value is zero.
///
/// ```
/// use sim_core::mape;
/// let err = mape(&[(100.0, 103.0), (200.0, 194.0)]);
/// assert!((err - 3.0).abs() < 1e-9);
/// ```
pub fn mape(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "mape of empty set");
    let total: f64 = pairs
        .iter()
        .map(|&(reference, measured)| {
            assert!(reference != 0.0, "zero reference value");
            ((measured - reference) / reference).abs()
        })
        .sum();
    total / pairs.len() as f64 * 100.0
}

#[cfg(test)]
#[path = "../tests/support/summary_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;

    fn summary_of(ticks: &[Tick]) -> Summary {
        let mut s = Summary::new();
        for &t in ticks {
            s.record_ns(t);
        }
        s
    }

    #[test]
    fn summary_stats() {
        let ticks = [2, 4, 4, 4, 5, 5, 7, 9].map(Tick::from_ns);
        let mut s = summary_of(&ticks);
        assert_eq!(s.len(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.median(), 4.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let ticks: Vec<Tick> = (1..=100).map(Tick::from_ns).collect();
        let mut s = summary_of(&ticks);
        assert_eq!(s.percentile(25.0), 25.0);
        assert_eq!(s.percentile(75.0), 75.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn in_place_sort_matches_stable_sort_bit_for_bit() {
        // Many duplicates: 20,000 samples over 50 distinct latencies.
        let mut rng = crate::SimRng::new(7);
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.record_ns(Tick::from_ps(rng.below(50) * 1_250));
        }
        let mut stable = s.samples();
        stable.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let _ = s.median();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s.samples()), bits(&stable));
    }

    #[test]
    fn record_ns_converts() {
        let mut s = Summary::new();
        s.record_ns(Tick::from_ns(688));
        assert_eq!(s.median(), 688.0);
    }

    #[test]
    #[should_panic]
    fn empty_summary_panics() {
        let mut s = Summary::new();
        let _ = s.median();
    }

    /// Asserts that every statistic of `ticks` has the bits of the `f64`
    /// reference.
    fn assert_matches_reference(ticks: &[Tick]) {
        let r = Reference::new(ticks.iter().map(|t| t.as_ns_f64()));
        let mut s = summary_of(ticks);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(
                s.percentile(p).to_bits(),
                r.percentile(p).to_bits(),
                "p{p} of {} samples",
                ticks.len()
            );
        }
        assert_eq!(s.mean().to_bits(), r.mean.to_bits(), "mean");
        assert_eq!(s.stddev().to_bits(), r.stddev.to_bits(), "stddev");
    }

    #[test]
    fn statistics_match_the_f64_reference_bit_for_bit() {
        let edge = u64::from(u32::MAX);
        let at_edge = [Tick::from_ps(edge), Tick::from_ps(edge + 1)];
        assert_matches_reference(&[Tick::from_ps(688_125)]);
        assert_matches_reference(&at_edge);
        assert_matches_reference(&[at_edge[1], at_edge[0], at_edge[1]]);
        // All spill: millisecond stalls.
        let spill: Vec<Tick> = (0..40).map(|i| Tick::from_us(5_000 + i * 7 % 13)).collect();
        assert_matches_reference(&spill);
        // Mixed: spilled samples interleaved with in-range ones.
        let mixed: Vec<Tick> = (0..300u64)
            .map(|i| match i % 5 {
                0 => Tick::from_ps(edge + 1 + i),
                1 => Tick::from_ps(edge - i),
                _ => Tick::from_ps(250 * (i % 17) + 1),
            })
            .collect();
        assert_matches_reference(&mixed);
        // Random sets over a small pool of latencies, so many duplicates,
        // some of them spanning the spill boundary.
        let mut rng = crate::SimRng::new(0x5A3);
        for trial in 0..200 {
            let n = 1 + rng.below(2_000) as usize;
            let pool: Vec<u64> = (0..1 + rng.below(64))
                .map(|_| match trial % 4 {
                    0 => rng.below(2_000_000),
                    1 => edge - 500 + rng.below(1_000),
                    _ => rng.below(1 << 34),
                })
                .collect();
            let ticks: Vec<Tick> = (0..n)
                .map(|_| Tick::from_ps(pool[rng.below(pool.len() as u64) as usize]))
                .collect();
            assert_matches_reference(&ticks);
        }
    }

    #[test]
    fn samples_keep_insertion_order_when_nothing_spilled() {
        let mut rng = crate::SimRng::new(12);
        let ticks: Vec<Tick> = (0..1_000)
            .map(|_| Tick::from_ps(rng.below(1 << 30)))
            .collect();
        let s = summary_of(&ticks);
        let ns: Vec<f64> = ticks.iter().map(|t| t.as_ns_f64()).collect();
        assert_eq!(s.samples(), ns);
    }

    #[test]
    fn mean_does_not_depend_on_earlier_queries() {
        let ticks = [300, 200, 100].map(Tick::from_ps);
        let mut s = summary_of(&ticks);
        let before = s.mean().to_bits();
        let _ = s.median();
        assert_eq!(s.mean().to_bits(), before);
        let r = Reference::new(ticks.iter().map(|t| t.as_ns_f64()));
        assert_eq!(before, r.mean.to_bits());
    }

    #[test]
    fn mape_basic() {
        assert_eq!(mape(&[(100.0, 100.0)]), 0.0);
        let e = mape(&[(100.0, 110.0), (100.0, 90.0)]);
        assert!((e - 10.0).abs() < 1e-12);
    }
}
