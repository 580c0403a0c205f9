//! Measurement helpers: counters, sample summaries, percentiles, MAPE.

use crate::Tick;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A collection of scalar samples supporting percentile queries.
///
/// Samples are kept in full (the experiments in this repository collect at
/// most a few million points), so percentiles are exact.
///
/// ```
/// use sim_core::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
///     s.record(v);
/// }
/// assert_eq!(s.median(), 3.0);
/// assert_eq!(s.percentile(25.0), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Records a [`Tick`] sample in nanoseconds.
    pub fn record_ns(&mut self, t: Tick) {
        self.record(t.as_ns_f64());
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "no samples");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn stddev(&self) -> f64 {
        let m = self.mean();
        let var =
            self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }

    /// Sorts the samples in place. Unstable sorting allocates nothing
    /// (the stable sort takes a scratch buffer as long as the slice), and
    /// it yields the same bits as a stable sort: samples that compare
    /// equal are bit-identical unless they are `0.0` and `-0.0`, and
    /// nothing records a negative zero.
    fn sort(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Exact percentile by nearest-rank (`p` in `[0, 100]`).
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        assert!(!self.is_empty(), "no samples");
        self.sort();
        if p == 0.0 {
            return self.samples[0];
        }
        let rank = (p / 100.0 * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1)]
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

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
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
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_stats() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.median(), 4.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
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
        let mut stable = s.samples().to_vec();
        stable.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let _ = s.median();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.samples()), bits(&stable));
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

    #[test]
    fn mape_basic() {
        assert_eq!(mape(&[(100.0, 100.0)]), 0.0);
        let e = mape(&[(100.0, 110.0), (100.0, 90.0)]);
        assert!((e - 10.0).abs() < 1e-12);
    }
}
