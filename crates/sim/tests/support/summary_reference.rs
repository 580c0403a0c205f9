//! An `f64` reference for `sim_core::Summary`: the algorithm the
//! summary used when it stored every sample as `f64` nanoseconds.
//! Values are stable-sorted by `partial_cmp`, percentiles take the
//! nearest rank, and the mean and standard deviation sum in ascending
//! order. Tests compare `Summary` against it bit for bit.
//!
//! Plain `std` only, so that both the `stats` unit tests and the
//! engine-level fault tests can include it with `#[path]`.

/// Exact statistics of a set of nanosecond values.
pub struct Reference {
    sorted: Vec<f64>,
    /// Arithmetic mean, summed in ascending order.
    pub mean: f64,
    /// Population standard deviation, summed in ascending order.
    pub stddev: f64,
}

impl Reference {
    /// Summarises `ns`, the samples' `Tick::as_ns_f64` values.
    pub fn new(ns: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = ns.into_iter().collect();
        assert!(!sorted.is_empty(), "no samples");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Reference {
            sorted,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> f64 {
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = (p / 100.0 * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1)]
    }
}
