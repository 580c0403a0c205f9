//! Epoch-based online re-interleave controller (ROADMAP item 3).
//!
//! The capacity-weighted topology of [`Topology::weighted`](crate::Topology::weighted) assumes the
//! traffic mix is known up front; real workloads drift. This module
//! closes the loop: at quiescent epoch boundaries a
//! [`RebalanceController`] reads the cumulative per-home `requests`
//! counters ([`HomeStats`]), derives the traffic each home absorbed
//! during the elapsed epoch, and — when the observed
//! [`balance_error`](HomeStatsView::balance_error) exceeds a hysteresis
//! threshold — apportions a new integer weight vector for the *next*
//! epoch. The caller (the `cohet`-level epoch driver) then charges the
//! migration of every stripe whose home changes and applies the remap
//! with [`ProtocolEngine::rehome`](crate::engine::ProtocolEngine::rehome).
//!
//! Three properties are load-bearing and pinned by tests:
//!
//! * **Counter purity.** Every decision is a deterministic function of
//!   the observed request counters and the spec — no wall-clock, float
//!   iteration-order, or hash-order dependence. [`plan_weights`] is a
//!   free function over `(spec, current weights, epoch counters)` so a
//!   recorded counter trace replays to the identical weight trajectory.
//! * **Hysteresis.** Counters whose balance error against the current
//!   weights stays within `threshold` leave the weights untouched, so
//!   sampling noise cannot thrash the directory.
//! * **Bounded steps.** No weight moves by more than `max_delta` per
//!   epoch and no weight ever reaches zero, so every intermediate
//!   topology stays valid and the per-epoch migration volume is capped.
//!
//! The weight *resolution* (the vector sum) is preserved across every
//! decision. Keeping the sum constant keeps the
//! [`WeightedInterleave`] pattern period a divisor of the initial sum,
//! which bounds how much of the stripe space a single step can reshuffle.

use crate::home::{HomeStats, HomeStatsView};
use sim_core::Tick;
use simcxl_mem::{PhysAddr, WeightedInterleave};

/// Tuning knobs for the epoch-based rebalance controller, threaded
/// through `CohetSystemBuilder` at the `cohet` layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceSpec {
    /// Nominal epoch length. The epoch driver quiesces the engine and
    /// consults the controller once per `epoch_len` of simulated time;
    /// the controller itself only sees the counters, never the clock.
    pub epoch_len: Tick,
    /// Hysteresis dead-band: epochs whose observed balance error (the
    /// [`HomeStatsView::balance_error`] of the epoch's request deltas
    /// against the current weights) is `<= threshold` keep the current
    /// weights, so noise does not thrash the directory.
    pub threshold: f64,
    /// Per-home, per-epoch clamp on the weight change: no weight moves
    /// by more than `max_delta` in one epoch, and never below 1.
    pub max_delta: u64,
}

impl Default for RebalanceSpec {
    fn default() -> Self {
        RebalanceSpec {
            epoch_len: Tick::from_us(200),
            threshold: 0.10,
            max_delta: 8,
        }
    }
}

/// What the controller decided at one epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceDecision {
    /// Epoch index (0 for the first boundary).
    pub epoch: u32,
    /// Whether the weights changed (false when the hysteresis held the
    /// current vector or the epoch carried no traffic).
    pub changed: bool,
    /// Weights in force for the *next* epoch (equal to the previous
    /// vector when `changed` is false).
    pub weights: Vec<u64>,
    /// Balance error of the elapsed epoch's traffic against the weights
    /// that were in force while it ran.
    pub observed_error: f64,
    /// Per-home request deltas observed during the elapsed epoch.
    pub epoch_requests: Vec<u64>,
}

/// The epoch-based controller: owns the current weight vector and the
/// cumulative-counter baseline, and turns per-epoch counter deltas into
/// clamped weight updates.
#[derive(Debug, Clone)]
pub struct RebalanceController {
    spec: RebalanceSpec,
    weights: Vec<u64>,
    /// Cumulative per-home `requests` at the previous epoch boundary.
    baseline: Vec<u64>,
    epochs: u32,
}

impl RebalanceController {
    /// Creates a controller starting from `initial` weights (the
    /// topology's capacity weights) with a zero counter baseline.
    ///
    /// # Panics
    ///
    /// Panics on an empty or zero-containing weight vector.
    pub fn new(spec: RebalanceSpec, initial: &[u64]) -> Self {
        assert!(!initial.is_empty(), "controller needs at least one home");
        assert!(
            initial.iter().all(|&w| w > 0),
            "zero-weight home owns no stripes"
        );
        assert!(spec.threshold >= 0.0, "negative hysteresis threshold");
        assert!(spec.max_delta >= 1, "max_delta of 0 can never rebalance");
        RebalanceController {
            spec,
            baseline: vec![0; initial.len()],
            weights: initial.to_vec(),
            epochs: 0,
        }
    }

    /// Consumes one epoch boundary: `cumulative` is the monotone
    /// per-home `requests` counter vector at the boundary; the elapsed
    /// epoch's traffic is the delta against the previous boundary.
    ///
    /// # Panics
    ///
    /// Panics if `cumulative` has the wrong length or regressed below
    /// the previous boundary (counters are monotone by construction).
    pub fn epoch(&mut self, cumulative: &[u64]) -> RebalanceDecision {
        assert_eq!(
            cumulative.len(),
            self.weights.len(),
            "one cumulative counter per home"
        );
        let delta: Vec<u64> = cumulative
            .iter()
            .zip(&self.baseline)
            .map(|(&now, &then)| {
                now.checked_sub(then)
                    .expect("per-home request counters are monotone")
            })
            .collect();
        self.baseline.copy_from_slice(cumulative);
        let observed_error = balance_error_of(&delta, &self.weights);
        let next = plan_weights(&self.spec, &self.weights, &delta);
        let changed = next != self.weights;
        if changed {
            self.weights = next.clone();
        }
        let epoch = self.epochs;
        self.epochs += 1;
        RebalanceDecision {
            epoch,
            changed,
            weights: next,
            observed_error,
            epoch_requests: delta,
        }
    }
}

/// The balance error of a per-home request vector against a weight
/// vector — exactly [`HomeStatsView::balance_error`], routed through
/// the view so the controller and the stats surface can never diverge.
///
/// # Panics
///
/// Panics on empty or length-mismatched inputs, or a zero weight.
pub fn balance_error_of(requests: &[u64], weights: &[u64]) -> f64 {
    let stats: Vec<HomeStats> = requests
        .iter()
        .map(|&requests| HomeStats {
            requests,
            ..HomeStats::default()
        })
        .collect();
    HomeStatsView::new(stats, weights.to_vec()).balance_error()
}

/// Pure planning function: the weight vector for the next epoch given
/// the current one and the elapsed epoch's per-home request deltas.
///
/// The traffic shares are apportioned onto `sum(current)` integer slots
/// by largest remainder (ties to the lowest home index), then clamped
/// to `current[h] ± max_delta` and to a floor of 1; the slot sum is
/// repaired after clamping by nudging the homes whose clamped weight
/// sits farthest from its traffic share. A zero-traffic epoch or one
/// whose balance error is within `spec.threshold` returns `current`
/// unchanged.
///
/// Every step is integer arithmetic over the inputs, so the function is
/// pure in `(spec, current, epoch_requests)` — the property the
/// counter-purity tests replay.
///
/// # Panics
///
/// Panics on empty or length-mismatched inputs, or a zero weight in
/// `current`.
pub fn plan_weights(spec: &RebalanceSpec, current: &[u64], epoch_requests: &[u64]) -> Vec<u64> {
    assert_eq!(
        current.len(),
        epoch_requests.len(),
        "one request counter per home"
    );
    assert!(!current.is_empty(), "at least one home");
    assert!(current.iter().all(|&w| w > 0), "zero weight in current");
    let total: u128 = epoch_requests.iter().map(|&r| r as u128).sum();
    if total == 0 {
        return current.to_vec();
    }
    if balance_error_of(epoch_requests, current) <= spec.threshold {
        return current.to_vec();
    }
    let resolution: u64 = current.iter().sum();
    let slots = resolution as u128;

    // Largest-remainder apportionment of `resolution` slots onto the
    // traffic shares: floor first, then hand leftover slots to the
    // largest remainders (ties to the lowest home index).
    let mut next: Vec<u64> = epoch_requests
        .iter()
        .map(|&r| ((r as u128 * slots) / total) as u64)
        .collect();
    let mut rem: Vec<(u128, usize)> = epoch_requests
        .iter()
        .enumerate()
        .map(|(i, &r)| ((r as u128 * slots) % total, i))
        .collect();
    rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let assigned: u64 = next.iter().sum();
    for &(_, i) in rem
        .iter()
        .cycle()
        .take(resolution.saturating_sub(assigned) as usize)
    {
        next[i] += 1;
    }

    // Clamp each home to its per-epoch corridor (and the floor of 1).
    let lo: Vec<u64> = current
        .iter()
        .map(|&w| w.saturating_sub(spec.max_delta).max(1))
        .collect();
    let hi: Vec<u64> = current.iter().map(|&w| w + spec.max_delta).collect();
    for ((w, &l), &h) in next.iter_mut().zip(&lo).zip(&hi) {
        *w = (*w).clamp(l, h);
    }

    // Clamping can break the slot sum; repair it deterministically.
    // `sum(lo) <= resolution <= sum(hi)` always holds (lo[h] <=
    // current[h] <= hi[h]), so both loops terminate. The home to nudge
    // is the one whose clamped weight sits farthest from its exact
    // traffic share, compared in exact integer cross-multiplication
    // (deficit_h = requests_h * slots - weight_h * total).
    loop {
        let sum: u64 = next.iter().sum();
        if sum == resolution {
            break;
        }
        let deficit =
            |h: usize| epoch_requests[h] as i128 * slots as i128 - next[h] as i128 * total as i128;
        if sum < resolution {
            let h = (0..next.len())
                .filter(|&h| next[h] < hi[h])
                .max_by(|&a, &b| deficit(a).cmp(&deficit(b)).then(b.cmp(&a)))
                .expect("sum(hi) >= resolution leaves headroom");
            next[h] += 1;
        } else {
            let h = (0..next.len())
                .filter(|&h| next[h] > lo[h])
                .min_by(|&a, &b| deficit(a).cmp(&deficit(b)).then(b.cmp(&a)))
                .expect("sum(lo) <= resolution leaves slack");
            next[h] -= 1;
        }
    }
    next
}

/// How many of the first `stripes` stripes change home when the
/// weighted pattern moves from `old` to `new` weights (both at the same
/// `stride`) — the minimal line-set a re-interleave must migrate,
/// counted in stripes. Multiply by `stride / 64` for cachelines.
///
/// # Panics
///
/// Panics on invalid weight vectors or stride (see
/// [`WeightedInterleave::new`]).
pub fn moved_stripes(old: &[u64], new: &[u64], stride: u64, stripes: u64) -> u64 {
    if old == new {
        return 0;
    }
    let a = WeightedInterleave::new(old, stride);
    let b = WeightedInterleave::new(new, stride);
    (0..stripes)
        .filter(|&s| a.index_of(PhysAddr::new(s * stride)) != b.index_of(PhysAddr::new(s * stride)))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(threshold: f64, max_delta: u64) -> RebalanceSpec {
        RebalanceSpec {
            epoch_len: Tick::from_us(100),
            threshold,
            max_delta,
        }
    }

    /// Counters exactly proportional to the current weights sit at
    /// balance error 0 and must never move the weights.
    #[test]
    fn proportional_counters_hold_weights() {
        let s = spec(0.05, 8);
        let w = [16u64, 16, 16, 16];
        assert_eq!(plan_weights(&s, &w, &[500, 500, 500, 500]), w.to_vec());
        let skewed = [24u64, 16, 16, 8];
        assert_eq!(
            plan_weights(&s, &skewed, &[2400, 1600, 1600, 800]),
            skewed.to_vec()
        );
    }

    /// Counters within the hysteresis threshold of the current shares
    /// leave the weights unchanged; just past it, they move.
    #[test]
    fn hysteresis_dead_band() {
        let s = spec(0.10, 8);
        let w = [16u64, 16, 16, 16];
        // Error = |27/104 - 1/4| / (1/4) ≈ 0.038 <= 0.10: hold.
        assert_eq!(plan_weights(&s, &w, &[27, 26, 26, 25]), w.to_vec());
        // Error = |40/100 - 1/4| / (1/4) = 0.6 > 0.10: move.
        assert_ne!(plan_weights(&s, &w, &[40, 20, 20, 20]), w.to_vec());
    }

    /// A zero-traffic epoch is indistinguishable from "no evidence":
    /// weights hold.
    #[test]
    fn idle_epoch_holds_weights() {
        let s = spec(0.05, 8);
        assert_eq!(plan_weights(&s, &[3, 2, 1], &[0, 0, 0]), vec![3, 2, 1]);
    }

    /// A step change in the hot set converges within a bounded number
    /// of epochs: the per-epoch progress is at least one slot until the
    /// apportionment is reached, so ceil(max |target - start| /
    /// max_delta) epochs suffice.
    #[test]
    fn step_change_converges_bounded() {
        let s = spec(0.02, 4);
        let mut ctl = RebalanceController::new(s, &[16, 16, 16, 16]);
        // Traffic jumps to a 40:8:8:8 mix and stays there. Feed the
        // controller cumulative counters with that fixed per-epoch mix.
        let mix = [4000u64, 800, 800, 800];
        let mut cum = [0u64; 4];
        let mut converged_at = None;
        for e in 0..12 {
            for (c, m) in cum.iter_mut().zip(&mix) {
                *c += m;
            }
            let d = ctl.epoch(&cum);
            if d.weights == vec![40, 8, 8, 8] && converged_at.is_none() {
                converged_at = Some(e);
            }
        }
        // |40 - 16| / max_delta = 6 epochs of clamped steps.
        let at = converged_at.expect("controller converged to the traffic mix");
        assert!(at <= 6, "converged at epoch {at}, expected <= 6");
        // And once there, it stays: hysteresis holds the fixed point.
        let mut cum2 = cum;
        for (c, m) in cum2.iter_mut().zip(&mix) {
            *c += m;
        }
        let d = ctl.epoch(&cum2);
        assert!(!d.changed, "fixed point must be stable");
        assert_eq!(d.weights, vec![40, 8, 8, 8]);
    }

    /// Extreme skew with a huge `max_delta` still never zeroes a
    /// weight, and every step respects the clamp and the slot sum.
    #[test]
    fn clamp_never_zeroes_and_preserves_sum() {
        let s = spec(0.0, 1000);
        let current = [2u64, 30, 16, 16];
        let next = plan_weights(&s, &current, &[100_000, 1, 1, 1]);
        assert_eq!(next.iter().sum::<u64>(), 64);
        assert!(next.iter().all(|&w| w >= 1), "zero weight in {next:?}");
        // The starved homes pin at the floor; the hot home takes the rest.
        assert_eq!(next, vec![61, 1, 1, 1]);

        let tight = spec(0.0, 3);
        let next = plan_weights(&tight, &current, &[100_000, 1, 1, 1]);
        assert_eq!(next.iter().sum::<u64>(), 64);
        for (n, c) in next.iter().zip(&current) {
            assert!(n.abs_diff(*c) <= 3, "delta clamp violated: {next:?}");
            assert!(*n >= 1);
        }
    }

    /// plan_weights is pure: identical inputs give identical outputs,
    /// and the controller's trajectory replays from recorded deltas.
    #[test]
    fn decisions_replay_from_recorded_counters() {
        let s = spec(0.05, 6);
        let mut ctl = RebalanceController::new(s.clone(), &[16, 16, 16, 16]);
        let traces = [
            [900u64, 300, 300, 300],
            [1200, 200, 200, 200],
            [500, 500, 500, 500],
            [100, 1500, 100, 100],
        ];
        let mut cum = [0u64; 4];
        let mut recorded = Vec::new();
        for t in &traces {
            for (c, d) in cum.iter_mut().zip(t) {
                *c += d;
            }
            recorded.push(ctl.epoch(&cum));
        }
        // Replay offline: plan_weights over the recorded deltas walks
        // the same weight trajectory.
        let mut w = vec![16u64, 16, 16, 16];
        for d in &recorded {
            let next = plan_weights(&s, &w, &d.epoch_requests);
            assert_eq!(next, d.weights);
            w = next;
        }
    }

    /// The stripe diff is empty iff the patterns match, and is counted
    /// over the exact stripe range.
    #[test]
    fn moved_stripes_counts_pattern_diff() {
        assert_eq!(moved_stripes(&[1, 1], &[1, 1], 4096, 1024), 0);
        // Scaled weights produce the identical pattern (gcd reduction).
        assert_eq!(moved_stripes(&[2, 2], &[1, 1], 4096, 1024), 0);
        let m = moved_stripes(&[1, 1], &[3, 1], 4096, 1024);
        // (1,1) alternates; (3,1) keeps home 0 on 3 of every 4 stripes:
        // per 4-stripe window exactly one stripe flips (1,1)-home-1 ->
        // home-0 ... count it explicitly.
        assert!(m > 0);
        let a = WeightedInterleave::new(&[1, 1], 4096);
        let b = WeightedInterleave::new(&[3, 1], 4096);
        let brute = (0..1024u64)
            .filter(|&s| a.index_of(PhysAddr::new(s * 4096)) != b.index_of(PhysAddr::new(s * 4096)))
            .count() as u64;
        assert_eq!(m, brute);
    }

    /// Monotone-counter violation panics loudly instead of silently
    /// producing a garbage delta.
    #[test]
    #[should_panic(expected = "monotone")]
    fn counter_regression_panics() {
        let mut ctl = RebalanceController::new(spec(0.05, 4), &[1, 1]);
        ctl.epoch(&[10, 10]);
        ctl.epoch(&[5, 10]);
    }
}
