//! Multi-home topology: which home agent owns which address.
//!
//! SimCXL models systems whose directory is physically distributed
//! across home nodes — host sockets and CXL expanders behind a switch —
//! so the engine routes every request, snoop, writeback and replay
//! through a [`Topology`] instead of assuming one monolithic home.
//!
//! Three policies cover the systems of interest:
//!
//! * **Pow2 interleave** ([`Topology::interleaved`]): `home = (addr /
//!   stride) % n`, computed with the DRAM mapper's shift/mask trick via
//!   [`simcxl_mem::Interleave`]. This is the symmetric multi-socket
//!   case.
//! * **Weighted interleave** ([`Topology::weighted`], and the
//!   capacity-derived [`Topology::capacity_weighted`]): stripes dealt
//!   to homes proportionally to an integer weight vector via
//!   [`simcxl_mem::WeightedInterleave`] — the skewed host-pool +
//!   expander-pool case where a big host DRAM should own more of the
//!   directory than a small expander. Equal weights degenerate to the pow2 interleave,
//!   structurally.
//! * **Range table** ([`Topology::ranges`]): explicit `[range] -> home`
//!   claims with an interleaved fallback for unclaimed addresses. This
//!   is the asymmetric host-pool + expander-pool case, where a CXL
//!   expander's memory is homed on its own device-side agent.
//!
//! Every physical address maps to exactly one home under every policy,
//! so the homes partition the address space (the property tests pin
//! this). [`Topology::single`] is the trivial N=1 special case the
//! pre-multi-home engine hard-wired.

use simcxl_mem::{gcd, AddrRange, Interleave, PhysAddr, WeightedInterleave};
use std::fmt;

/// Identifies one home agent in a multi-home topology.
///
/// Distinct from [`crate::msg::AgentId`]: agent ids number the *ports*
/// on the engine (home, memory, peer caches) while home ids number the
/// directory shards. The single-home engine only ever sees
/// `HomeId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HomeId(pub usize);

impl HomeId {
    /// The first (and in single-home topologies, only) home.
    pub(crate) const ZERO: HomeId = HomeId(0);

    /// Raw index into the engine's home vector.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for HomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "home{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Policy {
    /// Pure pow2 interleave across all homes.
    Interleave(Interleave),
    /// Capacity-proportional stripe pattern across all homes (O(1)
    /// lookup through the precomputed pattern table).
    Weighted(WeightedInterleave),
    /// Explicit claims consulted first (sorted by range start; on
    /// overlap the claim with the greatest start wins, like the NUMA
    /// extra-latency table); unclaimed addresses fall back to the
    /// interleave.
    Ranges {
        table: Vec<(AddrRange, HomeId)>,
        fallback: Interleave,
    },
}

/// Describes N home agents and the address-interleaving policy that
/// partitions the physical address space among them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    homes: usize,
    policy: Policy,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

impl Topology {
    /// The trivial single-home topology (the pre-refactor engine).
    pub fn single() -> Self {
        Topology {
            homes: 1,
            policy: Policy::Interleave(Interleave::single()),
        }
    }

    /// `homes` home agents interleaved at `stride` bytes:
    /// `home = (addr / stride) % homes`.
    ///
    /// ```
    /// use simcxl_coherence::{HomeId, Topology};
    /// use simcxl_mem::PhysAddr;
    ///
    /// // Four homes, 4 KiB stride: consecutive pages round-robin.
    /// let t = Topology::interleaved(4, 4096);
    /// assert_eq!(t.homes(), 4);
    /// assert_eq!(t.home_for(PhysAddr::new(0)), HomeId(0));
    /// assert_eq!(t.home_for(PhysAddr::new(4096)), HomeId(1));
    /// assert_eq!(t.home_for(PhysAddr::new(4 * 4096)), HomeId(0));
    /// // All lines of one page share a home.
    /// assert_eq!(t.home_for(PhysAddr::new(4096 + 64)), HomeId(1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `homes` and `stride` are powers of two and
    /// `stride` is at least one cacheline (see
    /// [`simcxl_mem::Interleave::new`]).
    pub fn interleaved(homes: usize, stride: u64) -> Self {
        Topology {
            homes,
            policy: Policy::Interleave(Interleave::new(homes, stride)),
        }
    }

    /// `homes` home agents interleaved per cacheline (the finest
    /// symmetric split; adjacent lines land on different homes).
    pub fn line_interleaved(homes: usize) -> Self {
        Self::interleaved(homes, simcxl_mem::CACHELINE_BYTES)
    }

    /// `weights.len()` home agents striped at `stride` bytes, each home
    /// owning stripes in proportion to its weight — home `i` gets
    /// `weights[i] / sum(weights)` of the address space, dealt through
    /// the evenly-spread repeating pattern of
    /// [`simcxl_mem::WeightedInterleave`]. `home_for` stays O(1) via
    /// the precomputed stripe-pattern lookup table.
    ///
    /// Equal weight vectors **degenerate structurally** to the pow2
    /// interleave: `Topology::weighted(&[3, 3], s) ==
    /// Topology::interleaved(2, s)`, so equal-weight configurations
    /// keep the exact routing (and completion streams) of the
    /// unweighted policy. Non-pow2 home counts are supported through
    /// the weighted policy's modulo path.
    ///
    /// ```
    /// use simcxl_coherence::{HomeId, Topology};
    /// use simcxl_mem::PhysAddr;
    ///
    /// // A 4 GB host pool next to 2 GB + 1 GB + 1 GB expanders:
    /// // home 0 owns half of every 8-stripe repeat.
    /// let t = Topology::weighted(&[4, 2, 1, 1], 4096);
    /// assert_eq!(t.homes(), 4);
    /// let owners: Vec<_> = (0..8u64)
    ///     .map(|s| t.home_for(PhysAddr::new(s * 4096)).index())
    ///     .collect();
    /// assert_eq!(owners, [0, 1, 0, 2, 3, 0, 1, 0]);
    /// // Equal weights are *the same topology* as the pow2 interleave.
    /// assert_eq!(Topology::weighted(&[3, 3], 4096), Topology::interleaved(2, 4096));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an empty or zero-containing weight vector, a non-pow2
    /// or sub-cacheline stride, or a gcd-reduced weight sum beyond
    /// 65 536 (see [`WeightedInterleave::new`]).
    pub fn weighted(weights: &[u64], stride: u64) -> Self {
        let wi = WeightedInterleave::new(weights, stride);
        if wi.is_uniform() && wi.ways().is_power_of_two() {
            return Self::interleaved(wi.ways(), stride);
        }
        Topology {
            homes: wi.ways(),
            policy: Policy::Weighted(wi),
        }
    }

    /// A weighted topology whose weights are derived from per-home
    /// memory capacities (bytes): each home's stripe share is its
    /// capacity's share of the total, so directory traffic tracks pool
    /// size. Exact when the capacities share a large gcd (the common
    /// pow2-sized-pool case); otherwise the shares are apportioned onto
    /// a bounded pattern (≤ 1024 stripes,
    /// largest-remainder rounding, every home at least one stripe).
    ///
    /// ```
    /// use simcxl_coherence::Topology;
    /// const G: u64 = 1 << 30;
    /// // 4 GB host + 2 GB + 1 GB + 1 GB expanders -> 4:2:1:1 stripes.
    /// let t = Topology::capacity_weighted(&[4 * G, 2 * G, G, G], 4096);
    /// assert_eq!(t, Topology::weighted(&[4, 2, 1, 1], 4096));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an empty capacity slice, a zero capacity, or a bad
    /// stride (see [`Self::weighted`]).
    pub fn capacity_weighted(capacities: &[u64], stride: u64) -> Self {
        assert!(!capacities.is_empty(), "topology needs at least one home");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "zero-capacity home owns no addresses"
        );
        let g = capacities.iter().copied().fold(0, gcd);
        let total: u64 = capacities.iter().map(|&c| c / g).sum();
        if total <= Self::CAPACITY_PATTERN_SLOTS {
            let weights: Vec<u64> = capacities.iter().map(|&c| c / g).collect();
            return Self::weighted(&weights, stride);
        }
        // Incommensurate capacities: apportion a fixed number of
        // pattern slots by largest remainder, guaranteeing every home
        // at least one stripe (a tiny pool must still be reachable).
        let slots = Self::CAPACITY_PATTERN_SLOTS;
        let total_cap: u128 = capacities.iter().map(|&c| c as u128).sum();
        let mut weights: Vec<u64> = capacities
            .iter()
            .map(|&c| ((c as u128 * slots as u128 / total_cap) as u64).max(1))
            .collect();
        let mut rem: Vec<(u128, usize)> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| (c as u128 * slots as u128 % total_cap, i))
            .collect();
        // Hand the leftover slots to the largest remainders (ties to
        // the lowest home index, for determinism).
        rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let assigned: u64 = weights.iter().sum();
        for &(_, i) in rem
            .iter()
            .cycle()
            .take(slots.saturating_sub(assigned) as usize)
        {
            weights[i] += 1;
        }
        Self::weighted(&weights, stride)
    }

    /// Pattern length [`Self::capacity_weighted`] apportions onto when
    /// the reduced capacities would overflow a reasonable table.
    pub(crate) const CAPACITY_PATTERN_SLOTS: u64 = 1024;

    /// An asymmetric topology: each `(range, home)` claim routes its
    /// range to the named home; addresses outside every claim fall back
    /// to a pow2 interleave across the first `fallback_homes` homes at
    /// `fallback_stride` bytes. `homes` is the total home count and
    /// must cover every id named in the table and the fallback.
    ///
    /// This is the host + expander shape: host sockets interleave the
    /// host pool while each expander's range is claimed by its own
    /// home agent.
    ///
    /// # Panics
    ///
    /// Panics if `homes` is zero, a claim names a home `>= homes`, the
    /// fallback parameters are not pow2, or `fallback_homes > homes`.
    pub fn ranges(
        homes: usize,
        claims: Vec<(AddrRange, HomeId)>,
        fallback_homes: usize,
        fallback_stride: u64,
    ) -> Self {
        assert!(homes > 0, "topology needs at least one home");
        assert!(
            fallback_homes <= homes,
            "fallback interleave names more homes than exist"
        );
        let mut table = claims;
        for &(_, h) in &table {
            assert!(h.0 < homes, "claim routes to nonexistent {h}");
        }
        table.sort_by_key(|(r, _)| r.base());
        Topology {
            homes,
            policy: Policy::Ranges {
                table,
                fallback: Interleave::new(fallback_homes, fallback_stride),
            },
        }
    }

    /// Number of home agents.
    pub fn homes(&self) -> usize {
        self.homes
    }

    /// Whether this is the trivial single-home topology.
    pub fn is_single(&self) -> bool {
        self.homes == 1
    }

    /// The home agent owning `addr`. Total: every address maps to
    /// exactly one home, so the homes partition the address space.
    pub fn home_for(&self, addr: PhysAddr) -> HomeId {
        match &self.policy {
            Policy::Interleave(il) => HomeId(il.index_of(addr)),
            Policy::Weighted(wi) => HomeId(wi.index_of(addr)),
            Policy::Ranges { table, fallback } => {
                // Same backward walk as the NUMA extra-latency table:
                // binary-search the insertion point, then scan back over
                // claims starting at or before `addr`.
                let i = table.partition_point(|(r, _)| r.base() <= addr);
                table[..i]
                    .iter()
                    .rev()
                    .find(|(r, _)| r.contains(addr))
                    .map(|&(_, h)| h)
                    .unwrap_or_else(|| HomeId(fallback.index_of(addr)))
            }
        }
    }

    /// Relative directory-load weight of each home, indexed by
    /// [`HomeId`]: the stripe share a home owns under the policy.
    /// [`HomeStatsView`](crate::HomeStatsView) measures load balance
    /// against these. Interleaves are uniform (`1` each); range tables
    /// derive each home's weight from the bytes it owns — claimed homes
    /// from their claims' total size, fallback homes from equal shares
    /// of the unclaimed span below the lowest claim (the host-pool
    /// proxy).
    ///
    /// ```
    /// use simcxl_coherence::{HomeId, Topology};
    /// use simcxl_mem::{AddrRange, PhysAddr};
    /// const G: u64 = 1 << 30;
    /// // Hosts 0/1 interleave [0, 2G); home 2 claims a 1G expander.
    /// let t = Topology::ranges(
    ///     3,
    ///     vec![(AddrRange::new(PhysAddr::new(2 * G), G), HomeId(2))],
    ///     2,
    ///     4096,
    /// );
    /// // Each host home owns 1G of fallback span, the expander 1G.
    /// assert_eq!(t.home_weights(), vec![1, 1, 1]);
    /// ```
    pub fn home_weights(&self) -> Vec<u64> {
        match &self.policy {
            Policy::Weighted(wi) => wi.weights().to_vec(),
            Policy::Interleave(_) => vec![1; self.homes],
            Policy::Ranges { table, fallback } => {
                if table.is_empty() {
                    return vec![1; self.homes];
                }
                // Bytes owned per home: claims count in full; the span
                // below the lowest claim base (where the backing pools
                // the fallback serves live) is split evenly over the
                // fallback homes. u128 guards against summing claims
                // near the top of the address space.
                let mut bytes = vec![0u128; self.homes];
                let mut lowest = u64::MAX;
                for &(r, h) in table {
                    bytes[h.index()] += r.size() as u128;
                    lowest = lowest.min(r.base().raw());
                }
                let fb = fallback.ways();
                for b in bytes.iter_mut().take(fb) {
                    *b += (lowest / fb as u64) as u128;
                }
                if bytes.iter().all(|&b| b == 0) {
                    return vec![1; self.homes];
                }
                // Reduce to the smallest integer ratio; a home owning no
                // bytes still weighs 1 so LPT never treats it as free.
                let g = bytes
                    .iter()
                    .filter(|&&b| b > 0)
                    .fold(0u128, |g, &b| gcd_u128(g, b));
                bytes
                    .iter()
                    .map(|&b| u64::try_from(b / g).unwrap_or(u64::MAX).max(1))
                    .collect()
            }
        }
    }
}

/// Euclid over u128 (claim sizes can sum past u64; `simcxl_mem::gcd`
/// is 64-bit).
fn gcd_u128(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_maps_everything_to_home_zero() {
        let t = Topology::single();
        assert!(t.is_single());
        for a in [0u64, 64, 1 << 40, u64::MAX] {
            assert_eq!(t.home_for(PhysAddr::new(a)), HomeId::ZERO);
        }
    }

    #[test]
    fn interleave_matches_div_mod_reference() {
        let t = Topology::interleaved(4, 4096);
        for a in [0u64, 64, 4095, 4096, 8192, 16384, 123 * 4096 + 17] {
            assert_eq!(
                t.home_for(PhysAddr::new(a)).index(),
                ((a / 4096) % 4) as usize,
                "mismatch at {a:#x}"
            );
        }
    }

    #[test]
    fn line_interleave_alternates_adjacent_lines() {
        let t = Topology::line_interleaved(2);
        assert_eq!(t.home_for(PhysAddr::new(0)), HomeId(0));
        assert_eq!(t.home_for(PhysAddr::new(64)), HomeId(1));
        assert_eq!(t.home_for(PhysAddr::new(65)), HomeId(1));
        assert_eq!(t.home_for(PhysAddr::new(128)), HomeId(0));
    }

    #[test]
    fn range_claims_override_fallback() {
        const G: u64 = 1 << 30;
        // Hosts 0/1 interleave the low pool; the expander range [2G, 3G)
        // is claimed by home 2.
        let t = Topology::ranges(
            3,
            vec![(AddrRange::new(PhysAddr::new(2 * G), G), HomeId(2))],
            2,
            4096,
        );
        assert_eq!(t.home_for(PhysAddr::new(0)), HomeId(0));
        assert_eq!(t.home_for(PhysAddr::new(4096)), HomeId(1));
        assert_eq!(t.home_for(PhysAddr::new(2 * G)), HomeId(2));
        assert_eq!(t.home_for(PhysAddr::new(3 * G - 64)), HomeId(2));
        // Past the claim: back to the fallback interleave.
        assert_eq!(
            t.home_for(PhysAddr::new(3 * G)).index(),
            ((3 * G / 4096) % 2) as usize
        );
    }

    #[test]
    fn overlapping_claims_prefer_greatest_start() {
        const M: u64 = 1 << 20;
        let t = Topology::ranges(
            3,
            vec![
                (AddrRange::new(PhysAddr::new(0), 8 * M), HomeId(1)),
                (AddrRange::new(PhysAddr::new(2 * M), M), HomeId(2)),
            ],
            1,
            4096,
        );
        assert_eq!(t.home_for(PhysAddr::new(M)), HomeId(1));
        assert_eq!(t.home_for(PhysAddr::new(2 * M + 64)), HomeId(2));
        // Past the narrow claim the walk must skip back to the wide one.
        assert_eq!(t.home_for(PhysAddr::new(4 * M)), HomeId(1));
    }

    #[test]
    fn weighted_matches_pattern_reference() {
        let t = Topology::weighted(&[4, 2, 1, 1], 64);
        let pattern = [0usize, 1, 0, 2, 3, 0, 1, 0];
        for a in [0u64, 63, 64, 4096, 12345 * 64, (1 << 40) + 192] {
            assert_eq!(
                t.home_for(PhysAddr::new(a)).index(),
                pattern[((a / 64) % 8) as usize],
                "mismatch at {a:#x}"
            );
        }
        assert_eq!(t.homes(), 4);
        assert_eq!(t.home_weights(), vec![4, 2, 1, 1]);
    }

    #[test]
    fn weighted_equal_weights_degenerate_structurally() {
        assert_eq!(
            Topology::weighted(&[3, 3], 4096),
            Topology::interleaved(2, 4096)
        );
        assert_eq!(
            Topology::weighted(&[7, 7, 7, 7], 64),
            Topology::line_interleaved(4)
        );
        // Uniform interleaves report uniform weights.
        assert_eq!(Topology::line_interleaved(4).home_weights(), vec![1; 4]);
    }

    #[test]
    fn weighted_supports_non_pow2_home_counts() {
        // Three equal homes cannot be a pow2 interleave; the weighted
        // modulo path covers them.
        let t = Topology::weighted(&[1, 1, 1], 64);
        assert_eq!(t.homes(), 3);
        for a in 0..64u64 {
            assert_eq!(t.home_for(PhysAddr::new(a * 64)).index(), (a % 3) as usize);
        }
    }

    #[test]
    fn capacity_weighted_derives_pool_proportions() {
        const G: u64 = 1 << 30;
        let t = Topology::capacity_weighted(&[4 * G, 2 * G, G, G], 4096);
        assert_eq!(t, Topology::weighted(&[4, 2, 1, 1], 4096));
        // A capacity vector that doesn't reduce: apportioned onto the
        // bounded pattern, every home owns at least one stripe and the
        // heavy home owns the dominant share.
        let t = Topology::capacity_weighted(&[4 * G + 64, G + 192, 127], 64);
        let w = t.home_weights();
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|&x| x > 0));
        let sum: u64 = w.iter().sum();
        let share0 = w[0] as f64 / sum as f64;
        assert!((share0 - 0.8).abs() < 0.01, "host share {share0} off 0.8");
    }

    #[test]
    fn range_weights_track_claimed_bytes() {
        const G: u64 = 1 << 30;
        // Hosts 0/1 interleave [0, 4G); home 2 claims a 1G expander at
        // 4G: hosts own 2G each, the expander 1G -> 2:2:1.
        let t = Topology::ranges(
            3,
            vec![(AddrRange::new(PhysAddr::new(4 * G), G), HomeId(2))],
            2,
            4096,
        );
        assert_eq!(t.home_weights(), vec![2, 2, 1]);
        // A big expander dominates: 2G host span over two hosts vs. a
        // 4G claim -> 1:1:4.
        let t = Topology::ranges(
            3,
            vec![(AddrRange::new(PhysAddr::new(2 * G), 4 * G), HomeId(2))],
            2,
            4096,
        );
        assert_eq!(t.home_weights(), vec![1, 1, 4]);
    }

    #[test]
    fn range_weights_multiple_claims_sum_per_home() {
        const G: u64 = 1 << 30;
        let t = Topology::ranges(
            3,
            vec![
                (AddrRange::new(PhysAddr::new(2 * G), G), HomeId(2)),
                (AddrRange::new(PhysAddr::new(3 * G), G), HomeId(2)),
            ],
            2,
            4096,
        );
        // 2G fallback span split over two hosts, 2G claimed by home 2.
        assert_eq!(t.home_weights(), vec![1, 1, 2]);
    }

    #[test]
    fn range_weights_claim_at_zero_keeps_fallback_homes_reachable() {
        const G: u64 = 1 << 30;
        // A claim at base 0 leaves no fallback span; the fallback homes
        // must still weigh >= 1 so their balance share stays defined.
        let t = Topology::ranges(
            3,
            vec![(AddrRange::new(PhysAddr::new(0), G), HomeId(2))],
            2,
            4096,
        );
        let w = t.home_weights();
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|&x| x >= 1), "weights {w:?}");
    }

    #[test]
    fn empty_range_table_reports_uniform_weights() {
        let t = Topology::ranges(4, vec![], 4, 4096);
        assert_eq!(t.home_weights(), vec![1; 4]);
    }

    #[test]
    fn range_claims_with_identical_bases_prefer_later_insertion() {
        // Two claims starting at the same base: the sort is stable, the
        // backward walk hits the later-inserted claim first — pin that
        // the override a caller adds last wins.
        const M: u64 = 1 << 20;
        let t = Topology::ranges(
            3,
            vec![
                (AddrRange::new(PhysAddr::new(M), 4 * M), HomeId(1)),
                (AddrRange::new(PhysAddr::new(M), M), HomeId(2)),
            ],
            1,
            4096,
        );
        assert_eq!(t.home_for(PhysAddr::new(M)), HomeId(2));
        assert_eq!(t.home_for(PhysAddr::new(M + M / 2)), HomeId(2));
        // Past the short claim the walk falls back to the long one.
        assert_eq!(t.home_for(PhysAddr::new(3 * M)), HomeId(1));
        // Before both claims: the fallback interleave.
        assert_eq!(t.home_for(PhysAddr::new(0)), HomeId(0));
    }

    #[test]
    #[should_panic(expected = "empty address range")]
    fn zero_length_claim_rejected_at_range_construction() {
        // A zero-length claim cannot exist: AddrRange::new refuses it,
        // so the table never sees degenerate entries.
        let _ = Topology::ranges(
            2,
            vec![(AddrRange::new(PhysAddr::new(0x1000), 0), HomeId(1))],
            1,
            4096,
        );
    }

    #[test]
    fn claim_beyond_pool_end_still_partitions() {
        // A claim reaching past the backing pool's end (here: claim up
        // to the very top of the address space) is a routing statement,
        // not an allocation — addresses inside it route to the claimed
        // home and the first address past it (none here) would fall
        // back. The boundary at u64::MAX must not overflow.
        let top = u64::MAX - 0x10000;
        let t = Topology::ranges(
            2,
            vec![(AddrRange::new(PhysAddr::new(top), 0x10000), HomeId(1))],
            1,
            4096,
        );
        assert_eq!(t.home_for(PhysAddr::new(top)), HomeId(1));
        assert_eq!(t.home_for(PhysAddr::new(u64::MAX - 1)), HomeId(1));
        assert_eq!(t.home_for(PhysAddr::new(top - 1)), HomeId(0));
        // One past the claim's end: back to the fallback.
        assert_eq!(t.home_for(PhysAddr::new(u64::MAX)), HomeId(0));
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn claim_to_missing_home_rejected() {
        let _ = Topology::ranges(
            2,
            vec![(AddrRange::new(PhysAddr::new(0), 4096), HomeId(5))],
            1,
            4096,
        );
    }

    #[test]
    #[should_panic(expected = "pow2")]
    fn non_pow2_interleave_rejected() {
        let _ = Topology::interleaved(3, 4096);
    }
}
