//! Declarative directory-topology specification for
//! [`CohetSystemBuilder`](crate::system::CohetSystemBuilder).
//!
//! One [`TopologySpec`] value states the whole directory layout —
//! host-home count, stride, weights, and what happens when a CXL
//! expander is attached (the auto-homing/auto-weighting rule; see
//! `TopologySpec::resolve`).

use simcxl_coherence::{HomeId, Topology};
use simcxl_mem::AddrRange;

/// Declarative description of how the coherence directory is
/// distributed across home agents, consumed by
/// [`CohetSystemBuilder::topology`](crate::system::CohetSystemBuilder::topology).
///
/// Each variant also fixes what happens when a CXL Type-3 expander is
/// attached ([`expander_memory`](crate::system::CohetSystemBuilder::expander_memory)) —
/// the rule that used to be implicit in the builder:
///
/// | variant | without expander | with expander |
/// |---|---|---|
/// | [`SingleHome`](Self::SingleHome) | one monolithic home | unchanged (legacy shape) |
/// | [`Interleaved`](Self::Interleaved) | pow2 interleave | expander range claimed by its **own extra home** |
/// | [`Weighted`](Self::Weighted) | weighted stripes | expander joins the stripe at a **capacity-derived auto-weight** |
/// | [`CapacityWeighted`](Self::CapacityWeighted) | single home | host + expander striped **proportionally to their capacities** |
/// | [`Ranges`](Self::Ranges) | claims as written | claims as written (**no** auto-homing — drain shapes) |
///
/// ```
/// use cohet::prelude::*;
/// use cohet::TopologySpec;
///
/// let proc = CohetSystem::builder()
///     .topology(TopologySpec::Interleaved {
///         homes: 4,
///         stride: 4096,
///     })
///     .build()
///     .spawn_process();
/// assert_eq!(proc.engine().num_homes(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TopologySpec {
    /// One monolithic home agent owns the whole address space — the
    /// pre-multi-home engine shape, and the default. An attached
    /// expander stays homed on this single agent.
    #[default]
    SingleHome,
    /// `homes` host-socket home agents interleave the address space at
    /// `stride` bytes: `home = (addr / stride) % homes`. With an
    /// expander attached, the expander's range is additionally claimed
    /// by its own extra agent (`HomeId(homes)`), so the engine ends up
    /// with `homes + 1` homes.
    ///
    /// `homes` must be a nonzero power of two and `stride` a power of
    /// two of at least one cacheline; `homes == 1` is exactly
    /// [`SingleHome`](Self::SingleHome).
    Interleaved {
        /// Host-socket home agents sharing the interleave.
        homes: usize,
        /// Byte stride of the interleave (one OS page,
        /// [`cohet_os::PAGE_SIZE`], keeps a page's lines on one home).
        stride: u64,
    },
    /// `weights.len()` host homes stripe the address space
    /// proportionally to their weights at `stride` bytes (see
    /// [`Topology::weighted`]). With an expander attached, the expander
    /// home joins the stripe with an auto-derived weight proportional
    /// to its capacity — `round(expander_bytes * sum(weights) /
    /// host_bytes)`, minimum 1 — so a small expander gets a few stripes
    /// of directory traffic instead of a whole dedicated home.
    Weighted {
        /// Per-home stripe weights (home `i` owns
        /// `weights[i] / sum(weights)` of the stripes).
        weights: Vec<u64>,
        /// Byte stride of the stripes.
        stride: u64,
    },
    /// Weights are derived from the memory pools themselves: the host
    /// pool and (if attached) the expander pool stripe the directory in
    /// proportion to their byte capacities via
    /// [`Topology::capacity_weighted`]. Without an expander there is
    /// only one pool, so this collapses to
    /// [`SingleHome`](Self::SingleHome).
    CapacityWeighted {
        /// Byte stride of the stripes.
        stride: u64,
    },
    /// Explicit range claims over `homes` agents with an interleaved
    /// fallback — the raw [`Topology::ranges`] surface, exposed so
    /// fault scenarios can describe drained shapes (an expander's range
    /// re-claimed by host homes while its own agent stays attached but
    /// owns nothing). The expander attachment rule is the caller's
    /// business here: `resolve` uses the claims exactly as written and
    /// ignores the expander range argument.
    Ranges {
        /// Total home agents (claimed + fallback + drained).
        homes: usize,
        /// `(range, home)` claims, first match wins.
        claims: Vec<(AddrRange, HomeId)>,
        /// Unclaimed addresses interleave over homes `0..fallback_homes`.
        fallback_homes: usize,
        /// Byte stride of the fallback interleave.
        stride: u64,
    },
}

impl TopologySpec {
    /// Resolves the spec into the concrete [`Topology`] the engine
    /// routes with, given the host pool size and the expander range (if
    /// one is attached). This is the single place the expander
    /// auto-homing/auto-weighting rule lives.
    ///
    /// ```
    /// use cohet::{CohetSystem, TopologySpec};
    ///
    /// // 256 MB of host memory (the default) and a 64 MB expander.
    /// let homes_for = |spec: TopologySpec| {
    ///     let proc = CohetSystem::builder()
    ///         .topology(spec)
    ///         .expander_memory(64 << 20)
    ///         .build()
    ///         .spawn_process();
    ///     proc.engine().topology().clone()
    /// };
    ///
    /// // Interleaved + expander: the expander range gets its own home.
    /// let topo = homes_for(TopologySpec::Interleaved {
    ///     homes: 2,
    ///     stride: 4096,
    /// });
    /// assert_eq!(topo.homes(), 3);
    ///
    /// // Weighted + expander: the expander joins the stripe at a
    /// // capacity-derived weight (64 MB / (256 MB / 4 units) = 1).
    /// let topo = homes_for(TopologySpec::Weighted {
    ///     weights: vec![3, 1],
    ///     stride: 4096,
    /// });
    /// assert_eq!(topo.home_weights(), vec![3, 1, 1]);
    ///
    /// // SingleHome keeps the legacy shape even with an expander.
    /// assert!(homes_for(TopologySpec::SingleHome).is_single());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (non-pow2 `homes`/`stride`, empty
    /// or zero weights — see the [`Topology`] constructors) or a zero
    /// `host_mem` for the capacity-derived variants.
    pub(crate) fn resolve(&self, host_mem: u64, expander: Option<AddrRange>) -> Topology {
        match self {
            TopologySpec::SingleHome => Topology::single(),
            TopologySpec::Interleaved { homes: 1, .. } => Topology::single(),
            TopologySpec::Interleaved { homes, stride } => match expander {
                // The expander's memory is homed on its own agent (the
                // switch routes its range to the device-side
                // directory); host homes keep the pow2 interleave as
                // the fallback for everything else.
                Some(range) => {
                    Topology::ranges(homes + 1, vec![(range, HomeId(*homes))], *homes, *stride)
                }
                None => Topology::interleaved(*homes, *stride),
            },
            TopologySpec::Weighted { weights, stride } => {
                let mut weights = weights.clone();
                if let Some(range) = expander {
                    // Capacity per host weight unit decides the
                    // expander's stripe share; a tiny expander still
                    // gets one stripe.
                    assert!(host_mem > 0, "weighted spec needs a host pool");
                    let unit: u64 = weights.iter().sum();
                    let w = (range.size() as u128 * unit as u128 + (host_mem / 2) as u128)
                        / host_mem as u128;
                    weights.push((w as u64).max(1));
                }
                Topology::weighted(&weights, *stride)
            }
            TopologySpec::CapacityWeighted { stride } => match expander {
                Some(range) => {
                    assert!(host_mem > 0, "capacity-weighted spec needs a host pool");
                    Topology::capacity_weighted(&[host_mem, range.size()], *stride)
                }
                None => Topology::single(),
            },
            TopologySpec::Ranges {
                homes,
                claims,
                fallback_homes,
                stride,
            } => Topology::ranges(*homes, claims.clone(), *fallback_homes, *stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcxl_mem::PhysAddr;

    const M: u64 = 1 << 20;

    fn expander() -> AddrRange {
        AddrRange::new(PhysAddr::new(1 << 30), 128 * M)
    }

    #[test]
    fn single_home_ignores_expander() {
        assert!(TopologySpec::SingleHome
            .resolve(256 * M, Some(expander()))
            .is_single());
        assert!(TopologySpec::SingleHome.resolve(256 * M, None).is_single());
    }

    #[test]
    fn interleaved_one_home_is_single() {
        let spec = TopologySpec::Interleaved {
            homes: 1,
            stride: 4096,
        };
        assert!(spec.resolve(256 * M, Some(expander())).is_single());
    }

    #[test]
    fn interleaved_matches_topology_constructor() {
        let spec = TopologySpec::Interleaved {
            homes: 4,
            stride: 8192,
        };
        assert_eq!(spec.resolve(256 * M, None), Topology::interleaved(4, 8192));
    }

    #[test]
    fn interleaved_expander_claims_extra_home() {
        let spec = TopologySpec::Interleaved {
            homes: 2,
            stride: 4096,
        };
        let topo = spec.resolve(256 * M, Some(expander()));
        assert_eq!(topo.homes(), 3);
        assert_eq!(topo.home_for(PhysAddr::new(1 << 30)), HomeId(2));
        assert_eq!(topo.home_for(PhysAddr::new(0)), HomeId(0));
    }

    #[test]
    fn weighted_auto_weight_rounds_against_host_unit() {
        // 256 MB host at 1:1 -> 128 MB per unit; 128 MB expander -> 1.
        let spec = TopologySpec::Weighted {
            weights: vec![1, 1],
            stride: 4096,
        };
        let topo = spec.resolve(256 * M, Some(expander()));
        assert_eq!(topo.home_weights(), vec![1, 1, 1]);
        // 512 MB expander -> 4 units.
        let big = AddrRange::new(PhysAddr::new(1 << 30), 512 * M);
        let topo = spec.resolve(256 * M, Some(big));
        assert_eq!(topo.home_weights(), vec![1, 1, 4]);
    }

    #[test]
    fn capacity_weighted_tracks_pool_sizes() {
        let spec = TopologySpec::CapacityWeighted { stride: 4096 };
        assert!(spec.resolve(256 * M, None).is_single());
        let topo = spec.resolve(256 * M, Some(expander()));
        assert_eq!(topo, Topology::capacity_weighted(&[256 * M, 128 * M], 4096));
        assert_eq!(topo.home_weights(), vec![2, 1]);
    }

    #[test]
    fn ranges_uses_claims_verbatim_and_ignores_expander() {
        // A drained shape: 3 agents, the would-be expander home (2)
        // owns nothing because host homes claimed its range.
        let spec = TopologySpec::Ranges {
            homes: 3,
            claims: vec![(expander(), HomeId(0))],
            fallback_homes: 2,
            stride: 4096,
        };
        let topo = spec.resolve(256 * M, Some(expander()));
        assert_eq!(topo.homes(), 3);
        assert_eq!(topo.home_for(PhysAddr::new(1 << 30)), HomeId(0));
        assert_eq!(topo.home_for(PhysAddr::new(4096)), HomeId(1));
        assert_eq!(topo, spec.resolve(256 * M, None), "expander arg is inert");
    }
}
