//! Set-associative tag arrays with LRU replacement.

use sim_core::Tick;
use simcxl_mem::{PhysAddr, CACHELINE_BYTES};

/// Stable MESI states of a line in a peer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified (dirty, exclusive).
    Modified,
    /// Exclusive (clean, sole copy among peers).
    Exclusive,
    /// Shared (clean, possibly replicated).
    Shared,
}

impl LineState {
    /// Whether a store may proceed without a coherence transaction.
    pub(crate) fn writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// One resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    /// Line-aligned address.
    pub addr: PhysAddr,
    /// Current stable state.
    pub state: LineState,
    /// Whether local data differs from the LLC copy.
    pub dirty: bool,
    /// Atomics hold the line against snoops until this time
    /// (paper §V-A2 line locking).
    pub locked_until: Tick,
    lru: u64,
}

/// A set-associative array of [`Line`]s with true-LRU replacement.
#[derive(Debug, Clone)]
pub(crate) struct CacheArray {
    sets: usize,
    ways: usize,
    lines: Vec<Option<Line>>,
    tick: u64,
}

impl CacheArray {
    /// Creates an empty array of `size_bytes` capacity and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a nonzero power of two.
    pub(crate) fn new(size_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        let lines_total = size_bytes / CACHELINE_BYTES;
        let sets = (lines_total / ways as u64) as usize;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a nonzero power of two (got {sets})"
        );
        CacheArray {
            sets,
            ways,
            lines: vec![None; sets * ways],
            tick: 0,
        }
    }

    fn set_of(&self, addr: PhysAddr) -> usize {
        ((addr.line().raw() / CACHELINE_BYTES) % self.sets as u64) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up the line mutably, updating LRU on hit.
    pub(crate) fn get_mut(&mut self, addr: PhysAddr) -> Option<&mut Line> {
        let line_addr = addr.line();
        let range = self.slot_range(self.set_of(addr));
        self.tick += 1;
        let tick = self.tick;
        for l in self.lines[range].iter_mut().flatten() {
            if l.addr == line_addr {
                l.lru = tick;
                return Some(l);
            }
        }
        None
    }

    /// Looks up without touching LRU (snoops should not refresh recency).
    pub(crate) fn peek(&self, addr: PhysAddr) -> Option<&Line> {
        let line_addr = addr.line();
        let range = self.slot_range(self.set_of(addr));
        self.lines[range]
            .iter()
            .flatten()
            .find(|l| l.addr == line_addr)
    }

    /// Inserts a line (which must not already be resident), evicting the
    /// LRU way if the set is full; the victim is returned.
    pub(crate) fn insert(&mut self, addr: PhysAddr, state: LineState) -> Option<Line> {
        let line_addr = addr.line();
        debug_assert!(
            self.peek(addr).is_none(),
            "line {line_addr} already resident"
        );
        self.tick += 1;
        let tick = self.tick;
        let range = self.slot_range(self.set_of(addr));
        let new_line = Line {
            addr: line_addr,
            state,
            dirty: false,
            locked_until: Tick::ZERO,
            lru: tick,
        };
        // Prefer an empty way.
        let mut victim_idx = None;
        let mut victim_lru = u64::MAX;
        for idx in range {
            match &self.lines[idx] {
                None => {
                    self.lines[idx] = Some(new_line);
                    return None;
                }
                Some(l) if l.lru < victim_lru => {
                    victim_lru = l.lru;
                    victim_idx = Some(idx);
                }
                Some(_) => {}
            }
        }
        let idx = victim_idx.expect("nonzero associativity");
        self.lines[idx].replace(new_line)
    }

    /// Removes the line containing `addr`, returning it.
    pub(crate) fn remove(&mut self, addr: PhysAddr) -> Option<Line> {
        let line_addr = addr.line();
        let range = self.slot_range(self.set_of(addr));
        for slot in &mut self.lines[range] {
            if slot.map(|l| l.addr) == Some(line_addr) {
                return slot.take();
            }
        }
        None
    }

    /// Iterates over all resident lines.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Line> {
        self.lines.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        CacheArray::new(4 * 64 * 2, 2) // 4 sets? no: 8 lines / 2 ways = 4 sets
    }

    #[test]
    fn geometry() {
        // The paper's 128 KB 4-way HMC.
        let a = CacheArray::new(128 * 1024, 4);
        assert_eq!((a.sets, a.ways), (512, 4));
        assert_eq!(a.lines.len() as u64 * CACHELINE_BYTES, 128 * 1024);
    }

    #[test]
    fn hit_and_miss() {
        let mut a = tiny();
        assert!(a.get_mut(PhysAddr::new(0)).is_none());
        a.insert(PhysAddr::new(0), LineState::Shared);
        assert_eq!(
            a.get_mut(PhysAddr::new(0x3f)).unwrap().state,
            LineState::Shared
        );
        assert!(a.get_mut(PhysAddr::new(0x40)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut a = tiny(); // 4 sets, 2 ways; same set every 4 lines
        let s = |i: u64| PhysAddr::new(i * 4 * 64); // all map to set 0
        a.insert(s(0), LineState::Shared);
        a.insert(s(1), LineState::Shared);
        // Touch line 0 so line 1 becomes LRU.
        a.get_mut(s(0));
        let victim = a.insert(s(2), LineState::Shared).expect("eviction");
        assert_eq!(victim.addr, s(1));
        assert!(a.peek(s(0)).is_some());
        assert!(a.peek(s(2)).is_some());
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut a = tiny();
        let s = |i: u64| PhysAddr::new(i * 4 * 64);
        a.insert(s(0), LineState::Shared);
        a.insert(s(1), LineState::Shared);
        a.peek(s(0)); // should NOT protect line 0
        let victim = a.insert(s(2), LineState::Shared).expect("eviction");
        assert_eq!(victim.addr, s(0));
    }

    #[test]
    fn remove_frees_way() {
        let mut a = tiny();
        a.insert(PhysAddr::new(0), LineState::Modified);
        let line = a.remove(PhysAddr::new(0x10)).unwrap();
        assert_eq!(line.state, LineState::Modified);
        assert_eq!(a.iter().count(), 0);
        assert!(a.remove(PhysAddr::new(0)).is_none());
    }

    #[test]
    fn writable_states() {
        assert!(LineState::Modified.writable());
        assert!(LineState::Exclusive.writable());
        assert!(!LineState::Shared.writable());
    }
}
