//! Functional memory state and atomic operations.
//!
//! The timing models in this crate move messages, not bytes; `FuncMem` is
//! the single functional point of truth, updated in completion order (the
//! home agent serializes conflicting lines, so completion order respects
//! coherence order).

use sim_core::FxHashMap;
use simcxl_mem::PhysAddr;

/// Atomic read-modify-write operations supported by the RAO engines
/// (CircusTent exercises FetchAdd and CompareSwap; the rest round out the
/// usual RDMA/CXL atomic set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicKind {
    /// `old = *p; *p = old + operand`.
    FetchAdd,
    /// `old = *p; if old == operand { *p = operand2 }`.
    CompareSwap,
    /// `old = *p; *p = operand`.
    Swap,
    /// `old = *p; *p = old & operand`.
    FetchAnd,
    /// `old = *p; *p = old | operand`.
    FetchOr,
    /// `old = *p; *p = old ^ operand`.
    FetchXor,
    /// `old = *p; *p = min(old, operand)`.
    FetchMin,
    /// `old = *p; *p = max(old, operand)`.
    FetchMax,
}

impl AtomicKind {
    /// Applies the operation to `old`, returning the new value.
    pub(crate) fn apply(self, old: u64, operand: u64, operand2: u64) -> u64 {
        match self {
            AtomicKind::FetchAdd => old.wrapping_add(operand),
            AtomicKind::CompareSwap => {
                if old == operand {
                    operand2
                } else {
                    old
                }
            }
            AtomicKind::Swap => operand,
            AtomicKind::FetchAnd => old & operand,
            AtomicKind::FetchOr => old | operand,
            AtomicKind::FetchXor => old ^ operand,
            AtomicKind::FetchMin => old.min(operand),
            AtomicKind::FetchMax => old.max(operand),
        }
    }
}

/// Sparse 8-byte-granular functional memory.
///
/// Each [`ProtocolEngine`](crate::ProtocolEngine) holds one; stores
/// and atomics write it as they complete.
///
/// ```
/// use simcxl_coherence::ProtocolEngine;
/// use simcxl_mem::PhysAddr;
///
/// let mut engine = ProtocolEngine::builder().build();
/// assert_eq!(engine.func_mem().read_u64(PhysAddr::new(0x48)), 0); // untouched reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct FuncMem {
    /// Word store, Fx-hashed: `read_u64`/`write_u64` run once per
    /// completion, so hashing cost is directly on the event loop.
    words: FxHashMap<u64, u64>,
}

impl FuncMem {
    /// Creates an all-zero memory.
    pub(crate) fn new() -> Self {
        FuncMem {
            words: FxHashMap::default(),
        }
    }

    fn key(addr: PhysAddr) -> u64 {
        addr.raw() & !7
    }

    /// Reads the aligned 8-byte word containing `addr`.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        self.words.get(&Self::key(addr)).copied().unwrap_or(0)
    }

    /// Writes the aligned 8-byte word containing `addr`.
    pub(crate) fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.words.insert(Self::key(addr), value);
    }

    /// Applies `kind` atomically; returns the previous value.
    ///
    /// Single hash probe: the read-modify-write runs in place on the
    /// word's entry rather than hashing once to read and again to
    /// write.
    pub(crate) fn rmw(
        &mut self,
        addr: PhysAddr,
        kind: AtomicKind,
        operand: u64,
        operand2: u64,
    ) -> u64 {
        let word = self.words.entry(Self::key(addr)).or_insert(0);
        let old = *word;
        *word = kind.apply(old, operand, operand2);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomics_semantics() {
        assert_eq!(AtomicKind::FetchAdd.apply(5, 3, 0), 8);
        assert_eq!(AtomicKind::CompareSwap.apply(5, 5, 9), 9);
        assert_eq!(AtomicKind::CompareSwap.apply(5, 4, 9), 5);
        assert_eq!(AtomicKind::Swap.apply(5, 7, 0), 7);
        assert_eq!(AtomicKind::FetchAnd.apply(0b1100, 0b1010, 0), 0b1000);
        assert_eq!(AtomicKind::FetchOr.apply(0b1100, 0b1010, 0), 0b1110);
        assert_eq!(AtomicKind::FetchXor.apply(0b1100, 0b1010, 0), 0b0110);
        assert_eq!(AtomicKind::FetchMin.apply(5, 3, 0), 3);
        assert_eq!(AtomicKind::FetchMax.apply(5, 3, 0), 5);
    }

    #[test]
    fn fetch_add_wraps() {
        assert_eq!(AtomicKind::FetchAdd.apply(u64::MAX, 1, 0), 0);
    }

    #[test]
    fn rmw_returns_old() {
        let mut m = FuncMem::new();
        let a = PhysAddr::new(0x100);
        assert_eq!(m.rmw(a, AtomicKind::FetchAdd, 1, 0), 0);
        assert_eq!(m.rmw(a, AtomicKind::FetchAdd, 1, 0), 1);
        assert_eq!(m.read_u64(a), 2);
    }

    #[test]
    fn words_are_aligned() {
        let mut m = FuncMem::new();
        m.write_u64(PhysAddr::new(0x43), 1); // lands in word 0x40
        assert_eq!(m.read_u64(PhysAddr::new(0x40)), 1);
        assert_eq!(m.words.len(), 1);
    }
}
