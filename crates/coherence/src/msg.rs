//! Protocol message vocabulary (CXL.cache-flavoured MESI).

use crate::funcmem::AtomicKind;
use crate::topology::HomeId;
use sim_core::Tick;
use simcxl_mem::PhysAddr;
use std::fmt;

/// Identifies one agent attached to the engine.
///
/// Agent 0 is always the home agent (shared LLC), agent 1 the memory
/// agent; peer caches start at 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub(crate) u8);

impl AgentId {
    /// The home agent (shared LLC / directory).
    pub(crate) const HOME: AgentId = AgentId(0);
    /// The memory agent.
    pub(crate) const MEMORY: AgentId = AgentId(1);

    /// Raw index (stable for the lifetime of the engine).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AgentId::HOME => write!(f, "home"),
            AgentId::MEMORY => write!(f, "memory"),
            AgentId(n) => write!(f, "cache{}", n - 2),
        }
    }
}

/// Identifies one outstanding external request.
///
/// Encodes a slot in the engine's request slab (low 32 bits) and that
/// slot's generation (high 32 bits): slots recycle after completion, but
/// an id is never reissued, so stale ids are detected instead of silently
/// aliasing a newer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub(crate) u64);

impl ReqId {
    pub(crate) fn from_parts(slot: u32, gen: u32) -> Self {
        ReqId(((gen as u64) << 32) | slot as u64)
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    pub(crate) fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gen() == 0 {
            write!(f, "req{}", self.slot())
        } else {
            write!(f, "req{}~{}", self.slot(), self.gen())
        }
    }
}

/// An external memory operation issued to a peer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// 8-byte coherent load.
    Load,
    /// 8-byte coherent store.
    Store {
        /// Value written at the request address.
        value: u64,
    },
    /// Atomic read-modify-write; the line is locked in the cache for the
    /// duration of the modify (paper §V-A2: "The processing element (PE)
    /// locks the target RAO cacheline to prevent any invalidation").
    Rmw {
        /// The atomic operation to perform.
        kind: AtomicKind,
        /// First operand (addend, swap value, or compare value for CAS).
        operand: u64,
        /// Second operand (CAS swap value; ignored otherwise).
        operand2: u64,
    },
    /// Non-cacheable push (NC-P): write a value and push the whole line
    /// into the host LLC, invalidating the local copy (paper §II-B).
    NcPush {
        /// Value pushed at the request address.
        value: u64,
    },
    /// Prefetch the line in shared state without returning data.
    Prefetch,
}

impl MemOp {
    /// Whether the operation requires exclusive ownership of the line.
    pub fn needs_ownership(self) -> bool {
        matches!(self, MemOp::Store { .. } | MemOp::Rmw { .. })
    }
}

/// Where a request ultimately found its data; drives the paper's
/// HMC-hit / LLC-hit / memory-hit latency tiers (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Hit in the issuing peer cache (HMC hit for a device).
    Local,
    /// Served by the shared LLC without a memory fetch.
    Llc,
    /// Required a memory fetch.
    Mem,
    /// Forwarded from a peer cache holding the line dirty/exclusive.
    Peer,
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HitLevel::Local => "local",
            HitLevel::Llc => "llc",
            HitLevel::Mem => "mem",
            HitLevel::Peer => "peer",
        };
        f.write_str(s)
    }
}

/// Wire messages exchanged between agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgKind {
    // ---- cache -> home (CXL.cache D2H request channel) ----
    /// Read for sharing.
    RdShared,
    /// Read for ownership.
    RdOwn,
    /// Non-cacheable push of a full line into the LLC.
    ItoMWr,
    /// Evict a dirty line (requests a write pull).
    DirtyEvict,
    /// Notify eviction of a clean line.
    CleanEvict,
    // ---- home -> cache (H2D snoop channel) ----
    /// Invalidate the line.
    SnpInv,
    /// Downgrade the line to shared, forwarding data if dirty.
    SnpData,
    // ---- cache -> home (D2H response channel) ----
    /// Line invalidated; `dirty` piggybacks modified data.
    SnpRespInv {
        /// Whether modified data accompanied the response.
        dirty: bool,
    },
    /// Line downgraded to shared; `dirty` piggybacks modified data.
    SnpRespDown {
        /// Whether modified data accompanied the response.
        dirty: bool,
    },
    /// Writeback data following a `GoWritePull`.
    WbData,
    // ---- home -> cache (H2D response channel) ----
    /// Data grant with exclusive (E) state.
    DataGoE,
    /// Data grant with shared (S) state.
    DataGoS,
    /// Ownership grant without data (upgrade; requester already has data).
    GoUpgrade,
    /// Authorize writeback: send the dirty data.
    GoWritePull,
    /// Invalidate after writeback completes.
    GoI,
    /// Completion of an NC-P push.
    GoNcp,
    // ---- home <-> memory ----
    /// Fetch a line from memory.
    MemRd,
    /// Write a line back to memory (posted).
    MemWr,
    /// Memory fetch response.
    MemData,
}

impl MsgKind {
    /// Approximate wire size in bytes (header-only vs data-carrying), used
    /// for link bandwidth accounting.
    pub(crate) fn bytes(self) -> u64 {
        match self {
            MsgKind::DataGoE
            | MsgKind::DataGoS
            | MsgKind::WbData
            | MsgKind::MemData
            | MsgKind::ItoMWr
            | MsgKind::MemWr => 80, // 64 B payload + header slot
            MsgKind::SnpRespInv { dirty: true } | MsgKind::SnpRespDown { dirty: true } => 80,
            _ => 16,
        }
    }
}

/// A protocol message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Msg {
    /// Message type.
    pub kind: MsgKind,
    /// Cacheline address the message concerns.
    pub addr: PhysAddr,
    /// Sending agent.
    pub from: AgentId,
    /// Directory shard the message concerns: the destination home for
    /// cache→home and memory→home traffic (stamped by the engine's
    /// topology router), the originating home for home→cache and
    /// home→memory traffic.
    pub home: HomeId,
}

/// A completed external request, reported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request this completes.
    pub req: ReqId,
    /// The peer cache that issued it.
    pub agent: AgentId,
    /// Request address (not line-aligned).
    pub addr: PhysAddr,
    /// The operation performed.
    pub op: MemOp,
    /// When the request was issued.
    pub issued: Tick,
    /// When it completed.
    pub done: Tick,
    /// Where the data was found.
    pub level: HitLevel,
    /// Loaded value (loads), previous value (RMW), or the stored value.
    pub value: u64,
}

impl Completion {
    /// End-to-end latency of the request.
    pub fn latency(&self) -> Tick {
        self.done - self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_display() {
        assert_eq!(AgentId::HOME.to_string(), "home");
        assert_eq!(AgentId::MEMORY.to_string(), "memory");
        assert_eq!(AgentId(2).to_string(), "cache0");
    }

    #[test]
    fn data_messages_are_bigger() {
        assert!(MsgKind::DataGoE.bytes() > MsgKind::RdOwn.bytes());
        assert!(
            MsgKind::SnpRespInv { dirty: true }.bytes()
                > MsgKind::SnpRespInv { dirty: false }.bytes()
        );
    }

    #[test]
    fn ownership_classification() {
        assert!(MemOp::Store { value: 0 }.needs_ownership());
        assert!(MemOp::Rmw {
            kind: AtomicKind::FetchAdd,
            operand: 1,
            operand2: 0
        }
        .needs_ownership());
        assert!(!MemOp::Load.needs_ownership());
        assert!(!MemOp::Prefetch.needs_ownership());
        assert!(!MemOp::NcPush { value: 0 }.needs_ownership());
    }
}
