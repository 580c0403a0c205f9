//! Lightweight logical-client session records.
//!
//! A scenario multiplexes millions of logical clients over a handful of
//! real cache agents; each live client is one small [`Session`] record
//! in a slab. Slots are recycled as sessions finish, so resident memory
//! tracks *concurrent* sessions (bounded by latency × arrival rate, or
//! the closed-loop concurrency), not the total population.

use super::machine::State;

/// One live logical client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Session {
    /// Logical client id (unique across the scenario).
    pub(crate) client: u64,
    /// Phase this session is attributed to.
    pub(crate) phase: u16,
    /// Current machine state.
    pub(crate) state: State,
    /// Steps executed (compared against the machine's safety cap).
    pub(crate) steps: u32,
    /// Key touched by the most recent access.
    pub(crate) last_key: u64,
}

/// A recycling slab of sessions. Indices (`u32` slots) stay stable for
/// a session's lifetime and are reused afterwards.
#[derive(Debug, Default)]
pub(crate) struct SessionSlab {
    slots: Vec<Session>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

impl SessionSlab {
    /// Creates an empty slab.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores `session`, returning its slot.
    pub(crate) fn insert(&mut self, session: Session) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = session;
                slot
            }
            None => {
                self.slots.push(session);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The session in `slot`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slot (freed slots are *not* detected —
    /// the executor's request maps are the only slot holders).
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut Session {
        &mut self.slots[slot as usize]
    }

    /// Removes the session in `slot`, returning it and recycling the
    /// slot.
    pub(crate) fn remove(&mut self, slot: u32) -> Session {
        self.live -= 1;
        self.free.push(slot);
        self.slots[slot as usize]
    }

    /// Currently live sessions.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Peak concurrent sessions seen so far.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(client: u64) -> Session {
        Session {
            client,
            phase: 0,
            state: State(0),
            steps: 0,
            last_key: 0,
        }
    }

    #[test]
    fn slots_recycle() {
        let mut slab = SessionSlab::new();
        let a = slab.insert(session(1));
        let b = slab.insert(session(2));
        assert_ne!(a, b);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.remove(a).client, 1);
        let c = slab.insert(session(3));
        assert_eq!(c, a, "freed slot reused");
        assert_eq!(slab.get_mut(c).client, 3);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.peak(), 2);
    }
}
