//! Per-client session state machines.
//!
//! Every logical client runs one small state machine describing its
//! session: which key to touch next, whether to read or write, and how
//! long to think between accesses. [`MachineSpec::step`] is the whole
//! machine — one `match` over `(machine, state)` — and
//! [`MachineSpec::safety_cap`] bounds the steps a session may take, so
//! a runaway session is force-finished instead of stalling the
//! scenario.

use super::spec::MachineSpec;
use sim_core::{SimRng, Tick};

/// A state in a client session machine. Plain `u8` newtype: machines
/// are small (a handful of states), and a million concurrent sessions
/// each carry one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct State(pub(crate) u8);

impl State {
    /// The entry state of every machine.
    pub(crate) const START: State = State(0);
}

/// What a session does on entering a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Issue one coherent access to `key`'s slot, transition to `then`
    /// when the access completes.
    Access {
        /// Logical key to touch (mapped to a table slot by the
        /// executor).
        key: u64,
        /// Store (`true`) or load (`false`).
        write: bool,
        /// State entered at completion time.
        then: State,
    },
    /// Sleep `delay` of simulated time (client-side think time), then
    /// enter `then`.
    Think {
        /// Simulated think time.
        delay: Tick,
        /// State entered when the timer fires.
        then: State,
    },
    /// Session complete.
    Done,
}

/// Per-step context handed to [`MachineSpec::step`]: the session's own
/// record fields plus the scenario state a step may consult.
pub(crate) struct StepCtx<'a> {
    /// Steps this session has executed so far.
    pub(crate) step: u32,
    /// Size of the scenario's key space.
    pub(crate) keys: u64,
    /// Hot-set override from the active traffic phase:
    /// `(hot_keys, hot_fraction)`.
    pub(crate) hot: Option<(u64, f64)>,
    /// Key touched by this session's most recent access.
    pub(crate) last_key: u64,
    /// The scenario's deterministic RNG (shared; draw order is part of
    /// the reproducible schedule).
    pub(crate) rng: &'a mut SimRng,
}

impl StepCtx<'_> {
    /// Draws a key honoring the active phase's hot-set skew (uniform
    /// over the key space when no hot set is active).
    pub(crate) fn pick_key(&mut self) -> u64 {
        if let Some((hot_keys, hot_fraction)) = self.hot {
            let hot = hot_keys.min(self.keys).max(1);
            if self.rng.chance(hot_fraction) {
                return self.rng.below(hot);
            }
            if self.keys > hot {
                return hot + self.rng.below(self.keys - hot);
            }
        }
        self.rng.below(self.keys)
    }
}

impl MachineSpec {
    /// Decides the session's next action on entering `state`. States
    /// past a machine's last access (GetPut's 3, ScanThenWrite's 1) end
    /// the session.
    pub(crate) fn step(&self, state: State, ctx: &mut StepCtx<'_>) -> Action {
        match (*self, state.0) {
            (MachineSpec::GetPut { .. }, 0) => Action::Access {
                key: ctx.pick_key(),
                write: false,
                then: State(1),
            },
            (MachineSpec::GetPut { get_ratio, think }, 1) => {
                if ctx.rng.chance(get_ratio) {
                    Action::Done
                } else {
                    Action::Think {
                        delay: think,
                        then: State(2),
                    }
                }
            }
            (MachineSpec::GetPut { .. }, 2) => Action::Access {
                key: ctx.last_key,
                write: true,
                then: State(3),
            },
            (MachineSpec::ScanThenWrite { reads }, 0) => {
                let write = ctx.step + 1 >= reads;
                Action::Access {
                    key: ctx.pick_key(),
                    write,
                    then: State(write as u8),
                }
            }
            _ => Action::Done,
        }
    }

    /// Per-session step bound: generous for any sane session, tiny next
    /// to a scenario's total work. A session reaching it is
    /// force-finished and reported as capped.
    pub(crate) fn safety_cap(&self) -> u32 {
        const CAP: u32 = 256;
        match *self {
            MachineSpec::GetPut { .. } => CAP,
            MachineSpec::ScanThenWrite { reads } => reads.saturating_mul(4).max(CAP),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(rng: &mut SimRng) -> StepCtx<'_> {
        StepCtx {
            step: 0,
            keys: 100,
            hot: None,
            last_key: 0,
            rng,
        }
    }

    /// Drives one session of `machine` the way the executor does,
    /// returning every action up to and including `Done`.
    fn walk(machine: MachineSpec) -> Vec<Action> {
        let mut rng = SimRng::new(3);
        let mut ctx = ctx_with(&mut rng);
        let mut state = State::START;
        let mut actions = Vec::new();
        loop {
            assert!(ctx.step < machine.safety_cap(), "ran into the cap");
            let action = machine.step(state, &mut ctx);
            actions.push(action);
            ctx.step += 1;
            match action {
                Action::Access { key, then, .. } => {
                    ctx.last_key = key;
                    state = then;
                }
                Action::Think { then, .. } => state = then,
                Action::Done => return actions,
            }
        }
    }

    /// Each action with its key dropped (keys are random draws).
    fn shape(actions: &[Action]) -> Vec<String> {
        actions
            .iter()
            .map(|a| match *a {
                Action::Access {
                    write: false, then, ..
                } => format!("load>{}", then.0),
                Action::Access {
                    write: true, then, ..
                } => format!("store>{}", then.0),
                Action::Think { then, .. } => format!("think>{}", then.0),
                Action::Done => "done".into(),
            })
            .collect()
    }

    #[test]
    fn get_put_reads_then_maybe_writes_back() {
        let think = Tick::from_ns(100);
        let put = walk(MachineSpec::GetPut {
            get_ratio: 0.0,
            think,
        });
        assert_eq!(shape(&put), ["load>1", "think>2", "store>3", "done"]);
        assert_eq!(
            put[1],
            Action::Think {
                delay: think,
                then: State(2)
            }
        );
        let (Action::Access { key: read, .. }, Action::Access { key: written, .. }) =
            (put[0], put[2])
        else {
            unreachable!("shape checked above");
        };
        assert_eq!(read, written, "the write-back hits the key read");
        let get = walk(MachineSpec::GetPut {
            get_ratio: 1.0,
            think,
        });
        assert_eq!(shape(&get), ["load>1", "done"]);
    }

    #[test]
    fn scan_reads_then_writes_once() {
        let scan = walk(MachineSpec::ScanThenWrite { reads: 3 });
        assert_eq!(shape(&scan), ["load>0", "load>0", "store>1", "done"]);
        let one = walk(MachineSpec::ScanThenWrite { reads: 1 });
        assert_eq!(shape(&one), ["store>1", "done"]);
        let long = MachineSpec::ScanThenWrite { reads: 200 };
        assert_eq!(long.safety_cap(), 800, "the cap scales with reads");
        assert_eq!(walk(long).len(), 201);
    }

    #[test]
    fn hot_set_skews_key_choice() {
        let mut rng = SimRng::new(7);
        let mut ctx = StepCtx {
            keys: 1000,
            hot: Some((10, 0.9)),
            ..ctx_with(&mut rng)
        };
        let hot = (0..2000).filter(|_| ctx.pick_key() < 10).count();
        let frac = hot as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn uniform_without_hot_set() {
        let mut rng = SimRng::new(7);
        let mut ctx = ctx_with(&mut rng);
        for _ in 0..100 {
            assert!(ctx.pick_key() < 100);
        }
    }
}
