//! The scenario executor: millions of logical clients over a handful of
//! real cache agents.
//!
//! Logical clients are lightweight [`Session`] records; only their
//! coherent accesses touch the protocol engine, issued through
//! `spec.agents` real [`CacheAgent`](simcxl_coherence::cache::CacheAgent)s
//! (client `c` rides agent `c % agents`). Open-loop arrivals come from
//! an [`Arrivals`] cursor that computes each one when it is due; think
//! timers and closed-loop admissions live in the scenario's own calendar
//! queue, so resident state scales with live sessions, not with the
//! population. The executor interleaves the two event streams by time:
//!
//! * if the earliest wakeup (arrival or queued) is no later than the
//!   engine's next event, run the wakeup batch at that tick — due
//!   arrivals first, then queued wakeups — and step those sessions
//!   (issuing at the wakeup tick — never before the engine's `now`);
//! * otherwise dispatch one engine tick-batch and step the sessions
//!   whose accesses completed, at their completion ticks.
//!
//! Both streams are deterministic functions of the spec, so the
//! completion-stream checksum is too.

use super::machine::{Action, StepCtx, TransitionTable};
use super::phase::PhaseSpec;
use super::report::{PhaseAcc, ScenarioOutcome};
use super::session::{Session, SessionSlab};
use super::spec::{Arrival, ScenarioSpec};
use crate::kvstore::slot_addr;
use sim_core::{EventQueue, FxHashMap, SimRng, Tick};
use simcxl_coherence::{AgentId, Completion, MemOp, ProtocolEngine, ReqId};
use simcxl_mem::PhysAddr;

/// A queued scenario-side wakeup.
enum Wake {
    /// A closed-loop client is admitted.
    Arrive { client: u64, phase: u16 },
    /// A session's think timer fired.
    Think { slot: u32 },
}

/// The open-loop arrival schedule, produced lazily in client order.
///
/// Each phase places its quota by inverting its traffic shape, and
/// [`Traffic::arrival_offset`](super::Traffic::arrival_offset) is
/// non-decreasing in the arrival index, so client order is tick order:
/// the cursor yields exactly the `(tick, client, phase)` sequence an
/// eagerly filled queue would pop, from a `(phase, j, phase_start)`
/// position instead of one queue entry per client. The premise is asserted on every step,
/// so a shape that broke it fails loudly instead of reordering arrivals.
struct Arrivals<'a> {
    phases: &'a [PhaseSpec],
    quotas: &'a [u64],
    /// Phase of the next arrival, and its index within the phase.
    phase: usize,
    j: u64,
    phase_start: Tick,
    client: u64,
    /// The next arrival `(tick, client, phase)`, if any remain.
    next: Option<(Tick, u64, u16)>,
}

impl<'a> Arrivals<'a> {
    /// The schedule of `phases` with `quotas` clients each, starting at
    /// `t0`. Empty phase lists (closed loop) yield nothing.
    fn new(phases: &'a [PhaseSpec], quotas: &'a [u64], t0: Tick) -> Self {
        let mut cursor = Arrivals {
            phases,
            quotas,
            phase: 0,
            j: 0,
            phase_start: t0,
            client: 0,
            next: None,
        };
        cursor.next = cursor.compute(t0);
        cursor
    }

    /// Tick of the next arrival.
    fn peek(&self) -> Option<Tick> {
        self.next.map(|(at, _, _)| at)
    }

    /// Takes the next arrival if it is due at or before `t`.
    fn pop_before(&mut self, t: Tick) -> Option<(u64, u16)> {
        let (at, client, phase) = self.next.filter(|&(at, _, _)| at <= t)?;
        self.next = self.compute(at);
        Some((client, phase))
    }

    /// Computes the arrival at the cursor and advances past it; `prev`
    /// is the tick of the arrival before it.
    fn compute(&mut self, prev: Tick) -> Option<(Tick, u64, u16)> {
        let phases = self.phases;
        let (p, n) = loop {
            let p = phases.get(self.phase)?;
            let n = self.quotas[self.phase];
            if self.j < n {
                break (p, n);
            }
            self.phase_start += p.duration;
            self.phase += 1;
            self.j = 0;
        };
        let at = self.phase_start + p.traffic.arrival_offset(self.j, n, p.duration);
        assert!(
            at >= prev,
            "arrival schedule went backwards: client {} of phase `{}` at {at} after {prev}",
            self.client,
            p.name
        );
        let next = (at, self.client, self.phase as u16);
        self.j += 1;
        self.client += 1;
        Some(next)
    }
}

/// Folds one completion into the order-sensitive digest — the same
/// folding the hotpath determinism canary uses, so scenario checksums
/// and hotpath checksums are comparable artifacts.
fn fold_checksum(acc: u64, c: &Completion) -> u64 {
    acc.rotate_left(7)
        .wrapping_add(c.value ^ c.done.as_ps() ^ c.addr.raw())
}

/// Runs `spec` on `eng`, multiplexing its clients over `agents`, with
/// the key table based at `base`. Builds the machine from
/// `spec.machine`; use [`run_with_machine`] to supply a custom one.
///
/// # Panics
///
/// Panics on an invalid spec (see [`ScenarioSpec::validate`]) or if
/// `agents.len() != spec.agents`.
pub fn run(
    spec: &ScenarioSpec,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
) -> ScenarioOutcome {
    let table = spec.machine.build();
    run_with_machine(spec, &table, eng, agents, base)
}

/// [`run`], but the arrival schedule starts at `start` instead of
/// `Tick::ZERO` (clamped up to the engine's `now`, so a request is
/// never issued in the engine's past). This is how degradation suites
/// chain several scenario segments on **one** engine — each segment
/// inherits the warm caches and fault-window clock of its predecessor.
///
/// # Panics
///
/// As [`run`].
pub fn run_from(
    spec: &ScenarioSpec,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
    start: Tick,
) -> ScenarioOutcome {
    let table = spec.machine.build();
    run_inner(spec, &table, eng, agents, base, start)
}

/// [`run`], but with an explicit [`TransitionTable`] (the spec's
/// `machine` field is ignored).
///
/// # Panics
///
/// As [`run`].
pub fn run_with_machine(
    spec: &ScenarioSpec,
    table: &TransitionTable,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
) -> ScenarioOutcome {
    run_inner(spec, table, eng, agents, base, Tick::ZERO)
}

fn run_inner(
    spec: &ScenarioSpec,
    table: &TransitionTable,
    eng: &mut ProtocolEngine,
    agents: &[AgentId],
    base: PhysAddr,
    start: Tick,
) -> ScenarioOutcome {
    spec.validate();
    assert_eq!(
        agents.len(),
        spec.agents,
        "agent roster must match the spec"
    );
    let quotas = spec.phase_quotas();
    // Never schedule into the engine's past: a chained segment starts
    // no earlier than where its predecessor left the clock.
    let t0 = start.max(eng.now());
    let closed = matches!(spec.arrival, Arrival::Closed { .. });
    let mut arrivals = Arrivals::new(if closed { &[] } else { &spec.phases }, &quotas, t0);
    let mut exec = Exec {
        spec,
        table,
        agents,
        base,
        rng: SimRng::new(spec.seed),
        wakeups: EventQueue::new(),
        sessions: SessionSlab::new(),
        outstanding: FxHashMap::default(),
        accs: spec
            .phases
            .iter()
            .map(|p| PhaseAcc::new(p.name.clone()))
            .collect(),
        hots: spec.phases.iter().map(|p| p.traffic.hot()).collect(),
        cum_quota: quotas
            .iter()
            .scan(0u64, |acc, q| {
                *acc += q;
                Some(*acc)
            })
            .collect(),
        next_client: 0,
        closed,
        completed: 0,
        capped: 0,
        accesses: 0,
        checksum: 0,
        elapsed: Tick::ZERO,
    };

    if let Arrival::Closed { concurrency } = spec.arrival {
        // Admit the first window ns-staggered from t0; every
        // completion admits the next queued client. Phases label
        // population shares and key skew, not wall-clock windows.
        let first = concurrency.min(spec.clients);
        for c in 0..first {
            let phase = exec.phase_of(c);
            exec.wakeups
                .push(t0 + Tick::from_ns(c), Wake::Arrive { client: c, phase });
        }
        exec.next_client = first;
    }

    let events0 = eng.events_dispatched();
    let mut done = Vec::new();
    loop {
        let tw = arrivals
            .peek()
            .into_iter()
            .chain(exec.wakeups.peek_tick())
            .min();
        let te = eng.next_event();
        match (tw, te) {
            (None, None) => break,
            (Some(tw), te) if te.is_none_or(|te| tw <= te) => {
                // Wakeup batch first: issues land at tw >= eng.now().
                // Arrivals at tw run before queued wakeups at tw, as
                // they would if every arrival had been queued upfront
                // (with the lowest sequence numbers). Nothing in the
                // batch schedules before tw, so the bounded pops drain
                // exactly the tw batch.
                while let Some((client, phase)) = arrivals.pop_before(tw) {
                    exec.arrive(eng, client, phase, tw);
                }
                while let Some((_, wake)) = exec.wakeups.pop_before(tw) {
                    match wake {
                        Wake::Arrive { client, phase } => exec.arrive(eng, client, phase, tw),
                        Wake::Think { slot } => exec.step(eng, slot, tw),
                    }
                }
            }
            _ => {
                assert!(eng.run_next(&mut done), "engine had a next event");
                for c in &done {
                    exec.on_completion(eng, c);
                }
            }
        }
    }
    assert!(
        exec.outstanding.is_empty() && exec.sessions.live() == 0,
        "scenario drained with {} requests / {} sessions stranded",
        exec.outstanding.len(),
        exec.sessions.live()
    );

    ScenarioOutcome {
        name: spec.name.clone(),
        completed: exec.completed,
        capped: exec.capped,
        accesses: exec.accesses,
        events: eng.events_dispatched() - events0,
        checksum: exec.checksum,
        peak_live: exec.sessions.peak() as u64,
        elapsed: exec.elapsed,
        phases: exec.accs.into_iter().map(PhaseAcc::finish).collect(),
    }
}

struct Exec<'a> {
    spec: &'a ScenarioSpec,
    table: &'a TransitionTable,
    agents: &'a [AgentId],
    base: PhysAddr,
    rng: SimRng,
    wakeups: EventQueue<Wake>,
    sessions: SessionSlab,
    outstanding: FxHashMap<ReqId, u32>,
    accs: Vec<PhaseAcc>,
    hots: Vec<Option<(u64, f64)>>,
    cum_quota: Vec<u64>,
    next_client: u64,
    closed: bool,
    completed: u64,
    capped: u64,
    accesses: u64,
    checksum: u64,
    elapsed: Tick,
}

impl Exec<'_> {
    /// Phase a client index belongs to under the quota split.
    fn phase_of(&self, client: u64) -> u16 {
        self.cum_quota
            .iter()
            .position(|&cum| client < cum)
            .expect("client within population") as u16
    }

    fn arrive(&mut self, eng: &mut ProtocolEngine, client: u64, phase: u16, now: Tick) {
        let slot = self.sessions.insert(Session {
            client,
            phase,
            state: self.table.start(),
            steps: 0,
            last_key: 0,
            last_value: 0,
        });
        self.accs[phase as usize].sessions += 1;
        self.step(eng, slot, now);
    }

    /// Advances the session in `slot`, which is entering its current
    /// state at `now`.
    fn step(&mut self, eng: &mut ProtocolEngine, slot: u32, now: Tick) {
        let s = *self.sessions.get_mut(slot);
        if self.table.is_terminal(s.state) {
            self.finish(slot, now, false);
            return;
        }
        if s.steps >= self.table.cap() {
            self.finish(slot, now, true);
            return;
        }
        let mut ctx = StepCtx {
            client: s.client,
            step: s.steps,
            keys: self.spec.keys,
            hot: self.hots[s.phase as usize],
            last_key: s.last_key,
            last_value: s.last_value,
            rng: &mut self.rng,
        };
        let action = self.table.dispatch(s.state, &mut ctx);
        let sess = self.sessions.get_mut(slot);
        sess.steps += 1;
        match action {
            Action::Access { key, write, then } => {
                sess.last_key = key;
                sess.state = then;
                let agent = self.agents[(s.client % self.agents.len() as u64) as usize];
                let addr = slot_addr(self.base, key, self.spec.buckets);
                let op = if write {
                    MemOp::Store {
                        value: self.rng.next_u64(),
                    }
                } else {
                    MemOp::Load
                };
                let req = eng.issue(agent, op, addr, now);
                self.outstanding.insert(req, slot);
            }
            Action::Think { delay, then } => {
                sess.state = then;
                self.wakeups.push(now + delay, Wake::Think { slot });
            }
            Action::Done => self.finish(slot, now, false),
        }
    }

    fn on_completion(&mut self, eng: &mut ProtocolEngine, c: &Completion) {
        self.checksum = fold_checksum(self.checksum, c);
        self.accesses += 1;
        self.elapsed = self.elapsed.max(c.done);
        let slot = self
            .outstanding
            .remove(&c.req)
            .expect("completion matches an outstanding scenario request");
        {
            let s = self.sessions.get_mut(slot);
            s.last_value = c.value;
            let phase = s.phase as usize;
            self.accs[phase].record(c.issued, c.done);
        }
        self.step(eng, slot, c.done);
    }

    fn finish(&mut self, slot: u32, now: Tick, capped: bool) {
        self.sessions.remove(slot);
        if capped {
            self.capped += 1;
        } else {
            self.completed += 1;
        }
        if self.closed && self.next_client < self.spec.clients {
            let client = self.next_client;
            self.next_client += 1;
            let phase = self.phase_of(client);
            self.wakeups.push(now, Wake::Arrive { client, phase });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{hot_key_storm, ramp_then_burst, PhaseSpec, Traffic};

    /// The schedule as it used to be built: every arrival queued
    /// upfront in client order, then popped by `(tick, push order)`.
    fn eager(spec: &ScenarioSpec, t0: Tick) -> Vec<(Tick, u64, u16)> {
        let quotas = spec.phase_quotas();
        let mut q = EventQueue::new();
        let (mut client, mut phase_start) = (0u64, t0);
        for (pi, p) in spec.phases.iter().enumerate() {
            for j in 0..quotas[pi] {
                let at = phase_start + p.traffic.arrival_offset(j, quotas[pi], p.duration);
                q.push(at, (client, pi as u16));
                client += 1;
            }
            phase_start += p.duration;
        }
        std::iter::from_fn(|| q.pop().map(|(at, (c, p))| (at, c, p))).collect()
    }

    fn lazy(spec: &ScenarioSpec, t0: Tick) -> Vec<(Tick, u64, u16)> {
        let quotas = spec.phase_quotas();
        let mut cursor = Arrivals::new(&spec.phases, &quotas, t0);
        std::iter::from_fn(|| {
            let at = cursor.peek()?;
            let (c, p) = cursor.pop_before(at).expect("peeked arrival is due");
            Some((at, c, p))
        })
        .collect()
    }

    #[test]
    fn cursor_yields_the_eager_schedule() {
        // Squeezed into nanoseconds, so many arrivals share a tick and
        // the tie order is exercised too.
        let diurnal = ScenarioSpec {
            name: "diurnal".into(),
            clients: 50_000,
            phases: vec![
                PhaseSpec::new(
                    "cool_down",
                    Tick::from_ns(4),
                    Traffic::Ramp { from: 3.0, to: 0.5 },
                ),
                PhaseSpec::new(
                    "day_night",
                    Tick::from_ns(30),
                    Traffic::Diurnal {
                        low: 0.0,
                        high: 4.0,
                        cycles: 3,
                    },
                ),
            ],
            ..ramp_then_burst(0, 1)
        };
        for (spec, t0) in [
            (ramp_then_burst(120_000, 1), Tick::ZERO),
            (hot_key_storm(90_000, 2), Tick::from_ns(12_345)),
            (diurnal, Tick::from_us(7)),
        ] {
            let want = eager(&spec, t0);
            assert_eq!(want.len() as u64, spec.clients, "{}", spec.name);
            if spec.name == "diurnal" {
                assert!(want.windows(2).any(|w| w[0].0 == w[1].0));
            }
            assert_eq!(lazy(&spec, t0), want, "{}", spec.name);
        }
    }

    #[test]
    fn cursor_holds_back_arrivals_not_yet_due() {
        let spec = ramp_then_burst(1_000, 3);
        let quotas = spec.phase_quotas();
        let mut cursor = Arrivals::new(&spec.phases, &quotas, Tick::ZERO);
        let first = cursor.peek().expect("nonempty schedule");
        assert_eq!(cursor.pop_before(first - Tick::from_ps(1)), None);
        assert_eq!(cursor.pop_before(first), Some((0, 0)));
        assert!(cursor.peek().expect("more arrivals") >= first);
        assert_eq!(Arrivals::new(&[], &[], Tick::ZERO).peek(), None);
    }
}
