//! Fault injection and recovery measurement — the chaos harness.
//!
//! Self-stabilization (Def. 1 of the paper) quantifies over *arbitrary*
//! configurations precisely so that a protocol recovers from any transient
//! fault. The adversarial **initial** configuration machinery
//! (`ssle::adversary`) exercises the worst case once, at time zero; this
//! module corrupts executions **mid-run** and measures what the claim is
//! actually about: how long recovery takes, and how available the leader is
//! while faults keep arriving.
//!
//! # Pieces
//!
//! * [`FaultPlan`] — a declarative schedule of [`FaultEvent`]s: *when*
//!   ([`FaultTrigger`]: at an interaction count, at a parallel time, after
//!   first convergence + Δ, or repeatedly at a rate) and *what*
//!   ([`FaultAction`]: corrupt k random agents, duplicate the leader,
//!   collide k agents onto one state, half-finished reset, full randomize).
//! * [`Corruptor`] — the per-protocol vocabulary of corruption: how to draw
//!   an arbitrary ("adversarial") state and a mid-reset state. Implemented by
//!   the SSR protocols in `ssle::core`, reusing the adversary generators.
//! * [`FaultSchedule`] — the type-level injection point.
//!   [`Simulation`] takes a schedule as its third type
//!   parameter, defaulting to [`NoFaults`] whose `ACTIVE = false` associated
//!   const folds every poll out of the hot loop: a simulation without a fault
//!   plan compiles to the same code as before this module existed.
//! * [`FaultInjector`] — the live schedule bound to a population size. It
//!   draws from its **own** RNG (seeded by [`FaultPlan::seed`]), never from
//!   the simulation's, so `(protocol, plan, seed)` replays bit-identically
//!   and attaching observers still cannot perturb the execution.
//! * [`RecoveryTracker`] / [`ChaosReport`] — per-fault recovery times and
//!   leader-availability fractions, produced by
//!   [`Simulation::run_chaos`](crate::Simulation::run_chaos).
//! * [`ChaosTrialOutcome`] — one timed chaos trial on either backend
//!   ([`ChaosTrialOutcome::measure`], a trial body for
//!   [`Runner::run`](crate::Runner::run)), emitting versioned
//!   [`RunRecord`]/[`FaultRecord`] JSONL for `ssle report`.
//!
//! # Example
//!
//! ```
//! use population::fault::{FaultAction, FaultPlan, FaultSize};
//!
//! // One corrupted agent a quarter-parallel-time unit after stabilization,
//! // then sustained noise: one random corruption every 50 parallel time units.
//! let plan = FaultPlan::new(7)
//!     .after_convergence(16, FaultAction::CorruptRandom(FaultSize::Exact(1)))
//!     .every_parallel_time(50.0, FaultAction::CorruptRandom(FaultSize::Sqrt));
//! assert_eq!(plan.events.len(), 2);
//! ```

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::backend::SimulationBackend;
use crate::dynamics::Pinned;
use crate::metrics::MetricsSink;
use crate::observer::Observer;
use crate::protocol::{Protocol, RankingProtocol};
use crate::record::{FaultRecord, RunRecord};
use crate::runner::rng_from_seed;
use crate::scheduler::SchedulerPolicy;
use crate::simulation::{rank_pair, retrack, Goal, RunOutcome, Simulation};
use crate::tracker::RankTracker;

/// How many agents a fault touches, resolved against the **live** population
/// size each time the fault fires — so a size stays valid even when
/// membership churn (see [`crate::dynamics`]) has moved `n` since the plan
/// was written. Oversized requests clamp instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSize {
    /// Exactly `k` agents (clamped to `n`).
    Exact(usize),
    /// `⌈√n⌉` agents.
    Sqrt,
    /// `⌈f·n⌉` agents for a fraction `f ∈ [0, 1]` (clamped to `1..=n`, so an
    /// `εn` fault still touches at least one agent at small `n`).
    Fraction(f64),
    /// All `n` agents.
    All,
}

impl FaultSize {
    /// The concrete agent count for a population of `n`.
    pub fn resolve(&self, n: usize) -> usize {
        match *self {
            FaultSize::Exact(k) => k.min(n).max(1),
            FaultSize::Sqrt => ((n as f64).sqrt().ceil() as usize).clamp(1, n),
            FaultSize::Fraction(f) => ((n as f64 * f).ceil() as usize).clamp(1, n),
            FaultSize::All => n,
        }
    }
}

/// What a fault does to the configuration when it fires.
///
/// Every action corrupts **in place** and consumes only the injector's RNG;
/// none of them count as interactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Overwrite that many distinct random agents with arbitrary states drawn
    /// by [`Corruptor::random_state`] — the transient-memory-fault model.
    CorruptRandom(FaultSize),
    /// Clone the current leader's state onto one other random agent (if no
    /// agent currently leads, a random agent is cloned instead). The classic
    /// "two agents think they are rank 1" scenario of Sec. 2.
    DuplicateLeader,
    /// Clone one random victim's state onto that many *other* distinct
    /// agents, producing a rank/name collision cluster.
    Collide(FaultSize),
    /// Overwrite that many distinct random agents with half-finished reset
    /// states ([`Corruptor::mid_reset_state`]) — the adversary the paper's
    /// Propagate-Reset analysis (Sec. 3) is hardened against.
    PartialReset(FaultSize),
    /// Overwrite **every** agent with an arbitrary state: a fresh adversarial
    /// configuration mid-run.
    Randomize,
}

impl FaultAction {
    /// Stable snake_case name for records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultAction::CorruptRandom(_) => "corrupt_random",
            FaultAction::DuplicateLeader => "duplicate_leader",
            FaultAction::Collide(_) => "collide",
            FaultAction::PartialReset(_) => "partial_reset",
            FaultAction::Randomize => "randomize",
        }
    }
}

/// When a [`FaultEvent`] fires.
///
/// Triggers are checked after each interaction, so a trigger scheduled for
/// interaction `t` fires at the first poll with total count `≥ t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Once, at this total interaction count.
    AtInteraction(u64),
    /// Once, at this parallel time (interactions / n; resolved to an
    /// interaction count when the plan is bound to a population).
    AtParallelTime(f64),
    /// Once, `delta` interactions after the run **first** reaches its goal
    /// (stable ranking for [`run_chaos`](crate::Simulation::run_chaos) and
    /// [`run_until_stably_ranked`](crate::Simulation::run_until_stably_ranked),
    /// the caller's goal for [`run_until`](crate::Simulation::run_until)).
    /// Never fires if the run never converges.
    AfterConvergence {
        /// Interactions to wait after first convergence.
        delta: u64,
    },
    /// Repeatedly: at interaction `offset + period`, then every `period`
    /// further interactions, forever.
    EveryInteractions {
        /// Interval between firings, in interactions (must be positive).
        period: u64,
        /// Shift of the first firing (first fires at `offset + period`).
        offset: u64,
    },
    /// Repeatedly, every `period` units of parallel time (resolved to an
    /// interaction period of at least 1 when bound to a population).
    EveryParallelTime {
        /// Interval between firings, in parallel time units.
        period: f64,
    },
}

/// One scheduled fault: a trigger and an action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What it does.
    pub action: FaultAction,
}

/// A declarative fault schedule, independent of any particular population
/// size or execution.
///
/// Plans are bound to a simulation with
/// [`Simulation::with_fault_plan`](crate::Simulation::with_fault_plan); the
/// same plan can be reused across trials. All corruption randomness derives
/// from [`FaultPlan::seed`], so a `(protocol, plan, seed)` triple determines
/// the faulted execution bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
    /// Seed for the injector's private RNG.
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no events ever fire.
    ///
    /// Note this still instantiates the [`FaultInjector`] code path (one
    /// predicted branch per interaction); for the *statically* fault-free
    /// simulation, simply never attach a plan — the [`NoFaults`] default
    /// compiles the polls away entirely.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new(), seed: 0 }
    }

    /// An empty plan with corruption randomness seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { events: Vec::new(), seed }
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event with an explicit trigger.
    pub fn with_event(mut self, trigger: FaultTrigger, action: FaultAction) -> Self {
        self.events.push(FaultEvent { trigger, action });
        self
    }

    /// Schedules `action` once at total interaction count `t`.
    pub fn at_interaction(self, t: u64, action: FaultAction) -> Self {
        self.with_event(FaultTrigger::AtInteraction(t), action)
    }

    /// Schedules `action` once at parallel time `t`.
    pub fn at_parallel_time(self, t: f64, action: FaultAction) -> Self {
        self.with_event(FaultTrigger::AtParallelTime(t), action)
    }

    /// Schedules `action` once, `delta` interactions after first convergence.
    pub fn after_convergence(self, delta: u64, action: FaultAction) -> Self {
        self.with_event(FaultTrigger::AfterConvergence { delta }, action)
    }

    /// Schedules `action` every `period` interactions (first at `period`).
    pub fn every_interactions(self, period: u64, action: FaultAction) -> Self {
        self.with_event(FaultTrigger::EveryInteractions { period, offset: 0 }, action)
    }

    /// Schedules `action` every `period` parallel time units.
    pub fn every_parallel_time(self, period: f64, action: FaultAction) -> Self {
        self.with_event(FaultTrigger::EveryParallelTime { period }, action)
    }
}

/// Per-protocol corruption vocabulary.
///
/// The self-stabilizing model's adversary chooses arbitrary states from the
/// protocol's state space; this trait lets the generic fault actions do the
/// same without knowing the state layout. Implementations live next to the
/// protocols (`ssle::core`) and share code with the adversarial
/// initial-configuration generators (`ssle::adversary`), so "arbitrary" means
/// the same thing at time zero and mid-run.
pub trait Corruptor: RankingProtocol {
    /// Draws one state uniformly-ish from the reachable adversarial state
    /// space (what a transient memory fault could leave behind).
    fn random_state(&self, rng: &mut SmallRng) -> Self::State;

    /// Draws a "half-finished reset" state, for protocols with a reset
    /// mechanism; defaults to [`Corruptor::random_state`] for those without.
    fn mid_reset_state(&self, rng: &mut SmallRng) -> Self::State {
        self.random_state(rng)
    }
}

/// One fault that actually fired during an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Total interaction count when it fired.
    pub at: u64,
    /// [`FaultAction::label`] of the action.
    pub action: &'static str,
    /// Number of agent states overwritten.
    pub agents: usize,
}

/// The simulation-side fault hook: polled after every interaction.
///
/// This is the fault analogue of [`Observer`]: a type-level
/// plug-in with a const gate. [`NoFaults`] (the default) has `ACTIVE =
/// false`, so the polls vanish at monomorphization; [`FaultInjector`] has
/// `ACTIVE = true` and executes a bound [`FaultPlan`].
pub trait FaultSchedule<P: Protocol> {
    /// Whether the simulation loop should poll this schedule at all. Checked
    /// as an associated const so inactive schedules cost nothing.
    const ACTIVE: bool;

    /// Fires every event due at the given total interaction count, mutating
    /// `states` in place. Returns the number of agent states overwritten (0
    /// when nothing fired).
    fn poll(&mut self, protocol: &P, states: &mut [P::State], interactions: u64) -> usize;

    /// Tells the schedule the run's goal was (first) reached, arming
    /// [`FaultTrigger::AfterConvergence`] events. Idempotent: calls after the
    /// first are ignored.
    fn notify_converged(&mut self, interactions: u64);

    /// The earliest total interaction count at which [`FaultSchedule::poll`]
    /// could fire anything (`u64::MAX` when nothing is armed).
    ///
    /// The agent-array simulation ignores this (its polls are O(1) against a
    /// live state slice). The count-based backend
    /// ([`crate::counts::BatchSimulation`]) uses it twice: to materialize an
    /// agent array for `poll` only when something is actually due, and to cap
    /// batch lengths so a batched execution never jumps past a due fault. The
    /// conservative default of `0` ("always possibly due") keeps custom
    /// schedules correct — they are simply polled every interaction, as on
    /// the agent backend.
    fn next_due(&self) -> u64 {
        0
    }

    /// Every fault fired so far, in firing order.
    fn log(&self) -> &[FiredFault];

    /// Number of faults fired so far.
    fn fired_count(&self) -> usize {
        self.log().len()
    }

    /// Whether no event can ever fire again (all one-shots consumed, no
    /// repeating events, no unarmed after-convergence events).
    fn exhausted(&self) -> bool;
}

/// The default fault schedule: nothing ever fires and `ACTIVE = false`, so
/// `Simulation<P, O>` contains no fault plumbing at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl<P: Protocol> FaultSchedule<P> for NoFaults {
    const ACTIVE: bool = false;

    fn poll(&mut self, _protocol: &P, _states: &mut [P::State], _interactions: u64) -> usize {
        0
    }

    fn notify_converged(&mut self, _interactions: u64) {}

    fn next_due(&self) -> u64 {
        u64::MAX
    }

    fn log(&self) -> &[FiredFault] {
        &[]
    }

    fn exhausted(&self) -> bool {
        true
    }
}

/// A repeating event bound to an interaction period.
#[derive(Debug, Clone, Copy)]
struct Repeat {
    period: u64,
    due: u64,
    action: FaultAction,
}

/// A [`FaultPlan`] bound to a population size: parallel-time triggers are
/// resolved to interaction counts and the corruption RNG is seeded.
///
/// Built by [`Simulation::with_fault_plan`](crate::Simulation::with_fault_plan)
/// (or [`FaultInjector::bind`] directly). Polling is O(1) between firings —
/// a single `interactions < next_due` comparison.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Private corruption RNG; the simulation's RNG is never touched.
    rng: SmallRng,
    /// One-shot events sorted by due time; `next_oneshot` indexes the first
    /// unconsumed one.
    oneshot: Vec<(u64, FaultAction)>,
    next_oneshot: usize,
    repeating: Vec<Repeat>,
    /// After-convergence events waiting to be armed: `(delta, action)`.
    dormant: Vec<(u64, FaultAction)>,
    converged_seen: bool,
    /// Earliest due time of any armed event (`u64::MAX` when none).
    next_due: u64,
    log: Vec<FiredFault>,
}

impl FaultInjector {
    /// Binds a plan to a population of `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if a repeating trigger has a non-positive period,
    /// or if a parallel-time value is not finite and non-negative.
    pub fn bind(plan: &FaultPlan, n: usize) -> Self {
        assert!(n > 0, "cannot bind a fault plan to an empty population");
        let to_interactions = |t: f64| -> u64 {
            assert!(t.is_finite() && t >= 0.0, "parallel time {t} must be finite and non-negative");
            (t * n as f64).round() as u64
        };
        let mut oneshot = Vec::new();
        let mut repeating = Vec::new();
        let mut dormant = Vec::new();
        for event in &plan.events {
            match event.trigger {
                FaultTrigger::AtInteraction(t) => oneshot.push((t, event.action)),
                FaultTrigger::AtParallelTime(t) => oneshot.push((to_interactions(t), event.action)),
                FaultTrigger::AfterConvergence { delta } => dormant.push((delta, event.action)),
                FaultTrigger::EveryInteractions { period, offset } => {
                    assert!(period > 0, "repeating fault period must be positive");
                    repeating.push(Repeat { period, due: offset + period, action: event.action });
                }
                FaultTrigger::EveryParallelTime { period } => {
                    let period = to_interactions(period).max(1);
                    repeating.push(Repeat { period, due: period, action: event.action });
                }
            }
        }
        oneshot.sort_by_key(|&(t, _)| t);
        let mut injector = FaultInjector {
            rng: rng_from_seed(plan.seed),
            oneshot,
            next_oneshot: 0,
            repeating,
            dormant,
            converged_seen: false,
            next_due: u64::MAX,
            log: Vec::new(),
        };
        injector.recompute_next_due();
        injector
    }

    fn recompute_next_due(&mut self) {
        let mut due = self.oneshot.get(self.next_oneshot).map_or(u64::MAX, |&(t, _)| t);
        for r in &self.repeating {
            due = due.min(r.due);
        }
        self.next_due = due;
    }
}

impl<P: Corruptor> FaultSchedule<P> for FaultInjector {
    const ACTIVE: bool = true;

    fn poll(&mut self, protocol: &P, states: &mut [P::State], interactions: u64) -> usize {
        if interactions < self.next_due {
            return 0;
        }
        let mut corrupted = 0;
        while let Some(&(due, action)) = self.oneshot.get(self.next_oneshot) {
            if due > interactions {
                break;
            }
            self.next_oneshot += 1;
            let agents = apply_fault(protocol, states, action, &mut self.rng);
            self.log.push(FiredFault { at: interactions, action: action.label(), agents });
            corrupted += agents;
        }
        for idx in 0..self.repeating.len() {
            while self.repeating[idx].due <= interactions {
                let action = self.repeating[idx].action;
                self.repeating[idx].due += self.repeating[idx].period;
                let agents = apply_fault(protocol, states, action, &mut self.rng);
                self.log.push(FiredFault { at: interactions, action: action.label(), agents });
                corrupted += agents;
            }
        }
        self.recompute_next_due();
        corrupted
    }

    fn notify_converged(&mut self, interactions: u64) {
        if self.converged_seen {
            return;
        }
        self.converged_seen = true;
        if self.dormant.is_empty() {
            return;
        }
        for (delta, action) in self.dormant.drain(..) {
            self.oneshot.push((interactions.saturating_add(delta), action));
        }
        // Only the unconsumed tail may be reordered; fired events stay put.
        self.oneshot[self.next_oneshot..].sort_by_key(|&(t, _)| t);
        self.recompute_next_due();
    }

    fn next_due(&self) -> u64 {
        self.next_due
    }

    fn log(&self) -> &[FiredFault] {
        &self.log
    }

    fn exhausted(&self) -> bool {
        self.next_oneshot >= self.oneshot.len()
            && self.repeating.is_empty()
            && self.dormant.is_empty()
    }
}

/// Applies one fault action to the configuration, drawing only from the
/// injector's RNG. Returns the number of agent states overwritten.
fn apply_fault<P: Corruptor>(
    protocol: &P,
    states: &mut [P::State],
    action: FaultAction,
    rng: &mut SmallRng,
) -> usize {
    let n = states.len();
    match action {
        FaultAction::CorruptRandom(size) => {
            let k = size.resolve(n);
            for a in distinct_agents(n, k, rng) {
                states[a] = protocol.random_state(rng);
            }
            k
        }
        FaultAction::DuplicateLeader => {
            let src = states
                .iter()
                .position(|s| protocol.is_leader(s))
                .unwrap_or_else(|| rng.gen_range(0..n));
            let mut dst = rng.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            states[dst] = states[src].clone();
            1
        }
        FaultAction::Collide(size) => {
            let k = size.resolve(n).min(n - 1);
            let victim = rng.gen_range(0..n);
            let mut targets = distinct_agents(n - 1, k, rng);
            for t in &mut targets {
                if *t >= victim {
                    *t += 1;
                }
            }
            let v = states[victim].clone();
            for t in targets {
                states[t] = v.clone();
            }
            k
        }
        FaultAction::PartialReset(size) => {
            let k = size.resolve(n);
            for a in distinct_agents(n, k, rng) {
                states[a] = protocol.mid_reset_state(rng);
            }
            k
        }
        FaultAction::Randomize => {
            for s in states.iter_mut() {
                *s = protocol.random_state(rng);
            }
            n
        }
    }
}

/// `k` distinct agent indices drawn uniformly from `0..n` by a partial
/// Fisher–Yates shuffle. O(n) per call, which is fine: faults are rare.
pub(crate) fn distinct_agents(n: usize, k: usize, rng: &mut SmallRng) -> Vec<usize> {
    debug_assert!(k <= n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// One fired fault with its measured recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// [`FaultAction::label`] of the action that fired.
    pub action: &'static str,
    /// Number of agent states it overwrote.
    pub agents: usize,
    /// Total interaction count when it fired.
    pub at: u64,
    /// Total interaction count when the configuration was next correctly
    /// ranked, or `None` if the run ended first (censored).
    pub recovered_at: Option<u64>,
}

impl FaultOutcome {
    /// Interactions from injection to recovery, if recovery happened.
    pub fn recovery_interactions(&self) -> Option<u64> {
        self.recovered_at.map(|r| r - self.at)
    }

    /// Parallel time from injection to recovery, if recovery happened.
    pub fn recovery_parallel_time(&self, n: usize) -> Option<f64> {
        self.recovery_interactions().map(|i| i as f64 / n as f64)
    }
}

/// Accumulates recovery and availability statistics as a chaos run proceeds.
///
/// Driven by [`Simulation::run_chaos`](crate::Simulation::run_chaos):
/// [`RecoveryTracker::drain_fired`] when injections fire,
/// [`RecoveryTracker::observe_steps`] for every stretch of interactions
/// that share a status, and [`RecoveryTracker::on_ranked`] whenever the
/// configuration is correctly ranked (closing all open faults).
#[derive(Debug, Clone)]
pub struct RecoveryTracker {
    n: usize,
    first_ranked: Option<u64>,
    faults: Vec<FaultOutcome>,
    /// Indices into `faults` with `recovered_at == None`.
    open: Vec<usize>,
    leader_steps: u64,
    ranked_steps: u64,
    observed_steps: u64,
}

impl RecoveryTracker {
    /// Creates a tracker for a population of `n` agents.
    pub fn new(n: usize) -> Self {
        RecoveryTracker {
            n,
            first_ranked: None,
            faults: Vec::new(),
            open: Vec::new(),
            leader_steps: 0,
            ranked_steps: 0,
            observed_steps: 0,
        }
    }

    /// Records a fired fault; it stays "open" until the next
    /// [`RecoveryTracker::on_ranked`].
    pub fn on_fault(&mut self, action: &'static str, agents: usize, at: u64) {
        self.open.push(self.faults.len());
        self.faults.push(FaultOutcome { action, agents, at, recovered_at: None });
    }

    /// Records every fault in `log` past its first `*seen` entries — the
    /// faults fired since the last call — and advances `*seen`.
    pub fn drain_fired(&mut self, log: &[FiredFault], seen: &mut usize) {
        for f in &log[*seen..] {
            self.on_fault(f.action, f.agents, f.at);
        }
        *seen = log.len();
    }

    /// Records that the configuration is correctly ranked at interaction
    /// count `at`: notes the first stabilization and closes every open fault.
    pub fn on_ranked(&mut self, at: u64) {
        if self.first_ranked.is_none() {
            self.first_ranked = Some(at);
        }
        for idx in self.open.drain(..) {
            self.faults[idx].recovered_at = Some(at);
        }
    }

    /// Accounts `steps` interactions, all sharing the same status: whether
    /// the configuration was correctly ranked and whether exactly one agent
    /// held rank 1 after them. The agent backend observes each stretch
    /// between two status changes; the driver observes whole slices,
    /// inspecting the configuration only at their boundaries.
    pub fn observe_steps(&mut self, steps: u64, ranked: bool, unique_leader: bool) {
        self.observed_steps += steps;
        if ranked {
            self.ranked_steps += steps;
        }
        if unique_leader {
            self.leader_steps += steps;
        }
    }

    /// Number of faults not yet recovered from.
    pub fn open_faults(&self) -> usize {
        self.open.len()
    }

    /// Fraction of observed interactions with a unique leader so far —
    /// what [`ChaosReport::availability`] reports once finalized, without
    /// finalizing (or copying the fault log).
    pub fn availability(&self) -> f64 {
        availability(self.leader_steps, self.observed_steps)
    }

    /// Finalizes into a report; `interactions` is the run's total count.
    pub fn into_report(self, interactions: u64) -> ChaosReport {
        ChaosReport {
            n: self.n,
            interactions,
            first_ranked: self.first_ranked,
            faults: self.faults,
            leader_steps: self.leader_steps,
            ranked_steps: self.ranked_steps,
            observed_steps: self.observed_steps,
        }
    }
}

/// Fraction of `observed` interactions with a unique leader; vacuously 1.0
/// if nothing was observed.
fn availability(leader_steps: u64, observed: u64) -> f64 {
    if observed == 0 {
        1.0
    } else {
        leader_steps as f64 / observed as f64
    }
}

/// What one chaos run measured: the baseline stabilization, every fault's
/// recovery, and availability fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Population size.
    pub n: usize,
    /// Total interactions the run performed.
    pub interactions: u64,
    /// Interaction count at the **first** stable ranking (the full
    /// self-stabilization time from the initial configuration), or `None` if
    /// the run never ranked.
    pub first_ranked: Option<u64>,
    /// Every fault that fired, with its recovery (in firing order).
    pub faults: Vec<FaultOutcome>,
    /// Interactions after which exactly one agent held rank 1.
    pub leader_steps: u64,
    /// Interactions after which the configuration was correctly ranked.
    pub ranked_steps: u64,
    /// Interactions the availability counters observed.
    pub observed_steps: u64,
}

impl ChaosReport {
    /// One `kind = "fault"` record per fired fault, in firing order, for
    /// trial `trial` of an `n`-agent experiment.
    pub(crate) fn fault_records(
        &self,
        experiment: &str,
        protocol: &str,
        n: usize,
        h: Option<u64>,
        trial: u64,
        base_seed: u64,
    ) -> Vec<FaultRecord> {
        self.faults
            .iter()
            .map(|f| FaultRecord {
                experiment: experiment.to_string(),
                protocol: protocol.to_string(),
                n: n as u64,
                h,
                trial,
                seed: base_seed,
                action: f.action.to_string(),
                agents: f.agents as u64,
                injected_at: f.at,
                recovered_at: f.recovered_at,
            })
            .collect()
    }

    /// Fraction of observed interactions with a unique leader (rank 1 held
    /// by exactly one agent) — the availability number soak runs report.
    /// Vacuously 1.0 if nothing was observed.
    pub fn availability(&self) -> f64 {
        availability(self.leader_steps, self.observed_steps)
    }

    /// Fraction of observed interactions with a fully correct ranking —
    /// stricter than [`ChaosReport::availability`]. Vacuously 1.0 if nothing
    /// was observed.
    pub fn ranked_availability(&self) -> f64 {
        if self.observed_steps == 0 {
            1.0
        } else {
            self.ranked_steps as f64 / self.observed_steps as f64
        }
    }

    /// Number of faults the run recovered from.
    pub fn recovered(&self) -> usize {
        self.faults.iter().filter(|f| f.recovered_at.is_some()).count()
    }

    /// Whether the run ranked at least once and left no fault unrecovered.
    pub fn fully_recovered(&self) -> bool {
        self.first_ranked.is_some() && self.recovered() == self.faults.len()
    }

    /// Mean interactions from injection to recovery over recovered faults.
    pub fn mean_recovery_interactions(&self) -> Option<f64> {
        let recovered: Vec<u64> =
            self.faults.iter().filter_map(|f| f.recovery_interactions()).collect();
        if recovered.is_empty() {
            None
        } else {
            Some(recovered.iter().sum::<u64>() as f64 / recovered.len() as f64)
        }
    }

    /// Mean parallel-time recovery over recovered faults.
    pub fn mean_recovery_parallel_time(&self) -> Option<f64> {
        self.mean_recovery_interactions().map(|i| i / self.n as f64)
    }

    /// Parallel time of the first stable ranking, if any.
    pub fn first_ranked_parallel_time(&self) -> Option<f64> {
        self.first_ranked.map(|i| i as f64 / self.n as f64)
    }
}

impl<P: Corruptor, O: Observer<P>, F: FaultSchedule<P>, S: SchedulerPolicy, M: MetricsSink>
    Simulation<P, O, F, S, M>
{
    /// Binds `plan` to this simulation's population, replacing any existing
    /// fault schedule. Interactions already performed are preserved; triggers
    /// are measured in **total** interaction counts.
    pub fn with_fault_plan(self, plan: &FaultPlan) -> Simulation<P, O, FaultInjector, S, M> {
        let faults = FaultInjector::bind(plan, self.states.len());
        Simulation {
            protocol: self.protocol,
            scheduler: self.scheduler,
            states: self.states,
            rng: self.rng,
            interactions: self.interactions,
            observer: self.observer,
            faults,
            reliability: self.reliability,
            metrics: self.metrics,
        }
    }

    /// The attached fault schedule.
    pub fn fault_schedule(&self) -> &F {
        &self.faults
    }

    /// Runs under the attached fault schedule, measuring recovery and
    /// availability, until every scheduled fault has fired **and** been
    /// recovered from (the configuration is correctly ranked again), or until
    /// the total interaction count reaches `max_interactions`.
    ///
    /// With a plan containing repeating triggers the first condition never
    /// holds, so the run uses the whole budget — that is the soak mode, and
    /// the availability fractions in the [`ChaosReport`] are the product.
    ///
    /// The report's [`first_ranked`](ChaosReport::first_ranked) is the plain
    /// self-stabilization time from the initial configuration, so one chaos
    /// trial yields both the baseline and the per-fault recovery times.
    pub fn run_chaos(&mut self, max_interactions: u64) -> ChaosReport {
        let mut goal = self.recovery_goal();
        let outcome = self.drive::<_, false>(&mut goal, max_interactions, None);
        self.conclude(outcome);
        goal.finish(self.interactions)
    }

    /// The [`Recovery`] goal of a chaos or churn run starting now.
    pub(crate) fn recovery_goal(&mut self) -> Recovery {
        let n = self.protocol.population_size();
        assert_eq!(n, self.states.len(), "protocol configured for a different population size");
        let seen = self.faults.fired_count();
        // The plan may fire at the start, and the start may be ranked.
        self.poll_faults();
        let mut goal = Recovery {
            tracker: RankTracker::of_states(&self.protocol, &self.states),
            books: RecoveryTracker::new(n),
            seen,
            changed: false,
            hold: u64::MAX,
            quiet: true,
            byzantine: None,
            from: self.interactions + 1,
            ranked: false,
            unique_leader: false,
        };
        goal.keep_books(n, &mut self.faults, self.interactions);
        goal
    }
}

/// The goal of [`Simulation::run_chaos`] and
/// [`Simulation::run_dynamics`](crate::Simulation::run_dynamics): ranked
/// at the configured size, every fault fired and recovered from, nothing
/// else pending. On the way it keeps a [`RecoveryTracker`]'s books, which
/// change only when a rank changes or a fault fires: [`Goal::settle`] flags
/// such an interaction and [`Goal::reached`], asked at the same clock,
/// catches up. Availability is credited per stretch of interactions that
/// share a status.
pub(crate) struct Recovery {
    pub(crate) tracker: RankTracker,
    pub(crate) books: RecoveryTracker,
    /// Fault-log entries already in the books.
    pub(crate) seen: usize,
    /// A rank changed or a fault fired since the books were kept.
    pub(crate) changed: bool,
    /// A clock whose bookkeeping waits for the membership events due there.
    pub(crate) hold: u64,
    /// No churn is pending and no agent is Byzantine.
    pub(crate) quiet: bool,
    pub(crate) byzantine: Option<Pinned>,
    /// The first interaction not yet credited to availability, and the
    /// status since: correctly ranked, and exactly one agent at rank 1.
    from: u64,
    ranked: bool,
    unique_leader: bool,
}

impl Recovery {
    /// Credits the interactions before `now` with their status, then keeps
    /// the books at `now`.
    #[cold]
    #[inline(never)]
    fn catch_up<P: Protocol, F: FaultSchedule<P>>(
        &mut self,
        n_live: usize,
        faults: &mut F,
        now: u64,
    ) {
        self.books.observe_steps(now - self.from, self.ranked, self.unique_leader);
        self.from = now;
        self.changed = false;
        self.keep_books(n_live, faults, now);
    }

    /// Books fired faults and the status at `now`; if ranked, closes the
    /// open faults and arms the after-convergence triggers.
    fn keep_books<P: Protocol, F: FaultSchedule<P>>(
        &mut self,
        n_live: usize,
        faults: &mut F,
        now: u64,
    ) {
        self.books.drain_fired(faults.log(), &mut self.seen);
        self.ranked = self.tracker.is_correct() && n_live == self.tracker.rank_count();
        self.unique_leader = self.tracker.count_of(1) == 1;
        if self.ranked {
            self.books.on_ranked(now);
            faults.notify_converged(now);
        }
    }

    /// Credits the last stretch of a run that ended at clock `now`.
    pub(crate) fn finish(mut self, now: u64) -> ChaosReport {
        self.books.observe_steps(now + 1 - self.from, self.ranked, self.unique_leader);
        self.books.into_report(now)
    }
}

impl<P: Corruptor> Goal<P> for Recovery {
    const PROBES: bool = false;
    /// The pair's ranks before the transition, as [`rank_pair`] packs them.
    type Mark = u64;

    #[inline(always)]
    fn reached<F: FaultSchedule<P>>(
        &mut self,
        _: &P,
        states: &[P::State],
        faults: &mut F,
        now: u64,
    ) -> Option<u64> {
        if self.changed && now != self.hold {
            self.catch_up(states.len(), faults, now);
        }
        let done = self.ranked && self.quiet && self.books.open_faults() == 0;
        (done && faults.exhausted()).then_some(now)
    }

    /// Only a rank change or a fault can change the answer.
    #[inline(always)]
    fn deadline(&self, _: u64) -> u64 {
        u64::MAX
    }

    #[inline(always)]
    fn mark(&self, protocol: &P, states: &[P::State], i: usize, j: usize) -> u64 {
        rank_pair(protocol, states, i, j)
    }

    #[inline(always)]
    fn interfere(&mut self, protocol: &P, states: &mut [P::State], i: usize, j: usize) {
        if let Some(byzantine) = &mut self.byzantine {
            byzantine.strike(protocol, states, i, j);
        }
    }

    #[inline(always)]
    fn settle(
        &mut self,
        before: u64,
        protocol: &P,
        states: &[P::State],
        i: usize,
        j: usize,
        faulted: bool,
    ) -> bool {
        let after = rank_pair(protocol, states, i, j);
        if before == after && !faulted {
            return false;
        }
        retrack(&mut self.tracker, before, after, protocol, states, faulted);
        self.changed = true;
        true
    }
}

/// One completed chaos trial: index, population size, full report, and
/// wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosTrialOutcome {
    /// Trial index within the experiment.
    pub trial: u64,
    /// Population size of this trial.
    pub n: usize,
    /// Everything the run measured.
    pub report: ChaosReport,
    /// Wall-clock time the execution took.
    pub wall: Duration,
}

impl ChaosTrialOutcome {
    /// Runs `sim` under its attached fault plan for at most
    /// `max_interactions` (see [`Simulation::run_chaos`]), timing the run
    /// as trial `trial`. The same trial body serves both backends.
    pub fn measure<P, B>(trial: u64, sim: &mut B, max_interactions: u64) -> Self
    where
        P: Corruptor,
        B: SimulationBackend<P>,
    {
        let n = sim.population_size();
        let started = Instant::now();
        let report = sim.run_chaos(max_interactions);
        ChaosTrialOutcome { trial, n, report, wall: started.elapsed() }
    }

    /// The trial-level experiment record (`kind = "trial"`).
    ///
    /// The record converges iff the run ranked at least once and recovered
    /// from every fault; its interaction count is then the **first** stable
    /// ranking, so `parallel_time` stays comparable with fault-free
    /// stabilization records. Availability and the fault count ride along in
    /// the v2 optional fields.
    pub fn trial_record(
        &self,
        experiment: &str,
        protocol: &str,
        h: Option<u64>,
        base_seed: u64,
    ) -> RunRecord {
        let outcome = match self.report.first_ranked {
            Some(t) if self.report.fully_recovered() => RunOutcome::Converged { interactions: t },
            _ => RunOutcome::Exhausted { interactions: self.report.interactions },
        };
        RunRecord {
            experiment: experiment.to_string(),
            protocol: protocol.to_string(),
            n: self.n as u64,
            h,
            trial: self.trial,
            seed: base_seed,
            outcome,
            wall_s: self.wall.as_secs_f64(),
            availability: Some(self.report.availability()),
            faults: Some(self.report.faults.len() as u64),
            scheduler: None,
            omission: None,
            starve_window: None,
        }
    }

    /// One `kind = "fault"` record per fired fault, in firing order.
    pub fn fault_records(
        &self,
        experiment: &str,
        protocol: &str,
        h: Option<u64>,
        base_seed: u64,
    ) -> Vec<FaultRecord> {
        self.report.fault_records(experiment, protocol, self.n, h, self.trial, base_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_worker_count_invariant, Backend, ModRank, TrialKind};

    fn ranked(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn fault_size_resolution() {
        assert_eq!(FaultSize::Exact(3).resolve(10), 3);
        assert_eq!(FaultSize::Exact(99).resolve(10), 10);
        assert_eq!(FaultSize::Exact(0).resolve(10), 1, "a fault touches at least one agent");
        assert_eq!(FaultSize::Sqrt.resolve(100), 10);
        assert_eq!(FaultSize::Sqrt.resolve(2), 2);
        assert_eq!(FaultSize::Fraction(0.125).resolve(256), 32);
        assert_eq!(FaultSize::Fraction(0.001).resolve(10), 1);
        assert_eq!(FaultSize::All.resolve(7), 7);
    }

    #[test]
    fn no_faults_is_inactive_and_exhausted() {
        const { assert!(!<NoFaults as FaultSchedule<ModRank>>::ACTIVE) };
        let mut nf = NoFaults;
        let p = ModRank { n: 4 };
        let mut states = ranked(4);
        assert_eq!(FaultSchedule::<ModRank>::poll(&mut nf, &p, &mut states, 10), 0);
        assert!(FaultSchedule::<ModRank>::exhausted(&nf));
        assert!(FaultSchedule::<ModRank>::log(&nf).is_empty());
        assert_eq!(states, ranked(4), "NoFaults must not touch the configuration");
    }

    #[test]
    fn at_interaction_fires_once_at_due_time() {
        let plan =
            FaultPlan::new(1).at_interaction(5, FaultAction::CorruptRandom(FaultSize::Exact(2)));
        let mut inj = FaultInjector::bind(&plan, 8);
        let p = ModRank { n: 8 };
        let mut states = ranked(8);
        assert_eq!(inj.poll(&p, &mut states, 4), 0);
        assert!(!FaultSchedule::<ModRank>::exhausted(&inj));
        assert_eq!(inj.poll(&p, &mut states, 5), 2);
        assert_eq!(FaultSchedule::<ModRank>::log(&inj).len(), 1);
        assert_eq!(FaultSchedule::<ModRank>::log(&inj)[0].action, "corrupt_random");
        assert_eq!(inj.poll(&p, &mut states, 6), 0, "one-shots fire once");
        assert!(FaultSchedule::<ModRank>::exhausted(&inj));
    }

    #[test]
    fn parallel_time_triggers_resolve_against_n() {
        let plan = FaultPlan::new(1).at_parallel_time(2.0, FaultAction::DuplicateLeader);
        let mut inj = FaultInjector::bind(&plan, 10);
        let p = ModRank { n: 10 };
        let mut states = ranked(10);
        assert_eq!(inj.poll(&p, &mut states, 19), 0);
        assert_eq!(inj.poll(&p, &mut states, 20), 1);
    }

    #[test]
    fn repeating_trigger_fires_at_each_period() {
        let plan = FaultPlan::new(1)
            .every_interactions(10, FaultAction::CorruptRandom(FaultSize::Exact(1)));
        let mut inj = FaultInjector::bind(&plan, 8);
        let p = ModRank { n: 8 };
        let mut states = ranked(8);
        assert_eq!(inj.poll(&p, &mut states, 9), 0);
        assert_eq!(inj.poll(&p, &mut states, 10), 1);
        assert_eq!(inj.poll(&p, &mut states, 15), 0);
        // A large jump fires every missed period.
        assert_eq!(inj.poll(&p, &mut states, 40), 3);
        assert_eq!(FaultSchedule::<ModRank>::fired_count(&inj), 4);
        assert!(!FaultSchedule::<ModRank>::exhausted(&inj), "repeating plans never exhaust");
    }

    #[test]
    fn after_convergence_stays_dormant_until_notified() {
        let plan =
            FaultPlan::new(1).after_convergence(7, FaultAction::CorruptRandom(FaultSize::Exact(1)));
        let mut inj = FaultInjector::bind(&plan, 8);
        let p = ModRank { n: 8 };
        let mut states = ranked(8);
        assert_eq!(inj.poll(&p, &mut states, 1_000_000), 0, "dormant until convergence");
        assert!(!FaultSchedule::<ModRank>::exhausted(&inj));
        FaultSchedule::<ModRank>::notify_converged(&mut inj, 100);
        assert_eq!(inj.poll(&p, &mut states, 106), 0);
        assert_eq!(inj.poll(&p, &mut states, 107), 1);
        assert!(FaultSchedule::<ModRank>::exhausted(&inj));
        // Later convergences must not re-arm anything.
        FaultSchedule::<ModRank>::notify_converged(&mut inj, 200);
        assert_eq!(inj.poll(&p, &mut states, 1_000_000), 0);
    }

    #[test]
    fn duplicate_leader_clones_rank_one() {
        let plan = FaultPlan::new(3).at_interaction(0, FaultAction::DuplicateLeader);
        let p = ModRank { n: 6 };
        let mut states = ranked(6);
        let mut inj = FaultInjector::bind(&plan, 6);
        assert_eq!(inj.poll(&p, &mut states, 0), 1);
        assert_eq!(states.iter().filter(|&&s| s == 0).count(), 2, "two agents now output rank 1");
    }

    #[test]
    fn collide_clones_one_victim_onto_k_others() {
        let plan = FaultPlan::new(3).at_interaction(0, FaultAction::Collide(FaultSize::Exact(3)));
        let p = ModRank { n: 8 };
        let mut states = ranked(8);
        let mut inj = FaultInjector::bind(&plan, 8);
        assert_eq!(inj.poll(&p, &mut states, 0), 3);
        let mut counts = [0usize; 8];
        for &s in &states {
            counts[s] += 1;
        }
        assert_eq!(counts.iter().max(), Some(&4), "victim's state held by itself + 3 clones");
    }

    #[test]
    fn randomize_touches_every_agent() {
        let plan = FaultPlan::new(3).at_interaction(0, FaultAction::Randomize);
        let p = ModRank { n: 16 };
        let mut states = ranked(16);
        let mut inj = FaultInjector::bind(&plan, 16);
        assert_eq!(inj.poll(&p, &mut states, 0), 16);
    }

    #[test]
    fn distinct_agents_are_distinct_and_in_range() {
        let mut rng = rng_from_seed(5);
        for _ in 0..20 {
            let picked = distinct_agents(10, 4, &mut rng);
            assert_eq!(picked.len(), 4);
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicates in {picked:?}");
            assert!(picked.iter().all(|&a| a < 10));
        }
    }

    /// Satellite of the dynamics subsystem: churn makes a shrinking `n`
    /// reachable mid-plan, so oversized fault sizes must clamp at fire
    /// time, never panic.
    #[test]
    fn fault_size_resolves_oversized_requests() {
        assert_eq!(FaultSize::Exact(10).resolve(4), 4);
        assert_eq!(FaultSize::Exact(0).resolve(4), 1);
        assert_eq!(FaultSize::Exact(usize::MAX).resolve(1), 1);
        assert_eq!(FaultSize::All.resolve(3), 3);
        assert_eq!(FaultSize::Sqrt.resolve(1), 1);
        assert_eq!(FaultSize::Fraction(2.0).resolve(5), 5);
        assert_eq!(FaultSize::Fraction(0.0).resolve(5), 1);
    }

    /// A plan written for a larger population must fire (clamped) against a
    /// smaller live one — the fire-time resolution the doc promises.
    #[test]
    fn oversized_fault_clamps_against_live_population() {
        let plan =
            FaultPlan::new(9).at_interaction(0, FaultAction::CorruptRandom(FaultSize::Exact(100)));
        let p = ModRank { n: 6 };
        let mut states = ranked(6);
        let mut inj = FaultInjector::bind(&plan, 6);
        assert_eq!(inj.poll(&p, &mut states, 0), 6);
    }

    #[test]
    fn injection_is_deterministic_in_plan_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .at_interaction(50, FaultAction::CorruptRandom(FaultSize::Exact(3)));
            let mut sim =
                Simulation::new(ModRank { n: 16 }, vec![0usize; 16], 42).with_fault_plan(&plan);
            sim.run(500);
            sim.into_states()
        };
        assert_eq!(run(9), run(9), "same (protocol, plan, seed) must replay bit-identically");
        assert_ne!(run(9), run(10), "the plan seed must actually steer the corruption");
    }

    #[test]
    fn empty_plan_matches_unfaulted_execution() {
        let mut plain = Simulation::new(ModRank { n: 12 }, vec![0usize; 12], 7);
        let mut chaotic = Simulation::new(ModRank { n: 12 }, vec![0usize; 12], 7)
            .with_fault_plan(&FaultPlan::none());
        let a = plain.run_until_stably_ranked(1_000_000, 8);
        let b = chaotic.run_until_stably_ranked(1_000_000, 8);
        assert_eq!(a, b);
        assert_eq!(plain.states(), chaotic.states());
    }

    #[test]
    fn run_chaos_measures_recovery_after_convergence() {
        let plan = FaultPlan::new(11)
            .after_convergence(5, FaultAction::CorruptRandom(FaultSize::Exact(2)));
        let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 3).with_fault_plan(&plan);
        let report = sim.run_chaos(10_000_000);
        assert!(report.first_ranked.is_some(), "must stabilize from all-zero");
        assert_eq!(report.faults.len(), 1);
        assert!(report.fully_recovered(), "{report:?}");
        let fault = &report.faults[0];
        assert_eq!(fault.action, "corrupt_random");
        assert_eq!(fault.agents, 2);
        assert!(fault.at >= report.first_ranked.unwrap() + 5);
        assert!(fault.recovered_at.unwrap() >= fault.at);
        assert!(report.availability() > 0.0 && report.availability() <= 1.0);
        assert!(report.ranked_availability() <= report.availability() + 1e-12);
        assert_eq!(
            report.mean_recovery_interactions(),
            Some(fault.recovery_interactions().unwrap() as f64)
        );
    }

    #[test]
    fn run_chaos_is_deterministic() {
        let run = || {
            let plan = FaultPlan::new(4)
                .after_convergence(3, FaultAction::Collide(FaultSize::Exact(2)))
                .every_interactions(400, FaultAction::DuplicateLeader);
            let mut sim =
                Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 21).with_fault_plan(&plan);
            sim.run_chaos(5_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn soak_plan_exhausts_the_budget() {
        let plan = FaultPlan::new(2)
            .every_interactions(100, FaultAction::CorruptRandom(FaultSize::Exact(1)));
        let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 5).with_fault_plan(&plan);
        let report = sim.run_chaos(2_000);
        assert_eq!(report.interactions, 2_000, "repeating plans run to the budget");
        assert!(report.faults.len() >= 15, "expected ~19 faults, got {}", report.faults.len());
        assert!(report.observed_steps > 0);
    }

    #[test]
    fn metered_chaos_runs_credit_transition_time() {
        use crate::metrics::{Metrics, Section};
        let plan = FaultPlan::new(2)
            .every_interactions(1_000, FaultAction::CorruptRandom(FaultSize::Exact(1)));
        let mut chaos = Metrics::new();
        let mut sim = Simulation::new(ModRank { n: 16 }, vec![0usize; 16], 5)
            .with_fault_plan(&plan)
            .with_metrics(&mut chaos);
        assert_eq!(sim.run_chaos(100_000).interactions, 100_000);
        let mut plain = Metrics::new();
        Simulation::new(ModRank { n: 16 }, vec![0usize; 16], 5)
            .with_metrics(&mut plain)
            .run_until(100_000, |_| false);
        for (run, m) in [("run_chaos", &chaos), ("run_until", &plain)] {
            assert_eq!(m.interactions.get(), 100_000, "{run}");
            assert!(m.section_nanos[Section::Transition.index()] > 0, "{run}: {m:?}");
        }
    }

    #[test]
    fn chaos_runner_is_reproducible_and_parallel_matches_sequential() {
        assert_worker_count_invariant(TrialKind::Chaos, Backend::Agents);
    }

    #[test]
    fn chaos_records_round_trip_schema() {
        let plan =
            FaultPlan::new(8).after_convergence(4, FaultAction::PartialReset(FaultSize::Exact(2)));
        let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 13).with_fault_plan(&plan);
        let outcomes = [ChaosTrialOutcome::measure(0, &mut sim, 1_000_000)];
        let trial = outcomes[0].trial_record("chaos-test", "modrank", None, 13);
        assert!(trial.outcome.is_converged());
        assert_eq!(trial.faults, Some(1));
        assert!(trial.availability.unwrap() > 0.0);
        let parsed = RunRecord::from_json(&trial.to_json()).unwrap();
        assert_eq!(parsed, trial);
        let faults = outcomes[0].fault_records("chaos-test", "modrank", None, 13);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].action, "partial_reset");
        assert_eq!(faults[0].agents, 2);
        assert!(faults[0].recovered_at.is_some());
        let parsed = FaultRecord::from_json(&faults[0].to_json()).unwrap();
        assert_eq!(parsed, faults[0]);
    }
}
