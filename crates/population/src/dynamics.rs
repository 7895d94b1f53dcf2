//! Dynamic populations: membership churn and Byzantine agents.
//!
//! The fixed-`n` simulator assumes the population named at construction is
//! the population forever. Self-stabilization is exactly the property that
//! justifies relaxing that: the paper's protocols recover from *any*
//! reachable configuration, so agents joining, leaving, or misbehaving
//! mid-run are the natural stress test. This module turns both backends
//! into dynamic-population simulators:
//!
//! * a [`ChurnPlan`] schedules membership events — rate-based replacement
//!   churn and scheduled [`ChurnAction::Join`]/[`ChurnAction::Leave`]
//!   events — against **parallel time**, so the same plan means the same
//!   thing at every `n`;
//! * a [`ByzantineSet`] pins a fraction `t` of agents to an adversarial
//!   transition function: after every interaction a Byzantine participant
//!   discards the protocol's update and overwrites its own state with an
//!   arbitrary one ([`Corruptor::random_state`]);
//! * [`Simulation::run_dynamics`] and [`BatchSimulation::run_dynamics`]
//!   drive an execution under both, measuring recovery with the same
//!   [`RecoveryTracker`](crate::fault::RecoveryTracker) clock the chaos
//!   harness uses — each membership event is a fault with labels
//!   `"join"` / `"leave"` / `"replace"`.
//!
//! # RNG neutrality
//!
//! Churn and Byzantine randomness (victim choice, boot states, adversarial
//! overwrites) come from two private RNGs seeded by [`ChurnPlan::seed`] and
//! [`ByzantineSet::seed`]; the simulation RNG is never touched. With an
//! empty plan and `t = 0`, `run_dynamics` performs bit-identically the same
//! interaction sequence as [`Simulation::run_chaos`] — property-tested in
//! this module for both backends.
//!
//! # Semantics under a changing `n`
//!
//! Ranking protocols provably need the exact population size (Theorem 2.1),
//! so the protocol stays configured for its initial size `n₀` while the
//! live population drifts. A configuration counts as *ranked* only when the
//! live size is back to `n₀` **and** the rank multiset is correct; leader
//! availability (exactly one rank-1 agent) stays meaningful at any size.
//! Parallel time is accumulated piecewise as `1/n_live` per interaction.
//! Joining agents boot in adversarial states — in the self-stabilizing
//! model the adversary picks what a fresh agent's memory holds.

use std::hash::Hash;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::counts::BatchSimulation;
use crate::driver::DynamicBackend;
use crate::driver::SteppedDriver;
use crate::fault::{distinct_agents, ChaosReport, Corruptor, FaultSchedule};
use crate::graph::InteractionGraph;
use crate::metrics::MetricsSink;
use crate::observer::Observer;
use crate::record::{ChurnRecord, FaultRecord};
use crate::runner::rng_from_seed;
use crate::scheduler::Scheduler;
use crate::simulation::Simulation;
use crate::tracker::RankTracker;

/// What a membership event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// `k` fresh agents join, each booting in an adversarial state.
    Join(usize),
    /// `k` random agents leave (clamped so the population never drops below
    /// [`ChurnPlan::min_n`]).
    Leave(usize),
    /// `k` random agents are replaced in place — a departure plus a fresh
    /// adversarial join, so the population size is unchanged. This is the
    /// sustained-churn model: turnover without drift.
    Replace(usize),
}

impl ChurnAction {
    /// Stable snake_case name for records and reports (the fault-class
    /// label membership events carry in `"fault"` lines).
    pub fn label(&self) -> &'static str {
        match self {
            ChurnAction::Join(_) => "join",
            ChurnAction::Leave(_) => "leave",
            ChurnAction::Replace(_) => "replace",
        }
    }

    /// The number of agents the event asks to touch (before clamping).
    pub fn agents(&self) -> usize {
        match *self {
            ChurnAction::Join(k) | ChurnAction::Leave(k) | ChurnAction::Replace(k) => k,
        }
    }
}

/// When a [`ChurnEvent`] fires. Triggers are measured in **parallel time**
/// (interactions / live population size, accumulated piecewise), so a plan
/// is meaningful at every population size without rebinding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnTrigger {
    /// Once, at this parallel time.
    AtParallelTime(f64),
    /// Repeatedly, every `period` units of parallel time (first at
    /// `period`).
    EveryParallelTime {
        /// Interval between firings, in parallel time units (must be
        /// positive and finite).
        period: f64,
    },
}

/// One scheduled membership event: a trigger and an action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// When it fires.
    pub trigger: ChurnTrigger,
    /// What it does.
    pub action: ChurnAction,
}

/// A declarative membership-churn schedule, independent of any particular
/// execution.
///
/// All churn randomness (which agents leave, what states joiners boot in)
/// derives from [`ChurnPlan::seed`], never from the simulation RNG — an
/// execution under the empty plan is bit-identical to an undisturbed one.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<ChurnEvent>,
    /// Seed for the private churn RNG.
    pub seed: u64,
    /// Leaves are clamped so the live population never drops below this
    /// (floored at 2 — a population needs an interaction pair).
    pub min_n: usize,
    /// Joins are clamped so the live population never exceeds this, if set.
    pub max_n: Option<usize>,
}

impl ChurnPlan {
    /// The empty plan: no membership ever changes.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// An empty plan with churn randomness seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        ChurnPlan { events: Vec::new(), seed, min_n: 2, max_n: None }
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event with an explicit trigger.
    pub fn with_event(mut self, trigger: ChurnTrigger, action: ChurnAction) -> Self {
        self.events.push(ChurnEvent { trigger, action });
        self
    }

    /// Schedules `k` agents to join once at parallel time `t`.
    pub fn join_at(self, t: f64, k: usize) -> Self {
        self.with_event(ChurnTrigger::AtParallelTime(t), ChurnAction::Join(k))
    }

    /// Schedules `k` agents to leave once at parallel time `t`.
    pub fn leave_at(self, t: f64, k: usize) -> Self {
        self.with_event(ChurnTrigger::AtParallelTime(t), ChurnAction::Leave(k))
    }

    /// Schedules `k` agents to be replaced once at parallel time `t`.
    pub fn replace_at(self, t: f64, k: usize) -> Self {
        self.with_event(ChurnTrigger::AtParallelTime(t), ChurnAction::Replace(k))
    }

    /// Sustained replacement churn at `rate` replacements per unit of
    /// parallel time: one agent is replaced every `1/rate` units (first at
    /// `1/rate`). A rate of 0 adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn rate(self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "churn rate {rate} must be finite and ≥ 0");
        if rate == 0.0 {
            return self;
        }
        self.with_event(
            ChurnTrigger::EveryParallelTime { period: 1.0 / rate },
            ChurnAction::Replace(1),
        )
    }

    /// Sets the population bounds leaves and joins are clamped against.
    pub fn with_bounds(mut self, min_n: usize, max_n: Option<usize>) -> Self {
        self.min_n = min_n;
        self.max_n = max_n;
        self
    }

    /// Parses a CLI churn spec into a plan.
    ///
    /// The spec is a comma-separated list of tokens:
    ///
    /// * a bare number is a sustained **replacement rate** per unit of
    ///   parallel time (`"2.0"` = one replacement every 0.5 units; `"0"`
    ///   adds nothing);
    /// * `join:<k>@<t>`, `leave:<k>@<t>`, `replace:<k>@<t>` schedule one
    ///   event of `k` agents at parallel time `t`.
    ///
    /// `"none"` and the empty string parse to the empty plan.
    pub fn parse(spec: &str, seed: u64) -> Result<ChurnPlan, String> {
        let mut plan = ChurnPlan::new(seed);
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for token in spec.split(',') {
            let token = token.trim();
            if let Ok(rate) = token.parse::<f64>() {
                if !rate.is_finite() || rate < 0.0 {
                    return Err(format!("churn rate {token:?} must be finite and ≥ 0"));
                }
                plan = plan.rate(rate);
                continue;
            }
            let (kind, rest) = token.split_once(':').ok_or_else(|| {
                format!("bad churn token {token:?} (expected a rate or kind:<k>@<t>)")
            })?;
            let (k, t) = rest
                .split_once('@')
                .ok_or_else(|| format!("bad churn token {token:?} (expected kind:<k>@<t>)"))?;
            let k: usize = k
                .trim()
                .parse()
                .map_err(|e| format!("bad agent count in churn token {token:?}: {e}"))?;
            if k == 0 {
                return Err(format!("churn token {token:?} touches zero agents"));
            }
            let t: f64 = t
                .trim()
                .parse()
                .map_err(|e| format!("bad parallel time in churn token {token:?}: {e}"))?;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("parallel time in churn token {token:?} must be ≥ 0"));
            }
            plan = match kind.trim() {
                "join" => plan.join_at(t, k),
                "leave" => plan.leave_at(t, k),
                "replace" => plan.replace_at(t, k),
                other => return Err(format!("unknown churn event kind {other:?}")),
            };
        }
        Ok(plan)
    }
}

/// A Byzantine adversary pinning a fraction `t` of agents to an adversarial
/// transition function.
///
/// On the agent-array backend membership is literal: `⌊t·n⌋` agents are
/// marked at the start (and joiners are marked with probability `t`), and
/// after every interaction each marked participant discards the protocol's
/// update, overwriting its state via [`Corruptor::random_state`]. The
/// count-based backend has no agent identities, so it runs the lumped
/// stand-in instead: every unit of parallel time, `⌊t·n⌋` uniformly random
/// agents are overwritten — the same expected corruption volume without
/// pinned identities. Grid results label the backend for this reason.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineSet {
    /// Fraction of agents under adversarial control, in `[0, 1)`.
    pub fraction: f64,
    /// Seed for the private adversary RNG (membership draws and state
    /// overwrites).
    pub seed: u64,
}

impl ByzantineSet {
    /// No Byzantine agents.
    pub fn none() -> Self {
        ByzantineSet { fraction: 0.0, seed: 0 }
    }

    /// An adversary controlling fraction `t` of the population.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `[0, 1)` — a fully Byzantine population has
    /// nothing left to stabilize.
    pub fn new(fraction: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "byzantine fraction {fraction} must lie in [0, 1)");
        ByzantineSet { fraction, seed }
    }

    /// Whether the adversary controls nobody.
    pub fn is_empty(&self) -> bool {
        self.fraction == 0.0
    }

    /// Parses a CLI fraction spec (a bare number in `[0, 1)`).
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let fraction: f64 =
            spec.trim().parse().map_err(|e| format!("bad byzantine fraction {spec:?}: {e}"))?;
        if !fraction.is_finite() || !(0.0..1.0).contains(&fraction) {
            return Err(format!("byzantine fraction {spec:?} must lie in [0, 1)"));
        }
        Ok(ByzantineSet { fraction, seed })
    }
}

/// A [`ChurnPlan`] armed for one execution: due times resolved against the
/// piecewise parallel-time clock. Timing only — the driver owns the churn
/// RNG and applies the actions.
#[derive(Debug, Clone)]
pub(crate) struct ChurnInjector {
    /// One-shot events sorted by due time; `next_oneshot` indexes the first
    /// unconsumed one.
    oneshot: Vec<(f64, ChurnAction)>,
    next_oneshot: usize,
    /// Repeating events as `(next_due, period, action)`.
    repeating: Vec<(f64, f64, ChurnAction)>,
}

impl ChurnInjector {
    pub(crate) fn bind(plan: &ChurnPlan) -> Self {
        let mut oneshot = Vec::new();
        let mut repeating = Vec::new();
        for event in &plan.events {
            match event.trigger {
                ChurnTrigger::AtParallelTime(t) => {
                    assert!(
                        t.is_finite() && t >= 0.0,
                        "churn time {t} must be finite and non-negative"
                    );
                    oneshot.push((t, event.action));
                }
                ChurnTrigger::EveryParallelTime { period } => {
                    assert!(
                        period.is_finite() && period > 0.0,
                        "churn period {period} must be finite and positive"
                    );
                    repeating.push((period, period, event.action));
                }
            }
        }
        oneshot.sort_by(|a, b| a.0.total_cmp(&b.0));
        ChurnInjector { oneshot, next_oneshot: 0, repeating }
    }

    /// The earliest parallel time at which [`ChurnInjector::poll`] could
    /// return anything (`f64::INFINITY` when nothing is armed).
    pub(crate) fn next_due(&self) -> f64 {
        let mut due = self.oneshot.get(self.next_oneshot).map_or(f64::INFINITY, |&(t, _)| t);
        for &(d, _, _) in &self.repeating {
            due = due.min(d);
        }
        due
    }

    /// Whether no event can ever fire again.
    pub(crate) fn exhausted(&self) -> bool {
        self.next_oneshot >= self.oneshot.len() && self.repeating.is_empty()
    }

    /// Every action due at parallel time `pt`, in firing order.
    pub(crate) fn poll(&mut self, pt: f64) -> Vec<ChurnAction> {
        let mut due = Vec::new();
        while let Some(&(t, action)) = self.oneshot.get(self.next_oneshot) {
            if t > pt {
                break;
            }
            self.next_oneshot += 1;
            due.push(action);
        }
        for (next, period, action) in self.repeating.iter_mut() {
            while *next <= pt {
                *next += *period;
                due.push(*action);
            }
        }
        due
    }
}

/// What one dynamic-population run measured: the chaos-harness recovery
/// report plus the membership and adversary tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsReport {
    /// Recovery and availability statistics, with membership events logged
    /// as faults (labels `"join"` / `"leave"` / `"replace"`). The report's
    /// `n` is the *configured* size `n₀`; parallel-time conversions in it
    /// are relative to `n₀`.
    pub chaos: ChaosReport,
    /// Agents that joined (grew the population).
    pub joins: u64,
    /// Agents that left (shrank the population).
    pub leaves: u64,
    /// Agents replaced in place.
    pub replacements: u64,
    /// Byzantine state overwrites applied.
    pub byz_strikes: u64,
    /// Live population size when the run ended.
    pub final_n: usize,
    /// Parallel time executed, accumulated piecewise as `1/n_live` per
    /// interaction (exact under a varying population).
    pub parallel_time: f64,
}

impl<P, O, F, M> Simulation<P, O, F, Scheduler, M>
where
    P: Corruptor,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    /// Runs under the attached fault schedule **plus** membership churn and
    /// a Byzantine adversary, measuring recovery and availability like
    /// [`Simulation::run_chaos`].
    ///
    /// Ends when the configuration is correctly ranked at the configured
    /// size with every fault and one-shot churn event consumed and
    /// recovered from — or at the interaction budget. Sustained churn or a
    /// non-empty Byzantine set never exhausts, so those runs use the whole
    /// budget (soak semantics) and the availability fractions are the
    /// product.
    ///
    /// With an empty plan and an empty Byzantine set this performs the
    /// bit-identical interaction sequence of [`Simulation::run_chaos`]: it
    /// runs the same goal in the same loop, pausing the loop at each
    /// interaction that brings a membership event due to apply it.
    ///
    /// # Panics
    ///
    /// Panics if the simulation is not on the complete interaction graph
    /// (membership changes re-derive the scheduler, which is only defined
    /// there) or if the population does not match the protocol's configured
    /// size.
    pub fn run_dynamics(
        &mut self,
        churn: &ChurnPlan,
        byzantine: &ByzantineSet,
        max_interactions: u64,
    ) -> DynamicsReport {
        let n0 = self.protocol.population_size();
        assert!(
            matches!(self.scheduler.graph(), InteractionGraph::Complete),
            "dynamic populations are only defined on the complete interaction graph"
        );
        let min_n = churn.min_n.max(2);
        let mut churn_rng = rng_from_seed(churn.seed);
        let mut injector = ChurnInjector::bind(churn);
        let (mut joins, mut leaves, mut replacements) = (0u64, 0u64, 0u64);
        let mut pt = self.interactions as f64 / n0 as f64;
        let mut goal = self.recovery_goal();
        goal.byzantine = (!byzantine.is_empty()).then(|| Pinned::draw(byzantine, n0));
        let outcome = loop {
            goal.quiet = injector.exhausted() && goal.byzantine.is_none();
            // Parallel time advances by 1/n_live per interaction, summed one
            // interaction at a time: a k/n product rounds differently and
            // would move the churn clocks.
            let per_step = 1.0 / self.states.len() as f64;
            let due = injector.next_due();
            let start = self.interactions;
            let mut until = max_interactions.max(start);
            if due.is_finite() {
                // Stop at the interaction that reaches the next event.
                until = start;
                while until < max_interactions {
                    until += 1;
                    pt += per_step;
                    if pt >= due {
                        break;
                    }
                }
            }
            let churn_due = until > start && pt >= due;
            goal.hold = if churn_due { until } else { u64::MAX };
            let outcome = self.drive::<_, false>(&mut goal, until, None);
            if !due.is_finite() {
                for _ in start..self.interactions {
                    pt += per_step;
                }
            }
            if !churn_due {
                break outcome;
            }
            // Faults fired on this clock are booked before its membership
            // events.
            goal.books.drain_fired(self.faults.log(), &mut goal.seen);
            let len_before = self.states.len();
            for action in injector.poll(pt) {
                let (states, byz) = (&mut self.states, &mut goal.byzantine);
                let applied = match action {
                    ChurnAction::Join(k) => {
                        let room =
                            churn.max_n.map_or(usize::MAX, |m| m.saturating_sub(states.len()));
                        let k = k.min(room);
                        for _ in 0..k {
                            states.push(self.protocol.random_state(&mut churn_rng));
                            if let Some(byz) = byz {
                                let member = byz.recruit();
                                byz.members.push(member);
                            }
                        }
                        joins += k as u64;
                        k
                    }
                    ChurnAction::Leave(k) => {
                        let k = k.min(states.len().saturating_sub(min_n));
                        for _ in 0..k {
                            let victim = churn_rng.gen_range(0..states.len());
                            states.swap_remove(victim);
                            if let Some(byz) = byz {
                                byz.members.swap_remove(victim);
                            }
                        }
                        leaves += k as u64;
                        k
                    }
                    ChurnAction::Replace(k) => {
                        let k = k.min(states.len());
                        for _ in 0..k {
                            let victim = churn_rng.gen_range(0..states.len());
                            states[victim] = self.protocol.random_state(&mut churn_rng);
                            if let Some(byz) = byz {
                                byz.members[victim] = byz.recruit();
                            }
                        }
                        replacements += k as u64;
                        k
                    }
                };
                if applied > 0 {
                    goal.books.on_fault(action.label(), applied, self.interactions);
                }
            }
            if self.states.len() != len_before {
                self.scheduler = Scheduler::new(self.states.len(), InteractionGraph::Complete);
            }
            goal.tracker = RankTracker::of_states(&self.protocol, &self.states);
            goal.changed = true;
        };
        self.conclude(outcome);
        DynamicsReport {
            final_n: self.states.len(),
            byz_strikes: goal.byzantine.as_ref().map_or(0, |byz| byz.strikes),
            chaos: goal.finish(self.interactions),
            joins,
            leaves,
            replacements,
            parallel_time: pt,
        }
    }
}

/// Pinned Byzantine agents on the agent array (see [`ByzantineSet`]):
/// which agents the adversary controls, its private RNG, and the
/// overwrites it has made.
pub(crate) struct Pinned {
    members: Vec<bool>,
    rng: SmallRng,
    fraction: f64,
    strikes: u64,
}

impl Pinned {
    /// Marks `⌊t·n⌋` of `n` agents as Byzantine.
    fn draw(set: &ByzantineSet, n: usize) -> Self {
        let mut rng = rng_from_seed(set.seed);
        let mut members = vec![false; n];
        for idx in distinct_agents(n, (set.fraction * n as f64).floor() as usize, &mut rng) {
            members[idx] = true;
        }
        Pinned { members, rng, fraction: set.fraction, strikes: 0 }
    }

    /// Whether a fresh agent falls to the adversary (probability `t`).
    fn recruit(&mut self) -> bool {
        self.rng.gen_bool(self.fraction)
    }

    /// Byzantine participants of the interaction `(i, j)` discard the
    /// protocol's update and overwrite their own states adversarially.
    #[inline(always)]
    pub(crate) fn strike<P: Corruptor>(
        &mut self,
        protocol: &P,
        states: &mut [P::State],
        i: usize,
        j: usize,
    ) {
        for a in [i, j] {
            if self.members[a] {
                states[a] = protocol.random_state(&mut self.rng);
                self.strikes += 1;
            }
        }
    }
}

impl<P, O, F, M> BatchSimulation<P, O, F, M>
where
    P: Corruptor,
    P::State: Eq + Hash,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    /// Overwrites the agent at zero-based position `r` with an adversarial
    /// state drawn from `rng` via [`Corruptor::random_state`], returning
    /// the displaced state. Safe only between batches.
    ///
    /// # Panics
    ///
    /// Panics if `r >= population()`.
    pub fn corrupt_agent_at(&mut self, r: u64, rng: &mut SmallRng) -> P::State {
        let state = self.protocol().random_state(rng);
        self.replace_agent_at(r, state)
    }

    /// Joins `k` fresh agents, each booting in an adversarial state drawn
    /// from `rng` (the self-stabilizing model: the adversary picks what a
    /// fresh agent's memory holds). Safe only between batches.
    pub fn join_adversarial_agents(&mut self, k: u64, rng: &mut SmallRng) {
        for _ in 0..k {
            let state = self.protocol().random_state(rng);
            self.add_agents(state, 1);
        }
    }

    /// Count-backend counterpart of [`Simulation::run_dynamics`]: advances
    /// whole collision-free batches capped at the next due churn or
    /// Byzantine strike (converted from parallel time against the live
    /// size), resolving ranked / unique-leader status at batch boundaries
    /// like [`BatchSimulation::run_chaos`].
    ///
    /// Counts are anonymous, so Byzantine membership cannot be pinned;
    /// this backend runs the lumped stand-in (see [`ByzantineSet`]):
    /// every unit of parallel time, `⌊t·n⌋` uniformly random agents are
    /// overwritten adversarially.
    ///
    /// With an empty plan and an empty Byzantine set this is
    /// [`BatchSimulation::run_chaos`].
    ///
    /// This is the [`SteppedDriver`] loop run to completion — the daemon in
    /// `crates/serve` drives the same driver one slice at a time.
    pub fn run_dynamics(
        &mut self,
        churn: &ChurnPlan,
        byzantine: &ByzantineSet,
        max_interactions: u64,
    ) -> DynamicsReport {
        let driver = SteppedDriver::bind(self, churn, byzantine);
        driver.run(self, max_interactions)
    }
}

/// One completed dynamics trial: index, configured population size, full
/// report, and wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsTrialOutcome {
    /// Trial index within the experiment.
    pub trial: u64,
    /// Population size the protocol was configured for.
    pub n: usize,
    /// Everything the run measured.
    pub report: DynamicsReport,
    /// Wall-clock time the execution took.
    pub wall: Duration,
}

impl DynamicsTrialOutcome {
    /// Runs `sim` under its attached fault plan plus `churn` and
    /// `byzantine` for at most `max_interactions` (see
    /// [`Simulation::run_dynamics`]), timing the run as trial `trial`. The
    /// same trial body serves both backends.
    pub fn measure<P, B>(
        trial: u64,
        sim: &mut B,
        churn: &ChurnPlan,
        byzantine: &ByzantineSet,
        max_interactions: u64,
    ) -> Self
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        let n = sim.population_size();
        let started = Instant::now();
        let report = sim.run_dynamics(churn, byzantine, max_interactions);
        DynamicsTrialOutcome { trial, n, report, wall: started.elapsed() }
    }

    /// The trial-level churn record (`kind = "churn"`, schema v6).
    #[allow(clippy::too_many_arguments)]
    pub fn churn_record(
        &self,
        experiment: &str,
        protocol: &str,
        backend: &str,
        h: Option<u64>,
        base_seed: u64,
        churn_spec: &str,
        byzantine: f64,
    ) -> ChurnRecord {
        let chaos = &self.report.chaos;
        ChurnRecord {
            experiment: experiment.to_string(),
            protocol: protocol.to_string(),
            backend: backend.to_string(),
            n: self.n as u64,
            final_n: self.report.final_n as u64,
            h,
            trial: self.trial,
            seed: base_seed,
            churn: if churn_spec.trim().is_empty() { "none" } else { churn_spec.trim() }
                .to_string(),
            byzantine,
            joins: self.report.joins,
            leaves: self.report.leaves,
            replacements: self.report.replacements,
            byz_strikes: self.report.byz_strikes,
            faults: chaos.faults.len() as u64,
            availability: chaos.availability(),
            ranked_availability: chaos.ranked_availability(),
            recovered: chaos.recovered() as u64,
            mean_recovery_pt: chaos.mean_recovery_parallel_time(),
            first_ranked_pt: chaos.first_ranked_parallel_time(),
            interactions: chaos.interactions,
            parallel_time: self.report.parallel_time,
            wall_s: self.wall.as_secs_f64(),
        }
    }

    /// One `kind = "fault"` record per fired fault — membership events
    /// included, under their `"join"` / `"leave"` / `"replace"` labels.
    pub fn fault_records(
        &self,
        experiment: &str,
        protocol: &str,
        h: Option<u64>,
        base_seed: u64,
    ) -> Vec<FaultRecord> {
        self.report.chaos.fault_records(experiment, protocol, self.n, h, self.trial, base_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan, FaultSize};
    use crate::test_support::{assert_worker_count_invariant, Backend, ModRank, TrialKind};

    const N: usize = 16;
    const BUDGET: u64 = 400_000;

    fn all_zero(n: usize) -> Vec<usize> {
        vec![0; n]
    }

    #[test]
    fn churn_plan_parses_specs() {
        let plan = ChurnPlan::parse("2.0", 7).unwrap();
        assert_eq!(plan.events.len(), 1);
        assert_eq!(plan.events[0].trigger, ChurnTrigger::EveryParallelTime { period: 0.5 });
        assert_eq!(plan.events[0].action, ChurnAction::Replace(1));

        let plan = ChurnPlan::parse("join:4@8, leave:2@16, replace:1@24", 7).unwrap();
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[0].action, ChurnAction::Join(4));
        assert_eq!(plan.events[1].action, ChurnAction::Leave(2));
        assert_eq!(plan.events[2].trigger, ChurnTrigger::AtParallelTime(24.0));

        let plan = ChurnPlan::parse("0.5, join:1@100", 7).unwrap();
        assert_eq!(plan.events.len(), 2);

        assert!(ChurnPlan::parse("none", 0).unwrap().is_empty());
        assert!(ChurnPlan::parse("", 0).unwrap().is_empty());
        assert!(ChurnPlan::parse("0", 0).unwrap().is_empty());

        assert!(ChurnPlan::parse("-1", 0).is_err());
        assert!(ChurnPlan::parse("drop:1@2", 0).is_err());
        assert!(ChurnPlan::parse("join:0@2", 0).is_err());
        assert!(ChurnPlan::parse("join:1", 0).is_err());
        assert!(ChurnPlan::parse("join:1@-3", 0).is_err());
        assert!(ChurnPlan::parse("banana", 0).is_err());
    }

    #[test]
    fn byzantine_set_parses_and_validates() {
        assert_eq!(ByzantineSet::parse("0.25", 3).unwrap().fraction, 0.25);
        assert!(ByzantineSet::parse("0", 0).unwrap().is_empty());
        assert!(ByzantineSet::parse("1.0", 0).is_err());
        assert!(ByzantineSet::parse("-0.1", 0).is_err());
        assert!(ByzantineSet::parse("x", 0).is_err());
    }

    #[test]
    fn churn_injector_fires_in_order_and_repeats() {
        let plan = ChurnPlan::new(0).join_at(2.0, 1).leave_at(1.0, 1).rate(1.0);
        let mut inj = ChurnInjector::bind(&plan);
        assert!(!inj.exhausted());
        assert_eq!(inj.next_due(), 1.0);
        let fired = inj.poll(2.5);
        assert_eq!(
            fired,
            vec![
                ChurnAction::Leave(1),
                ChurnAction::Join(1),
                ChurnAction::Replace(1),
                ChurnAction::Replace(1)
            ]
        );
        // Repeats rearm; one-shots are consumed.
        assert_eq!(inj.next_due(), 3.0);
        assert!(!inj.exhausted());

        let mut oneshots = ChurnInjector::bind(&ChurnPlan::new(0).join_at(1.0, 1));
        oneshots.poll(1.0);
        assert!(oneshots.exhausted());
        assert_eq!(oneshots.next_due(), f64::INFINITY);
    }

    /// The RNG-neutrality acceptance criterion, agents backend: empty plan
    /// and t = 0 replay `run_chaos` bit-identically.
    #[test]
    fn empty_dynamics_replays_chaos_agents() {
        for seed in 0..8u64 {
            let plan = FaultPlan::new(seed)
                .at_parallel_time(5.0, FaultAction::CorruptRandom(FaultSize::Exact(3)));
            let mut chaos =
                Simulation::new(ModRank { n: N }, all_zero(N), seed).with_fault_plan(&plan);
            let chaos_report = chaos.run_chaos(BUDGET);

            let mut dynamics =
                Simulation::new(ModRank { n: N }, all_zero(N), seed).with_fault_plan(&plan);
            let report = dynamics.run_dynamics(&ChurnPlan::none(), &ByzantineSet::none(), BUDGET);

            assert_eq!(report.chaos, chaos_report, "seed {seed}");
            assert_eq!(report.joins + report.leaves + report.replacements, 0);
            assert_eq!(report.byz_strikes, 0);
            assert_eq!(report.final_n, N);
            assert_eq!(dynamics.states(), chaos.states(), "seed {seed}");
            assert_eq!(dynamics.interactions(), chaos.interactions(), "seed {seed}");
        }
    }

    /// Counts chaos runs at fixed seeds, pinned to recorded reports: first
    /// stable ranking, each fault's injection and recovery, and the
    /// availability counters. The values come from a dedicated batch loop,
    /// so the empty-plan [`SteppedDriver`] run that `run_chaos` now is stays
    /// checked against an independent implementation.
    #[test]
    fn counts_chaos_reports_are_pinned() {
        let corrupt = |k| FaultAction::CorruptRandom(FaultSize::Exact(k));
        let run = |seed, plan: FaultPlan, budget| {
            let mut sim =
                BatchSimulation::new(ModRank { n: N }, all_zero(N), seed).with_fault_plan(&plan);
            let r = sim.run_chaos(budget);
            let faults: Vec<(u64, Option<u64>)> =
                r.faults.iter().map(|f| (f.at, f.recovered_at)).collect();
            let counters = [r.interactions, r.leader_steps, r.ranked_steps, r.observed_steps];
            (r.first_ranked, faults, counters)
        };
        // One 3-agent corruption at t = 5 (interaction 80); the run ends at
        // the recovery, which is also the first stable ranking.
        // (seed, first_ranked, leader_steps, ranked_steps)
        for (seed, first, leader, ranked) in
            [(0, 2384, 2198, 2), (1, 1642, 1314, 4), (2, 1796, 1702, 5), (3, 2748, 2448, 4)]
        {
            let plan = FaultPlan::new(seed).at_parallel_time(5.0, corrupt(3));
            let want = (Some(first), vec![(80, Some(first))], [first, leader, ranked, first]);
            assert_eq!(run(seed, plan, BUDGET), want, "one-shot seed {seed}");
        }
        // Soak: 2 agents every 250 time units (4 000 interactions) for
        // 20 000 interactions; the fault at the budget stays open.
        // (seed, first_ranked, first four recoveries, leader_steps,
        // ranked_steps)
        for (seed, first, recovered, leader, ranked) in [
            (0, 1697, [4093, 9332, 13990, 17619], 19178, 13273),
            (1, 2244, [5402, 8338, 12133, 17868], 19637, 14019),
            (2, 2135, [5720, 10450, 12454, 17584], 17827, 11663),
            (3, 1988, [4512, 9465, 12302, 16735], 19415, 15009),
        ] {
            let plan = FaultPlan::new(seed).every_parallel_time(250.0, corrupt(2));
            let mut faults: Vec<(u64, Option<u64>)> =
                (1..=4).zip(recovered).map(|(i, r)| (4_000 * i, Some(r))).collect();
            faults.push((20_000, None));
            let want = (Some(first), faults, [20_000, leader, ranked, 20_000]);
            assert_eq!(run(seed, plan, 20_000), want, "soak seed {seed}");
        }
    }

    #[test]
    fn scheduled_join_and_leave_change_membership_agents() {
        let churn = ChurnPlan::new(11).join_at(3.0, 4).leave_at(40.0, 4);
        let mut sim =
            Simulation::new(ModRank { n: N }, all_zero(N), 5).with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&churn, &ByzantineSet::none(), BUDGET);
        assert_eq!(report.joins, 4);
        assert_eq!(report.leaves, 4);
        assert_eq!(report.final_n, N);
        // Both membership events opened a recovery clock.
        let labels: Vec<&str> = report.chaos.faults.iter().map(|f| f.action).collect();
        assert_eq!(labels, vec!["join", "leave"]);
        // Back at n₀ with one-shot churn: the run should re-stabilize.
        assert!(report.chaos.fully_recovered(), "report: {report:?}");
    }

    #[test]
    fn scheduled_join_and_leave_change_membership_counts() {
        let churn = ChurnPlan::new(11).join_at(3.0, 4).leave_at(40.0, 4);
        let mut sim = BatchSimulation::new(ModRank { n: N }, all_zero(N), 5)
            .with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&churn, &ByzantineSet::none(), BUDGET);
        assert_eq!(report.joins, 4);
        assert_eq!(report.leaves, 4);
        assert_eq!(report.final_n, N);
        assert_eq!(sim.counts().population(), N as u64);
        assert!(report.chaos.fully_recovered(), "report: {report:?}");
    }

    #[test]
    fn leaves_clamp_at_the_population_floor() {
        // Ask to remove far more agents than exist: the event clamps to the
        // floor instead of panicking (mirrors FaultSize::resolve).
        let churn = ChurnPlan::new(3).leave_at(1.0, 10 * N).with_bounds(4, None);
        let mut sim =
            Simulation::new(ModRank { n: N }, all_zero(N), 5).with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&churn, &ByzantineSet::none(), 50_000);
        assert_eq!(report.leaves, (N - 4) as u64);
        assert_eq!(report.final_n, 4);
        // Shrunken population can never be ranked for n₀ again.
        assert_eq!(report.chaos.first_ranked, None);
    }

    #[test]
    fn joins_clamp_at_the_population_ceiling() {
        let churn = ChurnPlan::new(3).join_at(1.0, 100).with_bounds(2, Some(N + 5));
        let mut sim = BatchSimulation::new(ModRank { n: N }, all_zero(N), 5)
            .with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&churn, &ByzantineSet::none(), 50_000);
        assert_eq!(report.joins, 5);
        assert_eq!(report.final_n, N + 5);
    }

    #[test]
    fn replacement_churn_keeps_size_and_opens_recovery_clocks() {
        let churn = ChurnPlan::parse("0.25", 13).unwrap();
        let mut sim =
            Simulation::new(ModRank { n: N }, all_zero(N), 5).with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&churn, &ByzantineSet::none(), 100_000);
        assert_eq!(report.final_n, N);
        assert!(report.replacements > 0);
        assert_eq!(report.replacements, report.chaos.faults.len() as u64);
        // Sustained churn never exhausts: the whole budget is used.
        assert_eq!(report.chaos.interactions, 100_000);
    }

    #[test]
    fn byzantine_agents_strike_and_depress_availability() {
        let byzantine = ByzantineSet::new(0.25, 21);
        let mut sim =
            Simulation::new(ModRank { n: N }, all_zero(N), 5).with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&ChurnPlan::none(), &byzantine, 100_000);
        assert!(report.byz_strikes > 0);
        // A Byzantine run never ends early.
        assert_eq!(report.chaos.interactions, 100_000);
        assert!(report.chaos.ranked_availability() < 1.0, "report: {report:?}");
    }

    #[test]
    fn byzantine_strikes_hit_the_counts_backend() {
        let byzantine = ByzantineSet::new(0.25, 21);
        let mut sim = BatchSimulation::new(ModRank { n: N }, all_zero(N), 5)
            .with_fault_plan(&FaultPlan::none());
        let report = sim.run_dynamics(&ChurnPlan::none(), &byzantine, 100_000);
        // ⌊0.25·16⌋ = 4 strikes per parallel-time unit, budget/n units.
        assert!(report.byz_strikes > 0);
        assert_eq!(report.final_n, N);
        assert_eq!(sim.counts().population(), N as u64);
        assert_eq!(report.chaos.interactions, 100_000);
    }

    #[test]
    fn dynamics_runs_are_deterministic() {
        let churn = ChurnPlan::parse("0.5, join:2@10, leave:2@30", 17).unwrap();
        let byzantine = ByzantineSet::new(0.1, 23);
        let run = || {
            let mut sim = Simulation::new(ModRank { n: N }, all_zero(N), 5)
                .with_fault_plan(&FaultPlan::none());
            let report = sim.run_dynamics(&churn, &byzantine, 60_000);
            (report, sim.states().to_vec())
        };
        assert_eq!(run(), run());

        let run_counts = || {
            let mut sim = BatchSimulation::new(ModRank { n: N }, all_zero(N), 5)
                .with_fault_plan(&FaultPlan::none());
            let report = sim.run_dynamics(&churn, &byzantine, 60_000);
            let counts: Vec<(usize, u64)> = sim.counts().iter().map(|(s, c)| (*s, c)).collect();
            (report, counts)
        };
        assert_eq!(run_counts(), run_counts());
    }

    #[test]
    fn runner_dynamics_trials_match_parallel() {
        assert_worker_count_invariant(TrialKind::Dynamics, Backend::Agents);
        assert_worker_count_invariant(TrialKind::Dynamics, Backend::Counts);
    }

    #[test]
    fn churn_record_reports_the_trial() {
        let mut sim = Simulation::new(ModRank { n: N }, all_zero(N), 42);
        let outcome = &DynamicsTrialOutcome::measure(
            0,
            &mut sim,
            &ChurnPlan::parse("1.0", 7).unwrap(),
            &ByzantineSet::none(),
            60_000,
        );
        let record = outcome.churn_record("dyn", "modrank", "agents", None, 42, "1.0", 0.0);
        assert_eq!(record.n, N as u64);
        assert_eq!(record.final_n, N as u64);
        assert_eq!(record.churn, "1.0");
        assert_eq!(record.replacements, outcome.report.replacements);
        assert_eq!(record.faults, outcome.report.chaos.faults.len() as u64);
        let faults = outcome.fault_records("dyn", "modrank", None, 42);
        assert_eq!(faults.len(), outcome.report.chaos.faults.len());
        assert!(faults.iter().all(|f| f.action == "replace"));
        // The record round-trips through JSONL.
        let json = record.to_json();
        assert_eq!(ChurnRecord::from_json(&json).unwrap(), record);
    }
}
