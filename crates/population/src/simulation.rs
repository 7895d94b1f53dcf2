//! Executions of a protocol under the random scheduler.

use std::time::Instant;

use rand::rngs::SmallRng;

use crate::fault::{FaultSchedule, NoFaults};
use crate::graph::InteractionGraph;
use crate::metrics::{MetricsSink, NoopMetrics, Section, AGENT_FLUSH_EVERY};
use crate::observer::{NoopObserver, Observer};
use crate::protocol::{Protocol, RankingProtocol};
use crate::runner::rng_from_seed;
use crate::scheduler::{Reliability, Scheduler, SchedulerPolicy};
use crate::timeline::{snapshot_states, TimelineObserver};
use crate::tracker::{ConfirmWindow, RankTracker};

/// The result of running a simulation toward a goal with a bounded budget of
/// interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The goal was reached after this many interactions (counted from the
    /// start of the execution, not from the start of the call).
    Converged {
        /// Total interactions at the moment of convergence.
        interactions: u64,
    },
    /// The interaction budget was exhausted before the goal was reached.
    Exhausted {
        /// Total interactions performed.
        interactions: u64,
    },
}

impl RunOutcome {
    /// Whether the goal was reached.
    pub fn is_converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// Total interactions at convergence/exhaustion.
    pub fn interactions(&self) -> u64 {
        match *self {
            RunOutcome::Converged { interactions } | RunOutcome::Exhausted { interactions } => {
                interactions
            }
        }
    }

    /// Interactions divided by `n`: the paper's parallel time.
    pub fn parallel_time(&self, n: usize) -> f64 {
        self.interactions() as f64 / n as f64
    }
}

/// An execution in progress: a protocol, a configuration (one state per
/// agent), a scheduler, and a seeded RNG.
///
/// The RNG drives both the scheduler's pair choices and the protocol's
/// randomized transitions, so a `(protocol, initial configuration, seed)`
/// triple fully determines the execution — trials are reproducible.
///
/// The second type parameter is an [`Observer`] receiving execution events;
/// it defaults to [`NoopObserver`], so `Simulation<P>` is the uninstrumented
/// simulation. Observers never touch the RNG, so attaching one cannot change
/// the execution (see [`Simulation::observe`]).
///
/// The third type parameter is a [`FaultSchedule`] injecting mid-run faults
/// (see [`crate::fault`]); it defaults to [`NoFaults`], whose
/// `ACTIVE = false` gate folds every injection point out of the hot loop, so
/// a simulation without a fault plan compiles to the same code as before the
/// chaos harness existed. Fault schedules draw from their **own** RNG, so a
/// given `(protocol, plan, seed)` triple replays bit-identically.
///
/// The fourth type parameter is the [`SchedulerPolicy`] choosing interaction
/// pairs; it defaults to the paper's uniform [`Scheduler`], so existing code
/// monomorphizes to exactly the pre-policy hot loop. Non-uniform and
/// adversarial policies ([`crate::scheduler::Zipf`],
/// [`crate::scheduler::EpochStarvation`], …) plug in via
/// [`Simulation::with_policy`]; unreliable interactions via
/// [`Simulation::with_reliability`].
///
/// The fifth type parameter is a [`MetricsSink`] receiving **engine**
/// telemetry (interaction counts, RNG draws, per-section wall time); it
/// defaults to [`NoopMetrics`], whose `ENABLED = false` gate folds every
/// instrumentation site out of the hot loop. Sinks flush at batch
/// boundaries ([`AGENT_FLUSH_EVERY`] interactions on this backend) and
/// never touch the RNG, so attaching one cannot change the execution (see
/// [`Simulation::with_metrics`]).
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Simulation<
    P: Protocol,
    O: Observer<P> = NoopObserver,
    F: FaultSchedule<P> = NoFaults,
    S: SchedulerPolicy = Scheduler,
    M: MetricsSink = NoopMetrics,
> {
    pub(crate) protocol: P,
    pub(crate) scheduler: S,
    pub(crate) states: Vec<P::State>,
    pub(crate) rng: SmallRng,
    pub(crate) interactions: u64,
    pub(crate) observer: O,
    pub(crate) faults: F,
    pub(crate) reliability: Reliability,
    pub(crate) metrics: M,
}

impl<P: Protocol> Simulation<P> {
    /// Creates an execution on the complete interaction graph (the paper's
    /// setting) from an explicit initial configuration.
    ///
    /// In the self-stabilizing model the initial configuration is chosen by
    /// an adversary, so it is always supplied explicitly.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64) -> Self {
        Self::with_graph(protocol, initial, InteractionGraph::Complete, seed)
    }

    /// Rebuilds an execution at an exact checkpoint: agent states,
    /// interaction count, and RNG stream position — the snapshot/restore
    /// constructor (see [`crate::snapshot`]). The interaction graph is the
    /// complete graph and plug-ins are reset to the zero-cost defaults;
    /// continuing the restored execution is bit-identical to continuing
    /// the original.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn from_checkpoint(
        protocol: P,
        states: Vec<P::State>,
        interactions: u64,
        rng: SmallRng,
    ) -> Self {
        let scheduler = Scheduler::new(states.len(), InteractionGraph::Complete);
        Simulation {
            protocol,
            scheduler,
            states,
            rng,
            interactions,
            observer: NoopObserver,
            faults: NoFaults,
            reliability: Reliability::perfect(),
            metrics: NoopMetrics,
        }
    }

    /// Creates an execution on an arbitrary interaction graph.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied, or if the graph was
    /// validated for a different population size.
    pub fn with_graph(
        protocol: P,
        initial: Vec<P::State>,
        graph: InteractionGraph,
        seed: u64,
    ) -> Self {
        let scheduler = Scheduler::new(initial.len(), graph);
        Simulation {
            protocol,
            scheduler,
            states: initial,
            rng: rng_from_seed(seed),
            interactions: 0,
            observer: NoopObserver,
            faults: NoFaults,
            reliability: Reliability::perfect(),
            metrics: NoopMetrics,
        }
    }
}

impl<P: Protocol, S: SchedulerPolicy> Simulation<P, NoopObserver, NoFaults, S> {
    /// Creates an execution driven by an explicit [`SchedulerPolicy`] — the
    /// entry point for the non-uniform/adversarial schedulers of
    /// [`crate::scheduler`].
    ///
    /// # Panics
    ///
    /// Panics if the policy was built for a different population size.
    pub fn with_policy(protocol: P, initial: Vec<P::State>, policy: S, seed: u64) -> Self {
        assert_eq!(
            policy.population_size(),
            initial.len(),
            "scheduler policy was built for a different population size"
        );
        Simulation {
            protocol,
            scheduler: policy,
            states: initial,
            rng: rng_from_seed(seed),
            interactions: 0,
            observer: NoopObserver,
            faults: NoFaults,
            reliability: Reliability::perfect(),
            metrics: NoopMetrics,
        }
    }
}

impl<P: Protocol, O: Observer<P>, F: FaultSchedule<P>, S: SchedulerPolicy, M: MetricsSink>
    Simulation<P, O, F, S, M>
{
    /// Attaches an observer, replacing the current one.
    ///
    /// Because observers only *watch* — the simulation's RNG stream and state
    /// transitions never depend on them — the observed execution is
    /// bit-identical to the unobserved one from the same `(protocol, initial
    /// configuration, seed)` triple (with or without a fault schedule
    /// attached). Interaction counts already performed are preserved.
    pub fn observe<O2: Observer<P>>(self, observer: O2) -> Simulation<P, O2, F, S, M> {
        Simulation {
            protocol: self.protocol,
            scheduler: self.scheduler,
            states: self.states,
            rng: self.rng,
            interactions: self.interactions,
            observer,
            faults: self.faults,
            reliability: self.reliability,
            metrics: self.metrics,
        }
    }

    /// Attaches a metrics sink, replacing the current one.
    ///
    /// Sinks only *count* — they never draw from the simulation's RNG — so
    /// the instrumented execution is bit-identical to the uninstrumented one
    /// from the same `(protocol, initial configuration, seed)` triple.
    /// Interaction counts already performed are preserved. Lend a sink with
    /// `with_metrics(&mut sink)` to keep ownership for reading afterwards.
    pub fn with_metrics<M2: MetricsSink>(self, metrics: M2) -> Simulation<P, O, F, S, M2> {
        Simulation {
            protocol: self.protocol,
            scheduler: self.scheduler,
            states: self.states,
            rng: self.rng,
            interactions: self.interactions,
            observer: self.observer,
            faults: self.faults,
            reliability: self.reliability,
            metrics,
        }
    }

    /// The attached metrics sink.
    pub fn metrics(&self) -> &M {
        &self.metrics
    }

    /// Consumes the simulation and returns the metrics sink with whatever it
    /// accumulated.
    pub fn into_metrics(self) -> M {
        self.metrics
    }

    /// Sets the interaction-reliability model (omission probability and/or
    /// one-way application) for all subsequent interactions.
    ///
    /// With the default [`Reliability::perfect`] no extra randomness is
    /// consumed, so attaching it is unobservable; any non-perfect model
    /// changes the execution (that is its purpose).
    pub fn with_reliability(mut self, reliability: Reliability) -> Self {
        self.reliability = reliability;
        self
    }

    /// The interaction-reliability model in effect.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }

    /// The scheduler policy driving pair selection.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably (e.g. to reset its counters).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the simulation and returns the observer with whatever it
    /// accumulated.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The number of agents.
    pub fn population_size(&self) -> usize {
        self.states.len()
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Interactions performed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The simulation RNG's current stream position, for checkpointing
    /// (restore with [`Simulation::from_checkpoint`]).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Overwrites one agent's state in place — **fault injection**.
    ///
    /// This models a transient memory fault hitting a live system (the
    /// scenario self-stabilization exists for): the execution continues from
    /// the corrupted configuration with the same RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn inject_fault(&mut self, agent: usize, state: P::State) {
        assert!(agent < self.states.len(), "agent index {agent} out of range");
        self.states[agent] = state;
    }

    /// Consumes the simulation and returns the final configuration.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }

    /// Parallel time elapsed so far (interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.states.len() as f64
    }

    /// Performs one scheduler-chosen interaction and returns the ordered pair
    /// of agent indices that interacted.
    pub fn step(&mut self) -> (usize, usize) {
        let (i, j) = self.scheduler.sample_at(&mut self.rng, self.interactions);
        self.apply(i, j);
        if M::ENABLED {
            self.note_step_metrics();
        }
        (i, j)
    }

    /// Per-interaction metric bookkeeping: counters every step, a flush at
    /// every [`AGENT_FLUSH_EVERY`] boundary. Call sites gate on `M::ENABLED`
    /// so the disabled sink compiles this away entirely.
    #[inline]
    pub(crate) fn note_step_metrics(&mut self) {
        self.metrics.on_interactions(1);
        // One ordered pair per interaction: two uniform draws.
        self.metrics.on_rng_draws(2);
        if self.interactions.is_multiple_of(AGENT_FLUSH_EVERY) {
            self.metrics.on_flush(self.interactions);
        }
    }

    /// Forces an interaction between a specific ordered pair of agents.
    ///
    /// This bypasses the random scheduler; it exists to replay the scripted
    /// executions of the paper's Figure 2 and for tests that need a
    /// particular interaction sequence. The forced interaction still counts
    /// toward [`Simulation::interactions`].
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn force_pair(&mut self, i: usize, j: usize) {
        assert!(i != j, "agents cannot interact with themselves");
        assert!(i < self.states.len() && j < self.states.len(), "agent index out of range");
        self.apply(i, j);
    }

    /// One observed interaction between `i` and `j`: the transition plus all
    /// gated observer hooks, **without** polling the fault schedule — run
    /// loops that keep their own incremental bookkeeping (rank tracking,
    /// chaos recovery) poll separately so they can react to the corruption.
    pub(crate) fn interact_observed(&mut self, i: usize, j: usize) {
        if self.reliability.drops(&mut self.rng) {
            // The pair met but the transition was silently dropped. The
            // meeting still counts: parallel time measures scheduled
            // encounters, and an omitted one wastes exactly its share of it.
            self.interactions += 1;
            self.observer.on_interaction(i, j, self.interactions);
            return;
        }
        // The observer gates are associated consts, so for `NoopObserver`
        // every branch below folds away and this compiles to the original
        // uninstrumented body.
        let phases_before = if O::WATCHES_PHASES {
            (self.protocol.phase_of(&self.states[i]), self.protocol.phase_of(&self.states[j]))
        } else {
            (None, None)
        };
        let effective = O::WATCHES_STATE_CHANGES
            && !self.protocol.is_null_pair(&self.states[i], &self.states[j]);
        let (a, b) = pair_mut(&mut self.states, i, j);
        if self.reliability.one_way {
            // Only the initiator's update lands; the responder's half of the
            // transition is discarded.
            let saved = b.clone();
            self.protocol.interact(a, b, &mut self.rng);
            *b = saved;
        } else {
            self.protocol.interact(a, b, &mut self.rng);
        }
        self.interactions += 1;
        self.observer.on_interaction(i, j, self.interactions);
        if O::WATCHES_STATE_CHANGES && effective {
            self.observer.on_state_change(i, j, self.interactions);
        }
        if O::WATCHES_PHASES {
            let after_i = self.protocol.phase_of(&self.states[i]);
            if after_i != phases_before.0 {
                self.observer.on_phase_transition(i, phases_before.0, after_i, self.interactions);
            }
            let after_j = self.protocol.phase_of(&self.states[j]);
            if after_j != phases_before.1 {
                self.observer.on_phase_transition(j, phases_before.1, after_j, self.interactions);
            }
        }
    }

    /// Polls the fault schedule at the current interaction count, reporting
    /// any fired fault to the observer. Returns the number of corrupted
    /// agents (0 when nothing fired). With [`NoFaults`] this is a no-op that
    /// the compiler removes — the `F::ACTIVE` gate is an associated const.
    pub(crate) fn poll_faults(&mut self) -> usize {
        if !F::ACTIVE {
            return 0;
        }
        let fired_before = self.faults.fired_count();
        let corrupted = self.faults.poll(&self.protocol, &mut self.states, self.interactions);
        if self.faults.fired_count() != fired_before {
            self.observer.on_fault(corrupted, self.interactions);
        }
        corrupted
    }

    fn apply(&mut self, i: usize, j: usize) {
        self.interact_observed(i, j);
        if F::ACTIVE {
            self.poll_faults();
        }
    }

    /// Runs exactly `k` interactions.
    pub fn run(&mut self, k: u64) {
        if M::ENABLED {
            let started = Instant::now();
            for _ in 0..k {
                self.step();
            }
            self.metrics.on_section(Section::Transition, started.elapsed().as_nanos() as u64);
        } else {
            for _ in 0..k {
                self.step();
            }
        }
        self.observer.on_batch(k, self.interactions);
    }

    /// Steps until `goal` holds for the configuration, or until the *total*
    /// interaction count reaches `max_interactions`.
    ///
    /// `goal` is evaluated on the initial configuration too, so a
    /// configuration that already satisfies it converges after 0
    /// interactions. The predicate receives the full state slice; for the
    /// O(1)-per-step ranking goal use
    /// [`run_until_stably_ranked`](Simulation::run_until_stably_ranked).
    pub fn run_until(
        &mut self,
        max_interactions: u64,
        mut goal: impl FnMut(&[P::State]) -> bool,
    ) -> RunOutcome {
        loop {
            let probe_started = if M::ENABLED { Some(Instant::now()) } else { None };
            let reached = goal(&self.states);
            if let Some(t0) = probe_started {
                self.metrics.on_section(Section::Probe, t0.elapsed().as_nanos() as u64);
            }
            if reached {
                self.observer.on_converged(self.interactions);
                if F::ACTIVE {
                    self.faults.notify_converged(self.interactions);
                }
                return RunOutcome::Converged { interactions: self.interactions };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                return RunOutcome::Exhausted { interactions: self.interactions };
            }
            self.step();
        }
    }
}

impl<
        P: RankingProtocol,
        O: Observer<P>,
        F: FaultSchedule<P>,
        S: SchedulerPolicy,
        M: MetricsSink,
    > Simulation<P, O, F, S, M>
{
    /// Runs until the configuration is correctly ranked (each rank `1..=n`
    /// output by exactly one agent) **and stays ranked** for
    /// `confirm_window` further interactions.
    ///
    /// Returns the interaction count at the moment the final (confirmed)
    /// convergence occurred. The confirmation window guards against
    /// mistaking a transiently-correct configuration for a stable one; for
    /// the paper's protocols a correct configuration is stable (silent
    /// protocols) or safe (Sublinear-Time-SSR's no-false-positive
    /// guarantee), so confirmed convergence coincides with stabilization.
    ///
    /// Rank bookkeeping is incremental — O(1) per interaction — via
    /// [`RankTracker`].
    pub fn run_until_stably_ranked(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
    ) -> RunOutcome {
        self.ranked_loop(max_interactions, confirm_window, None)
    }

    /// Like [`Simulation::run_until_stably_ranked`], but additionally
    /// records a convergence-dynamics timeline: whenever `timeline` reports
    /// a checkpoint due, the current configuration is snapshotted
    /// ([`crate::timeline::snapshot_states`]), and the end-of-run
    /// configuration is sealed as the final checkpoint.
    ///
    /// Snapshots never touch the simulation RNG, so the interaction
    /// sequence — and therefore the outcome — is identical to an
    /// uninstrumented run with the same seed.
    pub fn run_until_stably_ranked_timeline(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
        timeline: &mut TimelineObserver,
    ) -> RunOutcome {
        self.ranked_loop(max_interactions, confirm_window, Some(timeline))
    }

    fn ranked_loop(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
        mut timeline: Option<&mut TimelineObserver>,
    ) -> RunOutcome {
        let n = self.protocol.population_size();
        assert_eq!(n, self.states.len(), "protocol configured for a different population size");
        let mut tracker = RankTracker::of_states(&self.protocol, &self.states);
        let mut confirm = ConfirmWindow::new(confirm_window);
        let mut window = if M::ENABLED { Some(Instant::now()) } else { None };
        let outcome = loop {
            if let Some(tl) = timeline.as_deref_mut() {
                if tl.is_due(self.interactions) {
                    let observe_started = if M::ENABLED { Some(Instant::now()) } else { None };
                    tl.record(snapshot_states(&self.protocol, &self.states, self.interactions));
                    if let Some(t0) = observe_started {
                        self.metrics.on_section(Section::Observe, t0.elapsed().as_nanos() as u64);
                    }
                }
            }
            if let Some(t0) = confirm.confirmed(tracker.is_correct(), self.interactions) {
                self.observer.on_converged(t0);
                if F::ACTIVE {
                    self.faults.notify_converged(t0);
                }
                break RunOutcome::Converged { interactions: t0 };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                break RunOutcome::Exhausted { interactions: self.interactions };
            }
            let (i, j) = self.scheduler.sample_at(&mut self.rng, self.interactions);
            // Rank tracking needs before/after snapshots around the
            // transition, so this loop drives `interact_observed` directly
            // instead of `apply` (the fault poll below reacts to corruption
            // by rebuilding the tracker).
            let before_i = self.protocol.rank_of(&self.states[i]);
            let before_j = self.protocol.rank_of(&self.states[j]);
            self.interact_observed(i, j);
            let after_i = self.protocol.rank_of(&self.states[i]);
            let after_j = self.protocol.rank_of(&self.states[j]);
            tracker.update(before_i, after_i);
            tracker.update(before_j, after_j);
            if M::ENABLED {
                self.note_step_metrics();
                if self.interactions.is_multiple_of(AGENT_FLUSH_EVERY) {
                    if let Some(w) = window.as_mut() {
                        self.metrics.on_section(Section::Transition, w.elapsed().as_nanos() as u64);
                        *w = Instant::now();
                    }
                }
            }
            if F::ACTIVE {
                let fired_before = self.faults.fired_count();
                self.poll_faults();
                if self.faults.fired_count() != fired_before {
                    // A fault overwrote arbitrary agents: the incremental
                    // histogram is stale, and any in-progress confirmation
                    // window no longer describes this configuration.
                    tracker = RankTracker::of_states(&self.protocol, &self.states);
                    confirm.restart();
                }
            }
            confirm.keep_if(tracker.is_correct());
        };
        if let Some(tl) = timeline {
            tl.seal(snapshot_states(&self.protocol, &self.states, self.interactions));
        }
        outcome
    }

    /// Number of agents currently outputting leader (rank 1).
    pub fn leader_count(&self) -> usize {
        self.states.iter().filter(|s| self.protocol.is_leader(s)).count()
    }

    /// Whether the configuration is currently correctly ranked.
    pub fn is_ranked(&self) -> bool {
        RankTracker::of_states(&self.protocol, &self.states).is_correct()
    }
}

/// One interaction between agents `i` and `j` of an explicit state slice
/// under a [`Reliability`] model, for run loops that manage their own state
/// storage (the count-based backend's non-uniform fallback). Returns whether
/// the transition was applied (i.e. not dropped by omission).
pub(crate) fn interact_reliably<P: Protocol>(
    protocol: &P,
    states: &mut [P::State],
    i: usize,
    j: usize,
    reliability: Reliability,
    rng: &mut SmallRng,
) -> bool {
    if reliability.drops(rng) {
        return false;
    }
    let (a, b) = pair_mut(states, i, j);
    if reliability.one_way {
        let saved = b.clone();
        protocol.interact(a, b, rng);
        *b = saved;
    } else {
        protocol.interact(a, b, rng);
    }
    true
}

/// Borrows two distinct elements of a slice mutably.
///
/// # Panics
///
/// Panics if `i == j` or either index is out of bounds.
pub(crate) fn pair_mut<T>(xs: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert!(i != j, "pair_mut requires distinct indices");
    if i < j {
        let (lo, hi) = xs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Counter(u32);

    /// Every interaction increments the responder.
    struct Inc;
    impl Protocol for Inc {
        type State = Counter;
        fn interact(&self, _a: &mut Counter, b: &mut Counter, _rng: &mut SmallRng) {
            b.0 += 1;
        }
    }

    #[test]
    fn pair_mut_returns_both_orders() {
        let mut v = vec![1, 2, 3];
        {
            let (a, b) = pair_mut(&mut v, 0, 2);
            *a = 10;
            *b = 30;
        }
        {
            let (a, b) = pair_mut(&mut v, 2, 1);
            assert_eq!((*a, *b), (30, 2));
        }
        assert_eq!(v, vec![10, 2, 30]);
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn pair_mut_rejects_equal_indices() {
        let mut v = vec![1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }

    #[test]
    fn interactions_and_parallel_time_accumulate() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 11);
        sim.run(8);
        assert_eq!(sim.interactions(), 8);
        assert!((sim.parallel_time() - 2.0).abs() < 1e-12);
        let total: u32 = sim.states().iter().map(|c| c.0).sum();
        assert_eq!(total, 8, "each interaction increments exactly one agent");
    }

    #[test]
    fn run_until_checks_initial_configuration() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        let outcome = sim.run_until(100, |_| true);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 0 });
    }

    #[test]
    fn run_until_exhausts_budget() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        let outcome = sim.run_until(25, |_| false);
        assert_eq!(outcome, RunOutcome::Exhausted { interactions: 25 });
        assert!(!outcome.is_converged());
        assert!((outcome.parallel_time(3) - 25.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn force_pair_applies_the_transition() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.force_pair(0, 2);
        assert_eq!(sim.states()[2], Counter(1));
        assert_eq!(sim.interactions(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn force_pair_rejects_bad_index() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.force_pair(0, 3);
    }

    #[test]
    fn inject_fault_overwrites_one_agent() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.inject_fault(1, Counter(99));
        assert_eq!(sim.states()[1], Counter(99));
        assert_eq!(sim.states()[0], Counter(0));
        assert_eq!(sim.interactions(), 0, "fault injection is not an interaction");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_fault_rejects_bad_index() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.inject_fault(3, Counter(1));
    }

    #[test]
    fn into_states_returns_final_configuration() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.run(5);
        let states = sim.into_states();
        assert_eq!(states.iter().map(|c| c.0).sum::<u32>(), 5);
    }

    #[test]
    fn identical_seeds_give_identical_executions() {
        let mut a = Simulation::new(Inc, vec![Counter(0); 6], 99);
        let mut b = Simulation::new(Inc, vec![Counter(0); 6], 99);
        a.run(500);
        b.run(500);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Simulation::new(Inc, vec![Counter(0); 6], 1);
        let mut b = Simulation::new(Inc, vec![Counter(0); 6], 2);
        a.run(500);
        b.run(500);
        assert_ne!(a.states(), b.states(), "astronomically unlikely to coincide");
    }

    #[test]
    fn omission_drops_that_fraction_of_transitions() {
        use crate::scheduler::Reliability;
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 11)
            .with_reliability(Reliability::with_omission(0.5));
        sim.run(10_000);
        assert_eq!(sim.interactions(), 10_000, "omitted meetings still count");
        let total: u32 = sim.states().iter().map(|c| c.0).sum();
        let frac = f64::from(total) / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "applied fraction {frac} should be ≈0.5");
    }

    #[test]
    fn one_way_application_never_touches_the_responder() {
        use crate::scheduler::Reliability;
        // Inc only updates the responder, so one-way application freezes the
        // whole configuration.
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 3)
            .with_reliability(Reliability::perfect().and_one_way());
        sim.run(1_000);
        assert!(sim.states().iter().all(|c| c.0 == 0));
        assert_eq!(sim.interactions(), 1_000);
    }

    #[test]
    fn perfect_reliability_is_bit_identical_to_the_default() {
        use crate::scheduler::Reliability;
        let mut plain = Simulation::new(Inc, vec![Counter(0); 6], 42);
        let mut wrapped =
            Simulation::new(Inc, vec![Counter(0); 6], 42).with_reliability(Reliability::perfect());
        plain.run(2_000);
        wrapped.run(2_000);
        assert_eq!(plain.states(), wrapped.states());
    }

    #[test]
    fn with_policy_drives_pair_selection() {
        use crate::scheduler::{AnyScheduler, SchedulerPolicy};
        let policy = AnyScheduler::from_spec("clustered:2:0.5", 8).unwrap();
        let mut sim = Simulation::with_policy(Inc, vec![Counter(0); 8], policy, 9);
        sim.run(500);
        assert_eq!(sim.interactions(), 500);
        assert_eq!(sim.states().iter().map(|c| c.0).sum::<u32>(), 500);
        assert_eq!(sim.scheduler().label(), "clustered");
    }

    #[test]
    #[should_panic(expected = "different population size")]
    fn with_policy_rejects_size_mismatch() {
        let policy = crate::scheduler::AnyScheduler::uniform(4);
        Simulation::with_policy(Inc, vec![Counter(0); 5], policy, 1);
    }

    /// Leaders fight (`ℓ,ℓ → ℓ,f`); only leader/leader pairs are effective.
    #[derive(Clone, Copy)]
    struct Fight;
    impl Protocol for Fight {
        type State = bool;
        fn interact(&self, a: &mut bool, b: &mut bool, _rng: &mut SmallRng) {
            if *a && *b {
                *b = false;
            }
        }
        fn is_null_pair(&self, a: &bool, b: &bool) -> bool {
            !(*a && *b)
        }
        fn phase_of(&self, state: &bool) -> Option<&'static str> {
            Some(if *state { "leader" } else { "follower" })
        }
    }

    impl RankingProtocol for Fight {
        fn population_size(&self) -> usize {
            2 // only meaningful for the n = 2 tests below
        }
        fn rank_of(&self, state: &bool) -> Option<usize> {
            Some(if *state { 1 } else { 2 })
        }
    }

    #[test]
    fn observer_does_not_perturb_the_execution() {
        use crate::telemetry::TelemetryObserver;
        // Acceptance check for the zero-cost observer: the same (protocol,
        // initial configuration, seed) triple must give bit-identical states
        // and interaction counts with and without a full observer attached —
        // including one whose gates force per-step phase and null-pair
        // evaluation.
        let mut plain = Simulation::new(Fight, vec![true; 16], 99);
        let mut observed =
            Simulation::new(Fight, vec![true; 16], 99).observe(TelemetryObserver::new());
        plain.run(500);
        observed.run(500);
        assert_eq!(plain.states(), observed.states());
        assert_eq!(plain.interactions(), observed.interactions());

        let mut plain = Simulation::new(Fight, vec![true; 2], 7);
        let mut observed =
            Simulation::new(Fight, vec![true; 2], 7).observe(TelemetryObserver::new());
        let a = plain.run_until_stably_ranked(10_000, 8);
        let b = observed.run_until_stably_ranked(10_000, 8);
        assert_eq!(a, b, "goal-directed outcomes must match too");
        assert_eq!(plain.states(), observed.states());
    }

    #[test]
    fn telemetry_observer_counts_the_event_stream() {
        use crate::telemetry::TelemetryObserver;
        let n = 16;
        let mut sim = Simulation::new(Fight, vec![true; n], 5).observe(TelemetryObserver::new());
        sim.run(2_000);
        sim.run(2_000);
        let leaders = sim.states().iter().filter(|&&s| s).count();
        let telemetry = sim.into_observer();
        assert_eq!(telemetry.interactions.get(), 4_000);
        assert_eq!(telemetry.batches.get(), 2);
        // Each effective interaction demotes exactly one leader.
        assert_eq!(telemetry.effective.get(), (n - leaders) as u64);
        assert_eq!(telemetry.effective_gaps.total(), telemetry.effective.get());
        // Each demotion is one leader → follower phase transition.
        assert_eq!(telemetry.phase_transitions.len(), n - leaders);
        for t in &telemetry.phase_transitions {
            assert_eq!(t.from, Some("leader"));
            assert_eq!(t.to, Some("follower"));
        }
    }

    #[test]
    fn convergence_hooks_fire() {
        use crate::telemetry::TelemetryObserver;
        let mut sim = Simulation::new(Fight, vec![true; 8], 3).observe(TelemetryObserver::new());
        let outcome = sim.run_until(100_000, |s| s.iter().filter(|&&x| x).count() == 1);
        assert!(outcome.is_converged());
        let exhausted = sim.run_until(0, |s| s.iter().all(|&x| !x));
        assert!(!exhausted.is_converged());
        let telemetry = sim.into_observer();
        assert_eq!(telemetry.converged.get(), 1);
        assert_eq!(telemetry.exhausted.get(), 1);
    }
}
