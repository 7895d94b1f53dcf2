//! Executions of a protocol under the random scheduler.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::fault::{FaultSchedule, NoFaults};
use crate::graph::InteractionGraph;
use crate::metrics::{MetricsSink, NoopMetrics, Section, AGENT_FLUSH_EVERY};
use crate::observer::{NoopObserver, Observer};
use crate::protocol::{Protocol, RankingProtocol};
use crate::runner::rng_from_seed;
use crate::scheduler::{uniform_pair_from, CountingRng, Reliability, Scheduler, SchedulerPolicy};
use crate::timeline::{snapshot_states, TimelineCheckpoint, TimelineObserver};
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
        let mut last = Steps(0, 0);
        self.drive::<_, false>(&mut last, self.interactions + 1, None);
        (last.0, last.1)
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
        self.interactions += 1;
        interact_observed::<P, O, true>(
            &self.protocol,
            &mut self.observer,
            self.reliability,
            &mut self.states,
            &mut self.rng,
            self.interactions,
            (i, j),
        );
        self.poll_faults();
    }

    /// Polls the fault schedule at the current interaction count, reporting
    /// any fired fault to the observer. With [`NoFaults`] this is a no-op
    /// that the compiler removes — the `F::ACTIVE` gate is an associated
    /// const.
    pub(crate) fn poll_faults(&mut self) {
        poll_faults(
            &mut self.faults,
            &self.protocol,
            &mut self.states,
            &mut self.observer,
            self.interactions,
        );
    }

    /// Runs exactly `k` interactions.
    pub fn run(&mut self, k: u64) {
        let until = self.interactions.saturating_add(k);
        self.drive::<_, false>(&mut Steps(0, 0), until, None);
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
        goal: impl FnMut(&[P::State]) -> bool,
    ) -> RunOutcome {
        let outcome = self.drive::<_, false>(&mut Predicate(goal), max_interactions, None);
        self.conclude(outcome)
    }

    /// Reports a goal-directed run's end to the observer (and a
    /// convergence to the fault schedule).
    pub(crate) fn conclude(&mut self, outcome: RunOutcome) -> RunOutcome {
        match outcome {
            RunOutcome::Converged { interactions } => {
                self.observer.on_converged(interactions);
                if F::ACTIVE {
                    self.faults.notify_converged(interactions);
                }
            }
            RunOutcome::Exhausted { interactions } => self.observer.on_exhausted(interactions),
        }
        outcome
    }

    /// [`Simulation::drive_loop`] with the reliability model and the pair
    /// draw lifted to const generics: perfect channels compile without the
    /// omission draw and the one-way copy, and a uniform policy on the
    /// complete graph draws its pairs without consulting the scheduler.
    pub(crate) fn drive<G: Goal<P>, const TIMELINE: bool>(
        &mut self,
        goal: &mut G,
        until: u64,
        timeline: Option<&mut TimelineObserver>,
    ) -> RunOutcome {
        match (self.reliability.is_perfect(), self.scheduler.is_uniform_complete()) {
            (true, true) => self.drive_loop::<G, false, true, TIMELINE>(goal, until, timeline),
            (true, false) => self.drive_loop::<G, false, false, TIMELINE>(goal, until, timeline),
            (false, true) => self.drive_loop::<G, true, true, TIMELINE>(goal, until, timeline),
            (false, false) => self.drive_loop::<G, true, false, TIMELINE>(goal, until, timeline),
        }
    }

    /// The one loop that runs interactions on the agent array: behind
    /// [`Simulation::run`], [`Simulation::step`], [`Simulation::run_until`],
    /// the stable-ranking runs, [`Simulation::run_chaos`] and
    /// [`Simulation::run_dynamics`]. Steps until `goal` is reached or the
    /// total interaction count reaches `until`.
    ///
    /// The RNG, the interaction clock and the state slice are locals for
    /// the whole call and are written back on return, so the per-interaction
    /// path stores to no field of `self` and the compiler can keep the RNG
    /// and the clock in registers. `LOSSY` (a non-perfect [`Reliability`]),
    /// `COMPLETE` (the uniform scheduler on the complete graph) and
    /// `TIMELINE` (a [`TimelineObserver`] attached) are const generics for
    /// the same reason `O::WATCHES_*`, `F::ACTIVE` and `M::ENABLED` are
    /// associated consts: a switch that cannot change during the call
    /// costs nothing per interaction. With `COMPLETE` the pair is one joint
    /// draw over `0..n`, so the loop never reads the scheduler's graph.
    ///
    /// The goal is asked only at a stop clock: the earliest of the budget,
    /// the next flush boundary (with an enabled sink) and the goal's own
    /// [`Goal::deadline`]. Between stops the goal's answer cannot change
    /// unless [`Goal::settle`] says it may (a rank changed, or a fault
    /// fired), and then the next clock becomes a stop. A predicate's
    /// deadline is always the next clock, so it is still asked at every
    /// one.
    ///
    /// Each interaction is: draw the pair, [`Goal::mark`], the transition,
    /// [`Goal::interfere`] (a chaos or churn run's pinned Byzantine
    /// agents), the fault poll, [`Goal::settle`].
    #[inline]
    fn drive_loop<G: Goal<P>, const LOSSY: bool, const COMPLETE: bool, const TIMELINE: bool>(
        &mut self,
        goal: &mut G,
        until: u64,
        mut timeline: Option<&mut TimelineObserver>,
    ) -> RunOutcome {
        let Simulation {
            protocol,
            scheduler,
            states,
            rng: rng_slot,
            interactions,
            observer,
            faults,
            reliability,
            metrics,
        } = self;
        let reliability = *reliability;
        let states = &mut states[..];
        let n = states.len();
        let mut rng = rng_slot.clone();
        let mut now = *interactions;
        let mut meter = Meter::start::<M>(now);
        // One comparison per interaction serves the goal, the budget and
        // the sink. The first stop is now, so the goal sees the starting
        // configuration.
        let mut stop = now;
        let outcome = loop {
            if let (true, Some(tl)) = (TIMELINE, timeline.as_deref_mut()) {
                if tl.is_due(now) {
                    let t0 = Meter::clock::<M>();
                    tl.record(goal.checkpoint(protocol, states, now));
                    meter.charge(Section::Observe, t0);
                }
            }
            if now >= stop {
                let t0 = if G::PROBES { Meter::clock::<M>() } else { None };
                let reached = goal.reached(protocol, states, faults, now);
                if G::PROBES {
                    meter.charge(Section::Probe, t0);
                }
                if let Some(at) = reached {
                    break RunOutcome::Converged { interactions: at };
                }
                if now >= until {
                    break RunOutcome::Exhausted { interactions: now };
                }
                if M::ENABLED && now >= meter.next_flush {
                    meter.credit(metrics, now);
                }
                stop = meter.stop::<M>(until).min(goal.deadline(now));
            }
            let (i, j) =
                sample::<S, M, COMPLETE>(scheduler, n, &mut rng, now, &mut meter.extra_draws);
            let mark = goal.mark(protocol, states, i, j);
            now += 1;
            interact_observed::<P, O, LOSSY>(
                protocol,
                observer,
                reliability,
                states,
                &mut rng,
                now,
                (i, j),
            );
            if M::ENABLED && LOSSY {
                meter.extra_draws = meter.extra_draws.wrapping_add(reliability.drop_draws());
            }
            goal.interfere(protocol, states, i, j);
            let faulted =
                F::ACTIVE && poll_faults(faults, protocol, states, observer, now).is_some();
            if goal.settle(mark, protocol, states, i, j, faulted) {
                stop = now;
            }
        };
        meter.credit(metrics, now);
        *rng_slot = rng;
        *interactions = now;
        if let (true, Some(tl)) = (TIMELINE, timeline) {
            tl.seal(goal.checkpoint(protocol, states, now));
        }
        outcome
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
        let mut goal = self.ranked_goal(confirm_window);
        let outcome = self.drive::<_, false>(&mut goal, max_interactions, None);
        self.conclude(outcome)
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
        let mut goal = self.ranked_goal(confirm_window);
        let outcome = self.drive::<_, true>(&mut goal, max_interactions, Some(timeline));
        self.conclude(outcome)
    }

    fn ranked_goal(&self, confirm_window: u64) -> StablyRanked {
        let n = self.protocol.population_size();
        assert_eq!(n, self.states.len(), "protocol configured for a different population size");
        StablyRanked {
            tracker: RankTracker::of_states(&self.protocol, &self.states),
            confirm: ConfirmWindow::new(confirm_window),
        }
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

/// What [`Simulation::drive_loop`] runs toward: the part of the loop that
/// differs between [`Simulation::run`], [`Simulation::step`],
/// [`Simulation::run_until`], the stable-ranking runs and the chaos and
/// churn runs ([`crate::fault::Recovery`]).
pub(crate) trait Goal<P: Protocol> {
    /// Whether the time [`Goal::reached`] takes is charged to
    /// [`Section::Probe`] (an O(n) predicate) or not worth timing (O(1)).
    const PROBES: bool;

    /// What the goal remembers about the pair before its transition.
    type Mark: Copy;

    /// Asked at a stop clock `now`: the interaction count at which the
    /// goal was reached, or `None` to keep going. `faults` is the run's
    /// fault schedule, for goals that keep its books.
    fn reached<F: FaultSchedule<P>>(
        &mut self,
        protocol: &P,
        states: &[P::State],
        faults: &mut F,
        now: u64,
    ) -> Option<u64>;

    /// Asked right after [`Goal::reached`] returned `None` at `now`: the
    /// clock at which its answer may next change, assuming no
    /// [`Goal::settle`] reports a change before then.
    fn deadline(&self, now: u64) -> u64;

    /// Called with the sampled pair before its transition.
    fn mark(&self, protocol: &P, states: &[P::State], i: usize, j: usize) -> Self::Mark;

    /// Called between the pair's transition and the fault poll; may
    /// overwrite the pair's states. Does nothing by default.
    #[inline(always)]
    fn interfere(&mut self, protocol: &P, states: &mut [P::State], i: usize, j: usize) {
        let _ = (protocol, states, i, j);
    }

    /// Called after the pair's transition and the fault poll; `faulted`
    /// says whether a fault overwrote agents. Returns whether the goal
    /// changed, so that [`Goal::reached`] must be asked at the next clock.
    fn settle(
        &mut self,
        mark: Self::Mark,
        protocol: &P,
        states: &[P::State],
        i: usize,
        j: usize,
        faulted: bool,
    ) -> bool;

    /// A timeline checkpoint of the configuration (only goals driven with
    /// a timeline are asked).
    fn checkpoint(&self, protocol: &P, states: &[P::State], now: u64) -> TimelineCheckpoint {
        let _ = (protocol, states, now);
        unreachable!("only the stable-ranking loops record timelines")
    }
}

/// [`Simulation::run`]'s and [`Simulation::step`]'s goal: none; the loop
/// stops at its budget. It remembers the last pair that interacted.
struct Steps(usize, usize);

impl<P: Protocol> Goal<P> for Steps {
    const PROBES: bool = false;
    type Mark = ();

    #[inline(always)]
    fn reached<F>(&mut self, _: &P, _: &[P::State], _: &mut F, _: u64) -> Option<u64> {
        None
    }

    #[inline(always)]
    fn deadline(&self, _: u64) -> u64 {
        u64::MAX
    }

    #[inline(always)]
    fn mark(&self, _: &P, _: &[P::State], _: usize, _: usize) {}

    #[inline(always)]
    fn settle(&mut self, _: (), _: &P, _: &[P::State], i: usize, j: usize, _: bool) -> bool {
        (self.0, self.1) = (i, j);
        false
    }
}

/// [`Simulation::run_until`]'s goal: a predicate over the configuration.
struct Predicate<G>(G);

impl<P: Protocol, G: FnMut(&[P::State]) -> bool> Goal<P> for Predicate<G> {
    const PROBES: bool = true;
    type Mark = ();

    #[inline(always)]
    fn reached<F>(&mut self, _: &P, states: &[P::State], _: &mut F, now: u64) -> Option<u64> {
        (self.0)(states).then_some(now)
    }

    /// Any interaction may satisfy a predicate: ask it at the next clock.
    #[inline(always)]
    fn deadline(&self, now: u64) -> u64 {
        now
    }

    #[inline(always)]
    fn mark(&self, _: &P, _: &[P::State], _: usize, _: usize) {}

    #[inline(always)]
    fn settle(&mut self, _: (), _: &P, _: &[P::State], _: usize, _: usize, _: bool) -> bool {
        false
    }
}

/// The stable-ranking goal: an incremental rank histogram and the
/// confirmation window over it.
struct StablyRanked {
    tracker: RankTracker,
    confirm: ConfirmWindow,
}

impl StablyRanked {
    /// The rare end of [`Goal::settle`]: a rank of the pair changed, or a
    /// fault fired. Out of line, so the common path is one comparison of
    /// the pair's rank words.
    #[cold]
    #[inline(never)]
    fn rerank<P: RankingProtocol>(
        &mut self,
        before: u64,
        after: u64,
        protocol: &P,
        states: &[P::State],
        faulted: bool,
    ) {
        retrack(&mut self.tracker, before, after, protocol, states, faulted);
        if faulted {
            // Any in-progress confirmation window no longer describes this
            // configuration.
            self.confirm.restart();
        }
        self.confirm.keep_if(self.tracker.is_correct());
    }
}

/// Brings `tracker` up to date after one interaction whose pair's ranks
/// went from `before` to `after` (packed by [`rank_pair`]). A fault
/// overwrote arbitrary agents, so after one the histogram is rebuilt.
pub(crate) fn retrack<P: RankingProtocol>(
    tracker: &mut RankTracker,
    before: u64,
    after: u64,
    protocol: &P,
    states: &[P::State],
    faulted: bool,
) {
    if faulted {
        *tracker = RankTracker::of_states(protocol, states);
    } else {
        for shift in [0, 32] {
            tracker.update(rank_of_word(before >> shift), rank_of_word(after >> shift));
        }
    }
}

impl<P: RankingProtocol> Goal<P> for StablyRanked {
    const PROBES: bool = false;
    /// The pair's ranks before the transition, as [`rank_pair`] packs them.
    type Mark = u64;

    #[inline(always)]
    fn reached<F>(&mut self, _: &P, _: &[P::State], _: &mut F, now: u64) -> Option<u64> {
        self.confirm.confirmed(self.tracker.is_correct(), now)
    }

    /// The open window's end; while it is closed, only a rank change can
    /// open it.
    #[inline(always)]
    fn deadline(&self, _: u64) -> u64 {
        self.confirm.deadline()
    }

    #[inline(always)]
    fn mark(&self, protocol: &P, states: &[P::State], i: usize, j: usize) -> u64 {
        rank_pair(protocol, states, i, j)
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
        self.rerank(before, after, protocol, states, faulted);
        true
    }

    fn checkpoint(&self, protocol: &P, states: &[P::State], now: u64) -> TimelineCheckpoint {
        snapshot_states(protocol, states, now)
    }
}

/// The ranks of agents `i` and `j` as one word, `i`'s in the low half and
/// `j`'s in the high half, so a pair's ranks are compared across its
/// transition in one instruction.
#[inline(always)]
pub(crate) fn rank_pair<P: RankingProtocol>(
    protocol: &P,
    states: &[P::State],
    i: usize,
    j: usize,
) -> u64 {
    rank_word(protocol.rank_of(&states[i])) | rank_word(protocol.rank_of(&states[j])) << 32
}

/// One rank as a 32-bit word, 0 standing for no rank.
///
/// # Panics
///
/// Panics if the rank is outside `1..=u32::MAX`, which the word cannot
/// tell apart from another.
#[inline(always)]
fn rank_word(rank: Option<usize>) -> u64 {
    match rank {
        None => 0,
        Some(r) if r.wrapping_sub(1) < u32::MAX as usize => r as u64,
        Some(r) => rank_out_of_range(r),
    }
}

#[cold]
#[inline(never)]
fn rank_out_of_range(r: usize) -> ! {
    panic!("rank {r} outside 1..={}", u32::MAX)
}

/// The rank held in the low half of `word` (see [`rank_word`]).
fn rank_of_word(word: u64) -> Option<usize> {
    let r = word as u32;
    (r != 0).then_some(r as usize)
}

/// Engine metrics of one [`Simulation::drive_loop`] call, credited to the
/// sink once per [`AGENT_FLUSH_EVERY`]-interaction window and on return
/// instead of on every interaction. Every method is a no-op unless the
/// sink is enabled.
struct Meter {
    /// Clock at the last credit.
    credited: u64,
    /// Clock of the next flush boundary.
    next_flush: u64,
    /// RNG words drawn since the last credit beyond one per interaction
    /// (wrapping, since a policy may draw none).
    extra_draws: u64,
    /// Start of the current window (`None` with a disabled sink).
    window: Option<Instant>,
    /// Nanoseconds charged to each [`Section`] in the current window.
    charged: [u64; 4],
}

impl Meter {
    #[inline(always)]
    fn start<M: MetricsSink>(now: u64) -> Self {
        Meter {
            credited: now,
            next_flush: (now / AGENT_FLUSH_EVERY + 1) * AGENT_FLUSH_EVERY,
            extra_draws: 0,
            window: M::ENABLED.then(Instant::now),
            charged: [0; 4],
        }
    }

    /// Where stepping must next pause: at `until`, or at the next flush
    /// boundary if the sink is enabled and that comes first.
    #[inline(always)]
    fn stop<M: MetricsSink>(&self, until: u64) -> u64 {
        if M::ENABLED {
            until.min(self.next_flush)
        } else {
            until
        }
    }

    /// A section's start time, when the sink is enabled.
    #[inline(always)]
    fn clock<M: MetricsSink>() -> Option<Instant> {
        M::ENABLED.then(Instant::now)
    }

    /// Charges the time since `t0` to `section`.
    #[inline(always)]
    fn charge(&mut self, section: Section, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.charged[section.index()] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Credits the window ending at `now`: its interactions, RNG draws
    /// and section times, with [`Section::Transition`] the window's wall
    /// time less what was charged to other sections; and flushes the sink
    /// if `now` is a flush boundary.
    fn credit<M: MetricsSink>(&mut self, metrics: &mut M, now: u64) {
        let Some(window) = self.window else { return };
        metrics.on_interactions(now - self.credited);
        metrics.on_rng_draws((now - self.credited).wrapping_add(self.extra_draws));
        let elapsed = window.elapsed().as_nanos() as u64;
        let charged: u64 = self.charged.iter().sum();
        metrics.on_section(Section::Transition, elapsed.saturating_sub(charged));
        for section in [Section::Probe, Section::Observe] {
            if self.charged[section.index()] > 0 {
                metrics.on_section(section, self.charged[section.index()]);
            }
        }
        if now == self.next_flush {
            metrics.on_flush(now);
            self.next_flush += AGENT_FLUSH_EVERY;
        }
        self.credited = now;
        self.extra_draws = 0;
        self.window = Some(Instant::now());
        self.charged = [0; 4];
    }
}

/// Samples the next pair of `n` agents: with `COMPLETE` (the caller has
/// checked [`SchedulerPolicy::is_uniform_complete`]) the joint uniform
/// draw, otherwise the policy's own. With an enabled sink, adds the RNG
/// words drawn beyond the first to `extra` (wrapping).
#[inline(always)]
fn sample<S: SchedulerPolicy, M: MetricsSink, const COMPLETE: bool>(
    scheduler: &S,
    n: usize,
    rng: &mut SmallRng,
    now: u64,
    extra: &mut u64,
) -> (usize, usize) {
    if M::ENABLED {
        let mut counting = CountingRng::new(rng);
        let pair = draw::<S, _, COMPLETE>(scheduler, n, &mut counting, now);
        if counting.draws() != 1 {
            add_extra_draws(extra, counting.draws());
        }
        pair
    } else {
        draw::<S, _, COMPLETE>(scheduler, n, rng, now)
    }
}

/// [`sample`]'s draw on either RNG.
#[inline(always)]
fn draw<S: SchedulerPolicy, R: RngCore, const COMPLETE: bool>(
    scheduler: &S,
    n: usize,
    rng: &mut R,
    now: u64,
) -> (usize, usize) {
    if COMPLETE {
        uniform_pair_from(rng, 0, n)
    } else {
        scheduler.sample_at(rng, now)
    }
}

/// The rare branch of [`sample`]: the uniform pair draw takes one word
/// except on a Lemire rejection. Marking it cold keeps the branch, so the
/// single-word path updates no counter; without the mark the compiler
/// turns it into an add on every interaction, and a metered
/// `oss_agents` run lost about 10% to it.
#[cold]
#[inline(always)]
fn add_extra_draws(extra: &mut u64, drawn: u64) {
    *extra = extra.wrapping_add(drawn.wrapping_sub(1));
}

/// One observed interaction of the pair `(i, j)` on explicit locals: the
/// transition plus all gated observer hooks; `now` is the interaction
/// count including this one. Without `LOSSY` the reliability model is
/// known to be perfect, and neither its omission draw nor its one-way copy
/// is compiled in.
#[inline(always)]
fn interact_observed<P: Protocol, O: Observer<P>, const LOSSY: bool>(
    protocol: &P,
    observer: &mut O,
    reliability: Reliability,
    states: &mut [P::State],
    rng: &mut SmallRng,
    now: u64,
    (i, j): (usize, usize),
) {
    if LOSSY && reliability.drops(rng) {
        // The pair met but the transition was silently dropped. The
        // meeting still counts: parallel time measures scheduled
        // encounters, and an omitted one wastes exactly its share of it.
        observer.on_interaction(i, j, now);
        return;
    }
    // The observer gates are associated consts, so for `NoopObserver`
    // every branch below folds away and this compiles to the bare
    // transition.
    let phases_before = if O::WATCHES_PHASES {
        (protocol.phase_of(&states[i]), protocol.phase_of(&states[j]))
    } else {
        (None, None)
    };
    let effective = O::WATCHES_STATE_CHANGES && !protocol.is_null_pair(&states[i], &states[j]);
    let (a, b) = pair_mut(states, i, j);
    if LOSSY && reliability.one_way {
        // Only the initiator's update lands; the responder's half of the
        // transition is discarded.
        let saved = b.clone();
        protocol.interact(a, b, rng);
        *b = saved;
    } else {
        protocol.interact(a, b, rng);
    }
    observer.on_interaction(i, j, now);
    if O::WATCHES_STATE_CHANGES && effective {
        observer.on_state_change(i, j, now);
    }
    if O::WATCHES_PHASES {
        let after_i = protocol.phase_of(&states[i]);
        if after_i != phases_before.0 {
            observer.on_phase_transition(i, phases_before.0, after_i, now);
        }
        let after_j = protocol.phase_of(&states[j]);
        if after_j != phases_before.1 {
            observer.on_phase_transition(j, phases_before.1, after_j, now);
        }
    }
}

/// Polls `faults` at clock `now`, reporting a fired fault to the observer.
/// Returns the number of corrupted agents if a fault fired. With
/// [`NoFaults`] this is a no-op the compiler removes.
#[inline]
fn poll_faults<P: Protocol, F: FaultSchedule<P>, O: Observer<P>>(
    faults: &mut F,
    protocol: &P,
    states: &mut [P::State],
    observer: &mut O,
    now: u64,
) -> Option<usize> {
    if !F::ACTIVE {
        return None;
    }
    let fired_before = faults.fired_count();
    let corrupted = faults.poll(protocol, states, now);
    (faults.fired_count() != fired_before).then(|| {
        observer.on_fault(corrupted, now);
        corrupted
    })
}

/// Borrows two distinct elements of a slice mutably.
///
/// # Panics
///
/// Panics if `i == j` or either index is out of bounds.
#[inline(always)]
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

    /// Every responder takes the rank `self.0`, however invalid.
    struct Stamp(usize);
    impl Protocol for Stamp {
        type State = usize;
        fn interact(&self, _a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
            *b = self.0;
        }
    }
    impl RankingProtocol for Stamp {
        fn population_size(&self) -> usize {
            2
        }
        fn rank_of(&self, state: &usize) -> Option<usize> {
            Some(*state)
        }
    }

    #[test]
    #[should_panic(expected = "rank 0 outside 1..=")]
    fn a_rank_of_zero_panics_in_the_ranked_loop() {
        Simulation::new(Stamp(0), vec![1, 1], 1).run_until_stably_ranked(10, 0);
    }

    #[test]
    #[should_panic(expected = "rank 4294967296 outside 1..=")]
    fn a_rank_above_u32_panics_in_the_ranked_loop() {
        Simulation::new(Stamp(1 << 32), vec![1, 1], 1).run_until_stably_ranked(10, 0);
    }

    #[test]
    #[should_panic(expected = "rank 3 outside 1..=2")]
    fn a_rank_above_n_panics_in_the_ranked_loop() {
        Simulation::new(Stamp(3), vec![1, 1], 1).run_until_stably_ranked(10, 0);
    }
}
