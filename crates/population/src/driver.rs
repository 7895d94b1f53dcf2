//! Incremental slice-driving of dynamic populations.
//!
//! [`SteppedDriver`] is the `run(k)`-slice + event-injection loop factored
//! out of the dynamics paths so every execution driver shares one code
//! path: [`BatchSimulation::run_dynamics`] is now a thin loop over
//! [`SteppedDriver::slice`], and `ssle serve` drives live populations with
//! the same slices — one bounded slice per request, externally injected
//! membership events between slices, convergence probes and metrics
//! flushes at slice boundaries.
//!
//! [`DynamicBackend`] is the backend-trait extension this requires: the
//! membership operations (adversarial joins, random leaves, adversarial
//! overwrites) and the fault/observer plumbing that
//! [`SimulationBackend`] does not expose, implemented by both the
//! agent-array [`Simulation`] and the count-based [`BatchSimulation`].
//!
//! # Semantics
//!
//! The driver polls events at **slice boundaries** and caps each slice at
//! the next due event, exactly like the batched dynamics loop (events fire
//! within one interaction of their due parallel time). Byzantine behavior
//! is the *lumped* model on both backends — `⌊t·n⌋` uniformly random
//! adversarial overwrites per unit of parallel time — because boundary
//! polling has no per-interaction participant hook. The per-interaction
//! *pinned* Byzantine model is [`Simulation::run_dynamics`]'s: a hook of
//! the agent array's one run loop, between each transition and the fault
//! poll.
//!
//! # RNG neutrality
//!
//! Like the dynamics module: churn and Byzantine randomness come from two
//! private RNGs seeded by the plan, the simulation RNG is never touched,
//! and a driver bound to an empty plan and an empty Byzantine set replays
//! the undisturbed execution bit-identically.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::backend::SimulationBackend;
use crate::counts::BatchSimulation;
use crate::dynamics::{ByzantineSet, ChurnAction, ChurnInjector, ChurnPlan, DynamicsReport};
use crate::fault::{Corruptor, FaultSchedule, FiredFault, RecoveryTracker};
use crate::graph::InteractionGraph;
use crate::metrics::MetricsSink;
use crate::observer::Observer;
use crate::runner::rng_from_seed;
use crate::scheduler::Scheduler;
use crate::simulation::Simulation;
use crate::tracker::RankTracker;

/// Backend operations a dynamic-population driver needs beyond
/// [`SimulationBackend`]: bounded slices, membership events, adversarial
/// overwrites, and the fault/observer plumbing.
///
/// All membership operations are safe only between slices (the counts
/// backend rebuilds its survival table and memo; the agent backend
/// re-derives its scheduler) — which is the only place the driver calls
/// them.
pub trait DynamicBackend<P: Corruptor>: SimulationBackend<P> {
    /// The population size the protocol was configured for (`n₀`), as
    /// opposed to the live size [`SimulationBackend::population_size`].
    fn configured_n(&self) -> usize;

    /// Asserts the backend supports membership changes (the agent backend
    /// requires the complete interaction graph).
    fn assert_dynamic_ready(&self);

    /// Runs at most `cap` interactions (the counts backend advances whole
    /// collision-free batches and may stop earlier; the agent backend runs
    /// exactly `cap`). Progress is guaranteed for `cap ≥ 1`.
    fn run_slice(&mut self, cap: u64);

    /// Polls the attached fault schedule at the current interaction count.
    fn poll_pending_faults(&mut self);

    /// Every fault fired so far, in firing order.
    fn fault_log(&self) -> &[FiredFault];

    /// Whether the attached fault schedule can never fire again.
    fn faults_exhausted(&self) -> bool;

    /// Arms after-convergence fault triggers.
    fn fault_notify_converged(&mut self, at: u64);

    /// Observer hook: the run's goal was reached.
    fn note_converged(&mut self, at: u64);

    /// Observer hook: the run exhausted its budget.
    fn note_exhausted(&mut self, at: u64);

    /// Rank histogram of the current configuration against `n₀`, with the
    /// index of the unique rank-1 agent on backends with agent identities
    /// (`None` on the anonymous counts backend, or when the leader is not
    /// unique).
    fn rank_probe(&self) -> (RankTracker, Option<usize>);

    /// Joins `k` fresh agents, each booting in an adversarial state drawn
    /// from `rng` ([`Corruptor::random_state`]).
    fn join_adversarial(&mut self, k: usize, rng: &mut SmallRng);

    /// Removes `k` uniformly random agents (victims drawn from `rng`).
    fn leave_random(&mut self, k: usize, rng: &mut SmallRng);

    /// Overwrites `k` uniformly random agents with adversarial states
    /// (victims and states drawn from `rng`) — the size-preserving
    /// replace/corrupt primitive.
    fn corrupt_random(&mut self, k: usize, rng: &mut SmallRng);

    /// Runs under the attached fault schedule plus membership churn and a
    /// Byzantine adversary (see [`Simulation::run_dynamics`] and
    /// [`BatchSimulation::run_dynamics`]).
    fn run_dynamics(
        &mut self,
        churn: &ChurnPlan,
        byzantine: &ByzantineSet,
        max_interactions: u64,
    ) -> DynamicsReport;
}

impl<P, O, F, M> DynamicBackend<P> for Simulation<P, O, F, Scheduler, M>
where
    P: Corruptor,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    fn configured_n(&self) -> usize {
        self.protocol.population_size()
    }

    fn assert_dynamic_ready(&self) {
        assert!(
            matches!(self.scheduler.graph(), InteractionGraph::Complete),
            "dynamic populations are only defined on the complete interaction graph"
        );
    }

    fn run_slice(&mut self, cap: u64) {
        Simulation::run(self, cap);
    }

    fn poll_pending_faults(&mut self) {
        self.poll_faults();
    }

    fn fault_log(&self) -> &[FiredFault] {
        self.faults.log()
    }

    fn faults_exhausted(&self) -> bool {
        self.faults.exhausted()
    }

    fn fault_notify_converged(&mut self, at: u64) {
        self.faults.notify_converged(at);
    }

    fn note_converged(&mut self, at: u64) {
        self.observer.on_converged(at);
    }

    fn note_exhausted(&mut self, at: u64) {
        self.observer.on_exhausted(at);
    }

    fn rank_probe(&self) -> (RankTracker, Option<usize>) {
        RankTracker::of_states_with_leader(&self.protocol, &self.states)
    }

    fn join_adversarial(&mut self, k: usize, rng: &mut SmallRng) {
        if k == 0 {
            return;
        }
        for _ in 0..k {
            let state = self.protocol.random_state(rng);
            self.states.push(state);
        }
        self.scheduler = Scheduler::new(self.states.len(), InteractionGraph::Complete);
    }

    fn leave_random(&mut self, k: usize, rng: &mut SmallRng) {
        if k == 0 {
            return;
        }
        for _ in 0..k {
            let victim = rng.gen_range(0..self.states.len());
            self.states.swap_remove(victim);
        }
        assert!(self.states.len() >= 2, "population shrank below two agents");
        self.scheduler = Scheduler::new(self.states.len(), InteractionGraph::Complete);
    }

    fn corrupt_random(&mut self, k: usize, rng: &mut SmallRng) {
        let live = self.states.len();
        for _ in 0..k {
            let victim = rng.gen_range(0..live);
            self.states[victim] = self.protocol.random_state(rng);
        }
    }

    fn run_dynamics(
        &mut self,
        churn: &ChurnPlan,
        byzantine: &ByzantineSet,
        max_interactions: u64,
    ) -> DynamicsReport {
        Simulation::run_dynamics(self, churn, byzantine, max_interactions)
    }
}

impl<P, O, F, M> DynamicBackend<P> for BatchSimulation<P, O, F, M>
where
    P: Corruptor,
    P::State: Eq + std::hash::Hash,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    fn configured_n(&self) -> usize {
        self.protocol().population_size()
    }

    fn assert_dynamic_ready(&self) {
        // The counts backend only exists on the complete graph.
    }

    fn run_slice(&mut self, cap: u64) {
        self.advance(cap);
    }

    fn poll_pending_faults(&mut self) {
        self.poll_faults();
    }

    fn fault_log(&self) -> &[FiredFault] {
        self.fault_schedule().log()
    }

    fn faults_exhausted(&self) -> bool {
        self.fault_schedule().exhausted()
    }

    fn fault_notify_converged(&mut self, at: u64) {
        self.fault_schedule_mut().notify_converged(at);
    }

    fn note_converged(&mut self, at: u64) {
        self.observer_mut().on_converged(at);
    }

    fn note_exhausted(&mut self, at: u64) {
        self.observer_mut().on_exhausted(at);
    }

    fn rank_probe(&self) -> (RankTracker, Option<usize>) {
        (RankTracker::of_counts(self.protocol(), self.counts()), None)
    }

    fn join_adversarial(&mut self, k: usize, rng: &mut SmallRng) {
        self.join_adversarial_agents(k as u64, rng);
    }

    fn leave_random(&mut self, k: usize, rng: &mut SmallRng) {
        for _ in 0..k {
            let live = self.counts().population();
            let victim = rng.gen_range(0..live);
            self.remove_agent_at(victim);
        }
    }

    fn corrupt_random(&mut self, k: usize, rng: &mut SmallRng) {
        let live = self.counts().population();
        for _ in 0..k {
            let victim = rng.gen_range(0..live);
            self.corrupt_agent_at(victim, rng);
        }
    }

    fn run_dynamics(
        &mut self,
        churn: &ChurnPlan,
        byzantine: &ByzantineSet,
        max_interactions: u64,
    ) -> DynamicsReport {
        BatchSimulation::run_dynamics(self, churn, byzantine, max_interactions)
    }
}

/// The reusable `run(k)`-slice + event-injection state machine.
///
/// Owns everything a dynamic run tracks between slices: the armed churn
/// schedule and its private RNG, the (lumped) Byzantine clock and its
/// private RNG, the piecewise parallel-time clock, the boundary probe (rank
/// histogram, verdict at `n₀`, leader index), the [`RecoveryTracker`], and
/// the membership tallies. The backend stays outside, passed to every call
/// — so the same driver type serves both backends and both calling styles
/// (run-to-completion trials, serve's request-paced slices).
#[derive(Debug, Clone)]
pub struct SteppedDriver {
    n0: usize,
    min_n: usize,
    max_n: Option<usize>,
    injector: ChurnInjector,
    churn_rng: SmallRng,
    byz_fraction: f64,
    byz_active: bool,
    byz_rng: SmallRng,
    byz_due: f64,
    pt: f64,
    joins: u64,
    leaves: u64,
    replacements: u64,
    corruptions: u64,
    byz_strikes: u64,
    tracker: RankTracker,
    /// `tracker` is correct and the live size is `n₀`.
    ranked: bool,
    leader_index: Option<usize>,
    recovery: RecoveryTracker,
    seen_faults: usize,
}

impl SteppedDriver {
    /// Binds a driver to a backend's current state: resolves the plan
    /// against the parallel-time clock, primes the fault schedule (a plan
    /// may fire at interaction 0) and takes the initial convergence probe.
    ///
    /// # Panics
    ///
    /// Panics if the live population does not match the protocol's
    /// configured size, or if the backend cannot change membership (agent
    /// backend off the complete graph).
    pub fn bind<P, B>(backend: &mut B, churn: &ChurnPlan, byzantine: &ByzantineSet) -> Self
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        assert_eq!(
            backend.configured_n(),
            backend.population_size(),
            "protocol configured for a different population size"
        );
        Self::bind_resumed(backend, churn, byzantine)
    }

    /// [`Self::bind`] for a backend restored from a snapshot: the live
    /// population may differ from the configured size (the snapshot was
    /// taken mid-churn), so only the membership-readiness assertion is
    /// kept. Convergence is still judged against the configured `n₀`.
    pub fn bind_resumed<P, B>(backend: &mut B, churn: &ChurnPlan, byzantine: &ByzantineSet) -> Self
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        let n0 = backend.configured_n();
        backend.assert_dynamic_ready();
        let byz_active = !byzantine.is_empty();
        let mut driver = SteppedDriver {
            n0,
            min_n: churn.min_n.max(2),
            max_n: churn.max_n,
            injector: ChurnInjector::bind(churn),
            churn_rng: rng_from_seed(churn.seed),
            byz_fraction: byzantine.fraction,
            byz_active,
            byz_rng: rng_from_seed(byzantine.seed),
            byz_due: if byz_active { 1.0 } else { f64::INFINITY },
            pt: backend.interactions() as f64 / n0 as f64,
            joins: 0,
            leaves: 0,
            replacements: 0,
            corruptions: 0,
            byz_strikes: 0,
            tracker: RankTracker::new(n0),
            ranked: false,
            leader_index: None,
            recovery: RecoveryTracker::new(n0),
            seen_faults: backend.fault_log().len(),
        };
        backend.poll_pending_faults();
        driver.recovery.drain_fired(backend.fault_log(), &mut driver.seen_faults);
        driver.probe(backend);
        driver
    }

    /// The boundary probe: rebuilds the rank histogram, judges it at `n₀`,
    /// and on a ranked verdict closes open faults and arms
    /// after-convergence fault triggers.
    fn probe<P: Corruptor, B: DynamicBackend<P>>(&mut self, backend: &mut B) {
        (self.tracker, self.leader_index) = backend.rank_probe();
        self.ranked = self.tracker.is_correct() && backend.population_size() == self.n0;
        if self.ranked {
            let at = backend.interactions();
            self.recovery.on_ranked(at);
            backend.fault_notify_converged(at);
        }
    }

    /// Parallel time elapsed, accumulated piecewise as `1/n_live` per
    /// interaction.
    pub fn parallel_time(&self) -> f64 {
        self.pt
    }

    /// Whether the configuration was correctly ranked at the configured
    /// size at the last boundary probe.
    pub fn is_ranked(&self) -> bool {
        self.ranked
    }

    /// Agents outputting rank 1 at the last boundary probe.
    pub fn leaders(&self) -> u32 {
        self.tracker.count_of(1)
    }

    /// Index of the unique rank-1 agent at the last boundary probe, on
    /// backends with agent identities (`None` on the counts backend, or
    /// when the leader is not unique).
    pub fn leader_index(&self) -> Option<usize> {
        self.leader_index
    }

    /// The rank histogram against `n₀` at the last boundary probe.
    pub fn ranks(&self) -> &RankTracker {
        &self.tracker
    }

    /// Membership tallies so far: `(joins, leaves, replacements,
    /// corruptions, byzantine strikes)`.
    pub fn tallies(&self) -> (u64, u64, u64, u64, u64) {
        (self.joins, self.leaves, self.replacements, self.corruptions, self.byz_strikes)
    }

    /// Membership events that have not recovered yet.
    pub fn open_faults(&self) -> usize {
        self.recovery.open_faults()
    }

    /// Fraction of observed steps with a unique leader so far (1.0 before
    /// any step is observed).
    pub fn availability(&self) -> f64 {
        self.recovery.availability()
    }

    /// Whether the bound plan, fault schedule, and adversary can never
    /// disturb the run again.
    pub fn quiescent<P: Corruptor, B: DynamicBackend<P>>(&self, backend: &B) -> bool {
        backend.faults_exhausted() && self.injector.exhausted() && !self.byz_active
    }

    /// Rebinds the membership schedule mid-run — the serve `churn-plan`
    /// event. Due times are absolute parallel time on the driver's clock,
    /// so a plan bound at `pt = 40` with an event at `t = 10` has that
    /// event already lapsed. The churn RNG is reseeded from the new plan.
    pub fn rebind_churn(&mut self, churn: &ChurnPlan) {
        self.injector = ChurnInjector::bind(churn);
        self.churn_rng = rng_from_seed(churn.seed);
        self.min_n = churn.min_n.max(2);
        self.max_n = churn.max_n;
    }

    /// Reseeds the stream that picks victims and adversarial states for
    /// injected events. The stream's position is not part of any snapshot,
    /// so a caller that needs injected events to replay bit-identically
    /// across a save/restore boundary must pin the stream to a value it
    /// can rederive (e.g. a function of the event's own sequence number)
    /// immediately before each injection.
    pub fn reseed_event_stream(&mut self, seed: u64) {
        self.churn_rng = rng_from_seed(seed);
    }

    /// Runs one bounded slice: at most `cap` interactions, further capped
    /// at the remaining `budget` and at the next due event so firing times
    /// stay exact to within one interaction; then fires due events and
    /// probes convergence at the boundary (where the metrics sink has just
    /// been flushed by the backend). Returns the interactions performed (0
    /// when the budget was exhausted); the probe's verdict is read through
    /// [`Self::is_ranked`], [`Self::leaders`] and [`Self::ranks`].
    pub fn slice<P, B>(&mut self, backend: &mut B, cap: u64, budget: u64) -> u64
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        let live = backend.population_size() as u64;
        let mut cap = cap.min(budget.saturating_sub(backend.interactions()));
        let boundary_only = cap == 0;
        if !boundary_only {
            let next_pt = self.injector.next_due().min(self.byz_due);
            if next_pt.is_finite() {
                let gap = ((next_pt - self.pt).max(0.0) * live as f64).ceil() as u64;
                cap = cap.min(gap.max(1));
            }
        }
        let before = backend.interactions();
        if !boundary_only {
            backend.run_slice(cap);
        }
        let performed = backend.interactions() - before;
        self.pt += performed as f64 / live as f64;
        self.recovery.drain_fired(backend.fault_log(), &mut self.seen_faults);

        // Lumped Byzantine strikes for every crossed parallel-time unit.
        while self.byz_due <= self.pt {
            self.byz_due += 1.0;
            let live = backend.population_size() as u64;
            let k = (self.byz_fraction * live as f64).floor() as u64;
            backend.corrupt_random(k as usize, &mut self.byz_rng);
            self.byz_strikes += k;
        }

        // Membership events due at this parallel time.
        if self.injector.next_due() <= self.pt {
            for action in self.injector.poll(self.pt) {
                self.apply(backend, action);
            }
        }

        self.probe(backend);
        self.recovery.observe_steps(performed, self.ranked, self.leaders() == 1);
        performed
    }

    /// Applies one membership action with the plan's population clamps,
    /// logging it as a fault on the recovery clock. Does not re-probe the
    /// rank histogram — callers do that once per boundary.
    fn apply<P, B>(&mut self, backend: &mut B, action: ChurnAction) -> usize
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        let live = backend.population_size();
        let applied = match action {
            ChurnAction::Join(k) => {
                let room = self.max_n.map_or(usize::MAX, |m| m.saturating_sub(live));
                let k = k.min(room);
                backend.join_adversarial(k, &mut self.churn_rng);
                self.joins += k as u64;
                k
            }
            ChurnAction::Leave(k) => {
                let k = k.min(live.saturating_sub(self.min_n));
                backend.leave_random(k, &mut self.churn_rng);
                self.leaves += k as u64;
                k
            }
            ChurnAction::Replace(k) => {
                let k = k.min(live);
                backend.corrupt_random(k, &mut self.churn_rng);
                self.replacements += k as u64;
                k
            }
        };
        if applied > 0 {
            self.recovery.on_fault(action.label(), applied, backend.interactions());
        }
        applied
    }

    /// Injects one externally requested membership event between slices —
    /// the serve wire events `join` / `leave` / `corrupt`. Applies the
    /// bound plan's clamps, logs the event on the recovery clock, and
    /// re-probes the boundary. Returns the number of agents actually
    /// touched after clamping.
    pub fn inject<P, B>(&mut self, backend: &mut B, action: ChurnAction) -> usize
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        let applied = self.apply(backend, action);
        self.probe(backend);
        applied
    }

    /// Injects an adversarial overwrite of `k` random agents — the serve
    /// `corrupt` event. Unlike [`ChurnAction::Replace`] this is tallied as
    /// a corruption, and logged under the `"corrupt"` fault label.
    pub fn inject_corruption<P, B>(&mut self, backend: &mut B, k: usize) -> usize
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        let k = k.min(backend.population_size());
        backend.corrupt_random(k, &mut self.churn_rng);
        self.corruptions += k as u64;
        if k > 0 {
            self.recovery.on_fault("corrupt", k, backend.interactions());
        }
        self.probe(backend);
        k
    }

    /// Drives the backend to completion: slices until the configuration is
    /// correctly ranked at the configured size with every disturbance
    /// source exhausted and recovered from, or until the interaction
    /// budget. This is the trial-runner calling convention —
    /// [`BatchSimulation::run_dynamics`] is exactly this loop.
    pub fn run<P, B>(mut self, backend: &mut B, max_interactions: u64) -> DynamicsReport
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        loop {
            if self.ranked && self.quiescent(backend) && self.recovery.open_faults() == 0 {
                let at = backend.interactions();
                backend.note_converged(at);
                break;
            }
            if backend.interactions() >= max_interactions {
                let at = backend.interactions();
                backend.note_exhausted(at);
                break;
            }
            // Probe at least once per parallel-time unit. The counts
            // backend advances at most one collision-free batch per slice
            // (≤ ⌊n/2⌋ interactions), so this cap never binds there and the
            // batch sequence is unchanged; on the agent backend it sets the
            // probing granularity.
            let chunk = backend.population_size() as u64;
            self.slice(backend, chunk, max_interactions);
        }
        self.finish(backend)
    }

    /// Consumes the driver into the dynamics report (injected corruptions
    /// are tallied with the replacements — both are in-place adversarial
    /// overwrites).
    pub fn finish<P, B>(self, backend: &B) -> DynamicsReport
    where
        P: Corruptor,
        B: DynamicBackend<P>,
    {
        DynamicsReport {
            final_n: backend.population_size(),
            chaos: self.recovery.into_report(backend.interactions()),
            joins: self.joins,
            leaves: self.leaves,
            replacements: self.replacements + self.corruptions,
            byz_strikes: self.byz_strikes,
            parallel_time: self.pt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{ByzantineSet, ChurnPlan};
    use crate::protocol::RankingProtocol;
    use crate::simulation::Simulation;
    use crate::test_support::ModRank;

    fn fresh(n: usize, seed: u64) -> Simulation<ModRank> {
        Simulation::new(ModRank { n }, vec![0; n], seed)
    }

    fn fresh_counts(n: usize, seed: u64) -> BatchSimulation<ModRank> {
        BatchSimulation::new(ModRank { n }, vec![0; n], seed)
    }

    #[test]
    fn driver_converges_an_undisturbed_run_on_both_backends() {
        let n = 16;
        let mut agents = fresh(n, 3);
        let driver = SteppedDriver::bind(&mut agents, &ChurnPlan::none(), &ByzantineSet::none());
        let report = driver.run(&mut agents, 4_000_000);
        assert!(report.chaos.first_ranked_parallel_time().is_some());
        assert_eq!(report.final_n, n);
        assert!(agents.is_ranked());

        let mut counts = fresh_counts(n, 3);
        let driver = SteppedDriver::bind(&mut counts, &ChurnPlan::none(), &ByzantineSet::none());
        let report = driver.run(&mut counts, 4_000_000);
        assert_eq!(report.final_n, n);
        assert!(counts.is_ranked());
    }

    #[test]
    fn empty_driver_is_rng_neutral_on_the_agent_backend() {
        let n = 24;
        let mut driven = fresh(n, 11);
        let driver = SteppedDriver::bind(&mut driven, &ChurnPlan::none(), &ByzantineSet::none());
        driver.run(&mut driven, 50_000);

        let mut plain = fresh(n, 11);
        // The driver converges as soon as the run is ranked; replay the
        // exact interaction count on an undriven simulation.
        plain.run(driven.interactions());
        assert_eq!(plain.states(), driven.states());
    }

    #[test]
    fn injected_events_change_membership_and_recover() {
        let n = 12;
        let mut counts = fresh_counts(n, 7);
        let mut driver =
            SteppedDriver::bind(&mut counts, &ChurnPlan::none(), &ByzantineSet::none());
        assert_eq!(driver.inject(&mut counts, ChurnAction::Join(3)), 3);
        assert_eq!(counts.population_size(), n + 3);
        assert_eq!(driver.inject(&mut counts, ChurnAction::Leave(3)), 3);
        assert_eq!(counts.population_size(), n);
        assert_eq!(driver.inject_corruption(&mut counts, 4), 4);
        let (joins, leaves, _, corruptions, _) = driver.tallies();
        assert_eq!((joins, leaves, corruptions), (3, 3, 4));

        // Drive in short slices until re-stabilized.
        let mut budget = 2_000_000u64;
        while !(driver.is_ranked() && counts.population_size() == n) && budget > 0 {
            let performed = driver.slice(&mut counts, 512, u64::MAX);
            assert!(performed > 0);
            budget = budget.saturating_sub(performed);
        }
        assert!(driver.is_ranked(), "never re-stabilized after injected events");
        assert_eq!(driver.open_faults(), 0);
        assert!(driver.availability() <= 1.0);
    }

    #[test]
    fn leader_index_is_reported_on_the_agent_backend_only() {
        let n = 8;
        let mut agents = fresh(n, 5);
        assert!(agents.run_until_stably_ranked(2_000_000, 0).is_converged());
        let driver = SteppedDriver::bind(&mut agents, &ChurnPlan::none(), &ByzantineSet::none());
        let idx = driver.leader_index().expect("ranked run has a unique leader");
        assert_eq!(agents.protocol().rank_of(&agents.states()[idx]), Some(1));

        let mut counts = fresh_counts(n, 5);
        assert!(counts.run_until_stably_ranked(2_000_000, 0).is_converged());
        let driver = SteppedDriver::bind(&mut counts, &ChurnPlan::none(), &ByzantineSet::none());
        assert!(driver.is_ranked());
        assert_eq!(driver.leader_index(), None);
    }

    #[test]
    fn slice_respects_its_cap() {
        let n = 16;
        let mut agents = fresh(n, 9);
        let mut driver =
            SteppedDriver::bind(&mut agents, &ChurnPlan::none(), &ByzantineSet::none());
        assert_eq!(driver.slice(&mut agents, 100, u64::MAX), 100);
        assert_eq!(agents.interactions(), 100);
        // Budget exhausted → a pure boundary probe, no interactions.
        assert_eq!(driver.slice(&mut agents, 100, 100), 0);
    }
}
