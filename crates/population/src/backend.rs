//! One interface over the two simulation backends.
//!
//! [`SimulationBackend`] abstracts what an execution driver needs —
//! advancing by interactions, goal-directed runs, stable-ranking and chaos
//! runs, counting agents — so experiment code (the CLI, the scaling-frontier
//! bench, equivalence tests) can be written once and instantiated with
//! either the agent-array [`Simulation`] or the count-based
//! [`BatchSimulation`].
//!
//! The two backends realize the **same stochastic process** (on the
//! complete graph; see [`crate::counts`] for the lumping argument) but
//! consume randomness differently, so for a fixed seed they produce
//! different — identically distributed — trajectories. Equivalence between
//! them is therefore a statistical statement, checked by the
//! `backend_equivalence` integration tests, not a bitwise one.

use std::hash::Hash;

use crate::counts::{BatchSimulation, CountConfig};
use crate::fault::{ChaosReport, Corruptor, FaultSchedule};
use crate::metrics::MetricsSink;
use crate::observer::Observer;
use crate::protocol::{Protocol, RankingProtocol};
use crate::scheduler::SchedulerPolicy;
use crate::simulation::{RunOutcome, Simulation};

/// Operations every simulation backend supports.
///
/// Goal predicates are phrased over per-agent states (`state_pred`) with a
/// target count, rather than over raw configurations, because that is the
/// common language of the two representations: the agent backend counts
/// matching agents, the count backend sums matching counts.
pub trait SimulationBackend<P: Protocol> {
    /// Stable backend name for records and reports (`"agents"`, `"counts"`).
    const NAME: &'static str;

    /// Number of agents.
    fn population_size(&self) -> usize;

    /// Interactions performed so far.
    fn interactions(&self) -> u64;

    /// Parallel time elapsed (interactions / n).
    fn parallel_time(&self) -> f64 {
        self.interactions() as f64 / self.population_size() as f64
    }

    /// Runs exactly `k` further interactions.
    fn run(&mut self, k: u64);

    /// Runs until exactly `target` agents satisfy `pred`, or until the
    /// total interaction count reaches `max_interactions`.
    ///
    /// On the count backend the goal is checked at batch boundaries, so the
    /// reported convergence point may overshoot by `O(√n)` interactions
    /// (`O(1/√n)` parallel time); the agent backend checks every
    /// interaction.
    fn run_until_state_count(
        &mut self,
        max_interactions: u64,
        pred: &mut dyn FnMut(&P::State) -> bool,
        target: u64,
    ) -> RunOutcome;

    /// Runs to a stable ranking (see
    /// [`Simulation::run_until_stably_ranked`]); both backends check every
    /// interaction, with identical convergence semantics.
    fn run_until_stably_ranked(&mut self, max_interactions: u64, confirm_window: u64) -> RunOutcome
    where
        P: RankingProtocol;

    /// Runs under the attached fault schedule, measuring recovery and
    /// availability (see [`Simulation::run_chaos`]).
    fn run_chaos(&mut self, max_interactions: u64) -> ChaosReport
    where
        P: Corruptor;

    /// The current configuration compressed to state counts.
    fn state_counts(&self) -> CountConfig<P::State>
    where
        P::State: Eq + Hash;
}

impl<P, O, F, S, M> SimulationBackend<P> for Simulation<P, O, F, S, M>
where
    P: Protocol,
    O: Observer<P>,
    F: FaultSchedule<P>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    const NAME: &'static str = "agents";

    fn population_size(&self) -> usize {
        self.population_size()
    }

    fn interactions(&self) -> u64 {
        self.interactions()
    }

    fn run(&mut self, k: u64) {
        Simulation::run(self, k);
    }

    fn run_until_state_count(
        &mut self,
        max_interactions: u64,
        pred: &mut dyn FnMut(&P::State) -> bool,
        target: u64,
    ) -> RunOutcome {
        Simulation::run_until(self, max_interactions, |states| {
            states.iter().filter(|s| pred(s)).count() as u64 == target
        })
    }

    fn run_until_stably_ranked(&mut self, max_interactions: u64, confirm_window: u64) -> RunOutcome
    where
        P: RankingProtocol,
    {
        Simulation::run_until_stably_ranked(self, max_interactions, confirm_window)
    }

    fn run_chaos(&mut self, max_interactions: u64) -> ChaosReport
    where
        P: Corruptor,
    {
        Simulation::run_chaos(self, max_interactions)
    }

    fn state_counts(&self) -> CountConfig<P::State>
    where
        P::State: Eq + Hash,
    {
        CountConfig::from_states(self.states())
    }
}

impl<P, O, F, M> SimulationBackend<P> for BatchSimulation<P, O, F, M>
where
    P: Protocol,
    P::State: Eq + Hash,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    const NAME: &'static str = "counts";

    fn population_size(&self) -> usize {
        self.population_size()
    }

    fn interactions(&self) -> u64 {
        self.interactions()
    }

    fn run(&mut self, k: u64) {
        BatchSimulation::run(self, k);
    }

    fn run_until_state_count(
        &mut self,
        max_interactions: u64,
        pred: &mut dyn FnMut(&P::State) -> bool,
        target: u64,
    ) -> RunOutcome {
        BatchSimulation::run_until(self, max_interactions, |counts| {
            counts.iter().filter(|(s, _)| pred(s)).map(|(_, c)| c).sum::<u64>() == target
        })
    }

    fn run_until_stably_ranked(&mut self, max_interactions: u64, confirm_window: u64) -> RunOutcome
    where
        P: RankingProtocol,
    {
        BatchSimulation::run_until_stably_ranked(self, max_interactions, confirm_window)
    }

    fn run_chaos(&mut self, max_interactions: u64) -> ChaosReport
    where
        P: Corruptor,
    {
        BatchSimulation::run_chaos(self, max_interactions)
    }

    fn state_counts(&self) -> CountConfig<P::State>
    where
        P::State: Eq + Hash,
    {
        self.counts().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{Fight, FightProtocol};

    /// The generic driver the trait exists for: run any backend to a unique
    /// leader.
    fn elect<B: SimulationBackend<FightProtocol>>(sim: &mut B, budget: u64) -> RunOutcome {
        sim.run_until_state_count(budget, &mut |s| *s == Fight::Leader, 1)
    }

    #[test]
    fn both_backends_elect_through_the_trait() {
        let n = 64;
        let mut agents = Simulation::new(FightProtocol, vec![Fight::Leader; n], 9);
        let mut counts = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 9);
        assert!(elect(&mut agents, 200_000).is_converged());
        assert!(elect(&mut counts, 200_000).is_converged());
        assert_eq!(agents.state_counts().count_of(&Fight::Leader), 1);
        assert_eq!(counts.state_counts().count_of(&Fight::Leader), 1);
        assert!(SimulationBackend::parallel_time(&agents) > 0.0);
        assert!(SimulationBackend::parallel_time(&counts) > 0.0);
        assert_eq!(<Simulation<FightProtocol> as SimulationBackend<FightProtocol>>::NAME, "agents");
        assert_eq!(
            <BatchSimulation<FightProtocol> as SimulationBackend<FightProtocol>>::NAME,
            "counts"
        );
    }

    #[test]
    fn run_advances_exactly_k_interactions_on_both() {
        let n = 32;
        let mut agents = Simulation::new(FightProtocol, vec![Fight::Leader; n], 4);
        let mut counts = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 4);
        SimulationBackend::run(&mut agents, 777);
        SimulationBackend::run(&mut counts, 777);
        assert_eq!(SimulationBackend::interactions(&agents), 777);
        assert_eq!(SimulationBackend::interactions(&counts), 777);
        assert_eq!(agents.state_counts().population(), counts.state_counts().population(),);
    }
}
