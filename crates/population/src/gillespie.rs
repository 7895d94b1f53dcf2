//! Continuous-time (Gillespie) semantics.
//!
//! Population protocols are "a special-case variant" of stochastic chemical
//! reaction networks (the paper cites Gillespie's exact simulation
//! algorithm \[38\] and CRN computation \[53\]): agents are molecules,
//! interactions are bimolecular reactions. In the standard continuous-time
//! embedding each agent participates in interactions at rate Θ(1), i.e. the
//! whole population reacts at total rate `n`; the expected number of
//! interactions per time unit is then `n`, which is exactly why the paper's
//! discrete-time **parallel time** (interactions / n) is the right clock —
//! the two agree up to `O(√t)` fluctuations.
//!
//! [`GillespieSimulation`] wraps [`Simulation`] with an exponential clock so
//! protocols can be run under chemical semantics, and so the
//! parallel-time/continuous-time agreement can be verified empirically
//! (see the tests and the `chemical_reactions` example).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::graph::InteractionGraph;
use crate::protocol::Protocol;
use crate::runner::rng_from_seed;
use crate::simulation::{RunOutcome, Simulation};

/// A continuous-time execution: the embedded jump chain is the ordinary
/// uniform-scheduler simulation, with i.i.d. `Exponential(n)` holding times
/// between interactions.
#[derive(Debug, Clone)]
pub struct GillespieSimulation<P: Protocol> {
    inner: Simulation<P>,
    clock_rng: SmallRng,
    time: f64,
}

impl<P: Protocol> GillespieSimulation<P> {
    /// Creates a continuous-time execution on the complete graph.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64) -> Self {
        Self::with_graph(protocol, initial, InteractionGraph::Complete, seed)
    }

    /// Creates a continuous-time execution on an arbitrary graph.
    ///
    /// # Panics
    ///
    /// As for [`Simulation::with_graph`].
    pub fn with_graph(
        protocol: P,
        initial: Vec<P::State>,
        graph: InteractionGraph,
        seed: u64,
    ) -> Self {
        GillespieSimulation {
            inner: Simulation::with_graph(protocol, initial, graph, seed),
            clock_rng: rng_from_seed(seed ^ 0x9e37_79b9_7f4a_7c15),
            time: 0.0,
        }
    }

    /// The wrapped discrete simulation.
    pub fn inner(&self) -> &Simulation<P> {
        &self.inner
    }

    /// The current configuration.
    pub fn states(&self) -> &[P::State] {
        self.inner.states()
    }

    /// Continuous (chemical) time elapsed.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Discrete parallel time elapsed (interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.inner.parallel_time()
    }

    /// Interactions (reactions) fired so far.
    pub fn interactions(&self) -> u64 {
        self.inner.interactions()
    }

    /// Fires one reaction: advances the exponential clock, then performs one
    /// scheduler-chosen interaction. Returns the interacting pair.
    pub fn step(&mut self) -> (usize, usize) {
        let n = self.inner.population_size() as f64;
        let u: f64 = self.clock_rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.time += -u.ln() / n;
        self.inner.step()
    }

    /// Runs until `goal` holds or continuous time reaches `max_time`;
    /// reports the outcome in terms of interactions (use [`Self::time`] for
    /// the final continuous time).
    pub fn run_until(
        &mut self,
        max_time: f64,
        mut goal: impl FnMut(&[P::State]) -> bool,
    ) -> RunOutcome {
        loop {
            if goal(self.inner.states()) {
                return RunOutcome::Converged { interactions: self.inner.interactions() };
            }
            if self.time >= max_time {
                return RunOutcome::Exhausted { interactions: self.inner.interactions() };
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{Fight, FightProtocol};

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = GillespieSimulation::new(FightProtocol, vec![Fight::Leader; 8], 1);
        let mut prev = sim.time();
        assert_eq!(prev, 0.0);
        for _ in 0..100 {
            sim.step();
            assert!(sim.time() > prev);
            prev = sim.time();
        }
        assert_eq!(sim.interactions(), 100);
    }

    #[test]
    fn continuous_time_tracks_parallel_time() {
        // After many reactions, continuous time and interactions/n agree to
        // within CLT fluctuations (relative error ~ 1/√steps).
        let n = 50;
        let mut sim = GillespieSimulation::new(FightProtocol, vec![Fight::Follower; n], 2);
        let steps = 200_000u64;
        for _ in 0..steps {
            sim.step();
        }
        let rel = (sim.time() - sim.parallel_time()).abs() / sim.parallel_time();
        assert!(rel < 0.02, "continuous {} vs parallel {}", sim.time(), sim.parallel_time());
    }

    #[test]
    fn run_until_respects_the_time_budget() {
        let mut sim = GillespieSimulation::new(FightProtocol, vec![Fight::Follower; 8], 3);
        let outcome = sim.run_until(5.0, |_| false);
        assert!(!outcome.is_converged());
        assert!(sim.time() >= 5.0);
        assert!(sim.time() < 10.0, "should stop promptly after the deadline");
    }

    #[test]
    fn leader_fight_converges_under_chemical_semantics() {
        let n = 40;
        let mut sim = GillespieSimulation::new(FightProtocol, vec![Fight::Leader; n], 4);
        let outcome = sim
            .run_until(1e6, |states| states.iter().filter(|s| **s == Fight::Leader).count() == 1);
        assert!(outcome.is_converged());
        // ℓ,ℓ → ℓ,f from all-ℓ takes Θ(n) time in either clock.
        assert!(sim.time() > 1.0 && sim.time() < 100.0 * n as f64);
    }

    #[test]
    fn gillespie_agrees_with_discrete_parallel_time_on_the_epidemic() {
        // The continuous clock and interactions/n are the same clock in
        // expectation: on the 2-state one-way epidemic, the mean completion
        // time under Gillespie semantics must match the mean discrete
        // parallel time (Θ(log n) ≈ 13 time units at n = 200; the two
        // estimates share neither seeds nor trajectories, so agreement is
        // statistical — means over 20 trials land well inside 15%).
        use crate::epidemic::{Infection, OneWayEpidemic};
        let n = 200;
        let trials = 20u64;
        let all_infected = |states: &[Infection]| states.iter().all(|s| *s == Infection::Infected);
        let mut continuous_sum = 0.0;
        let mut discrete_sum = 0.0;
        for s in 0..trials {
            let initial = OneWayEpidemic::seeded_configuration(n);
            let mut cont = GillespieSimulation::new(OneWayEpidemic, initial.clone(), s);
            let outcome = cont.run_until(1e9, |states| all_infected(states));
            assert!(outcome.is_converged());
            continuous_sum += cont.time();

            let mut disc = Simulation::new(OneWayEpidemic, initial, 10_000 + s);
            let outcome = disc.run_until(u64::MAX, |states| all_infected(states));
            assert!(outcome.is_converged());
            discrete_sum += disc.parallel_time();
        }
        let continuous_mean = continuous_sum / trials as f64;
        let discrete_mean = discrete_sum / trials as f64;
        let rel = (continuous_mean - discrete_mean).abs() / discrete_mean;
        assert!(
            rel < 0.15,
            "Gillespie mean {continuous_mean} vs discrete mean {discrete_mean} (rel {rel})"
        );
    }

    #[test]
    fn jump_chain_is_the_discrete_scheduler() {
        // The embedded discrete chain must be identical to a plain
        // Simulation with the same seed.
        let mut cont = GillespieSimulation::new(FightProtocol, vec![Fight::Leader; 10], 7);
        let mut disc = Simulation::new(FightProtocol, vec![Fight::Leader; 10], 7);
        for _ in 0..1000 {
            cont.step();
            disc.step();
        }
        assert_eq!(cont.states(), disc.states());
    }
}
