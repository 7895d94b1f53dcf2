//! Property-based tests for the simulation engine.

use population::runner::{derive_seed, rng_from_seed};
use population::scheduler::Scheduler;
use population::{
    InteractionGraph, Protocol, RankTracker, RankingProtocol, RunOutcome, SchedulerPolicy,
    Simulation,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Ranks by collision: an unranked initiator, or a responder sharing the
/// initiator's rank, draws a fresh rank at random. Silent once ranked, and
/// its transitions draw from the simulation RNG, so a changed draw order
/// shows in the final states.
struct Collide(usize);

impl Protocol for Collide {
    type State = Option<usize>;
    fn interact(&self, a: &mut Option<usize>, b: &mut Option<usize>, rng: &mut SmallRng) {
        if a.is_none() {
            *a = Some(rng.gen_range(1..=self.0));
        } else if a == b {
            *b = Some(rng.gen_range(1..=self.0));
        }
    }
}

impl RankingProtocol for Collide {
    fn population_size(&self) -> usize {
        self.0
    }
    fn rank_of(&self, state: &Option<usize>) -> Option<usize> {
        *state
    }
}

/// The uniform scheduler behind a policy that does not call itself
/// uniform-complete, so the engine draws through `sample_at`.
struct Opaque(Scheduler);

impl SchedulerPolicy for Opaque {
    fn label(&self) -> &'static str {
        "opaque"
    }
    fn population_size(&self) -> usize {
        self.0.population_size()
    }
    fn sample_at<R: RngCore>(&self, rng: &mut R, _: u64) -> (usize, usize) {
        self.0.sample_pair(rng)
    }
}

/// Reference implementation of rank-correctness for cross-checking the
/// incremental tracker.
fn naive_is_correct(outputs: &[Option<usize>], n: usize) -> bool {
    let mut counts = vec![0u32; n];
    for &o in outputs {
        match o {
            Some(r) if (1..=n).contains(&r) => counts[r - 1] += 1,
            Some(_) => return false,
            None => {}
        }
    }
    counts.iter().all(|&c| c == 1)
}

proptest! {
    #[test]
    fn tracker_matches_naive_recomputation(
        n in 1usize..12,
        ops in prop::collection::vec((0usize..8, prop::option::of(1usize..12)), 0..200),
    ) {
        // Agents 0..8 each hold an output; ops reassign them arbitrarily.
        let agents = 8;
        let mut outputs: Vec<Option<usize>> = vec![None; agents];
        let mut tracker = RankTracker::new(n);
        for _ in 0..agents {
            tracker.add(None);
        }
        for (agent, new) in ops {
            let new = new.filter(|r| *r <= n); // stay in the tracker's domain
            tracker.update(outputs[agent], new);
            outputs[agent] = new;
            prop_assert_eq!(tracker.is_correct(), naive_is_correct(&outputs, n));
        }
    }

    #[test]
    fn scheduler_samples_are_valid_for_any_graph(
        n in 2usize..20,
        ring in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let graph = if ring { InteractionGraph::Ring } else { InteractionGraph::Complete };
        let s = Scheduler::new(n, graph);
        let mut rng = rng_from_seed(seed);
        for _ in 0..200 {
            let (i, j) = s.sample_pair(&mut rng);
            prop_assert!(i < n && j < n && i != j);
        }
    }

    #[test]
    fn executions_are_deterministic_in_the_seed(seed in any::<u64>(), n in 2usize..16, steps in 0u64..500) {
        #[derive(Clone, Debug, PartialEq)]
        struct S(u64);
        struct Mix;
        impl Protocol for Mix {
            type State = S;
            fn interact(&self, a: &mut S, b: &mut S, rng: &mut SmallRng) {
                use rand::Rng;
                let x: u64 = rng.gen();
                a.0 = a.0.wrapping_mul(31).wrapping_add(x);
                b.0 = b.0.rotate_left(7) ^ x;
            }
        }
        let init: Vec<S> = (0..n as u64).map(S).collect();
        let mut sim1 = Simulation::new(Mix, init.clone(), seed);
        let mut sim2 = Simulation::new(Mix, init, seed);
        sim1.run(steps);
        sim2.run(steps);
        prop_assert_eq!(sim1.states(), sim2.states());
        prop_assert_eq!(sim1.interactions(), steps);
    }

    /// The stable-ranking loop asks its goal only when a rank changes; a
    /// budgeted run of the same length must end on the same configuration
    /// and RNG position, with pairs drawn through the policy instead of the
    /// loop's own complete-graph draw.
    #[test]
    fn stably_ranked_runs_replay_as_budgeted_runs(
        seed in any::<u64>(),
        n in 2usize..64,
        budget in 0u64..100_000,
        window in 0u64..300,
        hits in 0usize..5,
        ring in any::<bool>(),
    ) {
        // A permutation with a few agents overwritten: some runs converge
        // within the budget, the others exhaust it.
        let mut rng = rng_from_seed(seed ^ 0x5eed);
        let mut initial: Vec<Option<usize>> = (1..=n).map(Some).collect();
        for _ in 0..hits {
            let agent = rng.gen_range(0..n);
            initial[agent] = rng.gen_bool(0.8).then(|| rng.gen_range(1..=n));
        }
        let graph = if ring { InteractionGraph::Ring } else { InteractionGraph::Complete };
        let mut ranked = Simulation::with_graph(Collide(n), initial.clone(), graph.clone(), seed);
        let outcome = ranked.run_until_stably_ranked(budget, window);
        let k = ranked.interactions();
        match outcome {
            RunOutcome::Converged { interactions } => {
                prop_assert_eq!(k, interactions + window);
                prop_assert!(ranked.is_ranked());
            }
            RunOutcome::Exhausted { interactions } => prop_assert_eq!(k, interactions.max(budget)),
        }
        let policy = Opaque(Scheduler::new(n, graph));
        let mut budgeted = Simulation::with_policy(Collide(n), initial, policy, seed);
        budgeted.run(k);
        prop_assert_eq!(budgeted.interactions(), k);
        prop_assert_eq!(budgeted.rng_state(), ranked.rng_state());
        prop_assert_eq!(budgeted.states(), ranked.states());
    }

    #[test]
    fn derived_seeds_do_not_collide_locally(base in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for trial in 0..1000u64 {
            prop_assert!(seen.insert(derive_seed(base, trial)), "collision at trial {}", trial);
        }
    }

    #[test]
    fn interaction_counter_only_counts_pair_updates(n in 2usize..10, steps in 0u64..200) {
        // Every interaction touches exactly two agents: with a protocol that
        // increments both participants, the grand total is 2 × interactions.
        #[derive(Clone, Debug)]
        struct C(u64);
        struct Inc2;
        impl Protocol for Inc2 {
            type State = C;
            fn interact(&self, a: &mut C, b: &mut C, _rng: &mut SmallRng) {
                a.0 += 1;
                b.0 += 1;
            }
        }
        let mut sim = Simulation::new(Inc2, vec![C(0); n], 5);
        sim.run(steps);
        let total: u64 = sim.states().iter().map(|c| c.0).sum();
        prop_assert_eq!(total, 2 * steps);
    }
}
