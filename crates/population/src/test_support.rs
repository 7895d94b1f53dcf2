//! Fixtures shared by the crate's unit tests: a miniature ranking
//! protocol and seeded trial bodies for [`Runner::run`] on both backends.

use std::fmt::Debug;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::counts::BatchSimulation;
use crate::dynamics::{ByzantineSet, ChurnPlan, DynamicsReport, DynamicsTrialOutcome};
use crate::fault::{ChaosReport, ChaosTrialOutcome, Corruptor, FaultAction, FaultPlan, FaultSize};
use crate::metrics::{MetricsSink, NoopMetrics};
use crate::protocol::{Protocol, RankingProtocol};
use crate::runner::{Runner, TrialOutcome, TrialSeeds, TrialSettings};
use crate::simulation::{RunOutcome, Simulation};

/// Protocol 1 of the paper (Silent-n-state-SSR) in miniature: states are
/// ranks `0..n`, and a rank collision bumps the responder mod n, so it
/// ranks from any configuration.
#[derive(Clone, Debug)]
pub struct ModRank {
    pub n: usize,
}

impl Protocol for ModRank {
    type State = usize;
    const DETERMINISTIC_INTERACT: bool = true;
    fn interact(&self, a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
        if a == b {
            *b = (*b + 1) % self.n;
        }
    }
    fn is_null_pair(&self, a: &usize, b: &usize) -> bool {
        a != b
    }
}

impl RankingProtocol for ModRank {
    fn population_size(&self) -> usize {
        self.n
    }
    fn rank_of(&self, state: &usize) -> Option<usize> {
        Some(state + 1)
    }
}

impl Corruptor for ModRank {
    fn random_state(&self, rng: &mut SmallRng) -> usize {
        rng.gen_range(0..self.n)
    }
}

/// The states of [`FightProtocol`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Fight {
    Leader,
    Follower,
}

/// The one-transition leader-fight protocol: ℓ,ℓ → ℓ,f.
pub struct FightProtocol;

impl Protocol for FightProtocol {
    type State = Fight;
    const DETERMINISTIC_INTERACT: bool = true;
    fn interact(&self, a: &mut Fight, b: &mut Fight, _rng: &mut SmallRng) {
        if *a == Fight::Leader && *b == Fight::Leader {
            *b = Fight::Follower;
        }
    }
}

/// Population size of the shared trial fixtures.
pub const N: usize = 8;

/// The two engines every equivalence is checked on.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    Agents,
    Counts,
}
pub const BACKENDS: [Backend; 2] = [Backend::Agents, Backend::Counts];

/// A random start drawn from the trial's configuration RNG, so the
/// configuration seed matters as much as the execution seed.
pub fn start(s: TrialSeeds) -> Vec<usize> {
    let mut rng = s.config_rng();
    (0..N).map(|_| rng.gen_range(0..N)).collect()
}

/// A fault one unit of parallel time after the first stable ranking.
pub fn plan(s: TrialSeeds) -> FaultPlan {
    FaultPlan::new(s.trial).after_convergence(4, FaultAction::CorruptRandom(FaultSize::Exact(1)))
}

/// The deterministic part (wall times vary) of ranked trials from
/// random starts, each run with a fresh `M` sink attached.
pub fn ranked<M: MetricsSink + Default>(
    runner: &Runner,
    threads: usize,
    backend: Backend,
) -> Vec<(u64, usize, RunOutcome)> {
    let settings = *runner.settings();
    let body = |s: TrialSeeds| {
        let (p, initial, mut m) = (ModRank { n: N }, start(s), M::default());
        let t = match backend {
            Backend::Agents => {
                let mut sim = Simulation::new(p, initial, s.execution).with_metrics(&mut m);
                TrialOutcome::measure(s.trial, &mut sim, &settings)
            }
            Backend::Counts => {
                let mut sim = BatchSimulation::new(p, initial, s.execution).with_metrics(&mut m);
                TrialOutcome::measure(s.trial, &mut sim, &settings)
            }
        };
        (t.trial, t.n, t.outcome)
    };
    runner.run(threads, body, |_| {})
}

/// The reports of chaos trials from random starts, each run with a
/// fresh `M` sink attached.
pub fn chaos<M: MetricsSink + Default>(
    runner: &Runner,
    threads: usize,
    backend: Backend,
) -> Vec<(u64, ChaosReport)> {
    let budget = runner.settings().max_interactions;
    let body = |s: TrialSeeds| {
        let (p, initial, plan, mut m) = (ModRank { n: N }, start(s), plan(s), M::default());
        let t = match backend {
            Backend::Agents => {
                let sim = Simulation::new(p, initial, s.execution).with_metrics(&mut m);
                ChaosTrialOutcome::measure(s.trial, &mut sim.with_fault_plan(&plan), budget)
            }
            Backend::Counts => {
                let sim = BatchSimulation::new(p, initial, s.execution).with_metrics(&mut m);
                ChaosTrialOutcome::measure(s.trial, &mut sim.with_fault_plan(&plan), budget)
            }
        };
        (t.trial, t.report)
    };
    runner.run(threads, body, |_| {})
}

/// The reports of dynamics trials from random starts under `churn` and
/// `byzantine`.
pub fn dynamics(
    runner: &Runner,
    threads: usize,
    backend: Backend,
    churn: &ChurnPlan,
    byzantine: &ByzantineSet,
) -> Vec<(u64, DynamicsReport)> {
    let budget = runner.settings().max_interactions;
    let body = |s: TrialSeeds| {
        let (p, initial, plan) = (ModRank { n: N }, start(s), plan(s));
        let t = match backend {
            Backend::Agents => {
                let mut sim = Simulation::new(p, initial, s.execution).with_fault_plan(&plan);
                DynamicsTrialOutcome::measure(s.trial, &mut sim, churn, byzantine, budget)
            }
            Backend::Counts => {
                let mut sim = BatchSimulation::new(p, initial, s.execution).with_fault_plan(&plan);
                DynamicsTrialOutcome::measure(s.trial, &mut sim, churn, byzantine, budget)
            }
        };
        (t.trial, t.report)
    };
    runner.run(threads, body, |_| {})
}

/// What a trial runs to: a stable ranking, the end of a fault plan, or
/// the end of a churn-and-Byzantine soak.
#[derive(Debug, Clone, Copy)]
pub enum TrialKind {
    Ranked,
    Chaos,
    Dynamics,
}

/// Asserts that trials of `kind` on `backend` replay exactly and give the
/// same results, in trial order, on 1, 2, 3 and 5 workers.
pub fn assert_worker_count_invariant(kind: TrialKind, backend: Backend) {
    fn check<T: PartialEq + Debug>(case: String, run: impl Fn(usize) -> Vec<T>) {
        let sequential = run(1);
        assert_eq!(run(1), sequential, "{case} rerun");
        for threads in [2, 3, 5] {
            assert_eq!(run(threads), sequential, "{case} on {threads} threads");
        }
    }
    let case = format!("{kind:?} on {backend:?}");
    let runner = Runner::new(TrialSettings::new(7, 13, 1_000_000, 5));
    match kind {
        TrialKind::Ranked => check(case, |t| ranked::<NoopMetrics>(&runner, t, backend)),
        TrialKind::Chaos => check(case, |t| chaos::<NoopMetrics>(&runner, t, backend)),
        TrialKind::Dynamics => {
            let runner = Runner::new(TrialSettings::new(4, 99, 60_000, 0));
            let (churn, byzantine) =
                (ChurnPlan::parse("0.5", 31).unwrap(), ByzantineSet::new(0.1, 37));
            check(case, |t| dynamics(&runner, t, backend, &churn, &byzantine))
        }
    }
}
