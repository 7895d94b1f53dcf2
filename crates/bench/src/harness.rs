//! Trial-batch measurement of stabilization times.
//!
//! Each protocol has two measurement entry points: `measure_*` returning the
//! statistical [`ConvergenceSample`] the text tables summarize, and
//! `measure_*_trials` returning full per-trial [`TrialOutcome`]s (outcome +
//! wall time) from which JSONL experiment records are built via
//! [`TrialOutcome::to_record`]. The `_trials` variants take a worker-thread
//! count; per-trial seeding makes the outcomes independent of it.

use std::time::Instant;

use population::{
    AnyScheduler, BatchSimulation, ChaosTrialOutcome, ConvergenceSample, Corruptor, FaultAction,
    FaultPlan, FaultSize, NoFaults, NoopObserver, Protocol, RankingProtocol, Reliability,
    RunOutcome, Runner, Simulation, SimulationBackend, TrialOutcome, TrialSettings,
};
use rand::rngs::SmallRng;
use rand::Rng;
use ssle::adversary;
use ssle::cai_izumi_wada::{CaiIzumiWada, CiwState};
use ssle::optimal_silent::{OptimalSilentSsr, OssState};
use ssle::sublinear::{SubState, SublinearTimeSsr};

/// Starting configuration family for Silent-n-state-SSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiwStart {
    /// Independent uniform random ranks per agent.
    Random,
    /// The Ω(n²) barrier configuration (two agents at rank 0, none at the
    /// top rank).
    Barrier,
    /// All agents at rank 0.
    AllZero,
}

/// Starting configuration family for Optimal-Silent-SSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OssStart {
    /// Independent uniform random roles and fields per agent.
    Random,
    /// Every agent settled at rank 1 (maximal rank collision).
    AllRankOne,
    /// The Observation 2.2 configuration (silent + duplicated leader state).
    DuplicatedLeader,
}

/// Starting configuration family for Sublinear-Time-SSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubStart {
    /// Independent random roles, names, rosters, and history trees.
    Random,
    /// Unique names — the clean fast path (no reset needed).
    UniqueNames,
    /// Unique names except one planted duplicate — exercises
    /// Detect-Name-Collision end to end.
    PlantedCollision,
    /// Unique names but every roster contains a ghost name.
    GhostName,
}

/// Interaction budget per trial for a quadratic-time protocol.
fn quadratic_budget(n: usize) -> u64 {
    // Θ(n²) parallel time ⇒ Θ(n³) interactions; ×40 headroom for WHP tails.
    40 * (n as u64).pow(3)
}

/// Interaction budget per trial for a linear-time protocol.
fn linear_budget(n: usize) -> u64 {
    // Θ(n) parallel time ⇒ Θ(n²) interactions; generous headroom because a
    // failed in-reset leader election costs a full extra round.
    400 * (n as u64).pow(2)
}

/// Interaction budget per trial for the sublinear protocol.
fn sublinear_budget(n: usize) -> u64 {
    // Θ(n^{1/(H+1)} (≤ √n) parallel time ⇒ well under n²; keep linear-scale
    // headroom so repeated resets cannot exhaust the budget spuriously.
    400 * (n as u64).pow(2)
}

/// Settings for a ranked measurement: the confirmation window is four
/// parallel-time units.
fn settings(n: usize, trials: u64, base_seed: u64, budget: u64) -> TrialSettings {
    TrialSettings::new(trials, base_seed, budget, 4 * n as u64)
}

/// Silent-n-state-SSR and its `start` configuration.
fn ciw_start(n: usize, start: CiwStart, rng: &mut SmallRng) -> (CaiIzumiWada, Vec<CiwState>) {
    let protocol = CaiIzumiWada::new(n);
    let initial = match start {
        CiwStart::Random => adversary::random_ciw_configuration(&protocol, rng),
        CiwStart::Barrier => protocol.worst_case_configuration(),
        CiwStart::AllZero => vec![CiwState::new(0); n],
    };
    (protocol, initial)
}

/// Optimal-Silent-SSR and its `start` configuration.
fn oss_start(n: usize, start: OssStart, rng: &mut SmallRng) -> (OptimalSilentSsr, Vec<OssState>) {
    let protocol = OptimalSilentSsr::new(n);
    let initial = match start {
        OssStart::Random => adversary::random_oss_configuration(&protocol, rng),
        OssStart::AllRankOne => vec![OssState::settled(1, 0); n],
        OssStart::DuplicatedLeader => adversary::observation_2_2_configuration(&protocol),
    };
    (protocol, initial)
}

/// Sublinear-Time-SSR (depth `h`) and its `start` configuration.
fn sub_start(
    n: usize,
    h: u32,
    start: SubStart,
    rng: &mut SmallRng,
) -> (SublinearTimeSsr, Vec<SubState>) {
    let protocol = SublinearTimeSsr::new(n, h);
    let initial = match start {
        SubStart::Random => adversary::random_sublinear_configuration(&protocol, rng),
        SubStart::UniqueNames => adversary::unique_names_configuration(&protocol),
        SubStart::PlantedCollision => adversary::planted_collision_configuration(&protocol),
        SubStart::GhostName => adversary::ghost_name_configuration(&protocol),
    };
    (protocol, initial)
}

/// Runs ranked trials over `threads` workers: `start` draws each trial's
/// protocol and configuration from its config RNG, `build` puts them on a
/// backend seeded with the trial's execution seed.
fn ranked_trials<P, B>(
    settings: TrialSettings,
    threads: usize,
    start: impl Fn(&mut SmallRng) -> (P, Vec<P::State>) + Sync,
    build: impl Fn(P, Vec<P::State>, u64) -> B + Sync,
) -> Vec<TrialOutcome>
where
    P: RankingProtocol,
    B: SimulationBackend<P>,
{
    Runner::new(settings).run(
        threads,
        |s| {
            let (protocol, initial) = start(&mut s.config_rng());
            TrialOutcome::measure(s.trial, &mut build(protocol, initial, s.execution), &settings)
        },
        |_| {},
    )
}

/// A [`ranked_trials`] builder for the agent array under the scheduler
/// `spec` (see [`AnyScheduler::from_spec`]) and omission rate `omission`.
///
/// # Panics
///
/// The builder panics on a malformed scheduler spec.
fn scheduled<P: Protocol>(
    spec: &str,
    omission: f64,
) -> impl Fn(P, Vec<P::State>, u64) -> Simulation<P, NoopObserver, NoFaults, AnyScheduler> + Sync + '_
{
    move |protocol, initial, seed| {
        let policy =
            AnyScheduler::from_spec(spec, initial.len()).expect("scheduler spec validated");
        Simulation::with_policy(protocol, initial, policy, seed)
            .with_reliability(Reliability::with_omission(omission))
    }
}

/// Measures Silent-n-state-SSR stabilization times with the **exact jump
/// chain** ([`ssle::ciw_fast`]) instead of the generic engine — identical
/// distribution, Θ(n) fewer scheduler draws, enabling the Θ(n²) baseline at
/// large `n`.
pub fn measure_ciw_fast(
    n: usize,
    start: CiwStart,
    trials: u64,
    base_seed: u64,
) -> ConvergenceSample {
    ConvergenceSample::from_trials(&measure_ciw_fast_trials(n, start, trials, base_seed))
}

/// Per-trial variant of [`measure_ciw_fast`] (see the module docs).
///
/// The jump chain is sequential per trial and cheap; it does not take a
/// thread count.
pub fn measure_ciw_fast_trials(
    n: usize,
    start: CiwStart,
    trials: u64,
    base_seed: u64,
) -> Vec<TrialOutcome> {
    use ssle::ciw_fast::{stabilization_interactions, CiwCounts};
    // The jump chain always runs to stabilization: no budget applies.
    Runner::new(settings(n, trials, base_seed, u64::MAX)).run(
        1,
        |s| {
            let (_, initial) = ciw_start(n, start, &mut s.config_rng());
            let started = Instant::now();
            let interactions =
                stabilization_interactions(CiwCounts::from_states(&initial), s.execution);
            TrialOutcome {
                trial: s.trial,
                n,
                outcome: RunOutcome::Converged { interactions },
                wall: started.elapsed(),
            }
        },
        |_| {},
    )
}

/// Measures Silent-n-state-SSR stabilization times over `trials` runs.
pub fn measure_ciw(n: usize, start: CiwStart, trials: u64, base_seed: u64) -> ConvergenceSample {
    ConvergenceSample::from_trials(&measure_ciw_trials(n, start, trials, base_seed, 1))
}

/// Per-trial variant of [`measure_ciw`] over `threads` workers.
pub fn measure_ciw_trials(
    n: usize,
    start: CiwStart,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    ranked_trials(
        settings(n, trials, base_seed, quadratic_budget(n)),
        threads,
        |rng| ciw_start(n, start, rng),
        Simulation::new,
    )
}

/// Measures Optimal-Silent-SSR stabilization times over `trials` runs.
pub fn measure_oss(n: usize, start: OssStart, trials: u64, base_seed: u64) -> ConvergenceSample {
    ConvergenceSample::from_trials(&measure_oss_trials(n, start, trials, base_seed, 1))
}

/// Per-trial variant of [`measure_oss`] over `threads` workers.
pub fn measure_oss_trials(
    n: usize,
    start: OssStart,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    ranked_trials(
        settings(n, trials, base_seed, linear_budget(n)),
        threads,
        |rng| oss_start(n, start, rng),
        Simulation::new,
    )
}

/// [`measure_ciw_trials`] on the count-based backend: same protocol, same
/// start families, same per-trial seed derivation, executed by
/// [`population::BatchSimulation`] instead of the agent array. The two
/// backends consume randomness differently, so per-trial outcomes differ,
/// but the convergence-time *distributions* agree (see the
/// `backend_equivalence` test suite).
pub fn measure_ciw_counts_trials(
    n: usize,
    start: CiwStart,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    ranked_trials(
        settings(n, trials, base_seed, quadratic_budget(n)),
        threads,
        |rng| ciw_start(n, start, rng),
        BatchSimulation::new,
    )
}

/// [`measure_oss_trials`] on the count-based backend (see
/// [`measure_ciw_counts_trials`] for the equivalence contract).
pub fn measure_oss_counts_trials(
    n: usize,
    start: OssStart,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    ranked_trials(
        settings(n, trials, base_seed, linear_budget(n)),
        threads,
        |rng| oss_start(n, start, rng),
        BatchSimulation::new,
    )
}

/// Measures Sublinear-Time-SSR (depth `h`) stabilization times over
/// `trials` runs.
pub fn measure_sublinear(
    n: usize,
    h: u32,
    start: SubStart,
    trials: u64,
    base_seed: u64,
) -> ConvergenceSample {
    ConvergenceSample::from_trials(&measure_sublinear_trials(n, h, start, trials, base_seed, 1))
}

/// Per-trial variant of [`measure_sublinear`] over `threads` workers.
pub fn measure_sublinear_trials(
    n: usize,
    h: u32,
    start: SubStart,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    ranked_trials(
        settings(n, trials, base_seed, sublinear_budget(n)),
        threads,
        |rng| sub_start(n, h, start, rng),
        Simulation::new,
    )
}

/// Interaction budget for a robustness run: omission thins effective
/// interactions by `1 - omission` and non-uniform schedulers slow epidemics
/// by a policy-dependent constant, so the uniform budget is inflated by
/// `4 / (1 - omission)`.
///
/// # Panics
///
/// Panics unless `omission` lies in `[0, 1)`.
fn robustness_budget(base: u64, omission: f64) -> u64 {
    assert!((0.0..1.0).contains(&omission), "omission {omission} outside [0, 1)");
    (base as f64 * 4.0 / (1.0 - omission)).ceil() as u64
}

/// [`measure_ciw_trials`] under an explicit scheduler policy and omission
/// rate: the same protocol and start families, executed on the agent-array
/// backend with pairs drawn by `scheduler` (a spec accepted by
/// [`AnyScheduler::from_spec`]) and each interaction silently dropped with
/// probability `omission`.
///
/// # Panics
///
/// Panics if the scheduler spec is malformed or `omission` is outside
/// `[0, 1)` — callers (the CLI, the robustness bench) validate both first.
pub fn measure_ciw_scheduled_trials(
    n: usize,
    start: CiwStart,
    scheduler: &str,
    omission: f64,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    let budget = robustness_budget(quadratic_budget(n), omission);
    ranked_trials(
        settings(n, trials, base_seed, budget),
        threads,
        |rng| ciw_start(n, start, rng),
        scheduled(scheduler, omission),
    )
}

/// [`measure_oss_trials`] under an explicit scheduler policy and omission
/// rate (see [`measure_ciw_scheduled_trials`]).
///
/// # Panics
///
/// Panics on a malformed scheduler spec or an omission rate outside
/// `[0, 1)`.
pub fn measure_oss_scheduled_trials(
    n: usize,
    start: OssStart,
    scheduler: &str,
    omission: f64,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    let budget = robustness_budget(linear_budget(n), omission);
    ranked_trials(
        settings(n, trials, base_seed, budget),
        threads,
        |rng| oss_start(n, start, rng),
        scheduled(scheduler, omission),
    )
}

/// [`measure_sublinear_trials`] under an explicit scheduler policy and
/// omission rate (see [`measure_ciw_scheduled_trials`]).
///
/// # Panics
///
/// Panics on a malformed scheduler spec or an omission rate outside
/// `[0, 1)`.
#[allow(clippy::too_many_arguments)] // the sublinear depth `h` pushes past 7
pub fn measure_sublinear_scheduled_trials(
    n: usize,
    h: u32,
    start: SubStart,
    scheduler: &str,
    omission: f64,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<TrialOutcome> {
    let budget = robustness_budget(sublinear_budget(n), omission);
    ranked_trials(
        settings(n, trials, base_seed, budget),
        threads,
        |rng| sub_start(n, h, start, rng),
        scheduled(scheduler, omission),
    )
}

/// Runs recovery trials: stabilize from `start`'s configuration, wait one
/// unit of parallel time, then corrupt `size` agents.
///
/// The single run therefore measures **both** quantities of interest: the
/// full-stabilization time (first stable ranking) and the recovery time
/// (the fault's injection-to-reranking gap).
fn recovery_trials<P: Corruptor>(
    settings: TrialSettings,
    threads: usize,
    size: FaultSize,
    start: impl Fn(&mut SmallRng) -> (P, Vec<P::State>) + Sync,
) -> Vec<ChaosTrialOutcome> {
    Runner::new(settings).run(
        threads,
        |s| {
            let mut rng = s.config_rng();
            let (protocol, initial) = start(&mut rng);
            let plan = FaultPlan::new(rng.gen())
                .after_convergence(initial.len() as u64, FaultAction::CorruptRandom(size));
            let mut sim = Simulation::new(protocol, initial, s.execution).with_fault_plan(&plan);
            ChaosTrialOutcome::measure(s.trial, &mut sim, settings.max_interactions)
        },
        |_| {},
    )
}

/// Measures Silent-n-state-SSR recovery from a `size`-agent corruption
/// injected one parallel-time unit after stabilization.
pub fn measure_recovery_ciw_trials(
    n: usize,
    size: FaultSize,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<ChaosTrialOutcome> {
    recovery_trials(settings(n, trials, base_seed, quadratic_budget(n)), threads, size, |rng| {
        ciw_start(n, CiwStart::Random, rng)
    })
}

/// Measures Optimal-Silent-SSR recovery from a `size`-agent corruption
/// injected one parallel-time unit after stabilization.
pub fn measure_recovery_oss_trials(
    n: usize,
    size: FaultSize,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<ChaosTrialOutcome> {
    recovery_trials(settings(n, trials, base_seed, linear_budget(n)), threads, size, |rng| {
        oss_start(n, OssStart::Random, rng)
    })
}

/// Measures Sublinear-Time-SSR recovery from a `size`-agent corruption
/// injected one parallel-time unit after stabilization.
pub fn measure_recovery_sublinear_trials(
    n: usize,
    h: u32,
    size: FaultSize,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<ChaosTrialOutcome> {
    recovery_trials(settings(n, trials, base_seed, sublinear_budget(n)), threads, size, |rng| {
        sub_start(n, h, SubStart::Random, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ciw_measurement_converges_at_small_n() {
        let s = measure_ciw(8, CiwStart::Random, 3, 1);
        assert!(s.all_converged());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ciw_barrier_is_slower_than_random_on_average() {
        let barrier = measure_ciw(16, CiwStart::Barrier, 6, 2);
        let random = measure_ciw(16, CiwStart::Random, 6, 2);
        let avg = |s: &ConvergenceSample| {
            s.parallel_times.iter().sum::<f64>() / s.parallel_times.len() as f64
        };
        assert!(avg(&barrier) > avg(&random));
    }

    #[test]
    fn fast_and_generic_ciw_agree_on_the_mean() {
        let n = 12;
        let trials = 60;
        let avg = |s: &ConvergenceSample| {
            s.parallel_times.iter().sum::<f64>() / s.parallel_times.len() as f64
        };
        let fast = avg(&measure_ciw_fast(n, CiwStart::AllZero, trials, 9));
        let slow = avg(&measure_ciw(n, CiwStart::AllZero, trials, 10));
        let rel = (fast - slow).abs() / slow;
        assert!(rel < 0.35, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn oss_measurement_converges_from_all_starts() {
        for start in [OssStart::Random, OssStart::AllRankOne, OssStart::DuplicatedLeader] {
            let s = measure_oss(8, start, 3, 3);
            assert!(s.all_converged(), "{start:?} failed: {s:?}");
        }
    }

    #[test]
    fn sublinear_measurement_converges_from_all_starts() {
        for start in [
            SubStart::Random,
            SubStart::UniqueNames,
            SubStart::PlantedCollision,
            SubStart::GhostName,
        ] {
            let s = measure_sublinear(8, 1, start, 2, 4);
            assert!(s.all_converged(), "{start:?} failed: {s:?}");
        }
    }

    #[test]
    fn trials_variant_matches_sample_and_yields_records() {
        let trials = measure_oss_trials(8, OssStart::Random, 3, 3, 2);
        let sample = measure_oss(8, OssStart::Random, 3, 3);
        assert_eq!(ConvergenceSample::from_trials(&trials), sample);
        let records: Vec<_> = trials.iter().map(|t| t.to_record("test", "oss", None, 3)).collect();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.outcome.is_converged() && r.n == 8));
    }

    #[test]
    fn fast_ciw_trials_carry_outcomes() {
        let trials = measure_ciw_fast_trials(8, CiwStart::AllZero, 2, 1);
        let sample = measure_ciw_fast(8, CiwStart::AllZero, 2, 1);
        assert_eq!(ConvergenceSample::from_trials(&trials), sample);
        assert!(trials.iter().all(|t| t.outcome.is_converged()));
    }

    #[test]
    fn counts_measurements_converge_and_are_thread_count_independent() {
        let a = measure_oss_counts_trials(12, OssStart::Random, 4, 6, 1);
        let b = measure_oss_counts_trials(12, OssStart::Random, 4, 6, 3);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.outcome.is_converged()));
        let key = |ts: &[TrialOutcome]| -> Vec<_> {
            ts.iter().map(|t| (t.trial, t.n, t.outcome)).collect()
        };
        assert_eq!(key(&a), key(&b));
        let ciw = measure_ciw_counts_trials(8, CiwStart::AllZero, 2, 6, 2);
        assert!(ciw.iter().all(|t| t.outcome.is_converged()));
    }

    #[test]
    fn recovery_trials_measure_both_stabilization_and_recovery() {
        let trials = measure_recovery_oss_trials(16, FaultSize::Exact(1), 3, 5, 2);
        assert_eq!(trials.len(), 3);
        for t in &trials {
            assert!(t.report.first_ranked.is_some(), "must stabilize before the fault");
            assert_eq!(t.report.faults.len(), 1);
            assert!(t.report.fully_recovered(), "must re-rank after the fault");
        }
    }

    #[test]
    fn recovery_helpers_cover_all_three_protocols() {
        let ciw = measure_recovery_ciw_trials(8, FaultSize::Sqrt, 2, 7, 1);
        let sub = measure_recovery_sublinear_trials(8, 1, FaultSize::All, 2, 7, 1);
        assert!(ciw.iter().all(|t| t.report.fully_recovered()));
        assert!(sub.iter().all(|t| t.report.fully_recovered()));
    }

    #[test]
    fn scheduled_trials_converge_under_uniform_and_adversarial_policies() {
        // Uniform + perfect reduces to the plain path.
        let uniform = measure_oss_scheduled_trials(10, OssStart::Random, "uniform", 0.0, 2, 5, 1);
        assert!(uniform.iter().all(|t| t.outcome.is_converged()));
        // Zipf bias plus 20% omission still stabilizes within the inflated
        // budget.
        let zipf = measure_oss_scheduled_trials(10, OssStart::Random, "zipf:1.0", 0.2, 2, 5, 2);
        assert!(zipf.iter().all(|t| t.outcome.is_converged()));
        let ciw = measure_ciw_scheduled_trials(8, CiwStart::AllZero, "starve:2:64", 0.0, 2, 5, 1);
        assert!(ciw.iter().all(|t| t.outcome.is_converged()));
        let sub = measure_sublinear_scheduled_trials(
            8,
            1,
            SubStart::Random,
            "clustered:2:0.1",
            0.0,
            2,
            5,
            1,
        );
        assert!(sub.iter().all(|t| t.outcome.is_converged()));
    }

    #[test]
    fn omission_slows_stabilization_on_average() {
        let avg = |ts: &[TrialOutcome]| {
            ts.iter().map(|t| t.outcome.interactions() as f64).sum::<f64>() / ts.len() as f64
        };
        let clean = measure_oss_scheduled_trials(16, OssStart::Random, "uniform", 0.0, 6, 11, 2);
        let lossy = measure_oss_scheduled_trials(16, OssStart::Random, "uniform", 0.5, 6, 11, 2);
        assert!(lossy.iter().all(|t| t.outcome.is_converged()));
        assert!(avg(&lossy) > avg(&clean), "dropping half the interactions must cost time");
    }

    #[test]
    fn unique_names_is_fastest_sublinear_start() {
        let clean = measure_sublinear(16, 1, SubStart::UniqueNames, 4, 5);
        let planted = measure_sublinear(16, 1, SubStart::PlantedCollision, 4, 5);
        let avg = |s: &ConvergenceSample| {
            s.parallel_times.iter().sum::<f64>() / s.parallel_times.len() as f64
        };
        assert!(avg(&clean) < avg(&planted), "a planted collision must cost time");
    }
}
