//! Multi-trial experiment driver.
//!
//! Expected-time rows of the paper's Table 1 are estimated by running many
//! independent executions; WHP rows by high quantiles of the same sample.
//! [`Runner::run`] is the one trial loop: it splits each trial's
//! [`TrialSeeds`] from a base seed, strides the trials over worker threads,
//! and hands the results back in trial order, so every experiment in the
//! repository is reproducible bit-for-bit at any worker count. What a
//! trial does — plain, scheduled, chaos or dynamics, agents or counts,
//! instrumented or not — is the body the caller passes in.
//!
//! A ranked trial is reported as a [`TrialOutcome`] carrying the full
//! [`RunOutcome`] plus wall-clock timing, convertible to a versioned
//! [`RunRecord`] for JSONL experiment logs;
//! [`ConvergenceSample`] is the statistical view the tables summarize.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::backend::SimulationBackend;
use crate::protocol::RankingProtocol;
use crate::record::RunRecord;
use crate::simulation::RunOutcome;
use crate::telemetry::Throughput;

/// Creates the crate's standard RNG from a 64-bit seed.
///
/// The seed is diffused through SplitMix64 first so that structured seeds
/// (0, 1, 2, …) produce unrelated streams.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed))
}

/// Derives the seed for trial `trial` of an experiment from a base seed.
///
/// Uses two rounds of SplitMix64 mixing, so `(base, trial)` pairs map to
/// well-separated seeds.
pub fn derive_seed(base: u64, trial: u64) -> u64 {
    splitmix64(splitmix64(base).wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(trial + 1)))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The machine's available parallelism, or 1 if that cannot be determined
/// — the worker count `--threads auto` passes to [`Runner::run`].
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Settings shared by all trials of one measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSettings {
    /// Number of independent executions.
    pub trials: u64,
    /// Base seed; trial `i` uses [`derive_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Per-trial interaction budget; executions that exceed it are recorded
    /// as exhausted rather than aborting the experiment.
    pub max_interactions: u64,
    /// Extra interactions a ranked configuration must survive to count as
    /// converged (see [`crate::Simulation::run_until_stably_ranked`]).
    pub confirm_window: u64,
}

impl TrialSettings {
    /// Conventional settings: `trials` runs with a budget of
    /// `max_interactions` and a confirmation window of one parallel time unit
    /// per `n` agents chosen by the caller (pass the window explicitly if a
    /// different one is needed).
    pub fn new(trials: u64, base_seed: u64, max_interactions: u64, confirm_window: u64) -> Self {
        TrialSettings { trials, base_seed, max_interactions, confirm_window }
    }
}

/// One completed trial: its index, population size, full outcome, and
/// wall-clock duration.
///
/// The outcome and population size are deterministic in `(settings, trial)`;
/// the wall time is a measurement of this machine, carried along so
/// experiment records can report throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Trial index within the experiment.
    pub trial: u64,
    /// Population size of this trial.
    pub n: usize,
    /// How the execution ended (converged or exhausted, with interaction
    /// counts either way).
    pub outcome: RunOutcome,
    /// Wall-clock time the execution took.
    pub wall: Duration,
}

impl TrialOutcome {
    /// Parallel time (interactions / n) at convergence or exhaustion.
    pub fn parallel_time(&self) -> f64 {
        self.outcome.parallel_time(self.n)
    }

    /// Wall-clock throughput of this trial.
    pub fn throughput(&self) -> Throughput {
        Throughput { interactions: self.outcome.interactions(), wall: self.wall }
    }

    /// Converts to a versioned experiment record (see [`crate::record`]).
    ///
    /// `experiment` and `protocol` name what was measured; `h` is the depth
    /// parameter for protocols that have one; `base_seed` is the
    /// experiment-level seed the trial's seeds were derived from.
    pub fn to_record(
        &self,
        experiment: &str,
        protocol: &str,
        h: Option<u64>,
        base_seed: u64,
    ) -> RunRecord {
        RunRecord {
            experiment: experiment.to_string(),
            protocol: protocol.to_string(),
            n: self.n as u64,
            h,
            trial: self.trial,
            seed: base_seed,
            outcome: self.outcome,
            wall_s: self.wall.as_secs_f64(),
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
        }
    }

    /// Runs `sim` to a stable ranking within `settings`' interaction budget
    /// and confirmation window, timing the run as trial `trial`. The same
    /// trial body serves both backends.
    pub fn measure<P, B>(trial: u64, sim: &mut B, settings: &TrialSettings) -> Self
    where
        P: RankingProtocol,
        B: SimulationBackend<P>,
    {
        let n = sim.population_size();
        let started = Instant::now();
        let outcome =
            sim.run_until_stably_ranked(settings.max_interactions, settings.confirm_window);
        TrialOutcome { trial, n, outcome, wall: started.elapsed() }
    }
}

/// The outcome of a batch of trials: per-trial parallel stabilization times
/// of converged trials, plus the interaction counts reached by trials that
/// exhausted their budget.
///
/// Exhausted trials keep their interaction counts (rather than being reduced
/// to a tally) so that censored-data diagnostics remain possible: a trial
/// that died at 99% of a tight budget and one that was nowhere close are
/// different facts about a protocol.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceSample {
    /// Parallel time (interactions / n) of each converged trial.
    pub parallel_times: Vec<f64>,
    /// Total interactions performed by each trial that did not converge
    /// within the interaction budget.
    pub exhausted_interactions: Vec<u64>,
}

impl ConvergenceSample {
    /// Builds the statistical view of a batch of [`TrialOutcome`]s.
    pub fn from_trials(trials: &[TrialOutcome]) -> Self {
        let mut parallel_times = Vec::new();
        let mut exhausted_interactions = Vec::new();
        for t in trials {
            match t.outcome {
                RunOutcome::Converged { .. } => parallel_times.push(t.parallel_time()),
                RunOutcome::Exhausted { interactions } => exhausted_interactions.push(interactions),
            }
        }
        ConvergenceSample { parallel_times, exhausted_interactions }
    }

    /// Number of trials that did not converge within the interaction budget.
    pub fn exhausted(&self) -> u64 {
        self.exhausted_interactions.len() as u64
    }

    /// Whether every trial converged.
    pub fn all_converged(&self) -> bool {
        self.exhausted_interactions.is_empty()
    }

    /// Number of converged trials.
    pub fn len(&self) -> usize {
        self.parallel_times.len()
    }

    /// Whether no trial converged.
    pub fn is_empty(&self) -> bool {
        self.parallel_times.is_empty()
    }
}

/// The seeds of one trial, split from the experiment's base seed.
///
/// Trial `t` draws its configuration randomness from
/// [`derive_seed`]`(base, 2t)` and runs its execution from
/// `derive_seed(base, 2t + 1)`, so its outcome depends only on
/// `(base, t)` — never on which worker ran it or in what order — and a
/// chaos or dynamics trial with empty plans replays the plain trial of the
/// same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSeeds {
    /// Trial index within the experiment.
    pub trial: u64,
    /// Seed for the trial's configuration randomness (adversarial starts,
    /// fault and churn plan seeds).
    pub config: u64,
    /// Seed for the execution's own RNG.
    pub execution: u64,
}

impl TrialSeeds {
    /// The seeds of trial `trial` under base seed `base_seed`.
    pub fn new(base_seed: u64, trial: u64) -> Self {
        TrialSeeds {
            trial,
            config: derive_seed(base_seed, 2 * trial),
            execution: derive_seed(base_seed, 2 * trial + 1),
        }
    }

    /// A fresh RNG over the configuration seed.
    pub fn config_rng(&self) -> SmallRng {
        rng_from_seed(self.config)
    }
}

/// Runs batches of independent, seeded trials.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    settings: TrialSettings,
}

impl Runner {
    /// Creates a runner with the given settings.
    pub fn new(settings: TrialSettings) -> Self {
        Runner { settings }
    }

    /// The runner's settings.
    pub fn settings(&self) -> &TrialSettings {
        &self.settings
    }

    /// Runs every trial through `body` on `threads` workers and returns
    /// the results in trial order.
    ///
    /// `body` receives each trial's [`TrialSeeds`] and performs the whole
    /// trial — building the configuration from
    /// [`TrialSeeds::config_rng`], the execution from
    /// [`TrialSeeds::execution`], and running it (see
    /// [`TrialOutcome::measure`], [`crate::ChaosTrialOutcome::measure`]
    /// and [`crate::DynamicsTrialOutcome::measure`]). Results depend only on the
    /// seeds, so they are identical for every worker count; only wall
    /// times differ. To instrument a run, attach
    /// [`Metrics`](crate::Metrics) inside `body` and return it alongside
    /// the outcome.
    ///
    /// `on_trial` sees each result once, in trial order: live as each
    /// trial finishes when `threads == 1` (progress heartbeats), after all
    /// workers join otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use population::{
    ///     ConvergenceSample, Protocol, RankingProtocol, Runner, Simulation, TrialOutcome,
    ///     TrialSettings,
    /// };
    /// use rand::rngs::SmallRng;
    ///
    /// // Protocol 1 of the paper in miniature: rank collision bumps the responder.
    /// struct ModRank { n: usize }
    /// impl Protocol for ModRank {
    ///     type State = usize;
    ///     fn interact(&self, a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
    ///         if a == b { *b = (*b + 1) % self.n; }
    ///     }
    /// }
    /// impl RankingProtocol for ModRank {
    ///     fn population_size(&self) -> usize { self.n }
    ///     fn rank_of(&self, s: &usize) -> Option<usize> { Some(s + 1) }
    /// }
    ///
    /// let settings = TrialSettings::new(5, 42, 1_000_000, 0);
    /// let trials = Runner::new(settings).run(
    ///     2,
    ///     |s| {
    ///         let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], s.execution);
    ///         TrialOutcome::measure(s.trial, &mut sim, &settings)
    ///     },
    ///     |_| {},
    /// );
    /// let sample = ConvergenceSample::from_trials(&trials);
    /// assert!(sample.all_converged());
    /// assert_eq!(sample.len(), 5);
    /// ```
    pub fn run<T, B, C>(&self, threads: usize, body: B, mut on_trial: C) -> Vec<T>
    where
        T: Send,
        B: Fn(TrialSeeds) -> T + Sync,
        C: FnMut(&T),
    {
        assert!(threads > 0, "at least one worker thread is required");
        let TrialSettings { trials, base_seed, .. } = self.settings;
        if threads == 1 {
            return (0..trials)
                .map(|trial| {
                    let out = body(TrialSeeds::new(base_seed, trial));
                    on_trial(&out);
                    out
                })
                .collect();
        }
        let body = &body;
        // Workers take strided slices of the trial range; results are
        // reassembled in trial order afterwards so the output is
        // deterministic.
        let mut results: Vec<(u64, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|worker| {
                    scope.spawn(move || {
                        (worker..trials)
                            .step_by(threads)
                            .map(|trial| (trial, body(TrialSeeds::new(base_seed, trial))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
        });
        results.sort_unstable_by_key(|(trial, _)| *trial);
        results
            .into_iter()
            .map(|(_, out)| {
                on_trial(&out);
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::dynamics::{ByzantineSet, ChurnPlan};
    use crate::fault::ChaosTrialOutcome;
    use crate::metrics::{Metrics, NoopMetrics};
    use crate::scheduler::{AnyScheduler, Reliability};
    use crate::simulation::Simulation;
    use crate::test_support::{
        assert_worker_count_invariant, chaos, dynamics, plan, ranked, start, Backend, ModRank,
        TrialKind, BACKENDS, N,
    };

    /// Ranked trials from `initial` on the agent array.
    fn ranked_from(runner: &Runner, initial: &[usize]) -> Vec<TrialOutcome> {
        let settings = *runner.settings();
        let body = |s: TrialSeeds| {
            let mut sim =
                Simulation::new(ModRank { n: initial.len() }, initial.to_vec(), s.execution);
            TrialOutcome::measure(s.trial, &mut sim, &settings)
        };
        runner.run(1, body, |_| {})
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn trial_seeds_split_the_base_seed_in_two() {
        let s = TrialSeeds::new(7, 3);
        assert_eq!(
            s,
            TrialSeeds { trial: 3, config: derive_seed(7, 6), execution: derive_seed(7, 7) }
        );
        let other = TrialSeeds::new(7, 4);
        assert_ne!((s.config, s.execution), (other.config, other.execution));
    }

    #[test]
    fn driver_returns_every_trial_in_order_at_any_worker_count() {
        for trials in [0, 1, 7] {
            let runner = Runner::new(TrialSettings::new(trials, 11, 0, 0));
            let expected: Vec<TrialSeeds> = (0..trials).map(|t| TrialSeeds::new(11, t)).collect();
            for threads in [1, 2, 3, 5] {
                let mut seen = Vec::new();
                let out = runner.run(threads, |s| s, |s| seen.push(s.trial));
                assert_eq!(out, expected, "{trials} trials on {threads} threads");
                assert_eq!(
                    seen,
                    (0..trials).collect::<Vec<_>>(),
                    "{trials} trials on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn on_trial_fires_live_with_one_worker() {
        let runner = Runner::new(TrialSettings::new(5, 1, 0, 0));
        let started = AtomicU64::new(0);
        runner.run(
            1,
            |s| {
                started.fetch_add(1, Ordering::SeqCst);
                s.trial
            },
            |&trial| assert_eq!(started.load(Ordering::SeqCst), trial + 1, "callback lagged"),
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        Runner::new(TrialSettings::new(1, 1, 10, 0)).run(0, |s| s, |_| {});
    }

    #[test]
    fn parallel_runner_matches_sequential_sample() {
        for kind in [TrialKind::Ranked, TrialKind::Chaos, TrialKind::Dynamics] {
            for backend in BACKENDS {
                assert_worker_count_invariant(kind, backend);
            }
        }
    }

    #[test]
    fn measurements_are_reproducible() {
        let runner = Runner::new(TrialSettings::new(4, 7, 500_000, 0));
        let a = ConvergenceSample::from_trials(&ranked_from(&runner, &[0; 6]));
        assert_eq!(a, ConvergenceSample::from_trials(&ranked_from(&runner, &[0; 6])));
        assert!(a.all_converged());
    }

    #[test]
    fn auto_runner_matches_sequential_sample() {
        assert!(auto_threads() >= 1);
        let runner = Runner::new(TrialSettings::new(6, 13, 1_000_000, 5));
        for backend in BACKENDS {
            let sequential = ranked::<NoopMetrics>(&runner, 1, backend);
            assert_eq!(ranked::<NoopMetrics>(&runner, auto_threads(), backend), sequential);
        }
    }

    #[test]
    fn metrics_never_change_outcomes_on_both_backends() {
        let runner = Runner::new(TrialSettings::new(5, 21, 1_000_000, 5));
        for backend in BACKENDS {
            let plain = ranked::<NoopMetrics>(&runner, 2, backend);
            assert_eq!(ranked::<Metrics>(&runner, 2, backend), plain, "{backend:?} ranked");
            let plain = chaos::<NoopMetrics>(&runner, 2, backend);
            assert_eq!(chaos::<Metrics>(&runner, 2, backend), plain, "{backend:?} chaos");
        }
    }

    #[test]
    fn empty_plan_dynamics_equals_chaos_on_both_backends() {
        let runner = Runner::new(TrialSettings::new(5, 17, 1_000_000, 0));
        for backend in BACKENDS {
            let dynamics = dynamics(&runner, 2, backend, &ChurnPlan::none(), &ByzantineSet::none());
            let as_chaos: Vec<_> = dynamics.into_iter().map(|(t, r)| (t, r.chaos)).collect();
            assert_eq!(as_chaos, chaos::<NoopMetrics>(&runner, 2, backend), "{backend:?}");
        }
    }

    #[test]
    fn scheduled_runner_with_uniform_matches_plain_runner() {
        let runner = Runner::new(TrialSettings::new(6, 13, 1_000_000, 5));
        let settings = *runner.settings();
        let scheduled = |s: TrialSeeds| {
            Simulation::with_policy(
                ModRank { n: N },
                start(s),
                AnyScheduler::uniform(N),
                s.execution,
            )
            .with_reliability(Reliability::perfect())
        };
        let ranked_body = |s: TrialSeeds| {
            let t = TrialOutcome::measure(s.trial, &mut scheduled(s), &settings);
            (t.trial, t.n, t.outcome)
        };
        assert_eq!(
            runner.run(2, ranked_body, |_| {}),
            ranked::<NoopMetrics>(&runner, 1, Backend::Agents)
        );
        let chaos_body = |s: TrialSeeds| {
            let mut sim = scheduled(s).with_fault_plan(&plan(s));
            (s.trial, ChaosTrialOutcome::measure(s.trial, &mut sim, 1_000_000).report)
        };
        assert_eq!(
            runner.run(2, chaos_body, |_| {}),
            chaos::<NoopMetrics>(&runner, 1, Backend::Agents)
        );
    }

    #[test]
    fn scheduled_runner_converges_under_adversarial_policies() {
        let runner = Runner::new(TrialSettings::new(3, 17, 2_000_000, 5));
        let settings = *runner.settings();
        for spec in ["zipf:1", "starve:2:64", "clustered:2:0.1"] {
            let body = |s: TrialSeeds| {
                let policy = AnyScheduler::from_spec(spec, N).unwrap();
                let mut sim =
                    Simulation::with_policy(ModRank { n: N }, vec![0; N], policy, s.execution)
                        .with_reliability(Reliability::with_omission(0.1));
                TrialOutcome::measure(s.trial, &mut sim, &settings)
            };
            let trials = runner.run(2, body, |_| {});
            assert!(trials.iter().all(|t| t.outcome.is_converged()), "{spec} failed to converge");
        }
    }

    #[test]
    fn budget_exhaustion_is_counted_not_fatal() {
        // An interaction budget of 1 cannot rank 6 agents from all-zero.
        let sample = ConvergenceSample::from_trials(&ranked_from(
            &Runner::new(TrialSettings::new(3, 7, 1, 0)),
            &[0; 6],
        ));
        assert_eq!(sample.exhausted(), 3);
        assert!(sample.is_empty());
        assert!(!sample.all_converged());
    }

    #[test]
    fn exhausted_trials_retain_interaction_counts() {
        // Budget 17: every trial burns the whole budget and the sample must
        // say so exactly, not just count casualties.
        let sample = ConvergenceSample::from_trials(&ranked_from(
            &Runner::new(TrialSettings::new(3, 7, 17, 0)),
            &[0; 6],
        ));
        assert_eq!(sample.exhausted_interactions, vec![17, 17, 17]);
        assert_eq!(sample.exhausted(), 3);
    }

    #[test]
    fn trial_outcomes_carry_wall_time_and_records() {
        let trials = ranked_from(&Runner::new(TrialSettings::new(2, 7, 1_000_000, 0)), &[0; 6]);
        assert_eq!(trials.len(), 2);
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.trial, i as u64);
            assert_eq!(t.n, 6);
            assert!(t.outcome.is_converged());
            let record = t.to_record("test-exp", "modrank", None, 7);
            assert_eq!(record.n, 6);
            assert_eq!(record.trial, i as u64);
            assert_eq!(record.seed, 7);
            assert_eq!(record.outcome, t.outcome);
            assert!((record.parallel_time() - t.parallel_time()).abs() < 1e-12);
        }
    }

    #[test]
    fn already_correct_configuration_converges_immediately() {
        let trials = ranked_from(&Runner::new(TrialSettings::new(2, 7, 1000, 10)), &[0, 1, 2, 3]);
        let sample = ConvergenceSample::from_trials(&trials);
        assert!(sample.all_converged());
        assert!(sample.parallel_times.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn trial_seeds_differ_across_trials() {
        // From an all-zero start, different trials should take different times.
        let trials = ranked_from(&Runner::new(TrialSettings::new(8, 3, 1_000_000, 0)), &[0; 8]);
        let sample = ConvergenceSample::from_trials(&trials);
        let first = sample.parallel_times[0];
        assert!(
            sample.parallel_times.iter().any(|&t| (t - first).abs() > 1e-9),
            "all trials identical — per-trial seeding is broken"
        );
    }
}
