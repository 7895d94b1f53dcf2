//! The engine workloads: Optimal-Silent-SSR on the agent array
//! (`oss_agents`) and on the counts backend (`oss_counts`).
//!
//! Both repeat identical rounds over the same seeded inputs until the time
//! budget is spent, keep each sample's fastest time across the rounds, then
//! take percentiles across samples. Contention from other tenants of the
//! host only ever slows a run, and on a shared 2-vCPU VM it moved a
//! per-sample median by ±20% between identical processes; the per-sample
//! minimum moved about half as much (see README.md).

use std::time::Instant;

use population::fault::NoFaults;
use population::observer::NoopObserver;
use population::runner::{derive_seed, rng_from_seed};
use population::scheduler::Scheduler;
use population::{
    BatchSimulation, Metrics, MetricsSink, NoopMetrics, RankingProtocol, RunOutcome, Section,
    Simulation,
};
use ssle::adversary::random_oss_configuration;
use ssle::optimal_silent::OssState;
use ssle::OptimalSilentSsr;

use crate::stats::{median, time_s, Peaks};
use crate::{Layers, Outcome};

/// Population size of `oss_agents`: ≈ 3·10⁶ interactions per trial.
pub const AGENTS_N: usize = 1024;
/// Trials (seeds) per `oss_agents` round.
const AGENTS_TRIALS: u64 = 96;
/// Interaction cap per trial: ≈ 14× the mean convergence time at n = 1024.
const AGENTS_CAP: u64 = 40 * (AGENTS_N as u64) * (AGENTS_N as u64);

/// Population size of `oss_counts`: support ≈ n / 3 once settled.
pub const COUNTS_N: usize = 10_000;
/// Untimed `run(n)` slices that open each `oss_counts` start: the random
/// configuration relaxes from support ≈ 5 400 to ≈ 3 200 over them, and
/// their 90 → 25 ms cost would otherwise be the slowest dozen samples, the
/// exact place the tail estimator reads.
const COUNTS_RELAX: usize = 3;
/// Timed `run(n)` slices per start. A reset wave collapses the support to
/// ≈ 100 states after 39–43 slices (checked over 24 seeds), so the timed
/// slices 3..33 stay in the support ≈ n/3 regime this workload is for.
const COUNTS_SLICES: usize = 30;
/// Adversarial starts per `oss_counts` round: 120 slice samples, so the
/// tail estimator reaches past p90.
const COUNTS_SEEDS: u64 = 4;

/// `oss_agents` repeats its round's whole set-up after every this-many
/// trials; the median of those repetitions is `setup_s`. Spread through
/// the run, they sample the host as the trials do; made back to back at
/// the start, they fell into whichever of the host's minute-long slow or
/// fast stretches the run began in.
const SETUP_EVERY: usize = 8;
/// Rounds never fall below this, so the cross-round checks always bite.
const MIN_ROUNDS: usize = 2;

/// Whether another round fits the budget: rounds continue while the
/// previous round's length still fits in the time left.
fn another_round(rounds: usize, started: Instant, last_round_s: f64, seconds: f64) -> bool {
    rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() + last_round_s <= seconds
}

type AgentSim<M> = Simulation<OptimalSilentSsr, NoopObserver, NoFaults, Scheduler, M>;

fn oss_config(seed: u64, n: usize) -> (OptimalSilentSsr, Vec<OssState>) {
    let protocol = OptimalSilentSsr::new(n);
    let initial = random_oss_configuration(&protocol, &mut rng_from_seed(seed ^ 1));
    (protocol, initial)
}

/// Whether the states hold every rank 1..=n exactly once, read from
/// `rank_of` rather than from the engine's own tracker.
fn is_rank_permutation(protocol: &OptimalSilentSsr, states: &[OssState]) -> bool {
    let mut seen = vec![false; states.len() + 1];
    for s in states {
        match protocol.rank_of(s) {
            Some(r) if r >= 1 && r <= states.len() && !seen[r] => seen[r] = true,
            _ => return false,
        }
    }
    true
}

/// One timed trial.
struct Trial {
    wall_s: f64,
    outcome: RunOutcome,
    /// Interactions performed, confirmation window included.
    performed: u64,
    /// Whether the final configuration is a rank permutation.
    ranked: bool,
}

fn agent_trial<M: MetricsSink>(sim: &mut AgentSim<M>) -> Trial {
    let started = Instant::now();
    let outcome = sim.run_until_stably_ranked(AGENTS_CAP, AGENTS_N as u64);
    let wall_s = started.elapsed().as_secs_f64();
    let ranked = is_rank_permutation(sim.protocol(), sim.states());
    Trial { wall_s, outcome, performed: sim.interactions(), ranked }
}

fn agent_round_setup(seeds: &[u64]) -> Vec<AgentSim<NoopMetrics>> {
    seeds
        .iter()
        .map(|&s| {
            let (protocol, initial) = oss_config(s, AGENTS_N);
            Simulation::new(protocol, initial, s)
        })
        .collect()
}

/// `oss_agents`: trials to stable ranking from seeded adversarial starts.
pub fn oss_agents(seed: u64, seconds: f64, layers: Option<&mut Layers>) -> Outcome {
    let seeds: Vec<u64> = (0..AGENTS_TRIALS).map(|t| derive_seed(seed, t)).collect();
    let mut setup_times = Vec::new();

    let mut per_seed: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut interactions_of: Vec<Option<u64>> = vec![None; seeds.len()];
    let mut errors = Vec::new();
    let (mut attempted, mut failed, mut interactions, mut busy_s) = (0u64, 0u64, 0u64, 0f64);
    let mut merged = Metrics::new();
    let started = Instant::now();
    let (mut rounds, mut last_round_s) = (0, 0.0);
    while another_round(rounds, started, last_round_s, seconds) {
        let round_started = Instant::now();
        for (t, &s) in seeds.iter().enumerate() {
            if t % SETUP_EVERY == 0 {
                setup_times.push(time_s(|| agent_round_setup(&seeds)));
            }
            let (protocol, initial) = oss_config(s, AGENTS_N);
            let trial = if layers.is_some() {
                let mut sim = Simulation::new(protocol, initial, s).with_metrics(Metrics::new());
                let out = agent_trial(&mut sim);
                merged.merge_from(sim.metrics());
                out
            } else {
                agent_trial(&mut Simulation::new(protocol, initial, s))
            };
            attempted += 1;
            busy_s += trial.wall_s;
            interactions += trial.performed;
            let count = match trial.outcome {
                RunOutcome::Converged { interactions } => {
                    if !trial.ranked {
                        errors.push(format!("seed {s}: converged but not a rank permutation"));
                    }
                    interactions
                }
                RunOutcome::Exhausted { interactions } => {
                    failed += 1;
                    interactions
                }
            };
            match interactions_of[t] {
                None => interactions_of[t] = Some(count),
                Some(prev) if prev != count => errors.push(format!(
                    "seed {s}: {prev} interactions in one round, {count} in another"
                )),
                Some(_) => {}
            }
            per_seed[t].push(trial.wall_s * 1e3);
        }
        rounds += 1;
        last_round_s = round_started.elapsed().as_secs_f64();
    }
    let fastest: Vec<f64> = per_seed.iter().map(|v| min(v)).collect();
    println!(
        "oss_agents: n = {AGENTS_N}, {} seeds × {rounds} rounds, {interactions} interactions",
        seeds.len()
    );
    if let Some(layers) = layers {
        engine_layers(layers, &merged, busy_s);
        layers.set("simulation.run_s", busy_s);
    }
    Outcome {
        setup_s: median(&setup_times),
        peak: Peaks::now(),
        ops_per_s: throughput(interactions / rounds as u64, &fastest),
        samples_ms: fastest,
        sample: "seeds (each its fastest trial over the rounds)",
        attempted,
        failed,
        errors,
    }
}

fn engine_layers(layers: &mut Layers, m: &Metrics, busy_s: f64) {
    let interactions = m.total_interactions() as f64;
    layers.set("engine.interactions", interactions);
    layers.set("engine.ns_per_interaction", busy_s * 1e9 / interactions);
    layers.set("engine.rng_draws_per_interaction", m.rng_draws.get() as f64 / interactions);
}

/// `oss_counts`: a fixed interaction budget in fixed `run(n)` slices on
/// the counts backend, from [`COUNTS_SEEDS`] seeded adversarial starts.
pub fn oss_counts(seed: u64, seconds: f64, layers: Option<&mut Layers>) -> Outcome {
    let seeds: Vec<u64> = (0..COUNTS_SEEDS).map(|t| derive_seed(seed, t)).collect();
    let build = |s: u64| {
        let (protocol, initial) = oss_config(s, COUNTS_N);
        BatchSimulation::new(protocol, initial, s)
    };
    let mut setup_times = Vec::new();

    let slice = COUNTS_N as u64;
    let budget = slice * (COUNTS_RELAX + COUNTS_SLICES) as u64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); seeds.len() * COUNTS_SLICES];
    let mut errors = Vec::new();
    let mut final_counts: Vec<Option<Vec<(OssState, u64)>>> = vec![None; seeds.len()];
    let (mut attempted, mut interactions, mut busy_s) = (0u64, 0u64, 0f64);
    let mut merged = Metrics::new();
    let started = Instant::now();
    let (mut rounds, mut last_round_s) = (0, 0.0);
    while another_round(rounds, started, last_round_s, seconds) {
        let round_started = Instant::now();
        for (t, &s) in seeds.iter().enumerate() {
            // The round's whole set-up, repeated before every start.
            setup_times.push(time_s(|| seeds.iter().map(|&s| build(s)).collect::<Vec<_>>()));
            let samples = &mut per_slice[t * COUNTS_SLICES..(t + 1) * COUNTS_SLICES];
            let (counts, performed) = if layers.is_some() {
                let mut sim = build(s).with_metrics(Metrics::new());
                busy_s += counts_round(|| sim.run(slice), samples);
                merged.merge_from(sim.metrics());
                (sim.counts().iter().map(|(s, c)| (*s, c)).collect::<Vec<_>>(), sim.interactions())
            } else {
                let mut sim = build(s);
                busy_s += counts_round(|| sim.run(slice), samples);
                (sim.counts().iter().map(|(s, c)| (*s, c)).collect::<Vec<_>>(), sim.interactions())
            };
            attempted += COUNTS_SLICES as u64;
            interactions += performed;
            let population: u64 = counts.iter().map(|&(_, c)| c).sum();
            if population != COUNTS_N as u64 {
                errors.push(format!("seed {s}: population {population} != {COUNTS_N}"));
            }
            if performed != budget {
                errors.push(format!("seed {s}: spent {performed} interactions of {budget}"));
            }
            match &final_counts[t] {
                None => final_counts[t] = Some(counts),
                Some(first) if *first != counts => {
                    errors.push(format!("seed {s}: final counts differ between rounds"));
                }
                Some(_) => {}
            }
        }
        rounds += 1;
        last_round_s = round_started.elapsed().as_secs_f64();
    }
    let fastest: Vec<f64> = per_slice.iter().map(|v| min(v)).collect();
    println!(
        "oss_counts: n = {COUNTS_N}, {} seeds × ({COUNTS_RELAX} untimed + {COUNTS_SLICES} timed) \
         slices of {slice} × {rounds} rounds, {interactions} interactions",
        seeds.len()
    );
    if let Some(layers) = layers {
        engine_layers(layers, &merged, busy_s);
        let batches = merged.batches.get() as f64;
        let support: usize = final_counts.iter().flatten().map(Vec::len).sum();
        layers.set("counts.run_s", busy_s);
        layers.set("counts.section.sample_s", merged.section_seconds(Section::Sample));
        layers.set("counts.section.transition_s", merged.section_seconds(Section::Transition));
        layers.set("counts.batches", batches);
        layers.set("counts.mean_batch", merged.batched_pairs.get() as f64 / batches.max(1.0));
        layers.set("counts.exact_steps", merged.exact_steps.get() as f64);
        layers.set("counts.fallback_rate", merged.fallback_rate());
        layers.set("counts.memo_hit_rate", merged.memo_hit_rate());
        layers.set("counts.compactions", merged.compactions.get() as f64);
        layers.set("counts.support", support as f64 / seeds.len() as f64);
    }
    Outcome {
        setup_s: median(&setup_times),
        peak: Peaks::now(),
        ops_per_s: throughput(seeds.len() as u64 * COUNTS_SLICES as u64 * slice, &fastest),
        samples_ms: fastest,
        sample: "slices (each its fastest over the rounds)",
        attempted,
        failed: 0,
        errors,
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Interactions/s of one round (every round performs the same
/// interactions) at each sample's fastest time.
fn throughput(per_round: u64, fastest_ms: &[f64]) -> f64 {
    per_round as f64 / (fastest_ms.iter().sum::<f64>() / 1e3)
}

/// Runs one start's slices: [`COUNTS_RELAX`] not sampled, then one per
/// entry of `per_slice`, appending its wall time (ms); returns the seconds
/// spent in the engine.
fn counts_round(mut run_slice: impl FnMut(), per_slice: &mut [Vec<f64>]) -> f64 {
    let started = Instant::now();
    for _ in 0..COUNTS_RELAX {
        run_slice();
    }
    let mut busy = started.elapsed().as_secs_f64();
    for samples in per_slice.iter_mut() {
        let started = Instant::now();
        run_slice();
        let wall = started.elapsed().as_secs_f64();
        busy += wall;
        samples.push(wall * 1e3);
    }
    busy
}
