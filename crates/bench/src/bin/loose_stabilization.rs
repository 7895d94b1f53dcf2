//! Extension experiment — the loose-stabilization trade-off the paper
//! contrasts against (Sec. 1, "Problem variants"; reference \[56\]).
//!
//! Loosely-stabilizing leader election gives up "unique leader forever" for
//! "unique leader quickly, held for a long time", escaping Theorem 2.1's
//! `Ω(n)`-state bound. This binary sweeps the heartbeat bound `T_max` and
//! measures:
//!
//! * **convergence** — parallel time from an adversarial (all-follower,
//!   drained-timer) configuration to a unique leader;
//! * **holding** — parallel time the unique leader then persists before a
//!   spurious timeout mints another (censored at `--horizon`).
//!
//! The expected shape: an undersized `T_max` (≈ log n) never settles —
//! spurious timeouts keep minting leaders; once `T_max` clears the
//! epidemic scale, convergence is dominated by the Θ(n) leader fight while
//! holding time explodes with `T_max` — the knob trades memory for
//! stability, whereas the paper's self-stabilizing protocols hold forever.
//!
//! With `--json-out <path>` each trial emits two JSONL records: experiment
//! `loose_converge` (time to a unique leader) and `loose_hold` (time the
//! leader persisted; censored trials appear as `exhausted`), both with
//! `h = T_max`. Trials are distributed over `--threads` workers; per-trial
//! seeding keeps the measurements independent of the worker count.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ssle-bench --bin loose_stabilization -- \
//!     [--trials 20] [--seed 1] [--n 64] [--horizon 20000] \
//!     [--threads auto] [--json-out results/loose.jsonl]
//! ```

use std::time::{Duration, Instant};

use analysis::Summary;
use population::record::{to_jsonl, RunRecord};
use population::runner::derive_seed;
use population::{RunOutcome, Runner, Simulation, TrialSettings};
use ssle::loose::LooselyStabilizingLe;
use ssle_bench::cli::Flags;

/// One completed trial: convergence and holding measured on the same
/// execution.
struct LooseTrial {
    trial: u64,
    converge_interactions: u64,
    hold_interactions: u64,
    /// Whether a second leader actually appeared (false = censored at the
    /// horizon).
    broke: bool,
    wall: Duration,
}

/// Runs one seeded trial: converge from the drained-timer adversarial start,
/// then hold until the leader is lost or `horizon` parallel time passes.
fn one_trial(t_max: u32, n: usize, horizon: f64, base_seed: u64, trial: u64) -> LooseTrial {
    let protocol = LooselyStabilizingLe::new(t_max);
    let initial = vec![protocol.follower_state(1); n];
    let started = Instant::now();
    let mut sim = Simulation::new(protocol, initial, derive_seed(base_seed, trial));
    let conv = sim.run_until(u64::MAX, |s| LooselyStabilizingLe::leader_count(s) == 1);
    let converge_interactions = conv.interactions();
    // Holding: run until a second leader appears or the horizon.
    let start = sim.interactions();
    let budget = start + (horizon * n as f64) as u64;
    let broke = sim.run_until(budget, |s| LooselyStabilizingLe::leader_count(s) > 1);
    LooseTrial {
        trial,
        converge_interactions,
        hold_interactions: sim.interactions() - start,
        broke: broke.is_converged(),
        wall: started.elapsed(),
    }
}

/// Runs all trials for one `T_max` over `threads` workers. Each trial
/// seeds its execution from `derive_seed(seed, trial)` alone (this
/// experiment draws no configuration randomness), so the outcomes are
/// identical for every worker count.
fn run_trials(
    t_max: u32,
    n: usize,
    horizon: f64,
    seed: u64,
    trials: u64,
    threads: usize,
) -> Vec<LooseTrial> {
    Runner::new(TrialSettings::new(trials, seed, 0, 0)).run(
        threads,
        |s| one_trial(t_max, n, horizon, seed, s.trial),
        |_| {},
    )
}

impl LooseTrial {
    /// The two records of this trial. The holding record is `converged` when
    /// the leader was actually lost and `exhausted` (a lower bound) when the
    /// horizon censored it; `h` carries `T_max`.
    fn records(&self, n: usize, t_max: u32, seed: u64) -> [RunRecord; 2] {
        let mk = |experiment: &str, outcome: RunOutcome| RunRecord {
            experiment: experiment.to_string(),
            protocol: "loose".to_string(),
            n: n as u64,
            h: Some(t_max as u64),
            trial: self.trial,
            seed,
            outcome,
            wall_s: self.wall.as_secs_f64(),
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
        };
        let hold = if self.broke {
            RunOutcome::Converged { interactions: self.hold_interactions }
        } else {
            RunOutcome::Exhausted { interactions: self.hold_interactions }
        };
        [
            mk(
                "loose_converge",
                RunOutcome::Converged { interactions: self.converge_interactions },
            ),
            mk("loose_hold", hold),
        ]
    }
}

fn main() {
    let flags = Flags::parse(&["trials", "seed", "n", "horizon", "threads", "json-out"]);
    let trials: u64 = flags.get("trials", 20);
    let seed: u64 = flags.get("seed", 1);
    let n: usize = flags.get("n", 64);
    let horizon: f64 = flags.get("horizon", 20_000.0);
    let threads = flags.threads();
    let mut records: Vec<RunRecord> = Vec::new();

    let log_n = (n as f64).log2().ceil() as u32;
    println!("Loosely-stabilizing leader election at n = {n} ({trials} trials/point, seed {seed})");
    println!("start: all followers with drained timers; holding censored at {horizon} time\n");
    println!("{:>8} | {:>12} | {:>14} | {:>10}", "T_max", "E[converge]", "E[hold]", "censored");

    for mult in [1u32, 2, 4, 8, 16, 32] {
        let t_max = mult * log_n;
        let batch = run_trials(t_max, n, horizon, seed, trials, threads);
        let converge_times: Vec<f64> =
            batch.iter().map(|t| t.converge_interactions as f64 / n as f64).collect();
        let hold_times: Vec<f64> =
            batch.iter().map(|t| t.hold_interactions as f64 / n as f64).collect();
        let censored = batch.iter().filter(|t| !t.broke).count();
        records.extend(batch.iter().flat_map(|t| t.records(n, t_max, seed)));
        let conv = Summary::from_sample(&converge_times).expect("non-empty");
        let hold = Summary::from_sample(&hold_times).expect("non-empty");
        println!(
            "{:>8} | {:>12.1} | {:>13.1}{} | {:>7}/{}",
            t_max,
            conv.mean(),
            hold.mean(),
            if censored > 0 { "+" } else { " " },
            censored,
            trials
        );
    }
    println!("\nexpected shape: from the mass-timeout start, convergence is dominated by the");
    println!("Θ(n) leader fight and barely depends on T_max (an undersized T_max never settles");
    println!("at all); holding time explodes once T_max ≫ log n.");
    println!("(“+” marks lower bounds — some trials never lost the leader within the horizon).");

    if let Some(path) = flags.try_get_str("json-out") {
        std::fs::write(path, to_jsonl(&records))
            .unwrap_or_else(|e| panic!("cannot write --json-out {path:?}: {e}"));
        println!("\nwrote {} records to {path} (schema: results/README.md)", records.len());
    }
}
