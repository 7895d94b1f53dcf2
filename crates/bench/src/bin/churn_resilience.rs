//! Extension experiment — re-stabilization under sustained churn and
//! Byzantine agents.
//!
//! For each SSR protocol (and each backend that can represent it) this
//! binary runs soak-style trials over a churn-rate × Byzantine-fraction
//! grid: the population starts in an adversarial random configuration, a
//! `ChurnPlan` replaces agents at the given rate (one departure plus one
//! adversarial join per event, so `n` drifts only through clamping), and a
//! `ByzantineSet` pins the given fraction of agents to an adversarial
//! transition. The report is an availability surface: what fraction of the
//! execution each protocol spent with a unique leader (and with the full
//! ranking in place), and how fast it re-stabilized after each membership
//! event.
//!
//! The `(0, 0)` cell is the undisturbed baseline, anchoring the
//! availability scale (a sentinel event holds it open to the full budget
//! so every cell measures the same window). The governing ratio turns out
//! to be re-stabilization time over churn period: Sublinear-Time-SSR, the
//! fastest stabilizer, retains most of its ranked availability under mild
//! churn, while Silent-n-state-SSR's in-place repair is *slower* than a
//! full reset at these sizes and collapses first. Any nonzero Byzantine
//! fraction denies full ranking outright — a pinned adversary is an
//! unbounded fault rate.
//!
//! With `--json-out <path>` the per-trial measurements are written as a
//! schema-v6 JSONL stream of `kind = "churn"` rows plus per-event
//! `kind = "fault"` rows (see `results/README.md`), which `ssle report`
//! re-analyzes without re-running anything.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ssle-bench --bin churn_resilience -- \
//!     [--trials 6] [--seed 1] [--n 32] [--h 2] [--time 2000] \
//!     [--threads auto] [--progress 1] [--quick 1] \
//!     [--json-out results/churn.jsonl]
//! ```
//!
//! `--quick 1` shrinks the grid and trial count for CI smoke runs.
//! `--progress 1` emits a stderr heartbeat after each grid cell; trial
//! batches run in parallel inside a cell, so the cell is the natural
//! granularity. The heartbeat does not touch any run.

use std::hash::Hash;

use population::record::{to_jsonl_mixed, RecordLine};
use population::{
    BatchSimulation, ByzantineSet, ChurnPlan, Corruptor, DynamicBackend, DynamicsTrialOutcome,
    FaultInjector, FaultPlan, NoopObserver, Progress, Runner, Simulation, TrialSettings,
};
use rand::Rng;
use ssle::adversary;
use ssle::{CaiIzumiWada, OptimalSilentSsr, SublinearTimeSsr};
use ssle_bench::cli::Flags;

const EXPERIMENT: &str = "churn";

/// The grid axes: replacement churn rates (events per unit of parallel
/// time) and Byzantine fractions. The rates bracket the protocols'
/// re-stabilization times at the default n = 32 (E\[stab\] ≈ 433 for
/// Silent-n-state-SSR, ≈ 108 for Optimal-Silent-SSR): 0.005 leaves ~200
/// time units between membership events — enough for the faster protocols
/// to re-rank — while 0.05 (one event per 20 units) outpaces every reset.
fn grid(quick: bool) -> (Vec<f64>, Vec<f64>) {
    if quick {
        (vec![0.0, 0.05], vec![0.0, 0.1])
    } else {
        (vec![0.0, 0.005, 0.05], vec![0.0, 0.05, 0.15])
    }
}

/// Means over the trials of one grid cell.
struct CellStats {
    availability: f64,
    ranked_availability: f64,
    replacements: f64,
    strikes: f64,
    faults: u64,
    recovered: u64,
    mean_recovery: Option<f64>,
}

fn summarize(outcomes: &[DynamicsTrialOutcome]) -> CellStats {
    let trials = outcomes.len().max(1) as f64;
    let recoveries: Vec<f64> =
        outcomes.iter().filter_map(|o| o.report.chaos.mean_recovery_parallel_time()).collect();
    CellStats {
        availability: outcomes.iter().map(|o| o.report.chaos.availability()).sum::<f64>() / trials,
        ranked_availability: outcomes
            .iter()
            .map(|o| o.report.chaos.ranked_availability())
            .sum::<f64>()
            / trials,
        replacements: outcomes.iter().map(|o| o.report.replacements).sum::<u64>() as f64 / trials,
        strikes: outcomes.iter().map(|o| o.report.byz_strikes).sum::<u64>() as f64 / trials,
        faults: outcomes.iter().map(|o| o.report.chaos.faults.len() as u64).sum(),
        recovered: outcomes.iter().map(|o| o.report.chaos.recovered() as u64).sum(),
        mean_recovery: (!recoveries.is_empty())
            .then(|| recoveries.iter().sum::<f64>() / recoveries.len() as f64),
    }
}

/// The churn plan for one cell. Undisturbed cells (`rate == 0`, no
/// Byzantine agents) get a one-shot replacement scheduled far past the
/// trial horizon: it never fires, but it keeps the run open to the full
/// interaction budget, so every cell measures availability over the same
/// window. (An empty plan would let the run exit at the first full
/// ranking, making "fraction of time ranked" ≈ 0 by construction.)
fn cell_plan(rate: f64, byz: f64, budget: u64, seed: u64) -> ChurnPlan {
    let plan = ChurnPlan::new(seed).rate(rate);
    if rate == 0.0 && byz == 0.0 {
        // Parallel time after `budget` interactions is budget / n ≤ budget.
        plan.replace_at(budget as f64 * 4.0, 1)
    } else {
        plan
    }
}

/// Runs one grid cell: the runner's trials as soak-style runs under
/// sustained replacement churn at `rate` and Byzantine fraction `byz`, each
/// on the backend `build` makes. Per-trial churn/Byzantine seeds come from
/// the per-trial config RNG, so the grid is deterministic in the base seed.
fn cell<P, B>(
    runner: &Runner,
    threads: usize,
    make_protocol: impl Fn() -> P + Sync,
    build: impl Fn(P, Vec<P::State>, u64) -> B + Sync,
    rate: f64,
    byz: f64,
) -> Vec<DynamicsTrialOutcome>
where
    P: Corruptor,
    B: DynamicBackend<P>,
{
    let budget = runner.settings().max_interactions;
    runner.run(
        threads,
        |s| {
            let mut rng = s.config_rng();
            let protocol = make_protocol();
            let initial = adversary::random_configuration(&protocol, &mut rng);
            let churn = cell_plan(rate, byz, budget, rng.gen());
            let byzset = ByzantineSet { fraction: byz, seed: rng.gen() };
            let mut sim = build(protocol, initial, s.execution);
            DynamicsTrialOutcome::measure(s.trial, &mut sim, &churn, &byzset, budget)
        },
        |_| {},
    )
}

/// The agent-array backend of one trial (pinned Byzantine model).
fn agents<P: Corruptor>(
    protocol: P,
    initial: Vec<P::State>,
    seed: u64,
) -> Simulation<P, NoopObserver, FaultInjector> {
    Simulation::new(protocol, initial, seed).with_fault_plan(&FaultPlan::none())
}

/// The count-based backend of one trial (lumped Byzantine model).
fn counts<P>(
    protocol: P,
    initial: Vec<P::State>,
    seed: u64,
) -> BatchSimulation<P, NoopObserver, FaultInjector>
where
    P: Corruptor,
    P::State: Eq + Hash,
{
    BatchSimulation::new(protocol, initial, seed).with_fault_plan(&FaultPlan::none())
}

/// Runs the full churn × Byzantine grid for one (protocol, backend) pair
/// and prints its table; `measure` executes one cell.
#[allow(clippy::too_many_arguments)]
fn run_grid<F>(
    label: &str,
    protocol: &str,
    backend: &str,
    n: usize,
    h: Option<u64>,
    seed: u64,
    quick: bool,
    records: &mut Vec<RecordLine>,
    meter: &mut Progress,
    cells_done: &mut u64,
    measure: F,
) where
    F: Fn(f64, f64) -> Vec<DynamicsTrialOutcome>,
{
    let (rates, fractions) = grid(quick);
    println!("{label}  (n = {n}, backend {backend})");
    println!(
        "{:>7} {:>6} {:>8} {:>8} {:>10} {:>9} {:>11} {:>12}",
        "churn", "byz", "avail", "ranked", "replaced", "strikes", "recovered", "E[recovery]"
    );
    for &rate in &rates {
        for &byz in &fractions {
            let outcomes = measure(rate, byz);
            *cells_done += 1;
            meter.tick(*cells_done, &format!("{protocol}/{backend} churn={rate} byz={byz} done"));
            let spec = format!("{rate}");
            for o in &outcomes {
                records.push(RecordLine::Churn(
                    o.churn_record(EXPERIMENT, protocol, backend, h, seed, &spec, byz),
                ));
                records.extend(
                    o.fault_records(EXPERIMENT, protocol, h, seed)
                        .into_iter()
                        .map(RecordLine::Fault),
                );
            }
            let s = summarize(&outcomes);
            let rec = s.mean_recovery.map_or("-".to_string(), |r| format!("{r:.1}"));
            println!(
                "{:>7} {:>6} {:>8.3} {:>8.3} {:>10.1} {:>9.1} {:>8}/{:<2} {:>12}",
                rate,
                byz,
                s.availability,
                s.ranked_availability,
                s.replacements,
                s.strikes,
                s.recovered,
                s.faults,
                rec,
            );
        }
    }
    println!();
}

fn main() {
    let flags = Flags::parse(&[
        "trials", "seed", "n", "h", "time", "threads", "json-out", "progress", "quick",
    ]);
    let quick = flags.get::<u64>("quick", 0) != 0;
    let trials: u64 = flags.get("trials", if quick { 2 } else { 6 });
    let seed: u64 = flags.get("seed", 1);
    let n: usize = flags.get("n", if quick { 16 } else { 32 });
    let h: u32 = flags.get("h", 2);
    // Long enough that the undisturbed baseline spends most of the trial
    // ranked (Silent-n-state-SSR stabilizes around 433 at n = 32), so the
    // availability surface has a meaningful ceiling to collapse from.
    let time: f64 = flags.get("time", if quick { 600.0 } else { 2_000.0 });
    let threads = flags.threads();
    let budget = (time * n as f64).ceil() as u64;
    let (rates, fractions) = grid(quick);
    // ciw/oss run on both backends; sublinear states are unhashable, so it
    // runs on the agent array only.
    let total_cells = (rates.len() * fractions.len() * 5) as u64;
    let mut meter = if flags.get::<u64>("progress", 0) != 0 {
        Progress::new("churn grid", total_cells, "cells")
    } else {
        Progress::disabled()
    };
    let mut cells_done = 0u64;
    let mut records: Vec<RecordLine> = Vec::new();

    println!("Churn resilience — sustained replacement churn × Byzantine fraction");
    println!(
        "{trials} trial(s) per cell, seed {seed}, {time} parallel-time units per trial; \
         churn in replacements per time unit\n"
    );

    let runner = Runner::new(TrialSettings::new(trials, seed, budget, 0));
    let mut grid = |label: &str,
                    protocol: &str,
                    backend: &str,
                    h: Option<u64>,
                    measure: &dyn Fn(f64, f64) -> Vec<DynamicsTrialOutcome>| {
        let (records, meter, done) = (&mut records, &mut meter, &mut cells_done);
        run_grid(label, protocol, backend, n, h, seed, quick, records, meter, done, measure)
    };
    let (ciw, oss) = ("Silent-n-state-SSR [Cai–Izumi–Wada]", "Optimal-Silent-SSR");
    grid(ciw, "ciw", "agents", None, &|r, b| {
        cell(&runner, threads, || CaiIzumiWada::new(n), agents, r, b)
    });
    grid(ciw, "ciw", "counts", None, &|r, b| {
        cell(&runner, threads, || CaiIzumiWada::new(n), counts, r, b)
    });
    grid(oss, "oss", "agents", None, &|r, b| {
        cell(&runner, threads, || OptimalSilentSsr::new(n), agents, r, b)
    });
    grid(oss, "oss", "counts", None, &|r, b| {
        cell(&runner, threads, || OptimalSilentSsr::new(n), counts, r, b)
    });
    let sublinear = format!("Sublinear-Time-SSR, H = {h}");
    grid(&sublinear, "sublinear", "agents", Some(h as u64), &|r, b| {
        cell(&runner, threads, || SublinearTimeSsr::new(n, h), agents, r, b)
    });
    meter.finish(cells_done, "grid complete");

    println!("reading: churn tolerance tracks re-stabilization speed — a protocol keeps its");
    println!("ranking only while E[stabilize] stays below the churn period, so the fastest");
    println!("stabilizer degrades last; any pinned Byzantine agent denies full ranking.");

    if let Some(path) = flags.try_get_str("json-out") {
        std::fs::write(path, to_jsonl_mixed(&records))
            .unwrap_or_else(|e| panic!("cannot write --json-out {path:?}: {e}"));
        println!("\nwrote {} records to {path} (schema: results/README.md)", records.len());
    }
}
