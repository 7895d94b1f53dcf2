//! Performance baseline — instrumented throughput grid both backends.
//!
//! Every subsequent performance PR reports against this binary: it runs a
//! **fixed grid** of workloads (`epidemic`, `loose`, `oss`) × backends
//! (`agents`, `counts`) × population sizes (`n ∈ {10⁴, 10⁶, 10⁷}`), each
//! cell a pure-throughput run over a bounded interaction budget with a
//! recording [`population::Metrics`] sink attached. Unlike the
//! `scaling_frontier` binary (which measures *where convergence is
//! feasible*), every cell here runs exactly its budget, so cells are
//! directly comparable across backends.
//!
//! The per-cell metrics make the *why* of each throughput number visible:
//! the hypergeometric exact-fallback rate and batch-size histogram explain
//! the counts backend's wins (epidemic, loose) and its loss (oss, where
//! support ≈ n forces exact stepping), the memo hit rate shows transition
//! caching, and the section timers split wall time across
//! sample/transition/probe/observe.
//!
//! Outputs:
//!
//! * stdout — one table row per cell plus a closing summary;
//! * `--json-out <path>` — `BENCH_baseline.json`, a single nested JSON
//!   object with every cell's throughput + metrics summary (write-only
//!   artifact for CI trend tracking);
//! * `--metrics-out <path>` — one schema-v5 `"kind":"metrics"` JSONL row
//!   per cell, renderable with `ssle report --metrics <path>`.
//!
//! `--quick` (any value) shrinks the grid to `n = 10⁴` with small budgets
//! for CI smoke runs. `--overhead-check` (any value) runs a different,
//! standalone mode: it compares a default-built simulation (whose metrics
//! parameter defaults to [`population::NoopMetrics`]) against one with the
//! noop sink attached explicitly — the two must monomorphize to the same
//! code, so any throughput gap is measurement noise; the check exits
//! non-zero when the gap exceeds the noise bound (CI treats that as
//! informational).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ssle-bench --bin perf_baseline -- \
//!     [--seed 1] [--quick 1] [--json-out BENCH_baseline.json] \
//!     [--metrics-out results/metrics.jsonl] [--overhead-check 1]
//! ```

use std::time::Instant;

use population::counts::{BatchSimulation, CountConfig};
use population::epidemic::{Infection, OneWayEpidemic};
use population::record::{to_jsonl_mixed, JsonObject, MetricsRecord, RecordLine};
use population::runner::{derive_seed, rng_from_seed};
use population::{Metrics, NoopMetrics, Simulation};
use ssle::adversary;
use ssle::loose::LooselyStabilizingLe;
use ssle::optimal_silent::OptimalSilentSsr;
use ssle_bench::cli::Flags;

const EXPERIMENT: &str = "perf_baseline";

/// The counts backend cannot profitably run OSS above this size: a ranked
/// configuration has support ≈ n, so every state draw scans O(n) multiset
/// entries and a single cell would dominate the whole grid's wall time.
/// The `n = 10⁴` cell documents the loss; larger cells are recorded as
/// skipped.
const OSS_COUNTS_LIMIT: u64 = 100_000;

/// Interaction budget covering full one-way-epidemic infection
/// (Θ(n ln n) expected interactions), before the grid cap.
fn epidemic_budget(n: u64) -> u64 {
    8 * n * (n as f64).ln().ceil() as u64
}

/// T_max matching `ssle simulate --protocol loose`.
fn loose_t_max(n: u64) -> u32 {
    8 * (n as f64).log2().ceil() as u32
}

/// A grid cell that was deliberately not run.
struct Skipped {
    workload: &'static str,
    backend: &'static str,
    n: u64,
    reason: &'static str,
}

/// One-way epidemic on the counts backend (support 2 — the ideal
/// compression case; the initial configuration is a 2-entry multiset).
fn epidemic_counts_cell(n: u64, budget: u64, exec_seed: u64, seed: u64) -> MetricsRecord {
    let mut m = Metrics::new();
    let mut config = CountConfig::new();
    config.add(Infection::Infected, 1);
    config.add(Infection::Susceptible, n - 1);
    let started = Instant::now();
    {
        let mut sim =
            BatchSimulation::from_counts(OneWayEpidemic, config, exec_seed).with_metrics(&mut m);
        sim.run_until(budget, |_| false);
    }
    m.to_record(EXPERIMENT, "epidemic", "counts", n, Some(0), seed, started.elapsed().as_secs_f64())
}

/// One-way epidemic on the agent array.
fn epidemic_agents_cell(n: u64, budget: u64, exec_seed: u64, seed: u64) -> MetricsRecord {
    let mut m = Metrics::new();
    let initial = OneWayEpidemic::seeded_configuration(n as usize);
    let started = Instant::now();
    {
        let mut sim = Simulation::new(OneWayEpidemic, initial, exec_seed).with_metrics(&mut m);
        sim.run(budget);
    }
    m.to_record(EXPERIMENT, "epidemic", "agents", n, Some(0), seed, started.elapsed().as_secs_f64())
}

/// Loosely-stabilizing leader election on the counts backend (support
/// stays O(T_max)).
fn loose_counts_cell(n: u64, budget: u64, exec_seed: u64, seed: u64) -> MetricsRecord {
    let mut m = Metrics::new();
    let p = LooselyStabilizingLe::new(loose_t_max(n));
    let mut config = CountConfig::new();
    config.add(p.follower_state(1), n);
    let started = Instant::now();
    {
        let mut sim = BatchSimulation::from_counts(p, config, exec_seed).with_metrics(&mut m);
        sim.run_until(budget, |_| false);
    }
    m.to_record(EXPERIMENT, "loose", "counts", n, Some(0), seed, started.elapsed().as_secs_f64())
}

/// Loosely-stabilizing leader election on the agent array.
fn loose_agents_cell(n: u64, budget: u64, exec_seed: u64, seed: u64) -> MetricsRecord {
    let mut m = Metrics::new();
    let p = LooselyStabilizingLe::new(loose_t_max(n));
    let initial = vec![p.follower_state(1); n as usize];
    let started = Instant::now();
    {
        let mut sim = Simulation::new(p, initial, exec_seed).with_metrics(&mut m);
        sim.run(budget);
    }
    m.to_record(EXPERIMENT, "loose", "agents", n, Some(0), seed, started.elapsed().as_secs_f64())
}

/// Optimal-Silent-SSR from an adversarial random configuration — the
/// incompressible workload (support ≈ n on the counts backend).
fn oss_cell(n: u64, budget: u64, exec_seed: u64, seed: u64, counts: bool) -> MetricsRecord {
    let mut m = Metrics::new();
    let p = OptimalSilentSsr::new(n as usize);
    let initial = adversary::random_oss_configuration(&p, &mut rng_from_seed(derive_seed(seed, 0)));
    let started = Instant::now();
    if counts {
        let mut sim = BatchSimulation::new(p, initial, exec_seed).with_metrics(&mut m);
        sim.run_until(budget, |_| false);
    } else {
        let mut sim = Simulation::new(p, initial, exec_seed).with_metrics(&mut m);
        sim.run(budget);
    }
    let backend = if counts { "counts" } else { "agents" };
    m.to_record(EXPERIMENT, "oss", backend, n, Some(0), seed, started.elapsed().as_secs_f64())
}

fn print_header() {
    println!(
        "{:<9} {:<7} {:>11} {:>14} {:>10} {:>9} {:>7} {:>9} {:>8}",
        "workload", "backend", "n", "interactions", "ips", "fallback", "memo", "batches", "support"
    );
}

fn print_cell(r: &MetricsRecord) {
    let memo = if r.memo_hits + r.memo_misses > 0 {
        format!("{:.0}%", 100.0 * r.memo_hits as f64 / (r.memo_hits + r.memo_misses) as f64)
    } else {
        "-".to_string()
    };
    let fallback = if r.exact_steps + r.batched_pairs > 0 {
        format!("{:.0}%", 100.0 * r.fallback_rate())
    } else {
        "-".to_string()
    };
    let support = if r.support > 0 { r.support.to_string() } else { "-".to_string() };
    println!(
        "{:<9} {:<7} {:>11} {:>14} {:>10.2e} {:>9} {:>7} {:>9} {:>8}",
        r.protocol,
        r.backend,
        r.n,
        r.interactions,
        r.interactions_per_second(),
        fallback,
        memo,
        r.batches,
        support,
    );
}

/// One `BENCH_baseline.json` cell: the throughput number plus the metrics
/// summary that explains it.
fn cell_json(r: &MetricsRecord) -> String {
    let mut o = JsonObject::new();
    o.field_str("workload", &r.protocol);
    o.field_str("backend", &r.backend);
    o.field_u64("n", r.n);
    o.field_u64("interactions", r.interactions);
    o.field_f64("wall_s", r.wall_s);
    o.field_f64("ips", r.interactions_per_second());
    o.field_u64("rng_draws", r.rng_draws);
    o.field_u64("batches", r.batches);
    o.field_u64("batched_pairs", r.batched_pairs);
    o.field_u64("exact_steps", r.exact_steps);
    o.field_f64("fallback_rate", r.fallback_rate());
    o.field_u64("memo_hits", r.memo_hits);
    o.field_u64("memo_misses", r.memo_misses);
    o.field_u64("compactions", r.compactions);
    o.field_u64("support", r.support);
    o.field_u64("flushes", r.flushes);
    match &r.batch_hist {
        Some(h) => o.field_str("batch_hist", h),
        None => o.field_null("batch_hist"),
    };
    o.field_f64("sample_s", r.sample_s);
    o.field_f64("transition_s", r.transition_s);
    o.field_f64("probe_s", r.probe_s);
    o.field_f64("observe_s", r.observe_s);
    o.finish()
}

fn skipped_json(s: &Skipped) -> String {
    let mut o = JsonObject::new();
    o.field_str("workload", s.workload);
    o.field_str("backend", s.backend);
    o.field_u64("n", s.n);
    o.field_str("reason", s.reason);
    o.finish()
}

/// The full nested `BENCH_baseline.json` document (write-only artifact).
fn bench_json(seed: u64, quick: bool, cells: &[MetricsRecord], skipped: &[Skipped]) -> String {
    let cell_list: Vec<String> = cells.iter().map(cell_json).collect();
    let skip_list: Vec<String> = skipped.iter().map(skipped_json).collect();
    format!(
        "{{\"bench\":\"{EXPERIMENT}\",\"seed\":{seed},\"quick\":{quick},\"cells\":[{}],\"skipped\":[{}]}}\n",
        cell_list.join(","),
        skip_list.join(","),
    )
}

/// `--overhead-check`: the zero-overhead claim, measured. A default-built
/// simulation and one with `NoopMetrics` attached explicitly are the same
/// monomorphization, so their throughput must agree within noise; the
/// recording-sink run is printed as context (its overhead is allowed to be
/// nonzero — that is the price of turning metrics *on*). All three run a
/// plain budget: a predicate, even a constant one, would be timed as the
/// Probe section on every interaction under the recording sink.
fn overhead_check(seed: u64) -> bool {
    const N: u64 = 1_000_000;
    const BUDGET: u64 = 4_000_000;
    const REPS: usize = 5;
    const NOISE_BOUND: f64 = 0.15;

    let exec_seed = derive_seed(seed, 1);
    let run_default = || {
        let initial = OneWayEpidemic::seeded_configuration(N as usize);
        let mut sim = Simulation::new(OneWayEpidemic, initial, exec_seed);
        let started = Instant::now();
        sim.run(BUDGET);
        started.elapsed().as_secs_f64()
    };
    let run_noop = || {
        let initial = OneWayEpidemic::seeded_configuration(N as usize);
        let mut sim = Simulation::new(OneWayEpidemic, initial, exec_seed).with_metrics(NoopMetrics);
        let started = Instant::now();
        sim.run(BUDGET);
        started.elapsed().as_secs_f64()
    };
    let run_recording = || {
        let initial = OneWayEpidemic::seeded_configuration(N as usize);
        let mut m = Metrics::new();
        let started;
        {
            let mut sim = Simulation::new(OneWayEpidemic, initial, exec_seed).with_metrics(&mut m);
            started = Instant::now();
            sim.run(BUDGET);
        }
        started.elapsed().as_secs_f64()
    };

    // One discarded warm-up, then the variants interleaved per round so
    // CPU-frequency drift on a shared runner hits all three alike; take
    // each variant's best round.
    let (_, _, _) = (run_default(), run_noop(), run_recording());
    let ips_of = |wall: f64| BUDGET as f64 / wall;
    let (mut default_ips, mut noop_ips, mut recording_ips) = (f64::MIN, f64::MIN, f64::MIN);
    for _ in 0..REPS {
        default_ips = default_ips.max(ips_of(run_default()));
        noop_ips = noop_ips.max(ips_of(run_noop()));
        recording_ips = recording_ips.max(ips_of(run_recording()));
    }

    let gap = (noop_ips - default_ips).abs() / default_ips;
    println!("overhead check — one-way epidemic, n = {N}, {BUDGET} interactions, best of {REPS}:");
    println!("  default (metrics param defaulted): {default_ips:>10.2e} ips");
    println!(
        "  explicit NoopMetrics:              {noop_ips:>10.2e} ips   gap {:.1}%",
        100.0 * gap
    );
    println!(
        "  recording Metrics sink:            {recording_ips:>10.2e} ips   overhead {:.1}%",
        100.0 * (default_ips - recording_ips).max(0.0) / default_ips
    );
    let ok = gap <= NOISE_BOUND;
    println!(
        "  zero-overhead claim: {} (noise bound {:.0}%)",
        if ok { "holds" } else { "EXCEEDED" },
        100.0 * NOISE_BOUND
    );
    ok
}

fn main() {
    let flags = Flags::parse(&["seed", "quick", "json-out", "metrics-out", "overhead-check"]);
    let seed: u64 = flags.get("seed", 1);
    let quick = flags.try_get_str("quick").is_some();
    if flags.try_get_str("overhead-check").is_some() {
        if !overhead_check(seed) {
            std::process::exit(1);
        }
        return;
    }

    let ns: &[u64] = if quick { &[10_000] } else { &[10_000, 1_000_000, 10_000_000] };
    let cap: u64 = if quick { 400_000 } else { 20_000_000 };

    println!("Performance baseline — instrumented throughput grid, seed {seed}");
    println!(
        "bounded budgets (pure throughput; convergence feasibility is scaling_frontier's job)\n"
    );
    print_header();

    let mut cells: Vec<MetricsRecord> = Vec::new();
    let mut skipped: Vec<Skipped> = Vec::new();
    let mut idx: u64 = 1;
    let mut next_seed = || {
        idx += 1;
        derive_seed(seed, idx)
    };

    for &n in ns {
        let budget = epidemic_budget(n).min(cap);
        for counts in [true, false] {
            let r = if counts {
                epidemic_counts_cell(n, budget, next_seed(), seed)
            } else {
                epidemic_agents_cell(n, budget, next_seed(), seed)
            };
            print_cell(&r);
            cells.push(r);
        }
    }
    for &n in ns {
        let budget = (4 * n).min(cap);
        for counts in [true, false] {
            let r = if counts {
                loose_counts_cell(n, budget, next_seed(), seed)
            } else {
                loose_agents_cell(n, budget, next_seed(), seed)
            };
            print_cell(&r);
            cells.push(r);
        }
    }
    for &n in ns {
        let budget = (4 * n).min(cap);
        if n <= OSS_COUNTS_LIMIT {
            let r = oss_cell(n, budget, next_seed(), seed, true);
            print_cell(&r);
            cells.push(r);
        } else {
            println!("{:<9} {:<7} {:>11} {:>14}", "oss", "counts", n, "skipped (support ≈ n)");
            skipped.push(Skipped {
                workload: "oss",
                backend: "counts",
                n,
                reason: "support ≈ n: every state draw scans O(n) multiset entries; \
                         the n = 10\u{2074} cell documents the loss",
            });
        }
        let r = oss_cell(n, budget, next_seed(), seed, false);
        print_cell(&r);
        cells.push(r);
    }

    println!("\nreading the grid:");
    println!("  fallback — share of pair draws through the exact one-at-a-time path;");
    println!("  low fallback + fat batch histogram is where the counts backend wins.");
    println!("  memo — transition-memoization hit rate (counts backend only).");
    println!("  oss/counts is absent above n = 10\u{2075}: support ≈ n makes batching useless.");

    if let Some(path) = flags.try_get_str("metrics-out") {
        let records: Vec<RecordLine> = cells.iter().cloned().map(RecordLine::Metrics).collect();
        std::fs::write(path, to_jsonl_mixed(&records))
            .unwrap_or_else(|e| panic!("cannot write --metrics-out {path:?}: {e}"));
        println!(
            "\nwrote {} metrics rows to {path} (render: ssle report --metrics {path})",
            cells.len()
        );
    }
    if let Some(path) = flags.try_get_str("json-out") {
        std::fs::write(path, bench_json(seed, quick, &cells, &skipped))
            .unwrap_or_else(|e| panic!("cannot write --json-out {path:?}: {e}"));
        println!("wrote the baseline document to {path}");
    }
}
