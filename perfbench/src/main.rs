//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! One invocation runs one workload for a fixed wall-clock budget and
//! prints, as the last line of standard output, one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": F, "metrics": {"<name>": {"value": v, "unit": "u"}, …}}
//! ```
//!
//! With `--trace 0` the metrics are the five end-to-end metrics; with
//! `--trace 1` they are the per-layer metrics, measured by timing calls
//! into each layer's public functions from this package (the program
//! itself is not modified). Every output the workload produces is checked;
//! a failed check prints `"correct": false` and exits with code 1.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oss_agents --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metric definitions and
//! the layer → metric table.

mod engine;
mod layers;
mod service;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// The end-to-end metrics, in output order: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics reported by a traced run: `(name, unit)`. A layer
/// a workload never enters reports 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("engine.interactions", "count"),
    ("engine.ns_per_interaction", "ns"),
    ("engine.rng_draws_per_interaction", "ratio"),
    ("simulation.run_s", "s"),
    ("counts.run_s", "s"),
    ("counts.section.sample_s", "s"),
    ("counts.section.transition_s", "s"),
    ("counts.batches", "count"),
    ("counts.mean_batch", "count"),
    ("counts.exact_steps", "count"),
    ("counts.fallback_rate", "ratio"),
    ("counts.memo_hit_rate", "ratio"),
    ("counts.compactions", "count"),
    ("counts.support", "count"),
    ("tracker.rebuild_us", "us"),
    ("driver.slices", "count"),
    ("setup.config_us", "us"),
    ("setup.backend_us", "us"),
    ("setup.create_ms", "ms"),
    ("setup.server_ms", "ms"),
    ("setup.durable_boot_ms", "ms"),
    ("pop.leader_us", "us"),
    ("pop.ranks_us", "us"),
    ("pop.status_us", "us"),
    ("pop.step_us", "us"),
    ("pop.snapshot_us", "us"),
    ("pop.snapshot_bytes", "bytes"),
    ("span.pop_lock_us", "us"),
    ("span.registry_lock_us", "us"),
    ("registry.autosnaps", "count"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_op", "bytes"),
    ("span.journal_us", "us"),
    ("span.fsync_us", "us"),
    ("wire.parse_us", "us"),
    ("dispatch.status_us", "us"),
    ("dispatch.leader_us", "us"),
    ("dispatch.ranks_us", "us"),
    ("dispatch.step_us", "us"),
    ("net.rtt_overhead_us", "us"),
    ("span.queue_us", "us"),
    ("span.write_us", "us"),
    ("pool.busy", "count"),
    ("client.status.p50_us", "us"),
    ("client.status.tail_us", "us"),
    ("client.leader.p50_us", "us"),
    ("client.leader.tail_us", "us"),
    ("client.step.p50_us", "us"),
    ("client.step.tail_us", "us"),
    ("process.peak_rss_mb", "MiB"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// What one workload pass measured.
pub struct Outcome {
    /// Median set-up time over the pass's set-up repetitions.
    pub setup_s: f64,
    /// Memory high-water marks at the end of the measured phase.
    pub peak: stats::Peaks,
    /// Interactions/s (engine) or acknowledged requests/s (service).
    pub ops_per_s: f64,
    /// Per-sample latencies in milliseconds; a failed request is recorded
    /// at the request timeout, so it misses every latency bound.
    pub samples_ms: Vec<f64>,
    /// What one sample is, for the printed report.
    pub sample: &'static str,
    /// Operations attempted (trials, slices or requests).
    pub attempted: u64,
    /// Operations that failed (non-converged trials, error or busy
    /// responses, timeouts).
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

/// Per-layer metric values collected by a traced pass.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// A recorded value (0 until set).
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Records one per-layer metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name);
        *slot.unwrap_or_else(|| panic!("{name} is not a declared per-layer metric")) = value;
    }
}

/// The parameters of one workload that the per-layer probes reuse, so each
/// layer is timed at the size the workload runs it at.
pub struct Shape {
    pub protocol: &'static str,
    pub backend: &'static str,
    pub n: usize,
    /// Interactions per `step` (or per engine slice).
    pub step: u64,
    /// Whether the workload's daemon journals (fsync always).
    pub durable: bool,
}

const WORKLOADS: [&str; 3] = ["oss_agents", "oss_counts", "service_mixed"];

fn shape(workload: &str) -> Shape {
    match workload {
        "oss_agents" => Shape {
            protocol: "oss",
            backend: "agents",
            n: engine::AGENTS_N,
            step: engine::AGENTS_N as u64,
            durable: false,
        },
        "oss_counts" => Shape {
            protocol: "oss",
            backend: "counts",
            n: engine::COUNTS_N,
            step: engine::COUNTS_N as u64,
            durable: false,
        },
        _ => Shape {
            protocol: "ciw",
            backend: "agents",
            n: service::MIXED_N,
            step: service::MIXED_STEP,
            durable: true,
        },
    }
}

fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    layers: Option<&mut Layers>,
    state: &Path,
) -> Outcome {
    match workload {
        "oss_agents" => engine::oss_agents(seed, seconds, layers),
        "oss_counts" => engine::oss_counts(seed, seconds, layers),
        _ => service::mixed(seed, seconds, layers, state),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <oss_agents|oss_counts|service_mixed> \
     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |key: &str| flags.get(key).ok_or_else(|| format!("missing --{key}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(extra) =
        flags.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The five end-to-end values of one pass, printed with their sample counts.
fn end_to_end(outcome: &Outcome) -> Vec<f64> {
    let p50 = stats::median(&outcome.samples_ms);
    let (tail, pct, samples) = stats::tail(&outcome.samples_ms);
    println!(
        "  {samples} samples, {}; p50 {p50:.4} ms; tail = p{pct:.2} (10 beyond) {tail:.4} ms",
        outcome.sample
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", stats::quantile(&outcome.samples_ms, d as f64 / 10.0)))
        .collect();
    println!("  deciles (ms): {}", deciles.join(" "));
    vec![outcome.setup_s, outcome.ops_per_s, p50, tail, outcome.peak.heap_mb]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, boots, seed_flag, seed] = &argv[..] {
        if flag == "--boot-child" && seed_flag == "--seed" {
            // The set-up boots of `service_mixed`, in a process of their own.
            let (Ok(boots), Ok(seed)) = (boots.parse(), seed.parse()) else {
                eprintln!("perfbench: --boot-child <boots> --seed <u64>");
                return ExitCode::from(2);
            };
            service::boot_child(boots, seed);
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Durable workloads keep their journals inside the checkout's build
    // directory, never outside it.
    let state: PathBuf =
        PathBuf::from(".bench_build").join(format!("perfbench-state-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("perfbench: cannot create {}: {e}", state.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let (outcome, metrics): (Outcome, Vec<(&str, &str, f64)>) = if args.trace {
        let mut layers = Layers::new();
        let (traced, untraced_ops_per_s) = if args.workload == "service_mixed" {
            // The daemon traces every request whether or not a client reads
            // the trace, and this package reads it only outside the
            // measured phase: both halves would run the same code, so the
            // overhead is 0 by construction and one full-length pass runs.
            let traced =
                run_pass(&args.workload, args.seed, args.seconds, Some(&mut layers), &state);
            println!("traced pass:");
            let ops_per_s = end_to_end(&traced)[1];
            (traced, ops_per_s)
        } else {
            // Untraced and traced halves of the same length; their ops/s
            // difference is the cost of the engine's recording `Metrics`
            // sink.
            let half = args.seconds / 2.0;
            let mut plain = run_pass(&args.workload, args.seed, half, None, &state);
            println!("untraced half:");
            let untraced_ops_per_s = end_to_end(&plain)[1];
            // `oss_agents` never enters the counts backend; its traced run
            // also drives `oss_counts` for its two minimum rounds, so the
            // counts layer is measured by a workload in BENCHMARK.json. It
            // runs first: the agent pass then sets the `engine.*` metrics.
            if args.workload == "oss_agents" {
                let counts = engine::oss_counts(args.seed, 0.0, Some(&mut layers));
                plain.attempted += counts.attempted;
                plain.failed += counts.failed;
                plain.errors.extend(counts.errors);
            }
            let mut traced = run_pass(&args.workload, args.seed, half, Some(&mut layers), &state);
            println!("traced half:");
            end_to_end(&traced);
            traced.attempted += plain.attempted;
            traced.failed += plain.failed;
            traced.errors.extend(plain.errors);
            (traced, untraced_ops_per_s)
        };
        layers::probe(&shape(&args.workload), args.seed, &state, &mut layers);
        layers.set("process.peak_rss_mb", traced.peak.rss_mb);
        layers.set("trace.ops_per_s", traced.ops_per_s);
        layers.set("trace.untraced_ops_per_s", untraced_ops_per_s);
        layers.set(
            "trace.overhead_pct",
            100.0 * (untraced_ops_per_s - traced.ops_per_s) / untraced_ops_per_s,
        );
        let metrics = PER_LAYER.iter().map(|&(name, unit)| (name, unit, layers.0[name])).collect();
        (traced, metrics)
    } else {
        let outcome = run_pass(&args.workload, args.seed, args.seconds, None, &state);
        let values = end_to_end(&outcome);
        let metrics =
            END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();
        (outcome, metrics)
    };
    let _ = std::fs::remove_dir_all(&state);

    let mut errors = outcome.errors;
    if outcome.attempted == 0 {
        errors.push("no operation was attempted".to_string());
    }
    for &(name, unit, value) in &metrics {
        println!("{name:<34} {value:>18.6} {unit}");
        if !value.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for e in errors.iter().take(10) {
        println!("CHECK FAILED: {e}");
    }
    if errors.len() > 10 {
        println!("… and {} more failed checks", errors.len() - 10);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
