//! Direct per-layer probes for the traced run: each layer's public entry
//! points timed one call at a time, at the protocol, backend and size the
//! workload runs them at, with no socket in between.

use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use population::runner::rng_from_seed;
use population::{BatchSimulation, Corruptor, RankingProtocol, Simulation};
use ssle::{CaiIzumiWada, OptimalSilentSsr};
use ssle_serve::journal::Header;
use ssle_serve::{handle_line, pop, FsyncPolicy, Op, Registry, Request, ServeConfig, Server, Wal};

use crate::service::POP;
use crate::stats::{median, median_time};
use crate::{Layers, Shape};

/// Median wall time of `f` in microseconds over `reps` calls.
fn time_us<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    median_time(reps, f).0 * 1e6
}

/// Runs every probe and records its per-layer metrics.
pub fn probe(shape: &Shape, seed: u64, state: &Path, layers: &mut Layers) {
    // O(n) calls at n = 10⁶ cost tens of milliseconds; fewer repetitions.
    let reps = if shape.n >= 100_000 { 3 } else { 15 };
    match shape.protocol {
        "oss" => engine_setup(|| OptimalSilentSsr::new(shape.n), shape.backend, seed, reps, layers),
        _ => engine_setup(|| CaiIzumiWada::new(shape.n), shape.backend, seed, reps, layers),
    }
    let create =
        || pop::create(shape.protocol, shape.backend, shape.n as u64, seed).expect("valid shape");
    layers.set("setup.create_ms", median_time(reps, create).0 * 1e3);
    layers.set("setup.server_ms", server_start_ms(shape, state));
    registry_probe(shape, seed, reps, layers);
    journal_probe(shape, seed, state, layers);

    let status = format!("{{\"cmd\":\"status\",\"name\":\"{POP}\"}}");
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..1000 {
                std::hint::black_box(Request::parse(std::hint::black_box(&status)))
                    .expect("valid request");
            }
            started.elapsed().as_secs_f64() * 1e6 / 1000.0
        })
        .collect();
    layers.set("wire.parse_us", median(&batches));
    let rtt = layers.get("client.status.p50_us");
    if rtt > 0.0 {
        layers.set("net.rtt_overhead_us", rtt - layers.get("dispatch.status_us"));
    }
}

/// `setup.config_us` (adversarial configuration), `setup.backend_us`
/// (backend construction) and `tracker.rebuild_us` (a full `is_ranked`
/// rebuild) at the workload's size.
fn engine_setup<P>(make: impl Fn() -> P, backend: &str, seed: u64, reps: usize, layers: &mut Layers)
where
    P: Corruptor + RankingProtocol,
    P::State: Eq + Hash,
{
    let config = || ssle::adversary::random_configuration(&make(), &mut rng_from_seed(seed ^ 1));
    layers.set("setup.config_us", time_us(reps, config));
    // Configurations built untimed; only the constructor consuming one is.
    let mut configs: Vec<_> = (0..reps).map(|_| config()).collect();
    let mut next = || configs.pop().expect("one configuration per repetition");
    if backend == "counts" {
        layers
            .set("setup.backend_us", time_us(reps, || BatchSimulation::new(make(), next(), seed)));
        let sim = BatchSimulation::new(make(), config(), seed);
        layers.set("tracker.rebuild_us", time_us(reps, || sim.is_ranked()));
    } else {
        layers.set("setup.backend_us", time_us(reps, || Simulation::new(make(), next(), seed)));
        let sim = Simulation::new(make(), config(), seed);
        layers.set("tracker.rebuild_us", time_us(reps, || sim.is_ranked()));
    }
}

/// `Server::start` (bind, restore scan, worker pool) with the workload's
/// durability settings.
fn server_start_ms(shape: &Shape, state: &Path) -> f64 {
    let dir = state.join("probe-server");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        snapshot_dir: shape.durable.then(|| dir.clone()),
        ..ServeConfig::default()
    };
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let server = Server::start(&config).expect("bind a loopback port");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            // Stop before running: `run` returns at once and joins the pool.
            server.stop_handle().store(true, std::sync::atomic::Ordering::SeqCst);
            server.run();
            ms
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    median(&times)
}

/// `dispatch.*` (`handle_line`, no socket) and `pop.*` (the managed
/// population's own calls) on a registry hosting the workload's
/// population.
fn registry_probe(shape: &Shape, seed: u64, reps: usize, layers: &mut Layers) {
    let registry = Registry::new(None);
    registry
        .create(POP, shape.protocol, shape.backend, shape.n as u64, seed, None)
        .expect("valid shape");
    let stop = AtomicBool::new(false);
    let line = |cmd: &str| format!("{{\"cmd\":\"{cmd}\",\"name\":\"{POP}\"}}");
    let step = format!("{{\"cmd\":\"step\",\"name\":\"{POP}\",\"interactions\":{}}}", shape.step);
    let dispatch = |request: &str, reps: usize| {
        time_us(reps, || {
            let response = handle_line(&registry, &stop, request);
            assert!(response.contains("\"ok\":true"), "{request} failed: {response}");
        })
    };
    layers.set("dispatch.step_us", dispatch(&step, reps));
    layers.set("dispatch.status_us", dispatch(&line("status"), 200));
    layers.set("dispatch.leader_us", dispatch(&line("leader"), reps));
    layers.set("dispatch.ranks_us", dispatch(&line("ranks"), reps));

    registry
        .with_cell(POP, |cell| {
            let pop = &mut cell.pop;
            layers.set("pop.status_us", time_us(200, || pop.status()));
            layers.set("pop.leader_us", time_us(reps, || pop.leader()));
            layers.set("pop.ranks_us", time_us(reps, || pop.ranks()));
            layers.set("pop.step_us", time_us(reps, || pop.step(shape.step)));
            let (secs, snapshot) = median_time(reps, || pop.snapshot_jsonl());
            layers.set("pop.snapshot_us", secs * 1e6);
            layers.set("pop.snapshot_bytes", snapshot.len() as f64);
        })
        .expect("the probe population exists");
}

/// `journal.append_us` and `journal.bytes_per_op`: `Wal::append` of the
/// workload's `step` under fsync always.
fn journal_probe(shape: &Shape, seed: u64, state: &Path, layers: &mut Layers) {
    const APPENDS: usize = 64;
    let path = state.join("probe.journal.jsonl");
    let header = Header {
        name: POP.to_string(),
        protocol: shape.protocol.to_string(),
        backend: shape.backend.to_string(),
        n: shape.n as u64,
        seed,
        base_seq: 0,
        ids: Vec::new(),
        churn: None,
    };
    let mut wal = Wal::create(&path, &header, FsyncPolicy::Always).expect("create the journal");
    let before = wal.len();
    let times: Vec<f64> = (0..APPENDS)
        .map(|_| {
            let started = Instant::now();
            wal.append(Op::Step(shape.step), None).expect("journal append");
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("journal.append_us", median(&times));
    layers.set("journal.bytes_per_op", (wal.len() - before) as f64 / APPENDS as f64);
    drop(wal);
    let _ = std::fs::remove_file(&path);
}
