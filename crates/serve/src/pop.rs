//! Managed live populations — the daemon's unit of multiplexing.
//!
//! A [`Managed`] population bundles a simulation backend with the
//! [`SteppedDriver`] that paces it: every `step` request runs bounded
//! slices (at most one parallel-time unit each) so externally injected
//! events fire between slices, convergence is probed at every boundary,
//! and a long-running step cannot wedge the population's lock for an
//! unbounded stretch of interactions at a time.
//!
//! Four concrete combinations hide behind the trait object: the two
//! snapshottable protocols with a [`Corruptor`] impl (`ciw`, `oss`) on the
//! two backends (`agents`, `counts`). The loosely-stabilizing protocol is
//! snapshottable but has no corruptor (no adversarial joins), and
//! Sublinear-Time-SSR has no snapshot codec — neither can be served.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::time::Instant;

use population::fault::{Corruptor, NoFaults};
use population::metrics::Metrics;
use population::observer::NoopObserver;
use population::runner::rng_from_seed;
use population::scheduler::Scheduler;
use population::snapshot::{
    freeze_agents, freeze_counts, restore_agents, restore_counts, SnapshotDoc, SnapshotProtocol,
    WriteSnapshot,
};
use population::{
    BatchSimulation, ByzantineSet, ChurnAction, ChurnPlan, DynamicBackend, Simulation,
    SimulationBackend, SteppedDriver,
};
use ssle::adversary::random_configuration;
use ssle::{CaiIzumiWada, OptimalSilentSsr};

/// Agent-array backend with the recording metrics sink attached.
type AgentSim<P> = Simulation<P, NoopObserver, NoFaults, Scheduler, Metrics>;
/// Count-based backend with the recording metrics sink attached.
type CountSim<P> = BatchSimulation<P, NoopObserver, NoFaults, Metrics>;

/// How many slice-boundary checkpoints each population retains.
const TIMELINE_CAP: usize = 256;

/// Largest population the daemon will create or let `join` and churn grow
/// to (the counts backend handles far more, but a service request should
/// not be able to allocate without bound); the same cap bounds an agent
/// snapshot's restore.
pub use population::snapshot::MAX_N;

/// One slice-boundary checkpoint in a population's retained timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Interactions performed when the checkpoint was taken.
    pub interactions: u64,
    /// Piecewise parallel time at the checkpoint.
    pub parallel_time: f64,
    /// Live population size.
    pub live: usize,
    /// Agents outputting rank 1.
    pub leaders: u32,
    /// Whether the configuration was correctly ranked at `n₀`.
    pub ranked: bool,
}

/// What one `step` request did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Interactions actually performed (may undershoot the request only
    /// when the slice made no progress).
    pub performed: u64,
    /// Driver slices the step was split into.
    pub slices: u64,
}

/// A population's full queryable state.
#[derive(Debug, Clone, PartialEq)]
pub struct Status {
    /// Protocol tag (`"ciw"` or `"oss"`).
    pub protocol: &'static str,
    /// Backend name (`"agents"` or `"counts"`).
    pub backend: &'static str,
    /// The size the protocol was configured for.
    pub n0: usize,
    /// Live population size (drifts under churn).
    pub live: usize,
    /// Interactions performed so far.
    pub interactions: u64,
    /// Piecewise parallel time.
    pub parallel_time: f64,
    /// Whether the last boundary probe saw a correct ranking at `n₀`.
    pub ranked: bool,
    /// Agents outputting rank 1 at the last boundary probe.
    pub leaders: u32,
    /// Agents joined / departed / replaced / corrupted, and Byzantine
    /// strikes, since creation.
    pub joins: u64,
    /// See `joins`.
    pub leaves: u64,
    /// See `joins`.
    pub replacements: u64,
    /// See `joins`.
    pub corruptions: u64,
    /// See `joins`.
    pub byz_strikes: u64,
    /// Injected events that have not re-stabilized yet.
    pub open_faults: usize,
    /// Fraction of observed steps with a unique leader.
    pub availability: f64,
    /// The creation seed. A snapshot restore does not store it (the seed
    /// lives in the RNG position); [`restore`] re-stamps the value the
    /// registry recovered from the journal header, or 0 when no journal
    /// survived.
    pub seed: u64,
}

/// The unique-leader query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderReport {
    /// Agents outputting rank 1.
    pub leaders: u32,
    /// Whether the configuration is correctly ranked at `n₀`.
    pub ranked: bool,
    /// Index of the unique leader, on backends with agent identities.
    pub index: Option<usize>,
}

/// The rank-histogram query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RanksReport {
    /// Whether the configuration is correctly ranked at `n₀`.
    pub ranked: bool,
    /// Ranks in `1..=n₀` held by exactly one agent.
    pub singleton_ranks: usize,
    /// Ranks held by two or more agents.
    pub duplicated_ranks: usize,
    /// Ranks held by no agent.
    pub missing_ranks: usize,
}

/// Membership events a client can inject between slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Adversarial joins.
    Join,
    /// Random departures.
    Leave,
    /// Adversarial overwrites of random agents.
    Corrupt,
}

/// The object-safe face of one live population.
pub trait Managed: Send {
    /// Protocol tag (`"ciw"` or `"oss"`).
    fn protocol_name(&self) -> &'static str;
    /// Backend name (`"agents"` or `"counts"`).
    fn backend_name(&self) -> &'static str;
    /// Runs up to `interactions` more interactions in bounded slices.
    fn step(&mut self, interactions: u64) -> StepReport;
    /// Injects one membership event; returns agents touched after clamps.
    fn inject(&mut self, kind: EventKind, k: usize) -> usize;
    /// Pins the injected-event random stream (victim and adversarial-state
    /// selection) to `seed`. The stream is driver state the snapshot does
    /// not capture; the journal layer reseeds it from the command sequence
    /// number before every injection so replay is exact.
    fn reseed_events(&mut self, seed: u64);
    /// Rebinds the membership schedule (`churn-plan`).
    fn set_churn(&mut self, plan: &ChurnPlan);
    /// Full queryable state.
    fn status(&self) -> Status;
    /// The unique-leader query, as of the last boundary probe.
    fn leader(&self) -> LeaderReport;
    /// The rank-histogram query, as of the last boundary probe.
    fn ranks(&self) -> RanksReport;
    /// The most recent `last` slice-boundary checkpoints, oldest first.
    fn timeline(&self, last: usize) -> Vec<Checkpoint>;
    /// The engine-metrics record for this population as a JSONL row.
    fn metrics_record_json(&self, experiment: &str) -> String;
    /// Copies the backend's raw state — the agent array or the count
    /// entries, the clock and the RNG position — for encoding later,
    /// without the population.
    fn freeze(&self) -> Box<dyn WriteSnapshot>;
    /// Serializes the population to the versioned snapshot format (`seq`
    /// 0: no journal sequence stamped).
    fn snapshot_jsonl(&self) -> String {
        self.freeze().to_jsonl(0)
    }
}

/// The backend-specific pieces [`Pop`] cannot get through
/// [`DynamicBackend`]: the frozen copy and the metrics sink.
trait ServeBackend<P: Corruptor + SnapshotProtocol>: DynamicBackend<P> {
    fn freeze(&self) -> Box<dyn WriteSnapshot>;
    fn engine_metrics(&self) -> &Metrics;
}

impl<P> ServeBackend<P> for AgentSim<P>
where
    P: Corruptor + SnapshotProtocol,
{
    fn freeze(&self) -> Box<dyn WriteSnapshot> {
        Box::new(freeze_agents(self))
    }

    fn engine_metrics(&self) -> &Metrics {
        self.metrics()
    }
}

impl<P> ServeBackend<P> for CountSim<P>
where
    P: Corruptor + SnapshotProtocol,
    P::State: Eq + std::hash::Hash,
{
    fn freeze(&self) -> Box<dyn WriteSnapshot> {
        Box::new(freeze_counts(self))
    }

    fn engine_metrics(&self) -> &Metrics {
        self.metrics()
    }
}

/// One managed population: a backend plus its pacing driver and retained
/// timeline.
struct Pop<P, B>
where
    P: Corruptor + SnapshotProtocol,
    B: ServeBackend<P>,
{
    backend: B,
    driver: SteppedDriver,
    seed: u64,
    timeline: VecDeque<Checkpoint>,
    created: Instant,
    _protocol: PhantomData<fn() -> P>,
}

impl<P, B> Pop<P, B>
where
    P: Corruptor + SnapshotProtocol,
    B: ServeBackend<P>,
{
    fn new(mut backend: B, seed: u64, resumed: bool) -> Self {
        let plan = capped(&ChurnPlan::none());
        let driver = if resumed {
            SteppedDriver::bind_resumed(&mut backend, &plan, &ByzantineSet::none())
        } else {
            SteppedDriver::bind(&mut backend, &plan, &ByzantineSet::none())
        };
        let mut pop = Pop {
            backend,
            driver,
            seed,
            timeline: VecDeque::new(),
            created: Instant::now(),
            _protocol: PhantomData,
        };
        pop.record_checkpoint();
        pop
    }

    fn record_checkpoint(&mut self) {
        if self.timeline.len() == TIMELINE_CAP {
            self.timeline.pop_front();
        }
        self.timeline.push_back(Checkpoint {
            interactions: self.backend.interactions(),
            parallel_time: self.driver.parallel_time(),
            live: self.backend.population_size(),
            leaders: self.driver.leaders(),
            ranked: self.driver.is_ranked(),
        });
    }
}

impl<P, B> Managed for Pop<P, B>
where
    P: Corruptor + SnapshotProtocol,
    B: ServeBackend<P> + Send,
{
    fn protocol_name(&self) -> &'static str {
        P::TAG
    }

    fn backend_name(&self) -> &'static str {
        <B as SimulationBackend<P>>::NAME
    }

    fn step(&mut self, interactions: u64) -> StepReport {
        let budget = self.backend.interactions().saturating_add(interactions);
        let mut performed = 0;
        let mut slices = 0;
        while self.backend.interactions() < budget {
            // One parallel-time unit per slice: injected schedules fire on
            // time and convergence is probed at every boundary.
            let chunk = (self.backend.population_size() as u64).max(1);
            let out = self.driver.slice(&mut self.backend, chunk, budget);
            slices += 1;
            performed += out;
            if out == 0 {
                break;
            }
        }
        self.record_checkpoint();
        StepReport { performed, slices }
    }

    fn inject(&mut self, kind: EventKind, k: usize) -> usize {
        let applied = match kind {
            EventKind::Join => self.driver.inject(&mut self.backend, ChurnAction::Join(k)),
            EventKind::Leave => self.driver.inject(&mut self.backend, ChurnAction::Leave(k)),
            EventKind::Corrupt => self.driver.inject_corruption(&mut self.backend, k),
        };
        self.record_checkpoint();
        applied
    }

    fn reseed_events(&mut self, seed: u64) {
        self.driver.reseed_event_stream(seed);
    }

    fn set_churn(&mut self, plan: &ChurnPlan) {
        self.driver.rebind_churn(&capped(plan));
    }

    fn status(&self) -> Status {
        let (joins, leaves, replacements, corruptions, byz_strikes) = self.driver.tallies();
        Status {
            protocol: P::TAG,
            backend: <B as SimulationBackend<P>>::NAME,
            n0: self.backend.configured_n(),
            live: self.backend.population_size(),
            interactions: self.backend.interactions(),
            parallel_time: self.driver.parallel_time(),
            ranked: self.driver.is_ranked(),
            leaders: self.driver.leaders(),
            joins,
            leaves,
            replacements,
            corruptions,
            byz_strikes,
            open_faults: self.driver.open_faults(),
            availability: self.driver.availability(),
            seed: self.seed,
        }
    }

    fn leader(&self) -> LeaderReport {
        LeaderReport {
            leaders: self.driver.leaders(),
            ranked: self.driver.is_ranked(),
            index: self.driver.leader_index(),
        }
    }

    fn ranks(&self) -> RanksReport {
        let ranks = self.driver.ranks();
        RanksReport {
            ranked: self.driver.is_ranked(),
            singleton_ranks: ranks.ranks_with_one(),
            duplicated_ranks: ranks.duplicated_ranks(),
            missing_ranks: ranks.missing_ranks(),
        }
    }

    fn timeline(&self, last: usize) -> Vec<Checkpoint> {
        let skip = self.timeline.len().saturating_sub(last);
        self.timeline.iter().skip(skip).copied().collect()
    }

    fn metrics_record_json(&self, experiment: &str) -> String {
        self.backend
            .engine_metrics()
            .to_record(
                experiment,
                P::TAG,
                <B as SimulationBackend<P>>::NAME,
                self.backend.configured_n() as u64,
                None,
                self.seed,
                self.created.elapsed().as_secs_f64(),
            )
            .to_json()
    }

    fn freeze(&self) -> Box<dyn WriteSnapshot> {
        self.backend.freeze()
    }
}

/// `plan` with its join ceiling lowered to [`MAX_N`]: neither churn nor a
/// `join` grows a population past what its snapshot restores.
fn capped(plan: &ChurnPlan) -> ChurnPlan {
    let cap = MAX_N as usize;
    plan.clone().with_bounds(plan.min_n, Some(plan.max_n.map_or(cap, |m| m.min(cap))))
}

fn validated_n(n: u64) -> Result<usize, String> {
    if n < 2 {
        return Err("populations need at least 2 agents".to_string());
    }
    if n > MAX_N {
        return Err(format!("n = {n} exceeds the service cap of {MAX_N}"));
    }
    Ok(n as usize)
}

/// Creates a managed population from wire parameters. The initial
/// configuration is adversarial (uniformly random states drawn from the
/// seed's companion stream, `seed ^ 1`, matching the trial runners).
///
/// # Errors
///
/// Returns a message for unknown protocol/backend names or an out-of-range
/// `n`.
pub fn create(
    protocol: &str,
    backend: &str,
    n: u64,
    seed: u64,
) -> Result<Box<dyn Managed>, String> {
    build(protocol, backend, validated_n(n)?, seed, None)
}

/// Rehydrates a managed population from a parsed snapshot document.
/// `seed` is the creation seed recovered from the journal header (0 when
/// none survived) — the snapshot itself does not carry it, and without
/// re-stamping it here every restored population would report `seed: 0`
/// in `status` forever after.
///
/// # Errors
///
/// Returns a message for unknown tags or a document that fails the codec's
/// validation.
pub fn restore(doc: &SnapshotDoc, seed: u64) -> Result<Box<dyn Managed>, String> {
    let (p, b) = (doc.protocol.as_str(), doc.backend.as_str());
    if !matches!((p, b), ("ciw" | "oss", "agents" | "counts")) {
        return Err(format!("cannot serve snapshot of protocol {p:?} on backend {b:?}"));
    }
    build(p, b, doc.param as usize, seed, Some(doc))
}

/// One of the four servable combinations, restored from `doc` when given
/// and created fresh otherwise.
fn build(
    protocol: &str,
    backend: &str,
    n: usize,
    seed: u64,
    doc: Option<&SnapshotDoc>,
) -> Result<Box<dyn Managed>, String> {
    match (protocol, backend) {
        ("ciw", "agents") => Ok(Box::new(agents_pop(CaiIzumiWada::new(n), seed, doc)?)),
        ("ciw", "counts") => Ok(Box::new(counts_pop(CaiIzumiWada::new(n), seed, doc)?)),
        ("oss", "agents") => Ok(Box::new(agents_pop(OptimalSilentSsr::new(n), seed, doc)?)),
        ("oss", "counts") => Ok(Box::new(counts_pop(OptimalSilentSsr::new(n), seed, doc)?)),
        ("ciw" | "oss", other) => Err(format!("unknown backend {other:?} (agents, counts)")),
        (other, _) => Err(format!("unknown protocol {other:?} (ciw, oss)")),
    }
}

fn agents_pop<P>(
    protocol: P,
    seed: u64,
    doc: Option<&SnapshotDoc>,
) -> Result<Pop<P, AgentSim<P>>, String>
where
    P: Corruptor + SnapshotProtocol,
{
    let sim = match doc {
        Some(doc) => restore_agents(protocol, doc).map_err(|e| e.to_string())?,
        None => {
            let initial = random_configuration(&protocol, &mut rng_from_seed(seed ^ 1));
            Simulation::new(protocol, initial, seed)
        }
    };
    Ok(Pop::new(sim.with_metrics(Metrics::new()), seed, doc.is_some()))
}

fn counts_pop<P>(
    protocol: P,
    seed: u64,
    doc: Option<&SnapshotDoc>,
) -> Result<Pop<P, CountSim<P>>, String>
where
    P: Corruptor + SnapshotProtocol,
    P::State: Eq + std::hash::Hash,
{
    let sim = match doc {
        Some(doc) => restore_counts(protocol, doc).map_err(|e| e.to_string())?,
        None => {
            let initial = random_configuration(&protocol, &mut rng_from_seed(seed ^ 1));
            BatchSimulation::new(protocol, initial, seed)
        }
    };
    Ok(Pop::new(sim.with_metrics(Metrics::new()), seed, doc.is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::snapshot::SnapshotDoc;
    use rand::Rng;

    #[test]
    fn create_validates_names_and_sizes() {
        assert!(create("ciw", "agents", 16, 1).is_ok());
        assert!(create("oss", "counts", 16, 1).is_ok());
        assert!(create("loose", "agents", 16, 1).err().unwrap().contains("unknown protocol"));
        assert!(create("ciw", "gpu", 16, 1).err().unwrap().contains("unknown backend"));
        assert!(create("ciw", "agents", 1, 1).err().unwrap().contains("at least 2"));
        assert!(create("ciw", "agents", MAX_N + 1, 1).err().unwrap().contains("cap"));
    }

    /// Joins, before and after a churn-plan rebind, stop at `MAX_N`. A
    /// counts population restored one agent below the cap keeps this cheap.
    #[test]
    fn joins_stop_at_the_population_cap() {
        let mut doc =
            SnapshotDoc::from_jsonl(&create("oss", "counts", 10, 1).unwrap().snapshot_jsonl())
                .unwrap();
        doc.live = MAX_N - 1;
        doc.runs = vec![(doc.runs[0].0.clone(), MAX_N - 1)];
        let mut pop = restore(&doc, 1).unwrap();
        assert_eq!(pop.inject(EventKind::Join, 5), 1);
        assert_eq!(pop.status().live as u64, MAX_N);
        pop.set_churn(&ChurnPlan::parse("0.05", 3).unwrap());
        assert_eq!(pop.inject(EventKind::Join, 5), 0);
        assert_eq!(pop.status().live as u64, MAX_N);
    }

    #[test]
    fn step_makes_progress_and_checkpoints() {
        let mut pop = create("ciw", "agents", 24, 7).unwrap();
        let before = pop.status();
        let report = pop.step(2_000);
        assert_eq!(report.performed, 2_000);
        assert!(report.slices >= 2_000 / 24);
        let after = pop.status();
        assert_eq!(after.interactions, before.interactions + 2_000);
        assert!(after.parallel_time > before.parallel_time);
        assert!(!pop.timeline(10).is_empty());
    }

    #[test]
    fn events_change_membership_and_queries_reflect_it() {
        for backend in ["agents", "counts"] {
            let mut pop = create("oss", backend, 16, 3).unwrap();
            assert_eq!(pop.inject(EventKind::Join, 4), 4);
            assert_eq!(pop.status().live, 20);
            assert_eq!(pop.inject(EventKind::Leave, 4), 4);
            assert_eq!(pop.status().live, 16);
            assert_eq!(pop.inject(EventKind::Corrupt, 5), 5);
            let s = pop.status();
            assert_eq!((s.joins, s.leaves, s.corruptions), (4, 4, 5));
            // Drive to re-stabilization; OSS at n=16 needs far less than this.
            for _ in 0..10_000 {
                if pop.leader().ranked {
                    break;
                }
                pop.step(16 * 16);
            }
            let leader = pop.leader();
            assert!(leader.ranked, "{backend}: never re-stabilized after events");
            assert_eq!(leader.leaders, 1);
            let ranks = pop.ranks();
            assert_eq!(ranks.singleton_ranks, 16);
            assert_eq!((ranks.duplicated_ranks, ranks.missing_ranks), (0, 0));
            // A join leaves the live size off n₀ (this stream's joiner
            // outputs no rank): no query may report the population ranked.
            pop.reseed_events(1);
            pop.inject(EventKind::Join, 1);
            let (status, last) = (pop.status(), pop.timeline(1)[0]);
            assert_eq!((status.live, status.ranked, last.ranked), (17, false, false), "{backend}");
            assert!(!pop.leader().ranked && !pop.ranks().ranked, "{backend}");
        }
    }

    /// Drives a seeded random mix of step / join / leave / corrupt /
    /// churn-plan commands and snapshot→restore round trips. After every
    /// command, `leader`, `ranks`, `status` and the last checkpoint must
    /// equal answers rebuilt from the backend's states: a fresh probe (rank
    /// histogram and unique rank-1 index) and a scan of its ranks; and the
    /// `status` availability must equal the finalized chaos report's.
    fn exercise<P, B>(make: impl Fn(Option<&SnapshotDoc>) -> Result<Pop<P, B>, String>)
    where
        P: Corruptor + SnapshotProtocol,
        B: ServeBackend<P> + Send,
    {
        let mut pop = make(None).unwrap();
        let mut rng = rng_from_seed(pop.seed);
        let n0 = pop.backend.configured_n();
        for cmd in 0..120 {
            let k = rng.gen_range(1..=2);
            pop.reseed_events(cmd);
            match rng.gen_range(0..6) {
                0 | 1 => _ = pop.step(rng.gen_range(1..=40 * n0 as u64)),
                // Joins and leaves walk the live size around n₀.
                2 if pop.backend.population_size() <= n0 => _ = pop.inject(EventKind::Join, k),
                2 => _ = pop.inject(EventKind::Leave, k),
                3 => _ = pop.inject(EventKind::Corrupt, k),
                4 => {
                    let t = pop.driver.parallel_time();
                    pop.set_churn(&ChurnPlan::new(cmd).join_at(t + 1.0, k).leave_at(t + 3.0, k));
                }
                _ => {
                    let doc = SnapshotDoc::from_jsonl(&pop.snapshot_jsonl()).unwrap();
                    pop = make(Some(&doc)).unwrap();
                }
            }
            let (tracker, index) = pop.backend.rank_probe();
            let live = pop.backend.population_size();
            let (ranked, leaders) = (tracker.is_correct() && live == n0, tracker.count_of(1));
            let tally =
                |keep: fn(u32) -> bool| (1..=n0).filter(|&r| keep(tracker.count_of(r))).count();
            let (singleton_ranks, duplicated_ranks, missing_ranks) =
                (tally(|c| c == 1), tally(|c| c > 1), tally(|c| c == 0));
            let at = format!("{} command {cmd}", P::TAG);
            assert_eq!(pop.leader(), LeaderReport { leaders, ranked, index }, "{at}");
            let want = RanksReport { ranked, singleton_ranks, duplicated_ranks, missing_ranks };
            assert_eq!(pop.ranks(), want, "{at}");
            let (status, last) = (pop.status(), pop.timeline(1)[0]);
            assert_eq!((status.ranked, status.leaders, status.live), (ranked, leaders, live));
            assert_eq!((last.ranked, last.leaders, last.live), (ranked, leaders, live));
            let report = pop.driver.clone().finish(&pop.backend).chaos;
            assert_eq!(status.availability, report.availability(), "{at}");
        }
    }

    #[test]
    fn cached_answers_match_a_rebuild_from_scratch() {
        let (ciw, oss) = (|| CaiIzumiWada::new(10), || OptimalSilentSsr::new(10));
        for seed in 0..3 {
            exercise(|doc| agents_pop(ciw(), seed, doc));
            exercise(|doc| agents_pop(oss(), seed, doc));
            exercise(|doc| counts_pop(ciw(), seed, doc));
            exercise(|doc| counts_pop(oss(), seed, doc));
        }
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        for backend in ["agents", "counts"] {
            let mut pop = create("oss", backend, 12, 9).unwrap();
            pop.step(5_000);
            let doc = SnapshotDoc::from_jsonl(&pop.snapshot_jsonl()).unwrap();
            let mut restored = restore(&doc, 9).unwrap();
            assert_eq!(restored.status().seed, 9, "restore must re-stamp the seed");
            pop.step(5_000);
            restored.step(5_000);
            assert_eq!(
                pop.snapshot_jsonl(),
                restored.snapshot_jsonl(),
                "{backend} diverged after restore"
            );
        }
    }

    #[test]
    fn metrics_record_is_valid_jsonl() {
        let mut pop = create("ciw", "counts", 32, 2).unwrap();
        pop.step(10_000);
        let json = pop.metrics_record_json("service");
        let line = population::RecordLine::from_json(&json).unwrap();
        assert!(matches!(line, population::RecordLine::Metrics(_)));
    }
}
