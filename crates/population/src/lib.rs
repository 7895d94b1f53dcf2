#![warn(missing_docs)]

//! Simulation substrate for population protocols.
//!
//! This crate implements the execution model of Angluin, Aspnes, Diamadi,
//! Fischer, and Peralta ("Computation in networks of passively mobile
//! finite-state sensors", 2006), as used by the reproduced paper
//! "Time-Optimal Self-Stabilizing Leader Election in Population Protocols"
//! (PODC 2021 / arXiv:1907.06068):
//!
//! * a population of `n` indistinguishable agents, each holding a state;
//! * at every discrete step a **probabilistic scheduler** picks a uniformly
//!   random *ordered* pair of distinct agents (initiator, responder), which
//!   update their states according to a (possibly randomized) transition
//!   function;
//! * **parallel time** is the number of interactions divided by `n`.
//!
//! The paper's protocols are defined on the complete interaction graph, but
//! the scheduler also supports rings and arbitrary graphs
//! ([`graph::InteractionGraph`]) so that the related-work setting (e.g.
//! self-stabilizing leader election on rings) can be explored.
//!
//! # Architecture
//!
//! | module | contents |
//! |--------|----------|
//! | [`protocol`] | the [`Protocol`] and [`RankingProtocol`] traits |
//! | [`graph`] | interaction graphs: complete, ring, arbitrary edge lists |
//! | [`scheduler`] | pair-selection policies: the uniform scheduler plus the [`scheduler::SchedulerPolicy`] family (Zipf, per-edge rates, epoch starvation, clustered) and [`scheduler::Reliability`] (omission, one-way) |
//! | [`simulation`] | [`Simulation`]: owns the configuration, steps it, counts interactions |
//! | [`counts`] | count-based backend: [`counts::CountConfig`] multisets and the batched [`counts::BatchSimulation`] for huge `n` |
//! | [`backend`] | [`SimulationBackend`]: one interface over the agent-array and count backends |
//! | [`tracker`] | O(1)-per-interaction convergence detection for ranking protocols |
//! | [`runner`] | the one trial loop: [`Runner::run`] splits per-trial [`TrialSeeds`] from a base seed, strides trials over worker threads, and returns results in trial order; each trial body (ranked, chaos or dynamics, on either backend) is the caller's |
//! | [`observer`] | [`Observer`] hooks into the hot loop; [`NoopObserver`] zero-cost default |
//! | [`probe`] | sampled time series and the stabilization-certificate (closure) checker |
//! | [`fault`] | chaos harness: [`FaultPlan`] schedules, mid-run [`Corruptor`] injection, recovery/availability measurement |
//! | [`dynamics`] | dynamic populations: [`ChurnPlan`] membership churn (join/leave/replace) and [`ByzantineSet`] adversarial agents on both backends |
//! | [`telemetry`] | counters, fixed-bucket histograms, throughput meters, [`TelemetryObserver`] |
//! | [`metrics`] | engine telemetry: the zero-cost [`MetricsSink`] seam both backends flush at batch boundaries — batch sizes, exact-fallback/memo rates, compactions, per-section wall time |
//! | [`timeline`] | within-run trajectory tracing: decimated [`timeline::TimelineObserver`] checkpoints and the [`timeline::Progress`] heartbeat |
//! | [`record`] | versioned experiment records ([`RunRecord`] and ten more kinds), each declared once, and their JSONL encoding |
//! | [`epidemic`] | one-way/two-way epidemic, bounded epidemic, and roll-call processes |
//! | [`silence`] | structural silence checking for silent protocols |
//!
//! # Examples
//!
//! A one-transition protocol (`ℓ,ℓ → ℓ,f`) that elects a leader from the
//! all-`ℓ` initial configuration:
//!
//! ```
//! use population::{Protocol, Simulation};
//! use rand::rngs::SmallRng;
//!
//! #[derive(Clone, Debug, PartialEq, Eq)]
//! enum S { Leader, Follower }
//!
//! struct FightProtocol;
//!
//! impl Protocol for FightProtocol {
//!     type State = S;
//!     fn interact(&self, a: &mut S, b: &mut S, _rng: &mut SmallRng) {
//!         if *a == S::Leader && *b == S::Leader {
//!             *b = S::Follower;
//!         }
//!     }
//!     fn is_null_pair(&self, a: &S, b: &S) -> bool {
//!         !(*a == S::Leader && *b == S::Leader)
//!     }
//! }
//!
//! let n = 50;
//! let mut sim = Simulation::new(FightProtocol, vec![S::Leader; n], 1);
//! let outcome = sim.run_until(200_000, |states| {
//!     states.iter().filter(|s| **s == S::Leader).count() == 1
//! });
//! assert!(outcome.is_converged());
//! ```

pub mod backend;
pub mod counts;
pub mod driver;
pub mod dynamics;
pub mod epidemic;
pub mod fault;
pub mod gillespie;
pub mod graph;
pub mod metrics;
pub mod observer;
pub mod probe;
pub mod protocol;
pub mod record;
pub mod runner;
pub mod scheduler;
pub mod silence;
pub mod simulation;
pub mod snapshot;
pub mod telemetry;
#[cfg(test)]
mod test_support;
pub mod timeline;
pub mod tracker;

pub use backend::SimulationBackend;
pub use counts::{BatchSimulation, CountConfig};
pub use driver::{DynamicBackend, SteppedDriver};
pub use dynamics::{
    ByzantineSet, ChurnAction, ChurnEvent, ChurnPlan, ChurnTrigger, DynamicsReport,
    DynamicsTrialOutcome,
};
pub use fault::{
    ChaosReport, ChaosTrialOutcome, Corruptor, FaultAction, FaultEvent, FaultInjector, FaultPlan,
    FaultSchedule, FaultSize, FaultTrigger, NoFaults, RecoveryTracker,
};
pub use graph::InteractionGraph;
pub use metrics::{Metrics, MetricsSink, NoopMetrics, Section};
pub use observer::{NoopObserver, Observer};
pub use probe::{
    certify_leader_closure, certify_ranking_closure, ClosureCertificate, ClosureViolation,
};
pub use protocol::{Protocol, RankingProtocol};
pub use record::{
    from_jsonl_lenient, ChurnRecord, FaultRecord, FrontierRecord, LenientParse, MetricsRecord,
    RecordLine, RunRecord, ServerStatsRecord, ServiceRecord, TimelineRecord, TraceRecord,
};
pub use runner::{derive_seed, ConvergenceSample, Runner, TrialOutcome, TrialSeeds, TrialSettings};
pub use scheduler::{AnyScheduler, Reliability, Scheduler, SchedulerPolicy};
pub use simulation::{RunOutcome, Simulation};
pub use snapshot::{
    restore_agents, restore_counts, snapshot_agents, snapshot_counts, SnapshotDoc, SnapshotError,
    SnapshotProtocol, SNAPSHOT_VERSION,
};
pub use telemetry::TelemetryObserver;
pub use timeline::{Progress, Timeline, TimelineCheckpoint, TimelineObserver};
pub use tracker::RankTracker;
