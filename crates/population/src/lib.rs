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
//! | [`simulation`] | [`Simulation`]: owns the configuration and runs it through one loop body, counting interactions |
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
//! # Hot path
//!
//! The run loops are generic over protocol, observer, fault schedule,
//! scheduler policy and metrics sink, so each is compiled in the crate that
//! instantiates it: a bench binary, the daemon, or `perfbench`, a package
//! of its own whose release profile this workspace cannot set. Across that
//! boundary the compiler inlines only what the source marks.
//!
//! Every run of [`Simulation`] ([`Simulation::run`], [`Simulation::step`],
//! [`Simulation::run_until`], the stable-ranking runs,
//! [`Simulation::run_chaos`] and [`Simulation::run_dynamics`]) is one
//! private loop body over a goal. It works on locals for the whole call:
//! a copy of the RNG, the interaction clock and the state slice, written
//! back to the `Simulation` on return. No interaction stores to the
//! `Simulation` or reloads the RNG or the clock from it, so the four
//! xoshiro words and the clock stay in registers. Every switch that cannot
//! change during a call is a compile-time constant: the observer's
//! `WATCHES_*`, the fault schedule's `ACTIVE` and the sink's `ENABLED` are
//! associated consts, and whether the [`Reliability`] model is lossy,
//! whether the policy is the uniform scheduler on the complete graph and
//! whether a timeline is attached are const generics of the loop body. The
//! graph arm is thus chosen once per call: on the complete graph the loop
//! draws each pair with the joint uniform draw over `0..n` and never reads
//! the scheduler's [`InteractionGraph`], with or without a metrics sink.
//!
//! The clock is compared with one bound per interaction, the earliest of
//! the budget, the next flush boundary (with a recording sink) and the
//! goal's deadline. Only there is the goal asked whether it is reached. A
//! budgeted run's goal has no deadline, a predicate's deadline is the next
//! clock (so a predicate is still evaluated at every clock), and the
//! stable-ranking goal's is the end of its open confirmation window, or
//! never while the window is closed. The stable-ranking goal packs the
//! pair's two ranks into one word before and after the transition and
//! compares the words once. A difference (about 5 in 10,000 interactions
//! of an Optimal-Silent-SSR run from a random start at n = 1024) or a
//! fired fault takes a cold out-of-line path that updates the
//! [`RankTracker`] and the confirmation window, and moves the bound to the
//! next clock. The chaos and churn goal does the same with its rank
//! histogram and keeps its recovery books (fired faults, availability) on
//! that cold path too; pinned Byzantine agents strike between the
//! transition and the fault poll, and membership changes are applied
//! between two calls of the loop. With a recording sink, interactions, RNG
//! draws and section times are credited once per
//! [`metrics::AGENT_FLUSH_EVERY`] interactions, not per interaction, and
//! only the RNG words a sampler draws beyond the first are counted, on a
//! cold branch, so the single-word uniform pair draw updates no counter.
//!
//! The per-interaction primitives are `#[inline(always)]`:
//! [`Scheduler::sample_pair`] and its [`SchedulerPolicy::sample_at`], the
//! pair draw behind them, `pair_mut`, the interaction step with its
//! observer hooks and `Reliability::drops`. So is Optimal-Silent-SSR's
//! transition in the `ssle` crate: one match on the role pair that writes
//! whole states, with the pairs that involve a propagating agent, or one
//! resetting and one computing agent, in a cold out-of-line call. Two
//! dormant agents and two settled agents make up about 98% of an
//! execution's interactions, and for them the match is a few instructions.
//! The transition's earlier body swapped the two states four times per
//! interaction and ran slower when forced inline; the match runs faster
//! inline, and plain `#[inline]` left it out of line (three call sites of
//! about 200 instructions each).
//!
//! To check a build, list the calls in the stable-ranking loop:
//!
//! ```text
//! objdump -d -C --no-show-raw-insn perfbench/target/release/perfbench \
//!     | awk '/run_until_stably_ranked>:$/,/^$/' | grep call
//! ```
//!
//! A call into another crate goes through the GOT and prints as
//! `call *0x…(%rip) # <slot>`; `objdump -R` gives the slot's target
//! address and `nm -C` its name. In the instance without a metrics sink
//! (the one that never reads the clock), only cold paths should remain:
//! `OptimalSilentSsr::interact_resetting`, the stable-ranking goal's
//! rank-change path, panics, and the tracker build before the loop. The
//! stores to the `Simulation`'s RNG words and interaction count should
//! appear only after the loop, on its exits.
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
    freeze_agents, freeze_counts, restore_agents, restore_counts, snapshot_agents, snapshot_counts,
    FrozenSnapshot, SnapshotDoc, SnapshotError, SnapshotProtocol, WriteSnapshot, SNAPSHOT_VERSION,
};
pub use telemetry::TelemetryObserver;
pub use timeline::{Progress, Timeline, TimelineCheckpoint, TimelineObserver};
pub use tracker::RankTracker;
