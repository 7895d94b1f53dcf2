#![warn(missing_docs)]

//! `ssle serve` — the election service daemon.
//!
//! Long-running leader election as a *service*: the daemon multiplexes
//! many named live populations, each paced by the shared
//! [`population::SteppedDriver`] in bounded slices so membership events
//! injected over the wire fire between slices and convergence is probed
//! at every boundary. The environment is offline (no tokio/hyper), so the
//! stack is hand-rolled end to end:
//!
//! * [`pool`] — bounded thread pool with busy backpressure and panic
//!   isolation (workers respawn);
//! * [`obs`] — zero-cost-when-off request tracing: per-command log₂
//!   latency histograms and span attribution (queue/lock/engine/journal/
//!   fsync/write) aggregated lock-free, a flight recorder dumped on
//!   panic/quarantine, and the `--slow-ms` slow-request log;
//! * [`wire`] — line-delimited flat-JSON requests/responses sharing the
//!   record module's codec;
//! * [`pop`] — the managed-population trait object: `ciw`/`oss` on
//!   `agents`/`counts`, with per-population timelines and engine metrics;
//! * [`journal`] — the per-population append-only write-ahead journal
//!   (configurable fsync policy, torn-tail-tolerant parsing, bounded
//!   request-id dedup window);
//! * [`registry`] — the named-population map plus the durability and
//!   self-healing layer: journal-then-apply writes, snapshots frozen
//!   under the population lock and written off it (autosnapshots on a
//!   background thread), journal rotation that keeps the entries appended
//!   meanwhile, restore-on-boot (snapshot + journal tail), and
//!   quarantine-and-heal for poisoned populations;
//! * [`server`] — nonblocking accept loop, request dispatch with bounded
//!   request lines and per-line read deadlines, SIGINT/SIGTERM →
//!   graceful shutdown;
//! * [`client`] — the blocking client plus [`client::RetryClient`]: per-
//!   request deadlines, jittered exponential backoff, idempotent request
//!   ids for exactly-once retried mutations;
//! * [`chaos`] — a deterministic seeded fault-injecting TCP proxy
//!   (delays, resets, partial writes, slowloris) for crash/partition
//!   drills against a live daemon.

pub mod chaos;
pub mod client;
pub mod journal;
pub mod obs;
pub mod pool;
pub mod pop;
pub mod registry;
pub mod server;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use client::{ClientError, RetryClient};
pub use journal::{DedupWindow, FsyncPolicy, JournalDoc, Op, Wal};
pub use obs::{ServerStats, Span, StatsSnapshot, Trace};
pub use pool::{PoolError, ThreadPool};
pub use pop::{Checkpoint, EventKind, LeaderReport, Managed, RanksReport, Status, StepReport};
pub use registry::{Applied, ApplyOutcome, Durability, HealthRow, PopCell, Registry};
pub use server::{
    handle_line, install_sigint_handler, sigint_received, ServeConfig, ServeSummary, Server,
};
pub use wire::{check_response, error_response, ok_response, Request};
