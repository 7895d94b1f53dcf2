//! Versioned per-trial experiment records and their JSONL encoding.
//!
//! Every measured trial — one `(protocol, n, seed)` execution run to
//! convergence or budget exhaustion — becomes one [`RunRecord`], serialized
//! as one JSON object per line (JSONL). The text tables the benches print
//! are lossy summaries; the JSONL stream is the raw data they summarize, so
//! experiments can be re-analyzed (`ssle report`) or diffed across commits
//! without re-running them.
//!
//! The encoding is hand-rolled: the records are flat (strings, integers,
//! floats, null), which a few dozen lines handle, and the build environment
//! is offline so pulling `serde` is not an option. [`RunRecord::to_json`] and
//! [`RunRecord::from_json`] round-trip exactly for the values the simulator
//! produces; integer fields are read from the number's text, so every `u64`
//! (seeds above 2⁵³ included) reads back as written.
//!
//! # Declaring a record kind
//!
//! Every kind is one entry of the `records!` table in this module: its
//! `kind` discriminator, its [`RecordLine`] variant, and its fields once, in
//! wire order, each with its type and presence. From that entry the table
//! generates the struct, `to_json`, `from_json`, the [`RecordLine`] variant
//! and its dispatch, and the [`Record`] impl. Adding a kind is one table
//! entry, plus a schema-version bump and, in `ssle report`, one row
//! declaration with its text function.
//!
//! # Schema versions
//!
//! * **v1** — trial records only (`table1`, `h_sweep`, …).
//! * **v2** — adds a `kind` discriminator (`"trial"` / `"fault"` /
//!   `"frontier"`), the optional trial fields `availability`/`faults`
//!   emitted by chaos runs (see [`crate::fault`]), the per-fault
//!   [`FaultRecord`] line, and the [`FrontierRecord`] line emitted by the
//!   `scaling_frontier` bench (backend-throughput measurements at huge
//!   `n`). v1 lines (no `kind`) still parse as trials.
//! * **v3** — adds the optional robustness metadata on trial records:
//!   `scheduler` (the [`crate::scheduler::SchedulerPolicy::spec`] string,
//!   e.g. `"zipf:1"`), `omission` (the
//!   [`crate::scheduler::Reliability`] drop probability), and
//!   `starve_window` (the epoch adversary's window length in interactions).
//!   Absent fields mean the uniform scheduler with perfect reliability, so
//!   v1/v2 lines keep their meaning.
//! * **v4** — adds the `"kind":"timeline"` [`TimelineRecord`] line: one
//!   within-run checkpoint of the macroscopic observables traced by
//!   [`crate::timeline`] (leader count, ranks held by exactly one agent,
//!   distinct-state support, phase occupancy). A trial's timeline is a run
//!   of such lines sharing `(experiment, protocol, backend, n, trial)`,
//!   ordered by `interactions`. Existing kinds are unchanged.
//! * **v5** — adds the `"kind":"metrics"` [`MetricsRecord`] line: one
//!   engine-telemetry summary per run (or one merged cross-trial summary,
//!   `trial = null`) as collected by [`crate::metrics`] — batch-size
//!   histogram, exact-fallback and memo-hit counters, compactions, RNG
//!   draws, and per-section wall time. Existing kinds are unchanged.
//! * **v6** — adds the `"kind":"churn"` [`ChurnRecord`] line: one summary
//!   per dynamic-population trial (see [`crate::dynamics`]) — the churn
//!   spec, Byzantine fraction, membership-event counts (joins / leaves /
//!   replacements), Byzantine strikes, availability fractions, and recovery
//!   statistics. Existing kinds are unchanged.
//! * **v7** — adds the `"kind":"service"` [`ServiceRecord`] line: one
//!   throughput/latency measurement per service-bench cell (`ssle serve`
//!   under concurrent clients) — request count, sustained requests per
//!   second, and p50/p99 per-request latency. Existing kinds are unchanged.
//! * **v8** — adds the `"kind":"crash"` [`CrashRecord`] line (one
//!   crash-recovery measurement per `crash_recovery` bench cell: kill
//!   point, fsync policy, lost-event window, recovery wall time, and
//!   whether replay reproduced the uncrashed state bit-identically) and
//!   the `"kind":"health"` [`HealthRecord`] line (one liveness/journal-lag
//!   row per served population, as reported by the `health` wire command).
//!   Existing kinds are unchanged.
//! * **v9** — adds the `"kind":"server_stats"` [`ServerStatsRecord`] line
//!   (one per-wire-command latency aggregate from the daemon's request
//!   tracer, as emitted by the `stats` wire command: request counts,
//!   rps, log₂-bucket latency histogram with p50/p95/p99, and mean
//!   per-request time attributed across queue/parse/lock/engine/journal/
//!   fsync/write spans) and the `"kind":"trace"` [`TraceRecord`] line
//!   (one request trace from the flight recorder, as dumped on worker
//!   panic/quarantine or by the `dump-trace` command). Existing kinds
//!   are unchanged.
//!
//! A stream may mix all kinds; [`from_jsonl_mixed`] reads everything as
//! [`RecordLine`]s, while [`from_jsonl`] keeps its original contract of
//! returning trial records (other lines are skipped). Consumers that must
//! survive streams written by a *newer* writer (e.g. `ssle report`) use
//! [`from_jsonl_lenient`], which sets aside — and tallies, instead of
//! erroring on — lines with an unknown `kind` or a version above
//! [`SCHEMA_VERSION`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::simulation::RunOutcome;

/// Version of the record schema. Bump when fields change meaning; readers
/// accept [`MIN_SCHEMA_VERSION`]`..=SCHEMA_VERSION` and reject anything else.
pub const SCHEMA_VERSION: u32 = 9;

/// Oldest schema version readers still accept.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// One scalar of a record line as parsed: a number keeps its text, so an
/// integer field is read exactly rather than through `f64`.
#[derive(Debug)]
enum Raw<'a> {
    Str(String),
    Num(&'a str),
    Bool(bool),
    Null,
}

/// The fields of one record line, by key.
type Fields<'a> = BTreeMap<String, Raw<'a>>;

/// Parses one record line into its fields.
fn parse_record(line: &str) -> Result<Fields<'_>, String> {
    parse_object(line, |raw| {
        if let Raw::Num(text) = raw {
            parse_number(text)?;
        }
        Ok(raw)
    })
}

/// A value a record field holds, with its wire encoding. `Option<T>` is
/// written as `null` when `None`, and read back as `None` from `null` or
/// from an absent key.
trait Field: Sized {
    /// Writes the value under `key`.
    fn put(&self, obj: &mut JsonObject, key: &str);
    /// Reads a present value; the error names what was expected.
    fn read(raw: &Raw<'_>) -> Result<Self, String>;
    /// The value of an absent key, if a key may be absent.
    fn absent() -> Option<Self> {
        None
    }
}

impl Field for String {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_str(key, self);
    }
    fn read(raw: &Raw<'_>) -> Result<Self, String> {
        match raw {
            Raw::Str(s) => Ok(s.clone()),
            _ => Err("string".to_string()),
        }
    }
}

impl Field for u64 {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_u64(key, *self);
    }
    fn read(raw: &Raw<'_>) -> Result<Self, String> {
        match raw {
            Raw::Num(text) => exact_u64(text),
            _ => None,
        }
        .ok_or_else(|| "a non-negative integer".to_string())
    }
}

impl Field for f64 {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_f64(key, *self);
    }
    fn read(raw: &Raw<'_>) -> Result<Self, String> {
        match raw {
            Raw::Num(text) => parse_number(text),
            _ => Err("number".to_string()),
        }
    }
}

impl Field for bool {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        obj.field_bool(key, *self);
    }
    fn read(raw: &Raw<'_>) -> Result<Self, String> {
        match raw {
            Raw::Bool(b) => Ok(*b),
            _ => Err("bool".to_string()),
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        match self {
            Some(value) => Field::put(value, obj, key),
            None => {
                obj.field_null(key);
            }
        }
    }
    fn read(raw: &Raw<'_>) -> Result<Self, String> {
        match raw {
            Raw::Null => Ok(None),
            raw => T::read(raw).map(Some).map_err(|expected| format!("{expected} or null")),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// The typed field writer of the record table, for other JSON lines (the
/// `ssle report` rows): `Option<T>` is written as `null` when `None`.
pub trait JsonField {
    /// Writes the value under `key`.
    fn put(&self, obj: &mut JsonObject, key: &str);
}

impl<T: Field> JsonField for T {
    fn put(&self, obj: &mut JsonObject, key: &str) {
        Field::put(self, obj, key);
    }
}

/// Reads field `key` as a `T`.
fn get<T: Field>(fields: &Fields<'_>, key: &str) -> Result<T, String> {
    match fields.get(key) {
        None => T::absent().ok_or_else(|| format!("missing field {key:?}")),
        Some(raw) => T::read(raw)
            .map_err(|expected| format!("field {key:?}: expected {expected}, got {raw:?}")),
    }
}

/// Writes a [`RunOutcome`] as its `outcome` + `interactions` pair.
fn put_outcome(outcome: &RunOutcome, obj: &mut JsonObject) {
    obj.field_str("outcome", if outcome.is_converged() { "converged" } else { "exhausted" });
    obj.field_u64("interactions", outcome.interactions());
}

/// Reads a [`RunOutcome`] back from its `outcome` + `interactions` pair.
fn get_outcome(fields: &Fields<'_>) -> Result<RunOutcome, String> {
    let interactions = get(fields, "interactions")?;
    match get::<String>(fields, "outcome")?.as_str() {
        "converged" => Ok(RunOutcome::Converged { interactions }),
        "exhausted" => Ok(RunOutcome::Exhausted { interactions }),
        other => Err(format!("unknown outcome {other:?}")),
    }
}

fn check_version(fields: &Fields<'_>) -> Result<(), String> {
    let version: u64 = get(fields, "v")?;
    if !(MIN_SCHEMA_VERSION as u64..=SCHEMA_VERSION as u64).contains(&version) {
        return Err(format!(
            "unsupported record version {version} (reader supports {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
        ));
    }
    Ok(())
}

/// The `kind` discriminator of a parsed line; v1 lines (no `kind` field) are
/// trial records.
fn record_kind<'f>(fields: &'f Fields<'_>) -> Result<&'f str, String> {
    match fields.get("kind") {
        None => Ok("trial"),
        Some(Raw::Str(s)) => Ok(s),
        Some(other) => Err(format!("field \"kind\": expected string, got {other:?}")),
    }
}

/// Parses one line as a record of kind `kind`, decoding its fields with
/// `decode`.
fn decode_line<T>(
    line: &str,
    kind: &str,
    decode: fn(&Fields<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let fields = parse_record(line)?;
    check_version(&fields)?;
    match record_kind(&fields)? {
        found if found == kind => decode(&fields),
        other => Err(format!("expected a {kind} record, got kind {other:?}")),
    }
}

/// A record kind declared in the `records!` table, as one variant of
/// [`RecordLine`].
pub trait Record: Sized {
    /// The record `line` holds, if it is of this kind.
    fn of_line(line: &RecordLine) -> Option<&Self>;
}

/// Declares every record kind. Each entry is
/// `Variant(Struct) = "kind" { fields }`, and each field one line, in wire
/// order, after its doc comment:
///
/// * `name: T,` — required (`String`, `u64`, `f64` or `bool`), or `null`
///   when `None` if `T` is an `Option`;
/// * `name: Option<T> = omit,` — left out of the line when `None`;
/// * `name: RunOutcome = outcome,` — written as the `outcome` +
///   `interactions` pair;
/// * `name: T = derived(method),` — write-only: `method()`'s value is
///   written under `name` and never read back (no struct field).
macro_rules! records {
    // Field rows, one at a time: struct fields go to the first list, wire
    // entries (in order, derived ones included) to the second.
    (@rows $V:ident $S:ident $kind:literal $doc:tt [$($fields:tt)*] [$($wire:tt)*]) => {
        records!(@emit $V $S $kind $doc [$($fields)*] [$($wire)*]);
    };
    (@rows $V:ident $S:ident $kind:literal $doc:tt [$($fields:tt)*] [$($wire:tt)*]
        $(#[$m:meta])* $f:ident : $t:ty = derived($via:ident), $($rest:tt)*) => {
        records!(@rows $V $S $kind $doc [$($fields)*] [$($wire)* { derived $f $via $t }]
            $($rest)*);
    };
    (@rows $V:ident $S:ident $kind:literal $doc:tt [$($fields:tt)*] [$($wire:tt)*]
        $(#[$m:meta])* $f:ident : $t:ty = $mode:ident, $($rest:tt)*) => {
        records!(@rows $V $S $kind $doc [$($fields)* [$(#[$m])*] $f: $t = $mode]
            [$($wire)* { $mode $f $f $t }] $($rest)*);
    };
    (@rows $V:ident $S:ident $kind:literal $doc:tt [$($fields:tt)*] [$($wire:tt)*]
        $(#[$m:meta])* $f:ident : $t:ty, $($rest:tt)*) => {
        records!(@rows $V $S $kind $doc [$($fields)* [$(#[$m])*] $f: $t = req]
            [$($wire)* { req $f $f $t }] $($rest)*);
    };
    (@emit $V:ident $S:ident $kind:literal [$($doc:tt)*]
        [$([$($fattr:tt)*] $f:ident : $t:ty = $mode:ident)*]
        [$({ $wmode:ident $w:ident $via:ident $wt:ty })*]) => {
        $($doc)*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $S {
            $($($fattr)* pub $f: $t,)*
        }

        impl $S {
            /// Serializes to a single-line JSON object.
            pub fn to_json(&self) -> String {
                let record = self;
                let mut obj = JsonObject::new();
                obj.field_u64("v", SCHEMA_VERSION as u64);
                obj.field_str("kind", $kind);
                $(records!(@put obj record $wmode $w $via $wt);)*
                obj.finish()
            }

            #[doc = concat!("Parses a `", $kind, "` record from one JSONL line.")]
            ///
            /// Unknown fields are ignored (forward compatibility); a missing
            /// or mistyped field, malformed JSON, a schema version outside
            /// [`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`], or a line of
            /// another kind is an error.
            pub fn from_json(line: &str) -> Result<Self, String> {
                decode_line(line, $kind, Self::from_fields)
            }

            fn from_fields(fields: &Fields<'_>) -> Result<Self, String> {
                Ok($S { $($f: records!(@get fields $mode $f),)* })
            }
        }

        impl Record for $S {
            fn of_line(line: &RecordLine) -> Option<&Self> {
                match line {
                    RecordLine::$V(record) => Some(record),
                    _ => None,
                }
            }
        }
    };
    (@put $obj:ident $r:ident req $f:ident $via:ident $t:ty) => {
        Field::put(&$r.$f, &mut $obj, stringify!($f))
    };
    (@put $obj:ident $r:ident omit $f:ident $via:ident $t:ty) => {
        if let Some(value) = &$r.$f {
            Field::put(value, &mut $obj, stringify!($f));
        }
    };
    (@put $obj:ident $r:ident outcome $f:ident $via:ident $t:ty) => {
        put_outcome(&$r.$f, &mut $obj)
    };
    (@put $obj:ident $r:ident derived $f:ident $via:ident $t:ty) => {
        <$t as Field>::put(&$r.$via(), &mut $obj, stringify!($f))
    };
    (@get $fields:ident outcome $f:ident) => {
        get_outcome($fields)?
    };
    (@get $fields:ident $mode:ident $f:ident) => {
        get($fields, stringify!($f))?
    };
    ($($(#[$doc:meta])* $V:ident($S:ident) = $kind:literal { $($rows:tt)* })*) => {
        $(records!(@rows $V $S $kind [$(#[$doc])*] [] [] $($rows)*);)*

        /// One parsed line of a (possibly mixed) JSONL experiment stream.
        #[derive(Debug, Clone, PartialEq)]
        pub enum RecordLine {
            $(
                #[doc = concat!("A `", $kind, "` line.")]
                $V($S),
            )*
        }

        impl RecordLine {
            /// Dispatches on an already-parsed field map; `Ok(None)` means
            /// the `kind` is well-formed but unknown to this reader (a
            /// future schema).
            fn from_known_fields(fields: &Fields<'_>) -> Result<Option<Self>, String> {
                Ok(Some(match record_kind(fields)? {
                    $($kind => RecordLine::$V($S::from_fields(fields)?),)*
                    _ => return Ok(None),
                }))
            }

            /// Serializes back to a single-line JSON object.
            pub fn to_json(&self) -> String {
                match self {
                    $(RecordLine::$V(record) => record.to_json(),)*
                }
            }
        }
    };
}

records! {
    /// One measured trial, self-describing enough to be aggregated without
    /// the context of the run that produced it.
    Trial(RunRecord) = "trial" {
        /// Name of the experiment that produced this record (e.g. `"table1"`).
        experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        protocol: String,
        /// Population size.
        n: u64,
        /// Depth parameter `H` for Sublinear-Time-SSR; `None` for protocols
        /// without one.
        h: Option<u64>,
        /// Trial index within the experiment.
        trial: u64,
        /// Base seed of the experiment (per-trial seeds derive from it).
        seed: u64,
        /// How the trial ended.
        outcome: RunOutcome = outcome,
        parallel_time: f64 = derived(parallel_time),
        /// Wall-clock seconds the trial took.
        wall_s: f64,
        ips: f64 = derived(interactions_per_second),
        /// Fraction of observed interactions with a unique leader — only
        /// emitted by chaos/soak trials (see
        /// [`crate::fault::ChaosReport::availability`]).
        availability: Option<f64> = omit,
        /// Number of faults injected during the trial — only emitted by
        /// chaos/soak trials.
        faults: Option<u64> = omit,
        /// Scheduler spec string (e.g. `"zipf:1"`, `"starve:4:256"`) — only
        /// emitted by robustness trials; absent means the uniform scheduler
        /// (schema v3).
        scheduler: Option<String> = omit,
        /// Interaction-omission probability — only emitted by robustness
        /// trials; absent means perfectly reliable interactions (schema v3).
        omission: Option<f64> = omit,
        /// Starvation-window length in interactions of the epoch adversary —
        /// only emitted when the scheduler is `starve:*` (schema v3).
        starve_window: Option<u64> = omit,
    }

    /// One fault injected during a chaos/soak trial (`kind = "fault"`,
    /// schema v2). Each fired fault becomes one line next to its trial's
    /// `"trial"` line, so recovery distributions can be re-analyzed per
    /// `(action, agents)` cell without re-running the experiment.
    Fault(FaultRecord) = "fault" {
        /// Name of the experiment that produced this record.
        experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        protocol: String,
        /// Population size.
        n: u64,
        /// Depth parameter `H`, if the protocol has one.
        h: Option<u64>,
        /// Trial index the fault fired in.
        trial: u64,
        /// Base seed of the experiment.
        seed: u64,
        /// Action label (see `FaultAction::label` in [`crate::fault`]).
        action: String,
        /// Number of agent states the fault overwrote.
        agents: u64,
        /// Total interaction count at injection.
        injected_at: u64,
        /// Total interaction count at the next stable ranking, or `None` if
        /// the run ended before recovering (censored).
        recovered_at: Option<u64>,
        recovery_parallel_time: Option<f64> = derived(recovery_parallel_time),
    }

    /// One backend-throughput measurement at a single population size
    /// (`kind = "frontier"`, schema v2), emitted by the `scaling_frontier`
    /// bench. Unlike a [`RunRecord`], a frontier record names the
    /// **backend** that executed the run (`"agents"` or `"counts"`), so
    /// agent-array and count-based throughput can be compared per
    /// `(workload, n)` cell, and it carries the count-backend compression
    /// evidence (`support`, the number of distinct states) where available.
    Frontier(FrontierRecord) = "frontier" {
        /// Name of the experiment that produced this record (e.g. `"frontier"`).
        experiment: String,
        /// Workload short-name (e.g. `"epidemic"`, `"loose"`).
        protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        backend: String,
        /// Population size.
        n: u64,
        /// Trial index within the experiment.
        trial: u64,
        /// Base seed of the experiment (per-trial seeds derive from it).
        seed: u64,
        /// How the run ended.
        outcome: RunOutcome = outcome,
        parallel_time: f64 = derived(parallel_time),
        /// Wall-clock seconds the run took.
        wall_s: f64,
        ips: f64 = derived(interactions_per_second),
        /// Final number of distinct states (count backend only): the
        /// quantity that decides whether counting compresses the
        /// configuration at all.
        support: Option<u64>,
        /// Final number of leaders, for leader-election workloads.
        leaders: Option<u64>,
    }

    /// One within-run trajectory checkpoint (`kind = "timeline"`, schema
    /// v4), emitted by `ssle simulate --timeline`. A run's timeline is the
    /// sequence of its checkpoint lines ordered by `interactions`; see
    /// [`crate::timeline`] for how checkpoints are decimated to a bounded
    /// count. The flat `phases` string encodes the per-phase occupancy map
    /// as `name:count,name:count` (sorted by name) because the record
    /// reader is deliberately scalar-only.
    Timeline(TimelineRecord) = "timeline" {
        /// Name of the experiment that produced this record (e.g. `"simulate"`).
        experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        backend: String,
        /// Population size.
        n: u64,
        /// Trial index within the experiment.
        trial: u64,
        /// Base seed of the experiment.
        seed: u64,
        /// Interaction count the checkpoint was taken at.
        interactions: u64,
        parallel_time: f64 = derived(parallel_time),
        /// Number of agents outputting leader (rank 1) at the checkpoint.
        leaders: u64,
        /// Number of ranks held by exactly one agent; equals `n` when ranked.
        ranks_ok: u64,
        /// Distinct states at the checkpoint (count backend only).
        support: Option<u64>,
        /// Flat `name:count,name:count` phase-occupancy encoding, absent for
        /// protocols without phase structure.
        phases: Option<String>,
    }

    /// One engine-telemetry summary (`kind = "metrics"`, schema v5),
    /// emitted by `ssle simulate/soak --metrics` and the `perf_baseline`
    /// bench. Where every other record describes what the *protocol* did, a
    /// metrics record describes what the *simulator* did: batch sizes,
    /// exact-fallback and memo-hit counters, compactions, RNG draws, and
    /// coarse per-section wall time (see [`crate::metrics`]). `trial = None`
    /// marks a merged cross-trial row. The flat `batch_hist` string encodes
    /// the log-bucketed batch-size histogram as `bound:count,…` (overflow
    /// bucket as `inf:count`) because the record reader is deliberately
    /// scalar-only.
    Metrics(MetricsRecord) = "metrics" {
        /// Name of the experiment that produced this record (e.g. `"simulate"`).
        experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"epidemic"`).
        protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        backend: String,
        /// Population size.
        n: u64,
        /// Trial index, or `None` for a merged cross-trial row.
        trial: Option<u64>,
        /// Base seed of the experiment.
        seed: u64,
        /// Wall-clock seconds of the summarized run(s).
        wall_s: f64,
        /// Total interactions performed.
        interactions: u64,
        ips: f64 = derived(interactions_per_second),
        /// Collision-free batches completed (counts backend).
        batches: u64,
        /// Interactions performed inside collision-free batches.
        batched_pairs: u64,
        /// Interactions that went through the exact per-interaction fallback.
        exact_steps: u64,
        /// Uniform draws consumed from the execution RNG.
        rng_draws: u64,
        /// Memoized-transition lookups that hit.
        memo_hits: u64,
        /// Memoized-transition lookups that missed.
        memo_misses: u64,
        /// CountConfig compactions performed.
        compactions: u64,
        /// Distinct live states after the most recent compaction (0 = never
        /// compacted).
        support: u64,
        /// Raw count-table length after the most recent compaction.
        raw_len: u64,
        /// Batch-boundary flushes observed.
        flushes: u64,
        /// Flat `bound:count,…` batch-size histogram, absent when no batch ran.
        batch_hist: Option<String>,
        /// Wall seconds in the sampling section (schedule draws).
        sample_s: f64,
        /// Wall seconds in the transition section (applying interactions).
        transition_s: f64,
        /// Wall seconds in the probe section (convergence checks).
        probe_s: f64,
        /// Wall seconds in the observe section (snapshots, observers).
        observe_s: f64,
    }

    /// One dynamic-population trial (`kind = "churn"`, schema v6), emitted
    /// by `ssle simulate/soak --churn` and the `churn_resilience` bench. Each
    /// line summarizes a whole trial under membership churn and/or Byzantine
    /// agents: how much the population changed, how often the adversary
    /// struck, and the availability/recovery statistics from the shared
    /// [`crate::fault`] recovery clock. Fired membership events additionally
    /// appear as ordinary `"fault"` lines next to their trial, so per-event
    /// recovery distributions stay re-analyzable.
    Churn(ChurnRecord) = "churn" {
        /// Name of the experiment that produced this record (e.g. `"churn"`).
        experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        backend: String,
        /// Population size the protocol was configured for (the size ranking
        /// is judged against; churn moves the live size away from it).
        n: u64,
        /// Live population size when the trial ended.
        final_n: u64,
        /// Depth parameter `H`, if the protocol has one.
        h: Option<u64>,
        /// Trial index within the experiment.
        trial: u64,
        /// Base seed of the experiment (per-trial seeds derive from it).
        seed: u64,
        /// Churn spec string the trial ran under (e.g. `"2.0"` or
        /// `"join:4@8,leave:4@16"`); `"none"` when only Byzantine agents were
        /// active.
        churn: String,
        /// Byzantine fraction `t` in `[0, 1)`.
        byzantine: f64,
        /// Agents that joined (grew the population) during the trial.
        joins: u64,
        /// Agents that left (shrank the population) during the trial.
        leaves: u64,
        /// Agents replaced in place (departure + fresh join, size unchanged).
        replacements: u64,
        /// Byzantine state overwrites applied during the trial.
        byz_strikes: u64,
        /// Membership/fault events that opened a recovery clock.
        faults: u64,
        /// Fraction of observed steps with exactly one leader.
        availability: f64,
        /// Fraction of observed steps with the full ranking in place.
        ranked_availability: f64,
        /// Recovery clocks that closed before the trial ended.
        recovered: u64,
        /// Mean recovery time in parallel time across recovered clocks
        /// (`None` when nothing recovered).
        mean_recovery_pt: Option<f64>,
        /// Parallel time of the first stable full ranking, if reached.
        first_ranked_pt: Option<f64>,
        /// Total interactions executed.
        interactions: u64,
        /// Total parallel time executed (piecewise `1/n_live` per
        /// interaction, so it stays meaningful while `n` varies).
        parallel_time: f64,
        /// Wall-clock seconds the trial took.
        wall_s: f64,
        ips: f64 = derived(interactions_per_second),
    }

    /// One service-throughput measurement (`kind = "service"`, schema v7),
    /// emitted by the `service_throughput` bench: `clients` concurrent wire
    /// clients hammering one `ssle serve` daemon hosting a population of
    /// size `n`, mixing queries and event injections. Latency is per
    /// complete request (write line, read response) in microseconds.
    Service(ServiceRecord) = "service" {
        /// Name of the experiment that produced this record (e.g. `"service"`).
        experiment: String,
        /// Protocol short-name the hosted population runs.
        protocol: String,
        /// Simulation backend hosting the population (`"agents"` / `"counts"`).
        backend: String,
        /// Population size of the hosted population.
        n: u64,
        /// Concurrent client connections issuing requests.
        clients: u64,
        /// Total requests completed across all clients.
        requests: u64,
        /// Sustained requests per second across the whole run.
        rps: f64,
        /// Median per-request latency, microseconds.
        p50_us: f64,
        /// 99th-percentile per-request latency, microseconds.
        p99_us: f64,
        /// Base seed of the bench cell.
        seed: u64,
        /// Wall-clock seconds the cell took.
        wall_s: f64,
    }

    /// One crash-recovery measurement (`kind = "crash"`, schema v8), emitted
    /// by the `crash_recovery` bench: a journaled population is driven
    /// through `events_applied` mutating commands, its journal is truncated
    /// to the bytes durable at a simulated `kill -9` (the `kill_point`
    /// fraction of the run), and recovery replays snapshot + journal tail.
    /// `lost_events` is the tail the crash discarded — bounded by the fsync
    /// policy's window — and `replay_identical` records whether the
    /// recovered population was bit-identical to a never-crashed replay of
    /// the surviving prefix.
    Crash(CrashRecord) = "crash" {
        /// Name of the experiment that produced this record (e.g. `"crash"`).
        experiment: String,
        /// Protocol short-name the journaled population runs.
        protocol: String,
        /// Simulation backend hosting the population (`"agents"` / `"counts"`).
        backend: String,
        /// Population size of the journaled population.
        n: u64,
        /// Fsync policy spec (`"always"`, `"every:N"`, `"never"`).
        fsync: String,
        /// Fraction of the command stream after which the crash fired.
        kill_point: f64,
        /// Mutating commands applied (and journaled) before the crash.
        events_applied: u64,
        /// Commands recovered from snapshot + journal tail after the crash.
        events_recovered: u64,
        /// Commands lost to the crash (`events_applied - events_recovered`).
        lost_events: u64,
        /// Wall-clock milliseconds the boot-time recovery took.
        recovery_ms: f64,
        /// Whether the recovered state matched a never-crashed replay of the
        /// surviving prefix bit-for-bit (snapshot-serialization equality).
        replay_identical: bool,
        /// Base seed of the bench cell.
        seed: u64,
        /// Wall-clock seconds the cell took.
        wall_s: f64,
    }

    /// One per-population liveness row (`kind = "health"`, schema v8), as
    /// reported by the `health` wire command of `ssle serve`: protocol
    /// identity, live-agent count, journal position (`seq`) versus the last
    /// snapshot (`snapshot_seq`), the resulting replay `lag`, and how many
    /// times the watchdog has quarantined-and-healed a poisoned population
    /// since boot.
    Health(HealthRecord) = "health" {
        /// Name of the experiment that produced this record (`"serve"` for
        /// the daemon's own rows).
        experiment: String,
        /// Served population name.
        pop: String,
        /// Protocol short-name the population runs.
        protocol: String,
        /// Simulation backend (`"agents"` / `"counts"`).
        backend: String,
        /// Population size.
        n: u64,
        /// Live (non-tombstoned) agents.
        live: u64,
        /// Interactions simulated so far.
        interactions: u64,
        /// Whether the population currently has a unique ranked leader.
        ranked: bool,
        /// Journal sequence number of the last applied mutating command.
        seq: u64,
        /// Journal sequence number covered by the last snapshot.
        snapshot_seq: u64,
        /// Journaled-but-unsnapshotted commands (`seq - snapshot_seq`): the
        /// replay work a crash-restart would have to redo.
        lag: u64,
        /// Fsync policy spec the journal runs under; `None` (written `null`)
        /// when the daemon is undurable.
        fsync: Option<String>,
        /// Poison-quarantine heals performed by the registry since boot.
        quarantines: u64,
    }

    /// One per-wire-command latency aggregate (`kind = "server_stats"`,
    /// schema v9), emitted by the `stats` wire command from the daemon's
    /// request tracer. `count`/`rps` cover the window since boot or the last
    /// `stats` reset; the `*_us` span fields are *mean* per-request
    /// microseconds attributing where a request's time went; `hist` is the
    /// end-to-end latency histogram in the shared `bound:count,…,inf:count`
    /// log₂-bucket encoding (bounds in microseconds), empty when no request
    /// landed. The pool/journal gauges (`busy`, `queue_depth`,
    /// `journal_lag`) are daemon-global, repeated on every row of one
    /// `stats` response.
    ServerStats(ServerStatsRecord) = "server_stats" {
        /// Name of the experiment/run that produced this record.
        experiment: String,
        /// The wire command this row aggregates (`"other"` for the rest).
        cmd: String,
        /// Requests served in the window.
        count: u64,
        /// Requests answered with `ok:false`.
        errors: u64,
        /// Sustained requests per second over the window.
        rps: f64,
        /// Median end-to-end latency (histogram bucket upper bound), µs.
        p50_us: f64,
        /// 95th-percentile end-to-end latency, µs.
        p95_us: f64,
        /// 99th-percentile end-to-end latency, µs.
        p99_us: f64,
        /// Mean end-to-end latency, µs.
        mean_us: f64,
        /// Mean pool-queue wait per request, µs.
        queue_us: f64,
        /// Mean request-parse time per request, µs.
        parse_us: f64,
        /// Mean registry-map lock wait per request, µs.
        registry_lock_us: f64,
        /// Mean per-population lock wait per request, µs.
        pop_lock_us: f64,
        /// Mean engine work per request, µs.
        engine_us: f64,
        /// Mean journal append (excluding fsync) per request, µs.
        journal_us: f64,
        /// Mean journal fsync per request, µs.
        fsync_us: f64,
        /// Mean response write+flush per request, µs.
        write_us: f64,
        /// End-to-end latency histogram (`bound:count,…`); empty if massless.
        hist: String,
        /// Seconds the window covers.
        window_s: f64,
        /// Busy-envelope refusals at the accept loop (daemon-global).
        busy: u64,
        /// Pool queue depth at the last accept (daemon-global gauge).
        queue_depth: u64,
        /// Requests past the `--slow-ms` threshold (daemon-global).
        slow: u64,
        /// Max journaled-but-unsnapshotted lag across populations
        /// (daemon-global).
        journal_lag: u64,
    }

    /// One request trace (`kind = "trace"`, schema v9) from the daemon's
    /// flight recorder — dumped to JSONL on worker panic/quarantine or via
    /// the `dump-trace` admin command. Span fields are microseconds; spans
    /// are non-overlapping (`journal_us` excludes the fsync it triggered),
    /// so they sum to at most `total_us`. `id` is the client request id
    /// (retry dedup), letting retried requests correlate across traces.
    Trace(TraceRecord) = "trace" {
        /// The wire command (`"other"` for unparseable requests).
        cmd: String,
        /// Target population name; empty for population-less commands.
        pop: String,
        /// Client request id; empty when the client sent none.
        id: String,
        /// Whether the response carried `ok:true`.
        ok: bool,
        /// End-to-end microseconds (queue wait through response flush).
        total_us: u64,
        /// Pool-queue wait, µs (connection's first request only).
        queue_us: u64,
        /// Request-line parse, µs.
        parse_us: u64,
        /// Registry-map lock wait, µs.
        registry_lock_us: u64,
        /// Per-population lock wait, µs.
        pop_lock_us: u64,
        /// Engine work under the cell lock, µs.
        engine_us: u64,
        /// Journal append excluding fsync, µs.
        journal_us: u64,
        /// Journal fsync, µs.
        fsync_us: u64,
        /// Response write+flush, µs.
        write_us: u64,
    }
}

/// Interactions per wall-clock second (0 if no wall time was recorded).
fn per_second(interactions: u64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        interactions as f64 / wall_s
    } else {
        0.0
    }
}

/// Decodes a flat `label:count,label:count` string into its pairs; `what`
/// names the field in errors.
fn decode_pairs(text: Option<&str>, what: &str) -> Result<Vec<(String, u64)>, String> {
    let Some(text) = text else {
        return Ok(Vec::new());
    };
    text.split(',')
        .map(|entry| {
            let (label, count) = entry
                .rsplit_once(':')
                .ok_or_else(|| format!("{what} entry {entry:?} has no ':'"))?;
            let count: u64 =
                count.parse().map_err(|_| format!("{what} entry {entry:?} has a bad count"))?;
            Ok((label.to_string(), count))
        })
        .collect()
}

impl RunRecord {
    /// Parallel time (interactions / n) at convergence or exhaustion.
    pub fn parallel_time(&self) -> f64 {
        self.outcome.parallel_time(self.n as usize)
    }

    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.outcome.interactions(), self.wall_s)
    }

    /// Attaches the schema-v3 robustness metadata (scheduler spec, omission
    /// probability, starvation window) to a record builder-style. `None`s
    /// and an `omission` of exactly 0 are normalized to absent fields, so
    /// the uniform/perfect baseline serializes identically to pre-v3
    /// records.
    pub fn with_robustness(
        mut self,
        scheduler: Option<String>,
        omission: Option<f64>,
        starve_window: Option<u64>,
    ) -> Self {
        self.scheduler = scheduler.filter(|s| s != "uniform");
        self.omission = omission.filter(|&o| o > 0.0);
        self.starve_window = starve_window;
        self
    }
}

impl FaultRecord {
    /// Interactions from injection to recovery, if recovery happened.
    pub fn recovery_interactions(&self) -> Option<u64> {
        self.recovered_at.map(|r| r.saturating_sub(self.injected_at))
    }

    /// Parallel time from injection to recovery, if recovery happened.
    pub fn recovery_parallel_time(&self) -> Option<f64> {
        self.recovery_interactions().map(|i| i as f64 / self.n as f64)
    }
}

impl FrontierRecord {
    /// Parallel time (interactions / n) at the end of the run.
    pub fn parallel_time(&self) -> f64 {
        self.outcome.parallel_time(self.n as usize)
    }

    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.outcome.interactions(), self.wall_s)
    }
}

impl TimelineRecord {
    /// Parallel time (interactions / n) of the checkpoint.
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.n as f64
    }

    /// Decodes the flat `phases` string back into `(name, count)` pairs.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed entry.
    pub fn phase_counts(&self) -> Result<Vec<(String, u64)>, String> {
        decode_pairs(self.phases.as_deref(), "phase")
    }
}

impl MetricsRecord {
    /// Fraction of interactions that went through the exact fallback.
    pub fn fallback_rate(&self) -> f64 {
        let total = self.exact_steps + self.batched_pairs;
        if total == 0 {
            0.0
        } else {
            self.exact_steps as f64 / total as f64
        }
    }

    /// Fraction of memo lookups that hit; 0 when never consulted.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.interactions, self.wall_s)
    }

    /// Decodes the flat `batch_hist` string back into
    /// `(bound-label, count)` pairs, in encoded order.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed entry.
    pub fn batch_hist_counts(&self) -> Result<Vec<(String, u64)>, String> {
        decode_pairs(self.batch_hist.as_deref(), "batch_hist")
    }
}

impl ChurnRecord {
    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.interactions, self.wall_s)
    }
}

impl RecordLine {
    /// Parses one line, dispatching on the `kind` discriminator (absent
    /// `kind` means a v1 trial record).
    pub fn from_json(line: &str) -> Result<Self, String> {
        let fields = parse_record(line)?;
        check_version(&fields)?;
        match Self::from_known_fields(&fields)? {
            Some(line) => Ok(line),
            None => Err(format!("unknown record kind {:?}", record_kind(&fields)?)),
        }
    }
}

/// Serializes records as JSONL: one [`RunRecord::to_json`] line per record.
pub fn to_jsonl(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Serializes a mixed trial/fault stream as JSONL, one line per record.
pub fn to_jsonl_mixed(lines: &[RecordLine]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(&l.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document (blank lines skipped) into **trial** records,
/// skipping every other kind — the historical contract of every
/// trial-level consumer. Use [`from_jsonl_mixed`] to see the other kinds.
///
/// The error names the offending line number.
pub fn from_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
    let lines = from_jsonl_mixed(text)?;
    Ok(lines
        .into_iter()
        .filter_map(|l| match l {
            RecordLine::Trial(r) => Some(r),
            _ => None,
        })
        .collect())
}

/// Parses a JSONL document (blank lines skipped) into a mixed stream of
/// records of every kind, preserving line order.
///
/// The error names the offending line number.
pub fn from_jsonl_mixed(text: &str) -> Result<Vec<RecordLine>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = RecordLine::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Result of a lenient mixed-stream parse: the lines this reader understood,
/// plus a tally of the ones it had to set aside. See [`from_jsonl_lenient`].
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// Lines parsed into known record kinds, in stream order.
    pub records: Vec<RecordLine>,
    /// Set-aside lines as `(line_number, reason)` pairs — e.g.
    /// `(12, "kind \"galaxy\"")` or `(3, "version 7")`. Line numbers are
    /// 1-based.
    pub skipped: Vec<(usize, String)>,
}

/// Parses a JSONL document like [`from_jsonl_mixed`], but instead of erroring
/// on lines a *newer* writer could legitimately produce — an unknown `kind`,
/// or a version above [`SCHEMA_VERSION`] — it sets them aside in
/// [`LenientParse::skipped`] so the caller can warn with counts. Lines that
/// no writer should produce (malformed JSON, versions below
/// [`MIN_SCHEMA_VERSION`], known kinds with broken fields) still hard-error.
pub fn from_jsonl_lenient(text: &str) -> Result<LenientParse, String> {
    let mut out = LenientParse { records: Vec::new(), skipped: Vec::new() };
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let fields = parse_record(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let version: u64 = get(&fields, "v").map_err(|e| format!("line {lineno}: {e}"))?;
        if version > SCHEMA_VERSION as u64 {
            out.skipped.push((lineno, format!("version {version}")));
            continue;
        }
        if version < MIN_SCHEMA_VERSION as u64 {
            return Err(format!(
                "line {lineno}: unsupported record version {version} (reader supports \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        match RecordLine::from_known_fields(&fields).map_err(|e| format!("line {lineno}: {e}"))? {
            Some(record) => out.records.push(record),
            None => {
                let kind = record_kind(&fields).map_err(|e| format!("line {lineno}: {e}"))?;
                out.skipped.push((lineno, format!("kind {kind:?}")));
            }
        }
    }
    Ok(out)
}
/// Incremental builder for a single-line JSON object.
///
/// Exists so that the CLI's `--format json` output and [`RunRecord::to_json`]
/// share one escaping implementation.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field. Non-finite values serialize as `null` (JSON has
    /// no NaN/Infinity).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a `null` field.
    pub fn field_null(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// Adds a field whose value is pre-rendered JSON (e.g. a nested array
    /// built by the caller). The caller is responsible for its validity.
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes `s` JSON-escaped exactly as [`JsonObject::field_str`] escapes
/// it; text that needs no escaping (every snapshot state) goes straight
/// to `out`.
pub(crate) fn write_escaped(out: &mut impl std::io::Write, s: &str) -> std::io::Result<()> {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return out.write_all(s.as_bytes());
    }
    let mut escaped = String::with_capacity(s.len() + 8);
    escape_into(&mut escaped, s);
    out.write_all(escaped.as_bytes())
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// Parses a flat JSON object — string/number/bool/null values only, no
/// nesting — into a key → scalar map.
///
/// This is the subset [`RunRecord::to_json`] emits; nested values are
/// rejected with an error rather than skipped.
pub fn parse_flat_json(input: &str) -> Result<BTreeMap<String, JsonScalar>, String> {
    parse_object(input, |raw| {
        Ok(match raw {
            Raw::Str(s) => JsonScalar::Str(s),
            Raw::Num(text) => JsonScalar::Num(parse_number(text)?),
            Raw::Bool(b) => JsonScalar::Bool(b),
            Raw::Null => JsonScalar::Null,
        })
    })
}

/// A scalar value in a flat JSON object as [`parse_flat_json_exact`] reads
/// it: a number keeps its text, so an integer reads back exactly through
/// [`ExactScalar::as_u64`] rather than through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactScalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number, as written.
    Num(String),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl ExactScalar {
    /// The value as a non-negative integer: every `u64` exactly, plus
    /// integral spellings such as `12.0` or `1e3` up to 2⁵³. `None` for
    /// anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ExactScalar::Num(text) => exact_u64(text),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ExactScalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a flat JSON object like [`parse_flat_json`], keeping each
/// number's text so integer fields read exactly.
pub fn parse_flat_json_exact(input: &str) -> Result<BTreeMap<String, ExactScalar>, String> {
    parse_object(input, |raw| {
        Ok(match raw {
            Raw::Str(s) => ExactScalar::Str(s),
            Raw::Num(text) => {
                parse_number(text)?;
                ExactScalar::Num(text.to_string())
            }
            Raw::Bool(b) => ExactScalar::Bool(b),
            Raw::Null => ExactScalar::Null,
        })
    })
}

/// Reads a number's text as a non-negative integer: every `u64` exactly,
/// and integral spellings such as `12.0` or `1e3` up to 2⁵³.
fn exact_u64(text: &str) -> Option<u64> {
    if let Ok(x) = text.parse() {
        return Some(x);
    }
    let x = parse_number(text).ok()?;
    (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
}

/// Parses a number's text (as scanned by the parser) into an `f64`.
fn parse_number(text: &str) -> Result<f64, String> {
    text.parse::<f64>().map_err(|_| format!("bad number {text:?}"))
}

/// Parses a flat JSON object, turning each scalar into a `V` with `value`.
fn parse_object<'a, V>(
    input: &'a str,
    mut value: impl FnMut(Raw<'a>) -> Result<V, String>,
) -> Result<BTreeMap<String, V>, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let scalar = value(p.parse_scalar()?)?;
            map.insert(key, scalar);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {:?}", byte_desc(other))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data after object at byte {}", p.pos));
    }
    Ok(map)
}

fn byte_desc(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("{:?}", b as char),
        None => "end of input".to_string(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {}", want as char, byte_desc(other))),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("unterminated \\u escape")? as char;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {d:?} in \\u escape"))?;
                        }
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {}", byte_desc(other))),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy the remaining continuation bytes.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err("invalid UTF-8 in string".to_string()),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".to_string());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    /// Parses one scalar; a number comes back as its unparsed text.
    fn parse_scalar(&mut self) -> Result<Raw<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Raw::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Raw::Bool(true)),
            Some(b'f') => self.parse_literal("false", Raw::Bool(false)),
            Some(b'n') => self.parse_literal("null", Raw::Null),
            Some(b'{' | b'[') => Err("nested values are not supported".to_string()),
            Some(_) => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("number characters are ASCII");
                Ok(Raw::Num(text))
            }
            None => Err("expected a value, got end of input".to_string()),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Raw<'a>) -> Result<Raw<'a>, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            experiment: "table1".to_string(),
            protocol: "oss".to_string(),
            n: 64,
            h: None,
            trial: 3,
            seed: 1,
            outcome: RunOutcome::Converged { interactions: 12_345 },
            wall_s: 0.25,
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
        }
    }

    fn sample_fault_record() -> FaultRecord {
        FaultRecord {
            experiment: "recovery".to_string(),
            protocol: "oss".to_string(),
            n: 256,
            h: None,
            trial: 3,
            seed: 1,
            action: "corrupt_random".to_string(),
            agents: 16,
            injected_at: 250_000,
            recovered_at: Some(280_000),
        }
    }

    fn sample_frontier_record() -> FrontierRecord {
        FrontierRecord {
            experiment: "frontier".to_string(),
            protocol: "epidemic".to_string(),
            backend: "counts".to_string(),
            n: 100_000_000,
            trial: 0,
            seed: 1,
            outcome: RunOutcome::Converged { interactions: 3_700_000_000 },
            wall_s: 12.5,
            support: Some(2),
            leaders: None,
        }
    }

    #[test]
    fn frontier_record_round_trips() {
        let f = sample_frontier_record();
        let json = f.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"frontier\","), "{json}");
        assert!(json.contains("\"backend\":\"counts\""), "{json}");
        assert!(json.contains("\"support\":2"), "{json}");
        assert!(json.contains("\"leaders\":null"), "{json}");
        assert_eq!(FrontierRecord::from_json(&json).unwrap(), f);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Frontier(f.clone()));
        let bounded = FrontierRecord {
            backend: "agents".to_string(),
            support: None,
            leaders: Some(1),
            outcome: RunOutcome::Exhausted { interactions: 42 },
            ..f
        };
        assert_eq!(FrontierRecord::from_json(&bounded.to_json()).unwrap(), bounded);
    }

    fn sample_timeline_record() -> TimelineRecord {
        TimelineRecord {
            experiment: "simulate".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 1000,
            trial: 0,
            seed: 1,
            interactions: 4096,
            leaders: 17,
            ranks_ok: 921,
            support: None,
            phases: Some("propagate:12,reset:3".to_string()),
        }
    }

    #[test]
    fn timeline_record_round_trips() {
        let t = sample_timeline_record();
        let json = t.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"timeline\","), "{json}");
        assert!(json.contains("\"parallel_time\":4.096"), "{json}");
        assert!(json.contains("\"phases\":\"propagate:12,reset:3\""), "{json}");
        assert_eq!(TimelineRecord::from_json(&json).unwrap(), t);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Timeline(t.clone()));
        let bare = TimelineRecord { phases: None, support: Some(5), ..t };
        assert_eq!(TimelineRecord::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn timeline_phases_decode() {
        let t = sample_timeline_record();
        assert_eq!(
            t.phase_counts().unwrap(),
            vec![("propagate".to_string(), 12), ("reset".to_string(), 3)]
        );
        let none = TimelineRecord { phases: None, ..t.clone() };
        assert!(none.phase_counts().unwrap().is_empty());
        let bad = TimelineRecord { phases: Some("oops".to_string()), ..t };
        assert!(bad.phase_counts().is_err());
    }

    fn sample_metrics_record() -> MetricsRecord {
        MetricsRecord {
            experiment: "simulate".to_string(),
            protocol: "epidemic".to_string(),
            backend: "counts".to_string(),
            n: 1_000_000,
            trial: Some(0),
            seed: 1,
            wall_s: 0.5,
            interactions: 2_000_000,
            batches: 4_000,
            batched_pairs: 1_999_000,
            exact_steps: 1_000,
            rng_draws: 4_010_000,
            memo_hits: 1_990_000,
            memo_misses: 10_000,
            compactions: 3,
            support: 2,
            raw_len: 5,
            flushes: 4_000,
            batch_hist: Some("256:12,512:3988".to_string()),
            sample_s: 0.1,
            transition_s: 0.3,
            probe_s: 0.05,
            observe_s: 0.0,
        }
    }

    #[test]
    fn metrics_record_round_trips() {
        let m = sample_metrics_record();
        let json = m.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"metrics\","), "{json}");
        assert!(json.contains("\"batch_hist\":\"256:12,512:3988\""), "{json}");
        assert!(json.contains("\"ips\":4000000"), "{json}");
        assert_eq!(MetricsRecord::from_json(&json).unwrap(), m);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Metrics(m.clone()));
        let merged = MetricsRecord { trial: None, batch_hist: None, ..m };
        let json = merged.to_json();
        assert!(json.contains("\"trial\":null"), "{json}");
        assert_eq!(MetricsRecord::from_json(&json).unwrap(), merged);
    }

    #[test]
    fn metrics_rates_and_histogram_decode() {
        let m = sample_metrics_record();
        assert!((m.fallback_rate() - 1_000.0 / 2_000_000.0).abs() < 1e-12);
        assert!((m.memo_hit_rate() - 0.995).abs() < 1e-12);
        assert_eq!(
            m.batch_hist_counts().unwrap(),
            vec![("256".to_string(), 12), ("512".to_string(), 3988)]
        );
        let none = MetricsRecord { batch_hist: None, ..m.clone() };
        assert!(none.batch_hist_counts().unwrap().is_empty());
        let bad = MetricsRecord { batch_hist: Some("oops".to_string()), ..m };
        assert!(bad.batch_hist_counts().is_err());
    }

    #[test]
    fn metrics_lines_are_invisible_to_the_trial_reader() {
        let text =
            format!("{}\n{}\n", sample_record().to_json(), sample_metrics_record().to_json());
        assert_eq!(from_jsonl(&text).unwrap().len(), 1);
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].to_json(), sample_metrics_record().to_json());
    }

    #[test]
    fn metrics_kind_mismatch_is_an_error() {
        let err = MetricsRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("metrics"), "{err}");
        let err = RunRecord::from_json(&sample_metrics_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
    }

    #[test]
    fn timeline_lines_are_invisible_to_the_trial_reader() {
        let text =
            format!("{}\n{}\n", sample_record().to_json(), sample_timeline_record().to_json());
        assert_eq!(from_jsonl(&text).unwrap().len(), 1);
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].to_json(), sample_timeline_record().to_json());
    }

    #[test]
    fn timeline_kind_mismatch_is_an_error() {
        let err = TimelineRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("timeline"), "{err}");
        let err = RunRecord::from_json(&sample_timeline_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
    }

    #[test]
    fn frontier_lines_are_invisible_to_the_trial_reader() {
        let text =
            format!("{}\n{}\n", sample_record().to_json(), sample_frontier_record().to_json());
        let trials = from_jsonl(&text).unwrap();
        assert_eq!(trials.len(), 1);
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].to_json(), sample_frontier_record().to_json());
    }

    #[test]
    fn frontier_kind_mismatch_is_an_error() {
        let err = FrontierRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
        let err = RunRecord::from_json(&sample_frontier_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample_record();
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        let with_h = RunRecord {
            protocol: "sublinear".to_string(),
            h: Some(2),
            outcome: RunOutcome::Exhausted { interactions: 999 },
            ..r
        };
        let parsed = RunRecord::from_json(&with_h.to_json()).unwrap();
        assert_eq!(parsed, with_h);
    }

    #[test]
    fn jsonl_round_trips_and_skips_blank_lines() {
        let records = vec![sample_record(), RunRecord { trial: 4, ..sample_record() }];
        let mut text = to_jsonl(&records);
        text.push('\n'); // trailing blank line
        assert_eq!(from_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn derived_fields_are_emitted() {
        let json = sample_record().to_json();
        assert!(json.contains("\"parallel_time\":"), "{json}");
        assert!(json.contains("\"ips\":49380"), "{json}");
        assert!(json.starts_with("{\"v\":9,\"kind\":\"trial\","), "version leads: {json}");
        assert!(
            !json.contains("availability") && !json.contains("faults"),
            "chaos fields only appear when set: {json}"
        );
    }

    #[test]
    fn chaos_fields_round_trip_when_set() {
        let r = RunRecord { availability: Some(0.9921875), faults: Some(4), ..sample_record() };
        let json = r.to_json();
        assert!(json.contains("\"availability\":0.9921875"), "{json}");
        assert!(json.contains("\"faults\":4"), "{json}");
        assert_eq!(RunRecord::from_json(&json).unwrap(), r);
    }

    #[test]
    fn v1_lines_without_kind_still_parse() {
        // A line exactly as the v1 writer emitted it.
        let json = "{\"v\":1,\"experiment\":\"table1\",\"protocol\":\"oss\",\"n\":64,\
                    \"h\":null,\"trial\":3,\"seed\":1,\"outcome\":\"converged\",\
                    \"interactions\":12345,\"parallel_time\":192.890625,\"wall_s\":0.25,\
                    \"ips\":49380}";
        assert_eq!(RunRecord::from_json(json).unwrap(), sample_record());
        assert_eq!(RecordLine::from_json(json).unwrap(), RecordLine::Trial(sample_record()));
    }

    #[test]
    fn fault_record_round_trips() {
        let f = sample_fault_record();
        let json = f.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"fault\","), "{json}");
        assert!(json.contains("\"recovery_parallel_time\":"), "{json}");
        assert_eq!(FaultRecord::from_json(&json).unwrap(), f);
        assert_eq!(f.recovery_interactions(), Some(30_000));
        let censored = FaultRecord { recovered_at: None, ..f };
        let parsed = FaultRecord::from_json(&censored.to_json()).unwrap();
        assert_eq!(parsed, censored);
        assert_eq!(parsed.recovery_parallel_time(), None);
    }

    #[test]
    fn mixed_streams_parse_and_trial_reader_skips_faults() {
        let text = format!(
            "{}\n{}\n{}\n",
            sample_record().to_json(),
            sample_fault_record().to_json(),
            RunRecord { trial: 4, ..sample_record() }.to_json()
        );
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 3);
        assert_eq!(mixed[1], RecordLine::Fault(sample_fault_record()));
        assert_eq!(mixed[1].to_json(), sample_fault_record().to_json());
        let trials = from_jsonl(&text).unwrap();
        assert_eq!(trials.len(), 2, "fault lines are invisible to the trial reader");
        assert_eq!(trials[1].trial, 4);
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let err = RunRecord::from_json(&sample_fault_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
        let err = FaultRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("fault"), "{err}");
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let mut json = sample_record().to_json();
        json.insert_str(json.len() - 1, ",\"future_field\":\"yes\"");
        assert_eq!(RunRecord::from_json(&json).unwrap(), sample_record());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let json = sample_record().to_json().replace("\"v\":9", "\"v\":10");
        let err = RunRecord::from_json(&json).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let json = sample_record().to_json().replace("\"v\":9", "\"v\":0");
        assert!(RunRecord::from_json(&json).is_err());
    }

    #[test]
    fn robustness_fields_round_trip_when_set() {
        let r = sample_record().with_robustness(
            Some("starve:4:256".to_string()),
            Some(0.25),
            Some(256),
        );
        let json = r.to_json();
        assert!(json.contains("\"scheduler\":\"starve:4:256\""), "{json}");
        assert!(json.contains("\"omission\":0.25"), "{json}");
        assert!(json.contains("\"starve_window\":256"), "{json}");
        assert_eq!(RunRecord::from_json(&json).unwrap(), r);
    }

    #[test]
    fn uniform_perfect_robustness_normalizes_to_absent_fields() {
        let r = sample_record().with_robustness(Some("uniform".to_string()), Some(0.0), None);
        assert_eq!(r, sample_record());
        assert!(!r.to_json().contains("scheduler"), "baseline serializes as pre-v3");
    }

    #[test]
    fn missing_field_is_an_error_with_line_number() {
        let good = sample_record().to_json();
        let bad = good.replace("\"seed\":1,", "");
        let text = format!("{good}\n{bad}\n");
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn string_escaping_round_trips() {
        let r = RunRecord {
            experiment: "weird \"name\"\twith\nnewline\\slash".to_string(),
            ..sample_record()
        };
        assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn parser_rejects_nesting_and_trailing_garbage() {
        assert!(parse_flat_json("{\"a\":[1]}").unwrap_err().contains("nested"));
        assert!(parse_flat_json("{\"a\":1} extra").unwrap_err().contains("trailing"));
        assert!(parse_flat_json("{\"a\":1").is_err());
    }

    #[test]
    fn json_object_builder_emits_all_types() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "x");
        obj.field_u64("u", 7);
        obj.field_f64("f", 1.5);
        obj.field_f64("nan", f64::NAN);
        obj.field_bool("b", true);
        obj.field_null("z");
        obj.field_raw("arr", "[1,2]");
        assert_eq!(
            obj.finish(),
            "{\"s\":\"x\",\"u\":7,\"f\":1.5,\"nan\":null,\"b\":true,\"z\":null,\"arr\":[1,2]}"
        );
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_json(" { } ").unwrap().is_empty());
    }

    fn sample_churn_record() -> ChurnRecord {
        ChurnRecord {
            experiment: "churn".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 64,
            final_n: 66,
            h: None,
            trial: 3,
            seed: 9,
            churn: "2.0".to_string(),
            byzantine: 0.05,
            joins: 4,
            leaves: 2,
            replacements: 11,
            byz_strikes: 310,
            faults: 17,
            availability: 0.82,
            ranked_availability: 0.64,
            recovered: 15,
            mean_recovery_pt: Some(12.5),
            first_ranked_pt: Some(30.0),
            interactions: 200_000,
            parallel_time: 3101.6,
            wall_s: 0.4,
        }
    }

    fn sample_service_record() -> ServiceRecord {
        ServiceRecord {
            experiment: "service".to_string(),
            protocol: "oss".to_string(),
            backend: "counts".to_string(),
            n: 10_000,
            clients: 8,
            requests: 4_000,
            rps: 1_234.5,
            p50_us: 210.0,
            p99_us: 1_900.0,
            seed: 5,
            wall_s: 3.24,
        }
    }

    #[test]
    fn service_record_round_trips() {
        let s = sample_service_record();
        let json = s.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"service\","), "{json}");
        assert!(json.contains("\"clients\":8"), "{json}");
        assert!(json.contains("\"p99_us\":1900"), "{json}");
        assert_eq!(ServiceRecord::from_json(&json).unwrap(), s);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Service(s.clone()));
        // Mixed streams carry service lines; the trial-only reader skips them.
        let lines = vec![RecordLine::Trial(sample_record()), RecordLine::Service(s)];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    fn sample_crash_record() -> CrashRecord {
        CrashRecord {
            experiment: "crash".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 256,
            fsync: "every:16".to_string(),
            kill_point: 0.5,
            events_applied: 200,
            events_recovered: 192,
            lost_events: 8,
            recovery_ms: 4.75,
            replay_identical: true,
            seed: 11,
            wall_s: 0.9,
        }
    }

    fn sample_health_record() -> HealthRecord {
        HealthRecord {
            experiment: "health".to_string(),
            pop: "alpha".to_string(),
            protocol: "oss".to_string(),
            backend: "counts".to_string(),
            n: 1_000,
            live: 998,
            interactions: 500_000,
            ranked: true,
            seq: 73,
            snapshot_seq: 64,
            lag: 9,
            fsync: Some("always".to_string()),
            quarantines: 1,
        }
    }

    #[test]
    fn crash_record_round_trips() {
        let c = sample_crash_record();
        let json = c.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"crash\","), "{json}");
        assert!(json.contains("\"fsync\":\"every:16\""), "{json}");
        assert!(json.contains("\"lost_events\":8"), "{json}");
        assert!(json.contains("\"replay_identical\":true"), "{json}");
        assert_eq!(CrashRecord::from_json(&json).unwrap(), c);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Crash(c.clone()));
        // The trial-only reader skips crash lines.
        let lines = vec![RecordLine::Trial(sample_record()), RecordLine::Crash(c)];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    #[test]
    fn health_record_round_trips() {
        let h = sample_health_record();
        let json = h.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"health\","), "{json}");
        assert!(json.contains("\"lag\":9"), "{json}");
        assert!(json.contains("\"ranked\":true"), "{json}");
        assert!(json.contains("\"quarantines\":1"), "{json}");
        assert_eq!(HealthRecord::from_json(&json).unwrap(), h);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Health(h.clone()));
        let lines = vec![RecordLine::Trial(sample_record()), RecordLine::Health(h)];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    #[test]
    fn bool_fields_reject_non_bools() {
        let json = sample_crash_record().to_json().replace("true", "\"yes\"");
        let err = CrashRecord::from_json(&json).unwrap_err();
        assert!(err.contains("replay_identical"), "{err}");
    }

    #[test]
    fn churn_record_round_trips() {
        let c = sample_churn_record();
        let json = c.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"churn\","), "{json}");
        assert!(json.contains("\"churn\":\"2.0\""), "{json}");
        assert!(json.contains("\"byzantine\":0.05"), "{json}");
        assert!(json.contains("\"final_n\":66"), "{json}");
        assert_eq!(ChurnRecord::from_json(&json).unwrap(), c);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Churn(c.clone()));
        let bare = ChurnRecord {
            h: Some(4),
            mean_recovery_pt: None,
            first_ranked_pt: None,
            churn: "none".to_string(),
            ..c
        };
        let json = bare.to_json();
        assert!(json.contains("\"mean_recovery_pt\":null"), "{json}");
        assert_eq!(ChurnRecord::from_json(&json).unwrap(), bare);
    }

    #[test]
    fn churn_lines_survive_mixed_round_trip() {
        let lines =
            vec![RecordLine::Trial(sample_record()), RecordLine::Churn(sample_churn_record())];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        // The trial-only reader keeps its historical contract.
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    #[test]
    fn lenient_parse_sets_aside_future_lines() {
        let known = sample_churn_record().to_json();
        let future_version = known.replace("\"v\":9", "\"v\":10");
        let future_kind = known.replace("\"kind\":\"churn\"", "\"kind\":\"galaxy\"");
        let text = format!("{known}\n{future_version}\n{future_kind}\n");
        let parsed = from_jsonl_lenient(&text).unwrap();
        assert_eq!(parsed.records, vec![RecordLine::Churn(sample_churn_record())]);
        assert_eq!(
            parsed.skipped,
            vec![(2, "version 10".to_string()), (3, "kind \"galaxy\"".to_string())]
        );
        // Strict mixed parsing still rejects the same stream.
        assert!(from_jsonl_mixed(&text).is_err());
    }

    #[test]
    fn lenient_parse_still_hard_errors_on_garbage() {
        // Below MIN_SCHEMA_VERSION: no writer should produce this.
        let stale = sample_churn_record().to_json().replace("\"v\":9", "\"v\":0");
        assert!(from_jsonl_lenient(&stale).unwrap_err().contains("version"));
        // Malformed JSON is a hard error too.
        assert!(from_jsonl_lenient("{\"v\":8,").is_err());
        // A known kind with broken fields is a hard error, not a skip.
        let broken = "{\"v\":9,\"kind\":\"churn\",\"experiment\":\"x\"}";
        assert!(from_jsonl_lenient(broken).is_err());
    }

    fn sample_server_stats_record() -> ServerStatsRecord {
        ServerStatsRecord {
            experiment: "serve".to_string(),
            cmd: "step".to_string(),
            count: 120,
            errors: 2,
            rps: 59.5,
            p50_us: 256.0,
            p95_us: 1024.0,
            p99_us: 2048.0,
            mean_us: 301.25,
            queue_us: 1.5,
            parse_us: 2.25,
            registry_lock_us: 0.5,
            pop_lock_us: 3.0,
            engine_us: 250.0,
            journal_us: 12.0,
            fsync_us: 30.0,
            write_us: 2.0,
            hist: "256:60,1024:50,inf:10".to_string(),
            window_s: 2.0,
            busy: 1,
            queue_depth: 3,
            slow: 4,
            journal_lag: 17,
        }
    }

    fn sample_trace_record() -> TraceRecord {
        TraceRecord {
            cmd: "step".to_string(),
            pop: "alpha".to_string(),
            id: "req-7".to_string(),
            ok: false,
            total_us: 900,
            queue_us: 10,
            parse_us: 5,
            registry_lock_us: 1,
            pop_lock_us: 40,
            engine_us: 700,
            journal_us: 60,
            fsync_us: 80,
            write_us: 4,
        }
    }

    /// Encodes `record` as a line of kind `kind` and checks that both
    /// decoders and the [`Record`] projection give it back.
    fn round_trip<R: Record + Clone + PartialEq + std::fmt::Debug>(
        kind: &str,
        record: R,
        wrap: fn(R) -> RecordLine,
        decode: fn(&str) -> Result<R, String>,
    ) -> RecordLine {
        let line = wrap(record.clone());
        let json = line.to_json();
        assert!(json.starts_with(&format!("{{\"v\":9,\"kind\":\"{kind}\",")), "{json}");
        assert_eq!(decode(&json).unwrap(), record);
        assert_eq!(RecordLine::from_json(&json).unwrap(), line, "{json}");
        assert_eq!(R::of_line(&line), Some(&record));
        line
    }

    /// One sample of every kind, each through both decoders and its
    /// [`Record`] projection.
    #[test]
    fn every_kind_round_trips() {
        let robust = sample_record().with_robustness(
            Some("starve:4:256".to_string()),
            Some(0.25),
            Some(256),
        );
        let undurable = HealthRecord { fsync: None, ..sample_health_record() };
        let samples = vec![
            round_trip("trial", robust, RecordLine::Trial, RunRecord::from_json),
            round_trip("fault", sample_fault_record(), RecordLine::Fault, FaultRecord::from_json),
            round_trip(
                "frontier",
                sample_frontier_record(),
                RecordLine::Frontier,
                FrontierRecord::from_json,
            ),
            round_trip(
                "timeline",
                sample_timeline_record(),
                RecordLine::Timeline,
                TimelineRecord::from_json,
            ),
            round_trip(
                "metrics",
                sample_metrics_record(),
                RecordLine::Metrics,
                MetricsRecord::from_json,
            ),
            round_trip("churn", sample_churn_record(), RecordLine::Churn, ChurnRecord::from_json),
            round_trip(
                "service",
                sample_service_record(),
                RecordLine::Service,
                ServiceRecord::from_json,
            ),
            round_trip("crash", sample_crash_record(), RecordLine::Crash, CrashRecord::from_json),
            round_trip("health", undurable, RecordLine::Health, HealthRecord::from_json),
            round_trip(
                "server_stats",
                sample_server_stats_record(),
                RecordLine::ServerStats,
                ServerStatsRecord::from_json,
            ),
            round_trip("trace", sample_trace_record(), RecordLine::Trace, TraceRecord::from_json),
        ];
        let kinds: std::collections::HashSet<_> =
            samples.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 11, "one sample per kind");
        assert!(samples[8].to_json().contains("\"fsync\":null"), "an undurable daemon's row");
        // The trial reader skips every sample but the trial.
        assert_eq!(from_jsonl(&to_jsonl_mixed(&samples)).unwrap().len(), 1);
    }

    /// Integer fields are read from the number's text, so seeds above 2^53
    /// come back exactly instead of rounded or rejected.
    #[test]
    fn u64_fields_decode_exactly() {
        for seed in [u64::MAX, (1 << 53) + 1] {
            let r = RunRecord { seed, ..sample_record() };
            let json = r.to_json();
            assert!(json.contains(&format!("\"seed\":{seed},")), "{json}");
            assert_eq!(RunRecord::from_json(&json).unwrap(), r);
            let t = TimelineRecord { seed, ..sample_timeline_record() };
            let parsed = from_jsonl_lenient(&t.to_json()).unwrap();
            assert_eq!(parsed.records, vec![RecordLine::Timeline(t)]);
        }
        // Integral float spellings still read; fractions and overflow do not.
        let json = sample_record().to_json();
        let spelled = json.replace("\"seed\":1,", "\"seed\":1e0,");
        assert_eq!(RunRecord::from_json(&spelled).unwrap(), sample_record());
        for bad in ["1.5", "-1", "18446744073709551616"] {
            let broken = json.replace("\"seed\":1,", &format!("\"seed\":{bad},"));
            let err = RunRecord::from_json(&broken).unwrap_err();
            assert!(err.contains("seed"), "{bad}: {err}");
        }
    }

    /// Every line of every checked-in `results/*.jsonl` stream decodes, and
    /// re-encodes to the same bytes (only the schema version may differ).
    #[test]
    fn checked_in_streams_re_encode_byte_for_byte() {
        fn without_version(line: &str) -> String {
            let rest = line.strip_prefix("{\"v\":").expect("lines lead with the version");
            rest.trim_start_matches(|c: char| c.is_ascii_digit()).to_string()
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut streams: Vec<_> = std::fs::read_dir(&dir)
            .expect("results directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        streams.sort();
        assert!(streams.len() >= 9, "{streams:?}");
        let mut kinds = std::collections::HashSet::new();
        for path in &streams {
            let text = std::fs::read_to_string(path).expect("readable stream");
            for (idx, line) in text.lines().enumerate() {
                let record = RecordLine::from_json(line)
                    .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), idx + 1));
                assert_eq!(
                    without_version(&record.to_json()),
                    without_version(line),
                    "{}:{}",
                    path.display(),
                    idx + 1
                );
                kinds.insert(std::mem::discriminant(&record));
            }
        }
        assert!(kinds.len() >= 8, "the streams cover {} kinds", kinds.len());
    }
}
