//! `ssle report` — summarize a JSONL experiment record stream.
//!
//! Reads a stream of [`RecordLine`]s (one JSON object per line, any mix of
//! kinds), groups each kind's records by a key, and writes one summary row
//! per group. Trial groups are rebuilt into a [`ConvergenceSample`] and
//! summarized by the bench crate's [`TimeSummary`], so re-analyzing a
//! recorded run reproduces the expected and tail stabilization times the
//! measuring run printed.
//!
//! # Rows
//!
//! Every line the report writes is one entry of the `rows!` table: a
//! struct whose fields are declared once, in wire order, with the presence
//! vocabulary of the record table in `population::record` — required,
//! `null` when `None`, or `= omit`ted when `None` — plus a few ways to write
//! a nested value's fields inline and `= text` for a field only the text
//! output shows. One constructor per kind builds the row from its group key
//! and records, and computes every statistic the row carries. From the
//! declaration, [`json_lines`] writes any row as one JSON line
//! (`"command":"report"`, the row's `kind` if it has one, then its fields);
//! one text function per kind formats the built rows. A new row kind is a
//! table entry, its constructor and its text function. Constructors sum
//! counters saturating, so no value read from a file panics the report.
//!
//! # Modes
//!
//! * `ssle report <file>` — a row per group of every kind, plus a note per
//!   reason lines were set aside and per timeline or metrics cohort.
//! * `--compare a.jsonl b.jsonl` — per trial group, the ratio of mean
//!   stabilization times; per frontier group, of interactions per second.
//! * `--timeline <file>` — per-trial leader and rank sparklines and the
//!   cross-trial median leader trajectory.
//! * `--metrics <file>` — engine cost profiles: throughput, section times,
//!   batch sizes, the exact-fallback rate and the memo hit rate.

use std::collections::{BTreeMap, BTreeSet};

use analysis::{median_trajectory, quantile, summarize_buckets, Ecdf};
use population::metrics::decode_histogram;
use population::record::{
    from_jsonl_lenient, ChurnRecord, CrashRecord, FaultRecord, FrontierRecord, HealthRecord,
    JsonField, JsonObject, MetricsRecord, Record, RecordLine, RunRecord, ServerStatsRecord,
    ServiceRecord, TimelineRecord, TraceRecord,
};
use population::ConvergenceSample;
use ssle_bench::TimeSummary;

use crate::commands::{parse_flags, sparkline, OutputFormat};
use crate::error::CliError;

/// Trial and fault groups: `(experiment, protocol, n, h, scheduler or
/// fault action)`. Trial records without scheduler metadata (schema v1/v2)
/// group under `"uniform"`, the regime they in fact ran in.
type GroupKey = (String, String, u64, Option<u64>, String);

/// Frontier, timeline and metrics groups: `(experiment, protocol or
/// workload, backend, n)`.
type CellKey = (String, String, String, u64);

/// Timeline trials: the cohort plus the trial index.
type TimelineKey = (String, String, String, u64, u64);

/// Service groups: `(experiment, protocol, backend, n, clients)`.
type ServiceKey = (String, String, String, u64, u64);

/// Crash groups: `(experiment, protocol, backend, n, fsync spec)`.
type CrashKey = (String, String, String, u64, String);

/// Health groups: `(experiment, pop, protocol, backend, n)`.
type HealthKey = (String, String, String, String, u64);

/// Churn groups: `(experiment, protocol, backend, n, h, churn spec,
/// byzantine fraction rendered as text so the key stays totally ordered)`.
type ChurnKey = (String, String, String, u64, Option<u64>, String, String);

const USAGE: &str =
    "usage: ssle report <file.jsonl> [--compare other.jsonl] [--format text|json]\n\
                     \u{20}      ssle report --timeline <file.jsonl> [--format text|json]\n\
                     \u{20}      ssle report --metrics <file.jsonl> [--format text|json]";

/// Runs the subcommand: `ssle report <file.jsonl> [--compare other.jsonl]
/// [--format text|json]`. Paths and flags may come in any order; a
/// comparison takes its two files in command-line order, so `report
/// a.jsonl --compare b.jsonl` and `report --compare a.jsonl b.jsonl`
/// compare the same pair.
///
/// # Errors
///
/// Returns [`CliError::Report`] when a file cannot be read or parsed, and
/// [`CliError::Usage`] when no path is given.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (mut paths, mut timeline, mut metrics, mut rest) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mode = match arg.as_str() {
            "--compare" => &mut paths,
            "--timeline" => &mut timeline,
            "--metrics" => &mut metrics,
            flag if flag.starts_with("--") => {
                rest.push(arg.clone());
                rest.extend(args.next().cloned());
                continue;
            }
            _ => {
                paths.push(arg.clone());
                continue;
            }
        };
        let Some(path) = args.next() else {
            return Err(CliError::BadFlag(format!("{arg} needs a value")));
        };
        mode.push(path.clone());
    }
    let format = OutputFormat::from_flags(&parse_flags(&rest, &["format"])?)?;
    let usage = |why: &str| Err(CliError::Usage(format!("{USAGE}\n({why})")));
    match (paths.as_slice(), timeline.as_slice(), metrics.as_slice()) {
        ([], [], []) => Err(CliError::Usage(USAGE.to_string())),
        ([path], [], []) => report_one(path, format),
        ([a, b], [], []) => report_compare(a, b, format),
        (_, [], []) => usage("at most two files may be compared"),
        ([], [path], []) => report_timeline(path, format),
        ([], [], [path]) => report_metrics(path, format),
        _ => usage("--timeline and --metrics are separate modes, each given one file"),
    }
}

/// Everything one JSONL stream contains, in stream order.
struct Loaded {
    lines: Vec<RecordLine>,
    /// `(line number, reason)` pairs a newer writer could have produced —
    /// unknown `kind` or a schema version above ours. Counted and warned
    /// about instead of silently skipped.
    skipped: Vec<(usize, String)>,
}

impl Loaded {
    /// The stream's records of kind `R`, grouped by `key` in key order;
    /// each group keeps stream order.
    fn group<R: Record, K: Ord>(&self, key: impl Fn(&R) -> K) -> BTreeMap<K, Vec<&R>> {
        let mut groups: BTreeMap<K, Vec<&R>> = BTreeMap::new();
        for record in self.lines.iter().filter_map(R::of_line) {
            groups.entry(key(record)).or_default().push(record);
        }
        groups
    }

    /// One row per group of the stream's records of kind `R`.
    fn rows<R: Record, K: Ord, T>(
        &self,
        key: impl Fn(&R) -> K,
        new: impl Fn(&K, &[&R]) -> Option<T>,
    ) -> Vec<T> {
        rows_of(&self.group(key), new)
    }

    /// One row per distinct set-aside reason, ordered by first appearance —
    /// so a stream with 400 `version 10` lines and one `kind "galaxy"` line
    /// warns twice, not 401 times and not once ambiguously.
    fn skipped_rows(&self) -> Vec<SkippedRow> {
        let mut rows: Vec<SkippedRow> = Vec::new();
        for (line, reason) in &self.skipped {
            match rows.iter_mut().find(|r| &r.reason == reason) {
                Some(row) => row.lines += 1,
                None => rows.push(SkippedRow {
                    reason: reason.clone(),
                    lines: 1,
                    first_line: *line as u64,
                }),
            }
        }
        rows
    }
}

/// One row per group, in key order; a constructor may decline a group.
fn rows_of<K, G, T>(groups: &BTreeMap<K, Vec<G>>, new: impl Fn(&K, &[G]) -> Option<T>) -> Vec<T> {
    groups.iter().filter_map(|(key, group)| new(key, group)).collect()
}

/// Number of records across a grouping's groups.
fn record_count<K, R>(groups: &BTreeMap<K, Vec<&R>>) -> usize {
    groups.values().map(Vec::len).sum()
}

fn load(path: &str) -> Result<Loaded, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Report { path: path.to_string(), reason: e.to_string() })?;
    let parsed = from_jsonl_lenient(&text)
        .map_err(|reason| CliError::Report { path: path.to_string(), reason })?;
    let loaded = Loaded { lines: parsed.records, skipped: parsed.skipped };
    if loaded.lines.is_empty() {
        let reason = if loaded.skipped.is_empty() {
            "the file contains no records".to_string()
        } else {
            format!(
                "the file contains no readable records ({} line(s) are from a newer \
                 writer — upgrade ssle to read them)",
                loaded.skipped.len(),
            )
        };
        return Err(CliError::Report { path: path.to_string(), reason });
    }
    Ok(loaded)
}

/// The error of a `--timeline` or `--metrics` report on a stream without
/// records of that kind.
fn no_records(path: &str, kind: &str) -> CliError {
    let reason = format!(
        "the file contains no {kind} records; write one with `ssle simulate --{kind} <file>`"
    );
    CliError::Report { path: path.to_string(), reason }
}

fn trial_key(r: &RunRecord) -> GroupKey {
    let scheduler = r.scheduler.clone().unwrap_or_else(|| "uniform".to_string());
    (r.experiment.clone(), r.protocol.clone(), r.n, r.h, scheduler)
}

/// A closure keying records of type `R` by the named fields.
macro_rules! key {
    ($R:ty: $($f:ident),+) => {
        |r: &$R| ($(ToOwned::to_owned(&r.$f),)+)
    };
}

/// A line of report output, declared in the `rows!` table.
trait Row {
    /// The `kind` the row's JSON line carries, if it has one.
    const KIND: Option<&'static str>;
    /// Writes the row's fields in declared order.
    fn put_fields(&self, obj: &mut JsonObject);
}

/// Declares every report row. Each entry is `Struct = "kind" { fields }`
/// (`= "kind"` left out for a line without one), its fields in wire order,
/// each one of:
///
/// * `name: T,` — required (`String`, `u64`, `f64` or `bool`), or `null`
///   when `None` if `T` is an `Option`;
/// * `name: Option<T> = omit,` — left out of the line when `None`;
/// * `name: Option<R> = flatten,` — the fields of row `R`, nothing when
///   `None`;
/// * `name: (A, B, …) = key(a, b, …),` — the tuple's elements under the
///   names given, `_` skipping one;
/// * `name: S = fields(a, b, …),` — the named fields of the struct `S`;
/// * `name: T = text,` — never written: read by the text output only.
macro_rules! rows {
    (@kind) => {
        None
    };
    (@kind $kind:literal) => {
        Some($kind)
    };
    (@key $obj:ident _) => {};
    (@key $obj:ident $name:ident) => {
        JsonField::put($name, $obj, stringify!($name))
    };
    (@field $obj:ident $row:ident $f:ident) => {
        JsonField::put(&$row.$f, $obj, stringify!($f))
    };
    (@field $obj:ident $row:ident $f:ident omit) => {
        if let Some(value) = &$row.$f {
            JsonField::put(value, $obj, stringify!($f));
        }
    };
    (@field $obj:ident $row:ident $f:ident flatten) => {
        if let Some(part) = &$row.$f {
            part.put_fields($obj);
        }
    };
    (@field $obj:ident $row:ident $f:ident key($($name:tt),*)) => {{
        let ($($name,)*) = &$row.$f;
        $(rows!(@key $obj $name);)*
    }};
    (@field $obj:ident $row:ident $f:ident fields($($name:ident),*)) => {
        $(JsonField::put(&$row.$f.$name, $obj, stringify!($name));)*
    };
    (@field $obj:ident $row:ident $f:ident text) => {};
    ($($(#[$doc:meta])* $S:ident $(= $kind:literal)? {
        $($(#[$fdoc:meta])* $f:ident: $t:ty $(= $mode:ident $(($($args:tt)*))?)?,)*
    })*) => {$(
        $(#[$doc])*
        struct $S {
            $($(#[$fdoc])* $f: $t,)*
        }

        impl Row for $S {
            const KIND: Option<&'static str> = rows!(@kind $($kind)?);
            fn put_fields(&self, obj: &mut JsonObject) {
                let row = self;
                $(rows!(@field obj row $f $($mode $(($($args)*))?)?);)*
            }
        }
    )*};
}

rows! {
    /// One trial group.
    TrialRow {
        key: GroupKey = key(experiment, protocol, n, h, scheduler),
        trials: u64, exhausted: u64,
        /// The converged trials' mean stabilization parallel time and spread.
        mean_time: Option<f64>, spread: Option<TimeSpread> = flatten,
        wall_s: f64 = text, ips: Option<f64> = text,
        /// Chaos trials' mean availability and faults injected, together.
        mean_availability: Option<f64> = omit, faults_injected: Option<u64> = omit,
        mean_omission: Option<f64> = omit,
    }

    /// The spread of a trial group's converged stabilization times.
    TimeSpread {
        ci95_half: f64, p95: f64, p50: f64, min_time: f64, max_time: f64,
        p25: f64 = text, p75: f64 = text,
        /// ECDF tails `P[T ≥ mean]` and `P[T ≥ 2·mean]`.
        above_mean: [f64; 2] = text,
    }

    /// One fault group.
    FaultRow = "faults" {
        key: GroupKey = key(experiment, protocol, n, h, action),
        faults: u64, recovered: u64, mean_agents: f64,
        /// Present together, over the finite recovery times.
        mean_recovery_time: Option<f64>, p95_recovery_time: Option<f64> = omit,
        p50_recovery_time: Option<f64> = text, max_recovery_time: Option<f64> = text,
    }

    /// One frontier group; `protocol` is the workload.
    FrontierRow = "frontier" {
        key: CellKey = key(experiment, protocol, backend, n),
        runs: u64, converged: u64, ips: Option<f64>, mean_support: Option<f64>,
        wall_s: f64 = text,
    }

    /// One churn group.
    ChurnRow = "churn" {
        key: ChurnKey = key(experiment, protocol, backend, n, h, churn, _),
        byzantine: f64, trials: u64,
        mean_availability: f64, mean_ranked_availability: f64,
        mean_joins: f64, mean_leaves: f64, mean_replacements: f64, mean_byz_strikes: f64,
        faults: u64, recovered: u64,
        mean_recovery_time: Option<f64>, mean_first_ranked_time: Option<f64>,
        mean_final_n: f64 = text, wall_s: f64 = text, ips: Option<f64> = text,
    }

    /// One service-throughput group.
    ServiceRow = "service" {
        key: ServiceKey = key(experiment, protocol, backend, n, clients),
        rows: u64, requests: u64, mean_rps: f64, mean_p50_us: f64, mean_p99_us: f64,
    }

    /// One crash-recovery group.
    CrashRow = "crash" {
        key: CrashKey = key(experiment, protocol, backend, n, fsync),
        rows: u64, mean_recovery_ms: f64, max_lost_events: u64, replay_identical_rows: u64,
    }

    /// One served population's latest health row (rows are a time series).
    HealthRow = "health" {
        key: HealthKey = key(experiment, pop, protocol, backend, n),
        rows: u64,
        last: HealthRecord = fields(live, interactions, ranked, seq, lag, fsync, quarantines),
    }

    /// One wire command: stats rows are windows, so its latest row.
    ServerStatsRow = "server_stats" {
        key: (String, String) = key(experiment, cmd),
        rows: u64,
        last: ServerStatsRecord = fields(
            count, errors, rps, p50_us, p95_us, p99_us, mean_us, engine_us, fsync_us, busy,
            slow, journal_lag
        ),
        /// The latency histogram's sparkline; empty when it does not decode.
        latency_spark: String = text,
    }

    /// One wire command's flight-recorder traces.
    TracesRow = "traces" {
        cmd: String, rows: u64, mean_total_us: f64, worst_total_us: u64, errors: u64,
        /// The slowest trace (the last of equals).
        worst: TraceRecord = text,
    }

    /// One reason lines were set aside.
    SkippedRow = "skipped" { reason: String, lines: u64, first_line: u64, }

    /// One timeline cohort, for `--timeline` to render.
    TimelinesRow = "timelines" { key: CellKey = key(experiment, protocol, backend, n), trials: u64, }

    /// One metrics group, for `--metrics` to render.
    MetricsPresentRow = "metrics_present" {
        key: CellKey = key(experiment, protocol, backend, n), rows: u64,
    }

    /// One trial group of either compared file.
    CompareRow = "compare" {
        key: GroupKey = key(experiment, protocol, n, h, scheduler),
        mean_a: Option<f64>, trials_a: Option<u64> = omit,
        mean_b: Option<f64>, trials_b: Option<u64> = omit,
        speedup: Option<f64>,
    }

    /// One frontier group of either compared file.
    CompareFrontierRow = "compare_frontier" {
        key: CellKey = key(experiment, workload, backend, n),
        ips_a: Option<f64>, runs_a: Option<u64> = omit,
        ips_b: Option<f64>, runs_b: Option<u64> = omit,
        speedup: Option<f64>,
    }

    /// One trial's timeline.
    TimelineRow = "timeline" {
        key: TimelineKey = key(experiment, protocol, backend, n, trial),
        checkpoints: u64,
        final_parallel_time: f64, final_leaders: u64, final_ranks_ok: u64, leaders_spark: String,
        first_parallel_time: f64 = text, first_leaders: u64 = text, first_ranks_ok: u64 = text,
        ranks_spark: String = text,
        /// Sparkline, first and last value of the support, if every row has one.
        support: Option<(String, u64, u64)> = text,
    }

    /// The median leader trajectory of a cohort of two or more trials.
    TimelineMedianRow = "timeline_median" {
        key: CellKey = key(experiment, protocol, backend, n),
        trials: u64, median_leaders: String, leaders_spark: String,
        /// Parallel time of the last grid point.
        horizon: f64 = text,
    }

    /// One metrics group's engine cost profile: counters sum across rows,
    /// the occupancy gauges `support` and `raw_len` keep the maximum.
    MetricsRow = "metrics" {
        key: CellKey = key(experiment, protocol, backend, n),
        rows: u64, interactions: u64, ips: Option<f64>, rng_draws: u64, batches: u64,
        /// Share of pair draws resolved through the exact per-pair fallback
        /// rather than the lumped hypergeometric batch.
        fallback_rate: f64,
        /// `None` when the group never consulted the memo (e.g. agent rows).
        memo_hit_rate: Option<f64>,
        compactions: u64, sample_s: f64, transition_s: f64, probe_s: f64, observe_s: f64,
        batch: Option<BatchShape> = flatten,
        wall_s: f64 = text, draws_per_interaction: Option<f64> = text,
        batched_pairs: u64 = text, exact_steps: u64 = text,
        memo_hits: u64 = text, memo_lookups: u64 = text,
        support: u64 = text, raw_len: u64 = text, flushes: u64 = text,
    }

    /// The shape of a metrics group's merged batch-size histogram: its
    /// sparkline, modal bucket, and the modal share of all batches.
    BatchShape {
        batch_spark: String, batch_mode: String, mode_pct: f64 = text, batch_total: u64 = text,
    }
}

/// Writes each row as one JSON line: `"command":"report"`, the row's `kind`
/// if it has one, then its fields in declared order.
fn json_lines<R: Row>(rows: &[R], out: &mut String) {
    for row in rows {
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        if let Some(kind) = R::KIND {
            obj.field_str("kind", kind);
        }
        row.put_fields(&mut obj);
        out.push_str(&obj.finish());
        out.push('\n');
    }
}

/// Appends `rows` in `format` — through their kind's `text` function, or as
/// JSON lines — and returns how many rows that was.
fn render<R: Row>(
    rows: &[R],
    text: impl Fn(&[R], &mut String),
    format: OutputFormat,
    out: &mut String,
) -> usize {
    match format {
        OutputFormat::Text => text(rows, out),
        OutputFormat::Json => json_lines(rows, out),
    }
    rows.len()
}

/// Sum of a counter across a group, saturating instead of overflowing.
fn total<R>(group: &[&R], counter: impl Fn(&R) -> u64) -> u64 {
    group.iter().map(|r| counter(r)).fold(0, u64::saturating_add)
}

/// Mean of a per-record value across a non-empty group.
fn mean<R>(group: &[&R], value: impl Fn(&R) -> f64) -> f64 {
    group.iter().map(|r| value(r)).sum::<f64>() / group.len() as f64
}

/// Mean of an optional per-record value, `None` when no record carries it.
fn mean_present(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let present: Vec<f64> = values.flatten().collect();
    (!present.is_empty()).then(|| present.iter().sum::<f64>() / present.len() as f64)
}

/// Interactions per wall-clock second, when any wall time was recorded.
fn per_second(interactions: u64, wall_s: f64) -> Option<f64> {
    (wall_s > 0.0).then(|| interactions as f64 / wall_s)
}

/// `h` as the text output shows it: `-` for protocols without one.
fn h_text(h: &Option<u64>) -> String {
    h.map_or("-".to_string(), |h| h.to_string())
}

/// The `[k of N censored]` annotation the robustness bench prints next to
/// quantile summaries whose sample is right-censored; empty when nothing
/// was censored.
fn censored_note(censored: u64, total: u64) -> String {
    if censored > 0 {
        format!(" [{censored} of {total} censored]")
    } else {
        String::new()
    }
}

/// Rebuilds the statistical sample a group's trials represent, exactly as
/// the measuring run would have built it.
fn sample_of(group: &[&RunRecord]) -> ConvergenceSample {
    let (converged, exhausted): (Vec<&RunRecord>, _) =
        group.iter().partition(|r| r.outcome.is_converged());
    ConvergenceSample {
        parallel_times: converged.iter().map(|r| r.parallel_time()).collect(),
        exhausted_interactions: exhausted.iter().map(|r| r.outcome.interactions()).collect(),
    }
}

impl TrialRow {
    fn new(key: &GroupKey, group: &[&RunRecord]) -> Option<Self> {
        let sample = sample_of(group);
        let stats = TimeSummary::from_sample(&sample)
            .and_then(|t| Some((t.mean, TimeSpread::new(&t, &sample.parallel_times)?)));
        let wall_s = group.iter().map(|r| r.wall_s).sum();
        let mean_availability = mean_present(group.iter().map(|r| r.availability));
        Some(TrialRow {
            key: key.clone(),
            trials: group.len() as u64,
            exhausted: sample.exhausted_interactions.len() as u64,
            mean_time: stats.as_ref().map(|(mean, _)| *mean),
            spread: stats.map(|(_, spread)| spread),
            wall_s,
            ips: per_second(total(group, |r| r.outcome.interactions()), wall_s),
            mean_availability,
            faults_injected: mean_availability.map(|_| total(group, |r| r.faults.unwrap_or(0))),
            mean_omission: mean_present(group.iter().map(|r| r.omission)),
        })
    }
}

impl TimeSpread {
    /// The spread of converged `times`; `None` when they have no quantiles.
    fn new(t: &TimeSummary, times: &[f64]) -> Option<Self> {
        let q = |p: f64| quantile(times, p);
        let ecdf = Ecdf::new(times.to_vec())?;
        Some(TimeSpread {
            ci95_half: t.ci95_half,
            p95: t.p95,
            p50: q(0.5)?,
            min_time: q(0.0)?,
            max_time: q(1.0)?,
            p25: q(0.25)?,
            p75: q(0.75)?,
            above_mean: [ecdf.survival(t.mean), ecdf.survival(2.0 * t.mean)],
        })
    }
}

fn trial_text(rows: &[TrialRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, n, h, scheduler) = &r.key;
        let h = h_text(h);
        out.push_str(&format!(
            "\nexperiment={experiment} protocol={protocol} n={n} h={h} scheduler={scheduler}: \
             {} trial(s), {} exhausted\n",
            r.trials, r.exhausted
        ));
        let (Some(mean), Some(s)) = (r.mean_time, &r.spread) else {
            out.push_str(if r.exhausted == r.trials {
                "  no converged trials — no time statistics\n"
            } else {
                // With n = 0, interactions / n is not a finite time.
                "  no finite parallel times — no time statistics\n"
            });
            continue;
        };
        out.push_str(&format!(
            "  E[time] {mean:>10.1} ±95% {:>8.1} p95 {:>10.1}   (parallel time)\n",
            s.ci95_half, s.p95
        ));
        // Exhausted trials right-censor the sample: the quantiles are
        // computed from converged trials only, so flag them the way the
        // robustness bench does.
        let censored = censored_note(r.exhausted, r.trials);
        out.push_str(&format!(
            "  quantiles: min {:.1}  p25 {:.1}  p50 {:.1}  p75 {:.1}  max {:.1}{censored}\n",
            s.min_time, s.p25, s.p50, s.p75, s.max_time
        ));
        let [above, above_twice] = s.above_mean;
        out.push_str(&format!(
            "  ECDF: P[T ≥ mean] = {above:.2}, P[T ≥ 2·mean] = {above_twice:.2}\n"
        ));
        if let Some(ips) = r.ips {
            out.push_str(&format!("  wall: {:.2}s total, {ips:.2e} interactions/s\n", r.wall_s));
        }
        if let (Some(availability), Some(injected)) = (r.mean_availability, r.faults_injected) {
            out.push_str(&format!(
                "  chaos: {injected} fault(s) injected, mean availability {availability:.3}\n"
            ));
        }
        if let Some(omission) = r.mean_omission {
            out.push_str(&format!("  channel: mean omission rate {omission:.3}\n"));
        }
    }
}

impl FaultRow {
    fn new(key: &GroupKey, group: &[&FaultRecord]) -> Option<Self> {
        // With n = 0 a recovery has no finite parallel time: it counts as
        // recovered but joins no statistic.
        let times: Vec<f64> = group
            .iter()
            .filter_map(|f| f.recovery_parallel_time())
            .filter(|t| t.is_finite())
            .collect();
        Some(FaultRow {
            key: key.clone(),
            faults: group.len() as u64,
            recovered: group.iter().filter(|f| f.recovered_at.is_some()).count() as u64,
            mean_agents: mean(group, |f| f.agents as f64),
            mean_recovery_time: mean_present(times.iter().map(|&t| Some(t))),
            p95_recovery_time: quantile(&times, 0.95),
            p50_recovery_time: quantile(&times, 0.5),
            max_recovery_time: quantile(&times, 1.0),
        })
    }
}

fn fault_text(rows: &[FaultRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, n, h, action) = &r.key;
        let h = h_text(h);
        out.push_str(&format!(
            "\nfaults: experiment={experiment} protocol={protocol} n={n} h={h} action={action}: \
             {} fault(s), {} recovered, {:.1} agent(s)/fault\n",
            r.faults, r.recovered, r.mean_agents
        ));
        let (Some(mean), Some(p50), Some(p95), Some(max)) =
            (r.mean_recovery_time, r.p50_recovery_time, r.p95_recovery_time, r.max_recovery_time)
        else {
            out.push_str(if r.recovered == 0 {
                "  no recovered faults — no recovery statistics\n"
            } else {
                "  no finite recovery times — no recovery statistics\n"
            });
            continue;
        };
        // Unrecovered faults censor the recovery-time sample the same way
        // exhausted trials censor stabilization times.
        let censored = censored_note(r.faults - r.recovered, r.faults);
        out.push_str(&format!(
            "  E[recovery] {mean:.1} parallel time   p50 {p50:.1}  p95 {p95:.1}  max {max:.1}\
             {censored}\n"
        ));
    }
}

impl FrontierRow {
    fn new(key: &CellKey, group: &[&FrontierRecord]) -> Option<Self> {
        let wall_s = group.iter().map(|f| f.wall_s).sum();
        Some(FrontierRow {
            key: key.clone(),
            runs: group.len() as u64,
            converged: group.iter().filter(|f| f.outcome.is_converged()).count() as u64,
            ips: per_second(total(group, |f| f.outcome.interactions()), wall_s),
            mean_support: mean_present(group.iter().map(|f| f.support.map(|s| s as f64))),
            wall_s,
        })
    }
}

fn frontier_text(rows: &[FrontierRow], out: &mut String) {
    for r in rows {
        let (experiment, workload, backend, n) = &r.key;
        out.push_str(&format!(
            "\nfrontier: experiment={experiment} workload={workload} backend={backend} n={n}: \
             {} run(s), {} converged\n",
            r.runs, r.converged,
        ));
        if let Some(ips) = r.ips {
            out.push_str(&format!(
                "  throughput: {ips:.2e} interactions/s over {:.2}s\n",
                r.wall_s
            ));
        }
        if let Some(support) = r.mean_support {
            out.push_str(&format!("  support: mean {support:.1} distinct state(s)\n"));
        }
    }
}

impl ChurnRow {
    fn new(key: &ChurnKey, group: &[&ChurnRecord]) -> Option<Self> {
        let wall_s = group.iter().map(|c| c.wall_s).sum();
        Some(ChurnRow {
            key: key.clone(),
            byzantine: group.first()?.byzantine,
            trials: group.len() as u64,
            mean_availability: mean(group, |c| c.availability),
            mean_ranked_availability: mean(group, |c| c.ranked_availability),
            mean_joins: mean(group, |c| c.joins as f64),
            mean_leaves: mean(group, |c| c.leaves as f64),
            mean_replacements: mean(group, |c| c.replacements as f64),
            mean_byz_strikes: mean(group, |c| c.byz_strikes as f64),
            faults: total(group, |c| c.faults),
            recovered: total(group, |c| c.recovered),
            mean_recovery_time: mean_present(group.iter().map(|c| c.mean_recovery_pt)),
            mean_first_ranked_time: mean_present(group.iter().map(|c| c.first_ranked_pt)),
            mean_final_n: mean(group, |c| c.final_n as f64),
            wall_s,
            ips: per_second(total(group, |c| c.interactions), wall_s),
        })
    }
}

fn churn_text(rows: &[ChurnRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, backend, n, h, churn, byzantine) = &r.key;
        let h = h_text(h);
        out.push_str(&format!(
            "\nchurn: experiment={experiment} protocol={protocol} backend={backend} n={n} h={h} \
             churn={churn} byzantine={byzantine}: {} trial(s)\n",
            r.trials
        ));
        out.push_str(&format!(
            "  availability: leader {:.3}, fully ranked {:.3}\n",
            r.mean_availability, r.mean_ranked_availability
        ));
        out.push_str(&format!(
            "  membership: {:.1} join(s), {:.1} leave(s), {:.1} replacement(s), \
             {:.1} byz strike(s) per trial; final n {:.1}\n",
            r.mean_joins, r.mean_leaves, r.mean_replacements, r.mean_byz_strikes, r.mean_final_n,
        ));
        let recovery = r.mean_recovery_time.map_or("-".to_string(), |m| format!("{m:.1}"));
        out.push_str(&format!(
            "  recovery: {}/{} fault(s) recovered, E[recovery] {recovery} parallel time\n",
            r.recovered, r.faults,
        ));
        if let Some(ips) = r.ips {
            out.push_str(&format!("  wall: {:.2}s total, {ips:.2e} interactions/s\n", r.wall_s));
        }
    }
}

impl ServiceRow {
    fn new(key: &ServiceKey, group: &[&ServiceRecord]) -> Option<Self> {
        Some(ServiceRow {
            key: key.clone(),
            rows: group.len() as u64,
            requests: total(group, |s| s.requests),
            mean_rps: mean(group, |s| s.rps),
            mean_p50_us: mean(group, |s| s.p50_us),
            mean_p99_us: mean(group, |s| s.p99_us),
        })
    }
}

fn service_text(rows: &[ServiceRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, backend, n, clients) = &r.key;
        out.push_str(&format!(
            "\nservice: experiment={experiment} protocol={protocol} backend={backend} n={n} \
             clients={clients}: {} row(s), {} request(s)\n  throughput: {:.0} requests/s   \
             latency p50 {:.0}µs  p99 {:.0}µs\n",
            r.rows, r.requests, r.mean_rps, r.mean_p50_us, r.mean_p99_us,
        ));
    }
}

impl CrashRow {
    fn new(key: &CrashKey, group: &[&CrashRecord]) -> Option<Self> {
        Some(CrashRow {
            key: key.clone(),
            rows: group.len() as u64,
            mean_recovery_ms: mean(group, |c| c.recovery_ms),
            max_lost_events: group.iter().map(|c| c.lost_events).max().unwrap_or(0),
            replay_identical_rows: group.iter().filter(|c| c.replay_identical).count() as u64,
        })
    }
}

fn crash_text(rows: &[CrashRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, backend, n, fsync) = &r.key;
        out.push_str(&format!(
            "\ncrash: experiment={experiment} protocol={protocol} backend={backend} n={n} \
             fsync={fsync}: {} row(s)\n  recovery: mean {:.1} ms   lost events max {}   \
             replay identical {}/{}\n",
            r.rows, r.mean_recovery_ms, r.max_lost_events, r.replay_identical_rows, r.rows,
        ));
    }
}

impl HealthRow {
    fn new(key: &HealthKey, group: &[&HealthRecord]) -> Option<Self> {
        let last = (*group.last()?).clone();
        Some(HealthRow { key: key.clone(), rows: group.len() as u64, last })
    }
}

fn health_text(rows: &[HealthRow], out: &mut String) {
    for r in rows {
        let (experiment, pop, protocol, backend, n) = &r.key;
        let (l, fsync) = (&r.last, r.last.fsync.as_deref().unwrap_or("-"));
        out.push_str(&format!(
            "\nhealth: experiment={experiment} pop={pop} protocol={protocol} backend={backend} \
             n={n}: {} row(s)\n",
            r.rows
        ));
        out.push_str(&format!(
            "  last: live {}  interactions {}  ranked {}  seq {}  journal lag {}  fsync {fsync}  \
             quarantines {}\n",
            l.live, l.interactions, l.ranked, l.seq, l.lag, l.quarantines
        ));
    }
}

impl ServerStatsRow {
    fn new(key: &(String, String), group: &[&ServerStatsRecord]) -> Option<Self> {
        let last = (*group.last()?).clone();
        let latency_spark = decode_histogram(&last.hist)
            .map(|buckets| sparkline(&buckets.iter().map(|(_, c)| *c as f64).collect::<Vec<_>>()))
            .unwrap_or_default();
        Some(ServerStatsRow { key: key.clone(), rows: group.len() as u64, last, latency_spark })
    }
}

fn server_stats_text(rows: &[ServerStatsRow], out: &mut String) {
    let mut seen: Option<&str> = None;
    for r in rows {
        let ((experiment, cmd), s) = (&r.key, &r.last);
        if seen != Some(experiment.as_str()) {
            seen = Some(experiment);
            out.push_str(&format!(
                "\nserver stats: experiment={experiment}\n  {:<12} {:>8} {:>9} {:>9} {:>9} {:>9}  \
                 latency\n",
                "cmd", "count", "rps", "p50 µs", "p95 µs", "p99 µs",
            ));
        }
        out.push_str(&format!(
            "  {cmd:<12} {:>8} {:>9.1} {:>9.0} {:>9.0} {:>9.0}  {}\n",
            s.count, s.rps, s.p50_us, s.p95_us, s.p99_us, r.latency_spark
        ));
        out.push_str(&format!(
            "    spans µs: queue {:.1}  parse {:.1}  reg-lock {:.1}  pop-lock {:.1}  ",
            s.queue_us, s.parse_us, s.registry_lock_us, s.pop_lock_us
        ));
        out.push_str(&format!(
            "engine {:.1}  journal {:.1}  fsync {:.1}  write {:.1}\n",
            s.engine_us, s.journal_us, s.fsync_us, s.write_us
        ));
    }
}

impl TracesRow {
    fn new(cmd: &str, group: &[&TraceRecord]) -> Option<Self> {
        let worst = (*group.iter().max_by_key(|t| t.total_us)?).clone();
        Some(TracesRow {
            cmd: cmd.to_string(),
            rows: group.len() as u64,
            mean_total_us: mean(group, |t| t.total_us as f64),
            worst_total_us: worst.total_us,
            errors: group.iter().filter(|t| !t.ok).count() as u64,
            worst,
        })
    }
}

/// Traces are individual requests, not windows: summarized by command.
fn traces_text(rows: &[TracesRow], out: &mut String) {
    if rows.is_empty() {
        return;
    }
    let requests: u64 = rows.iter().map(|r| r.rows).sum();
    out.push_str(&format!("\ntraces: {requests} request(s) from the flight recorder\n"));
    for r in rows {
        let w = &r.worst;
        out.push_str(&format!(
            "  {:<12} {:>4} trace(s)  mean {:.0} µs  worst {} µs ",
            r.cmd, r.rows, r.mean_total_us, r.worst_total_us
        ));
        out.push_str(&format!(
            "(queue {} engine {} journal {} fsync {} write {})  errors {}\n",
            w.queue_us, w.engine_us, w.journal_us, w.fsync_us, w.write_us, r.errors
        ));
    }
}

fn skipped_text(rows: &[SkippedRow], out: &mut String) {
    for r in rows {
        out.push_str(&format!(
            "warning: {} line(s) with {} were set aside (first at line {}) — upgrade ssle to \
             read them\n",
            r.lines, r.reason, r.first_line,
        ));
    }
}

fn report_one(path: &str, format: OutputFormat) -> Result<String, CliError> {
    let loaded = load(path)?;
    let trials = loaded.rows(trial_key, TrialRow::new);
    let faults = loaded.rows(key!(FaultRecord: experiment, protocol, n, h, action), FaultRow::new);
    let frontier =
        loaded.rows(key!(FrontierRecord: experiment, protocol, backend, n), FrontierRow::new);
    let churn = loaded.rows(
        |c: &ChurnRecord| {
            let byzantine = format!("{}", c.byzantine);
            let (experiment, backend) = (c.experiment.clone(), c.backend.clone());
            (experiment, c.protocol.clone(), backend, c.n, c.h, c.churn.clone(), byzantine)
        },
        ChurnRow::new,
    );
    let service = loaded
        .rows(key!(ServiceRecord: experiment, protocol, backend, n, clients), ServiceRow::new);
    let crash =
        loaded.rows(key!(CrashRecord: experiment, protocol, backend, n, fsync), CrashRow::new);
    let health =
        loaded.rows(key!(HealthRecord: experiment, pop, protocol, backend, n), HealthRow::new);
    let server_stats = loaded.rows(key!(ServerStatsRecord: experiment, cmd), ServerStatsRow::new);
    let traces = loaded.rows(|t: &TraceRecord| t.cmd.clone(), |cmd, g| TracesRow::new(cmd, g));
    let skipped = loaded.skipped_rows();
    let timelines =
        loaded.rows(key!(TimelineRecord: experiment, protocol, backend, n), |key, rows| {
            let trials = rows.iter().map(|r| r.trial).collect::<BTreeSet<_>>().len() as u64;
            Some(TimelinesRow { key: key.clone(), trials })
        });
    let metrics = loaded
        .rows(key!(MetricsRecord: experiment, protocol, backend, n), |key, rows| {
            Some(MetricsPresentRow { key: key.clone(), rows: rows.len() as u64 })
        });

    let timelines_text = |rows: &[TimelinesRow], out: &mut String| {
        for TimelinesRow { key: (experiment, protocol, backend, n), trials } in rows {
            out.push_str(&format!(
                "\ntimelines: experiment={experiment} protocol={protocol} backend={backend} \
                 n={n}: {trials} trial(s) — render with `ssle report --timeline {path}`\n",
            ));
        }
    };
    let metrics_text = |rows: &[MetricsPresentRow], out: &mut String| {
        for MetricsPresentRow { key: (experiment, protocol, backend, n), rows } in rows {
            out.push_str(&format!(
                "\nmetrics: experiment={experiment} protocol={protocol} backend={backend} \
                 n={n}: {rows} row(s) — render with `ssle report --metrics {path}`\n",
            ));
        }
    };

    let mut body = String::new();
    let mut groups = render(&trials, trial_text, format, &mut body)
        + render(&faults, fault_text, format, &mut body)
        + render(&frontier, frontier_text, format, &mut body)
        + render(&churn, churn_text, format, &mut body)
        + render(&service, service_text, format, &mut body)
        + render(&crash, crash_text, format, &mut body)
        + render(&health, health_text, format, &mut body)
        + render(&server_stats, server_stats_text, format, &mut body)
        + render(&traces, traces_text, format, &mut body);
    if format == OutputFormat::Json {
        json_lines(&skipped, &mut body);
    }
    groups += render(&timelines, timelines_text, format, &mut body)
        + render(&metrics, metrics_text, format, &mut body);
    if format == OutputFormat::Json {
        return Ok(body);
    }
    let mut out = String::new();
    skipped_text(&skipped, &mut out);
    let records = loaded.lines.len();
    out.push_str(&format!("report: {path} — {records} records, {groups} group(s)\n{body}"));
    Ok(out)
}

impl CompareRow {
    fn new(key: &GroupKey, a: Option<&TrialRow>, b: Option<&TrialRow>) -> Self {
        // A side compares when it has a mean stabilization time.
        let side = |row: Option<&TrialRow>| row.and_then(|r| Some((r.mean_time?, r.trials)));
        let (a, b) = (side(a), side(b));
        CompareRow {
            key: key.clone(),
            mean_a: a.map(|(mean, _)| mean),
            trials_a: a.map(|(_, trials)| trials),
            mean_b: b.map(|(mean, _)| mean),
            trials_b: b.map(|(_, trials)| trials),
            speedup: a.zip(b).map(|((ma, _), (mb, _))| ma / mb),
        }
    }
}

/// One compared group's sides, each `None` when absent, and their speedup.
fn sides_text(a: Option<String>, b: Option<String>, speedup: Option<f64>, neither: &str) -> String {
    match (a, b, speedup) {
        (Some(a), Some(b), Some(speedup)) => format!("A {a}  B {b}  speedup {speedup:.2}\n"),
        (Some(a), None, _) => format!("A {a}  B absent\n"),
        (None, Some(b), _) => format!("A absent  B {b}\n"),
        _ => format!("{neither}\n"),
    }
}

fn compare_text(rows: &[CompareRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, n, h, scheduler) = &r.key;
        let h = h_text(h);
        out.push_str(&format!(
            "\nexperiment={experiment} protocol={protocol} n={n} h={h} scheduler={scheduler}: "
        ));
        let side = |mean: Option<f64>, trials| Some(format!("{:.1} ({} trial(s))", mean?, trials?));
        let (a, b) = (side(r.mean_a, r.trials_a), side(r.mean_b, r.trials_b));
        out.push_str(&sides_text(a, b, r.speedup, "no converged trials on either side"));
    }
}

impl CompareFrontierRow {
    fn new(key: &CellKey, a: Option<&FrontierRow>, b: Option<&FrontierRow>) -> Self {
        // A side compares when it accumulated any wall time.
        let side = |row: Option<&FrontierRow>| row.and_then(|r| Some((r.ips?, r.runs)));
        let (a, b) = (side(a), side(b));
        CompareFrontierRow {
            key: key.clone(),
            ips_a: a.map(|(ips, _)| ips),
            runs_a: a.map(|(_, runs)| runs),
            ips_b: b.map(|(ips, _)| ips),
            runs_b: b.map(|(_, runs)| runs),
            speedup: a.zip(b).map(|((ia, _), (ib, _))| ib / ia),
        }
    }
}

fn compare_frontier_text(rows: &[CompareFrontierRow], out: &mut String) {
    if rows.is_empty() {
        return;
    }
    out.push_str("\nfrontier throughput: speedup = ips_B / ips_A — above 1.00, B ran faster\n");
    for r in rows {
        let (experiment, workload, backend, n) = &r.key;
        out.push_str(&format!(
            "\nexperiment={experiment} workload={workload} backend={backend} n={n}: "
        ));
        let side = |ips: Option<f64>, runs| Some(format!("{:.2e} ips ({} run(s))", ips?, runs?));
        let (a, b) = (side(r.ips_a, r.runs_a), side(r.ips_b, r.runs_b));
        out.push_str(&sides_text(a, b, r.speedup, "no timed runs on either side"));
    }
}

/// One comparison row per key of either side's `groups`, from the two
/// sides' group rows built by `new`.
fn compared<K: Ord, R, T, C>(
    groups: [&BTreeMap<K, Vec<&R>>; 2],
    new: impl Fn(&K, &[&R]) -> Option<T>,
    compare: impl Fn(&K, Option<&T>, Option<&T>) -> C,
) -> Vec<C> {
    let [a, b] = groups.map(|g| {
        g.iter()
            .filter_map(|(key, group)| Some((key, new(key, group)?)))
            .collect::<BTreeMap<_, _>>()
    });
    let keys: BTreeSet<&K> = groups[0].keys().chain(groups[1].keys()).collect();
    keys.into_iter().map(|key| compare(key, a.get(key), b.get(key))).collect()
}

fn report_compare(path_a: &str, path_b: &str, format: OutputFormat) -> Result<String, CliError> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    let ga = a.group(trial_key);
    let gb = b.group(trial_key);
    let fa = a.group(key!(FrontierRecord: experiment, protocol, backend, n));
    let fb = b.group(key!(FrontierRecord: experiment, protocol, backend, n));
    // Either trial streams or frontier throughput streams are comparable; a
    // side with neither (e.g. faults only) has nothing to line up against.
    for (path, g, f) in [(path_a, &ga, &fa), (path_b, &gb, &fb)] {
        if g.is_empty() && f.is_empty() {
            return Err(CliError::Report {
                path: path.to_string(),
                reason: "no trial or frontier records to compare".to_string(),
            });
        }
    }
    let mut out = String::new();
    if format == OutputFormat::Text {
        let (records_a, records_b) = (record_count(&ga), record_count(&gb));
        out.push_str(&format!(
            "comparison: A = {path_a} ({records_a} trial record(s)), B = {path_b} ({records_b} \
             trial record(s))\nspeedup = E[time]_A / E[time]_B — above 1.00, B stabilized faster\n"
        ));
    }
    let trials = compared([&ga, &gb], TrialRow::new, CompareRow::new);
    render(&trials, compare_text, format, &mut out);
    let frontier = compared([&fa, &fb], FrontierRow::new, CompareFrontierRow::new);
    render(&frontier, compare_frontier_text, format, &mut out);
    Ok(out)
}

/// Grid resolution of the cross-trial median trajectory.
const MEDIAN_GRID_POINTS: usize = 64;

impl TimelineRow {
    fn new(key: &TimelineKey, rows: &[&TimelineRecord]) -> Option<Self> {
        let (first, last) = (rows.first()?, rows.last()?);
        let spark = |value: fn(&TimelineRecord) -> u64| {
            sparkline(&rows.iter().map(|r| value(r) as f64).collect::<Vec<_>>())
        };
        // `None` unless every checkpoint carries a support.
        let supports: Option<Vec<u64>> = rows.iter().map(|r| r.support).collect();
        let support = supports.and_then(|s| {
            let spark = sparkline(&s.iter().map(|&v| v as f64).collect::<Vec<_>>());
            Some((spark, *s.first()?, *s.last()?))
        });
        Some(TimelineRow {
            key: key.clone(),
            checkpoints: rows.len() as u64,
            final_parallel_time: last.parallel_time(),
            final_leaders: last.leaders,
            final_ranks_ok: last.ranks_ok,
            leaders_spark: spark(|r| r.leaders),
            first_parallel_time: first.parallel_time(),
            first_leaders: first.leaders,
            first_ranks_ok: first.ranks_ok,
            ranks_spark: spark(|r| r.ranks_ok),
            support,
        })
    }
}

fn timeline_text(rows: &[TimelineRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, backend, n, trial) = &r.key;
        out.push_str(&format!(
            "\nexperiment={experiment} protocol={protocol} backend={backend} n={n} \
             trial={trial}: {} checkpoint(s), parallel time {:.1} → {:.1}\n",
            r.checkpoints, r.first_parallel_time, r.final_parallel_time,
        ));
        let (leaders, first, last) = (&r.leaders_spark, r.first_leaders, r.final_leaders);
        out.push_str(&format!("  leaders  {leaders}  {first} → {last}\n"));
        let (ranks, first, last) = (&r.ranks_spark, r.first_ranks_ok, r.final_ranks_ok);
        out.push_str(&format!("  ranks_ok {ranks}  {first} → {last}\n"));
        if let Some((spark, first, last)) = &r.support {
            out.push_str(&format!("  support  {spark}  {first} → {last}\n"));
        }
    }
}

impl TimelineMedianRow {
    /// The cohort's median leader trajectory from each trial's `(parallel
    /// time, leaders)` series; `None` for fewer than two trials or an empty
    /// trajectory.
    fn new(key: &CellKey, series: &[Vec<(f64, f64)>]) -> Option<Self> {
        if series.len() < 2 {
            return None;
        }
        let med = median_trajectory(series, MEDIAN_GRID_POINTS);
        let &(horizon, _) = med.last()?;
        let values: Vec<f64> = med.iter().map(|&(_, v)| v).collect();
        let encoded: Vec<String> = med.iter().map(|(t, v)| format!("{t:.3}:{v:.3}")).collect();
        Some(TimelineMedianRow {
            key: key.clone(),
            trials: series.len() as u64,
            median_leaders: encoded.join(","),
            leaders_spark: sparkline(&values),
            horizon,
        })
    }
}

fn timeline_median_text(rows: &[TimelineMedianRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, backend, n) = &r.key;
        out.push_str(&format!(
            "\nmedian leader trajectory: experiment={experiment} protocol={protocol} \
             backend={backend} n={n} ({} trial(s), parallel time [0, {:.1}]):\n  {}\n",
            r.trials, r.horizon, r.leaders_spark,
        ));
    }
}

fn report_timeline(path: &str, format: OutputFormat) -> Result<String, CliError> {
    let loaded = load(path)?;
    let mut trials = loaded.group(key!(TimelineRecord: experiment, protocol, backend, n, trial));
    if trials.is_empty() {
        return Err(no_records(path, "timeline"));
    }
    // Streams written by different tools may interleave a trial's rows.
    for rows in trials.values_mut() {
        rows.sort_by_key(|r| r.interactions);
    }
    // Per cohort, each trial's leader count as a (parallel time, value)
    // step series — the input to the cross-trial median trajectory.
    let mut cohorts: BTreeMap<CellKey, Vec<Vec<(f64, f64)>>> = BTreeMap::new();
    for ((experiment, protocol, backend, n, _), rows) in &trials {
        cohorts
            .entry((experiment.clone(), protocol.clone(), backend.clone(), *n))
            .or_default()
            .push(rows.iter().map(|r| (r.parallel_time(), r.leaders as f64)).collect());
    }
    let mut out = String::new();
    if format == OutputFormat::Text {
        let (checkpoints, count) = (record_count(&trials), trials.len());
        out.push_str(&format!(
            "timeline report: {path} — {checkpoints} checkpoint row(s), {count} trial(s)\n"
        ));
    }
    render(&rows_of(&trials, TimelineRow::new), timeline_text, format, &mut out);
    render(&rows_of(&cohorts, TimelineMedianRow::new), timeline_median_text, format, &mut out);
    Ok(out)
}

/// Merges a group's encoded batch-size histograms into one bucket list,
/// ordered by bucket bound (the `inf` overflow bucket sorts last).
fn merged_batch_hist(group: &[&MetricsRecord]) -> Vec<(String, u64)> {
    let mut merged: BTreeMap<u64, (String, u64)> = BTreeMap::new();
    for m in group {
        let Some(buckets) = m.batch_hist.as_deref().and_then(decode_histogram) else {
            continue;
        };
        for (label, count) in buckets {
            let bound = label.parse::<u64>().unwrap_or(u64::MAX);
            let bucket = merged.entry(bound).or_insert_with(|| (label, 0));
            bucket.1 = bucket.1.saturating_add(count);
        }
    }
    merged.into_values().collect()
}

impl MetricsRow {
    fn new(key: &CellKey, group: &[&MetricsRecord]) -> Option<Self> {
        let interactions = total(group, |m| m.interactions);
        let wall_s = group.iter().map(|m| m.wall_s).sum();
        let rng_draws = total(group, |m| m.rng_draws);
        let batched_pairs = total(group, |m| m.batched_pairs);
        let exact_steps = total(group, |m| m.exact_steps);
        let pair_draws = exact_steps.saturating_add(batched_pairs);
        let memo_hits = total(group, |m| m.memo_hits);
        let memo_lookups = memo_hits.saturating_add(total(group, |m| m.memo_misses));
        let batch = summarize_buckets(&merged_batch_hist(group)).map(|s| BatchShape {
            batch_spark: sparkline(&s.counts.iter().map(|&c| c as f64).collect::<Vec<_>>()),
            batch_mode: s.mode_label,
            mode_pct: 100.0 * s.mode_count as f64 / s.total as f64,
            batch_total: s.total,
        });
        Some(MetricsRow {
            key: key.clone(),
            rows: group.len() as u64,
            interactions,
            ips: per_second(interactions, wall_s),
            rng_draws,
            batches: total(group, |m| m.batches),
            fallback_rate: exact_steps as f64 / pair_draws.max(1) as f64,
            memo_hit_rate: (memo_lookups > 0).then(|| memo_hits as f64 / memo_lookups as f64),
            compactions: total(group, |m| m.compactions),
            sample_s: group.iter().map(|m| m.sample_s).sum(),
            transition_s: group.iter().map(|m| m.transition_s).sum(),
            probe_s: group.iter().map(|m| m.probe_s).sum(),
            observe_s: group.iter().map(|m| m.observe_s).sum(),
            batch,
            wall_s,
            draws_per_interaction: (interactions > 0)
                .then(|| rng_draws as f64 / interactions as f64),
            batched_pairs,
            exact_steps,
            memo_hits,
            memo_lookups,
            support: group.iter().map(|m| m.support).max().unwrap_or(0),
            raw_len: group.iter().map(|m| m.raw_len).max().unwrap_or(0),
            flushes: total(group, |m| m.flushes),
        })
    }
}

fn metrics_text(rows: &[MetricsRow], out: &mut String) {
    for r in rows {
        let (experiment, protocol, backend, n) = &r.key;
        out.push_str(&format!(
            "\nexperiment={experiment} protocol={protocol} backend={backend} n={n}: {} row(s), \
             {} interactions\n",
            r.rows, r.interactions,
        ));
        if let Some(ips) = r.ips {
            out.push_str(&format!(
                "  throughput: {ips:.2e} interactions/s over {:.3}s wall\n",
                r.wall_s
            ));
        }
        if let Some(per) = r.draws_per_interaction {
            out.push_str(&format!("  rng draws: {} ({per:.2} per interaction)\n", r.rng_draws));
        }
        let sections = [r.sample_s, r.transition_s, r.probe_s, r.observe_s];
        if sections.iter().any(|&s| s > 0.0) {
            let [sample, transition, probe, observe] = sections;
            out.push_str(&format!(
                "  sections: sample {sample:.3}s  transition {transition:.3}s  probe {probe:.3}s  \
                 observe {observe:.3}s\n",
            ));
        }
        if r.batches > 0 || r.exact_steps > 0 {
            let pct = 100.0 * r.fallback_rate;
            out.push_str(&format!(
                "  exact fallback: {pct:.2}% of pair draws ({} exact, {} batched over \
                 {} batch(es))\n",
                r.exact_steps, r.batched_pairs, r.batches
            ));
        }
        if let Some(b) = &r.batch {
            out.push_str(&format!(
                "  batch sizes: {}  mode ≤{} ({:.0}% of {} batch(es))\n",
                b.batch_spark, b.batch_mode, b.mode_pct, b.batch_total,
            ));
        }
        if let Some(rate) = r.memo_hit_rate {
            // A support gauge of 0 means the run never compacted, so
            // occupancy was never sampled — omit the clause rather than
            // print a misleading `0/0`.
            let occupancy = if r.support > 0 {
                format!(", support {}/{} slot(s)", r.support, r.raw_len)
            } else {
                String::new()
            };
            let pct = 100.0 * rate;
            out.push_str(&format!(
                "  memo: {pct:.1}% hit rate ({} of {} lookups), {} compaction(s){occupancy}\n",
                r.memo_hits, r.memo_lookups, r.compactions
            ));
        }
        if r.flushes > 0 {
            out.push_str(&format!("  flushes: {}\n", r.flushes));
        }
    }
}

fn report_metrics(path: &str, format: OutputFormat) -> Result<String, CliError> {
    let loaded = load(path)?;
    let groups = loaded.group(key!(MetricsRecord: experiment, protocol, backend, n));
    if groups.is_empty() {
        return Err(no_records(path, "metrics"));
    }
    let rows = rows_of(&groups, MetricsRow::new);
    let mut out = String::new();
    if format == OutputFormat::Text {
        let (records, count) = (record_count(&groups), rows.len());
        out.push_str(&format!("metrics report: {path} — {records} row(s), {count} group(s)\n"));
    }
    render(&rows, metrics_text, format, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::record::to_jsonl;
    use ssle_bench::{measure_oss, measure_oss_trials, OssStart};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// The first line of `json` that `matches`.
    fn line_where(json: &str, matches: impl Fn(&str) -> bool) -> &str {
        json.lines().find(|l| matches(l)).unwrap_or_else(|| panic!("no such line in {json}"))
    }

    /// The number under `key` in the JSON line `line`.
    fn num(line: &str, key: &str) -> f64 {
        match population::record::parse_flat_json(line).unwrap().remove(key) {
            Some(population::record::JsonScalar::Num(m)) => m,
            other => panic!("{key}: unexpected {other:?} in {line}"),
        }
    }

    fn assert_close(m: f64, expected: f64) {
        assert!((m - expected).abs() < 1e-9, "{m} vs {expected}");
    }

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn missing_path_is_a_usage_error() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["--format", "json"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn unreadable_file_is_a_report_error() {
        match run(&args(&["/nonexistent/records.jsonl"])) {
            Err(CliError::Report { path, .. }) => assert!(path.contains("nonexistent")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_line_is_a_report_error_with_line_number() {
        let path = write_temp("ssle_report_bad.jsonl", "not json\n");
        match run(&args(&[&path])) {
            Err(CliError::Report { reason, .. }) => {
                assert!(reason.starts_with("line 1:"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Acceptance: feeding a table1-equivalent record stream through
    /// `ssle report` reproduces the summary statistics the text path
    /// computes from the same trials.
    #[test]
    fn report_round_trips_the_text_path_statistics() {
        let (n, trials, seed) = (16, 6, 3);
        let records: Vec<_> = measure_oss_trials(n, OssStart::Random, trials, seed, 1)
            .iter()
            .map(|t| t.to_record("table1", "oss", None, seed))
            .collect();
        let path = write_temp("ssle_report_roundtrip.jsonl", &to_jsonl(&records));

        let expected =
            TimeSummary::from_sample(&measure_oss(n, OssStart::Random, trials, seed)).unwrap();
        let out = run(&args(&[&path])).unwrap();
        let stats_line = format!(
            "  E[time] {:>10.1} ±95% {:>8.1} p95 {:>10.1}   (parallel time)",
            expected.mean, expected.ci95_half, expected.p95
        );
        assert!(out.contains(&stats_line), "expected {stats_line:?} in:\n{out}");
        assert!(out.contains("experiment=table1 protocol=oss n=16 h=-"), "{out}");
    }

    #[test]
    fn json_report_matches_the_recorded_sample() {
        let (n, trials, seed) = (16, 5, 7);
        let outcomes = measure_oss_trials(n, OssStart::Random, trials, seed, 1);
        let records: Vec<_> =
            outcomes.iter().map(|t| t.to_record("table1", "oss", None, seed)).collect();
        let path = write_temp("ssle_report_json.jsonl", &to_jsonl(&records));

        let out = run(&args(&[&path, "--format", "json"])).unwrap();
        let expected =
            TimeSummary::from_sample(&ConvergenceSample::from_trials(&outcomes)).unwrap();
        assert_close(num(out.trim(), "mean_time"), expected.mean);
    }

    #[test]
    fn groups_are_split_by_protocol_and_size() {
        let mk = |protocol: &str, n: u64, trial: u64| RunRecord {
            experiment: "x".to_string(),
            n,
            ..mk_sched(protocol, None, None, trial, 100 * n)
        };
        let records = vec![mk("a", 8, 0), mk("a", 8, 1), mk("a", 16, 0), mk("b", 8, 0)];
        let path = write_temp("ssle_report_groups.jsonl", &to_jsonl(&records));
        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("3 group(s)"), "{out}");
        assert!(out.contains("protocol=a n=8"), "{out}");
        assert!(out.contains("protocol=a n=16"), "{out}");
        assert!(out.contains("protocol=b n=8"), "{out}");
    }

    #[test]
    fn mixed_chaos_stream_reports_fault_groups_and_availability() {
        let mk_fault = |trial: u64, recovered_at: Option<u64>| FaultRecord {
            experiment: "recovery".to_string(),
            protocol: "oss".to_string(),
            n: 16,
            h: None,
            trial,
            seed: 1,
            action: "corrupt_random".to_string(),
            agents: 1,
            injected_at: 3200,
            recovered_at,
        };
        let trial = RunRecord {
            experiment: "recovery".to_string(),
            n: 16,
            wall_s: 0.01,
            availability: Some(0.75),
            faults: Some(1),
            ..mk_sched("oss", None, None, 0, 1600)
        };
        let text = format!(
            "{}\n{}\n{}\n",
            trial.to_json(),
            mk_fault(0, Some(3280)).to_json(),
            mk_fault(1, None).to_json()
        );
        let path = write_temp("ssle_report_chaos.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("3 records, 2 group(s)"), "{out}");
        assert!(out.contains("mean availability 0.750"), "{out}");
        assert!(out.contains("action=corrupt_random: 2 fault(s), 1 recovered"), "{out}");
        // (3280 − 3200) / 16 = 5 parallel time units.
        assert!(out.contains("E[recovery] 5.0"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let fault_line = line_where(&json, |l| l.contains("\"kind\":\"faults\""));
        assert_close(num(fault_line, "mean_recovery_time"), 5.0);
    }

    #[test]
    fn fault_only_stream_is_reportable() {
        let f = FaultRecord {
            experiment: "soak".to_string(),
            protocol: "ciw".to_string(),
            n: 8,
            h: None,
            trial: 0,
            seed: 2,
            action: "randomize".to_string(),
            agents: 8,
            injected_at: 100,
            recovered_at: None,
        };
        let path = write_temp("ssle_report_faultonly.jsonl", &format!("{}\n", f.to_json()));
        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("no recovered faults"), "{out}");
    }

    #[test]
    fn frontier_stream_reports_throughput_per_backend() {
        let mk = |backend: &str, trial: u64, ips: f64| FrontierRecord {
            experiment: "frontier".to_string(),
            protocol: "epidemic".to_string(),
            backend: backend.to_string(),
            n: 1_000_000,
            trial,
            seed: 1,
            outcome: population::RunOutcome::Converged { interactions: 10_000_000 },
            wall_s: 10_000_000.0 / ips,
            support: (backend == "counts").then_some(2),
            leaders: None,
        };
        let text = format!(
            "{}\n{}\n{}\n",
            mk("counts", 0, 2e8).to_json(),
            mk("counts", 1, 2e8).to_json(),
            mk("agents", 0, 2e7).to_json()
        );
        let path = write_temp("ssle_report_frontier.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("3 records, 2 group(s)"), "{out}");
        assert!(out.contains("workload=epidemic backend=agents n=1000000: 1 run(s)"), "{out}");
        assert!(out.contains("workload=epidemic backend=counts n=1000000: 2 run(s)"), "{out}");
        assert!(out.contains("support: mean 2.0"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let counts_line = line_where(&json, |l| {
            l.contains("\"kind\":\"frontier\"") && l.contains("\"backend\":\"counts\"")
        });
        let m = num(counts_line, "ips");
        assert!((m - 2e8).abs() / 2e8 < 1e-9, "{m}");
    }

    fn mk_sched(
        protocol: &str,
        scheduler: Option<&str>,
        omission: Option<f64>,
        trial: u64,
        interactions: u64,
    ) -> RunRecord {
        RunRecord {
            experiment: "robustness".to_string(),
            protocol: protocol.to_string(),
            n: 8,
            h: None,
            trial,
            seed: 1,
            outcome: population::RunOutcome::Converged { interactions },
            wall_s: 0.0,
            availability: None,
            faults: None,
            scheduler: scheduler.map(str::to_string),
            omission,
            starve_window: None,
        }
    }

    #[test]
    fn scheduler_metadata_splits_groups_and_reports_omission() {
        let records = vec![
            mk_sched("ciw", None, None, 0, 800),
            mk_sched("ciw", Some("zipf:1.0"), Some(0.2), 0, 1600),
            mk_sched("ciw", Some("zipf:1.0"), Some(0.2), 1, 1600),
        ];
        let path = write_temp("ssle_report_sched.jsonl", &to_jsonl(&records));
        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("2 group(s)"), "{out}");
        assert!(out.contains("scheduler=uniform"), "{out}");
        assert!(out.contains("scheduler=zipf:1.0"), "{out}");
        assert!(out.contains("mean omission rate 0.200"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let zipf_line = line_where(&json, |l| l.contains("\"scheduler\":\"zipf:1.0\""));
        assert_close(num(zipf_line, "mean_omission"), 0.2);
    }

    #[test]
    fn compare_reports_speedup_between_two_files() {
        // A stabilizes in 1600 interactions (200 parallel time at n=8),
        // B in 800 — B is 2× faster.
        let a = vec![mk_sched("ciw", None, None, 0, 1600), mk_sched("ciw", None, None, 1, 1600)];
        let b = vec![mk_sched("ciw", None, None, 0, 800), mk_sched("ciw", None, None, 1, 800)];
        let pa = write_temp("ssle_report_cmp_a.jsonl", &to_jsonl(&a));
        let pb = write_temp("ssle_report_cmp_b.jsonl", &to_jsonl(&b));

        for order in [vec!["--compare", &pa, &pb], vec![pa.as_str(), "--compare", pb.as_str()]] {
            let out = run(&args(&order)).unwrap();
            assert!(out.contains("speedup 2.00"), "{order:?}: {out}");
            assert!(out.contains("A 200.0 (2 trial(s))  B 100.0 (2 trial(s))"), "{out}");
        }

        let json = run(&args(&[&pa, "--compare", &pb, "--format", "json"])).unwrap();
        assert_close(num(json.trim(), "speedup"), 2.0);
    }

    #[test]
    fn compare_lists_one_sided_groups() {
        let a = vec![mk_sched("ciw", None, None, 0, 1600)];
        let b = vec![mk_sched("oss", None, None, 0, 800)];
        let pa = write_temp("ssle_report_cmp_onesided_a.jsonl", &to_jsonl(&a));
        let pb = write_temp("ssle_report_cmp_onesided_b.jsonl", &to_jsonl(&b));
        let out = run(&args(&[&pa, "--compare", &pb])).unwrap();
        assert!(out.contains("protocol=ciw"), "{out}");
        assert!(out.contains("B absent"), "{out}");
        assert!(out.contains("A absent"), "{out}");
    }

    #[test]
    fn compare_requires_a_value_and_at_most_two_files() {
        assert!(matches!(run(&args(&["a.jsonl", "--compare"])), Err(CliError::BadFlag(_))));
        assert!(matches!(
            run(&args(&["--compare", "a.jsonl", "b.jsonl", "--compare", "c.jsonl"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn compare_frontier_streams_reports_throughput_speedup() {
        let mk = |backend: &str, ips: f64| FrontierRecord {
            experiment: "frontier".to_string(),
            protocol: "epidemic".to_string(),
            backend: backend.to_string(),
            n: 1000,
            trial: 0,
            seed: 1,
            outcome: population::RunOutcome::Converged { interactions: 1_000_000 },
            wall_s: 1_000_000.0 / ips,
            support: None,
            leaders: None,
        };
        let pa = write_temp(
            "ssle_report_cmp_frontier_a.jsonl",
            &format!("{}\n", mk("counts", 1e8).to_json()),
        );
        let pb = write_temp(
            "ssle_report_cmp_frontier_b.jsonl",
            &format!("{}\n", mk("counts", 2e8).to_json()),
        );
        let out = run(&args(&[&pa, "--compare", &pb])).unwrap();
        assert!(out.contains("frontier throughput"), "{out}");
        assert!(out.contains("speedup 2.00"), "{out}");

        let json = run(&args(&[&pa, "--compare", &pb, "--format", "json"])).unwrap();
        let line = line_where(&json, |l| l.contains("\"kind\":\"compare_frontier\""));
        assert_close(num(line, "speedup"), 2.0);
    }

    #[test]
    fn censored_trials_are_annotated_on_the_quantile_line() {
        let mut converged = mk_sched("ciw", None, None, 0, 800);
        converged.trial = 0;
        let mut exhausted = mk_sched("ciw", None, None, 1, 999);
        exhausted.outcome = population::RunOutcome::Exhausted { interactions: 999 };
        let path = write_temp("ssle_report_censored.jsonl", &to_jsonl(&[converged, exhausted]));
        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("[1 of 2 censored]"), "{out}");
    }

    fn mk_timeline(trial: u64, interactions: u64, leaders: u64, ranks_ok: u64) -> TimelineRecord {
        TimelineRecord {
            experiment: "simulate".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 8,
            trial,
            seed: 1,
            interactions,
            leaders,
            ranks_ok,
            support: None,
            phases: None,
        }
    }

    #[test]
    fn timeline_mode_renders_per_trial_sparklines_and_a_median() {
        let rows: Vec<String> = [
            mk_timeline(0, 0, 8, 1),
            mk_timeline(0, 40, 3, 4),
            mk_timeline(0, 80, 1, 8),
            mk_timeline(1, 0, 6, 2),
            mk_timeline(1, 40, 2, 5),
            mk_timeline(1, 80, 1, 8),
        ]
        .iter()
        .map(|r| r.to_json())
        .collect();
        let path = write_temp("ssle_report_timeline.jsonl", &(rows.join("\n") + "\n"));
        let out = run(&args(&["--timeline", &path])).unwrap();
        assert!(out.contains("6 checkpoint row(s), 2 trial(s)"), "{out}");
        assert!(out.contains("trial=0: 3 checkpoint(s), parallel time 0.0 → 10.0"), "{out}");
        assert!(out.contains("leaders  █▃▁  8 → 1"), "{out}");
        assert!(out.contains("ranks_ok ▁▄█  1 → 8"), "{out}");
        assert!(out.contains("median leader trajectory"), "{out}");

        let json = run(&args(&["--timeline", &path, "--format", "json"])).unwrap();
        let median_line = line_where(&json, |l| l.contains("\"kind\":\"timeline_median\""));
        assert_close(num(median_line, "trials"), 2.0);
        assert!(json.contains("\"final_leaders\":1"), "{json}");
    }

    #[test]
    fn timeline_rows_are_mentioned_by_the_default_report() {
        let text = format!(
            "{}\n{}\n",
            mk_timeline(0, 0, 8, 1).to_json(),
            mk_timeline(0, 80, 1, 8).to_json()
        );
        let path = write_temp("ssle_report_timeline_mention.jsonl", &text);
        let out = run(&args(&[&path])).unwrap();
        assert!(
            out.contains(
                "timelines: experiment=simulate protocol=ciw backend=agents n=8: 1 trial(s)"
            ),
            "{out}"
        );
    }

    #[test]
    fn timeline_mode_rejects_streams_without_timelines() {
        let path = write_temp(
            "ssle_report_timeline_empty.jsonl",
            &to_jsonl(&[mk_sched("ciw", None, None, 0, 800)]),
        );
        match run(&args(&["--timeline", &path])) {
            Err(CliError::Report { reason, .. }) => {
                assert!(reason.contains("no timeline records"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Acceptance: simulate `--timeline` then report `--timeline` renders a
    /// leader-count sparkline that is monotone non-increasing after its
    /// peak. From the all-colliding start the peak is the first checkpoint
    /// (every agent is a leader), and the 8-level quantization absorbs the
    /// ±O(1) transient bumps CIW's mod-n rank wraparound can cause.
    #[test]
    fn simulated_ciw_timeline_sparkline_is_monotone_after_its_peak() {
        let path = std::env::temp_dir()
            .join(format!("ssle_report_timeline_accept_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        crate::commands::simulate::run(&args(&[
            "--protocol",
            "ciw",
            "--n",
            "64",
            "--seed",
            "9",
            "--start",
            "collision",
            "--timeline",
            &path_s,
        ]))
        .unwrap();
        let out = run(&args(&["--timeline", &path_s])).unwrap();
        std::fs::remove_file(&path).ok();
        let spark: Vec<usize> = out
            .lines()
            .find(|l| l.trim_start().starts_with("leaders"))
            .expect("leaders sparkline present")
            .chars()
            .filter_map(|c| crate::commands::BLOCKS.iter().position(|&b| b == c))
            .collect();
        assert!(spark.len() >= 2, "sparkline too short: {out}");
        let peak =
            spark.iter().enumerate().max_by_key(|&(_, v)| *v).map(|(i, _)| i).expect("non-empty");
        assert!(
            spark[peak..].windows(2).all(|w| w[0] >= w[1]),
            "leader sparkline not monotone non-increasing after its peak: {spark:?}\n{out}"
        );
        assert_eq!(*spark.last().unwrap(), 0, "converged run ends at the lowest level: {out}");
    }

    fn mk_metrics(trial: u64, interactions: u64) -> MetricsRecord {
        MetricsRecord {
            experiment: "simulate".to_string(),
            protocol: "ciw".to_string(),
            backend: "counts".to_string(),
            n: 64,
            trial: Some(trial),
            seed: 1,
            wall_s: 0.5,
            interactions,
            batches: 10,
            batched_pairs: interactions - interactions / 10,
            exact_steps: interactions / 10,
            rng_draws: 2 * interactions,
            memo_hits: interactions - 5,
            memo_misses: 5,
            compactions: 1,
            support: 64,
            raw_len: 128,
            flushes: 10,
            batch_hist: Some("8:2,64:7,inf:1".to_string()),
            sample_s: 0.1,
            transition_s: 0.3,
            probe_s: 0.05,
            observe_s: 0.0,
        }
    }

    #[test]
    fn metrics_mode_renders_fallback_memo_and_batch_histogram() {
        let text =
            format!("{}\n{}\n", mk_metrics(0, 1000).to_json(), mk_metrics(1, 1000).to_json());
        let path = write_temp("ssle_report_metrics.jsonl", &text);
        let out = run(&args(&["--metrics", &path])).unwrap();
        assert!(out.contains("2 row(s), 1 group(s)"), "{out}");
        assert!(out.contains("experiment=simulate protocol=ciw backend=counts n=64"), "{out}");
        // 2000 interactions over 1s of wall.
        assert!(out.contains("throughput: 2.00e3 interactions/s over 1.000s wall"), "{out}");
        assert!(out.contains("rng draws: 4000 (2.00 per interaction)"), "{out}");
        assert!(out.contains("sections: sample 0.200s  transition 0.600s"), "{out}");
        // 200 exact of 2000 pair draws.
        assert!(out.contains("exact fallback: 10.00% of pair draws (200 exact"), "{out}");
        // Buckets merge across the two rows: 4 + 14 + 2 = 20 batches.
        assert!(out.contains("batch sizes: ▂█▁  mode ≤64 (70% of 20 batch(es))"), "{out}");
        assert!(out.contains("memo: 99.5% hit rate (1990 of 2000 lookups)"), "{out}");
        assert!(out.contains("support 64/128 slot(s)"), "{out}");

        let json = run(&args(&["--metrics", &path, "--format", "json"])).unwrap();
        let line = line_where(&json, |l| l.contains("\"kind\":\"metrics\""));
        assert_close(num(line, "fallback_rate"), 0.1);
        assert_close(num(line, "memo_hit_rate"), 0.995);
        assert!(json.contains("\"batch_mode\":\"64\""), "{json}");
    }

    #[test]
    fn metrics_rows_are_mentioned_by_the_default_report() {
        let path = write_temp(
            "ssle_report_metrics_mention.jsonl",
            &format!("{}\n", mk_metrics(0, 500).to_json()),
        );
        let out = run(&args(&[&path])).unwrap();
        assert!(
            out.contains("metrics: experiment=simulate protocol=ciw backend=counts n=64: 1 row(s)"),
            "{out}"
        );
    }

    #[test]
    fn metrics_mode_rejects_streams_without_metrics() {
        let path = write_temp(
            "ssle_report_metrics_empty.jsonl",
            &to_jsonl(&[mk_sched("ciw", None, None, 0, 800)]),
        );
        match run(&args(&["--metrics", &path])) {
            Err(CliError::Report { reason, .. }) => {
                assert!(reason.contains("no metrics records"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Acceptance: `ssle simulate --backend counts --metrics` then `ssle
    /// report --metrics` renders the exact-fallback rate, the memo hit
    /// rate, and (for the batched loose workload) the batch-size
    /// histogram. The two runs are concatenated into one mixed v5 stream.
    #[test]
    fn simulated_counts_metrics_render_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let ciw = dir.join(format!("ssle_report_metrics_accept_ciw_{pid}.jsonl"));
        let loose = dir.join(format!("ssle_report_metrics_accept_loose_{pid}.jsonl"));
        let mixed = dir.join(format!("ssle_report_metrics_accept_{pid}.jsonl"));
        for (protocol, path) in [("ciw", &ciw), ("loose", &loose)] {
            crate::commands::simulate::run(&args(&[
                "--protocol",
                protocol,
                "--n",
                "64",
                "--seed",
                "9",
                "--backend",
                "counts",
                "--metrics",
                path.to_str().unwrap(),
            ]))
            .unwrap_or_else(|e| panic!("{protocol}: {e}"));
        }
        let text = format!(
            "{}{}",
            std::fs::read_to_string(&ciw).unwrap(),
            std::fs::read_to_string(&loose).unwrap()
        );
        std::fs::write(&mixed, text).unwrap();
        let out = run(&args(&["--metrics", mixed.to_str().unwrap()])).unwrap();
        for p in [&ciw, &loose, &mixed] {
            std::fs::remove_file(p).ok();
        }
        assert!(out.contains("2 row(s), 2 group(s)"), "{out}");
        assert!(out.contains("backend=counts"), "{out}");
        // The ranked CIW workload runs on the exact per-pair fallback and
        // resolves every interaction through the memo.
        assert!(out.contains("exact fallback: 100.00%"), "{out}");
        assert!(out.contains("% hit rate"), "{out}");
        // The loose workload runs the lumped batched loop.
        assert!(out.contains("batch sizes:"), "{out}");
    }

    #[test]
    fn exhausted_only_group_reports_no_statistics() {
        let r = RunRecord {
            experiment: "x".to_string(),
            outcome: population::RunOutcome::Exhausted { interactions: 999 },
            wall_s: 0.1,
            ..mk_sched("a", None, None, 0, 999)
        };
        let path = write_temp("ssle_report_exhausted.jsonl", &to_jsonl(&[r]));
        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("1 exhausted"), "{out}");
        assert!(out.contains("no converged trials"), "{out}");
    }

    fn mk_churn(trial: u64, availability: f64) -> ChurnRecord {
        ChurnRecord {
            experiment: "churn".to_string(),
            protocol: "oss".to_string(),
            backend: "agents".to_string(),
            n: 16,
            final_n: 18,
            h: None,
            trial,
            seed: 7,
            churn: "2.0".to_string(),
            byzantine: 0.05,
            joins: 3,
            leaves: 1,
            replacements: 4,
            byz_strikes: 9,
            faults: 8,
            availability,
            ranked_availability: availability / 2.0,
            recovered: 6,
            mean_recovery_pt: Some(4.0),
            first_ranked_pt: None,
            interactions: 32_000,
            parallel_time: 2000.0,
            wall_s: 0.1,
        }
    }

    /// Satellite: `kind = "churn"` rows group by `(spec, byzantine)` and
    /// report mean availability and membership traffic.
    #[test]
    fn churn_stream_reports_availability_and_membership() {
        let text = format!("{}\n{}\n", mk_churn(0, 0.8).to_json(), mk_churn(1, 0.6).to_json());
        let path = write_temp("ssle_report_churn.jsonl", &text);
        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("churn=2.0 byzantine=0.05: 2 trial(s)"), "{out}");
        assert!(out.contains("availability: leader 0.700"), "{out}");
        assert!(out.contains("3.0 join(s), 1.0 leave(s), 4.0 replacement(s)"), "{out}");
        assert!(out.contains("12/16 fault(s) recovered"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let line = line_where(&json, |l| l.contains("\"kind\":\"churn\""));
        assert_close(num(line, "mean_availability"), 0.7);
    }

    /// Satellite: rows a future writer could produce — an unknown `kind` or
    /// a higher schema version — are counted and warned about with **one
    /// aggregated warning per distinct reason**, not silently dropped, not
    /// fatal, and not one warning per line.
    #[test]
    fn future_rows_warn_once_per_distinct_reason() {
        let known = mk_churn(0, 0.8).to_json();
        // A fabricated v10 row (one schema version above ours) and two
        // same-version rows of an unknown kind.
        let v10 = "{\"v\":10,\"kind\":\"service\",\"experiment\":\"x\",\"rps\":1.0}";
        let quorum = "{\"v\":7,\"kind\":\"quorum\",\"experiment\":\"x\",\"weight\":0.5}";
        let text = format!("{known}\n{v10}\n{quorum}\n{quorum}\n");
        let path = write_temp("ssle_report_future.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("warning: 1 line(s) with version 10"), "{out}");
        assert!(out.contains("(first at line 2)"), "{out}");
        assert!(out.contains("warning: 2 line(s) with kind \"quorum\""), "{out}");
        assert!(out.contains("(first at line 3)"), "{out}");
        // Exactly one warning per distinct reason, not one per line.
        assert_eq!(out.matches("warning:").count(), 2, "{out}");
        assert!(out.contains("churn=2.0"), "known rows still reported: {out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let skipped: Vec<&str> =
            json.lines().filter(|l| l.contains("\"kind\":\"skipped\"")).collect();
        assert_eq!(skipped.len(), 2, "{json}");
        assert!(skipped[0].contains("\"reason\":\"version 10\""), "{json}");
        assert!(skipped[0].contains("\"lines\":1"), "{json}");
        assert!(skipped[1].contains("\"reason\":\"kind \\\"quorum\\\"\""), "{json}");
        assert!(skipped[1].contains("\"lines\":2"), "{json}");

        // A stream of only-future rows errors with the upgrade hint instead
        // of the generic "no records".
        let path = write_temp("ssle_report_future_only.jsonl", &format!("{v10}\n"));
        match run(&args(&[&path])) {
            Err(CliError::Report { reason, .. }) => {
                assert!(reason.contains("newer writer"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Tentpole: schema-v9 `server_stats` and `trace` rows render as the
    /// live-service latency table and the flight-recorder summary.
    #[test]
    fn server_stats_and_trace_streams_render() {
        let stats = ServerStatsRecord {
            experiment: "serve".to_string(),
            cmd: "step".to_string(),
            count: 100,
            errors: 1,
            rps: 50.0,
            p50_us: 120.0,
            p95_us: 900.0,
            p99_us: 2000.0,
            mean_us: 200.0,
            queue_us: 1.0,
            parse_us: 2.0,
            registry_lock_us: 0.5,
            pop_lock_us: 0.5,
            engine_us: 150.0,
            journal_us: 20.0,
            fsync_us: 10.0,
            write_us: 16.0,
            hist: "128:60,1024:35,inf:5".to_string(),
            window_s: 2.0,
            busy: 0,
            queue_depth: 0,
            slow: 1,
            journal_lag: 3,
        };
        let trace = TraceRecord {
            cmd: "step".to_string(),
            pop: "a".to_string(),
            id: "c1-0".to_string(),
            ok: true,
            total_us: 321,
            queue_us: 1,
            parse_us: 2,
            registry_lock_us: 0,
            pop_lock_us: 0,
            engine_us: 300,
            journal_us: 10,
            fsync_us: 5,
            write_us: 3,
        };
        let text = format!("{}\n{}\n", stats.to_json(), trace.to_json());
        let path = write_temp("ssle_report_server_stats.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("server stats: experiment=serve"), "{out}");
        assert!(out.contains("engine 150.0"), "{out}");
        assert!(out.contains("traces: 1 request(s)"), "{out}");
        assert!(out.contains("worst 321 µs"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        assert!(
            json.lines()
                .any(|l| l.contains("\"kind\":\"server_stats\"") && l.contains("\"p99_us\":2000")),
            "{json}"
        );
        assert!(
            json.lines()
                .any(|l| l.contains("\"kind\":\"traces\"") && l.contains("\"worst_total_us\":321")),
            "{json}"
        );
    }

    /// Tentpole ride-along: `kind = "service"` rows from the throughput
    /// bench group by `(n, clients)` and report rps and tail latency.
    #[test]
    fn service_stream_reports_throughput_and_latency() {
        let mk = |clients: u64, rps: f64| ServiceRecord {
            experiment: "service".to_string(),
            protocol: "oss".to_string(),
            backend: "counts".to_string(),
            n: 10_000,
            clients,
            requests: 4_000,
            rps,
            p50_us: 200.0,
            p99_us: 1_800.0,
            seed: 5,
            wall_s: 2.0,
        };
        let text = format!(
            "{}\n{}\n{}\n",
            mk(8, 900.0).to_json(),
            mk(8, 1100.0).to_json(),
            mk(2, 500.0).to_json()
        );
        let path = write_temp("ssle_report_service.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(out.contains("service: experiment=service protocol=oss backend=counts n=10000 clients=8: 2 row(s)"), "{out}");
        assert!(out.contains("throughput: 1000 requests/s"), "{out}");
        assert!(out.contains("p99 1800µs"), "{out}");
        assert!(out.contains("clients=2: 1 row(s)"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let line = line_where(&json, |l| {
            l.contains("\"kind\":\"service\"") && l.contains("\"clients\":8")
        });
        assert_close(num(line, "mean_rps"), 1000.0);
    }

    /// Tentpole ride-along: `kind = "crash"` rows from the crash-recovery
    /// bench group by fsync policy and report recovery time and the
    /// lost-event window.
    #[test]
    fn crash_stream_reports_recovery_and_lost_events() {
        let mk = |fsync: &str, recovery_ms: f64, lost: u64| CrashRecord {
            experiment: "crash".to_string(),
            protocol: "ciw".to_string(),
            backend: "counts".to_string(),
            n: 64,
            fsync: fsync.to_string(),
            kill_point: 0.5,
            events_applied: 40,
            events_recovered: 40 - lost,
            lost_events: lost,
            recovery_ms,
            replay_identical: true,
            seed: 7,
            wall_s: 1.0,
        };
        let text = format!(
            "{}\n{}\n{}\n",
            mk("always", 4.0, 0).to_json(),
            mk("always", 6.0, 0).to_json(),
            mk("every:16", 5.0, 3).to_json()
        );
        let path = write_temp("ssle_report_crash.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(
            out.contains(
                "crash: experiment=crash protocol=ciw backend=counts n=64 fsync=always: 2 row(s)"
            ),
            "{out}"
        );
        assert!(
            out.contains("recovery: mean 5.0 ms   lost events max 0   replay identical 2/2"),
            "{out}"
        );
        assert!(out.contains("fsync=every:16: 1 row(s)"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let line = line_where(&json, |l| {
            l.contains("\"kind\":\"crash\"") && l.contains("\"fsync\":\"every:16\"")
        });
        assert_close(num(line, "max_lost_events"), 3.0);
    }

    /// Tentpole ride-along: `kind = "health"` rows are a per-population
    /// time series; the report shows the latest row per population.
    #[test]
    fn health_stream_reports_the_latest_row() {
        let mk = |seq: u64, lag: u64| HealthRecord {
            experiment: "health".to_string(),
            pop: "alpha".to_string(),
            protocol: "oss".to_string(),
            backend: "agents".to_string(),
            n: 128,
            live: 126,
            interactions: 50_000,
            ranked: true,
            seq,
            snapshot_seq: seq - lag,
            lag,
            fsync: Some("always".to_string()),
            quarantines: 1,
        };
        let text = format!("{}\n{}\n", mk(10, 10).to_json(), mk(24, 2).to_json());
        let path = write_temp("ssle_report_health.jsonl", &text);

        let out = run(&args(&[&path])).unwrap();
        assert!(
            out.contains(
                "health: experiment=health pop=alpha protocol=oss backend=agents n=128: 2 row(s)"
            ),
            "{out}"
        );
        assert!(out.contains("seq 24  journal lag 2  fsync always  quarantines 1"), "{out}");

        let json = run(&args(&[&path, "--format", "json"])).unwrap();
        let line = line_where(&json, |l| l.contains("\"kind\":\"health\""));
        assert_close(num(line, "lag"), 2.0);
    }
}
