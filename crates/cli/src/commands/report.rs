//! `ssle report` — summarize a JSONL experiment record stream.
//!
//! Reads the per-trial [`RunRecord`]s a bench binary wrote (one JSON object
//! per line), groups them by `(experiment, protocol, n, h)`, and reports the
//! same statistics the text tables print — plus quantiles and ECDF tail
//! probabilities from the `analysis` crate. Because each group is rebuilt
//! into a [`ConvergenceSample`] and summarized by the bench crate's
//! [`TimeSummary`], the numbers match the text path exactly: re-analyzing a
//! recorded run reproduces the table that run printed.
//!
//! Mixed v2 streams from the chaos harness (`recovery_scaling`, `ssle
//! soak`) additionally carry `kind = "fault"` lines; those are grouped by
//! `(experiment, protocol, n, h, action)` and summarized as recovery-time
//! statistics, and trial groups that carry availability report its mean.
//!
//! v3 records additionally carry the scheduler spec and omission rate the
//! trial ran under; the scheduler joins the group key so that robustness
//! sweeps report one group per scheduling regime. `--compare a.jsonl
//! b.jsonl` reports, for every group present in both files, the ratio of
//! mean stabilization times (a speedup/slowdown table); streams of `kind =
//! "frontier"` throughput runs compare by interactions/second instead.
//!
//! v4 adds `kind = "timeline"` within-run trajectory rows (`ssle simulate
//! --timeline`); `--timeline <file.jsonl>` renders them as per-trial ASCII
//! sparklines plus a cross-trial median trajectory aligned on parallel
//! time.
//!
//! v5 adds `kind = "metrics"` engine-telemetry rows (`ssle simulate
//! --metrics`, `ssle soak --metrics`, the `perf_baseline` bench);
//! `--metrics <file.jsonl>` groups them by `(experiment, protocol, backend,
//! n)` and renders per-group cost profiles: throughput, hot-loop section
//! times, the batch-size histogram, the hypergeometric exact-fallback rate,
//! and the memoized-transition hit rate.

use std::collections::{BTreeMap, BTreeSet};

use analysis::{median_trajectory, quantile, summarize_buckets, Ecdf};
use population::metrics::decode_histogram;
use population::record::{
    from_jsonl_lenient, ChurnRecord, CrashRecord, FaultRecord, FrontierRecord, HealthRecord,
    JsonObject, MetricsRecord, Record, RecordLine, RunRecord, ServerStatsRecord, ServiceRecord,
    TimelineRecord, TraceRecord,
};
use population::ConvergenceSample;
use ssle_bench::TimeSummary;

use crate::commands::{parse_flags, OutputFormat};
use crate::error::CliError;

/// One `(experiment, protocol, n, h, scheduler)` group key, ordered for
/// stable output. Records without scheduler metadata (schema v1/v2) group
/// under `"uniform"`, the regime they in fact ran in.
type GroupKey = (String, String, u64, Option<u64>, String);

/// One fault group key: the trial key plus the fault action.
type FaultKey = (String, String, u64, Option<u64>, String);

/// One frontier group key: `(experiment, workload, backend, n)`.
type FrontierKey = (String, String, String, u64);

/// One timeline cohort (trials aggregated): `(experiment, protocol,
/// backend, n)`.
type TimelineCohort = (String, String, String, u64);

/// One metrics group key: `(experiment, protocol, backend, n)`.
type MetricsKey = (String, String, String, u64);

/// One service-throughput group key: `(experiment, protocol, backend, n,
/// clients)`.
type ServiceKey = (String, String, String, u64, u64);

/// One crash-recovery group key: `(experiment, protocol, backend, n,
/// fsync spec)`.
type CrashKey = (String, String, String, u64, String);

/// One health group key: `(experiment, pop, protocol, backend, n)`.
type HealthKey = (String, String, String, String, u64);

/// One server-stats group key: `(experiment, wire command)`.
type ServerStatsKey = (String, String);

/// One churn group key: `(experiment, protocol, backend, n, h, churn spec,
/// byzantine fraction rendered as text so the key stays totally ordered)`.
type ChurnKey = (String, String, String, u64, Option<u64>, String, String);

const USAGE: &str =
    "usage: ssle report <file.jsonl> [--compare other.jsonl] [--format text|json]\n\
                     \u{20}      ssle report --timeline <file.jsonl> [--format text|json]\n\
                     \u{20}      ssle report --metrics <file.jsonl> [--format text|json]";

use crate::commands::sparkline;

/// The `[k of N censored]` annotation the robustness bench prints next to
/// quantile summaries whose sample is right-censored; empty when nothing
/// was censored.
fn censored_note(censored: usize, total: usize) -> String {
    if censored > 0 {
        format!(" [{censored} of {total} censored]")
    } else {
        String::new()
    }
}

/// Runs the subcommand: `ssle report <file.jsonl> [--compare other.jsonl]
/// [--format text|json]`. Both argument orders work for a comparison:
/// `report a.jsonl --compare b.jsonl` and `report --compare a.jsonl
/// b.jsonl` compare the same pair, in command-line order.
///
/// # Errors
///
/// Returns [`CliError::Report`] when a file cannot be read or parsed, and
/// [`CliError::Usage`] when no path is given.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut paths: Vec<String> = Vec::new();
    let mut timeline_paths: Vec<String> = Vec::new();
    let mut metrics_paths: Vec<String> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--compare" || arg == "--timeline" || arg == "--metrics" {
            let Some(p) = args.get(i + 1) else {
                return Err(CliError::BadFlag(format!("{arg} needs a value")));
            };
            if arg == "--timeline" {
                timeline_paths.push(p.clone());
            } else if arg == "--metrics" {
                metrics_paths.push(p.clone());
            } else {
                paths.push(p.clone());
            }
            i += 2;
        } else if !arg.starts_with("--") && rest.is_empty() {
            paths.push(arg.clone());
            i += 1;
        } else {
            rest.push(arg.clone());
            i += 1;
        }
    }
    let flags = parse_flags(&rest, &["format"])?;
    let format = OutputFormat::from_flags(&flags)?;
    if !timeline_paths.is_empty() && !metrics_paths.is_empty() {
        return Err(CliError::Usage(format!(
            "{USAGE}\n(--timeline and --metrics are separate modes)"
        )));
    }
    if let [path] = timeline_paths.as_slice() {
        if !paths.is_empty() {
            return Err(CliError::Usage(format!(
                "{USAGE}\n(--timeline is its own mode and takes exactly one file)"
            )));
        }
        return report_timeline(path, format);
    }
    if timeline_paths.len() > 1 {
        return Err(CliError::Usage(format!("{USAGE}\n(--timeline may be given once)")));
    }
    if let [path] = metrics_paths.as_slice() {
        if !paths.is_empty() {
            return Err(CliError::Usage(format!(
                "{USAGE}\n(--metrics is its own mode and takes exactly one file)"
            )));
        }
        return report_metrics(path, format);
    }
    if metrics_paths.len() > 1 {
        return Err(CliError::Usage(format!("{USAGE}\n(--metrics may be given once)")));
    }
    match paths.as_slice() {
        [] => Err(CliError::Usage(USAGE.to_string())),
        [path] => report_one(path, format),
        [a, b] => report_compare(a, b, format),
        _ => Err(CliError::Usage(format!("{USAGE}\n(at most two files may be compared)"))),
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

    /// Distinct set-aside reasons with counts and the first offending line
    /// of each, ordered by first appearance — so a stream with 400
    /// `version 10` lines and one `kind "galaxy"` line warns twice, not 401
    /// times and not once ambiguously.
    fn skipped_reasons(&self) -> Vec<(String, usize, usize)> {
        let mut reasons: Vec<(String, usize, usize)> = Vec::new();
        for (line, reason) in &self.skipped {
            match reasons.iter_mut().find(|(r, _, _)| r == reason) {
                Some((_, count, _)) => *count += 1,
                None => reasons.push((reason.clone(), 1, *line)),
            }
        }
        reasons
    }

    /// One aggregated warning line per distinct set-aside reason, empty
    /// when every line parsed into a known kind.
    fn skipped_note(&self) -> String {
        self.skipped_reasons()
            .iter()
            .map(|(reason, count, first_line)| {
                format!(
                    "warning: {count} line(s) with {reason} were set aside \
                     (first at line {first_line}) — upgrade ssle to read them\n"
                )
            })
            .collect()
    }
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

/// Trial groups: `(experiment, protocol, n, h, scheduler)`.
fn trial_key(r: &RunRecord) -> GroupKey {
    let scheduler = r.scheduler.clone().unwrap_or_else(|| "uniform".to_string());
    (r.experiment.clone(), r.protocol.clone(), r.n, r.h, scheduler)
}

/// Frontier groups: `(experiment, workload, backend, n)`.
fn frontier_key(f: &FrontierRecord) -> FrontierKey {
    (f.experiment.clone(), f.protocol.clone(), f.backend.clone(), f.n)
}

/// Timeline cohorts: the trials of one `(experiment, protocol, backend, n)`
/// cell.
fn timeline_cohort(t: &TimelineRecord) -> TimelineCohort {
    (t.experiment.clone(), t.protocol.clone(), t.backend.clone(), t.n)
}

/// Distinct trials among a cohort's timeline rows.
fn trial_count(rows: &[&TimelineRecord]) -> u64 {
    rows.iter().map(|r| r.trial).collect::<BTreeSet<_>>().len() as u64
}

/// Metrics groups: `(experiment, protocol, backend, n)`.
fn metrics_key(m: &MetricsRecord) -> MetricsKey {
    (m.experiment.clone(), m.protocol.clone(), m.backend.clone(), m.n)
}

fn report_one(path: &str, format: OutputFormat) -> Result<String, CliError> {
    let loaded = load(path)?;
    let groups = loaded.group(trial_key);
    let fault_groups = loaded.group(|f: &FaultRecord| {
        (f.experiment.clone(), f.protocol.clone(), f.n, f.h, f.action.clone())
    });
    let frontier_groups = loaded.group(frontier_key);
    let timeline_cohorts = loaded.group(timeline_cohort);
    let metrics_groups = loaded.group(metrics_key);
    let churn_groups = loaded.group(|c: &ChurnRecord| {
        (
            c.experiment.clone(),
            c.protocol.clone(),
            c.backend.clone(),
            c.n,
            c.h,
            c.churn.clone(),
            format!("{}", c.byzantine),
        )
    });
    let service_groups = loaded.group(|s: &ServiceRecord| {
        (s.experiment.clone(), s.protocol.clone(), s.backend.clone(), s.n, s.clients)
    });
    let crash_groups = loaded.group(|c: &CrashRecord| {
        (c.experiment.clone(), c.protocol.clone(), c.backend.clone(), c.n, c.fsync.clone())
    });
    let health_groups = loaded.group(|h: &HealthRecord| {
        (h.experiment.clone(), h.pop.clone(), h.protocol.clone(), h.backend.clone(), h.n)
    });
    let server_stats_groups =
        loaded.group(|s: &ServerStatsRecord| (s.experiment.clone(), s.cmd.clone()));
    let trace_groups = loaded.group(|t: &TraceRecord| t.cmd.clone());
    let total = loaded.lines.len();
    match format {
        OutputFormat::Text => {
            let mut out = loaded.skipped_note();
            out.push_str(&render_text(path, total, &groups, &fault_groups, &frontier_groups));
            out.push_str(&render_churn_text(&churn_groups));
            out.push_str(&render_service_text(&service_groups));
            out.push_str(&render_crash_text(&crash_groups));
            out.push_str(&render_health_text(&health_groups));
            out.push_str(&render_server_stats_text(&server_stats_groups));
            out.push_str(&render_traces_text(&trace_groups));
            for ((experiment, protocol, backend, n), rows) in &timeline_cohorts {
                let trials = trial_count(rows);
                out.push_str(&format!(
                    "\ntimelines: experiment={experiment} protocol={protocol} backend={backend} \
                     n={n}: {trials} trial(s) — render with `ssle report --timeline {path}`\n",
                ));
            }
            for ((experiment, protocol, backend, n), rows) in &metrics_groups {
                out.push_str(&format!(
                    "\nmetrics: experiment={experiment} protocol={protocol} backend={backend} \
                     n={n}: {} row(s) — render with `ssle report --metrics {path}`\n",
                    rows.len(),
                ));
            }
            Ok(out)
        }
        OutputFormat::Json => {
            let mut out = render_json(&groups, &fault_groups, &frontier_groups);
            out.push_str(&render_churn_json(&churn_groups));
            out.push_str(&render_service_json(&service_groups));
            out.push_str(&render_crash_json(&crash_groups));
            out.push_str(&render_health_json(&health_groups));
            out.push_str(&render_server_stats_json(&server_stats_groups));
            out.push_str(&render_traces_json(&trace_groups));
            for (reason, count, first_line) in loaded.skipped_reasons() {
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "skipped");
                obj.field_str("reason", &reason);
                obj.field_u64("lines", count as u64);
                obj.field_u64("first_line", first_line as u64);
                out.push_str(&obj.finish());
                out.push('\n');
            }
            for ((experiment, protocol, backend, n), rows) in &timeline_cohorts {
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "timelines");
                obj.field_str("experiment", experiment);
                obj.field_str("protocol", protocol);
                obj.field_str("backend", backend);
                obj.field_u64("n", *n);
                obj.field_u64("trials", trial_count(rows));
                out.push_str(&obj.finish());
                out.push('\n');
            }
            for ((experiment, protocol, backend, n), rows) in &metrics_groups {
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "metrics_present");
                obj.field_str("experiment", experiment);
                obj.field_str("protocol", protocol);
                obj.field_str("backend", backend);
                obj.field_u64("n", *n);
                obj.field_u64("rows", rows.len() as u64);
                out.push_str(&obj.finish());
                out.push('\n');
            }
            Ok(out)
        }
    }
}

fn report_compare(path_a: &str, path_b: &str, format: OutputFormat) -> Result<String, CliError> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    let ga = a.group(trial_key);
    let gb = b.group(trial_key);
    let fa = a.group(frontier_key);
    let fb = b.group(frontier_key);
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
    let keys: BTreeSet<&GroupKey> = ga.keys().chain(gb.keys()).collect();
    let frontier_keys: BTreeSet<&FrontierKey> = fa.keys().chain(fb.keys()).collect();
    match format {
        OutputFormat::Text => {
            let mut out = format!(
                "comparison: A = {path_a} ({} trial record(s)), B = {path_b} ({} trial record(s))\n\
                 speedup = E[time]_A / E[time]_B — above 1.00, B stabilized faster\n",
                record_count(&ga),
                record_count(&gb),
            );
            for key in keys {
                let (experiment, protocol, n, h, scheduler) = key;
                let h_text = h.map_or("-".to_string(), |h| h.to_string());
                out.push_str(&format!(
                    "\nexperiment={experiment} protocol={protocol} n={n} h={h_text} \
                     scheduler={scheduler}: "
                ));
                match (mean_of(ga.get(key)), mean_of(gb.get(key))) {
                    (Some((ma, ta)), Some((mb, tb))) => out.push_str(&format!(
                        "A {ma:.1} ({ta} trial(s))  B {mb:.1} ({tb} trial(s))  \
                         speedup {:.2}\n",
                        ma / mb
                    )),
                    (Some((ma, ta)), None) => {
                        out.push_str(&format!("A {ma:.1} ({ta} trial(s))  B absent\n"))
                    }
                    (None, Some((mb, tb))) => {
                        out.push_str(&format!("A absent  B {mb:.1} ({tb} trial(s))\n"))
                    }
                    (None, None) => out.push_str("no converged trials on either side\n"),
                }
            }
            if !frontier_keys.is_empty() {
                out.push_str(
                    "\nfrontier throughput: speedup = ips_B / ips_A — above 1.00, B ran faster\n",
                );
                for key in frontier_keys {
                    let (experiment, workload, backend, n) = key;
                    out.push_str(&format!(
                        "\nexperiment={experiment} workload={workload} backend={backend} n={n}: "
                    ));
                    match (ips_of(fa.get(key)), ips_of(fb.get(key))) {
                        (Some((ia, ra)), Some((ib, rb))) => out.push_str(&format!(
                            "A {ia:.2e} ips ({ra} run(s))  B {ib:.2e} ips ({rb} run(s))  \
                             speedup {:.2}\n",
                            ib / ia
                        )),
                        (Some((ia, ra)), None) => {
                            out.push_str(&format!("A {ia:.2e} ips ({ra} run(s))  B absent\n"))
                        }
                        (None, Some((ib, rb))) => {
                            out.push_str(&format!("A absent  B {ib:.2e} ips ({rb} run(s))\n"))
                        }
                        (None, None) => out.push_str("no timed runs on either side\n"),
                    }
                }
            }
            Ok(out)
        }
        OutputFormat::Json => {
            let mut out = String::new();
            for key in keys {
                let (experiment, protocol, n, h, scheduler) = key;
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "compare");
                obj.field_str("experiment", experiment);
                obj.field_str("protocol", protocol);
                obj.field_u64("n", *n);
                match h {
                    Some(h) => obj.field_u64("h", *h),
                    None => obj.field_null("h"),
                };
                obj.field_str("scheduler", scheduler);
                let a = mean_of(ga.get(key));
                let b = mean_of(gb.get(key));
                match a {
                    Some((m, t)) => {
                        obj.field_f64("mean_a", m);
                        obj.field_u64("trials_a", t);
                    }
                    None => {
                        obj.field_null("mean_a");
                    }
                }
                match b {
                    Some((m, t)) => {
                        obj.field_f64("mean_b", m);
                        obj.field_u64("trials_b", t);
                    }
                    None => {
                        obj.field_null("mean_b");
                    }
                }
                match (a, b) {
                    (Some((ma, _)), Some((mb, _))) => {
                        obj.field_f64("speedup", ma / mb);
                    }
                    _ => {
                        obj.field_null("speedup");
                    }
                }
                out.push_str(&obj.finish());
                out.push('\n');
            }
            for key in frontier_keys {
                let (experiment, workload, backend, n) = key;
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "compare_frontier");
                obj.field_str("experiment", experiment);
                obj.field_str("workload", workload);
                obj.field_str("backend", backend);
                obj.field_u64("n", *n);
                let a = ips_of(fa.get(key));
                let b = ips_of(fb.get(key));
                match a {
                    Some((ips, runs)) => {
                        obj.field_f64("ips_a", ips);
                        obj.field_u64("runs_a", runs);
                    }
                    None => {
                        obj.field_null("ips_a");
                    }
                }
                match b {
                    Some((ips, runs)) => {
                        obj.field_f64("ips_b", ips);
                        obj.field_u64("runs_b", runs);
                    }
                    None => {
                        obj.field_null("ips_b");
                    }
                }
                match (a, b) {
                    (Some((ia, _)), Some((ib, _))) => {
                        obj.field_f64("speedup", ib / ia);
                    }
                    _ => {
                        obj.field_null("speedup");
                    }
                }
                out.push_str(&obj.finish());
                out.push('\n');
            }
            Ok(out)
        }
    }
}

/// Aggregate throughput (interactions per second) and run count of a
/// frontier group, when it exists and accumulated any wall time.
fn ips_of(group: Option<&Vec<&FrontierRecord>>) -> Option<(f64, u64)> {
    let group = group?;
    let wall: f64 = group.iter().map(|f| f.wall_s).sum();
    let interactions: u64 = group.iter().map(|f| f.outcome.interactions()).sum();
    (wall > 0.0).then(|| (interactions as f64 / wall, group.len() as u64))
}

/// Mean stabilization parallel time and trial count of a group, when the
/// group exists and has at least one converged trial.
fn mean_of(group: Option<&Vec<&RunRecord>>) -> Option<(f64, u64)> {
    let group = group?;
    let t = TimeSummary::from_sample(&sample_of(group))?;
    Some((t.mean, group.len() as u64))
}

fn report_timeline(path: &str, format: OutputFormat) -> Result<String, CliError> {
    let loaded = load(path)?;
    let mut trials = loaded.group(|t: &TimelineRecord| {
        (t.experiment.clone(), t.protocol.clone(), t.backend.clone(), t.n, t.trial)
    });
    if trials.is_empty() {
        return Err(CliError::Report {
            path: path.to_string(),
            reason: "the file contains no timeline records; write one with \
                     `ssle simulate --timeline <file>`"
                .to_string(),
        });
    }
    // Streams written by different tools may interleave a trial's rows.
    for rows in trials.values_mut() {
        rows.sort_by_key(|r| r.interactions);
    }
    // Per cohort, each trial's leader count as a (parallel time, value)
    // step series — the input to the cross-trial median trajectory.
    let mut cohorts: BTreeMap<TimelineCohort, Vec<Vec<(f64, f64)>>> = BTreeMap::new();
    for rows in trials.values() {
        cohorts
            .entry(timeline_cohort(rows[0]))
            .or_default()
            .push(rows.iter().map(|r| (r.parallel_time(), r.leaders as f64)).collect());
    }
    match format {
        OutputFormat::Text => {
            let mut out = format!(
                "timeline report: {path} — {} checkpoint row(s), {} trial(s)\n",
                record_count(&trials),
                trials.len(),
            );
            for ((experiment, protocol, backend, n, trial), rows) in &trials {
                let first = rows.first().expect("groups are non-empty");
                let last = rows.last().expect("groups are non-empty");
                out.push_str(&format!(
                    "\nexperiment={experiment} protocol={protocol} backend={backend} n={n} \
                     trial={trial}: {} checkpoint(s), parallel time {:.1} → {:.1}\n",
                    rows.len(),
                    first.parallel_time(),
                    last.parallel_time(),
                ));
                let leaders: Vec<f64> = rows.iter().map(|r| r.leaders as f64).collect();
                let ranks: Vec<f64> = rows.iter().map(|r| r.ranks_ok as f64).collect();
                out.push_str(&format!(
                    "  leaders  {}  {} → {}\n",
                    sparkline(&leaders),
                    first.leaders,
                    last.leaders
                ));
                out.push_str(&format!(
                    "  ranks_ok {}  {} → {}\n",
                    sparkline(&ranks),
                    first.ranks_ok,
                    last.ranks_ok
                ));
                let supports: Vec<f64> =
                    rows.iter().filter_map(|r| r.support.map(|s| s as f64)).collect();
                if supports.len() == rows.len() {
                    out.push_str(&format!(
                        "  support  {}  {} → {}\n",
                        sparkline(&supports),
                        supports[0],
                        supports[supports.len() - 1]
                    ));
                }
            }
            for ((experiment, protocol, backend, n), series) in &cohorts {
                if series.len() < 2 {
                    continue;
                }
                let med = median_trajectory(series, MEDIAN_GRID_POINTS);
                if med.is_empty() {
                    continue;
                }
                let values: Vec<f64> = med.iter().map(|&(_, v)| v).collect();
                out.push_str(&format!(
                    "\nmedian leader trajectory: experiment={experiment} protocol={protocol} \
                     backend={backend} n={n} ({} trial(s), parallel time [0, {:.1}]):\n  {}\n",
                    series.len(),
                    med.last().expect("non-empty").0,
                    sparkline(&values),
                ));
            }
            Ok(out)
        }
        OutputFormat::Json => {
            let mut out = String::new();
            for ((experiment, protocol, backend, n, trial), rows) in &trials {
                let last = rows.last().expect("groups are non-empty");
                let leaders: Vec<f64> = rows.iter().map(|r| r.leaders as f64).collect();
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "timeline");
                obj.field_str("experiment", experiment);
                obj.field_str("protocol", protocol);
                obj.field_str("backend", backend);
                obj.field_u64("n", *n);
                obj.field_u64("trial", *trial);
                obj.field_u64("checkpoints", rows.len() as u64);
                obj.field_f64("final_parallel_time", last.parallel_time());
                obj.field_u64("final_leaders", last.leaders);
                obj.field_u64("final_ranks_ok", last.ranks_ok);
                obj.field_str("leaders_spark", &sparkline(&leaders));
                out.push_str(&obj.finish());
                out.push('\n');
            }
            for ((experiment, protocol, backend, n), series) in &cohorts {
                if series.len() < 2 {
                    continue;
                }
                let med = median_trajectory(series, MEDIAN_GRID_POINTS);
                if med.is_empty() {
                    continue;
                }
                let values: Vec<f64> = med.iter().map(|&(_, v)| v).collect();
                let encoded: String =
                    med.iter().map(|(t, v)| format!("{t:.3}:{v:.3}")).collect::<Vec<_>>().join(",");
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "timeline_median");
                obj.field_str("experiment", experiment);
                obj.field_str("protocol", protocol);
                obj.field_str("backend", backend);
                obj.field_u64("n", *n);
                obj.field_u64("trials", series.len() as u64);
                obj.field_str("median_leaders", &encoded);
                obj.field_str("leaders_spark", &sparkline(&values));
                out.push_str(&obj.finish());
                out.push('\n');
            }
            Ok(out)
        }
    }
}

/// Grid resolution of the cross-trial median trajectory.
const MEDIAN_GRID_POINTS: usize = 64;

/// Mean of an optional per-trial statistic, `None` when no trial carries it.
fn mean_present(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let present: Vec<f64> = values.flatten().collect();
    (!present.is_empty()).then(|| present.iter().sum::<f64>() / present.len() as f64)
}

fn render_churn_text(groups: &BTreeMap<ChurnKey, Vec<&ChurnRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, protocol, backend, n, h, churn, byzantine), group) in groups {
        let h_text = h.map_or("-".to_string(), |h| h.to_string());
        let trials = group.len() as f64;
        out.push_str(&format!(
            "\nchurn: experiment={experiment} protocol={protocol} backend={backend} n={n} \
             h={h_text} churn={churn} byzantine={byzantine}: {} trial(s)\n",
            group.len(),
        ));
        let avail: f64 = group.iter().map(|c| c.availability).sum::<f64>() / trials;
        let ranked: f64 = group.iter().map(|c| c.ranked_availability).sum::<f64>() / trials;
        out.push_str(&format!("  availability: leader {avail:.3}, fully ranked {ranked:.3}\n"));
        out.push_str(&format!(
            "  membership: {:.1} join(s), {:.1} leave(s), {:.1} replacement(s), \
             {:.1} byz strike(s) per trial; final n {:.1}\n",
            group.iter().map(|c| c.joins).sum::<u64>() as f64 / trials,
            group.iter().map(|c| c.leaves).sum::<u64>() as f64 / trials,
            group.iter().map(|c| c.replacements).sum::<u64>() as f64 / trials,
            group.iter().map(|c| c.byz_strikes).sum::<u64>() as f64 / trials,
            group.iter().map(|c| c.final_n).sum::<u64>() as f64 / trials,
        ));
        let faults: u64 = group.iter().map(|c| c.faults).sum();
        let recovered: u64 = group.iter().map(|c| c.recovered).sum();
        let mean_rec = mean_present(group.iter().map(|c| c.mean_recovery_pt))
            .map_or("-".to_string(), |m| format!("{m:.1}"));
        out.push_str(&format!(
            "  recovery: {recovered}/{faults} fault(s) recovered, E[recovery] {mean_rec} \
             parallel time\n",
        ));
        let wall: f64 = group.iter().map(|c| c.wall_s).sum();
        let interactions: u64 = group.iter().map(|c| c.interactions).sum();
        if wall > 0.0 {
            out.push_str(&format!(
                "  wall: {wall:.2}s total, {:.2e} interactions/s\n",
                interactions as f64 / wall,
            ));
        }
    }
    out
}

fn render_churn_json(groups: &BTreeMap<ChurnKey, Vec<&ChurnRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, protocol, backend, n, h, churn, _), group) in groups {
        let trials = group.len() as f64;
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "churn");
        obj.field_str("experiment", experiment);
        obj.field_str("protocol", protocol);
        obj.field_str("backend", backend);
        obj.field_u64("n", *n);
        match h {
            Some(h) => obj.field_u64("h", *h),
            None => obj.field_null("h"),
        };
        obj.field_str("churn", churn);
        obj.field_f64("byzantine", group[0].byzantine);
        obj.field_u64("trials", group.len() as u64);
        obj.field_f64(
            "mean_availability",
            group.iter().map(|c| c.availability).sum::<f64>() / trials,
        );
        obj.field_f64(
            "mean_ranked_availability",
            group.iter().map(|c| c.ranked_availability).sum::<f64>() / trials,
        );
        obj.field_f64("mean_joins", group.iter().map(|c| c.joins).sum::<u64>() as f64 / trials);
        obj.field_f64("mean_leaves", group.iter().map(|c| c.leaves).sum::<u64>() as f64 / trials);
        obj.field_f64(
            "mean_replacements",
            group.iter().map(|c| c.replacements).sum::<u64>() as f64 / trials,
        );
        obj.field_f64(
            "mean_byz_strikes",
            group.iter().map(|c| c.byz_strikes).sum::<u64>() as f64 / trials,
        );
        obj.field_u64("faults", group.iter().map(|c| c.faults).sum());
        obj.field_u64("recovered", group.iter().map(|c| c.recovered).sum());
        match mean_present(group.iter().map(|c| c.mean_recovery_pt)) {
            Some(m) => obj.field_f64("mean_recovery_time", m),
            None => obj.field_null("mean_recovery_time"),
        };
        match mean_present(group.iter().map(|c| c.first_ranked_pt)) {
            Some(m) => obj.field_f64("mean_first_ranked_time", m),
            None => obj.field_null("mean_first_ranked_time"),
        };
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

fn render_service_text(groups: &BTreeMap<ServiceKey, Vec<&ServiceRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, protocol, backend, n, clients), group) in groups {
        let rows = group.len() as f64;
        let requests: u64 = group.iter().map(|s| s.requests).sum();
        out.push_str(&format!(
            "\nservice: experiment={experiment} protocol={protocol} backend={backend} n={n} \
             clients={clients}: {} row(s), {requests} request(s)\n",
            group.len(),
        ));
        out.push_str(&format!(
            "  throughput: {:.0} requests/s   latency p50 {:.0}µs  p99 {:.0}µs\n",
            group.iter().map(|s| s.rps).sum::<f64>() / rows,
            group.iter().map(|s| s.p50_us).sum::<f64>() / rows,
            group.iter().map(|s| s.p99_us).sum::<f64>() / rows,
        ));
    }
    out
}

fn render_service_json(groups: &BTreeMap<ServiceKey, Vec<&ServiceRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, protocol, backend, n, clients), group) in groups {
        let rows = group.len() as f64;
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "service");
        obj.field_str("experiment", experiment);
        obj.field_str("protocol", protocol);
        obj.field_str("backend", backend);
        obj.field_u64("n", *n);
        obj.field_u64("clients", *clients);
        obj.field_u64("rows", group.len() as u64);
        obj.field_u64("requests", group.iter().map(|s| s.requests).sum());
        obj.field_f64("mean_rps", group.iter().map(|s| s.rps).sum::<f64>() / rows);
        obj.field_f64("mean_p50_us", group.iter().map(|s| s.p50_us).sum::<f64>() / rows);
        obj.field_f64("mean_p99_us", group.iter().map(|s| s.p99_us).sum::<f64>() / rows);
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

fn render_crash_text(groups: &BTreeMap<CrashKey, Vec<&CrashRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, protocol, backend, n, fsync), group) in groups {
        let rows = group.len() as f64;
        let identical = group.iter().filter(|c| c.replay_identical).count();
        out.push_str(&format!(
            "\ncrash: experiment={experiment} protocol={protocol} backend={backend} n={n} \
             fsync={fsync}: {} row(s)\n",
            group.len(),
        ));
        out.push_str(&format!(
            "  recovery: mean {:.1} ms   lost events max {}   replay identical {identical}/{}\n",
            group.iter().map(|c| c.recovery_ms).sum::<f64>() / rows,
            group.iter().map(|c| c.lost_events).max().unwrap_or(0),
            group.len(),
        ));
    }
    out
}

fn render_crash_json(groups: &BTreeMap<CrashKey, Vec<&CrashRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, protocol, backend, n, fsync), group) in groups {
        let rows = group.len() as f64;
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "crash");
        obj.field_str("experiment", experiment);
        obj.field_str("protocol", protocol);
        obj.field_str("backend", backend);
        obj.field_u64("n", *n);
        obj.field_str("fsync", fsync);
        obj.field_u64("rows", group.len() as u64);
        obj.field_f64("mean_recovery_ms", group.iter().map(|c| c.recovery_ms).sum::<f64>() / rows);
        obj.field_u64("max_lost_events", group.iter().map(|c| c.lost_events).max().unwrap_or(0));
        obj.field_u64(
            "replay_identical_rows",
            group.iter().filter(|c| c.replay_identical).count() as u64,
        );
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

fn render_health_text(groups: &BTreeMap<HealthKey, Vec<&HealthRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, pop, protocol, backend, n), group) in groups {
        // Health rows are a time series; the last one is the current truth.
        let Some(last) = group.last() else { continue };
        out.push_str(&format!(
            "\nhealth: experiment={experiment} pop={pop} protocol={protocol} backend={backend} \
             n={n}: {} row(s)\n",
            group.len(),
        ));
        out.push_str(&format!(
            "  last: live {}  interactions {}  ranked {}  seq {}  journal lag {}  fsync {}  \
             quarantines {}\n",
            last.live,
            last.interactions,
            last.ranked,
            last.seq,
            last.lag,
            last.fsync.as_deref().unwrap_or("-"),
            last.quarantines,
        ));
    }
    out
}

fn render_health_json(groups: &BTreeMap<HealthKey, Vec<&HealthRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, pop, protocol, backend, n), group) in groups {
        let Some(last) = group.last() else { continue };
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "health");
        obj.field_str("experiment", experiment);
        obj.field_str("pop", pop);
        obj.field_str("protocol", protocol);
        obj.field_str("backend", backend);
        obj.field_u64("n", *n);
        obj.field_u64("rows", group.len() as u64);
        obj.field_u64("live", last.live);
        obj.field_u64("interactions", last.interactions);
        obj.field_bool("ranked", last.ranked);
        obj.field_u64("seq", last.seq);
        obj.field_u64("lag", last.lag);
        match &last.fsync {
            Some(policy) => obj.field_str("fsync", policy),
            None => obj.field_null("fsync"),
        };
        obj.field_u64("quarantines", last.quarantines);
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

fn render_server_stats_text(groups: &BTreeMap<ServerStatsKey, Vec<&ServerStatsRecord>>) -> String {
    let mut out = String::new();
    let mut seen_experiment: Option<&str> = None;
    for ((experiment, cmd), group) in groups {
        // Stats rows are windows; the last row per command is current.
        let Some(last) = group.last() else { continue };
        if seen_experiment != Some(experiment.as_str()) {
            seen_experiment = Some(experiment);
            out.push_str(&format!(
                "\nserver stats: experiment={experiment}\n  {:<12} {:>8} {:>9} {:>9} {:>9} {:>9}  \
                 latency\n",
                "cmd", "count", "rps", "p50 µs", "p95 µs", "p99 µs",
            ));
        }
        let spark = decode_histogram(&last.hist)
            .map(|buckets| sparkline(&buckets.iter().map(|(_, c)| *c as f64).collect::<Vec<_>>()))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<12} {:>8} {:>9.1} {:>9.0} {:>9.0} {:>9.0}  {spark}\n",
            cmd, last.count, last.rps, last.p50_us, last.p95_us, last.p99_us,
        ));
        out.push_str(&format!(
            "    spans µs: queue {:.1}  parse {:.1}  reg-lock {:.1}  pop-lock {:.1}  \
             engine {:.1}  journal {:.1}  fsync {:.1}  write {:.1}\n",
            last.queue_us,
            last.parse_us,
            last.registry_lock_us,
            last.pop_lock_us,
            last.engine_us,
            last.journal_us,
            last.fsync_us,
            last.write_us,
        ));
    }
    out
}

fn render_server_stats_json(groups: &BTreeMap<ServerStatsKey, Vec<&ServerStatsRecord>>) -> String {
    let mut out = String::new();
    for ((experiment, cmd), group) in groups {
        let Some(last) = group.last() else { continue };
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "server_stats");
        obj.field_str("experiment", experiment);
        obj.field_str("cmd", cmd);
        obj.field_u64("rows", group.len() as u64);
        obj.field_u64("count", last.count);
        obj.field_u64("errors", last.errors);
        obj.field_f64("rps", last.rps);
        obj.field_f64("p50_us", last.p50_us);
        obj.field_f64("p95_us", last.p95_us);
        obj.field_f64("p99_us", last.p99_us);
        obj.field_f64("mean_us", last.mean_us);
        obj.field_f64("engine_us", last.engine_us);
        obj.field_f64("fsync_us", last.fsync_us);
        obj.field_u64("busy", last.busy);
        obj.field_u64("slow", last.slow);
        obj.field_u64("journal_lag", last.journal_lag);
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

/// Traces are individual requests, not windows: summarize by command.
fn render_traces_text(by_cmd: &BTreeMap<String, Vec<&TraceRecord>>) -> String {
    if by_cmd.is_empty() {
        return String::new();
    }
    let mut out =
        format!("\ntraces: {} request(s) from the flight recorder\n", record_count(by_cmd));
    for (cmd, group) in by_cmd {
        let n = group.len() as f64;
        let mean = group.iter().map(|t| t.total_us as f64).sum::<f64>() / n;
        let worst = group.iter().max_by_key(|t| t.total_us).expect("non-empty group");
        let failed = group.iter().filter(|t| !t.ok).count();
        out.push_str(&format!(
            "  {:<12} {:>4} trace(s)  mean {mean:.0} µs  worst {} µs \
             (queue {} engine {} journal {} fsync {} write {})  errors {failed}\n",
            cmd,
            group.len(),
            worst.total_us,
            worst.queue_us,
            worst.engine_us,
            worst.journal_us,
            worst.fsync_us,
            worst.write_us,
        ));
    }
    out
}

fn render_traces_json(by_cmd: &BTreeMap<String, Vec<&TraceRecord>>) -> String {
    let mut out = String::new();
    for (cmd, group) in by_cmd {
        let n = group.len() as f64;
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "traces");
        obj.field_str("cmd", cmd);
        obj.field_u64("rows", group.len() as u64);
        obj.field_f64("mean_total_us", group.iter().map(|t| t.total_us as f64).sum::<f64>() / n);
        obj.field_u64("worst_total_us", group.iter().map(|t| t.total_us).max().unwrap_or(0));
        obj.field_u64("errors", group.iter().filter(|t| !t.ok).count() as u64);
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
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
            merged.entry(bound).or_insert_with(|| (label, 0)).1 += count;
        }
    }
    merged.into_values().collect()
}

/// Aggregated counters of one metrics group. Counters sum across rows;
/// the occupancy gauges (`support`, `raw_len`) keep the row maximum.
struct MetricsTotals {
    interactions: u64,
    wall: f64,
    rng_draws: u64,
    batches: u64,
    batched_pairs: u64,
    exact_steps: u64,
    memo_hits: u64,
    memo_misses: u64,
    compactions: u64,
    support: u64,
    raw_len: u64,
    flushes: u64,
    sections: [f64; 4],
}

impl MetricsTotals {
    fn of(group: &[&MetricsRecord]) -> Self {
        let mut t = MetricsTotals {
            interactions: 0,
            wall: 0.0,
            rng_draws: 0,
            batches: 0,
            batched_pairs: 0,
            exact_steps: 0,
            memo_hits: 0,
            memo_misses: 0,
            compactions: 0,
            support: 0,
            raw_len: 0,
            flushes: 0,
            sections: [0.0; 4],
        };
        for m in group {
            t.interactions += m.interactions;
            t.wall += m.wall_s;
            t.rng_draws += m.rng_draws;
            t.batches += m.batches;
            t.batched_pairs += m.batched_pairs;
            t.exact_steps += m.exact_steps;
            t.memo_hits += m.memo_hits;
            t.memo_misses += m.memo_misses;
            t.compactions += m.compactions;
            t.support = t.support.max(m.support);
            t.raw_len = t.raw_len.max(m.raw_len);
            t.flushes += m.flushes;
            for (acc, s) in
                t.sections.iter_mut().zip([m.sample_s, m.transition_s, m.probe_s, m.observe_s])
            {
                *acc += s;
            }
        }
        t
    }

    /// Fraction of pair draws resolved through the exact per-pair fallback
    /// rather than the lumped hypergeometric batch.
    fn fallback_rate(&self) -> f64 {
        let total = self.exact_steps + self.batched_pairs;
        if total == 0 {
            0.0
        } else {
            self.exact_steps as f64 / total as f64
        }
    }

    /// Memo hit rate, `None` when the group never consulted the memo (e.g.
    /// agent-backend rows).
    fn memo_hit_rate(&self) -> Option<f64> {
        let lookups = self.memo_hits + self.memo_misses;
        (lookups > 0).then(|| self.memo_hits as f64 / lookups as f64)
    }
}

fn report_metrics(path: &str, format: OutputFormat) -> Result<String, CliError> {
    let loaded = load(path)?;
    let groups = loaded.group(metrics_key);
    if groups.is_empty() {
        return Err(CliError::Report {
            path: path.to_string(),
            reason: "the file contains no metrics records; write one with \
                     `ssle simulate --metrics <file>`"
                .to_string(),
        });
    }
    match format {
        OutputFormat::Text => {
            let mut out = format!(
                "metrics report: {path} — {} row(s), {} group(s)\n",
                record_count(&groups),
                groups.len(),
            );
            for ((experiment, protocol, backend, n), group) in &groups {
                let t = MetricsTotals::of(group);
                out.push_str(&format!(
                    "\nexperiment={experiment} protocol={protocol} backend={backend} n={n}: \
                     {} row(s), {} interactions\n",
                    group.len(),
                    t.interactions,
                ));
                if t.wall > 0.0 {
                    out.push_str(&format!(
                        "  throughput: {:.2e} interactions/s over {:.3}s wall\n",
                        t.interactions as f64 / t.wall,
                        t.wall,
                    ));
                }
                if t.interactions > 0 {
                    out.push_str(&format!(
                        "  rng draws: {} ({:.2} per interaction)\n",
                        t.rng_draws,
                        t.rng_draws as f64 / t.interactions as f64,
                    ));
                }
                if t.sections.iter().any(|&s| s > 0.0) {
                    out.push_str(&format!(
                        "  sections: sample {:.3}s  transition {:.3}s  probe {:.3}s  \
                         observe {:.3}s\n",
                        t.sections[0], t.sections[1], t.sections[2], t.sections[3],
                    ));
                }
                if t.batches > 0 || t.exact_steps > 0 {
                    out.push_str(&format!(
                        "  exact fallback: {:.2}% of pair draws ({} exact, {} batched over \
                         {} batch(es))\n",
                        100.0 * t.fallback_rate(),
                        t.exact_steps,
                        t.batched_pairs,
                        t.batches,
                    ));
                }
                if let Some(s) = summarize_buckets(&merged_batch_hist(group)) {
                    let values: Vec<f64> = s.counts.iter().map(|&c| c as f64).collect();
                    out.push_str(&format!(
                        "  batch sizes: {}  mode ≤{} ({:.0}% of {} batch(es))\n",
                        sparkline(&values),
                        s.mode_label,
                        100.0 * s.mode_count as f64 / s.total as f64,
                        s.total,
                    ));
                }
                if let Some(rate) = t.memo_hit_rate() {
                    // A support gauge of 0 means the run never compacted, so
                    // occupancy was never sampled — omit the clause rather
                    // than print a misleading `0/0`.
                    let occupancy = if t.support > 0 {
                        format!(", support {}/{} slot(s)", t.support, t.raw_len)
                    } else {
                        String::new()
                    };
                    out.push_str(&format!(
                        "  memo: {:.1}% hit rate ({} of {} lookups), {} compaction(s){occupancy}\n",
                        100.0 * rate,
                        t.memo_hits,
                        t.memo_hits + t.memo_misses,
                        t.compactions,
                    ));
                }
                if t.flushes > 0 {
                    out.push_str(&format!("  flushes: {}\n", t.flushes));
                }
            }
            Ok(out)
        }
        OutputFormat::Json => {
            let mut out = String::new();
            for ((experiment, protocol, backend, n), group) in &groups {
                let t = MetricsTotals::of(group);
                let mut obj = JsonObject::new();
                obj.field_str("command", "report");
                obj.field_str("kind", "metrics");
                obj.field_str("experiment", experiment);
                obj.field_str("protocol", protocol);
                obj.field_str("backend", backend);
                obj.field_u64("n", *n);
                obj.field_u64("rows", group.len() as u64);
                obj.field_u64("interactions", t.interactions);
                if t.wall > 0.0 {
                    obj.field_f64("ips", t.interactions as f64 / t.wall);
                } else {
                    obj.field_null("ips");
                }
                obj.field_u64("rng_draws", t.rng_draws);
                obj.field_u64("batches", t.batches);
                obj.field_f64("fallback_rate", t.fallback_rate());
                match t.memo_hit_rate() {
                    Some(rate) => obj.field_f64("memo_hit_rate", rate),
                    None => obj.field_null("memo_hit_rate"),
                };
                obj.field_u64("compactions", t.compactions);
                obj.field_f64("sample_s", t.sections[0]);
                obj.field_f64("transition_s", t.sections[1]);
                obj.field_f64("probe_s", t.sections[2]);
                obj.field_f64("observe_s", t.sections[3]);
                if let Some(s) = summarize_buckets(&merged_batch_hist(group)) {
                    let values: Vec<f64> = s.counts.iter().map(|&c| c as f64).collect();
                    obj.field_str("batch_spark", &sparkline(&values));
                    obj.field_str("batch_mode", &s.mode_label);
                }
                out.push_str(&obj.finish());
                out.push('\n');
            }
            Ok(out)
        }
    }
}

/// Recovery parallel times of a fault group's recovered faults, plus the
/// mean agent count touched per fault.
fn recovery_times(group: &[&FaultRecord]) -> (Vec<f64>, f64) {
    let times: Vec<f64> = group.iter().filter_map(|f| f.recovery_parallel_time()).collect();
    let agents = group.iter().map(|f| f.agents as f64).sum::<f64>() / group.len() as f64;
    (times, agents)
}

/// Rebuilds the statistical sample a group's trials represent, exactly as
/// the measuring run would have built it.
fn sample_of(group: &[&RunRecord]) -> ConvergenceSample {
    let mut sample = ConvergenceSample::default();
    for r in group {
        if r.outcome.is_converged() {
            sample.parallel_times.push(r.parallel_time());
        } else {
            sample.exhausted_interactions.push(r.outcome.interactions());
        }
    }
    sample
}

fn render_text(
    path: &str,
    total: usize,
    groups: &BTreeMap<GroupKey, Vec<&RunRecord>>,
    fault_groups: &BTreeMap<FaultKey, Vec<&FaultRecord>>,
    frontier_groups: &BTreeMap<FrontierKey, Vec<&FrontierRecord>>,
) -> String {
    let mut out = format!(
        "report: {path} — {total} records, {} group(s)\n",
        groups.len() + fault_groups.len() + frontier_groups.len()
    );
    for ((experiment, protocol, n, h, scheduler), group) in groups {
        let h_text = h.map_or("-".to_string(), |h| h.to_string());
        out.push_str(&format!(
            "\nexperiment={experiment} protocol={protocol} n={n} h={h_text} \
             scheduler={scheduler}: {} trial(s), {} exhausted\n",
            group.len(),
            group.iter().filter(|r| !r.outcome.is_converged()).count(),
        ));
        let sample = sample_of(group);
        let Some(t) = TimeSummary::from_sample(&sample) else {
            out.push_str("  no converged trials — no time statistics\n");
            continue;
        };
        out.push_str(&format!(
            "  E[time] {:>10.1} ±95% {:>8.1} p95 {:>10.1}   (parallel time)\n",
            t.mean, t.ci95_half, t.p95
        ));
        let times = &sample.parallel_times;
        let q = |p: f64| quantile(times, p).expect("non-empty converged sample");
        // Exhausted trials right-censor the sample: the quantiles below are
        // computed from converged trials only, so flag them the way the
        // robustness bench does.
        out.push_str(&format!(
            "  quantiles: min {:.1}  p25 {:.1}  p50 {:.1}  p75 {:.1}  max {:.1}{}\n",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            censored_note(sample.exhausted() as usize, group.len()),
        ));
        let ecdf = Ecdf::new(times.clone()).expect("non-empty converged sample");
        out.push_str(&format!(
            "  ECDF: P[T ≥ mean] = {:.2}, P[T ≥ 2·mean] = {:.2}\n",
            ecdf.survival(t.mean),
            ecdf.survival(2.0 * t.mean)
        ));
        let wall: f64 = group.iter().map(|r| r.wall_s).sum();
        let interactions: u64 = group.iter().map(|r| r.outcome.interactions()).sum();
        if wall > 0.0 {
            out.push_str(&format!(
                "  wall: {wall:.2}s total, {:.2e} interactions/s\n",
                interactions as f64 / wall
            ));
        }
        let avails: Vec<f64> = group.iter().filter_map(|r| r.availability).collect();
        if !avails.is_empty() {
            let injected: u64 = group.iter().filter_map(|r| r.faults).sum();
            out.push_str(&format!(
                "  chaos: {injected} fault(s) injected, mean availability {:.3}\n",
                avails.iter().sum::<f64>() / avails.len() as f64
            ));
        }
        let omissions: Vec<f64> = group.iter().filter_map(|r| r.omission).collect();
        if !omissions.is_empty() {
            out.push_str(&format!(
                "  channel: mean omission rate {:.3}\n",
                omissions.iter().sum::<f64>() / omissions.len() as f64
            ));
        }
    }
    for ((experiment, protocol, n, h, action), group) in fault_groups {
        let h_text = h.map_or("-".to_string(), |h| h.to_string());
        let (times, agents) = recovery_times(group);
        out.push_str(&format!(
            "\nfaults: experiment={experiment} protocol={protocol} n={n} h={h_text} \
             action={action}: {} fault(s), {} recovered, {agents:.1} agent(s)/fault\n",
            group.len(),
            times.len(),
        ));
        if times.is_empty() {
            out.push_str("  no recovered faults — no recovery statistics\n");
            continue;
        }
        let q = |p: f64| quantile(&times, p).expect("non-empty recovered sample");
        // Unrecovered faults censor the recovery-time sample the same way
        // exhausted trials censor stabilization times.
        out.push_str(&format!(
            "  E[recovery] {:.1} parallel time   p50 {:.1}  p95 {:.1}  max {:.1}{}\n",
            times.iter().sum::<f64>() / times.len() as f64,
            q(0.5),
            q(0.95),
            q(1.0),
            censored_note(group.len() - times.len(), group.len()),
        ));
    }
    for ((experiment, protocol, backend, n), group) in frontier_groups {
        let converged = group.iter().filter(|f| f.outcome.is_converged()).count();
        out.push_str(&format!(
            "\nfrontier: experiment={experiment} workload={protocol} backend={backend} n={n}: \
             {} run(s), {converged} converged\n",
            group.len(),
        ));
        let wall: f64 = group.iter().map(|f| f.wall_s).sum();
        let interactions: u64 = group.iter().map(|f| f.outcome.interactions()).sum();
        if wall > 0.0 {
            out.push_str(&format!(
                "  throughput: {:.2e} interactions/s over {wall:.2}s\n",
                interactions as f64 / wall
            ));
        }
        let supports: Vec<u64> = group.iter().filter_map(|f| f.support).collect();
        if !supports.is_empty() {
            let mean = supports.iter().sum::<u64>() as f64 / supports.len() as f64;
            out.push_str(&format!("  support: mean {mean:.1} distinct state(s)\n"));
        }
    }
    out
}

fn render_json(
    groups: &BTreeMap<GroupKey, Vec<&RunRecord>>,
    fault_groups: &BTreeMap<FaultKey, Vec<&FaultRecord>>,
    frontier_groups: &BTreeMap<FrontierKey, Vec<&FrontierRecord>>,
) -> String {
    let mut out = String::new();
    for ((experiment, protocol, n, h, scheduler), group) in groups {
        let sample = sample_of(group);
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("experiment", experiment);
        obj.field_str("protocol", protocol);
        obj.field_u64("n", *n);
        match h {
            Some(h) => obj.field_u64("h", *h),
            None => obj.field_null("h"),
        };
        obj.field_str("scheduler", scheduler);
        obj.field_u64("trials", group.len() as u64);
        obj.field_u64("exhausted", sample.exhausted());
        if let Some(t) = TimeSummary::from_sample(&sample) {
            obj.field_f64("mean_time", t.mean);
            obj.field_f64("ci95_half", t.ci95_half);
            obj.field_f64("p95", t.p95);
            let times = &sample.parallel_times;
            obj.field_f64("p50", quantile(times, 0.5).expect("non-empty"));
            obj.field_f64("min_time", quantile(times, 0.0).expect("non-empty"));
            obj.field_f64("max_time", quantile(times, 1.0).expect("non-empty"));
        } else {
            obj.field_null("mean_time");
        }
        let avails: Vec<f64> = group.iter().filter_map(|r| r.availability).collect();
        if !avails.is_empty() {
            obj.field_f64("mean_availability", avails.iter().sum::<f64>() / avails.len() as f64);
            obj.field_u64("faults_injected", group.iter().filter_map(|r| r.faults).sum());
        }
        let omissions: Vec<f64> = group.iter().filter_map(|r| r.omission).collect();
        if !omissions.is_empty() {
            obj.field_f64("mean_omission", omissions.iter().sum::<f64>() / omissions.len() as f64);
        }
        out.push_str(&obj.finish());
        out.push('\n');
    }
    for ((experiment, protocol, n, h, action), group) in fault_groups {
        let (times, agents) = recovery_times(group);
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "faults");
        obj.field_str("experiment", experiment);
        obj.field_str("protocol", protocol);
        obj.field_u64("n", *n);
        match h {
            Some(h) => obj.field_u64("h", *h),
            None => obj.field_null("h"),
        };
        obj.field_str("action", action);
        obj.field_u64("faults", group.len() as u64);
        obj.field_u64("recovered", times.len() as u64);
        obj.field_f64("mean_agents", agents);
        if times.is_empty() {
            obj.field_null("mean_recovery_time");
        } else {
            obj.field_f64("mean_recovery_time", times.iter().sum::<f64>() / times.len() as f64);
            obj.field_f64("p95_recovery_time", quantile(&times, 0.95).expect("non-empty"));
        }
        out.push_str(&obj.finish());
        out.push('\n');
    }
    for ((experiment, protocol, backend, n), group) in frontier_groups {
        let mut obj = JsonObject::new();
        obj.field_str("command", "report");
        obj.field_str("kind", "frontier");
        obj.field_str("experiment", experiment);
        obj.field_str("protocol", protocol);
        obj.field_str("backend", backend);
        obj.field_u64("n", *n);
        obj.field_u64("runs", group.len() as u64);
        obj.field_u64(
            "converged",
            group.iter().filter(|f| f.outcome.is_converged()).count() as u64,
        );
        let wall: f64 = group.iter().map(|f| f.wall_s).sum();
        let interactions: u64 = group.iter().map(|f| f.outcome.interactions()).sum();
        if wall > 0.0 {
            obj.field_f64("ips", interactions as f64 / wall);
        } else {
            obj.field_null("ips");
        }
        let supports: Vec<u64> = group.iter().filter_map(|f| f.support).collect();
        if supports.is_empty() {
            obj.field_null("mean_support");
        } else {
            obj.field_f64(
                "mean_support",
                supports.iter().sum::<u64>() as f64 / supports.len() as f64,
            );
        }
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::record::to_jsonl;
    use ssle_bench::{measure_oss, measure_oss_trials, OssStart};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
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
        let fields = population::record::parse_flat_json(out.trim()).unwrap();
        let expected =
            TimeSummary::from_sample(&ConvergenceSample::from_trials(&outcomes)).unwrap();
        match fields.get("mean_time").unwrap() {
            population::record::JsonScalar::Num(m) => {
                assert!((m - expected.mean).abs() < 1e-9, "{m} vs {}", expected.mean)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn groups_are_split_by_protocol_and_size() {
        let mk = |protocol: &str, n: u64, trial: u64| RunRecord {
            experiment: "x".to_string(),
            protocol: protocol.to_string(),
            n,
            h: None,
            trial,
            seed: 1,
            outcome: population::RunOutcome::Converged { interactions: 100 * n },
            wall_s: 0.0,
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
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
            protocol: "oss".to_string(),
            n: 16,
            h: None,
            trial: 0,
            seed: 1,
            outcome: population::RunOutcome::Converged { interactions: 1600 },
            wall_s: 0.01,
            availability: Some(0.75),
            faults: Some(1),
            scheduler: None,
            omission: None,
            starve_window: None,
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
        let fault_line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"faults\""))
            .expect("fault group line present");
        let fields = population::record::parse_flat_json(fault_line).unwrap();
        match fields.get("mean_recovery_time").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 5.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let counts_line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"frontier\"") && l.contains("\"backend\":\"counts\""))
            .expect("counts frontier group line present");
        let fields = population::record::parse_flat_json(counts_line).unwrap();
        match fields.get("ips").unwrap() {
            population::record::JsonScalar::Num(m) => {
                assert!((m - 2e8).abs() / 2e8 < 1e-9, "{m}")
            }
            other => panic!("unexpected {other:?}"),
        }
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
        let zipf_line = json
            .lines()
            .find(|l| l.contains("\"scheduler\":\"zipf:1.0\""))
            .expect("zipf group present");
        let fields = population::record::parse_flat_json(zipf_line).unwrap();
        match fields.get("mean_omission").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 0.2).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let fields = population::record::parse_flat_json(json.trim()).unwrap();
        match fields.get("speedup").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 2.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"compare_frontier\""))
            .expect("frontier compare line present");
        let fields = population::record::parse_flat_json(line).unwrap();
        match fields.get("speedup").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 2.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let median_line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"timeline_median\""))
            .expect("median line present");
        let fields = population::record::parse_flat_json(median_line).unwrap();
        match fields.get("trials").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 2.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"metrics\""))
            .expect("metrics group line present");
        let fields = population::record::parse_flat_json(line).unwrap();
        match fields.get("fallback_rate").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 0.1).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
        match fields.get("memo_hit_rate").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 0.995).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
            protocol: "a".to_string(),
            n: 8,
            h: None,
            trial: 0,
            seed: 1,
            outcome: population::RunOutcome::Exhausted { interactions: 999 },
            wall_s: 0.1,
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
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
        let line = json.lines().find(|l| l.contains("\"kind\":\"churn\"")).expect("churn group");
        let fields = population::record::parse_flat_json(line).unwrap();
        match fields.get("mean_availability").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 0.7).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"service\"") && l.contains("\"clients\":8"))
            .expect("service group");
        let fields = population::record::parse_flat_json(line).unwrap();
        match fields.get("mean_rps").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 1000.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let line = json
            .lines()
            .find(|l| l.contains("\"kind\":\"crash\"") && l.contains("\"fsync\":\"every:16\""))
            .expect("crash group");
        let fields = population::record::parse_flat_json(line).unwrap();
        match fields.get("max_lost_events").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 3.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
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
        let line = json.lines().find(|l| l.contains("\"kind\":\"health\"")).expect("health group");
        let fields = population::record::parse_flat_json(line).unwrap();
        match fields.get("lag").unwrap() {
            population::record::JsonScalar::Num(m) => assert!((m - 2.0).abs() < 1e-9, "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
