//! `ssle simulate` — run one execution to stabilization.

use std::hash::Hash;
use std::time::Instant;

use population::record::{to_jsonl_mixed, JsonObject};
use population::runner::rng_from_seed;
use population::timeline::DEFAULT_TIMELINE_CAPACITY;
use population::{
    certify_ranking_closure, derive_seed, BatchSimulation, ByzantineSet, ChurnPlan,
    ClosureCertificate, Corruptor, DynamicBackend, DynamicsReport, Metrics, MetricsSink,
    NoopMetrics, Protocol, RankingProtocol, RecordLine, RunOutcome, SchedulerPolicy, Simulation,
    Timeline, TimelineObserver,
};
use ssle::adversary;
use ssle::cai_izumi_wada::{CaiIzumiWada, CiwState};
use ssle::initialized::TreeRanking;
use ssle::loose::{LooseState, LooselyStabilizingLe};
use ssle::optimal_silent::{OptimalSilentSsr, OssState};
use ssle::sublinear::SublinearTimeSsr;

use crate::commands::{parse_flags, OutputFormat};
use crate::error::CliError;
use crate::protocol_choice::{BackendChoice, CommonFlags, ProtocolChoice, RobustnessFlags};

/// Which family of starting configuration to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Start {
    Random,
    Collision,
    Ranked,
}

impl Start {
    fn parse(value: Option<&str>) -> Result<Self, CliError> {
        match value {
            None | Some("random") => Ok(Start::Random),
            Some("collision") => Ok(Start::Collision),
            Some("ranked") => Ok(Start::Ranked),
            Some(other) => Err(CliError::BadValue {
                flag: "start".into(),
                reason: format!("{other:?} is not one of random, collision, ranked"),
            }),
        }
    }
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags or when the execution exhausts its
/// interaction budget.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(
        args,
        &[
            "protocol",
            "n",
            "h",
            "seed",
            "start",
            "max-time",
            "backend",
            "format",
            "scheduler",
            "omission",
            "certify",
            "timeline",
            "metrics",
            "churn",
            "byzantine",
        ],
    )?;
    let common = CommonFlags::from_flags(&flags, ProtocolChoice::OptimalSilent)?;
    let start = Start::parse(flags.try_get_str("start"))?;
    let max_time: f64 = flags.get("max-time", 0.0);
    let backend = BackendChoice::from_flags(&flags)?;
    let format = OutputFormat::from_flags(&flags)?;
    let robust = RobustnessFlags::from_flags(&flags)?;
    robust.policy(common.n)?; // validate the spec before running anything
    let certify: f64 = flags.get("certify", 0.0);
    if !certify.is_finite() || certify < 0.0 {
        return Err(CliError::BadValue {
            flag: "certify".into(),
            reason: format!("the closure-window multiple must be finite and ≥ 0, got {certify}"),
        });
    }
    if certify > 0.0 && backend == BackendChoice::Counts {
        return Err(CliError::BadValue {
            flag: "certify".into(),
            reason: "closure certification tracks per-agent outputs; use --backend agents".into(),
        });
    }
    if certify > 0.0 && common.protocol == ProtocolChoice::Loose {
        return Err(CliError::BadValue {
            flag: "certify".into(),
            reason: "loose stabilization holds its leader only for finite time, so closure \
                     certification applies to the ranking protocols only"
                .into(),
        });
    }
    if backend == BackendChoice::Counts && common.protocol == ProtocolChoice::Sublinear {
        return Err(CliError::BadValue {
            flag: "backend".into(),
            reason: "sublinear states are not hashable; the counts backend supports \
                     ciw, optimal-silent, tree-ranking, loose"
                .into(),
        });
    }
    let timeline = flags.try_get_str("timeline").map(str::to_string);
    if timeline.is_some() && common.protocol == ProtocolChoice::Loose {
        return Err(CliError::BadValue {
            flag: "timeline".into(),
            reason: "timelines trace ranking observables (leader count, ranks); the loose \
                     protocol has no ranking — use one of the ranking protocols"
                .into(),
        });
    }
    let timeline = timeline.as_deref();
    let metrics = flags.try_get_str("metrics").map(str::to_string);
    let metrics = metrics.as_deref();

    let churn_spec = flags.try_get_str("churn").unwrap_or("none").trim().to_string();
    let byzantine: f64 = flags.get("byzantine", 0.0);
    let churn = ChurnPlan::parse(&churn_spec, derive_seed(common.seed, 11))
        .map_err(|reason| CliError::BadValue { flag: "churn".into(), reason })?;
    if byzantine != 0.0 && !(byzantine.is_finite() && (0.0..1.0).contains(&byzantine)) {
        return Err(CliError::BadValue {
            flag: "byzantine".into(),
            reason: format!("byzantine fraction {byzantine} must lie in [0, 1)"),
        });
    }
    if !churn.is_empty() || byzantine > 0.0 {
        // Dynamic-population runs use their own driver: availability report
        // instead of a stabilization point, membership events as faults.
        if !robust.is_default() {
            return Err(CliError::BadValue {
                flag: "churn".into(),
                reason: "dynamic populations run on the uniform complete scheduler with \
                         perfect channels; drop --scheduler/--omission"
                    .into(),
            });
        }
        if certify > 0.0 || timeline.is_some() || metrics.is_some() {
            return Err(CliError::BadValue {
                flag: "churn".into(),
                reason: "--certify/--timeline/--metrics are not available under churn or \
                         Byzantine agents"
                    .into(),
            });
        }
        let byz = ByzantineSet { fraction: byzantine, seed: derive_seed(common.seed, 13) };
        return dynamics_mode(&common, start, max_time, backend, &churn_spec, &churn, &byz, format);
    }

    if metrics.is_some()
        && backend == BackendChoice::Counts
        && !robust.policy(common.n)?.is_uniform_complete()
    {
        return Err(CliError::BadValue {
            flag: "metrics".into(),
            reason: "the counts backend instruments the uniform complete scheduler only; \
                     use --backend agents for non-uniform schedulers"
                .into(),
        });
    }
    let run = Run { common: &common, robust: &robust, certify, timeline, metrics, format };
    match common.protocol {
        ProtocolChoice::Ciw => {
            let p = CaiIzumiWada::new(common.n);
            let initial = match start {
                Start::Random => {
                    adversary::random_ciw_configuration(&p, &mut rng_from_seed(common.seed ^ 1))
                }
                Start::Collision => vec![CiwState::new(0); common.n],
                Start::Ranked => adversary::ranked_ciw_configuration(&p),
            };
            let budget =
                budget(max_time, common.n, inflate(400 * (common.n as u64).pow(3), &robust));
            on_backend(&run, backend, Ranked { protocol: p, initial, budget })
        }
        ProtocolChoice::OptimalSilent => {
            let p = OptimalSilentSsr::new(common.n);
            let initial = match start {
                Start::Random => {
                    adversary::random_oss_configuration(&p, &mut rng_from_seed(common.seed ^ 1))
                }
                Start::Collision => vec![OssState::settled(1, 0); common.n],
                Start::Ranked => adversary::ranked_oss_configuration(&p),
            };
            let budget =
                budget(max_time, common.n, inflate(4000 * (common.n as u64).pow(2), &robust));
            on_backend(&run, backend, Ranked { protocol: p, initial, budget })
        }
        ProtocolChoice::Sublinear => {
            let p = SublinearTimeSsr::new(common.n, common.h);
            let initial = match start {
                Start::Random => adversary::random_sublinear_configuration(
                    &p,
                    &mut rng_from_seed(common.seed ^ 1),
                ),
                Start::Collision => adversary::planted_collision_configuration(&p),
                Start::Ranked => adversary::unique_names_configuration(&p),
            };
            let budget =
                budget(max_time, common.n, inflate(4000 * (common.n as u64).pow(2), &robust));
            // Sublinear states are not hashable: agents only (checked above).
            simulate::<_, Agents>(&run, Ranked { protocol: p, initial, budget })
        }
        ProtocolChoice::TreeRanking => {
            let p = TreeRanking::new(common.n);
            // Not self-stabilizing: always the designated configuration.
            let initial = p.designated_configuration();
            let budget =
                budget(max_time, common.n, inflate(4000 * (common.n as u64).pow(2), &robust));
            on_backend(&run, backend, Ranked { protocol: p, initial, budget })
        }
        ProtocolChoice::Loose => {
            let n = common.n;
            let t_max = 8 * (n as f64).log2().ceil() as u32;
            let p = LooselyStabilizingLe::new(t_max);
            let initial = match start {
                Start::Collision => vec![p.leader_state(); n],
                Start::Random | Start::Ranked => vec![p.follower_state(1); n],
            };
            let budget = budget(max_time, n, inflate(4000 * (n as u64).pow(2), &robust));
            on_backend(&run, backend, Loose { protocol: p, initial, t_max, budget })
        }
    }
}

/// Dispatches a dynamic-population run: one execution under membership
/// churn and/or Byzantine agents (`--churn`/`--byzantine`), reporting
/// availability and re-stabilization instead of a single stabilization
/// point. Only the protocols with a mid-run corruption model qualify — the
/// same [`Corruptor`] bound the chaos harness needs.
#[allow(clippy::too_many_arguments)]
fn dynamics_mode(
    common: &CommonFlags,
    start: Start,
    max_time: f64,
    backend: BackendChoice,
    churn_spec: &str,
    churn: &ChurnPlan,
    byz: &ByzantineSet,
    format: OutputFormat,
) -> Result<String, CliError> {
    let n = common.n;
    // Sustained churn and Byzantine adversaries never let the run end
    // early, so the default budget is a soak-style duration, not the
    // worst-case stabilization bound.
    let max = budget(max_time, n, 500 * n as u64);
    match (common.protocol, backend) {
        (ProtocolChoice::Ciw, _) => {
            let p = CaiIzumiWada::new(n);
            let initial = match start {
                Start::Random => {
                    adversary::random_ciw_configuration(&p, &mut rng_from_seed(common.seed ^ 1))
                }
                Start::Collision => vec![CiwState::new(0); n],
                Start::Ranked => adversary::ranked_ciw_configuration(&p),
            };
            let seed = common.seed;
            match backend {
                BackendChoice::Agents => {
                    let sim = Simulation::new(p, initial, seed);
                    dynamics_report(common, churn_spec, churn, byz, sim, max, format)
                }
                BackendChoice::Counts => {
                    let sim = BatchSimulation::new(p, initial, seed);
                    dynamics_report(common, churn_spec, churn, byz, sim, max, format)
                }
            }
        }
        (ProtocolChoice::OptimalSilent, _) => {
            let p = OptimalSilentSsr::new(n);
            let initial = match start {
                Start::Random => {
                    adversary::random_oss_configuration(&p, &mut rng_from_seed(common.seed ^ 1))
                }
                Start::Collision => vec![OssState::settled(1, 0); n],
                Start::Ranked => adversary::ranked_oss_configuration(&p),
            };
            let seed = common.seed;
            match backend {
                BackendChoice::Agents => {
                    let sim = Simulation::new(p, initial, seed);
                    dynamics_report(common, churn_spec, churn, byz, sim, max, format)
                }
                BackendChoice::Counts => {
                    let sim = BatchSimulation::new(p, initial, seed);
                    dynamics_report(common, churn_spec, churn, byz, sim, max, format)
                }
            }
        }
        (ProtocolChoice::Sublinear, BackendChoice::Agents) => {
            let p = SublinearTimeSsr::new(n, common.h);
            let initial = match start {
                Start::Random => adversary::random_sublinear_configuration(
                    &p,
                    &mut rng_from_seed(common.seed ^ 1),
                ),
                Start::Collision => adversary::planted_collision_configuration(&p),
                Start::Ranked => adversary::unique_names_configuration(&p),
            };
            let sim = Simulation::new(p, initial, common.seed);
            dynamics_report(common, churn_spec, churn, byz, sim, max, format)
        }
        (ProtocolChoice::Sublinear, BackendChoice::Counts) => Err(CliError::BadValue {
            flag: "backend".into(),
            reason: "sublinear states are not hashable; dynamic populations on the counts \
                     backend support ciw or optimal-silent"
                .into(),
        }),
        (other, _) => Err(CliError::BadValue {
            flag: "protocol".into(),
            reason: format!(
                "{other:?} has no mid-run corruption model for joins and Byzantine strikes; \
                 pick ciw, optimal-silent, or sublinear"
            ),
        }),
    }
}

/// Runs the dynamics driver on `sim` and renders it. The counts backend
/// runs the lumped Byzantine model — counts have no agent identities to
/// pin.
fn dynamics_report<P: Corruptor, B: DynamicBackend<P>>(
    common: &CommonFlags,
    churn_spec: &str,
    churn: &ChurnPlan,
    byz: &ByzantineSet,
    mut sim: B,
    max: u64,
    format: OutputFormat,
) -> Result<String, CliError> {
    let report = sim.run_dynamics(churn, byz, max);
    Ok(render_dynamics(common, B::NAME, churn_spec, byz.fraction, &report, format))
}

/// Renders a [`DynamicsReport`] in either output format.
fn render_dynamics(
    common: &CommonFlags,
    backend: &str,
    churn_spec: &str,
    byzantine: f64,
    report: &DynamicsReport,
    format: OutputFormat,
) -> String {
    let chaos = &report.chaos;
    let spec = if churn_spec.is_empty() { "none" } else { churn_spec };
    match format {
        OutputFormat::Text => {
            let first =
                chaos.first_ranked_parallel_time().map_or("never fully ranked".to_string(), |t| {
                    format!("first fully ranked at {t:.1} parallel time")
                });
            let rec = chaos
                .mean_recovery_parallel_time()
                .map_or("-".to_string(), |r| format!("{r:.1} parallel time"));
            format!(
                "{name} under dynamics: n = {n}, backend {backend}, churn \"{spec}\", \
                 byzantine {byzantine}\n\
                 ran {interactions} interactions ({pt:.1} parallel time); final population \
                 {final_n}\n\
                 membership: {joins} join(s), {leaves} leave(s), {repl} replacement(s); \
                 byzantine strikes: {strikes}\n\
                 availability: leader {avail:.3}, fully ranked {ranked:.3}\n\
                 recovery: {recovered}/{faults} fault(s) recovered, E[recovery] {rec}; {first}\n",
                name = common.protocol.name(),
                n = common.n,
                interactions = chaos.interactions,
                pt = report.parallel_time,
                final_n = report.final_n,
                joins = report.joins,
                leaves = report.leaves,
                repl = report.replacements,
                strikes = report.byz_strikes,
                avail = chaos.availability(),
                ranked = chaos.ranked_availability(),
                recovered = chaos.recovered(),
                faults = chaos.faults.len(),
            )
        }
        OutputFormat::Json => {
            let mut obj = JsonObject::new();
            obj.field_str("command", "simulate");
            obj.field_str("protocol", common.protocol.name());
            obj.field_str("backend", backend);
            obj.field_u64("n", common.n as u64);
            obj.field_u64("final_n", report.final_n as u64);
            obj.field_u64("seed", common.seed);
            obj.field_str("churn", spec);
            obj.field_f64("byzantine", byzantine);
            obj.field_u64("joins", report.joins);
            obj.field_u64("leaves", report.leaves);
            obj.field_u64("replacements", report.replacements);
            obj.field_u64("byz_strikes", report.byz_strikes);
            obj.field_u64("faults", chaos.faults.len() as u64);
            obj.field_u64("recovered", chaos.recovered() as u64);
            obj.field_f64("availability", chaos.availability());
            obj.field_f64("ranked_availability", chaos.ranked_availability());
            match chaos.mean_recovery_parallel_time() {
                Some(r) => obj.field_f64("mean_recovery_time", r),
                None => obj.field_null("mean_recovery_time"),
            };
            match chaos.first_ranked_parallel_time() {
                Some(t) => obj.field_f64("first_ranked_time", t),
                None => obj.field_null("first_ranked_time"),
            };
            obj.field_u64("interactions", chaos.interactions);
            obj.field_f64("parallel_time", report.parallel_time);
            obj.finish() + "\n"
        }
    }
}

fn budget(max_time: f64, n: usize, default_interactions: u64) -> u64 {
    if max_time > 0.0 {
        (max_time * n as f64) as u64
    } else {
        default_interactions
    }
}

/// Inflates a default interaction budget to compensate for omitted
/// interactions: with omission rate `q`, only a `1 - q` fraction of
/// scheduler draws apply a transition. An explicit `--max-time` is the
/// user's cap and is never inflated.
fn inflate(base: u64, robust: &RobustnessFlags) -> u64 {
    (base as f64 / (1.0 - robust.omission)).ceil() as u64
}

/// Appends the robustness fields every `simulate` JSON object carries.
fn robustness_json(obj: &mut JsonObject, robust: &RobustnessFlags, spec: &str) {
    obj.field_str("scheduler", spec);
    obj.field_f64("omission", robust.omission);
}

/// The extra text line describing a non-default scheduler or channel.
fn robustness_text(robust: &RobustnessFlags, spec: &str) -> String {
    if robust.is_default() {
        String::new()
    } else {
        format!("scheduler: {spec}, omission rate: {}\n", robust.omission)
    }
}

/// Writes a finished timeline as schema-v4 `"kind":"timeline"` JSONL rows.
fn write_timeline(
    path: &str,
    timeline: Timeline,
    common: &CommonFlags,
    backend: &str,
) -> Result<(), CliError> {
    let lines: Vec<RecordLine> = timeline
        .to_records("simulate", common.protocol.short_name(), backend, 0, common.seed)
        .into_iter()
        .map(RecordLine::Timeline)
        .collect();
    std::fs::write(path, to_jsonl_mixed(&lines))
        .map_err(|e| CliError::Report { path: path.into(), reason: e.to_string() })
}

/// Writes the collected engine metrics as one schema-v5 `"kind":"metrics"`
/// JSONL row.
fn write_metrics(
    path: &str,
    metrics: &Metrics,
    common: &CommonFlags,
    backend: &str,
    wall_s: f64,
) -> Result<(), CliError> {
    let record = metrics.to_record(
        "simulate",
        common.protocol.short_name(),
        backend,
        common.n as u64,
        Some(0),
        common.seed,
        wall_s,
    );
    std::fs::write(path, to_jsonl_mixed(&[RecordLine::Metrics(record)]))
        .map_err(|e| CliError::Report { path: path.into(), reason: e.to_string() })
}

/// The flags one execution runs under, shared by every report.
struct Run<'a> {
    common: &'a CommonFlags,
    robust: &'a RobustnessFlags,
    certify: f64,
    timeline: Option<&'a str>,
    metrics: Option<&'a str>,
    format: OutputFormat,
}

/// A ranking protocol run from `initial` to a stable ranking within
/// `budget` interactions.
struct Ranked<P: Protocol> {
    protocol: P,
    initial: Vec<P::State>,
    budget: u64,
}

/// Loose leader election run from `initial` to a unique leader within
/// `budget` interactions.
struct Loose {
    protocol: LooselyStabilizingLe,
    initial: Vec<LooseState>,
    t_max: u32,
    budget: u64,
}

/// A simulation backend `simulate` can run on.
trait Backend {
    /// Backend name in reports, timeline rows and metrics rows.
    const NAME: &'static str;
}

/// A backend that runs job `J` (a [`Ranked`] or [`Loose`] run). Each
/// report is written once per backend, generic over the metrics sink, so
/// [`simulate`] attaches `--metrics` to all of them.
trait SimBackend<J>: Backend {
    /// Runs `job` with `sink` attached and renders its report.
    fn report<M: MetricsSink>(run: &Run<'_>, job: J, sink: M) -> Result<String, CliError>;
}

/// The agent array: agents have identities, and any scheduler runs.
struct Agents;

impl Backend for Agents {
    const NAME: &'static str = "agents";
}

/// The count-based backend: agents are anonymous in a multiset, so its
/// reports carry counts and the final support instead of agent indices.
struct Counts;

impl Backend for Counts {
    const NAME: &'static str = "counts";
}

/// Runs `job` on the chosen backend.
fn on_backend<J>(run: &Run<'_>, backend: BackendChoice, job: J) -> Result<String, CliError>
where
    Agents: SimBackend<J>,
    Counts: SimBackend<J>,
{
    match backend {
        BackendChoice::Agents => simulate::<J, Agents>(run, job),
        BackendChoice::Counts => simulate::<J, Counts>(run, job),
    }
}

/// Runs `job` on backend `B`, collecting engine metrics when `--metrics`
/// asks for them. The metrics row is written even when the run exhausts
/// its budget — profiling a non-converging run is exactly what metrics are
/// for.
fn simulate<J, B: SimBackend<J>>(run: &Run<'_>, job: J) -> Result<String, CliError> {
    let Some(path) = run.metrics else {
        return B::report(run, job, NoopMetrics);
    };
    let mut collected = Metrics::new();
    let started = Instant::now();
    let result = B::report(run, job, &mut collected);
    write_metrics(path, &collected, run.common, B::NAME, started.elapsed().as_secs_f64())?;
    result
}

impl<P: RankingProtocol> SimBackend<Ranked<P>> for Agents {
    fn report<M: MetricsSink>(run: &Run<'_>, job: Ranked<P>, sink: M) -> Result<String, CliError> {
        let (common, robust, budget) = (run.common, run.robust, job.budget);
        let n = common.n;
        let policy = robust.policy(n)?;
        let spec = policy.spec();
        let mut sim = Simulation::with_policy(job.protocol, job.initial, policy, common.seed)
            .with_reliability(robust.reliability())
            .with_metrics(sink);
        // The timeline is written even when the run exhausts its budget — a
        // non-converging trajectory is exactly what one wants to inspect.
        let outcome = match run.timeline {
            Some(path) => {
                let mut tl = TimelineObserver::new(DEFAULT_TIMELINE_CAPACITY);
                let outcome = sim.run_until_stably_ranked_timeline(budget, 4 * n as u64, &mut tl);
                write_timeline(path, tl.finish(n as u64), common, Self::NAME)?;
                outcome
            }
            None => sim.run_until_stably_ranked(budget, 4 * n as u64),
        };
        let RunOutcome::Converged { interactions } = outcome else {
            return Err(CliError::DidNotConverge { interactions: outcome.interactions() });
        };
        let cert = if run.certify > 0.0 {
            // Already stably ranked, so re-confirmation inside the certifier
            // is cheap; the doubled cap only guards against a protocol whose
            // ranking does not actually close.
            match certify_ranking_closure(
                &mut sim,
                budget.saturating_mul(2),
                4 * n as u64,
                run.certify,
                4 * n as u64,
            ) {
                Ok(c) => Some(c),
                Err(RunOutcome::Exhausted { interactions }) => {
                    return Err(CliError::DidNotConverge { interactions })
                }
                Err(RunOutcome::Converged { .. }) => {
                    unreachable!("certifier only fails by exhaustion")
                }
            }
        } else {
            None
        };
        let leader = sim
            .states()
            .iter()
            .position(|s| sim.protocol().is_leader(s))
            .expect("a ranked configuration has a leader");
        let mut ranking: Vec<(usize, usize)> = sim
            .states()
            .iter()
            .enumerate()
            .filter_map(|(agent, s)| sim.protocol().rank_of(s).map(|r| (r, agent)))
            .collect();
        ranking.sort_unstable();
        match run.format {
            OutputFormat::Text => {
                let ranks =
                    ranking.iter().map(|(r, a)| format!("{r}→{a}")).collect::<Vec<_>>().join(" ");
                Ok(format!(
                    "{name}: stabilized after {t:.1} parallel time ({interactions} interactions)\n\
                     {robustness}leader: agent {leader}\nranking (rank→agent): {ranks}\n{cert}",
                    name = common.protocol.name(),
                    t = interactions as f64 / n as f64,
                    robustness = robustness_text(robust, &spec),
                    cert = cert.as_ref().map(certificate_text).unwrap_or_default(),
                ))
            }
            OutputFormat::Json => {
                // Agent ids indexed by rank − 1.
                let agents =
                    ranking.iter().map(|(_, a)| a.to_string()).collect::<Vec<_>>().join(",");
                let mut obj = JsonObject::new();
                obj.field_str("command", "simulate");
                obj.field_str("protocol", common.protocol.name());
                obj.field_u64("n", n as u64);
                obj.field_u64("seed", common.seed);
                robustness_json(&mut obj, robust, &spec);
                obj.field_str("outcome", "converged");
                obj.field_u64("interactions", interactions);
                obj.field_f64("parallel_time", interactions as f64 / n as f64);
                obj.field_u64("leader", leader as u64);
                obj.field_raw("ranking", &format!("[{agents}]"));
                if let Some(c) = &cert {
                    obj.field_raw("certificate_holds", if c.holds() { "true" } else { "false" });
                    obj.field_u64("certificate_window", c.window);
                }
                Ok(obj.finish() + "\n")
            }
        }
    }
}

impl<P> SimBackend<Ranked<P>> for Counts
where
    P: RankingProtocol,
    P::State: Eq + Hash,
{
    fn report<M: MetricsSink>(run: &Run<'_>, job: Ranked<P>, sink: M) -> Result<String, CliError> {
        let (common, robust, budget) = (run.common, run.robust, job.budget);
        let n = common.n;
        let policy = robust.policy(n)?;
        let spec = policy.spec();
        if run.timeline.is_some() && !policy.is_uniform_complete() {
            return Err(CliError::BadValue {
                flag: "timeline".into(),
                reason: "the counts backend records timelines on the uniform complete scheduler \
                         only; use --backend agents for non-uniform schedulers"
                    .into(),
            });
        }
        let mut sim = BatchSimulation::new(job.protocol, job.initial, common.seed)
            .with_reliability(robust.reliability())
            .with_metrics(sink);
        // The uniform-complete fast path keeps the lumped batched loop
        // (omission is thinned exactly inside batches); any other policy
        // needs agent identities, so the backend falls back to exact
        // per-interaction draws.
        let outcome = if let Some(path) = run.timeline {
            let mut tl = TimelineObserver::new(DEFAULT_TIMELINE_CAPACITY);
            let outcome = sim.run_until_stably_ranked_timeline(budget, 4 * n as u64, &mut tl);
            write_timeline(path, tl.finish(n as u64), common, Self::NAME)?;
            outcome
        } else if policy.is_uniform_complete() {
            sim.run_until_stably_ranked(budget, 4 * n as u64)
        } else {
            sim.run_until_stably_ranked_scheduled(&policy, budget, 4 * n as u64)
        };
        let RunOutcome::Converged { interactions } = outcome else {
            return Err(CliError::DidNotConverge { interactions: outcome.interactions() });
        };
        match run.format {
            OutputFormat::Text => Ok(format!(
                "{name}: stabilized after {t:.1} parallel time ({interactions} interactions)\n\
                 {robustness}backend: counts — agents are anonymous; leaders: {leaders}, \
                 support: {support} distinct state(s)\n",
                name = common.protocol.name(),
                t = interactions as f64 / n as f64,
                robustness = robustness_text(robust, &spec),
                leaders = sim.leader_count(),
                support = sim.counts().support(),
            )),
            OutputFormat::Json => {
                let mut obj = JsonObject::new();
                obj.field_str("command", "simulate");
                obj.field_str("protocol", common.protocol.name());
                obj.field_str("backend", Self::NAME);
                obj.field_u64("n", n as u64);
                obj.field_u64("seed", common.seed);
                robustness_json(&mut obj, robust, &spec);
                obj.field_str("outcome", "converged");
                obj.field_u64("interactions", interactions);
                obj.field_f64("parallel_time", interactions as f64 / n as f64);
                obj.field_u64("leaders", sim.leader_count());
                obj.field_u64("support", sim.counts().support() as u64);
                Ok(obj.finish() + "\n")
            }
        }
    }
}

impl SimBackend<Loose> for Agents {
    fn report<M: MetricsSink>(run: &Run<'_>, job: Loose, sink: M) -> Result<String, CliError> {
        let (common, robust) = (run.common, run.robust);
        let n = common.n;
        let policy = robust.policy(n)?;
        let spec = policy.spec();
        let mut sim = Simulation::with_policy(job.protocol, job.initial, policy, common.seed)
            .with_reliability(robust.reliability())
            .with_metrics(sink);
        let outcome = sim.run_until(job.budget, |s| LooselyStabilizingLe::leader_count(s) == 1);
        let RunOutcome::Converged { interactions } = outcome else {
            return Err(CliError::DidNotConverge { interactions: outcome.interactions() });
        };
        let leader = sim.states().iter().position(|s| s.leader).expect("one leader");
        match run.format {
            OutputFormat::Text => Ok(format!(
                "{name} (T_max = {t_max}): unique leader after {t:.1} parallel time — agent {leader}\n\
                 {robustness}(loose stabilization: the leader is held for a long but finite time)\n",
                name = common.protocol.name(),
                t_max = job.t_max,
                t = interactions as f64 / n as f64,
                robustness = robustness_text(robust, &spec),
            )),
            OutputFormat::Json => {
                let mut obj = JsonObject::new();
                obj.field_str("command", "simulate");
                obj.field_str("protocol", common.protocol.name());
                obj.field_u64("n", n as u64);
                obj.field_u64("seed", common.seed);
                robustness_json(&mut obj, robust, &spec);
                obj.field_u64("t_max", job.t_max as u64);
                obj.field_str("outcome", "converged");
                obj.field_u64("interactions", interactions);
                obj.field_f64("parallel_time", interactions as f64 / n as f64);
                obj.field_u64("leader", leader as u64);
                Ok(obj.finish() + "\n")
            }
        }
    }
}

impl SimBackend<Loose> for Counts {
    /// Converges when the leader-state count across the multiset reaches
    /// one.
    fn report<M: MetricsSink>(run: &Run<'_>, job: Loose, sink: M) -> Result<String, CliError> {
        let (common, robust) = (run.common, run.robust);
        let n = common.n;
        let policy = robust.policy(n)?;
        let spec = policy.spec();
        let mut sim = BatchSimulation::new(job.protocol, job.initial, common.seed)
            .with_reliability(robust.reliability())
            .with_metrics(sink);
        let outcome = if policy.is_uniform_complete() {
            sim.run_until(job.budget, |counts| {
                counts.iter().filter(|(s, _)| s.leader).map(|(_, c)| c).sum::<u64>() == 1
            })
        } else {
            sim.run_until_scheduled(&policy, job.budget, |_, states| {
                states.iter().filter(|s| s.leader).count() == 1
            })
        };
        let RunOutcome::Converged { interactions } = outcome else {
            return Err(CliError::DidNotConverge { interactions: outcome.interactions() });
        };
        match run.format {
            OutputFormat::Text => Ok(format!(
                "{name} (T_max = {t_max}): unique leader after {t:.1} parallel time\n\
                 {robustness}backend: counts — agents are anonymous; support: {support} distinct state(s)\n\
                 (loose stabilization: the leader is held for a long but finite time)\n",
                name = common.protocol.name(),
                t_max = job.t_max,
                t = interactions as f64 / n as f64,
                robustness = robustness_text(robust, &spec),
                support = sim.counts().support(),
            )),
            OutputFormat::Json => {
                let mut obj = JsonObject::new();
                obj.field_str("command", "simulate");
                obj.field_str("protocol", common.protocol.name());
                obj.field_str("backend", Self::NAME);
                obj.field_u64("n", n as u64);
                obj.field_u64("seed", common.seed);
                robustness_json(&mut obj, robust, &spec);
                obj.field_u64("t_max", job.t_max as u64);
                obj.field_str("outcome", "converged");
                obj.field_u64("interactions", interactions);
                obj.field_f64("parallel_time", interactions as f64 / n as f64);
                obj.field_u64("support", sim.counts().support() as u64);
                Ok(obj.finish() + "\n")
            }
        }
    }
}

/// Renders a closure certificate as a report line.
fn certificate_text(cert: &ClosureCertificate) -> String {
    match &cert.violation {
        None => format!(
            "closure certificate: holds — no output changed over {} interactions under {}\n",
            cert.window, cert.scheduler,
        ),
        Some(v) => format!(
            "closure certificate: VIOLATED — agent {} changed output at interaction {}\n",
            v.agent, v.at,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_protocol_simulates() {
        for p in ["ciw", "optimal-silent", "sublinear", "tree-ranking", "loose"] {
            let out = run(&args(&["--protocol", p, "--n", "8", "--seed", "5"]))
                .unwrap_or_else(|e| panic!("{p}: {e}"));
            assert!(out.contains("leader"), "{p}: {out}");
        }
    }

    #[test]
    fn collision_start_converges() {
        let out = run(&args(&["--protocol", "ciw", "--n", "8", "--start", "collision"])).unwrap();
        assert!(out.contains("stabilized"));
    }

    #[test]
    fn ranked_start_converges_immediately() {
        let out = run(&args(&["--protocol", "ciw", "--n", "8", "--start", "ranked"])).unwrap();
        assert!(out.contains("stabilized after 0.0 parallel time"), "{out}");
    }

    #[test]
    fn bad_start_is_rejected() {
        assert!(matches!(run(&args(&["--start", "sideways"])), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn tiny_budget_reports_non_convergence() {
        assert!(matches!(
            run(&args(&["--protocol", "ciw", "--n", "12", "--max-time", "0.001"])),
            Err(CliError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn json_format_emits_a_parseable_flat_prefix() {
        let out = run(&args(&[
            "--protocol",
            "optimal-silent",
            "--n",
            "6",
            "--seed",
            "2",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.starts_with("{\"command\":\"simulate\""), "{out}");
        assert!(out.contains("\"outcome\":\"converged\""), "{out}");
        assert!(out.contains("\"ranking\":["), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
    }

    #[test]
    fn loose_json_reports_the_leader() {
        let out = run(&args(&["--protocol", "loose", "--n", "8", "--format", "json"])).unwrap();
        assert!(out.contains("\"t_max\":"), "{out}");
        assert!(out.contains("\"leader\":"), "{out}");
    }

    #[test]
    fn bad_format_is_rejected() {
        assert!(matches!(run(&args(&["--format", "xml"])), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn counts_backend_simulates_every_hashable_protocol() {
        for p in ["ciw", "optimal-silent", "tree-ranking", "loose"] {
            let out =
                run(&args(&["--protocol", p, "--n", "8", "--seed", "5", "--backend", "counts"]))
                    .unwrap_or_else(|e| panic!("{p}: {e}"));
            assert!(out.contains("counts"), "{p}: {out}");
        }
    }

    #[test]
    fn counts_backend_rejects_sublinear() {
        assert!(matches!(
            run(&args(&["--protocol", "sublinear", "--n", "8", "--backend", "counts"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn counts_backend_json_reports_support_and_leaders() {
        let out = run(&args(&[
            "--protocol",
            "optimal-silent",
            "--n",
            "6",
            "--backend",
            "counts",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"backend\":\"counts\""), "{out}");
        assert!(out.contains("\"leaders\":1"), "{out}");
        // A stably ranked OSS configuration holds n distinct states.
        assert!(out.contains("\"support\":6"), "{out}");
    }

    #[test]
    fn unknown_backend_is_rejected() {
        assert!(matches!(run(&args(&["--backend", "quantum"])), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn zipf_scheduler_with_omission_runs_on_both_backends() {
        for backend in ["agents", "counts"] {
            let out = run(&args(&[
                "--protocol",
                "ciw",
                "--n",
                "8",
                "--seed",
                "5",
                "--backend",
                backend,
                "--scheduler",
                "zipf",
                "--omission",
                "0.2",
                "--format",
                "json",
            ]))
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert!(out.contains("\"scheduler\":\"zipf:1\""), "{backend}: {out}");
            assert!(out.contains("\"omission\":0.2"), "{backend}: {out}");
            assert!(out.contains("\"outcome\":\"converged\""), "{backend}: {out}");
        }
    }

    #[test]
    fn adversarial_text_report_names_the_scheduler() {
        let out =
            run(&args(&["--protocol", "optimal-silent", "--n", "8", "--scheduler", "starve:2:64"]))
                .unwrap();
        assert!(out.contains("scheduler: starve:2:64"), "{out}");
    }

    #[test]
    fn loose_counts_supports_nonuniform_schedulers() {
        let out = run(&args(&[
            "--protocol",
            "loose",
            "--n",
            "8",
            "--backend",
            "counts",
            "--scheduler",
            "clustered:2:0.2",
        ]))
        .unwrap();
        assert!(out.contains("clustered:2:0.2"), "{out}");
    }

    #[test]
    fn certify_emits_a_holding_certificate() {
        let out = run(&args(&[
            "--protocol",
            "optimal-silent",
            "--n",
            "6",
            "--certify",
            "1.0",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"certificate_holds\":true"), "{out}");
        assert!(out.contains("\"certificate_window\":"), "{out}");
        let text = run(&args(&["--protocol", "ciw", "--n", "6", "--certify", "0.5"])).unwrap();
        assert!(text.contains("closure certificate: holds"), "{text}");
    }

    #[test]
    fn certify_rejects_unsupported_modes() {
        assert!(matches!(
            run(&args(&["--certify", "1.0", "--backend", "counts"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&["--protocol", "loose", "--certify", "1.0"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(run(&args(&["--certify", "-3"])), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn bad_scheduler_and_omission_are_rejected() {
        assert!(matches!(run(&args(&["--scheduler", "quantum"])), Err(CliError::BadValue { .. })));
        assert!(matches!(run(&args(&["--omission", "1.5"])), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn timeline_writes_matching_v4_rows_on_both_backends() {
        for backend in ["agents", "counts"] {
            let path = std::env::temp_dir()
                .join(format!("ssle-simulate-timeline-{}-{backend}.jsonl", std::process::id()));
            let path_s = path.to_str().unwrap().to_string();
            let out = run(&args(&[
                "--protocol",
                "ciw",
                "--n",
                "8",
                "--seed",
                "5",
                "--backend",
                backend,
                "--timeline",
                &path_s,
            ]))
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert!(out.contains("stabilized"), "{backend}: {out}");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let lines = population::record::from_jsonl_mixed(&text).unwrap();
            assert!(!lines.is_empty(), "{backend}: empty timeline");
            let rows: Vec<_> = lines
                .into_iter()
                .map(|l| match l {
                    RecordLine::Timeline(r) => r,
                    other => panic!("{backend}: unexpected record {other:?}"),
                })
                .collect();
            // The sealed final checkpoint describes the stabilized run.
            let last = rows.last().unwrap();
            assert_eq!(last.leaders, 1, "{backend}");
            assert_eq!(last.ranks_ok, 8, "{backend}");
            // Checkpoint grids are identical across backends by construction;
            // the seed is fixed, so the first row is always t=0.
            assert_eq!(rows[0].interactions, 0, "{backend}");
            assert_eq!(rows[0].backend, backend, "{backend}");
        }
    }

    #[test]
    fn timeline_rejects_unsupported_modes() {
        assert!(matches!(
            run(&args(&["--protocol", "loose", "--n", "8", "--timeline", "/tmp/x.jsonl"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&[
                "--protocol",
                "ciw",
                "--n",
                "8",
                "--backend",
                "counts",
                "--scheduler",
                "zipf",
                "--timeline",
                "/tmp/x.jsonl",
            ])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn metrics_writes_a_v5_row_on_both_backends() {
        for backend in ["agents", "counts"] {
            let path = std::env::temp_dir()
                .join(format!("ssle-simulate-metrics-{}-{backend}.jsonl", std::process::id()));
            let path_s = path.to_str().unwrap().to_string();
            let out = run(&args(&[
                "--protocol",
                "ciw",
                "--n",
                "8",
                "--seed",
                "5",
                "--backend",
                backend,
                "--metrics",
                &path_s,
            ]))
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert!(out.contains("stabilized"), "{backend}: {out}");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let lines = population::record::from_jsonl_mixed(&text).unwrap();
            assert_eq!(lines.len(), 1, "{backend}: one row per run");
            let row = match lines.into_iter().next().unwrap() {
                RecordLine::Metrics(r) => r,
                other => panic!("{backend}: unexpected record {other:?}"),
            };
            assert_eq!(row.experiment, "simulate", "{backend}");
            assert_eq!(row.protocol, "ciw", "{backend}");
            assert_eq!(row.backend, backend, "{backend}");
            assert_eq!(row.n, 8, "{backend}");
            assert!(row.interactions > 0, "{backend}: {row:?}");
            match backend {
                // The agent backend draws one RNG word per interaction on
                // the complete graph (one joint pair draw, rejected with
                // probability below 2⁻⁵⁸ at n = 8) and never batches.
                "agents" => {
                    assert_eq!(row.rng_draws, row.interactions, "{row:?}");
                    assert_eq!(row.batches, 0, "{row:?}");
                }
                // The counts backend resolves every interaction through the
                // memo (CIW interactions are deterministic); the ranked
                // workload runs entirely on the exact per-interaction
                // fallback — a ranked configuration has n distinct states,
                // so batching cannot help.
                _ => {
                    assert_eq!(row.memo_hits + row.memo_misses, row.interactions, "{row:?}");
                    assert_eq!(row.exact_steps, row.interactions, "{row:?}");
                    assert_eq!(row.batches, 0, "{row:?}");
                }
            }
        }
    }

    #[test]
    fn metrics_instrument_the_loose_protocol_too() {
        let path = std::env::temp_dir()
            .join(format!("ssle-simulate-metrics-loose-{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        run(&args(&["--protocol", "loose", "--n", "8", "--seed", "3", "--metrics", &path_s]))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines = population::record::from_jsonl_mixed(&text).unwrap();
        match lines.as_slice() {
            [RecordLine::Metrics(r)] => {
                assert_eq!(r.protocol, "loose");
                assert!(r.interactions > 0, "{r:?}");
            }
            other => panic!("unexpected rows {other:?}"),
        }
    }

    /// The loose workload drives the counts backend through the lumped
    /// batched loop, so its metrics carry a batch-size histogram.
    #[test]
    fn loose_counts_metrics_record_batches() {
        let path = std::env::temp_dir()
            .join(format!("ssle-simulate-metrics-loose-counts-{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        run(&args(&[
            "--protocol",
            "loose",
            "--n",
            "64",
            "--seed",
            "3",
            "--backend",
            "counts",
            "--metrics",
            &path_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines = population::record::from_jsonl_mixed(&text).unwrap();
        match lines.as_slice() {
            [RecordLine::Metrics(r)] => {
                assert_eq!(r.backend, "counts");
                assert!(r.batches > 0, "{r:?}");
                assert!(r.batched_pairs > 0, "{r:?}");
                assert!(r.batch_hist.is_some(), "{r:?}");
            }
            other => panic!("unexpected rows {other:?}"),
        }
    }

    #[test]
    fn metrics_reject_counts_with_a_nonuniform_scheduler() {
        assert!(matches!(
            run(&args(&[
                "--protocol",
                "ciw",
                "--n",
                "8",
                "--backend",
                "counts",
                "--scheduler",
                "zipf",
                "--metrics",
                "/tmp/x.jsonl",
            ])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&[
                "--protocol",
                "loose",
                "--n",
                "8",
                "--backend",
                "counts",
                "--scheduler",
                "zipf",
                "--metrics",
                "/tmp/x.jsonl",
            ])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn ranking_lists_all_ranks() {
        let out = run(&args(&["--protocol", "optimal-silent", "--n", "6"])).unwrap();
        for r in 1..=6 {
            assert!(out.contains(&format!("{r}→")), "missing rank {r} in {out}");
        }
    }

    #[test]
    fn churn_runs_on_both_backends() {
        for backend in ["agents", "counts"] {
            let out = run(&args(&[
                "--protocol",
                "optimal-silent",
                "--n",
                "8",
                "--seed",
                "5",
                "--backend",
                backend,
                "--churn",
                "join:2@3,leave:2@6",
                "--max-time",
                "40",
            ]))
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert!(out.contains("under dynamics"), "{backend}: {out}");
            assert!(out.contains("2 join(s), 2 leave(s)"), "{backend}: {out}");
            assert!(out.contains("final population 8"), "{backend}: {out}");
        }
    }

    #[test]
    fn byzantine_json_reports_strikes_and_availability() {
        let out = run(&args(&[
            "--protocol",
            "ciw",
            "--n",
            "8",
            "--seed",
            "5",
            "--byzantine",
            "0.2",
            "--max-time",
            "30",
            "--format",
            "json",
        ]))
        .unwrap();
        let fields = population::record::parse_flat_json(out.trim()).unwrap();
        match fields.get("byz_strikes").unwrap() {
            population::record::JsonScalar::Num(s) => assert!(*s > 0.0, "{out}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(fields.contains_key("availability"), "{out}");
        assert!(fields.contains_key("ranked_availability"), "{out}");
        assert!(out.contains("\"byzantine\":0.2"), "{out}");
    }

    #[test]
    fn sustained_churn_runs_the_sublinear_protocol() {
        let out = run(&args(&[
            "--protocol",
            "sublinear",
            "--n",
            "8",
            "--seed",
            "3",
            "--churn",
            "0.05",
            "--max-time",
            "20",
        ]))
        .unwrap();
        assert!(out.contains("replacement(s)"), "{out}");
    }

    #[test]
    fn dynamics_runs_are_deterministic() {
        let go = || {
            run(&args(&[
                "--protocol",
                "ciw",
                "--n",
                "8",
                "--seed",
                "9",
                "--churn",
                "0.1",
                "--byzantine",
                "0.1",
                "--max-time",
                "25",
                "--format",
                "json",
            ]))
            .unwrap()
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn churn_rejects_unsupported_combinations() {
        // No corruption model → no dynamics.
        for p in ["tree-ranking", "loose"] {
            assert!(matches!(
                run(&args(&["--protocol", p, "--n", "8", "--churn", "1.0"])),
                Err(CliError::BadValue { .. })
            ));
        }
        // Sublinear states are unhashable on the counts backend.
        assert!(matches!(
            run(&args(&[
                "--protocol",
                "sublinear",
                "--n",
                "8",
                "--backend",
                "counts",
                "--churn",
                "1.0",
            ])),
            Err(CliError::BadValue { .. })
        ));
        // Dynamics run on the uniform scheduler with perfect channels only.
        assert!(matches!(
            run(&args(&["--protocol", "ciw", "--n", "8", "--churn", "1.0", "--scheduler", "zipf"])),
            Err(CliError::BadValue { .. })
        ));
        // No closure certificates, timelines, or metrics under churn.
        assert!(matches!(
            run(&args(&["--protocol", "ciw", "--n", "8", "--churn", "1.0", "--certify", "2"])),
            Err(CliError::BadValue { .. })
        ));
        // Malformed spec and out-of-range fraction.
        assert!(matches!(
            run(&args(&["--protocol", "ciw", "--n", "8", "--churn", "warp:1@2"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&["--protocol", "ciw", "--n", "8", "--byzantine", "1.5"])),
            Err(CliError::BadValue { .. })
        ));
    }
}
