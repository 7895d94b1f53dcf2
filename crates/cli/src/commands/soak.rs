//! `ssle soak` — sustained fault injection against a ranking protocol.
//!
//! Runs the chaos harness with a *repeating* fault plan: every `1 /
//! --fault-rate` parallel-time units the configured corruption hits the
//! population, for `--time` parallel-time units per trial. The report is an
//! availability summary — what fraction of the execution had a unique
//! leader (and a fully correct ranking), how many faults fired, and how
//! fast the protocol recovered from them. This is the operational
//! counterpart of the paper's worst-case stabilization bounds: a
//! self-stabilizing protocol under a sustained fault rate spends a
//! predictable fraction of its time re-converging.

use population::record::{to_jsonl_mixed, RecordLine};
use std::hash::Hash;

use population::{
    AnyScheduler, BatchSimulation, ByzantineSet, ChaosTrialOutcome, ChurnPlan, Corruptor,
    DynamicsTrialOutcome, FaultAction, FaultPlan, FaultSize, Metrics, MetricsSink, NoopMetrics,
    Progress, Protocol, Reliability, Runner, SchedulerPolicy, Simulation, TrialSeeds,
    TrialSettings,
};
use rand::Rng;
use ssle::adversary;
use ssle::{CaiIzumiWada, OptimalSilentSsr, SublinearTimeSsr};

use crate::commands::{parse_flags, OutputFormat};
use crate::error::CliError;
use crate::protocol_choice::{BackendChoice, CommonFlags, ProtocolChoice, RobustnessFlags};

/// Runs the subcommand:
/// `ssle soak --protocol <p> --n <agents> [--fault-rate <per unit time>]
/// [--fault-size <k|sqrt|frac|all>] [--action <kind>] [--time <t>]
/// [--trials <t>] [--threads <w>] [--seed <u64>] [--h <depth>]
/// [--progress 1] [--json-out <path>] [--metrics <path>]
/// [--format text|json]`.
///
/// With `--metrics <path>`, trials run through the instrumented engines and
/// the file receives one schema-v5 `"kind":"metrics"` row per trial plus a
/// merged cross-trial row (`trial: null`); render it with
/// `ssle report --metrics <path>`. Outcomes are unchanged — the sinks
/// observe the RNG stream without touching it.
///
/// # Errors
///
/// Returns [`CliError::BadValue`] for invalid flag values (including a
/// protocol without a mid-run corruption model, or `--metrics` combined
/// with a non-default scheduler/omission model) and [`CliError::BadFlag`]
/// for unknown flags.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(
        args,
        &[
            "protocol",
            "n",
            "h",
            "seed",
            "fault-rate",
            "fault-size",
            "action",
            "time",
            "trials",
            "threads",
            "backend",
            "json-out",
            "format",
            "scheduler",
            "omission",
            "progress",
            "metrics",
            "churn",
            "byzantine",
        ],
    )?;
    let common = CommonFlags::from_flags(&flags, ProtocolChoice::OptimalSilent)?;
    let backend = BackendChoice::from_flags(&flags)?;
    let format = OutputFormat::from_flags(&flags)?;
    let robust = RobustnessFlags::from_flags(&flags)?;
    robust.policy(common.n)?;
    if !robust.is_default() && backend == BackendChoice::Counts {
        return Err(CliError::BadValue {
            flag: "backend".into(),
            reason: "non-default --scheduler/--omission soaks run on the agents backend".into(),
        });
    }
    let metrics_path = flags.try_get_str("metrics").map(str::to_string);
    if metrics_path.is_some() && !robust.is_default() {
        return Err(CliError::BadValue {
            flag: "metrics".into(),
            reason: "soak metrics instrument the uniform complete scheduler only; drop \
                     --scheduler/--omission to profile a soak"
                .into(),
        });
    }
    let collect_metrics = metrics_path.is_some();
    let churn_spec = flags.try_get_str("churn").unwrap_or("none").trim().to_string();
    let byzantine: f64 = flags.get("byzantine", 0.0);
    // The plan seed here is a placeholder: every trial draws its own churn
    // and Byzantine seeds from the per-trial config RNG.
    let churn = ChurnPlan::parse(&churn_spec, 0)
        .map_err(|reason| CliError::BadValue { flag: "churn".into(), reason })?;
    if byzantine != 0.0 && !(byzantine.is_finite() && (0.0..1.0).contains(&byzantine)) {
        return Err(CliError::BadValue {
            flag: "byzantine".into(),
            reason: format!("byzantine fraction {byzantine} must lie in [0, 1)"),
        });
    }
    let dynamics = !churn.is_empty() || byzantine > 0.0;
    if dynamics && !robust.is_default() {
        return Err(CliError::BadValue {
            flag: "churn".into(),
            reason: "dynamic-population soaks run on the uniform complete scheduler with \
                     perfect channels; drop --scheduler/--omission"
                .into(),
        });
    }
    if dynamics && collect_metrics {
        return Err(CliError::BadValue {
            flag: "metrics".into(),
            reason: "--metrics is not available under churn or Byzantine agents".into(),
        });
    }
    let rate: f64 = flags.get("fault-rate", 0.02);
    // A zero fault rate is meaningful only when churn/Byzantine events
    // supply the disturbance: membership alone drives the soak.
    let rate_floor_ok = if dynamics { rate >= 0.0 } else { rate > 0.0 };
    if !(rate.is_finite() && rate_floor_ok) {
        return Err(CliError::BadValue {
            flag: "fault-rate".into(),
            reason: "the fault rate must be a positive number of faults per parallel-time unit \
                     (0 is allowed when --churn/--byzantine provide the disturbance)"
                .into(),
        });
    }
    let size = parse_fault_size(flags.try_get_str("fault-size").unwrap_or("1"))?;
    let action = parse_action(flags.try_get_str("action").unwrap_or("corrupt-random"), size)?;
    let time: f64 = flags.get("time", 1_000.0);
    if !(time > 0.0 && time.is_finite()) {
        return Err(CliError::BadValue {
            flag: "time".into(),
            reason: "the soak duration must be a positive parallel time".into(),
        });
    }
    let trials: u64 = flags.get("trials", 4);
    if trials == 0 {
        return Err(CliError::BadValue {
            flag: "trials".into(),
            reason: "must be positive".into(),
        });
    }
    // `--progress 1` prints a per-trial heartbeat to stderr; trials then run
    // sequentially so completions arrive in order (outcomes are identical —
    // per-trial seeds do not depend on scheduling).
    let progress = flags.get::<u64>("progress", 0) != 0;
    let n = common.n;
    let budget = (time * n as f64).ceil() as u64;
    let soak = Soak {
        runner: Runner::new(TrialSettings::new(trials, common.seed, budget, 0)),
        threads: flags.threads(),
        progress,
        metrics: collect_metrics,
        robust: &robust,
        // Fault plans stay optional under dynamics: membership events open
        // their own recovery clocks.
        fault_period: (rate > 0.0).then_some(1.0 / rate),
        action,
        churn: dynamics.then_some((&churn, byzantine)),
    };
    let outcomes = match (common.protocol, backend) {
        (ProtocolChoice::Ciw, BackendChoice::Agents) => {
            soak.trials(|| CaiIzumiWada::new(n), Agents)
        }
        (ProtocolChoice::Ciw, BackendChoice::Counts) => {
            soak.trials(|| CaiIzumiWada::new(n), Counts)
        }
        (ProtocolChoice::OptimalSilent, BackendChoice::Agents) => {
            soak.trials(|| OptimalSilentSsr::new(n), Agents)
        }
        (ProtocolChoice::OptimalSilent, BackendChoice::Counts) => {
            soak.trials(|| OptimalSilentSsr::new(n), Counts)
        }
        (ProtocolChoice::Sublinear, BackendChoice::Agents) => {
            soak.trials(|| SublinearTimeSsr::new(n, common.h), Agents)
        }
        (ProtocolChoice::Sublinear, BackendChoice::Counts) => {
            return Err(CliError::BadValue {
                flag: "backend".into(),
                reason: "sublinear states are not hashable; the counts backend soaks \
                         ciw or optimal-silent"
                    .into(),
            })
        }
        (other, _) => {
            return Err(CliError::BadValue {
                flag: "protocol".into(),
                reason: format!(
                    "{other:?} has no mid-run corruption model; pick ciw, optimal-silent, \
                     or sublinear"
                ),
            })
        }
    };
    let (outcomes, trial_metrics) = match outcomes {
        SoakOutcomes::Chaos(outcomes, trial_metrics) => (outcomes, trial_metrics),
        SoakOutcomes::Dynamics(outcomes) => {
            if let Some(path) = flags.try_get_str("json-out") {
                let h = protocol_h(common.protocol, common.h);
                let label = protocol_label(common.protocol);
                let mut records: Vec<RecordLine> = Vec::new();
                for o in &outcomes {
                    records.push(RecordLine::Churn(o.churn_record(
                        "soak",
                        label,
                        backend.label(),
                        h,
                        common.seed,
                        &churn_spec,
                        byzantine,
                    )));
                    records.extend(
                        o.fault_records("soak", label, h, common.seed)
                            .into_iter()
                            .map(RecordLine::Fault),
                    );
                }
                std::fs::write(path, to_jsonl_mixed(&records)).map_err(|e| CliError::Report {
                    path: path.to_string(),
                    reason: e.to_string(),
                })?;
            }
            return Ok(match format {
                OutputFormat::Text => {
                    render_dynamics_text(&common, rate, &churn_spec, byzantine, time, &outcomes)
                }
                OutputFormat::Json => {
                    render_dynamics_json(&common, rate, &churn_spec, byzantine, time, &outcomes)
                }
            });
        }
    };

    if let Some(path) = &metrics_path {
        // One schema-v5 row per trial plus a merged cross-trial row
        // (`trial: null`) so `ssle report --metrics` can render both the
        // per-trial spread and the aggregate in one pass.
        let label = protocol_label(common.protocol);
        let mut records: Vec<RecordLine> = Vec::new();
        let mut merged = Metrics::new();
        let mut merged_wall = 0.0;
        for (o, m) in outcomes.iter().zip(&trial_metrics) {
            merged.merge_from(m);
            let wall = o.wall.as_secs_f64();
            merged_wall += wall;
            records.push(RecordLine::Metrics(m.to_record(
                "soak",
                label,
                backend.label(),
                n as u64,
                Some(o.trial),
                common.seed,
                wall,
            )));
        }
        records.push(RecordLine::Metrics(merged.to_record(
            "soak",
            label,
            backend.label(),
            n as u64,
            None,
            common.seed,
            merged_wall,
        )));
        std::fs::write(path, to_jsonl_mixed(&records))
            .map_err(|e| CliError::Report { path: path.to_string(), reason: e.to_string() })?;
    }

    if let Some(path) = flags.try_get_str("json-out") {
        let h = protocol_h(common.protocol, common.h);
        let label = protocol_label(common.protocol);
        let policy = robust.policy(common.n)?;
        let mut records: Vec<RecordLine> = Vec::new();
        for o in &outcomes {
            // `with_robustness` normalizes the uniform/perfect baseline to
            // absent fields, so default soaks serialize as before.
            records.push(RecordLine::Trial(
                o.trial_record("soak", label, h, common.seed).with_robustness(
                    Some(policy.spec()),
                    Some(robust.omission),
                    policy.starve_window(),
                ),
            ));
            records.extend(
                o.fault_records("soak", label, h, common.seed).into_iter().map(RecordLine::Fault),
            );
        }
        std::fs::write(path, to_jsonl_mixed(&records))
            .map_err(|e| CliError::Report { path: path.to_string(), reason: e.to_string() })?;
    }

    match format {
        OutputFormat::Text => Ok(render_text(&common, &robust, rate, action, time, &outcomes)),
        OutputFormat::Json => Ok(render_json(&common, &robust, rate, action, time, &outcomes)),
    }
}

/// The `h` field soak records carry (depth for the sublinear protocol).
fn protocol_h(protocol: ProtocolChoice, h: u32) -> Option<u64> {
    (protocol == ProtocolChoice::Sublinear).then_some(h as u64)
}

/// The short protocol name soak records carry.
fn protocol_label(protocol: ProtocolChoice) -> &'static str {
    match protocol {
        ProtocolChoice::Ciw => "ciw",
        ProtocolChoice::OptimalSilent => "oss",
        ProtocolChoice::Sublinear => "sublinear",
        ProtocolChoice::TreeRanking => "tree-ranking",
        ProtocolChoice::Loose => "loose",
    }
}

/// Parses `--fault-size`: an integer count, a fraction in `(0, 1)`, `sqrt`,
/// or `all`.
fn parse_fault_size(value: &str) -> Result<FaultSize, CliError> {
    if value == "sqrt" {
        return Ok(FaultSize::Sqrt);
    }
    if value == "all" {
        return Ok(FaultSize::All);
    }
    if let Ok(k) = value.parse::<usize>() {
        if k > 0 {
            return Ok(FaultSize::Exact(k));
        }
    }
    if let Ok(f) = value.parse::<f64>() {
        if f > 0.0 && f < 1.0 {
            return Ok(FaultSize::Fraction(f));
        }
    }
    Err(CliError::BadValue {
        flag: "fault-size".into(),
        reason: format!(
            "{value:?} is not a positive agent count, a fraction in (0, 1), sqrt, or all"
        ),
    })
}

/// Parses `--action` into a [`FaultAction`], attaching the `--fault-size`
/// where the action is sized.
fn parse_action(name: &str, size: FaultSize) -> Result<FaultAction, CliError> {
    match name {
        "corrupt-random" | "corrupt_random" => Ok(FaultAction::CorruptRandom(size)),
        "duplicate-leader" | "duplicate_leader" => Ok(FaultAction::DuplicateLeader),
        "collide" => Ok(FaultAction::Collide(size)),
        "partial-reset" | "partial_reset" => Ok(FaultAction::PartialReset(size)),
        "randomize" => Ok(FaultAction::Randomize),
        other => Err(CliError::BadValue {
            flag: "action".into(),
            reason: format!(
                "{other:?} is not one of corrupt-random, duplicate-leader, collide, \
                 partial-reset, randomize"
            ),
        }),
    }
}

/// The heartbeat detail for one finished trial.
fn soak_detail(o: &ChaosTrialOutcome) -> String {
    format!(
        "trial {}: {} fault(s), avail {:.3}",
        o.trial,
        o.report.faults.len(),
        o.report.availability()
    )
}

/// [`soak_detail`] plus engine throughput, for instrumented soaks: the
/// interactions-per-second figure comes from the metrics counters rather
/// than the meter's own budget arithmetic, so it reflects work actually
/// performed.
fn soak_metrics_detail(o: &ChaosTrialOutcome, m: &Metrics) -> String {
    let wall = o.wall.as_secs_f64();
    let ips = if wall > 0.0 {
        format!("{:.2e}", m.total_interactions() as f64 / wall)
    } else {
        "-".into()
    };
    format!("{}, {ips} ips", soak_detail(o))
}

/// What a soak measured: chaos trials (with one metrics sink per trial
/// when instrumented, none otherwise) or dynamic-population trials.
enum SoakOutcomes {
    Chaos(Vec<ChaosTrialOutcome>, Vec<Metrics>),
    Dynamics(Vec<DynamicsTrialOutcome>),
}

/// One soak's settings: every trial starts from an adversarial random
/// configuration and runs a fixed interaction budget under a repeating
/// fault plan — plus churn and Byzantine agents when `churn` is set.
struct Soak<'a> {
    runner: Runner,
    threads: usize,
    progress: bool,
    /// Attach a recording metrics sink to every trial (uniform complete
    /// scheduling only — `run` rejects the combination otherwise).
    metrics: bool,
    robust: &'a RobustnessFlags,
    /// Parallel time between faults; `None` for a fault-free dynamics soak.
    fault_period: Option<f64>,
    action: FaultAction,
    /// The churn plan (its seed a placeholder) and Byzantine fraction of a
    /// dynamic-population soak.
    churn: Option<(&'a ChurnPlan, f64)>,
}

/// One trial's inputs, drawn from its config RNG.
struct SoakTrial<P: Protocol> {
    seeds: TrialSeeds,
    protocol: P,
    initial: Vec<P::State>,
    plan: FaultPlan,
    churn: ChurnPlan,
    byzantine: ByzantineSet,
}

/// A backend a soak runs on. The soak's trial bodies are generic over it,
/// so each is written once; implementors only build the execution.
trait SoakBackend<P: Corruptor>: Sync {
    /// Runs one chaos trial with `sink` attached.
    fn chaos<M: MetricsSink>(&self, soak: &Soak, t: SoakTrial<P>, sink: M) -> ChaosTrialOutcome;

    /// Runs one dynamic-population trial.
    fn dynamics(&self, soak: &Soak, t: SoakTrial<P>) -> DynamicsTrialOutcome;
}

/// The agent array. Default robustness flags keep the uniform complete
/// scheduler, so uniform/perfect soaks stay bit-identical with earlier
/// releases; Byzantine agents are pinned.
struct Agents;

impl<P: Corruptor> SoakBackend<P> for Agents {
    fn chaos<M: MetricsSink>(&self, soak: &Soak, t: SoakTrial<P>, sink: M) -> ChaosTrialOutcome {
        let (trial, budget) = (t.seeds.trial, soak.budget());
        if soak.robust.is_default() {
            let sim = Simulation::new(t.protocol, t.initial, t.seeds.execution).with_metrics(sink);
            return ChaosTrialOutcome::measure(trial, &mut sim.with_fault_plan(&t.plan), budget);
        }
        let policy = AnyScheduler::from_spec(&soak.robust.scheduler, t.initial.len())
            .expect("scheduler spec validated before dispatch");
        let sim = Simulation::with_policy(t.protocol, t.initial, policy, t.seeds.execution)
            .with_reliability(Reliability::with_omission(soak.robust.omission))
            .with_metrics(sink);
        ChaosTrialOutcome::measure(trial, &mut sim.with_fault_plan(&t.plan), budget)
    }

    fn dynamics(&self, soak: &Soak, t: SoakTrial<P>) -> DynamicsTrialOutcome {
        let sim = Simulation::new(t.protocol, t.initial, t.seeds.execution);
        let mut sim = sim.with_fault_plan(&t.plan);
        DynamicsTrialOutcome::measure(
            t.seeds.trial,
            &mut sim,
            &t.churn,
            &t.byzantine,
            soak.budget(),
        )
    }
}

/// The count-based backend: faults are injected by materializing the
/// multiset, corrupting, and recompressing; Byzantine agents follow the
/// lumped model, since counts have no identities to pin. `run` restricts
/// it to the uniform complete scheduler.
struct Counts;

impl<P> SoakBackend<P> for Counts
where
    P: Corruptor,
    P::State: Eq + Hash,
{
    fn chaos<M: MetricsSink>(&self, soak: &Soak, t: SoakTrial<P>, sink: M) -> ChaosTrialOutcome {
        let sim = BatchSimulation::new(t.protocol, t.initial, t.seeds.execution).with_metrics(sink);
        ChaosTrialOutcome::measure(t.seeds.trial, &mut sim.with_fault_plan(&t.plan), soak.budget())
    }

    fn dynamics(&self, soak: &Soak, t: SoakTrial<P>) -> DynamicsTrialOutcome {
        let sim = BatchSimulation::new(t.protocol, t.initial, t.seeds.execution);
        let mut sim = sim.with_fault_plan(&t.plan);
        DynamicsTrialOutcome::measure(
            t.seeds.trial,
            &mut sim,
            &t.churn,
            &t.byzantine,
            soak.budget(),
        )
    }
}

impl Soak<'_> {
    /// The per-trial interaction budget.
    fn budget(&self) -> u64 {
        self.runner.settings().max_interactions
    }

    /// Draws one trial's start, fault plan, churn plan and Byzantine set
    /// from its config RNG.
    fn draw<P: Corruptor>(&self, protocol: P, seeds: TrialSeeds) -> SoakTrial<P> {
        let mut rng = seeds.config_rng();
        let initial = adversary::random_configuration(&protocol, &mut rng);
        let plan = match self.fault_period {
            Some(period) => FaultPlan::new(rng.gen()).every_parallel_time(period, self.action),
            None => FaultPlan::none(),
        };
        let (churn, byzantine) = match self.churn {
            Some((churn, fraction)) => (
                ChurnPlan { seed: rng.gen(), ..churn.clone() },
                ByzantineSet { fraction, seed: rng.gen() },
            ),
            None => (ChurnPlan::none(), ByzantineSet::none()),
        };
        SoakTrial { seeds, protocol, initial, plan, churn, byzantine }
    }

    /// Runs every trial of `make_protocol` on `backend`.
    fn trials<P, B>(&self, make_protocol: impl Fn() -> P + Sync, backend: B) -> SoakOutcomes
    where
        P: Corruptor,
        B: SoakBackend<P>,
    {
        let trial = |s| self.draw(make_protocol(), s);
        if self.churn.is_some() {
            let body = |s| backend.dynamics(self, trial(s));
            return SoakOutcomes::Dynamics(self.run(body, dynamics_detail));
        }
        if self.metrics {
            let body = |s| {
                let mut m = Metrics::new();
                (backend.chaos(self, trial(s), &mut m), m)
            };
            let (outcomes, metrics) =
                self.run(body, |(o, m)| soak_metrics_detail(o, m)).into_iter().unzip();
            return SoakOutcomes::Chaos(outcomes, metrics);
        }
        let body = |s| backend.chaos(self, trial(s), NoopMetrics);
        SoakOutcomes::Chaos(self.run(body, soak_detail), Vec::new())
    }

    /// Runs every trial through `body`, printing `detail` of each finished
    /// trial in the `--progress` heartbeat. Heartbeat and instrumented
    /// soaks run trials one at a time, so completions arrive live and each
    /// trial's section timers see the machine to themselves.
    fn run<T: Send>(
        &self,
        body: impl Fn(TrialSeeds) -> T + Sync,
        detail: impl Fn(&T) -> String,
    ) -> Vec<T> {
        let (trials, budget) = (self.runner.settings().trials, self.budget());
        let mut meter = if self.progress {
            Progress::new("soak", trials.saturating_mul(budget), "interactions")
        } else {
            Progress::disabled()
        };
        let threads = if self.progress || self.metrics { 1 } else { self.threads };
        let mut done = 0u64;
        let out = self.runner.run(threads, body, |o| {
            done += 1;
            if meter.is_enabled() {
                meter.tick(done.saturating_mul(budget), &detail(o));
            }
        });
        meter.finish(trials.saturating_mul(budget), "done");
        out
    }
}

/// The heartbeat detail for one finished dynamics trial.
fn dynamics_detail(o: &DynamicsTrialOutcome) -> String {
    format!(
        "trial {}: n {}→{}, {} strike(s), avail {:.3}",
        o.trial,
        o.n,
        o.report.final_n,
        o.report.byz_strikes,
        o.report.chaos.availability()
    )
}

fn render_dynamics_text(
    common: &CommonFlags,
    rate: f64,
    churn_spec: &str,
    byzantine: f64,
    time: f64,
    outcomes: &[DynamicsTrialOutcome],
) -> String {
    let spec = if churn_spec.is_empty() { "none" } else { churn_spec };
    let fault_line = if rate > 0.0 {
        format!("faults every {:.1} parallel-time units (rate {rate}); ", 1.0 / rate)
    } else {
        String::new()
    };
    let mut out = format!(
        "soak under dynamics: {}, n = {}, seed {}\nchurn \"{spec}\", byzantine {byzantine}; \
         {fault_line}{} trial(s) × {time} time units\n\n",
        common.protocol.name(),
        common.n,
        common.seed,
        outcomes.len(),
    );
    out.push_str(&format!(
        "{:>6} {:>8} {:>6} {:>7} {:>9} {:>8} {:>7} {:>10} {:>13}\n",
        "trial",
        "final-n",
        "joins",
        "leaves",
        "replaced",
        "strikes",
        "faults",
        "avail",
        "ranked-avail"
    ));
    for o in outcomes {
        out.push_str(&format!(
            "{:>6} {:>8} {:>6} {:>7} {:>9} {:>8} {:>7} {:>10.3} {:>13.3}\n",
            o.trial,
            o.report.final_n,
            o.report.joins,
            o.report.leaves,
            o.report.replacements,
            o.report.byz_strikes,
            o.report.chaos.faults.len(),
            o.report.chaos.availability(),
            o.report.chaos.ranked_availability(),
        ));
    }
    let trials = outcomes.len().max(1) as f64;
    let avail = outcomes.iter().map(|o| o.report.chaos.availability()).sum::<f64>() / trials;
    let ranked =
        outcomes.iter().map(|o| o.report.chaos.ranked_availability()).sum::<f64>() / trials;
    let faults: usize = outcomes.iter().map(|o| o.report.chaos.faults.len()).sum();
    let recovered: usize = outcomes.iter().map(|o| o.report.chaos.recovered()).sum();
    let recoveries: Vec<f64> =
        outcomes.iter().filter_map(|o| o.report.chaos.mean_recovery_parallel_time()).collect();
    let rec = if recoveries.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1} parallel time", recoveries.iter().sum::<f64>() / recoveries.len() as f64)
    };
    out.push_str(&format!(
        "\naggregate: leader available {:.1}% of the time (fully ranked {:.1}%)\n\
         {faults} fault(s) fired (incl. membership events), {recovered} recovered from; \
         E[recovery] {rec}\n",
        100.0 * avail,
        100.0 * ranked,
    ));
    out
}

fn render_dynamics_json(
    common: &CommonFlags,
    rate: f64,
    churn_spec: &str,
    byzantine: f64,
    time: f64,
    outcomes: &[DynamicsTrialOutcome],
) -> String {
    use population::record::JsonObject;
    let trials = outcomes.len().max(1) as f64;
    let recoveries: Vec<f64> =
        outcomes.iter().filter_map(|o| o.report.chaos.mean_recovery_parallel_time()).collect();
    let mut obj = JsonObject::new();
    obj.field_str("command", "soak");
    obj.field_str("protocol", protocol_label(common.protocol));
    obj.field_u64("n", common.n as u64);
    obj.field_u64("seed", common.seed);
    obj.field_str("churn", if churn_spec.is_empty() { "none" } else { churn_spec });
    obj.field_f64("byzantine", byzantine);
    obj.field_f64("fault_rate", rate);
    obj.field_f64("time", time);
    obj.field_u64("trials", outcomes.len() as u64);
    obj.field_u64("joins", outcomes.iter().map(|o| o.report.joins).sum());
    obj.field_u64("leaves", outcomes.iter().map(|o| o.report.leaves).sum());
    obj.field_u64("replacements", outcomes.iter().map(|o| o.report.replacements).sum());
    obj.field_u64("byz_strikes", outcomes.iter().map(|o| o.report.byz_strikes).sum());
    obj.field_u64("faults", outcomes.iter().map(|o| o.report.chaos.faults.len() as u64).sum());
    obj.field_u64("recovered", outcomes.iter().map(|o| o.report.chaos.recovered() as u64).sum());
    obj.field_f64(
        "availability",
        outcomes.iter().map(|o| o.report.chaos.availability()).sum::<f64>() / trials,
    );
    obj.field_f64(
        "ranked_availability",
        outcomes.iter().map(|o| o.report.chaos.ranked_availability()).sum::<f64>() / trials,
    );
    if recoveries.is_empty() {
        obj.field_null("mean_recovery_time");
    } else {
        obj.field_f64(
            "mean_recovery_time",
            recoveries.iter().sum::<f64>() / recoveries.len() as f64,
        );
    }
    let mut out = obj.finish();
    out.push('\n');
    out
}

/// Means over the batch used by both output formats.
struct SoakStats {
    availability: f64,
    ranked_availability: f64,
    faults: u64,
    recovered: u64,
    mean_recovery: Option<f64>,
}

fn stats(outcomes: &[ChaosTrialOutcome]) -> SoakStats {
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let recoveries: Vec<f64> =
        outcomes.iter().filter_map(|o| o.report.mean_recovery_parallel_time()).collect();
    SoakStats {
        availability: mean(outcomes.iter().map(|o| o.report.availability()).collect()),
        ranked_availability: mean(
            outcomes.iter().map(|o| o.report.ranked_availability()).collect(),
        ),
        faults: outcomes.iter().map(|o| o.report.faults.len() as u64).sum(),
        recovered: outcomes.iter().map(|o| o.report.recovered() as u64).sum(),
        mean_recovery: (!recoveries.is_empty()).then(|| mean(recoveries)),
    }
}

fn render_text(
    common: &CommonFlags,
    robust: &RobustnessFlags,
    rate: f64,
    action: FaultAction,
    time: f64,
    outcomes: &[ChaosTrialOutcome],
) -> String {
    let mut out = format!(
        "soak: {}, n = {}, seed {}\nfault plan: {} every {:.1} parallel-time units \
         (rate {rate}); {} trial(s) × {time} time units\n",
        common.protocol.name(),
        common.n,
        common.seed,
        action.label(),
        1.0 / rate,
        outcomes.len(),
    );
    if !robust.is_default() {
        out.push_str(&format!(
            "scheduler: {}, omission rate: {}\n",
            robust.scheduler, robust.omission
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:>6} {:>7} {:>10} {:>13} {:>13} {:>14}\n",
        "trial", "faults", "recovered", "avail", "ranked-avail", "E[recovery]"
    ));
    for o in outcomes {
        let rec =
            o.report.mean_recovery_parallel_time().map_or("-".to_string(), |r| format!("{r:.1}"));
        out.push_str(&format!(
            "{:>6} {:>7} {:>10} {:>13.3} {:>13.3} {:>14}\n",
            o.trial,
            o.report.faults.len(),
            o.report.recovered(),
            o.report.availability(),
            o.report.ranked_availability(),
            rec,
        ));
    }
    let s = stats(outcomes);
    let rec = s.mean_recovery.map_or("-".to_string(), |r| format!("{r:.1} parallel time"));
    out.push_str(&format!(
        "\naggregate: leader available {:.1}% of the time (fully ranked {:.1}%)\n\
         {} fault(s) fired, {} recovered from; E[recovery] {rec}\n",
        100.0 * s.availability,
        100.0 * s.ranked_availability,
        s.faults,
        s.recovered,
    ));
    out
}

fn render_json(
    common: &CommonFlags,
    robust: &RobustnessFlags,
    rate: f64,
    action: FaultAction,
    time: f64,
    outcomes: &[ChaosTrialOutcome],
) -> String {
    use population::record::JsonObject;
    let s = stats(outcomes);
    let mut obj = JsonObject::new();
    obj.field_str("command", "soak");
    obj.field_str("protocol", protocol_label(common.protocol));
    obj.field_u64("n", common.n as u64);
    obj.field_u64("seed", common.seed);
    obj.field_str("scheduler", &robust.scheduler);
    obj.field_f64("omission", robust.omission);
    obj.field_str("action", action.label());
    obj.field_f64("fault_rate", rate);
    obj.field_f64("time", time);
    obj.field_u64("trials", outcomes.len() as u64);
    obj.field_u64("faults", s.faults);
    obj.field_u64("recovered", s.recovered);
    obj.field_f64("availability", s.availability);
    obj.field_f64("ranked_availability", s.ranked_availability);
    match s.mean_recovery {
        Some(r) => obj.field_f64("mean_recovery_time", r),
        None => obj.field_null("mean_recovery_time"),
    };
    let mut out = obj.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn soak_reports_availability_for_each_protocol() {
        for protocol in ["ciw", "optimal-silent", "sublinear"] {
            let out = run(&args(&[
                "--protocol",
                protocol,
                "--n",
                "16",
                "--time",
                "200",
                "--fault-rate",
                "0.05",
                "--trials",
                "2",
                "--seed",
                "3",
            ]))
            .unwrap();
            assert!(out.contains("aggregate: leader available"), "{protocol}: {out}");
            assert!(out.contains("fault(s) fired"), "{protocol}: {out}");
        }
    }

    #[test]
    fn counts_backend_soaks_the_hashable_protocols() {
        for protocol in ["ciw", "optimal-silent"] {
            let out = run(&args(&[
                "--protocol",
                protocol,
                "--n",
                "16",
                "--time",
                "200",
                "--fault-rate",
                "0.05",
                "--trials",
                "2",
                "--seed",
                "3",
                "--backend",
                "counts",
            ]))
            .unwrap();
            assert!(out.contains("aggregate: leader available"), "{protocol}: {out}");
            assert!(out.contains("fault(s) fired"), "{protocol}: {out}");
        }
        assert!(matches!(
            run(&args(&["--protocol", "sublinear", "--n", "8", "--backend", "counts"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn soak_is_deterministic_in_the_seed() {
        let a = &args(&["--n", "16", "--time", "150", "--trials", "2", "--seed", "9"]);
        assert_eq!(run(a).unwrap(), run(a).unwrap());
    }

    #[test]
    fn progress_soak_reports_identical_outcomes() {
        // The observed sequential runners derive per-trial seeds exactly
        // like the parallel ones, so `--progress 1` must not change the
        // report — on any backend or scheduling regime.
        for extra in
            [vec![], vec!["--backend", "counts"], vec!["--scheduler", "zipf", "--omission", "0.1"]]
        {
            let base = ["--n", "16", "--time", "150", "--trials", "2", "--seed", "9"];
            let plain: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
            let observed: Vec<&str> = plain.iter().copied().chain(["--progress", "1"]).collect();
            assert_eq!(run(&args(&plain)).unwrap(), run(&args(&observed)).unwrap(), "{extra:?}");
        }
    }

    #[test]
    fn soak_rejects_protocols_without_a_corruption_model() {
        for protocol in ["loose", "tree-ranking"] {
            assert!(matches!(
                run(&args(&["--protocol", protocol, "--n", "8"])),
                Err(CliError::BadValue { .. })
            ));
        }
    }

    #[test]
    fn soak_validates_rate_size_and_action() {
        assert!(matches!(
            run(&args(&["--n", "8", "--fault-rate", "0"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&["--n", "8", "--fault-size", "0"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&["--n", "8", "--action", "meteor"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn zero_trials_are_rejected_on_chaos_and_churn_soaks() {
        // An empty batch would report availability as the mean of nothing.
        let paths: [&[&str]; 4] = [
            &[],
            &["--backend", "counts"],
            &["--churn", "0.1", "--fault-rate", "0"],
            &["--churn", "0.1", "--backend", "counts", "--format", "json"],
        ];
        for extra in paths {
            let mut all = vec!["--n", "8", "--trials", "0"];
            all.extend_from_slice(extra);
            let err = run(&args(&all)).unwrap_err();
            assert_eq!(err.to_string(), "invalid --trials: must be positive", "{extra:?}");
        }
    }

    #[test]
    fn fault_sizes_parse() {
        assert_eq!(parse_fault_size("3").unwrap(), FaultSize::Exact(3));
        assert_eq!(parse_fault_size("sqrt").unwrap(), FaultSize::Sqrt);
        assert_eq!(parse_fault_size("all").unwrap(), FaultSize::All);
        assert!(matches!(parse_fault_size("0.25").unwrap(), FaultSize::Fraction(_)));
        assert!(parse_fault_size("-1").is_err());
        assert!(parse_fault_size("1.5").is_err());
    }

    #[test]
    fn json_format_emits_one_summary_object() {
        let out = run(&args(&["--n", "16", "--time", "150", "--trials", "2", "--format", "json"]))
            .unwrap();
        let fields = population::record::parse_flat_json(out.trim()).unwrap();
        assert!(fields.contains_key("availability"), "{out}");
        assert!(fields.contains_key("faults"), "{out}");
    }

    #[test]
    fn adversarial_soak_reports_and_records_the_scheduler() {
        let out = run(&args(&[
            "--n",
            "16",
            "--time",
            "200",
            "--fault-rate",
            "0.05",
            "--trials",
            "2",
            "--seed",
            "3",
            "--scheduler",
            "zipf",
            "--omission",
            "0.1",
        ]))
        .unwrap();
        assert!(out.contains("scheduler: zipf"), "{out}");
        assert!(out.contains("omission rate: 0.1"), "{out}");
        assert!(out.contains("aggregate: leader available"), "{out}");

        let path = std::env::temp_dir().join("ssle_soak_sched_records.jsonl");
        let path_s = path.to_string_lossy().into_owned();
        run(&args(&[
            "--n",
            "16",
            "--time",
            "200",
            "--trials",
            "1",
            "--scheduler",
            "starve:2:64",
            "--json-out",
            &path_s,
            "--format",
            "json",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"scheduler\":\"starve:2:64\""), "{text}");
        assert!(text.contains("\"starve_window\":64"), "{text}");
    }

    #[test]
    fn counts_backend_rejects_nonuniform_soaks() {
        assert!(matches!(
            run(&args(&["--n", "8", "--backend", "counts", "--scheduler", "zipf"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            run(&args(&["--n", "8", "--backend", "counts", "--omission", "0.2"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn metrics_soak_writes_per_trial_and_merged_rows() {
        for backend in ["agents", "counts"] {
            let path = std::env::temp_dir().join(format!("ssle_soak_metrics_{backend}.jsonl"));
            let path_s = path.to_string_lossy().into_owned();
            run(&args(&[
                "--n",
                "16",
                "--time",
                "200",
                "--fault-rate",
                "0.05",
                "--trials",
                "2",
                "--seed",
                "3",
                "--backend",
                backend,
                "--metrics",
                &path_s,
            ]))
            .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let rows: Vec<_> = population::record::from_jsonl_mixed(&text)
                .unwrap()
                .into_iter()
                .filter_map(|l| match l {
                    RecordLine::Metrics(m) => Some(m),
                    _ => None,
                })
                .collect();
            assert_eq!(rows.len(), 3, "{backend}: 2 per-trial rows + 1 merged: {text}");
            assert_eq!(rows[0].trial, Some(0), "{backend}");
            assert_eq!(rows[1].trial, Some(1), "{backend}");
            let merged = &rows[2];
            assert_eq!(merged.trial, None, "{backend}");
            assert_eq!(merged.experiment, "soak", "{backend}");
            assert_eq!(merged.backend, backend, "{backend}");
            assert_eq!(
                merged.interactions,
                rows[0].interactions + rows[1].interactions,
                "{backend}: the merged row sums the per-trial counters"
            );
            assert!(merged.interactions > 0, "{backend}");
        }
    }

    #[test]
    fn metrics_soak_reports_identical_outcomes() {
        // The instrumented runners must observe the RNG stream without
        // perturbing it: a soak with --metrics reports exactly what the
        // uninstrumented soak reports, on both backends.
        for backend in ["agents", "counts"] {
            let path =
                std::env::temp_dir().join(format!("ssle_soak_metrics_neutral_{backend}.jsonl"));
            let path_s = path.to_string_lossy().into_owned();
            let base = [
                "--n",
                "16",
                "--time",
                "150",
                "--trials",
                "2",
                "--seed",
                "9",
                "--backend",
                backend,
            ];
            let plain: Vec<&str> = base.to_vec();
            let instrumented: Vec<&str> =
                base.iter().copied().chain(["--metrics", &path_s]).collect();
            assert_eq!(
                run(&args(&plain)).unwrap(),
                run(&args(&instrumented)).unwrap(),
                "{backend}"
            );
        }
    }

    #[test]
    fn metrics_soak_rejects_nonuniform_schedulers() {
        for extra in [["--scheduler", "zipf"], ["--omission", "0.1"]] {
            let base = ["--n", "8", "--metrics", "m.jsonl"];
            let all: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
            assert!(matches!(run(&args(&all)), Err(CliError::BadValue { .. })), "{extra:?}");
        }
    }

    #[test]
    fn churn_soak_reports_on_both_backends() {
        for backend in ["agents", "counts"] {
            let out = run(&args(&[
                "--protocol",
                "optimal-silent",
                "--n",
                "16",
                "--time",
                "150",
                "--trials",
                "2",
                "--seed",
                "3",
                "--backend",
                backend,
                "--churn",
                "0.1",
                "--byzantine",
                "0.05",
            ]))
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert!(out.contains("soak under dynamics"), "{backend}: {out}");
            assert!(out.contains("churn \"0.1\", byzantine 0.05"), "{backend}: {out}");
            assert!(out.contains("aggregate: leader available"), "{backend}: {out}");
        }
    }

    #[test]
    fn churn_soak_allows_a_zero_fault_rate() {
        // Membership alone drives the soak; without dynamics a zero rate
        // stays rejected.
        let out = run(&args(&[
            "--n",
            "16",
            "--time",
            "150",
            "--trials",
            "2",
            "--fault-rate",
            "0",
            "--churn",
            "replace:2@20",
        ]))
        .unwrap();
        assert!(!out.contains("faults every"), "{out}");
        assert!(matches!(
            run(&args(&["--n", "16", "--fault-rate", "0"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn churn_soak_is_deterministic_and_progress_neutral() {
        let base = [
            "--n",
            "16",
            "--time",
            "150",
            "--trials",
            "2",
            "--seed",
            "9",
            "--churn",
            "0.1",
            "--byzantine",
            "0.1",
        ];
        let plain: Vec<&str> = base.to_vec();
        let observed: Vec<&str> = base.iter().copied().chain(["--progress", "1"]).collect();
        let a = run(&args(&plain)).unwrap();
        assert_eq!(a, run(&args(&plain)).unwrap());
        assert_eq!(a, run(&args(&observed)).unwrap());
    }

    #[test]
    fn churn_soak_json_out_writes_churn_and_fault_rows() {
        let path = std::env::temp_dir().join("ssle_soak_churn_records.jsonl");
        let path_s = path.to_string_lossy().into_owned();
        let out = run(&args(&[
            "--n",
            "16",
            "--time",
            "150",
            "--trials",
            "2",
            "--seed",
            "3",
            "--churn",
            "0.2",
            "--json-out",
            &path_s,
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"churn\":\"0.2\""), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = population::record::from_jsonl_mixed(&text).unwrap();
        let churn_rows: Vec<_> = lines
            .iter()
            .filter_map(|l| match l {
                RecordLine::Churn(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(churn_rows.len(), 2, "{text}");
        assert_eq!(churn_rows[0].churn, "0.2");
        assert!(churn_rows.iter().all(|c| c.replacements > 0), "{text}");
        // Membership events double as fault rows with the "replace" label.
        assert!(
            lines.iter().any(|l| matches!(l, RecordLine::Fault(f) if f.action == "replace")),
            "{text}"
        );
    }

    #[test]
    fn churn_soak_rejects_unsupported_combinations() {
        for extra in [
            ["--scheduler", "zipf"],
            ["--omission", "0.1"],
            ["--metrics", "m.jsonl"],
            ["--byzantine", "1.5"],
        ] {
            let base = ["--n", "8", "--churn", "0.1"];
            let all: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
            assert!(matches!(run(&args(&all)), Err(CliError::BadValue { .. })), "{extra:?}");
        }
        assert!(matches!(
            run(&args(&["--n", "8", "--churn", "warp:1@2"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn json_out_writes_a_mixed_record_stream() {
        let path = std::env::temp_dir().join("ssle_soak_records.jsonl");
        let path_s = path.to_string_lossy().into_owned();
        run(&args(&[
            "--n",
            "16",
            "--time",
            "200",
            "--fault-rate",
            "0.05",
            "--trials",
            "2",
            "--json-out",
            &path_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = population::record::from_jsonl_mixed(&text).unwrap();
        assert!(lines.iter().any(|l| matches!(l, RecordLine::Trial(_))));
        assert!(lines.iter().any(|l| matches!(l, RecordLine::Fault(_))));
    }
}
