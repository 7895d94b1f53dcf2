//! Execution instrumentation: sampled time series and stabilization
//! certificates over a running simulation.
//!
//! Several of the paper's arguments are about *trajectories*, not just
//! hitting times — e.g. the trigger → propagating → dormant → awakening
//! phases of Propagate-Reset (Sec. 3), or the leader count decaying from
//! the all-leaders configuration. [`record_series`] samples arbitrary
//! configuration metrics at a fixed interaction cadence so those
//! trajectories can be plotted or asserted on.
//!
//! Self-stabilization is convergence **plus closure**: once the output
//! assignment is correct it must never be perturbed again, absent faults
//! (Sec. 2 of the paper). Convergence is what the run loops measure;
//! [`certify_ranking_closure`] and [`certify_leader_closure`] check the
//! other half empirically — after convergence they keep executing for a
//! configurable multiple of the observed convergence time (under whatever
//! scheduler the simulation carries, including the adversarial ones) and
//! certify that no agent's output ever changed. A protocol that merely
//! *passes through* correct configurations (e.g. a counting protocol
//! instantiated for the wrong population size) fails the certificate with
//! a concrete [`ClosureViolation`] witness.

use crate::fault::NoFaults;
use crate::metrics::MetricsSink;
use crate::observer::Observer;
use crate::protocol::{Protocol, RankingProtocol};
use crate::scheduler::SchedulerPolicy;
use crate::simulation::{RunOutcome, Simulation};

/// A sampled time series: `(parallel time, value)` points with a label.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sampled `(parallel time, value)` points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Appends a sample.
    pub fn push(&mut self, time: f64, value: f64) {
        self.points.push((time, value));
    }

    /// The final sampled value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// First parallel time at which the sampled value satisfied `pred`, if
    /// any.
    pub fn first_time(&self, mut pred: impl FnMut(f64) -> bool) -> Option<f64> {
        self.points.iter().find(|&&(_, v)| pred(v)).map(|&(t, _)| t)
    }

    /// Renders the series as CSV lines `time,value` with a header.
    pub fn to_csv(&self) -> String {
        let mut out = format!("time,{}\n", self.label);
        for &(t, v) in &self.points {
            out.push_str(&format!("{t},{v}\n"));
        }
        out
    }
}

/// Renders several equally-sampled series as one CSV table
/// (`time,label1,label2,…`).
///
/// # Panics
///
/// Panics if the series have different lengths or sampling times.
pub fn to_csv_table(series: &[Series]) -> String {
    let mut out = String::from("time");
    for s in series {
        out.push(',');
        out.push_str(&s.label);
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for (row, &(t, _)) in first.points.iter().enumerate() {
            out.push_str(&format!("{t}"));
            for s in series {
                assert_eq!(
                    s.points.len(),
                    first.points.len(),
                    "series must be sampled identically"
                );
                let (st, v) = s.points[row];
                assert_eq!(st, t, "series must be sampled at the same times");
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Runs `sim` for `interactions` further interactions, sampling each metric
/// every `every` interactions (including one sample of the starting
/// configuration and one after the final interaction).
///
/// Each metric is `(label, fn(&[State]) -> f64)`; returns one [`Series`] per
/// metric, all sampled at identical times (suitable for [`to_csv_table`]).
/// The simulation's observer (if any) sees each sampling burst as one batch.
///
/// Edge cases: a cadence larger than the budget degenerates to sampling only
/// the start and final configurations; a zero budget samples the starting
/// configuration once (it *is* the final configuration). The final
/// configuration is never sampled twice, even when `interactions` is a
/// multiple of `every`.
///
/// # Panics
///
/// Panics if `every == 0`.
#[allow(clippy::type_complexity)]
pub fn record_series<P: Protocol, O: Observer<P>>(
    sim: &mut Simulation<P, O>,
    interactions: u64,
    every: u64,
    metrics: &mut [(&str, Box<dyn FnMut(&[P::State]) -> f64 + '_>)],
) -> Vec<Series> {
    assert!(every > 0, "sampling cadence must be positive");
    let mut series: Vec<Series> = metrics.iter().map(|(label, _)| Series::new(*label)).collect();
    let sample =
        |sim: &Simulation<P, O>,
         series: &mut Vec<Series>,
         metrics: &mut [(&str, Box<dyn FnMut(&[P::State]) -> f64 + '_>)]| {
            let t = sim.parallel_time();
            for (s, (_, metric)) in series.iter_mut().zip(metrics.iter_mut()) {
                s.push(t, metric(sim.states()));
            }
        };
    sample(sim, &mut series, metrics);
    let mut done = 0;
    while done < interactions {
        let burst = every.min(interactions - done);
        sim.run(burst);
        done += burst;
        sample(sim, &mut series, metrics);
    }
    series
}

/// A witness that a converged output assignment was perturbed: closure does
/// **not** hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureViolation {
    /// Interaction count at which the perturbation was observed.
    pub at: u64,
    /// The agent whose output changed.
    pub agent: usize,
    /// The agent's output when the certificate window opened.
    pub before: Option<usize>,
    /// The agent's output after the perturbing interaction.
    pub after: Option<usize>,
}

/// The result of a closure-certification run: the converged output
/// assignment was re-executed for `window` further interactions and either
/// survived untouched ([`ClosureCertificate::holds`]) or was perturbed at a
/// recorded point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureCertificate {
    /// [`SchedulerPolicy::spec`] of the scheduler the window ran under.
    pub scheduler: String,
    /// Interaction count at which convergence was detected.
    pub converged_at: u64,
    /// Length of the certification window, in interactions.
    pub window: u64,
    /// The first observed perturbation, if any.
    pub violation: Option<ClosureViolation>,
}

impl ClosureCertificate {
    /// Whether the output assignment survived the whole window untouched.
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

/// Certification window length: `multiple ×` the observed convergence time,
/// floored at `min_window` (which also covers instantly-converged runs).
fn closure_window(converged_at: u64, multiple: f64, min_window: u64) -> u64 {
    assert!(multiple >= 0.0 && multiple.is_finite(), "window multiple must be finite and ≥ 0");
    let scaled = (converged_at as f64 * multiple).ceil();
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        min_window.max(scaled as u64)
    }
}

/// The shared certification loop: snapshots the converged per-agent output
/// assignment, then runs the window watching only the interacting pair.
fn certify_outputs<P, O, S, M>(
    sim: &mut Simulation<P, O, NoFaults, S, M>,
    converged_at: u64,
    multiple: f64,
    min_window: u64,
    output: impl Fn(&P, &P::State) -> Option<usize>,
) -> ClosureCertificate
where
    P: Protocol,
    O: Observer<P>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    let window = closure_window(converged_at, multiple, min_window);
    let assignment: Vec<Option<usize>> =
        sim.states().iter().map(|s| output(sim.protocol(), s)).collect();
    let end = sim.interactions().saturating_add(window);
    let mut violation = None;
    while sim.interactions() < end {
        // Only the two participants can change, so an O(1) check per
        // interaction catches the first deviation exactly.
        let (i, j) = sim.step();
        let at = sim.interactions();
        for agent in [i, j] {
            let now = output(sim.protocol(), &sim.states()[agent]);
            if now != assignment[agent] {
                violation =
                    Some(ClosureViolation { at, agent, before: assignment[agent], after: now });
                break;
            }
        }
        if violation.is_some() {
            break;
        }
    }
    ClosureCertificate { scheduler: sim.scheduler().spec(), converged_at, window, violation }
}

/// Empirically certifies **closure of the ranking output**: converges via
/// [`Simulation::run_until_stably_ranked`], then keeps executing for
/// `multiple ×` the observed convergence time (at least `min_window`
/// interactions) and checks after every interaction that no participant's
/// rank output changed.
///
/// The fault schedule is pinned to [`NoFaults`] — closure is a property of
/// the fault-free dynamics; recovery from faults is measured elsewhere
/// ([`crate::fault`]). The scheduler is whatever `sim` carries, so the
/// certificate can be demanded under the adversarial policies too.
///
/// Returns `Err` with the exhausted outcome when the run never converges
/// (no certificate can be issued either way).
pub fn certify_ranking_closure<P, O, S, M>(
    sim: &mut Simulation<P, O, NoFaults, S, M>,
    max_interactions: u64,
    confirm_window: u64,
    multiple: f64,
    min_window: u64,
) -> Result<ClosureCertificate, RunOutcome>
where
    P: RankingProtocol,
    O: Observer<P>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    let converged_at = match sim.run_until_stably_ranked(max_interactions, confirm_window) {
        RunOutcome::Converged { interactions } => interactions,
        exhausted => return Err(exhausted),
    };
    Ok(certify_outputs(sim, converged_at, multiple, min_window, |p, s| p.rank_of(s)))
}

/// [`certify_ranking_closure`] for leader election: converges to a unique
/// leader (via [`Simulation::run_until`] on the leader count), then watches
/// only the leader bit — an agent gaining or losing leadership during the
/// window is the violation. This is the check that catches a counting
/// protocol sized for the wrong population: it passes through unique-leader
/// configurations but keeps minting new leaders afterwards.
///
/// Returns `Err` with the exhausted outcome when no unique-leader
/// configuration is reached.
pub fn certify_leader_closure<P, O, S, M>(
    sim: &mut Simulation<P, O, NoFaults, S, M>,
    max_interactions: u64,
    multiple: f64,
    min_window: u64,
) -> Result<ClosureCertificate, RunOutcome>
where
    P: RankingProtocol,
    O: Observer<P>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    // Converge to a unique leader with an O(1)-per-interaction incremental
    // count (only the two participants can flip).
    let mut flags: Vec<bool> = sim.states().iter().map(|s| sim.protocol().is_leader(s)).collect();
    let mut leaders = flags.iter().filter(|&&f| f).count();
    let converged_at = loop {
        if leaders == 1 {
            break sim.interactions();
        }
        if sim.interactions() >= max_interactions {
            return Err(RunOutcome::Exhausted { interactions: sim.interactions() });
        }
        let (i, j) = sim.step();
        for agent in [i, j] {
            let now = sim.protocol().is_leader(&sim.states()[agent]);
            if now != flags[agent] {
                leaders = if now { leaders + 1 } else { leaders - 1 };
                flags[agent] = now;
            }
        }
    };
    Ok(certify_outputs(sim, converged_at, multiple, min_window, |p, s| {
        if p.is_leader(s) {
            Some(1)
        } else {
            None
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    use crate::test_support::ModRank;

    #[derive(Clone, Debug)]
    struct Counter(u64);
    struct Inc;
    impl Protocol for Inc {
        type State = Counter;
        fn interact(&self, a: &mut Counter, b: &mut Counter, _rng: &mut SmallRng) {
            a.0 += 1;
            b.0 += 1;
        }
    }

    fn total(states: &[Counter]) -> f64 {
        states.iter().map(|c| c.0 as f64).sum()
    }

    #[test]
    fn series_accessors() {
        let mut s = Series::new("x");
        assert_eq!(s.label(), "x");
        assert!(s.last_value().is_none());
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert_eq!(s.last_value(), Some(3.0));
        assert_eq!(s.first_time(|v| v > 2.0), Some(1.0));
        assert_eq!(s.first_time(|v| v > 5.0), None);
        assert_eq!(s.to_csv(), "time,x\n0,1\n1,3\n");
    }

    #[test]
    fn record_series_samples_start_and_end() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 1);
        let series = record_series(&mut sim, 10, 4, &mut [("total", Box::new(total))]);
        assert_eq!(series.len(), 1);
        let pts = series[0].points();
        // Samples at 0, 4, 8, 10 interactions.
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (0.0, 0.0));
        assert_eq!(pts.last().unwrap().1, 20.0, "10 interactions × 2 increments");
        assert!((pts.last().unwrap().0 - 2.5).abs() < 1e-12, "10 interactions / 4 agents");
    }

    #[test]
    fn record_series_handles_multiple_metrics() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 1);
        let series = record_series(
            &mut sim,
            8,
            4,
            &mut [("total", Box::new(total)), ("half", Box::new(|s: &[Counter]| total(s) / 2.0))],
        );
        assert_eq!(series.len(), 2);
        let csv = to_csv_table(&series);
        assert!(csv.starts_with("time,total,half\n"));
        assert_eq!(csv.lines().count(), 4, "header + 3 samples");
    }

    #[test]
    fn cadence_larger_than_budget_samples_start_and_end_only() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 1);
        let series = record_series(&mut sim, 3, 10, &mut [("total", Box::new(total))]);
        let pts = series[0].points();
        assert_eq!(pts.len(), 2, "start + final, nothing in between");
        assert_eq!(pts[0], (0.0, 0.0));
        assert_eq!(pts[1].1, 6.0, "3 interactions × 2 increments");
        assert_eq!(sim.interactions(), 3, "the burst was clipped to the budget");
    }

    #[test]
    fn zero_budget_samples_the_initial_configuration_once() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 1);
        let series = record_series(&mut sim, 0, 5, &mut [("total", Box::new(total))]);
        assert_eq!(series[0].points(), &[(0.0, 0.0)]);
        assert_eq!(sim.interactions(), 0, "no interactions were run");
    }

    #[test]
    fn final_configuration_is_sampled_exactly_once() {
        // Budget divisible by the cadence: the final burst must not produce
        // a duplicate sample at the same parallel time.
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 1);
        let series = record_series(&mut sim, 8, 4, &mut [("total", Box::new(total))]);
        let pts = series[0].points();
        assert_eq!(pts.len(), 3, "samples at 0, 4, 8 interactions");
        let final_t = pts.last().unwrap().0;
        assert_eq!(pts.iter().filter(|&&(t, _)| t == final_t).count(), 1);
        assert_eq!(sim.interactions(), 8);
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_is_rejected() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 2], 1);
        record_series(&mut sim, 4, 0, &mut [("total", Box::new(total))]);
    }

    #[test]
    fn csv_table_of_empty_series_list_is_header_only() {
        assert_eq!(to_csv_table(&[]), "time\n");
    }

    /// Converges through ranked configurations but keeps perturbing them:
    /// every interaction increments the responder, so no assignment is
    /// closed. The miniature of a protocol that is correct only
    /// transiently.
    #[derive(Clone)]
    struct DriftingClock {
        n: usize,
    }
    impl Protocol for DriftingClock {
        type State = usize;
        const DETERMINISTIC_INTERACT: bool = true;
        fn interact(&self, _a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
            *b = (*b + 1) % self.n;
        }
    }
    impl RankingProtocol for DriftingClock {
        fn population_size(&self) -> usize {
            self.n
        }
        fn rank_of(&self, s: &usize) -> Option<usize> {
            Some(s + 1)
        }
        fn is_leader(&self, s: &usize) -> bool {
            *s == 0
        }
    }

    #[test]
    fn closure_certificate_holds_for_a_self_stabilizing_protocol() {
        let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 3);
        let cert = certify_ranking_closure(&mut sim, 1_000_000, 16, 3.0, 1_000)
            .expect("ModRank converges well within the budget");
        assert!(cert.holds(), "{cert:?}");
        assert_eq!(cert.scheduler, "uniform");
        assert!(cert.window >= 1_000);
        assert!(cert.window >= 3 * cert.converged_at);
    }

    #[test]
    fn closure_certificate_holds_under_an_adversarial_scheduler() {
        use crate::scheduler::AnyScheduler;
        let policy = AnyScheduler::from_spec("starve:2:32", 8).unwrap();
        let mut sim = Simulation::with_policy(ModRank { n: 8 }, vec![0usize; 8], policy, 5);
        let cert = certify_ranking_closure(&mut sim, 4_000_000, 16, 2.0, 1_000)
            .expect("the epoch adversary is fairness-preserving");
        assert!(cert.holds(), "{cert:?}");
        assert_eq!(cert.scheduler, "starve:2:32");
    }

    #[test]
    fn closure_certificate_fails_with_a_witness_for_a_drifting_protocol() {
        // From a permutation the clock is instantly ranked (confirm window
        // 0), but the very next interaction perturbs the assignment.
        let mut sim = Simulation::new(DriftingClock { n: 8 }, (0..8).collect(), 7);
        let cert = certify_ranking_closure(&mut sim, 1_000, 0, 1.0, 100)
            .expect("a permutation start is already ranked");
        assert!(!cert.holds());
        let v = cert.violation.expect("the first interaction is the witness");
        assert_eq!(v.at, 1, "perturbed on the very first window interaction");
        assert_ne!(v.before, v.after);
    }

    #[test]
    fn leader_closure_catches_leadership_churn() {
        let mut sim = Simulation::new(DriftingClock { n: 8 }, (0..8).collect(), 9);
        let cert = certify_leader_closure(&mut sim, 10_000, 1.0, 1_000)
            .expect("a permutation start has a unique leader");
        assert!(!cert.holds(), "the clock keeps moving agents through state 0");
    }

    #[test]
    fn leader_closure_holds_for_a_self_stabilizing_protocol() {
        let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 11);
        let cert = certify_leader_closure(&mut sim, 1_000_000, 2.0, 1_000).expect("converges");
        assert!(cert.holds(), "{cert:?}");
    }

    #[test]
    fn unconverged_runs_yield_no_certificate() {
        // An all-equal start cannot rank within 0 interactions.
        let mut sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], 13);
        let err = certify_ranking_closure(&mut sim, 0, 0, 1.0, 10).unwrap_err();
        assert_eq!(err, RunOutcome::Exhausted { interactions: 0 });
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_window_multiple_is_rejected() {
        let mut sim = Simulation::new(ModRank { n: 4 }, (0..4).collect(), 1);
        let _ = certify_ranking_closure(&mut sim, 100, 0, f64::INFINITY, 1);
    }
}
