//! `ssle trace` — sample a time series of the population's state mix.

use population::probe::{record_series, to_csv_table, Series};
use population::record::JsonObject;
use population::runner::rng_from_seed;
use population::{RankTracker, RankingProtocol, Simulation};
use ssle::adversary;
use ssle::cai_izumi_wada::CaiIzumiWada;
use ssle::loose::{LooseState, LooselyStabilizingLe};
use ssle::optimal_silent::{OptimalSilentSsr, OssState};
use ssle::reset::ResetView;
use ssle::sublinear::{SubState, SublinearTimeSsr};

use crate::commands::{parse_flags, OutputFormat};
use crate::error::CliError;
use crate::protocol_choice::{CommonFlags, ProtocolChoice};

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, &["protocol", "n", "h", "seed", "time", "every", "format"])?;
    let common = CommonFlags::from_flags(&flags, ProtocolChoice::OptimalSilent)?;
    let time: f64 = flags.get("time", 40.0);
    if time <= 0.0 {
        return Err(CliError::BadValue { flag: "time".into(), reason: "must be positive".into() });
    }
    let every: u64 = flags.get("every", (common.n / 2).max(1) as u64);
    if every == 0 {
        return Err(CliError::BadValue { flag: "every".into(), reason: "must be positive".into() });
    }
    let interactions = (time * common.n as f64) as u64;
    let format = OutputFormat::from_flags(&flags)?;

    let header = format!(
        "# trace: {} at n = {}, seed {}, {} parallel time\n",
        common.protocol.name(),
        common.n,
        common.seed,
        time
    );
    let series = match common.protocol {
        ProtocolChoice::Ciw => {
            let p = CaiIzumiWada::new(common.n);
            let initial =
                adversary::random_ciw_configuration(&p, &mut rng_from_seed(common.seed ^ 1));
            let mut sim = Simulation::new(p, initial, common.seed);
            let protocol = *sim.protocol();
            record_series(
                &mut sim,
                interactions,
                every,
                &mut [
                    ("leaders", Box::new(move |s: &[_]| count_leaders(&protocol, s))),
                    ("distinct_ranks", Box::new(move |s: &[_]| distinct_ranks(&protocol, s))),
                ],
            )
        }
        ProtocolChoice::OptimalSilent => {
            let p = OptimalSilentSsr::new(common.n);
            let initial =
                adversary::random_oss_configuration(&p, &mut rng_from_seed(common.seed ^ 1));
            let mut sim = Simulation::new(p, initial, common.seed);
            record_series(
                &mut sim,
                interactions,
                every,
                &mut [
                    (
                        "settled",
                        Box::new(|s: &[OssState]| {
                            s.iter().filter(|x| matches!(x, OssState::Settled { .. })).count()
                                as f64
                        }),
                    ),
                    (
                        "unsettled",
                        Box::new(|s: &[OssState]| {
                            s.iter().filter(|x| matches!(x, OssState::Unsettled { .. })).count()
                                as f64
                        }),
                    ),
                    (
                        "resetting",
                        Box::new(|s: &[OssState]| {
                            s.iter().filter(|x| x.is_resetting()).count() as f64
                        }),
                    ),
                ],
            )
        }
        ProtocolChoice::Sublinear => {
            let p = SublinearTimeSsr::new(common.n, common.h);
            let initial =
                adversary::random_sublinear_configuration(&p, &mut rng_from_seed(common.seed ^ 1));
            let mut sim = Simulation::new(p, initial, common.seed);
            record_series(
                &mut sim,
                interactions,
                every,
                &mut [
                    (
                        "collecting",
                        Box::new(|s: &[SubState]| {
                            s.iter().filter(|x| x.collecting().is_some()).count() as f64
                        }),
                    ),
                    (
                        "resetting",
                        Box::new(|s: &[SubState]| {
                            s.iter().filter(|x| x.is_resetting()).count() as f64
                        }),
                    ),
                    (
                        "max_roster",
                        Box::new(|s: &[SubState]| {
                            s.iter()
                                .filter_map(|x| x.collecting().map(|c| c.roster.len()))
                                .max()
                                .unwrap_or(0) as f64
                        }),
                    ),
                ],
            )
        }
        ProtocolChoice::TreeRanking => {
            let p = ssle::initialized::TreeRanking::new(common.n);
            let initial = p.designated_configuration();
            let mut sim = Simulation::new(p, initial, common.seed);
            let protocol = *sim.protocol();
            record_series(
                &mut sim,
                interactions,
                every,
                &mut [("ranked", Box::new(move |s: &[_]| distinct_ranks(&protocol, s)))],
            )
        }
        ProtocolChoice::Loose => {
            let t_max = 8 * (common.n as f64).log2().ceil() as u32;
            let p = LooselyStabilizingLe::new(t_max);
            let initial = vec![p.follower_state(1); common.n];
            let mut sim = Simulation::new(p, initial, common.seed);
            record_series(
                &mut sim,
                interactions,
                every,
                &mut [
                    (
                        "leaders",
                        Box::new(|s: &[LooseState]| LooselyStabilizingLe::leader_count(s) as f64),
                    ),
                    (
                        "mean_timer",
                        Box::new(|s: &[LooseState]| {
                            s.iter().map(|x| x.timer as f64).sum::<f64>() / s.len() as f64
                        }),
                    ),
                ],
            )
        }
    };
    match format {
        OutputFormat::Text => Ok(header + &to_csv_table(&series)),
        OutputFormat::Json => Ok(render_json(&common, time, every, &series)),
    }
}

fn render_json(common: &CommonFlags, time: f64, every: u64, series: &[Series]) -> String {
    let mut obj = JsonObject::new();
    obj.field_str("command", "trace");
    obj.field_str("protocol", common.protocol.name());
    obj.field_u64("n", common.n as u64);
    obj.field_u64("seed", common.seed);
    obj.field_f64("time", time);
    obj.field_u64("every", every);
    for s in series {
        let points =
            s.points().iter().map(|&(t, v)| format!("[{t},{v}]")).collect::<Vec<_>>().join(",");
        obj.field_raw(s.label(), &format!("[{points}]"));
    }
    obj.finish() + "\n"
}

fn count_leaders<P: RankingProtocol>(p: &P, states: &[P::State]) -> f64 {
    states.iter().filter(|s| p.is_leader(s)).count() as f64
}

fn distinct_ranks<P: RankingProtocol>(p: &P, states: &[P::State]) -> f64 {
    let ranks = RankTracker::of_states(p, states);
    (ranks.rank_count() - ranks.missing_ranks()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_protocol_traces_csv() {
        for p in ["ciw", "optimal-silent", "sublinear", "tree-ranking", "loose"] {
            let out = run(&args(&["--protocol", p, "--n", "8", "--time", "5"]))
                .unwrap_or_else(|e| panic!("{p}: {e}"));
            let mut lines = out.lines();
            assert!(lines.next().unwrap().starts_with("# trace"));
            assert!(lines.next().unwrap().starts_with("time,"), "{p}: {out}");
            assert!(lines.count() >= 2, "{p} produced too few samples");
        }
    }

    #[test]
    fn ciw_trace_converges_to_full_rank_coverage() {
        let out = run(&args(&["--protocol", "ciw", "--n", "6", "--time", "2000"])).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.ends_with(",6"), "expected 6 distinct ranks at the end: {last}");
    }

    #[test]
    fn json_format_carries_every_series() {
        let out = run(&args(&[
            "--protocol",
            "optimal-silent",
            "--n",
            "8",
            "--time",
            "5",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.starts_with("{\"command\":\"trace\""), "{out}");
        for label in ["settled", "unsettled", "resetting"] {
            assert!(out.contains(&format!("\"{label}\":[[")), "missing {label}: {out}");
        }
        assert!(out.ends_with("}\n"), "{out}");
    }

    #[test]
    fn zero_time_is_rejected() {
        assert!(matches!(run(&args(&["--time", "0"])), Err(CliError::BadValue { .. })));
    }
}
