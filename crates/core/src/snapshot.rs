//! [`SnapshotProtocol`] implementations — which protocols can checkpoint.
//!
//! A protocol is snapshottable when its per-agent state is plain data with
//! a total, validating decoder. That covers:
//!
//! * [`CaiIzumiWada`] — a bare rank (`"3"`);
//! * [`OptimalSilentSsr`] — a tagged record (`"S:3:1"`, `"U:17"`,
//!   `"R:L:4:9"`);
//! * [`LooselyStabilizingLe`] — a leader bit and timer (`"L:40"`,
//!   `"F:12"`).
//!
//! Sublinear-Time-SSR is deliberately **not** snapshottable: its states
//! carry history trees of unbounded structure, and serializing them would
//! reproduce the protocol's quasi-exponential state-space bound on disk.
//!
//! Decoders validate against the protocol's parameter (rank ranges,
//! `children ≤ 2`) and reject rather than clamp — a malformed snapshot is
//! corruption, not an adversarial initial state. Countdown fields
//! (`errorcount`, `resetcount`, `delaytimer`, `timer`) accept any `u32`:
//! the self-stabilizing model already requires the transition function to
//! tolerate arbitrary values there.

use std::fmt::Write;

use population::snapshot::SnapshotProtocol;

use crate::cai_izumi_wada::{CaiIzumiWada, CiwState};
use crate::loose::{LooseState, LooselyStabilizingLe};
use crate::optimal_silent::{Leader, OssState};
use crate::reset::ResetCore;
use crate::OptimalSilentSsr;

fn parse_u32(text: &str, what: &str) -> Result<u32, String> {
    text.parse::<u32>().map_err(|e| format!("bad {what} {text:?}: {e}"))
}

impl SnapshotProtocol for CaiIzumiWada {
    const TAG: &'static str = "ciw";

    fn snapshot_param(&self) -> u64 {
        population::RankingProtocol::population_size(self) as u64
    }

    fn encode_state(&self, state: &CiwState, out: &mut String) {
        let _ = write!(out, "{}", state.rank);
    }

    fn decode_state(&self, text: &str) -> Result<CiwState, String> {
        let rank = parse_u32(text, "rank")?;
        let n = population::RankingProtocol::population_size(self) as u32;
        if rank >= n {
            return Err(format!("rank {rank} out of range for n = {n}"));
        }
        Ok(CiwState::new(rank))
    }
}

impl SnapshotProtocol for OptimalSilentSsr {
    const TAG: &'static str = "oss";

    fn snapshot_param(&self) -> u64 {
        population::RankingProtocol::population_size(self) as u64
    }

    fn encode_state(&self, state: &OssState, out: &mut String) {
        let _ = match state {
            OssState::Settled { rank, children } => write!(out, "S:{rank}:{children}"),
            OssState::Unsettled { errorcount } => write!(out, "U:{errorcount}"),
            OssState::Resetting { leader, core } => {
                let l = match leader {
                    Leader::L => "L",
                    Leader::F => "F",
                };
                write!(out, "R:{l}:{}:{}", core.resetcount, core.delaytimer)
            }
        };
    }

    fn decode_state(&self, text: &str) -> Result<OssState, String> {
        let mut parts = text.split(':');
        let tag = parts.next().unwrap_or("");
        let fields: Vec<&str> = parts.collect();
        match (tag, fields.as_slice()) {
            ("S", [rank, children]) => {
                let rank = parse_u32(rank, "rank")?;
                let children = parse_u32(children, "children")?;
                let n = population::RankingProtocol::population_size(self) as u32;
                if rank < 1 || rank > n {
                    return Err(format!("rank {rank} out of range for n = {n}"));
                }
                if children > 2 {
                    return Err(format!("children {children} out of range (≤ 2)"));
                }
                Ok(OssState::settled(rank, children as u8))
            }
            ("U", [errorcount]) => Ok(OssState::unsettled(parse_u32(errorcount, "errorcount")?)),
            ("R", [leader, resetcount, delaytimer]) => {
                let leader = match *leader {
                    "L" => Leader::L,
                    "F" => Leader::F,
                    other => return Err(format!("bad leader bit {other:?}")),
                };
                let core = ResetCore {
                    resetcount: parse_u32(resetcount, "resetcount")?,
                    delaytimer: parse_u32(delaytimer, "delaytimer")?,
                };
                Ok(OssState::resetting(leader, core))
            }
            _ => Err(format!("bad OSS state {text:?}")),
        }
    }
}

impl SnapshotProtocol for LooselyStabilizingLe {
    const TAG: &'static str = "loose";

    fn snapshot_param(&self) -> u64 {
        u64::from(self.t_max())
    }

    fn encode_state(&self, state: &LooseState, out: &mut String) {
        let _ = write!(out, "{}:{}", if state.leader { "L" } else { "F" }, state.timer);
    }

    fn decode_state(&self, text: &str) -> Result<LooseState, String> {
        let (bit, timer) =
            text.split_once(':').ok_or_else(|| format!("bad loose state {text:?}"))?;
        let leader = match bit {
            "L" => true,
            "F" => false,
            other => return Err(format!("bad leader bit {other:?}")),
        };
        Ok(LooseState { leader, timer: parse_u32(timer, "timer")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::runner::rng_from_seed;
    use population::snapshot::{restore_agents, restore_counts, snapshot_agents, snapshot_counts};
    use population::{BatchSimulation, Simulation};

    use crate::adversary;

    fn encoded<P: SnapshotProtocol>(p: &P, state: &P::State) -> String {
        let mut out = String::new();
        p.encode_state(state, &mut out);
        out
    }

    #[test]
    fn ciw_states_round_trip() {
        let p = CaiIzumiWada::new(10);
        for rank in 0..10 {
            let s = CiwState::new(rank);
            assert_eq!(p.decode_state(&encoded(&p, &s)), Ok(s));
        }
        assert!(p.decode_state("10").is_err());
        assert!(p.decode_state("-1").is_err());
        assert!(p.decode_state("x").is_err());
    }

    #[test]
    fn oss_states_round_trip() {
        let p = OptimalSilentSsr::new(9);
        let samples = [
            OssState::settled(1, 0),
            OssState::settled(9, 2),
            OssState::unsettled(0),
            OssState::unsettled(123_456),
            OssState::resetting(Leader::L, ResetCore { resetcount: 3, delaytimer: 0 }),
            OssState::resetting(Leader::F, ResetCore { resetcount: 0, delaytimer: 77 }),
        ];
        for s in samples {
            assert_eq!(p.decode_state(&encoded(&p, &s)), Ok(s));
        }
        assert!(p.decode_state("S:0:0").is_err(), "rank below 1");
        assert!(p.decode_state("S:10:0").is_err(), "rank above n");
        assert!(p.decode_state("S:3:3").is_err(), "too many children");
        assert!(p.decode_state("R:X:1:2").is_err(), "bad leader bit");
        assert!(p.decode_state("Q:1").is_err(), "unknown tag");
    }

    #[test]
    fn loose_states_round_trip() {
        let p = LooselyStabilizingLe::new(64);
        for s in [LooseState { leader: true, timer: 64 }, LooseState { leader: false, timer: 0 }] {
            assert_eq!(p.decode_state(&encoded(&p, &s)), Ok(s));
        }
        assert!(p.decode_state("L").is_err());
        assert!(p.decode_state("X:4").is_err());
    }

    #[test]
    fn adversarial_oss_run_round_trips_through_a_snapshot() {
        let n = 24;
        let p = OptimalSilentSsr::new(n);
        let initial = adversary::random_oss_configuration(&p, &mut rng_from_seed(5));

        let mut agents = Simulation::new(OptimalSilentSsr::new(n), initial.clone(), 11);
        agents.run(10_000);
        let doc = snapshot_agents(&agents);
        let mut restored = restore_agents(OptimalSilentSsr::new(n), &doc).expect("agents restore");
        agents.run(10_000);
        restored.run(10_000);
        assert_eq!(agents.states(), restored.states());
        assert_eq!(agents.rng_state(), restored.rng_state());

        let mut counts = BatchSimulation::new(OptimalSilentSsr::new(n), initial, 11);
        counts.run(10_000);
        let doc = snapshot_counts(&counts);
        let mut restored = restore_counts(OptimalSilentSsr::new(n), &doc).expect("counts restore");
        counts.run(10_000);
        restored.run(10_000);
        assert_eq!(counts.counts().to_states(), restored.counts().to_states());
        assert_eq!(counts.rng_state(), restored.rng_state());
    }

    #[test]
    fn parameter_mismatch_is_rejected() {
        let n = 8;
        let mut sim = Simulation::new(CaiIzumiWada::new(n), vec![CiwState::new(0); n], 2);
        sim.run(100);
        let doc = snapshot_agents(&sim);
        assert!(restore_agents(CaiIzumiWada::new(n + 1), &doc).is_err());
        assert!(restore_agents(OptimalSilentSsr::new(n), &doc).is_err(), "wrong protocol tag");
    }
}
