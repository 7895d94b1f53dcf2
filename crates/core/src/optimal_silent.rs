//! Optimal-Silent-SSR (Protocols 3 and 4 of the paper, Sec. 4).
//!
//! A silent self-stabilizing ranking protocol with `O(n)` states, `Θ(n)`
//! expected and `Θ(n log n)` WHP parallel time — optimal in both measures
//! for the class of silent protocols (Observation 2.2).
//!
//! # How it works
//!
//! Agents are in one of three roles:
//!
//! * **Settled** — holds a `rank ∈ {1, …, n}` and a count of `children`
//!   (0–2) it has recruited;
//! * **Unsettled** — waits to be assigned a rank, counting `errorcount`
//!   down; reaching 0 means ranking has stalled, an error;
//! * **Resetting** — participating in a [`Propagate-Reset`](crate::reset)
//!   with an additional `leader ∈ {L, F}` bit.
//!
//! Errors trigger a global reset in two situations: two Settled agents with
//! the same rank meet, or an Unsettled agent exhausts its `errorcount`.
//! During the long (`D_max = Θ(n)`) dormant phase of the reset, the dormant
//! agents run the slow leader election `L, L → L, F`; on awakening the
//! (likely unique) leader settles with rank 1 and everyone else becomes
//! Unsettled. Settled agents then recruit Unsettled agents into a full
//! binary tree of ranks: the children of rank `i` are `2i` and `2i + 1`
//! (Figure 1 of the paper).
//!
//! # Examples
//!
//! ```
//! use population::Simulation;
//! use ssle::optimal_silent::{OptimalSilentSsr, OssState};
//!
//! let n = 16;
//! let protocol = OptimalSilentSsr::new(n);
//! // Adversarial start: everyone claims rank 1.
//! let initial = vec![OssState::settled(1, 0); n];
//! let mut sim = Simulation::new(protocol, initial, 42);
//! let outcome = sim.run_until_stably_ranked(50_000_000, 16 * 10);
//! assert!(outcome.is_converged());
//! ```

use population::{Protocol, RankingProtocol};
use rand::rngs::SmallRng;

use crate::reset::{propagate_reset, ResetCore, ResetParams, ResetView};

/// The leader bit carried by `Resetting` agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Leader {
    /// Leader candidate.
    L,
    /// Follower.
    F,
}

/// One agent's state in Optimal-Silent-SSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OssState {
    /// Holds a rank; has recruited `children` (0, 1, or 2) agents so far.
    Settled {
        /// The assigned rank, in `1..=n`.
        rank: u32,
        /// How many children this node of the rank tree has recruited.
        children: u8,
    },
    /// Waiting for a rank; `errorcount` reaching 0 signals a stall.
    Unsettled {
        /// Countdown decremented on every interaction this agent joins.
        errorcount: u32,
    },
    /// Participating in a global reset.
    Resetting {
        /// Slow-leader-election bit (`L, L → L, F`).
        leader: Leader,
        /// Propagate-Reset fields.
        core: ResetCore,
    },
}

impl OssState {
    /// A settled agent with the given rank and child count.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `children > 2`.
    pub fn settled(rank: u32, children: u8) -> Self {
        assert!(rank >= 1, "ranks start at 1");
        assert!(children <= 2, "a rank-tree node has at most 2 children");
        OssState::Settled { rank, children }
    }

    /// An unsettled agent with the given error countdown.
    pub fn unsettled(errorcount: u32) -> Self {
        OssState::Unsettled { errorcount }
    }

    /// A resetting agent.
    pub fn resetting(leader: Leader, core: ResetCore) -> Self {
        OssState::Resetting { leader, core }
    }

    /// The leader bit, if the agent is resetting.
    pub fn leader(&self) -> Option<Leader> {
        match self {
            OssState::Resetting { leader, .. } => Some(*leader),
            _ => None,
        }
    }
}

impl ResetView for OssState {
    fn reset_core(&self) -> Option<ResetCore> {
        match self {
            OssState::Resetting { core, .. } => Some(*core),
            _ => None,
        }
    }

    fn set_reset_core(&mut self, new_core: ResetCore) {
        match self {
            OssState::Resetting { core, .. } => *core = new_core,
            other => panic!("set_reset_core on non-resetting state {other:?}"),
        }
    }

    fn enter_resetting(&mut self, core: ResetCore) {
        // Sec. 4: "all agents set themselves to L upon entering the
        // Resetting role".
        *self = OssState::Resetting { leader: Leader::L, core };
    }
}

/// The Optimal-Silent-SSR protocol instance for a population of exactly `n`
/// agents (SSLE protocols are strongly nonuniform — Theorem 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimalSilentSsr {
    n: usize,
    e_max: u32,
    reset: ResetParams,
}

impl OptimalSilentSsr {
    /// Default multiplier for `E_max = Θ(n)`.
    pub const DEFAULT_E_MAX_MULTIPLIER: u32 = 10;
    /// Default multiplier for `D_max = Θ(n)`.
    pub const DEFAULT_D_MAX_MULTIPLIER: u32 = 4;
    /// Default multiplier for `R_max = Θ(log n)` (the paper proves its
    /// bounds with 60; smaller works at simulation scale — see DESIGN.md).
    pub const DEFAULT_R_MAX_MULTIPLIER: f64 = 4.0;

    /// Creates the protocol with the reproduction's default constants:
    /// `E_max = 10n`, `D_max = 4n`, `R_max = ⌈4 ln n⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        let e_max = Self::DEFAULT_E_MAX_MULTIPLIER * n as u32;
        let d_max = Self::DEFAULT_D_MAX_MULTIPLIER * n as u32;
        let r_max = ResetParams::r_max_for(n, Self::DEFAULT_R_MAX_MULTIPLIER);
        Self::with_params(
            n,
            e_max,
            ResetParams::new(r_max, d_max).expect("positive by construction"),
        )
    }

    /// Creates the protocol with explicit constants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `e_max == 0`.
    pub fn with_params(n: usize, e_max: u32, reset: ResetParams) -> Self {
        assert!(n >= 2, "population protocols need at least 2 agents");
        assert!(e_max > 0, "E_max must be positive");
        OptimalSilentSsr { n, e_max, reset }
    }

    /// The configured `E_max`.
    pub fn e_max(&self) -> u32 {
        self.e_max
    }

    /// The configured reset parameters.
    pub fn reset_params(&self) -> &ResetParams {
        &self.reset
    }

    /// A freshly triggered resetting state (used by error transitions and
    /// adversarial configuration builders).
    pub fn triggered_state(&self) -> OssState {
        OssState::Resetting { leader: Leader::L, core: ResetCore::triggered(&self.reset) }
    }

    /// Protocol 4: the `Reset` routine executed upon awakening from a
    /// Propagate-Reset. Leaders settle at the tree root (rank 1); followers
    /// become unsettled with a fresh `errorcount`.
    #[inline]
    fn awakened(&self, leader: Leader) -> OssState {
        match leader {
            Leader::L => OssState::Settled { rank: 1, children: 0 },
            Leader::F => OssState::Unsettled { errorcount: self.e_max },
        }
    }

    /// [`OptimalSilentSsr::awakened`] in place, as Propagate-Reset calls it.
    fn reset_agent(&self, s: &mut OssState) {
        let leader = s.leader().expect("Reset is only called on Resetting agents");
        *s = self.awakened(leader);
    }

    /// The rank of the next child `rank` recruits, if that slot exists in
    /// the full binary tree with `n` nodes (children of rank `i` are `2i`
    /// and `2i + 1`).
    #[inline]
    fn child_rank(&self, rank: u32, children: u8) -> Option<u32> {
        let child = 2 * u64::from(rank) + u64::from(children);
        (children < 2 && child <= self.n as u64).then_some(child as u32)
    }

    /// Lines 9–20 for a settled agent (`rank`, `children`) meeting an
    /// unsettled one with countdown `errorcount`: recruit it into the next
    /// child slot, or else count it down. Returns the pair's new
    /// `(settled, unsettled)` states; a starved countdown triggers both.
    #[inline]
    fn recruit_or_count(&self, rank: u32, children: u8, errorcount: u32) -> (OssState, OssState) {
        match (self.child_rank(rank, children), counted_down(errorcount)) {
            (Some(child), _) => (
                OssState::Settled { rank, children: children + 1 },
                OssState::Settled { rank: child, children: 0 },
            ),
            (None, Some(e)) => {
                (OssState::Settled { rank, children }, OssState::Unsettled { errorcount: e })
            }
            (None, None) => (self.triggered_state(), self.triggered_state()),
        }
    }

    /// Lines 1–4 for every pair with a propagating agent, or with one
    /// resetting and one computing agent: Propagate-Reset, then the slow
    /// leader election among agents still resetting. Out of line and cold:
    /// these pairs are a few percent of an execution's interactions.
    #[cold]
    #[inline(never)]
    fn interact_resetting(&self, a: &mut OssState, b: &mut OssState) {
        if a.is_resetting() {
            propagate_reset(&self.reset, a, b, |s| self.reset_agent(s));
        } else {
            propagate_reset(&self.reset, b, a, |s| self.reset_agent(s));
        }
        if let (Some(Leader::L), Some(Leader::L)) = (a.leader(), b.leader()) {
            if let OssState::Resetting { leader, .. } = b {
                *leader = Leader::F;
            }
        }
    }
}

/// An unsettled agent's countdown after one more interaction, or `None`
/// when it reaches 0 (Protocol 3, lines 14–20: the agent starved).
#[inline]
fn counted_down(errorcount: u32) -> Option<u32> {
    errorcount.checked_sub(1).filter(|&e| e != 0)
}

impl Protocol for OptimalSilentSsr {
    type State = OssState;
    // Pure function of the two states (the RNG parameter is unused), so the
    // count backend may memoize transitions.
    const DETERMINISTIC_INTERACT: bool = true;

    /// Protocol 3 as one match on the roles of the pair. Each arm writes
    /// whole states; the arms a stabilizing execution spends nearly all of
    /// its interactions in (two dormant agents, two settled agents) are a
    /// few instructions, so the caller's run loop inlines this.
    #[inline(always)]
    fn interact(&self, a: &mut OssState, b: &mut OssState, _rng: &mut SmallRng) {
        use OssState::{Resetting, Settled, Unsettled};
        match (*a, *b) {
            // Lines 5–8: two settled agents with the same rank → global
            // reset. Distinct ranks are a null pair.
            (Settled { rank: ra, .. }, Settled { rank: rb, .. }) => {
                if ra == rb {
                    *a = self.triggered_state();
                    *b = self.triggered_state();
                }
            }
            // Lines 9–20: settled agents recruit unsettled agents into the
            // rank tree in both directions; an agent that stays unsettled
            // counts down.
            (Settled { rank, children }, Unsettled { errorcount }) => {
                (*a, *b) = self.recruit_or_count(rank, children, errorcount);
            }
            (Unsettled { errorcount }, Settled { rank, children }) => {
                (*b, *a) = self.recruit_or_count(rank, children, errorcount);
            }
            // Lines 14–20: both count down; the initiator starving first
            // triggers both before the responder's count.
            (Unsettled { errorcount: ea }, Unsettled { errorcount: eb }) => {
                match (counted_down(ea), counted_down(eb)) {
                    (Some(ea), Some(eb)) => {
                        *a = Unsettled { errorcount: ea };
                        *b = Unsettled { errorcount: eb };
                    }
                    _ => {
                        *a = self.triggered_state();
                        *b = self.triggered_state();
                    }
                }
            }
            // Lines 1–4 for two dormant agents: both delay timers count
            // down, an expired one awakens (Protocol 4), and two leader
            // candidates that both stay dormant fight (`L, L → L, F`).
            (Resetting { leader: la, core: ca }, Resetting { leader: lb, core: cb })
                if ca.is_dormant() && cb.is_dormant() =>
            {
                let ca = ca.dormant_step(false, &self.reset);
                let cb = cb.dormant_step(false, &self.reset);
                *a = if ca.delaytimer == 0 {
                    self.awakened(la)
                } else {
                    Resetting { leader: la, core: ca }
                };
                *b = if cb.delaytimer == 0 {
                    self.awakened(lb)
                } else if ca.delaytimer != 0 && la == Leader::L {
                    Resetting { leader: Leader::F, core: cb }
                } else {
                    Resetting { leader: lb, core: cb }
                };
            }
            _ => self.interact_resetting(a, b),
        }
    }

    fn is_null_pair(&self, a: &OssState, b: &OssState) -> bool {
        // Only settled pairs with distinct ranks are inert: resetting agents
        // always tick timers/counters, unsettled agents always count down
        // (or trigger at 0), equal settled ranks trigger, and a
        // settled/unsettled pair either recruits or counts down.
        match (a, b) {
            (OssState::Settled { rank: ra, .. }, OssState::Settled { rank: rb, .. }) => ra != rb,
            _ => false,
        }
    }

    fn phase_of(&self, state: &OssState) -> Option<&'static str> {
        Some(crate::reset::phase_name(state))
    }
}

impl RankingProtocol for OptimalSilentSsr {
    fn population_size(&self) -> usize {
        self.n
    }

    fn rank_of(&self, state: &OssState) -> Option<usize> {
        match state {
            OssState::Settled { rank, .. } => Some(*rank as usize),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::runner::rng_from_seed;
    use population::silence::is_silent_configuration;
    use population::Simulation;

    fn proto(n: usize) -> OptimalSilentSsr {
        OptimalSilentSsr::new(n)
    }

    fn rng() -> SmallRng {
        rng_from_seed(1234)
    }

    /// The swap-based `interact` this module shipped before the single
    /// match, kept verbatim (as a free function) as the reference the
    /// exhaustive pinning test compares against.
    mod swap_based {
        use super::super::*;

        pub(super) fn interact(p: &OptimalSilentSsr, a: &mut OssState, b: &mut OssState) {
            // Lines 1–2: delegate to Propagate-Reset if anyone is resetting.
            if a.is_resetting() || b.is_resetting() {
                if a.is_resetting() {
                    propagate_reset(&p.reset, a, b, |s| reset_agent(p, s));
                } else {
                    propagate_reset(&p.reset, b, a, |s| reset_agent(p, s));
                }
                // Lines 3–4: slow leader election among (still) resetting agents.
                if let (Some(Leader::L), Some(Leader::L)) = (a.leader(), b.leader()) {
                    if let OssState::Resetting { leader, .. } = b {
                        *leader = Leader::F;
                    }
                }
                return;
            }

            // Lines 5–8: two settled agents with the same rank → global reset.
            if let (OssState::Settled { rank: ra, .. }, OssState::Settled { rank: rb, .. }) =
                (&a, &b)
            {
                if ra == rb {
                    trigger(p, a, b);
                    return;
                }
            }

            // Lines 9–13: settled agents recruit unsettled agents into the rank
            // tree, in both directions.
            for _ in 0..2 {
                if let (OssState::Settled { rank, children }, OssState::Unsettled { .. }) =
                    (&*a, &*b)
                {
                    if child_slot_available(p, *rank, *children) {
                        let child_rank = 2 * *rank + *children as u32;
                        *b = OssState::Settled { rank: child_rank, children: 0 };
                        if let OssState::Settled { children, .. } = a {
                            *children += 1;
                        }
                    }
                }
                std::mem::swap(a, b);
            }

            // Lines 14–20: unsettled agents count down; starving triggers a
            // global reset for both participants.
            for _ in 0..2 {
                if let OssState::Unsettled { errorcount } = a {
                    *errorcount = errorcount.saturating_sub(1);
                    if *errorcount == 0 {
                        trigger(p, a, b);
                        return;
                    }
                }
                std::mem::swap(a, b);
            }
        }

        fn reset_agent(p: &OptimalSilentSsr, s: &mut OssState) {
            match s.leader() {
                Some(Leader::L) => *s = OssState::Settled { rank: 1, children: 0 },
                Some(Leader::F) => *s = OssState::Unsettled { errorcount: p.e_max },
                None => unreachable!("Reset is only called on Resetting agents"),
            }
        }

        fn child_slot_available(p: &OptimalSilentSsr, rank: u32, children: u8) -> bool {
            children < 2 && 2 * rank as u64 + children as u64 <= p.n as u64
        }

        fn trigger(p: &OptimalSilentSsr, a: &mut OssState, b: &mut OssState) {
            *a = p.triggered_state();
            *b = p.triggered_state();
        }
    }

    /// Every state a protocol for `n` agents can hold: settled ranks
    /// `1..=n` with 0–2 children, unsettled countdowns `0..=E_max`, and
    /// both leader bits over every `resetcount ≤ R_max` and
    /// `delaytimer ≤ D_max`.
    fn state_universe(p: &OptimalSilentSsr) -> Vec<OssState> {
        let ResetParams { r_max, d_max } = *p.reset_params();
        let settled = (1..=p.n as u32)
            .flat_map(|rank| (0..=2).map(move |children| OssState::Settled { rank, children }));
        let unsettled = (0..=p.e_max()).map(OssState::unsettled);
        let resetting = [Leader::L, Leader::F].into_iter().flat_map(|leader| {
            (0..=r_max).flat_map(move |resetcount| {
                (0..=d_max).map(move |delaytimer| {
                    OssState::resetting(leader, ResetCore { resetcount, delaytimer })
                })
            })
        });
        settled.chain(unsettled).chain(resetting).collect()
    }

    #[test]
    fn interact_matches_the_swap_based_transition_on_every_pair() {
        for n in [2, 3, 4, 5, 8] {
            let p = proto(n);
            let universe = state_universe(&p);
            for &a0 in &universe {
                for &b0 in &universe {
                    let (mut a, mut b) = (a0, b0);
                    p.interact(&mut a, &mut b, &mut rng());
                    let (mut ea, mut eb) = (a0, b0);
                    swap_based::interact(&p, &mut ea, &mut eb);
                    assert_eq!((a, b), (ea, eb), "n = {n}, pair ({a0:?}, {b0:?})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn rejects_tiny_population() {
        OptimalSilentSsr::new(1);
    }

    #[test]
    #[should_panic(expected = "E_max must be positive")]
    fn rejects_zero_e_max() {
        OptimalSilentSsr::with_params(4, 0, ResetParams::new(1, 1).unwrap());
    }

    #[test]
    fn state_constructors_validate() {
        let s = OssState::settled(3, 1);
        assert_eq!(s, OssState::Settled { rank: 3, children: 1 });
    }

    #[test]
    #[should_panic(expected = "ranks start at 1")]
    fn settled_rank_zero_panics() {
        OssState::settled(0, 0);
    }

    #[test]
    #[should_panic(expected = "at most 2 children")]
    fn settled_three_children_panics() {
        OssState::settled(1, 3);
    }

    #[test]
    fn rank_collision_triggers_reset_with_leaders() {
        let p = proto(8);
        let mut a = OssState::settled(5, 0);
        let mut b = OssState::settled(5, 2);
        p.interact(&mut a, &mut b, &mut rng());
        for s in [&a, &b] {
            match s {
                OssState::Resetting { leader, core } => {
                    assert_eq!(*leader, Leader::L);
                    assert_eq!(core.resetcount, p.reset_params().r_max);
                }
                other => panic!("expected resetting, got {other:?}"),
            }
        }
    }

    #[test]
    fn distinct_ranks_are_inert() {
        let p = proto(8);
        let mut a = OssState::settled(1, 2);
        let mut b = OssState::settled(2, 2);
        let (a0, b0) = (a, b);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!((a, b), (a0, b0));
        assert!(p.is_null_pair(&a, &b));
    }

    #[test]
    fn settled_recruits_unsettled_as_first_child() {
        let p = proto(8);
        let mut a = OssState::settled(2, 0);
        let mut b = OssState::unsettled(100);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a, OssState::Settled { rank: 2, children: 1 });
        assert_eq!(b, OssState::Settled { rank: 4, children: 0 });
    }

    #[test]
    fn second_child_gets_odd_rank() {
        let p = proto(8);
        let mut a = OssState::settled(2, 1);
        let mut b = OssState::unsettled(100);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(b, OssState::Settled { rank: 5, children: 0 });
    }

    #[test]
    fn recruitment_works_in_responder_to_initiator_direction() {
        let p = proto(8);
        let mut a = OssState::unsettled(100);
        let mut b = OssState::settled(1, 0);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a, OssState::Settled { rank: 2, children: 0 });
        assert_eq!(b, OssState::Settled { rank: 1, children: 1 });
    }

    #[test]
    fn rank_n_is_assignable() {
        // n = 8: rank 4's children are 8 and 9; only 8 exists.
        let p = proto(8);
        let mut a = OssState::settled(4, 0);
        let mut b = OssState::unsettled(100);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(b, OssState::Settled { rank: 8, children: 0 });
        // The second slot (rank 9) is out of range: b2 stays unsettled.
        let mut b2 = OssState::unsettled(100);
        p.interact(&mut a, &mut b2, &mut rng());
        assert!(matches!(b2, OssState::Unsettled { .. }));
    }

    #[test]
    fn leaf_ranks_do_not_recruit() {
        let p = proto(8);
        let mut a = OssState::settled(5, 0); // children 10, 11 > 8
        let mut b = OssState::unsettled(100);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a, OssState::Settled { rank: 5, children: 0 });
        assert!(matches!(b, OssState::Unsettled { errorcount: 99 }));
    }

    #[test]
    fn unsettled_counts_down_on_every_interaction() {
        let p = proto(8);
        let mut a = OssState::unsettled(5);
        let mut b = OssState::unsettled(7);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a, OssState::Unsettled { errorcount: 4 });
        assert_eq!(b, OssState::Unsettled { errorcount: 6 });
    }

    #[test]
    fn starved_unsettled_triggers_reset_for_both() {
        let p = proto(8);
        let mut a = OssState::unsettled(1);
        let mut b = OssState::settled(5, 0); // leaf: cannot recruit
        p.interact(&mut a, &mut b, &mut rng());
        assert!(a.is_resetting());
        assert!(b.is_resetting());
    }

    #[test]
    fn recruited_agent_skips_countdown_that_interaction() {
        let p = proto(8);
        let mut a = OssState::settled(1, 0);
        let mut b = OssState::unsettled(1); // would trigger if decremented
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(b, OssState::Settled { rank: 2, children: 0 });
    }

    #[test]
    fn slow_leader_election_among_resetting() {
        let p = proto(8);
        let core = ResetCore { resetcount: 0, delaytimer: 50 };
        let mut a = OssState::resetting(Leader::L, core);
        let mut b = OssState::resetting(Leader::L, core);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a.leader(), Some(Leader::L));
        assert_eq!(b.leader(), Some(Leader::F));
    }

    #[test]
    fn leader_follower_pair_is_stable_in_election() {
        let p = proto(8);
        let core = ResetCore { resetcount: 0, delaytimer: 50 };
        let mut a = OssState::resetting(Leader::F, core);
        let mut b = OssState::resetting(Leader::L, core);
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a.leader(), Some(Leader::F));
        assert_eq!(b.leader(), Some(Leader::L));
    }

    #[test]
    fn awakening_leader_settles_at_root() {
        let p = proto(8);
        let mut a = OssState::resetting(Leader::L, ResetCore { resetcount: 0, delaytimer: 1 });
        let mut b = OssState::resetting(Leader::F, ResetCore { resetcount: 0, delaytimer: 50 });
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a, OssState::Settled { rank: 1, children: 0 });
        assert!(b.is_resetting());
    }

    #[test]
    fn awakening_follower_becomes_unsettled_with_full_errorcount() {
        let p = proto(8);
        let mut a = OssState::resetting(Leader::F, ResetCore { resetcount: 0, delaytimer: 1 });
        let mut b = OssState::resetting(Leader::F, ResetCore { resetcount: 0, delaytimer: 50 });
        p.interact(&mut a, &mut b, &mut rng());
        assert_eq!(a, OssState::Unsettled { errorcount: p.e_max() });
    }

    #[test]
    fn computing_agent_is_pulled_into_reset_as_leader_candidate() {
        let p = proto(8);
        let mut a = OssState::settled(3, 0);
        let mut b = p.triggered_state();
        p.interact(&mut a, &mut b, &mut rng());
        assert!(a.is_resetting());
        assert_eq!(a.leader(), Some(Leader::L), "entering Resetting sets leader to L");
    }

    #[test]
    fn correct_configuration_is_silent_and_stable() {
        let n = 12;
        let p = proto(n);
        let states: Vec<OssState> = (1..=n as u32).map(|r| OssState::settled(r, 2)).collect();
        assert!(is_silent_configuration(&p, &states));
        let mut sim = Simulation::new(p, states, 7);
        sim.run(20_000);
        assert!(sim.is_ranked(), "a correct configuration must stay correct");
    }

    #[test]
    fn stabilizes_from_all_rank_one() {
        let n = 12;
        let p = proto(n);
        let mut sim = Simulation::new(p, vec![OssState::settled(1, 0); n], 3);
        let outcome = sim.run_until_stably_ranked(80_000_000, 10 * n as u64);
        assert!(outcome.is_converged(), "no convergence from all-rank-1: {outcome:?}");
        assert!(is_silent_configuration(sim.protocol(), sim.states()));
        assert_eq!(sim.leader_count(), 1);
    }

    #[test]
    fn stabilizes_from_all_unsettled_zero() {
        let n = 10;
        let p = proto(n);
        let mut sim = Simulation::new(p, vec![OssState::unsettled(0); n], 5);
        let outcome = sim.run_until_stably_ranked(80_000_000, 10 * n as u64);
        assert!(outcome.is_converged());
    }

    #[test]
    fn stabilizes_from_all_dormant_followers() {
        // Pathological: every agent dormant, everyone a follower — the
        // protocol must still produce a leader eventually (awakened
        // followers starve, retrigger, and the next reset elects leaders).
        let n = 8;
        let p = proto(n);
        let core = ResetCore { resetcount: 0, delaytimer: 3 };
        let initial = vec![OssState::resetting(Leader::F, core); n];
        let mut sim = Simulation::new(p, initial, 11);
        let outcome = sim.run_until_stably_ranked(200_000_000, 10 * n as u64);
        assert!(outcome.is_converged());
    }

    #[test]
    fn rank_of_and_leader_outputs() {
        let p = proto(4);
        assert_eq!(p.rank_of(&OssState::settled(3, 0)), Some(3));
        assert_eq!(p.rank_of(&OssState::unsettled(5)), None);
        assert_eq!(p.rank_of(&p.triggered_state()), None);
        assert!(p.is_leader(&OssState::settled(1, 0)));
        assert!(!p.is_leader(&OssState::settled(2, 0)));
    }
}
