//! The population protocol abstraction.

use rand::rngs::SmallRng;

/// A population protocol: a state set plus a (possibly randomized) pairwise
/// transition function.
///
/// The reproduced paper allows randomness in transitions (its footnote 5
/// notes this can be removed by standard synthetic-coin constructions without
/// changing time or space bounds), so [`Protocol::interact`] receives an RNG.
///
/// Transitions are expressed as in-place mutation of the two interacting
/// agents' states rather than by returning fresh states; this keeps
/// simulation allocation-free for the heavy states of Sublinear-Time-SSR
/// (rosters and history trees).
///
/// Implementors describing protocols from the paper should treat `a` as the
/// *initiator* and `b` as the *responder* — most transitions in the paper are
/// symmetric, but e.g. Protocol 1 (Silent-n-state-SSR) increments only the
/// responder's rank.
pub trait Protocol {
    /// Per-agent state. Cloning must be cheap enough for snapshotting
    /// configurations (use `Arc` internally for heavyweight fields).
    type State: Clone + std::fmt::Debug;

    /// Declares that [`Protocol::interact`] is a pure function of the two
    /// input states and never reads its RNG argument.
    ///
    /// The count-based backend ([`crate::counts`]) memoizes state-pair
    /// transitions when this is `true`, turning the per-interaction cost
    /// into a table lookup. The conservative default of `false` is always
    /// correct — a protocol that opts in while actually drawing randomness
    /// in `interact` would have one sampled outcome silently replayed for
    /// every repetition of that state pair.
    const DETERMINISTIC_INTERACT: bool = false;

    /// Applies one interaction between initiator `a` and responder `b`.
    fn interact(&self, a: &mut Self::State, b: &mut Self::State, rng: &mut SmallRng);

    /// Returns `true` when the ordered pair `(a, b)` has only the null
    /// transition — i.e. **no** outcome of [`Protocol::interact`] can change
    /// either state.
    ///
    /// This powers structural silence detection ([`crate::silence`]): a
    /// configuration is silent iff every ordered pair of states present in it
    /// is a null pair. Protocols that are not silent (such as
    /// Sublinear-Time-SSR, whose agents exchange sync values forever) can
    /// keep the conservative default of `false`.
    fn is_null_pair(&self, _a: &Self::State, _b: &Self::State) -> bool {
        false
    }

    /// The protocol-declared *phase* a state is in, if the protocol has a
    /// notion of phases.
    ///
    /// Protocols built on Propagate-Reset (Sec. 3 of the paper) report the
    /// wave their agent is riding — `"computing"` while running the main
    /// protocol, `"propagating"` while spreading a reset signal, `"dormant"`
    /// while waiting out the delay timer before awakening back into
    /// `"computing"`. Protocols without phase structure keep the default of
    /// `None` for every state.
    ///
    /// Phase names are `&'static str` so that comparing and recording
    /// transitions ([`crate::Observer::on_phase_transition`]) costs a pointer
    /// compare, not a string compare, on the hot path.
    fn phase_of(&self, _state: &Self::State) -> Option<&'static str> {
        None
    }
}

/// A protocol that solves the ranking problem of the paper: each agent
/// exposes an output `rank ∈ {1, …, n}`, and a configuration is correct when
/// every rank in `{1, …, n}` is held by exactly one agent.
///
/// Any ranking protocol solves leader election by declaring the rank-1 agent
/// the leader (Sec. 2 of the paper), which is what [`RankingProtocol::is_leader`]
/// implements.
pub trait RankingProtocol: Protocol {
    /// The population size `n` this protocol instance is configured for.
    ///
    /// Self-stabilizing leader election provably requires agents to know the
    /// exact population size (Theorem 2.1, after Cai–Izumi–Wada), so the
    /// protocol object carries `n`.
    fn population_size(&self) -> usize;

    /// The rank output of a state: `Some(r)` with `1 ≤ r ≤ n`, or `None` if
    /// the agent currently outputs no rank (e.g. unsettled or resetting
    /// agents in Optimal-Silent-SSR).
    fn rank_of(&self, state: &Self::State) -> Option<usize>;

    /// Leader output: an agent leads iff it outputs rank 1.
    fn is_leader(&self, state: &Self::State) -> bool {
        self.rank_of(state) == Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::ModRank;

    #[test]
    fn initiator_responder_asymmetry() {
        let p = ModRank { n: 4 };
        let mut rng = crate::runner::rng_from_seed(7);
        let (mut a, mut b) = (2usize, 2usize);
        p.interact(&mut a, &mut b, &mut rng);
        assert_eq!((a, b), (2, 3), "only the responder moves");
    }

    #[test]
    fn rank_wraps_modulo_n() {
        let p = ModRank { n: 4 };
        let mut rng = crate::runner::rng_from_seed(7);
        let (mut a, mut b) = (3usize, 3usize);
        p.interact(&mut a, &mut b, &mut rng);
        assert_eq!((a, b), (3, 0));
    }

    #[test]
    fn default_leader_is_rank_one() {
        let p = ModRank { n: 4 };
        assert!(p.is_leader(&0), "state 0 outputs rank 1");
        assert!(!p.is_leader(&1));
    }

    #[test]
    fn null_pair_reflects_transition() {
        let p = ModRank { n: 4 };
        assert!(p.is_null_pair(&1, &2));
        assert!(!p.is_null_pair(&2, &2));
    }
}
