//! The Propagate-Reset subprotocol (Protocol 2 of the paper).
//!
//! Both Optimal-Silent-SSR and Sublinear-Time-SSR reset the whole population
//! when an agent detects an error (a rank or name collision, a starved
//! unsettled agent, an oversized roster). Propagate-Reset provides the reset
//! mechanics:
//!
//! 1. a **triggered** agent sets `resetcount = R_max`;
//! 2. positivity of `resetcount` spreads by epidemic, decreasing along the
//!    chain (`max(a−1, b−1, 0)`), converting every *computing* agent it
//!    touches into the `Resetting` role (**propagating** agents);
//! 3. agents whose `resetcount` reaches 0 become **dormant** and count a
//!    `delaytimer` down from `D_max`, giving the whole population time to
//!    become dormant (and, in Optimal-Silent-SSR, time to run a slow leader
//!    election among the dormant agents);
//! 4. an agent whose timer expires executes the outer protocol's `Reset`
//!    routine and resumes computing; computing agents **awaken** dormant
//!    agents on contact, spreading the wake-up by epidemic.
//!
//! Crucially (paper, Sec. 3), after `Reset` an agent retains **no** memory
//! that a reset happened — otherwise the adversary could start every agent
//! in an "already reset" state and prevent the one needed reset from ever
//! occurring.
//!
//! The subprotocol is generic over the outer protocol's state via
//! [`ResetView`], which exposes the `Resetting`-role fields.

use std::fmt;

/// The `Resetting`-role fields of an agent: `resetcount ∈ {0, …, R_max}` and
/// (meaningful while `resetcount = 0`) `delaytimer ∈ {0, …, D_max}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResetCore {
    /// Propagation counter; positive = propagating, zero = dormant.
    pub resetcount: u32,
    /// Dormancy countdown, decremented once per interaction of the agent.
    pub delaytimer: u32,
}

impl ResetCore {
    /// A freshly **triggered** core (`resetcount = R_max`).
    pub fn triggered(params: &ResetParams) -> Self {
        ResetCore { resetcount: params.r_max, delaytimer: params.d_max }
    }

    /// A **dormant** core with a full delay (used when a computing agent is
    /// pulled into the reset by a propagating neighbor).
    pub fn dormant(params: &ResetParams) -> Self {
        ResetCore { resetcount: 0, delaytimer: params.d_max }
    }

    /// Whether the agent is propagating (`resetcount > 0`).
    pub fn is_propagating(&self) -> bool {
        self.resetcount > 0
    }

    /// Whether the agent is dormant (`resetcount = 0`).
    pub fn is_dormant(&self) -> bool {
        self.resetcount == 0
    }

    /// Lines 6–10 for an agent whose `resetcount` is now 0: one that was
    /// propagating before this interaction starts its delay at `D_max`, one
    /// that was already dormant counts its delay down. The agent awakens
    /// when the returned `delaytimer` is 0 (or its partner is computing).
    #[inline]
    pub fn dormant_step(self, was_propagating: bool, params: &ResetParams) -> ResetCore {
        let delaytimer =
            if was_propagating { params.d_max } else { self.delaytimer.saturating_sub(1) };
        ResetCore { resetcount: 0, delaytimer }
    }
}

/// Tuning constants of Propagate-Reset.
///
/// The paper requires `R_max = Ω(log n)` (it uses `60·ln n`) and
/// `D_max = Ω(R_max)`; Optimal-Silent-SSR uses `D_max = Θ(n)` while
/// Sublinear-Time-SSR uses `D_max = Θ(log n)`. The concrete multipliers are
/// configurable; see the protocol constructors for the defaults used in this
/// reproduction (smaller than the proofs' worst-case constants, chosen so
/// laptop-scale simulations stabilize quickly while preserving the scaling
/// shape — see DESIGN.md, "Faithfulness notes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetParams {
    /// Maximum (initial) value of `resetcount`.
    pub r_max: u32,
    /// Dormancy delay loaded into `delaytimer`.
    pub d_max: u32,
}

impl ResetParams {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ResetParamsError`] if `r_max = 0` (a trigger could not
    /// propagate) or `d_max = 0` (awakening would race the propagation).
    pub fn new(r_max: u32, d_max: u32) -> Result<Self, ResetParamsError> {
        if r_max == 0 {
            return Err(ResetParamsError::ZeroRMax);
        }
        if d_max == 0 {
            return Err(ResetParamsError::ZeroDMax);
        }
        Ok(ResetParams { r_max, d_max })
    }

    /// `R_max = max(1, ⌈multiplier · ln n⌉)` as in the paper's
    /// `R_max = Θ(log n)` requirement.
    pub fn r_max_for(n: usize, multiplier: f64) -> u32 {
        ((n as f64).ln() * multiplier).ceil().max(1.0) as u32
    }
}

/// Error constructing [`ResetParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetParamsError {
    /// `r_max` was zero.
    ZeroRMax,
    /// `d_max` was zero.
    ZeroDMax,
}

impl fmt::Display for ResetParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResetParamsError::ZeroRMax => write!(f, "R_max must be positive"),
            ResetParamsError::ZeroDMax => write!(f, "D_max must be positive"),
        }
    }
}

impl std::error::Error for ResetParamsError {}

/// How the outer protocol's state exposes Propagate-Reset.
///
/// Implementations map the abstract roles onto the protocol's concrete state
/// enum: "computing" (any non-`Resetting` role), "propagating" and "dormant"
/// (`Resetting` with positive / zero `resetcount`).
pub trait ResetView {
    /// The reset fields, or `None` when the agent is computing.
    fn reset_core(&self) -> Option<ResetCore>;

    /// Overwrites the reset fields.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the agent is not in the `Resetting` role.
    fn set_reset_core(&mut self, core: ResetCore);

    /// Converts a computing agent into the `Resetting` role with the given
    /// core, deleting the fields of its previous role (and performing any
    /// protocol-specific entry action, e.g. Optimal-Silent-SSR sets its
    /// leader bit to `L`).
    fn enter_resetting(&mut self, core: ResetCore);

    /// Whether the agent is currently in the `Resetting` role.
    fn is_resetting(&self) -> bool {
        self.reset_core().is_some()
    }
}

/// Canonical phase names for protocols built on Propagate-Reset, as reported
/// through `Protocol::phase_of` to simulation observers.
pub mod phase {
    /// Running the outer protocol (not in the `Resetting` role).
    pub const COMPUTING: &str = "computing";
    /// Spreading the reset epidemic (`resetcount > 0`).
    pub const PROPAGATING: &str = "propagating";
    /// Waiting out the delay timer (`resetcount = 0`).
    pub const DORMANT: &str = "dormant";
}

/// Maps a state's reset view onto the canonical phase names ([`phase`]).
///
/// The awakening step of the cycle (dormant → computing on timer expiry or
/// contact with a computing agent) shows up to observers as a transition back
/// to [`phase::COMPUTING`] rather than as a distinct phase — an agent is only
/// ever *between* phases for the duration of one interaction.
pub fn phase_name<S: ResetView>(state: &S) -> &'static str {
    match state.reset_core() {
        None => phase::COMPUTING,
        Some(core) if core.is_propagating() => phase::PROPAGATING,
        Some(_) => phase::DORMANT,
    }
}

/// Which agents executed the outer protocol's `Reset` during one
/// Propagate-Reset step (i.e. awakened from dormancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Awakened {
    /// The first argument of [`propagate_reset`] awakened.
    pub first: bool,
    /// The second argument of [`propagate_reset`] awakened.
    pub second: bool,
}

/// Executes one interaction of Propagate-Reset (Protocol 2) between `x`
/// (which must be in the `Resetting` role) and `y` (any role), calling
/// `reset_fn` on each agent that awakens.
///
/// `reset_fn` is the outer protocol's `Reset` routine (Protocol 4 for
/// Optimal-Silent-SSR, Protocol 6 for Sublinear-Time-SSR); it must move the
/// agent out of the `Resetting` role. Returns which agents awakened.
///
/// # Panics
///
/// Panics if `x` is not resetting, or if `reset_fn` leaves an agent in the
/// `Resetting` role.
pub fn propagate_reset<S: ResetView>(
    params: &ResetParams,
    x: &mut S,
    y: &mut S,
    mut reset_fn: impl FnMut(&mut S),
) -> Awakened {
    let x_core = x.reset_core().expect("propagate_reset requires a Resetting first agent");

    // Line 1–3: a propagating agent pulls a computing partner into the
    // Resetting role as a dormant agent with a full delay.
    if x_core.is_propagating() && !y.is_resetting() {
        y.enter_resetting(ResetCore::dormant(params));
    }

    // Line 4–5: resetcounts equalize to max(a−1, b−1, 0).
    let mut x_new = x.reset_core().expect("x is resetting");
    let mut y_core_opt = y.reset_core();
    let x_was_propagating = x_core.is_propagating();
    let y_was_propagating = y_core_opt.is_some_and(|c| c.is_propagating());
    if let Some(y_core) = y_core_opt {
        let v = x_new.resetcount.max(y_core.resetcount).saturating_sub(1);
        x_new.resetcount = v;
        y_core_opt = Some(ResetCore { resetcount: v, ..y_core });
    }

    // Lines 6–12 for each resetting, now-dormant agent.
    let mut awakened = Awakened::default();
    let y_is_resetting = y_core_opt.is_some();

    // First agent.
    if x_new.is_dormant() {
        x_new = x_new.dormant_step(x_was_propagating, params);
        x.set_reset_core(x_new);
        if x_new.delaytimer == 0 || !y_is_resetting {
            reset_fn(x);
            assert!(!x.is_resetting(), "Reset must leave the Resetting role");
            awakened.first = true;
        }
    } else {
        x.set_reset_core(x_new);
    }

    // Second agent.
    if let Some(mut y_core) = y_core_opt {
        if y_core.is_dormant() {
            y_core = y_core.dormant_step(y_was_propagating, params);
            y.set_reset_core(y_core);
            // Line 11's "b.role ≠ Resetting" can only release the *first*
            // agent (y is resetting here by construction), so only the timer
            // can awaken y.
            if y_core.delaytimer == 0 {
                reset_fn(y);
                assert!(!y.is_resetting(), "Reset must leave the Resetting role");
                awakened.second = true;
            }
        } else {
            y.set_reset_core(y_core);
        }
    }

    awakened
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal outer protocol: computing state is a unit marker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum S {
        Computing,
        Resetting(ResetCore),
    }

    impl ResetView for S {
        fn reset_core(&self) -> Option<ResetCore> {
            match self {
                S::Computing => None,
                S::Resetting(core) => Some(*core),
            }
        }
        fn set_reset_core(&mut self, core: ResetCore) {
            assert!(matches!(self, S::Resetting(_)));
            *self = S::Resetting(core);
        }
        fn enter_resetting(&mut self, core: ResetCore) {
            *self = S::Resetting(core);
        }
    }

    fn params() -> ResetParams {
        ResetParams::new(5, 10).unwrap()
    }

    fn reset_to_computing(s: &mut S) {
        *s = S::Computing;
    }

    #[test]
    fn params_validation() {
        assert_eq!(ResetParams::new(0, 1), Err(ResetParamsError::ZeroRMax));
        assert_eq!(ResetParams::new(1, 0), Err(ResetParamsError::ZeroDMax));
        assert!(ResetParams::new(1, 1).is_ok());
        assert!(ResetParamsError::ZeroRMax.to_string().contains("R_max"));
    }

    #[test]
    fn r_max_for_scales_logarithmically() {
        let a = ResetParams::r_max_for(16, 2.0);
        let b = ResetParams::r_max_for(256, 2.0);
        assert!(b > a);
        assert!(ResetParams::r_max_for(1, 2.0) >= 1, "never zero");
    }

    #[test]
    fn propagating_converts_computing_partner() {
        let p = params();
        let mut a = S::Resetting(ResetCore::triggered(&p));
        let mut b = S::Computing;
        propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        let a_core = a.reset_core().unwrap();
        let b_core = b.reset_core().unwrap();
        // Both end at max(R_max − 1, 0).
        assert_eq!(a_core.resetcount, p.r_max - 1);
        assert_eq!(b_core.resetcount, p.r_max - 1);
    }

    #[test]
    fn chain_decreases_resetcount_by_one_per_hop() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 3, delaytimer: 0 });
        let mut b = S::Computing;
        propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert_eq!(b.reset_core().unwrap().resetcount, 2);
        let mut c = S::Computing;
        propagate_reset(&p, &mut b, &mut c, reset_to_computing);
        assert_eq!(c.reset_core().unwrap().resetcount, 1);
    }

    #[test]
    fn resetcount_reaching_zero_initializes_delay() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 1, delaytimer: 3 });
        let mut b = S::Resetting(ResetCore { resetcount: 1, delaytimer: 3 });
        let awake = propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert_eq!(awake, Awakened::default(), "fresh dormancy must not awaken");
        assert_eq!(a.reset_core().unwrap(), ResetCore { resetcount: 0, delaytimer: p.d_max });
        assert_eq!(b.reset_core().unwrap(), ResetCore { resetcount: 0, delaytimer: p.d_max });
    }

    #[test]
    fn dormant_pair_counts_down_together() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 0, delaytimer: 4 });
        let mut b = S::Resetting(ResetCore { resetcount: 0, delaytimer: 9 });
        let awake = propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert_eq!(awake, Awakened::default());
        assert_eq!(a.reset_core().unwrap().delaytimer, 3);
        assert_eq!(b.reset_core().unwrap().delaytimer, 8);
    }

    #[test]
    fn timer_expiry_awakens() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 0, delaytimer: 1 });
        let mut b = S::Resetting(ResetCore { resetcount: 0, delaytimer: 5 });
        let awake = propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert!(awake.first);
        assert!(!awake.second);
        assert_eq!(a, S::Computing);
        assert!(b.is_resetting());
    }

    #[test]
    fn computing_partner_awakens_dormant_agent_by_epidemic() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 0, delaytimer: 7 });
        let mut b = S::Computing;
        let awake = propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert!(awake.first, "dormant agent meeting a computing agent must awaken");
        assert_eq!(a, S::Computing);
        assert_eq!(b, S::Computing, "computing partner is untouched");
    }

    #[test]
    fn propagating_agent_is_not_awakened_by_computing_partner() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 4, delaytimer: 0 });
        let mut b = S::Computing;
        let awake = propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert!(!awake.first);
        assert!(a.is_resetting());
        assert!(b.is_resetting(), "partner was pulled into the reset instead");
    }

    #[test]
    fn propagating_meeting_dormant_reraises_dormant() {
        let p = params();
        let mut a = S::Resetting(ResetCore { resetcount: 4, delaytimer: 0 });
        let mut b = S::Resetting(ResetCore { resetcount: 0, delaytimer: 2 });
        propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert_eq!(a.reset_core().unwrap().resetcount, 3);
        assert_eq!(b.reset_core().unwrap().resetcount, 3, "dormant agent re-joins propagation");
    }

    #[test]
    fn adversarial_zero_timer_dormant_awakens_on_next_interaction() {
        let p = params();
        // The adversary may start an agent dormant with delaytimer already 0.
        let mut a = S::Resetting(ResetCore { resetcount: 0, delaytimer: 0 });
        let mut b = S::Resetting(ResetCore { resetcount: 0, delaytimer: 5 });
        let awake = propagate_reset(&p, &mut a, &mut b, reset_to_computing);
        assert!(awake.first);
    }

    #[test]
    #[should_panic(expected = "requires a Resetting first agent")]
    fn first_agent_must_be_resetting() {
        let p = params();
        let mut a = S::Computing;
        let mut b = S::Computing;
        propagate_reset(&p, &mut a, &mut b, reset_to_computing);
    }

    #[test]
    fn full_population_reset_round_trip() {
        // Drive a 6-agent population by hand through trigger → propagation →
        // dormancy → awakening, using a deterministic round-robin schedule.
        let p = ResetParams::new(4, 6).unwrap();
        let n = 6;
        let mut pop: Vec<S> = vec![S::Computing; n];
        pop[0] = S::Resetting(ResetCore::triggered(&p));
        let mut steps = 0;
        let mut schedule = (0..n).cycle();
        while pop.iter().any(|s| s.is_resetting()) {
            let i = schedule.next().unwrap();
            let j = (i + 1) % n;
            let (x, y) = (pop[i], pop[j]);
            let (mut xi, mut yj) = (x, y);
            if xi.is_resetting() {
                propagate_reset(&p, &mut xi, &mut yj, reset_to_computing);
            } else if yj.is_resetting() {
                propagate_reset(&p, &mut yj, &mut xi, reset_to_computing);
            }
            pop[i] = xi;
            pop[j] = yj;
            steps += 1;
            assert!(steps < 10_000, "reset failed to terminate");
        }
        assert!(pop.iter().all(|s| *s == S::Computing));
    }
}
