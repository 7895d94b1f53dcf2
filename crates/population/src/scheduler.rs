//! Schedulers: who interacts with whom, and when.
//!
//! At each step of an execution, the paper's scheduler "picks randomly an
//! ordered pair of agents" — uniformly among all ordered pairs of distinct
//! agents for the complete graph, or among the orientations of the graph's
//! edges otherwise. That uniform scheduler is [`Scheduler`], and it remains
//! the default everywhere.
//!
//! Self-stabilization claims are only as strong as the scheduler they assume,
//! so this module also defines [`SchedulerPolicy`] — the pluggable pair
//! sampler [`crate::Simulation`] is generic over — and a family of
//! non-uniform/adversarial policies for robustness experiments:
//!
//! * [`Scheduler`] — the paper's uniform scheduler (zero-cost default);
//! * [`Zipf`] — power-law agent popularity;
//! * [`EdgeRates`] — per-edge rate heterogeneity over an explicit edge list;
//! * [`EpochStarvation`] — a fairness-bounded adversary that starves a chosen
//!   agent set during alternating windows;
//! * [`Clustered`] — block-confined interactions with rare cross-block
//!   contact;
//! * [`AnyScheduler`] — a runtime-dispatched sum of the above for CLI use.
//!
//! Orthogonally, [`Reliability`] models *unreliable* interactions: omission
//! (the sampled pair meets but the transition is silently dropped) and
//! one-way application (only the initiator updates).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::graph::{EdgeList, InteractionGraph};

/// Samples a uniform integer in `0..span` from one (expected) 64-bit draw
/// using Lemire's widening-multiply rejection method — no modulo on the
/// accept path and no bias for any `span`.
///
/// This is the hot-path primitive behind the count-based backend's weighted
/// state draws ([`crate::counts`]); [`Scheduler::sample_pair`] on the
/// complete graph shares its accept/reject step through
/// [`uniform_pair_from`]. The previous implementation reduced the raw 64-bit
/// draw with a modulo, which is slower (a hardware divide per call) and
/// (negligibly but measurably) biased toward small residues whenever `span`
/// does not divide 2⁶⁴; the rejection zone below removes that bias exactly —
/// see the chi-squared test `uniform_u64_passes_chi_squared`.
///
/// # Panics
///
/// Panics in debug builds if `span == 0`.
#[inline]
pub(crate) fn uniform_u64<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    lemire(rng, span).1
}

/// One accepted draw of Lemire's method for `span`: the raw 64-bit word `x`
/// and the sample ⌊x·span/2⁶⁴⌋.
///
/// `x` is accepted when the low 64 bits of x·span land outside the "short"
/// zone of size 2⁶⁴ mod span; each sample then occurs exactly ⌊2⁶⁴/span⌋
/// times. The zone is smaller than `span`, so a low word at or above `span`
/// is accepted without computing it, and the division that computes it runs
/// only on the rare low word below `span` (Lemire, "Fast random integer
/// generation in an interval", ACM TOMACS 2019). Every accept/reject
/// decision is the same as testing against the zone on each draw, so the
/// RNG stream is too.
#[inline(always)]
fn lemire<R: RngCore>(rng: &mut R, span: u64) -> (u64, u64) {
    debug_assert!(span > 0, "cannot sample from an empty range");
    let mut x = rng.next_u64();
    let mut wide = u128::from(x) * u128::from(span);
    if (wide as u64) < span {
        let zone = span.wrapping_neg() % span;
        while (wide as u64) < zone {
            x = rng.next_u64();
            wide = u128::from(x) * u128::from(span);
        }
    }
    (x, (wide >> 64) as u64)
}

/// One uniform ordered pair of distinct agents in `lo..n` from a single
/// Lemire draw over the m(m−1) ordered pairs, m = n − lo: half the RNG work
/// of two independent draws, and no division on the accept path.
///
/// The joint index is idx = ⌊x·m(m−1)/2⁶⁴⌋ for the accepted raw word `x`,
/// and the initiator idx / (m−1) equals ⌊x·m/2⁶⁴⌋ exactly (nested floors of
/// quotients collapse), so it is one more widening multiply; the responder
/// is the remainder idx − i·(m−1), shifted past `i`.
#[inline(always)]
pub(crate) fn uniform_pair_from<R: RngCore>(rng: &mut R, lo: usize, n: usize) -> (usize, usize) {
    let m = (n - lo) as u64;
    debug_assert!(m >= 2);
    let (x, idx) = lemire(rng, m * (m - 1));
    let i = ((u128::from(x) * u128::from(m)) >> 64) as u64;
    let mut j = idx - i * (m - 1);
    if j >= i {
        j += 1;
    }
    (lo + i as usize, lo + j as usize)
}

/// Largest population a pair sampler accepts: the joint draw over the
/// n(n−1) ordered pairs must fit in 64 bits.
const MAX_SCHEDULED_AGENTS: usize = u32::MAX as usize;

/// Checked once by every constructor whose sampler draws joint pair
/// indices, so no draw can wrap n(n−1).
fn pairs_fit(n: usize) -> Result<(), String> {
    if n > MAX_SCHEDULED_AGENTS {
        return Err(format!("scheduling supports at most {MAX_SCHEDULED_AGENTS} agents, got {n}"));
    }
    Ok(())
}

/// A sampler of ordered interaction pairs over a fixed graph.
///
/// Separated from [`crate::Simulation`] so protocol-independent processes
/// (epidemics, roll call) can reuse it.
#[derive(Debug, Clone)]
pub struct Scheduler {
    n: usize,
    graph: InteractionGraph,
}

impl Scheduler {
    /// Creates a scheduler for `n` agents on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no ordered pair exists), if `n` exceeds 2³² − 1,
    /// or if an arbitrary graph was validated for a different population
    /// size.
    pub fn new(n: usize, graph: InteractionGraph) -> Self {
        assert!(n >= 2, "scheduling requires at least two agents, got {n}");
        pairs_fit(n).unwrap_or_else(|e| panic!("{e}"));
        if let InteractionGraph::Arbitrary(list) = &graph {
            assert_eq!(
                list.population_size(),
                n,
                "edge list was validated for a different population size"
            );
        }
        Scheduler { n, graph }
    }

    /// The population size.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// The underlying graph.
    pub fn graph(&self) -> &InteractionGraph {
        &self.graph
    }

    /// Samples one uniformly random ordered pair `(initiator, responder)`.
    #[inline(always)]
    pub fn sample_pair<R: RngCore>(&self, rng: &mut R) -> (usize, usize) {
        match &self.graph {
            InteractionGraph::Complete => uniform_pair_from(rng, 0, self.n),
            InteractionGraph::Ring => {
                let i = rng.gen_range(0..self.n);
                let j = if self.n == 2 {
                    1 - i
                } else if rng.gen::<bool>() {
                    (i + 1) % self.n
                } else {
                    (i + self.n - 1) % self.n
                };
                (i, j)
            }
            InteractionGraph::Arbitrary(list) => {
                let edges = list.edges();
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                if rng.gen::<bool>() {
                    (u, v)
                } else {
                    (v, u)
                }
            }
        }
    }
}

/// A pluggable pair sampler: given the RNG and the number of interactions
/// performed so far, produce the next ordered pair `(initiator, responder)`.
///
/// [`crate::Simulation`] is generic over this trait with [`Scheduler`] (the
/// paper's uniform scheduler) as the default, so the uniform hot path
/// monomorphizes to exactly the pre-trait code — the same zero-cost plug-in
/// pattern as [`crate::Observer`] and [`crate::FaultSchedule`]. Policies are
/// immutable during a run (`&self`); time-varying adversaries key off the
/// `interactions` argument instead of interior state, so a `(policy, seed)`
/// pair replays bit-identically.
pub trait SchedulerPolicy {
    /// Stable snake_case family name for records and reports
    /// (`"uniform"`, `"zipf"`, …).
    fn label(&self) -> &'static str;

    /// Parameterized spec string for records (`"zipf:1.5"`,
    /// `"starve:4:256"`, …); the label alone for parameterless policies.
    fn spec(&self) -> String {
        self.label().to_string()
    }

    /// The population size the policy was built for.
    fn population_size(&self) -> usize;

    /// Samples the ordered pair for the interaction following the first
    /// `interactions` ones. Generic over the RNG so the engine can count
    /// the words a policy draws ([`CountingRng`]) without changing them.
    fn sample_at<R: RngCore>(&self, rng: &mut R, interactions: u64) -> (usize, usize);

    /// Whether this policy **is** the uniform scheduler on the complete
    /// graph — the exchangeability assumption the count-based backend's
    /// batching relies on. Non-uniform policies return `false` and force
    /// exact per-interaction agent-level sampling there.
    fn is_uniform_complete(&self) -> bool {
        false
    }
}

impl SchedulerPolicy for Scheduler {
    fn label(&self) -> &'static str {
        "uniform"
    }

    fn population_size(&self) -> usize {
        self.n
    }

    #[inline(always)]
    fn sample_at<R: RngCore>(&self, rng: &mut R, _interactions: u64) -> (usize, usize) {
        self.sample_pair(rng)
    }

    fn is_uniform_complete(&self) -> bool {
        matches!(self.graph, InteractionGraph::Complete)
    }
}

/// Power-law agent popularity: agent `i` is drawn with probability
/// proportional to `1 / (i + 1)^s`.
///
/// Initiator and responder are drawn independently from the same popularity
/// distribution (the responder redrawn until distinct), modeling populations
/// where a few "hub" agents take part in most interactions while the tail
/// interacts rarely. With `s = 0` every agent is equally popular, but the
/// pair distribution still differs slightly from [`Scheduler`]'s (two
/// independent draws vs. one joint draw) — use `Scheduler` for the paper's
/// scheduler.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cumulative[i]` = sum of weights of agents `0..=i`.
    cumulative: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates a Zipf policy over `n` agents with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the exponent is not finite and non-negative.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n >= 2, "scheduling requires at least two agents, got {n}");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf exponent must be finite and non-negative, got {exponent}"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        Zipf { cumulative, exponent }
    }

    /// The configured exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    fn draw_agent<R: RngCore>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("n >= 2");
        let u = rng.gen::<f64>() * total;
        // partition_point: first index with cumulative > u.
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

impl SchedulerPolicy for Zipf {
    fn label(&self) -> &'static str {
        "zipf"
    }

    fn spec(&self) -> String {
        format!("zipf:{}", self.exponent)
    }

    fn population_size(&self) -> usize {
        self.cumulative.len()
    }

    fn sample_at<R: RngCore>(&self, rng: &mut R, _interactions: u64) -> (usize, usize) {
        let i = self.draw_agent(rng);
        loop {
            let j = self.draw_agent(rng);
            if j != i {
                return (i, j);
            }
        }
    }
}

/// Per-edge rate heterogeneity: each undirected edge of an explicit
/// [`EdgeList`] carries a positive rate, and the scheduler picks an edge with
/// probability proportional to its rate (orientation uniform).
///
/// This generalizes [`InteractionGraph::Arbitrary`] (all rates equal) to
/// communication topologies where some links are simply faster than others.
#[derive(Debug, Clone)]
pub struct EdgeRates {
    edges: EdgeList,
    /// `cumulative[e]` = sum of rates of edges `0..=e`.
    cumulative: Vec<f64>,
}

impl EdgeRates {
    /// Creates an edge-rate policy; `rates[e]` is the rate of
    /// `edges.edges()[e]`.
    ///
    /// # Panics
    ///
    /// Panics if the rate list length does not match the edge list, or any
    /// rate is not finite and positive.
    pub fn new(edges: EdgeList, rates: &[f64]) -> Self {
        assert_eq!(
            edges.edges().len(),
            rates.len(),
            "one rate per edge: {} edges, {} rates",
            edges.edges().len(),
            rates.len()
        );
        let mut cumulative = Vec::with_capacity(rates.len());
        let mut total = 0.0f64;
        for &r in rates {
            assert!(r.is_finite() && r > 0.0, "edge rates must be finite and positive, got {r}");
            total += r;
            cumulative.push(total);
        }
        EdgeRates { edges, cumulative }
    }
}

impl SchedulerPolicy for EdgeRates {
    fn label(&self) -> &'static str {
        "edge_rates"
    }

    fn population_size(&self) -> usize {
        self.edges.population_size()
    }

    fn sample_at<R: RngCore>(&self, rng: &mut R, _interactions: u64) -> (usize, usize) {
        let total = *self.cumulative.last().expect("edge list is non-empty");
        let u = rng.gen::<f64>() * total;
        let e = self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1);
        let (a, b) = self.edges.edges()[e];
        if rng.gen::<bool>() {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// A fairness-bounded epoch adversary: during alternating windows of
/// `window` interactions, the first `starved` agents are excluded from
/// scheduling entirely; in between, scheduling is uniform over everyone.
///
/// Interactions `t` with `(t / window) % 2 == 0` fall in a starvation
/// window (so a run *starts* starved), the rest are fair. Because every
/// starvation window is followed by a fair window of equal length, the
/// scheduler is fair in the limit — every pair interacts infinitely often —
/// and convergence of the paper's protocols is still guaranteed; what the
/// adversary costs is *time*, which the robustness experiments measure.
///
/// Starving "the first `k` agents" is fully general here: agents are
/// exchangeable and initial configurations are adversarial anyway.
#[derive(Debug, Clone)]
pub struct EpochStarvation {
    n: usize,
    starved: usize,
    window: u64,
}

impl EpochStarvation {
    /// Creates the adversary: starve agents `0..starved` during every other
    /// `window`-interaction epoch.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents remain during starvation
    /// (`n - starved < 2`), `n` exceeds 2³² − 1, or `window == 0`.
    pub fn new(n: usize, starved: usize, window: u64) -> Self {
        assert!(
            n >= 2 && n - starved.min(n) >= 2,
            "starving {starved} of {n} agents leaves no pair to schedule"
        );
        pairs_fit(n).unwrap_or_else(|e| panic!("{e}"));
        assert!(window > 0, "starvation window must be positive");
        EpochStarvation { n, starved, window }
    }

    /// Number of agents starved during a starvation window.
    pub fn starved(&self) -> usize {
        self.starved
    }

    /// Window length in interactions.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Whether the interaction following the first `interactions` ones falls
    /// in a starvation window.
    pub fn starving_at(&self, interactions: u64) -> bool {
        (interactions / self.window).is_multiple_of(2)
    }
}

impl SchedulerPolicy for EpochStarvation {
    fn label(&self) -> &'static str {
        "starve"
    }

    fn spec(&self) -> String {
        format!("starve:{}:{}", self.starved, self.window)
    }

    fn population_size(&self) -> usize {
        self.n
    }

    fn sample_at<R: RngCore>(&self, rng: &mut R, interactions: u64) -> (usize, usize) {
        let lo = if self.starving_at(interactions) { self.starved } else { 0 };
        uniform_pair_from(rng, lo, self.n)
    }
}

/// Block-confined scheduling: agents are partitioned into `blocks`
/// contiguous blocks; with probability `eps` an interaction is a uniform
/// pair over the whole population (cross-block contact), otherwise a block
/// is chosen with probability proportional to its number of ordered pairs
/// and the pair is uniform within it.
///
/// Models clustered/partitioned populations (racks, regions) where
/// information crosses cluster boundaries only rarely; `eps > 0` keeps the
/// scheduler fair, so convergence is preserved but slowed by the bottleneck.
#[derive(Debug, Clone)]
pub struct Clustered {
    n: usize,
    blocks: usize,
    eps: f64,
    /// `cumulative[b]` = sum of `size·(size−1)` over blocks `0..=b`.
    cumulative: Vec<u64>,
}

impl Clustered {
    /// Creates a clustered policy with `blocks` contiguous blocks and
    /// cross-block probability `eps`.
    ///
    /// # Panics
    ///
    /// Panics if any block would hold fewer than two agents
    /// (`n / blocks < 2`), `n` exceeds 2³² − 1, or `eps` is outside
    /// `(0, 1]`.
    pub fn new(n: usize, blocks: usize, eps: f64) -> Self {
        pairs_fit(n).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            blocks >= 1 && n / blocks >= 2,
            "{n} agents in {blocks} blocks leaves a block without a pair"
        );
        assert!(
            eps.is_finite() && eps > 0.0 && eps <= 1.0,
            "cross-block probability must be in (0, 1], got {eps} (0 would disconnect the blocks)"
        );
        let mut cumulative = Vec::with_capacity(blocks);
        let mut total = 0u64;
        for b in 0..blocks {
            let size = (Self::block_end(n, blocks, b) - Self::block_start(n, blocks, b)) as u64;
            total += size * (size - 1);
            cumulative.push(total);
        }
        Clustered { n, blocks, eps, cumulative }
    }

    fn block_start(n: usize, blocks: usize, b: usize) -> usize {
        b * n / blocks
    }

    fn block_end(n: usize, blocks: usize, b: usize) -> usize {
        (b + 1) * n / blocks
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Cross-block contact probability.
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

impl SchedulerPolicy for Clustered {
    fn label(&self) -> &'static str {
        "clustered"
    }

    fn spec(&self) -> String {
        format!("clustered:{}:{}", self.blocks, self.eps)
    }

    fn population_size(&self) -> usize {
        self.n
    }

    fn sample_at<R: RngCore>(&self, rng: &mut R, _interactions: u64) -> (usize, usize) {
        if rng.gen::<f64>() < self.eps {
            return uniform_pair_from(rng, 0, self.n);
        }
        let total = *self.cumulative.last().expect("blocks >= 1");
        let r = uniform_u64(rng, total);
        let b = self.cumulative.partition_point(|&c| c <= r);
        let lo = Self::block_start(self.n, self.blocks, b);
        let hi = Self::block_end(self.n, self.blocks, b);
        uniform_pair_from(rng, lo, hi)
    }
}

/// Runtime-dispatched scheduler policy, for callers (CLI, benches) that pick
/// the policy from a flag. One predicted branch per draw; the generic
/// [`SchedulerPolicy`] plumbing stays zero-cost for the static default.
#[derive(Debug, Clone)]
pub enum AnyScheduler {
    /// The paper's uniform scheduler.
    Uniform(Scheduler),
    /// Power-law agent popularity.
    Zipf(Zipf),
    /// Per-edge rates over an explicit edge list.
    EdgeRates(EdgeRates),
    /// The fairness-bounded starvation adversary.
    Starve(EpochStarvation),
    /// Block-confined interactions with rare cross-block contact.
    Clustered(Clustered),
}

impl AnyScheduler {
    /// The uniform scheduler on the complete graph over `n` agents.
    pub fn uniform(n: usize) -> Self {
        AnyScheduler::Uniform(Scheduler::new(n, InteractionGraph::Complete))
    }

    /// Parses a scheduler spec for a population of `n` agents.
    ///
    /// Accepted forms (parameters optional, defaults in brackets):
    ///
    /// * `uniform`
    /// * `zipf[:EXPONENT]` — \[1\]
    /// * `starve[:K[:WINDOW]]` — starve K agents \[⌈n/4⌉\] in alternating
    ///   windows of WINDOW interactions \[4·n\]
    /// * `clustered[:BLOCKS[:EPS]]` — \[4 blocks, eps 0.05\]
    ///
    /// (`edge_rates` needs an explicit edge/rate list and has no spec form.)
    pub fn from_spec(spec: &str, n: usize) -> Result<Self, String> {
        if n < 2 {
            return Err(format!("scheduling requires at least two agents, got {n}"));
        }
        pairs_fit(n)?;
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let parse_f64 = |s: &str| -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|_| format!("bad numeric parameter {s:?} in scheduler spec {spec:?}"))
        };
        let parse_usize = |s: &str| -> Result<usize, String> {
            s.parse::<usize>()
                .map_err(|_| format!("bad integer parameter {s:?} in scheduler spec {spec:?}"))
        };
        match name {
            "uniform" => {
                if !args.is_empty() {
                    return Err(format!("uniform takes no parameters, got {spec:?}"));
                }
                Ok(Self::uniform(n))
            }
            "zipf" => {
                let exponent = match args.as_slice() {
                    [] => 1.0,
                    [e] => parse_f64(e)?,
                    _ => return Err(format!("zipf takes at most one parameter, got {spec:?}")),
                };
                if !(exponent.is_finite() && exponent >= 0.0) {
                    return Err(format!("zipf exponent must be finite and non-negative, got {exponent}"));
                }
                Ok(AnyScheduler::Zipf(Zipf::new(n, exponent)))
            }
            "starve" => {
                let (k, window) = match args.as_slice() {
                    [] => (n.div_ceil(4), 4 * n as u64),
                    [k] => (parse_usize(k)?, 4 * n as u64),
                    [k, w] => (parse_usize(k)?, parse_usize(w)? as u64),
                    _ => return Err(format!("starve takes at most two parameters, got {spec:?}")),
                };
                if n.saturating_sub(k) < 2 {
                    return Err(format!("starving {k} of {n} agents leaves no pair to schedule"));
                }
                if window == 0 {
                    return Err("starvation window must be positive".to_string());
                }
                Ok(AnyScheduler::Starve(EpochStarvation::new(n, k, window)))
            }
            "clustered" => {
                let (blocks, eps) = match args.as_slice() {
                    [] => (4usize.min(n / 2).max(1), 0.05),
                    [b] => (parse_usize(b)?, 0.05),
                    [b, e] => (parse_usize(b)?, parse_f64(e)?),
                    _ => return Err(format!("clustered takes at most two parameters, got {spec:?}")),
                };
                if blocks == 0 || n / blocks < 2 {
                    return Err(format!("{n} agents in {blocks} blocks leaves a block without a pair"));
                }
                if !(eps.is_finite() && eps > 0.0 && eps <= 1.0) {
                    return Err(format!("cross-block probability must be in (0, 1], got {eps}"));
                }
                Ok(AnyScheduler::Clustered(Clustered::new(n, blocks, eps)))
            }
            other => Err(format!(
                "unknown scheduler {other:?} (expected uniform, zipf[:s], starve[:k[:w]], or clustered[:b[:eps]])"
            )),
        }
    }

    /// The starvation window length in interactions, if this is the epoch
    /// adversary (the schema-v3 `starve_window` record field).
    pub fn starve_window(&self) -> Option<u64> {
        match self {
            AnyScheduler::Starve(s) => Some(s.window()),
            _ => None,
        }
    }
}

impl SchedulerPolicy for AnyScheduler {
    fn label(&self) -> &'static str {
        match self {
            AnyScheduler::Uniform(p) => p.label(),
            AnyScheduler::Zipf(p) => p.label(),
            AnyScheduler::EdgeRates(p) => p.label(),
            AnyScheduler::Starve(p) => p.label(),
            AnyScheduler::Clustered(p) => p.label(),
        }
    }

    fn spec(&self) -> String {
        match self {
            AnyScheduler::Uniform(p) => SchedulerPolicy::spec(p),
            AnyScheduler::Zipf(p) => p.spec(),
            AnyScheduler::EdgeRates(p) => p.spec(),
            AnyScheduler::Starve(p) => p.spec(),
            AnyScheduler::Clustered(p) => p.spec(),
        }
    }

    fn population_size(&self) -> usize {
        match self {
            AnyScheduler::Uniform(p) => SchedulerPolicy::population_size(p),
            AnyScheduler::Zipf(p) => p.population_size(),
            AnyScheduler::EdgeRates(p) => p.population_size(),
            AnyScheduler::Starve(p) => p.population_size(),
            AnyScheduler::Clustered(p) => p.population_size(),
        }
    }

    #[inline]
    fn sample_at<R: RngCore>(&self, rng: &mut R, interactions: u64) -> (usize, usize) {
        match self {
            AnyScheduler::Uniform(p) => p.sample_at(rng, interactions),
            AnyScheduler::Zipf(p) => p.sample_at(rng, interactions),
            AnyScheduler::EdgeRates(p) => p.sample_at(rng, interactions),
            AnyScheduler::Starve(p) => p.sample_at(rng, interactions),
            AnyScheduler::Clustered(p) => p.sample_at(rng, interactions),
        }
    }

    fn is_uniform_complete(&self) -> bool {
        match self {
            AnyScheduler::Uniform(p) => p.is_uniform_complete(),
            _ => false,
        }
    }
}

/// How reliably a sampled interaction is applied.
///
/// The paper assumes every scheduled interaction executes its transition on
/// both participants; real encounters drop messages. `omission` is the
/// probability that a sampled pair meets but the transition is silently
/// dropped (the interaction still counts — parallel time measures scheduled
/// meetings); `one_way` applies only the initiator's update, discarding the
/// responder's. The default ([`Reliability::perfect`]) consumes no extra
/// randomness, so fault-free executions are bit-identical to builds that
/// predate this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability {
    /// Probability in `[0, 1)` that a sampled interaction's transition is
    /// dropped.
    pub omission: f64,
    /// Whether only the initiator's state update is applied.
    pub one_way: bool,
}

impl Default for Reliability {
    fn default() -> Self {
        Self::perfect()
    }
}

impl Reliability {
    /// Perfectly reliable interactions (the paper's model).
    pub fn perfect() -> Self {
        Reliability { omission: 0.0, one_way: false }
    }

    /// Reliable pairwise application with the given omission probability.
    ///
    /// # Panics
    ///
    /// Panics unless `omission ∈ [0, 1)`.
    pub fn with_omission(omission: f64) -> Self {
        Reliability::perfect().and_omission(omission)
    }

    /// Sets the omission probability, keeping the one-way flag.
    ///
    /// # Panics
    ///
    /// Panics unless `omission ∈ [0, 1)`.
    pub fn and_omission(mut self, omission: f64) -> Self {
        assert!(
            omission.is_finite() && (0.0..1.0).contains(&omission),
            "omission probability must be in [0, 1), got {omission}"
        );
        self.omission = omission;
        self
    }

    /// Sets one-way application (only the initiator updates).
    pub fn and_one_way(mut self) -> Self {
        self.one_way = true;
        self
    }

    /// Whether this is the perfectly reliable model.
    pub fn is_perfect(&self) -> bool {
        self.omission == 0.0 && !self.one_way
    }

    /// Draws whether the next interaction's transition is dropped. Consumes
    /// RNG only when `omission > 0`, so perfect reliability leaves the
    /// execution's random stream untouched.
    #[inline(always)]
    pub(crate) fn drops(&self, rng: &mut SmallRng) -> bool {
        self.omission > 0.0 && rng.gen::<f64>() < self.omission
    }

    /// RNG words [`Reliability::drops`] consumes per interaction.
    #[inline(always)]
    pub(crate) fn drop_draws(&self) -> u64 {
        u64::from(self.omission > 0.0)
    }
}

/// An RNG adapter counting the 64-bit words drawn through it: how the
/// agent-array backend measures its `rng_draws` metric. Every draw is
/// forwarded unchanged, so a sampler run through it consumes exactly the
/// stream it would consume directly.
pub struct CountingRng<'a> {
    rng: &'a mut SmallRng,
    draws: u64,
}

impl<'a> CountingRng<'a> {
    /// Wraps `rng` with a zero count.
    #[inline(always)]
    pub fn new(rng: &'a mut SmallRng) -> Self {
        CountingRng { rng, draws: 0 }
    }

    /// Words drawn through the adapter so far.
    #[inline(always)]
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl RngCore for CountingRng<'_> {
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::rng_from_seed;
    use std::collections::HashMap;

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn rejects_singleton_population() {
        Scheduler::new(1, InteractionGraph::Complete);
    }

    #[test]
    #[should_panic(expected = "different population size")]
    fn rejects_mismatched_edge_list() {
        let g = InteractionGraph::from_edges(3, vec![(0, 1)]).unwrap();
        Scheduler::new(4, g);
    }

    #[test]
    fn complete_pairs_are_distinct_and_in_range() {
        let s = Scheduler::new(5, InteractionGraph::Complete);
        let mut rng = rng_from_seed(1);
        for _ in 0..10_000 {
            let (i, j) = s.sample_pair(&mut rng);
            assert!(i < 5 && j < 5 && i != j);
        }
    }

    #[test]
    fn complete_pairs_are_roughly_uniform() {
        let n = 4;
        let s = Scheduler::new(n, InteractionGraph::Complete);
        let mut rng = rng_from_seed(2);
        let mut counts: HashMap<(usize, usize), u32> = HashMap::new();
        let trials = 120_000;
        for _ in 0..trials {
            *counts.entry(s.sample_pair(&mut rng)).or_default() += 1;
        }
        assert_eq!(counts.len(), n * (n - 1), "all ordered pairs occur");
        let expected = trials as f64 / (n * (n - 1)) as f64;
        for (&pair, &c) in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "pair {pair:?} occurred {c} times, expected ≈{expected}");
        }
    }

    #[test]
    fn uniform_u64_covers_every_residue_evenly() {
        // A span that does not divide 2^64, so the rejection zone is
        // exercised; every residue must appear at the uniform rate.
        let span = 12u64;
        let mut rng = rng_from_seed(6);
        let mut counts = vec![0u32; span as usize];
        let trials = 120_000;
        for _ in 0..trials {
            let x = uniform_u64(&mut rng, span);
            counts[x as usize] += 1;
        }
        let expected = trials as f64 / span as f64;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "residue {x} occurred {c} times, expected ≈{expected}");
        }
    }

    #[test]
    fn uniform_u64_handles_degenerate_spans() {
        let mut rng = rng_from_seed(7);
        for _ in 0..100 {
            assert_eq!(uniform_u64(&mut rng, 1), 0);
        }
        // Power-of-two spans have an empty rejection zone.
        for _ in 0..100 {
            assert!(uniform_u64(&mut rng, 8) < 8);
        }
    }

    /// The samplers as they were before the threshold became lazy and the
    /// pair split division-free, kept to pin both bit for bit.
    mod division_based {
        use rand::rngs::SmallRng;
        use rand::RngCore;

        pub fn uniform_u64(rng: &mut SmallRng, span: u64) -> u64 {
            let zone = span.wrapping_neg() % span;
            loop {
                let wide = u128::from(rng.next_u64()) * u128::from(span);
                if (wide as u64) >= zone {
                    return (wide >> 64) as u64;
                }
            }
        }

        pub fn uniform_pair_from(rng: &mut SmallRng, lo: usize, n: usize) -> (usize, usize) {
            let m = (n - lo) as u64;
            let idx = uniform_u64(rng, m * (m - 1));
            let i = (idx / (m - 1)) as usize;
            let mut j = (idx % (m - 1)) as usize;
            if j >= i {
                j += 1;
            }
            (lo + i, lo + j)
        }
    }

    #[test]
    fn pair_draws_match_the_division_based_sampler() {
        // 3_037_000_501 is the smallest m with m(m−1) > 2^63: about half of
        // its joint draws fall in the rejection zone.
        let sizes = [2, 3, 7, 1024, 100_000, 3_037_000_501, u32::MAX as usize];
        for n in sizes {
            let s = Scheduler::new(n, InteractionGraph::Complete);
            for seed in 0..64 {
                let mut new = rng_from_seed(seed);
                let mut old = rng_from_seed(seed);
                for _ in 0..500 {
                    assert_eq!(
                        s.sample_pair(&mut new),
                        division_based::uniform_pair_from(&mut old, 0, n),
                        "n = {n}, seed {seed}"
                    );
                }
                assert_eq!(new.state(), old.state(), "n = {n}, seed {seed}");
                let lo = n / 3;
                if n - lo >= 2 {
                    for _ in 0..500 {
                        assert_eq!(
                            uniform_pair_from(&mut new, lo, n),
                            division_based::uniform_pair_from(&mut old, lo, n),
                            "lo = {lo}, n = {n}, seed {seed}"
                        );
                    }
                    assert_eq!(new.state(), old.state(), "lo = {lo}, n = {n}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn uniform_u64_matches_the_eager_threshold() {
        // 2^63 + 1 rejects about half of all draws; 101 and 8 exercise a
        // small and an empty zone, 1 the degenerate span.
        for span in [1, 8, 101, (1u64 << 63) + 1] {
            for seed in 0..64 {
                let mut new = rng_from_seed(seed);
                let mut old = rng_from_seed(seed);
                for _ in 0..2_000 {
                    assert_eq!(
                        uniform_u64(&mut new, span),
                        division_based::uniform_u64(&mut old, span),
                        "span {span}, seed {seed}"
                    );
                }
                assert_eq!(new.state(), old.state(), "span {span}, seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 4294967295 agents")]
    fn scheduler_rejects_populations_whose_pairs_overflow() {
        Scheduler::new(u32::MAX as usize + 1, InteractionGraph::Complete);
    }

    #[test]
    #[should_panic(expected = "at most 4294967295 agents")]
    fn starvation_rejects_populations_whose_pairs_overflow() {
        EpochStarvation::new(u32::MAX as usize + 1, 1, 16);
    }

    #[test]
    #[should_panic(expected = "at most 4294967295 agents")]
    fn clustered_rejects_populations_whose_pairs_overflow() {
        Clustered::new(u32::MAX as usize + 1, 1, 0.5);
    }

    #[test]
    fn ring_pairs_are_adjacent() {
        let n = 6;
        let s = Scheduler::new(n, InteractionGraph::Ring);
        let mut rng = rng_from_seed(3);
        for _ in 0..10_000 {
            let (i, j) = s.sample_pair(&mut rng);
            let diff = (i as isize - j as isize).rem_euclid(n as isize);
            assert!(diff == 1 || diff == n as isize - 1, "({i},{j}) is not a ring edge");
        }
    }

    #[test]
    fn two_agent_ring_always_pairs_them() {
        let s = Scheduler::new(2, InteractionGraph::Ring);
        let mut rng = rng_from_seed(4);
        for _ in 0..100 {
            let (i, j) = s.sample_pair(&mut rng);
            assert!(i != j && i < 2 && j < 2);
        }
    }

    #[test]
    fn arbitrary_graph_samples_only_listed_edges_both_orientations() {
        let g = InteractionGraph::from_edges(4, vec![(0, 3)]).unwrap();
        let s = Scheduler::new(4, g);
        let mut rng = rng_from_seed(5);
        let mut saw = [false, false];
        for _ in 0..1000 {
            match s.sample_pair(&mut rng) {
                (0, 3) => saw[0] = true,
                (3, 0) => saw[1] = true,
                other => panic!("sampled non-edge {other:?}"),
            }
        }
        assert!(saw[0] && saw[1], "both orientations should occur");
    }

    #[test]
    fn uniform_u64_passes_chi_squared() {
        // Pearson chi-squared goodness-of-fit against the uniform
        // distribution, with a prime span so the rejection zone is non-empty
        // and residues cannot align with any power-of-two structure in the
        // generator. 2000 expected draws per cell, 100 degrees of freedom;
        // the p = 0.001 critical value is χ² ≈ 149.4, we allow 160 for a
        // fixed seed that is not cherry-picked.
        let span = 101u64;
        let draws = 202_000u64;
        let mut rng = rng_from_seed(0xC41_5EED);
        let mut counts = vec![0u64; span as usize];
        for _ in 0..draws {
            counts[uniform_u64(&mut rng, span) as usize] += 1;
        }
        let expected = draws as f64 / span as f64;
        let chi2: f64 = counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
        assert!(chi2 < 160.0, "chi-squared statistic {chi2:.1} exceeds the p=0.001 bound");
    }

    #[test]
    fn scheduler_policy_matches_sample_pair_exactly() {
        // The trait impl on `Scheduler` must be the identical draw, so the
        // generic plumbing cannot change any uniform execution.
        let s = Scheduler::new(9, InteractionGraph::Complete);
        let mut a = rng_from_seed(11);
        let mut b = rng_from_seed(11);
        for t in 0..5_000 {
            assert_eq!(s.sample_pair(&mut a), s.sample_at(&mut b, t));
        }
        assert!(s.is_uniform_complete());
        assert!(!Scheduler::new(9, InteractionGraph::Ring).is_uniform_complete());
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let n = 16;
        let z = Zipf::new(n, 1.2);
        assert_eq!(z.population_size(), n);
        let mut rng = rng_from_seed(21);
        let mut counts = vec![0u32; n];
        for t in 0..60_000 {
            let (i, j) = z.sample_at(&mut rng, t);
            assert!(i < n && j < n && i != j);
            counts[i] += 1;
            counts[j] += 1;
        }
        assert!(
            counts[0] > 4 * counts[n - 1],
            "agent 0 ({}) should dominate agent {} ({})",
            counts[0],
            n - 1,
            counts[n - 1]
        );
    }

    #[test]
    fn zipf_with_zero_exponent_hits_everyone() {
        let n = 6;
        let z = Zipf::new(n, 0.0);
        let mut rng = rng_from_seed(22);
        let mut counts = vec![0u32; n];
        for t in 0..30_000 {
            let (i, j) = z.sample_at(&mut rng, t);
            counts[i] += 1;
            counts[j] += 1;
        }
        let expected = 2.0 * 30_000.0 / n as f64;
        for (a, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "agent {a} occurred {c} times, expected ≈{expected}");
        }
    }

    #[test]
    fn edge_rates_respect_relative_weights() {
        let list = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        let p = EdgeRates::new(list, &[9.0, 1.0]);
        assert_eq!(p.population_size(), 3);
        let mut rng = rng_from_seed(23);
        let mut hot = 0u32;
        let mut cold = 0u32;
        for t in 0..40_000 {
            match p.sample_at(&mut rng, t) {
                (0, 1) | (1, 0) => hot += 1,
                (1, 2) | (2, 1) => cold += 1,
                other => panic!("sampled non-edge {other:?}"),
            }
        }
        let frac = hot as f64 / (hot + cold) as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot edge fraction {frac} should be ≈0.9");
    }

    #[test]
    #[should_panic(expected = "one rate per edge")]
    fn edge_rates_reject_length_mismatch() {
        let list = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        EdgeRates::new(list, &[1.0]);
    }

    #[test]
    fn starvation_excludes_agents_only_during_odd_epochs() {
        let n = 10;
        let p = EpochStarvation::new(n, 3, 100);
        assert_eq!(p.spec(), "starve:3:100");
        let mut rng = rng_from_seed(24);
        let mut starved_seen = false;
        for t in 0..10_000u64 {
            let (i, j) = p.sample_at(&mut rng, t);
            assert!(i < n && j < n && i != j);
            if p.starving_at(t) {
                assert!(i >= 3 && j >= 3, "starved agent scheduled at t={t}: ({i},{j})");
            } else if i < 3 || j < 3 {
                starved_seen = true;
            }
        }
        assert!(starved_seen, "fair windows must eventually schedule the starved set");
    }

    #[test]
    fn clustered_crosses_blocks_rarely_but_surely() {
        let n = 16;
        let p = Clustered::new(n, 4, 0.05);
        let block = |a: usize| a / 4;
        let mut rng = rng_from_seed(25);
        let mut cross = 0u32;
        let total = 40_000;
        for t in 0..total {
            let (i, j) = p.sample_at(&mut rng, t);
            assert!(i < n && j < n && i != j);
            if block(i) != block(j) {
                cross += 1;
            }
        }
        let frac = cross as f64 / total as f64;
        // eps=0.05 of draws are uniform, and 12/15 of those cross blocks.
        assert!(frac > 0.01 && frac < 0.1, "cross-block fraction {frac} out of range");
    }

    #[test]
    fn clustered_handles_uneven_blocks() {
        // 7 agents in 3 blocks: sizes 2, 2, 3 — every agent must be reachable.
        let n = 7;
        let p = Clustered::new(n, 3, 0.2);
        let mut rng = rng_from_seed(26);
        let mut seen = vec![false; n];
        for t in 0..5_000 {
            let (i, j) = p.sample_at(&mut rng, t);
            assert!(i != j);
            seen[i] = true;
            seen[j] = true;
        }
        assert!(seen.iter().all(|&s| s), "every agent should be scheduled: {seen:?}");
    }

    #[test]
    fn any_scheduler_parses_specs() {
        let n = 20;
        assert!(matches!(AnyScheduler::from_spec("uniform", n), Ok(AnyScheduler::Uniform(_))));
        match AnyScheduler::from_spec("zipf:1.5", n).unwrap() {
            AnyScheduler::Zipf(z) => assert_eq!(z.exponent(), 1.5),
            other => panic!("expected zipf, got {other:?}"),
        }
        match AnyScheduler::from_spec("starve", n).unwrap() {
            AnyScheduler::Starve(s) => {
                assert_eq!(s.starved(), 5);
                assert_eq!(s.window(), 80);
            }
            other => panic!("expected starve, got {other:?}"),
        }
        match AnyScheduler::from_spec("clustered:2:0.1", n).unwrap() {
            AnyScheduler::Clustered(c) => {
                assert_eq!(c.blocks(), 2);
                assert_eq!(c.eps(), 0.1);
            }
            other => panic!("expected clustered, got {other:?}"),
        }
        assert_eq!(AnyScheduler::from_spec("starve:10:64", n).unwrap().spec(), "starve:10:64");
        assert_eq!(AnyScheduler::from_spec("starve:10:64", n).unwrap().starve_window(), Some(64));
        assert!(AnyScheduler::from_spec("lru", n).is_err());
        assert!(AnyScheduler::from_spec("zipf:-1", n).is_err());
        assert!(AnyScheduler::from_spec("starve:19", n).is_err(), "must leave a pair");
        assert!(AnyScheduler::from_spec("clustered:0", n).is_err());
        assert!(AnyScheduler::from_spec("clustered:2:0", n).is_err());
        assert!(AnyScheduler::from_spec("uniform", 1).is_err());
        assert!(AnyScheduler::from_spec("uniform", u32::MAX as usize + 1).is_err());
        assert!(AnyScheduler::uniform(n).is_uniform_complete());
        assert!(!AnyScheduler::from_spec("zipf", n).unwrap().is_uniform_complete());
    }

    #[test]
    fn reliability_validates_and_defaults() {
        assert!(Reliability::perfect().is_perfect());
        assert!(Reliability::default().is_perfect());
        let r = Reliability::with_omission(0.25).and_one_way();
        assert_eq!(r.omission, 0.25);
        assert!(r.one_way && !r.is_perfect());
        // Perfect reliability must never touch the RNG stream.
        let mut rng = rng_from_seed(27);
        let before = rng.clone().gen::<u64>();
        assert!(!Reliability::perfect().drops(&mut rng));
        assert_eq!(rng.gen::<u64>(), before);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn reliability_rejects_certain_omission() {
        Reliability::with_omission(1.0);
    }

    #[test]
    fn omission_rate_is_respected() {
        let r = Reliability::with_omission(0.3);
        let mut rng = rng_from_seed(28);
        let dropped = (0..50_000).filter(|_| r.drops(&mut rng)).count();
        let frac = dropped as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {frac} should be ≈0.3");
    }
}
