//! Count-based (batched) simulation backend for huge populations.
//!
//! On the **complete** interaction graph agents are exchangeable: a
//! configuration is fully described by the multiset of states, i.e. a map
//! `state → count` ([`CountConfig`]). The induced count process is exactly
//! the lumped Markov chain of the agent-array simulation, so sampling at the
//! count level — initiator state `s` with probability `C[s]/n`, responder
//! state `s'` with probability `(C[s'] − δ_{s,s'})/(n − 1)` — reproduces the
//! uniform scheduler *in distribution* while storing `O(|states|)` instead
//! of `O(n)` data ([`BatchSimulation::step_exact`]).
//!
//! On top of that exact per-interaction fallback, [`BatchSimulation`]
//! samples interactions in **collision-free batches** (after Berenbrink et
//! al.'s batched population-protocol simulators): the number `T` of
//! consecutive interactions touching pairwise-distinct agents has the
//! hypergeometric-product survival function
//!
//! ```text
//! P(T ≥ t) = ∏_{i<t} (n − 2i)(n − 2i − 1) / (n(n − 1)),
//! ```
//!
//! which is precomputed once per population size, so a whole batch costs one
//! uniform draw plus `O(T)` without-replacement state draws. The first
//! *colliding* interaction (when the batch ends before its cap) is resolved
//! exactly by case analysis over (touched, touched), (touched, fresh) and
//! (fresh, touched) pairs with weights `m(m−1)`, `m(n−m)`, `(n−m)m` for
//! `m = 2T`. Protocols that declare
//! [`DETERMINISTIC_INTERACT`](crate::Protocol::DETERMINISTIC_INTERACT)
//! additionally get their state-pair transitions memoized into a dense
//! table, reducing the per-interaction work to index arithmetic.
//!
//! # Where compression wins — and where it cannot
//!
//! The backend is only as compact as the protocol's *occupied* state set:
//!
//! * **Phase/leader protocols compress.** A two-state epidemic or the
//!   loosely-stabilizing leader election (≈ `2(T_max + 1)` states) keep
//!   `|states| ≪ n`, so populations of 10⁸ agents fit in a few kilobytes
//!   and batches amortize the sampling cost.
//! * **Ranked SSR configurations do not.** A correctly ranked configuration
//!   of the paper's protocols has `n` pairwise-distinct states by
//!   definition, so `CountConfig` degenerates to `n` entries of count 1 and
//!   every weighted draw scans `O(n)` entries. Ranked runs therefore use
//!   [`BatchSimulation::run_until_stably_ranked`], which steps through the
//!   exact fallback — correct, but no faster than the agent array. The
//!   `scaling_frontier` experiment measures both regimes honestly.
//!
//! Fault injection ([`crate::FaultPlan`]) composes with this backend by
//! state-count: when a fault is due, the configuration is materialized into
//! an agent array, corrupted by the exact same [`FaultSchedule`] code path
//! the agent backend uses (agent indices are exchangeable, so index-level
//! corruption *is* count-level corruption), and re-compressed. Batches are
//! capped so an execution never jumps past a due fault.

use std::collections::HashMap;
use std::hash::Hash;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::driver::SteppedDriver;
use crate::dynamics::{ByzantineSet, ChurnPlan};
use crate::fault::{ChaosReport, Corruptor, FaultInjector, FaultPlan, FaultSchedule, NoFaults};
use crate::metrics::{MetricsSink, NoopMetrics, Section, AGENT_FLUSH_EVERY};
use crate::observer::{NoopObserver, Observer};
use crate::protocol::{Protocol, RankingProtocol};
use crate::runner::rng_from_seed;
use crate::scheduler::{uniform_u64, AnyScheduler, Reliability, SchedulerPolicy};
use crate::simulation::{interact_observed, RunOutcome};
use crate::timeline::{snapshot_counts, TimelineObserver};
use crate::tracker::{ConfirmWindow, RankTracker};

/// A population configuration as a multiset of states.
///
/// Internally a dense, append-only `Vec<(state, count)>` plus a hash index.
/// The dense vector — not the hash map — is the iteration and sampling
/// order, so executions are deterministic for a fixed seed (`HashMap`
/// iteration order is randomized per process and is never observed).
/// Entries whose count drops to zero remain as tombstones until the
/// internal `compact` step reclaims them; the simulation compacts between
/// batches, when no entry index is live.
#[derive(Debug, Clone)]
pub struct CountConfig<S> {
    entries: Vec<(S, u64)>,
    index: HashMap<S, usize>,
    population: u64,
    zero_entries: usize,
}

impl<S: Clone + std::fmt::Debug + Eq + Hash> Default for CountConfig<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone + std::fmt::Debug + Eq + Hash> CountConfig<S> {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        CountConfig { entries: Vec::new(), index: HashMap::new(), population: 0, zero_entries: 0 }
    }

    /// Compresses an agent array into counts. Entry order is first-seen
    /// order, so the result is deterministic in the input order.
    pub fn from_states(states: &[S]) -> Self {
        let mut config = CountConfig::new();
        for s in states {
            config.add(s.clone(), 1);
        }
        config
    }

    /// Expands back into an agent array (entry order, `population()`
    /// elements). The inverse of [`CountConfig::from_states`] up to agent
    /// permutation — agents are anonymous, so any expansion order is the
    /// same configuration.
    pub fn to_states(&self) -> Vec<S> {
        let mut states = Vec::with_capacity(self.population as usize);
        for (s, c) in &self.entries {
            for _ in 0..*c {
                states.push(s.clone());
            }
        }
        states
    }

    /// Total number of agents.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of distinct states currently present (excludes tombstones).
    pub fn support(&self) -> usize {
        self.entries.len() - self.zero_entries
    }

    /// The count of one state (0 if absent).
    pub fn count_of(&self, state: &S) -> u64 {
        self.index.get(state).map_or(0, |&i| self.entries[i].1)
    }

    /// Iterates over `(state, count)` pairs with non-zero count, in entry
    /// (first-seen) order.
    pub fn iter(&self) -> impl Iterator<Item = (&S, u64)> {
        self.entries.iter().filter(|(_, c)| *c > 0).map(|(s, c)| (s, *c))
    }

    /// Adds `k` agents in `state`.
    pub fn add(&mut self, state: S, k: u64) {
        let idx = self.ensure_entry(state);
        self.add_at(idx, k);
    }

    /// Removes `k` agents in `state`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` agents hold `state`.
    pub fn remove(&mut self, state: &S, k: u64) {
        let idx = *self
            .index
            .get(state)
            .unwrap_or_else(|| panic!("cannot remove {k} agents from absent state {state:?}"));
        self.remove_at(idx, k);
    }

    /// The entry index for `state`, appending a fresh zero-count entry if
    /// the state was never seen.
    pub(crate) fn ensure_entry(&mut self, state: S) -> usize {
        if let Some(&idx) = self.index.get(&state) {
            return idx;
        }
        let idx = self.entries.len();
        self.index.insert(state.clone(), idx);
        self.entries.push((state, 0));
        self.zero_entries += 1;
        idx
    }

    /// Every `(state, count)` entry in entry order, zero-count tombstones
    /// included — the layout sampling walks.
    pub fn entries(&self) -> &[(S, u64)] {
        &self.entries
    }

    /// Number of entries including tombstones — the bound for entry indices.
    pub(crate) fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// The state stored at an entry index.
    pub(crate) fn state_at(&self, idx: usize) -> &S {
        &self.entries[idx].0
    }

    /// The count stored at an entry index.
    pub(crate) fn count_at(&self, idx: usize) -> u64 {
        self.entries[idx].1
    }

    pub(crate) fn add_at(&mut self, idx: usize, k: u64) {
        if k == 0 {
            return;
        }
        if self.entries[idx].1 == 0 {
            self.zero_entries -= 1;
        }
        self.entries[idx].1 += k;
        self.population += k;
    }

    pub(crate) fn remove_at(&mut self, idx: usize, k: u64) {
        if k == 0 {
            return;
        }
        let count = &mut self.entries[idx].1;
        assert!(*count >= k, "removing {k} agents from a count of {count}");
        *count -= k;
        if *count == 0 {
            self.zero_entries += 1;
        }
        self.population -= k;
    }

    /// Moves one agent from entry `from` to entry `to`.
    pub(crate) fn transfer(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        self.remove_at(from, 1);
        self.add_at(to, 1);
    }

    /// Entry index of the agent with zero-based position `r` when agents
    /// are laid out in entry order.
    ///
    /// # Panics
    ///
    /// Panics if `r >= population()`.
    pub(crate) fn locate(&self, mut r: u64) -> usize {
        for (idx, (_, c)) in self.entries.iter().enumerate() {
            if r < *c {
                return idx;
            }
            r -= *c;
        }
        panic!("position beyond the population");
    }

    /// Like [`CountConfig::locate`], but with one agent of entry
    /// `skip_one_of` excluded from the layout (the responder draw).
    pub(crate) fn locate_excluding(&self, mut r: u64, skip_one_of: usize) -> usize {
        for (idx, (_, c)) in self.entries.iter().enumerate() {
            let c = *c - u64::from(idx == skip_one_of);
            if r < c {
                return idx;
            }
            r -= c;
        }
        panic!("position beyond the population");
    }

    /// Drops tombstone entries and reindexes, preserving the first-seen
    /// order of the surviving entries. Returns `true` when anything moved —
    /// callers holding entry indices (or index-keyed memo tables) must
    /// invalidate them.
    pub fn compact(&mut self) -> bool {
        if self.zero_entries == 0 {
            return false;
        }
        self.entries.retain(|(_, c)| *c > 0);
        self.index.clear();
        for (idx, (s, _)) in self.entries.iter().enumerate() {
            self.index.insert(s.clone(), idx);
        }
        self.zero_entries = 0;
        true
    }

    /// Whether enough tombstones accumulated for a compaction to pay off.
    fn wants_compaction(&self) -> bool {
        self.entries.len() >= 32 && self.zero_entries * 2 > self.entries.len()
    }
}

/// Upper bound on the dense transition-memo side length. A ranked SSR run
/// can occupy arbitrarily many distinct states; beyond this the memo is
/// disabled rather than allocating an `O(|states|²)` table.
const MEMO_MAX_STRIDE: usize = 1 << 10;

/// Dense memo of deterministic state-pair transitions, keyed by entry-index
/// pairs. Cell encoding: `0` = unknown, else `1 + (out_a << 32 | out_b)`.
#[derive(Debug, Clone, Default)]
struct TransitionMemo {
    stride: usize,
    cells: Vec<u64>,
}

impl TransitionMemo {
    #[inline]
    fn get(&self, a: usize, b: usize) -> Option<(usize, usize)> {
        if a >= self.stride || b >= self.stride {
            return None;
        }
        match self.cells[a * self.stride + b] {
            0 => None,
            cell => {
                let packed = cell - 1;
                Some(((packed >> 32) as usize, (packed & u64::from(u32::MAX)) as usize))
            }
        }
    }

    fn set(&mut self, a: usize, b: usize, out_a: usize, out_b: usize, entry_count: usize) {
        if a >= self.stride || b >= self.stride {
            self.grow(entry_count);
            if a >= self.stride || b >= self.stride {
                return; // memo disabled at this occupancy
            }
        }
        let packed = ((out_a as u64) << 32) | out_b as u64;
        self.cells[a * self.stride + b] = packed + 1;
    }

    /// Discards all memoized transitions and resizes for `entry_count`
    /// entries (or disables the memo when the state set is too large).
    fn grow(&mut self, entry_count: usize) {
        let stride = entry_count.max(16).next_power_of_two();
        self.stride = if stride <= MEMO_MAX_STRIDE { stride } else { 0 };
        self.cells.clear();
        self.cells.resize(self.stride * self.stride, 0);
    }
}

/// Collision-free batch-length cap and survival function for a population
/// of `n` agents: `survival[t] = P(first t interactions are pairwise
/// agent-disjoint)`. Nonincreasing, `survival[0] = survival[1] = 1`;
/// truncated where the tail probability stops mattering (truncation only
/// shortens batches, it cannot bias them — a capped batch simply ends
/// without a colliding interaction).
fn survival_table(n: u64) -> Vec<f64> {
    debug_assert!(n >= 2);
    let denom = n as f64 * (n - 1) as f64;
    let mut table = vec![1.0f64];
    let mut survival = 1.0f64;
    loop {
        let touched = 2 * (table.len() as u64 - 1);
        let free = n - touched.min(n);
        if free < 2 {
            break;
        }
        survival *= free as f64 * (free - 1) as f64 / denom;
        if survival < 1e-9 {
            break;
        }
        table.push(survival);
    }
    table
}

/// Count-based counterpart of [`crate::Simulation`]: same protocols, same
/// seeded determinism contract, same [`Observer`]/[`FaultSchedule`]
/// plug-ins, but the configuration lives in a [`CountConfig`] and
/// interactions are sampled in collision-free batches (see the module
/// docs). Only defined on the complete interaction graph — the lumping
/// argument needs exchangeable agents.
///
/// Observer semantics: the backend has no agent identities, so only the
/// aggregate hooks fire ([`Observer::on_batch`], [`Observer::on_fault`],
/// [`Observer::on_converged`], [`Observer::on_exhausted`]); the per-agent
/// hooks (`on_interaction`, `on_state_change`, `on_phase_transition`) are
/// never called.
///
/// Engine telemetry: a [`MetricsSink`] (default [`NoopMetrics`], which
/// monomorphizes every hook to a no-op) observes batch sizes, the
/// exact-fallback rate, memo hit rates, compactions, and coarse per-section
/// wall time. The sink is flushed at batch boundaries — never inside the
/// pair loop — so recording sinks cannot perturb the execution: metrics
/// never touch the simulation RNG.
#[derive(Debug, Clone)]
pub struct BatchSimulation<P: Protocol, O = NoopObserver, F = NoFaults, M = NoopMetrics>
where
    P::State: Eq + Hash,
{
    protocol: P,
    config: CountConfig<P::State>,
    n: u64,
    rng: SmallRng,
    interactions: u64,
    observer: O,
    faults: F,
    metrics: M,
    reliability: Reliability,
    survival: Vec<f64>,
    memo: TransitionMemo,
    // Per-batch scratch, kept to avoid reallocation.
    remaining: Vec<u64>,
    slots: Vec<u32>,
    deltas: Vec<i64>,
    dirty: Vec<u32>,
}

impl<P: Protocol> BatchSimulation<P>
where
    P::State: Eq + Hash,
{
    /// Creates a batched simulation from an agent array (compressed on
    /// entry), seeded exactly like [`crate::Simulation::new`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64) -> Self {
        Self::from_counts(protocol, CountConfig::from_states(&initial), seed)
    }

    /// Creates a batched simulation directly from counts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration holds fewer than two agents.
    pub fn from_counts(protocol: P, config: CountConfig<P::State>, seed: u64) -> Self {
        let n = config.population();
        assert!(n >= 2, "simulation requires at least two agents, got {n}");
        let mut memo = TransitionMemo::default();
        memo.grow(config.raw_len());
        BatchSimulation {
            protocol,
            config,
            n,
            rng: rng_from_seed(seed),
            interactions: 0,
            observer: NoopObserver,
            faults: NoFaults,
            metrics: NoopMetrics,
            reliability: Reliability::perfect(),
            survival: survival_table(n),
            memo,
            remaining: Vec::new(),
            slots: Vec::new(),
            deltas: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Rebuilds a simulation at an exact checkpoint: configuration
    /// (including entry order, which is the sampling order), interaction
    /// count, and RNG stream position — the snapshot/restore constructor
    /// (see [`crate::snapshot`]). Plug-ins are reset to the zero-cost
    /// defaults. The transition memo restarts cold, which is
    /// RNG-neutral: the memo only caches protocols with
    /// [`Protocol::DETERMINISTIC_INTERACT`], whose `interact` never draws
    /// randomness — so continuing the restored execution is bit-identical
    /// to continuing the original.
    ///
    /// # Panics
    ///
    /// Panics if the configuration holds fewer than two agents.
    pub fn from_checkpoint(
        protocol: P,
        config: CountConfig<P::State>,
        interactions: u64,
        rng: SmallRng,
    ) -> Self {
        let n = config.population();
        assert!(n >= 2, "simulation requires at least two agents, got {n}");
        let mut memo = TransitionMemo::default();
        memo.grow(config.raw_len());
        BatchSimulation {
            protocol,
            config,
            n,
            rng,
            interactions,
            observer: NoopObserver,
            faults: NoFaults,
            metrics: NoopMetrics,
            reliability: Reliability::perfect(),
            survival: survival_table(n),
            memo,
            remaining: Vec::new(),
            slots: Vec::new(),
            deltas: Vec::new(),
            dirty: Vec::new(),
        }
    }
}

impl<P: Protocol, O: Observer<P>, F: FaultSchedule<P>, M: MetricsSink> BatchSimulation<P, O, F, M>
where
    P::State: Eq + Hash,
{
    /// Number of agents.
    pub fn population_size(&self) -> usize {
        self.n as usize
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration as counts.
    pub fn counts(&self) -> &CountConfig<P::State> {
        &self.config
    }

    /// Consumes the simulation, returning the final configuration.
    pub fn into_counts(self) -> CountConfig<P::State> {
        self.config
    }

    /// Interactions performed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The simulation RNG's current stream position, for checkpointing
    /// (restore with [`BatchSimulation::from_checkpoint`]).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Parallel time elapsed (interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.n as f64
    }

    /// Replaces the observer (mirrors [`crate::Simulation::observe`]).
    pub fn observe<O2: Observer<P>>(self, observer: O2) -> BatchSimulation<P, O2, F, M> {
        BatchSimulation {
            protocol: self.protocol,
            config: self.config,
            n: self.n,
            rng: self.rng,
            interactions: self.interactions,
            observer,
            faults: self.faults,
            metrics: self.metrics,
            reliability: self.reliability,
            survival: self.survival,
            memo: self.memo,
            remaining: self.remaining,
            slots: self.slots,
            deltas: self.deltas,
            dirty: self.dirty,
        }
    }

    /// Replaces the metrics sink (mirrors
    /// [`crate::Simulation::with_metrics`]). Recording sinks never touch
    /// the simulation RNG, so the execution is identical to an
    /// uninstrumented run with the same seed.
    pub fn with_metrics<M2: MetricsSink>(self, metrics: M2) -> BatchSimulation<P, O, F, M2> {
        BatchSimulation {
            protocol: self.protocol,
            config: self.config,
            n: self.n,
            rng: self.rng,
            interactions: self.interactions,
            observer: self.observer,
            faults: self.faults,
            metrics,
            reliability: self.reliability,
            survival: self.survival,
            memo: self.memo,
            remaining: self.remaining,
            slots: self.slots,
            deltas: self.deltas,
            dirty: self.dirty,
        }
    }

    /// The attached metrics sink.
    pub fn metrics(&self) -> &M {
        &self.metrics
    }

    /// Consumes the simulation, returning the metrics sink.
    pub fn into_metrics(self) -> M {
        self.metrics
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the simulation, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Binds `plan` to this simulation's population, replacing any existing
    /// fault schedule (mirrors [`crate::Simulation::with_fault_plan`]).
    pub fn with_fault_plan(self, plan: &FaultPlan) -> BatchSimulation<P, O, FaultInjector, M> {
        let faults = FaultInjector::bind(plan, self.n as usize);
        BatchSimulation {
            protocol: self.protocol,
            config: self.config,
            n: self.n,
            rng: self.rng,
            interactions: self.interactions,
            observer: self.observer,
            faults,
            metrics: self.metrics,
            reliability: self.reliability,
            survival: self.survival,
            memo: self.memo,
            remaining: self.remaining,
            slots: self.slots,
            deltas: self.deltas,
            dirty: self.dirty,
        }
    }

    /// The attached fault schedule.
    pub fn fault_schedule(&self) -> &F {
        &self.faults
    }

    /// The attached fault schedule, mutably — for drivers (the dynamics
    /// runner) that manage the recovery clock themselves.
    pub(crate) fn fault_schedule_mut(&mut self) -> &mut F {
        &mut self.faults
    }

    /// Adds `k` fresh agents in `state` — a membership **join**. Safe only
    /// between batches (no entry index is live); the batch-length survival
    /// table is rebuilt for the new population size.
    pub fn add_agents(&mut self, state: P::State, k: u64) {
        if k == 0 {
            return;
        }
        let idx = self.config.ensure_entry(state);
        self.config.add_at(idx, k);
        self.after_population_change();
    }

    /// Removes the agent at zero-based position `r` (entry-order layout) —
    /// a membership **leave** — returning its state. Safe only between
    /// batches.
    ///
    /// # Panics
    ///
    /// Panics if `r >= population()` or if the removal would leave fewer
    /// than two agents.
    pub fn remove_agent_at(&mut self, r: u64) -> P::State {
        let idx = self.config.locate(r);
        let state = self.config.state_at(idx).clone();
        self.config.remove_at(idx, 1);
        self.after_population_change();
        state
    }

    /// Replaces the agent at zero-based position `r` with `state` — a
    /// departure plus a fresh join, so the population size is unchanged —
    /// returning the departed state. Safe only between batches.
    ///
    /// # Panics
    ///
    /// Panics if `r >= population()`.
    pub fn replace_agent_at(&mut self, r: u64, state: P::State) -> P::State {
        let idx = self.config.locate(r);
        let old = self.config.state_at(idx).clone();
        self.config.remove_at(idx, 1);
        let to = self.config.ensure_entry(state);
        self.config.add_at(to, 1);
        self.after_population_change();
        old
    }

    /// Re-derives everything that depends on the population size or the
    /// entry table after a membership change: the survival table (batch
    /// lengths), the transition memo (entry indices may have been
    /// appended), and an opportunistic compaction.
    fn after_population_change(&mut self) {
        let n = self.config.population();
        assert!(n >= 2, "population shrank below two agents");
        if n != self.n {
            self.n = n;
            self.survival = survival_table(n);
        }
        self.memo.grow(self.config.raw_len());
        self.maybe_compact();
    }

    /// Sets the interaction-reliability model (mirrors
    /// [`crate::Simulation::with_reliability`]). Omission is thinned
    /// *exactly* inside batches: pair selection is independent of whether a
    /// transition applies, so a dropped interaction simply consumes its pair
    /// draw and leaves both participants' states (and the count deltas)
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `reliability.omission` is outside `[0, 1)`.
    pub fn with_reliability(mut self, reliability: Reliability) -> Self {
        assert!(
            (0.0..1.0).contains(&reliability.omission),
            "omission probability must lie in [0, 1)"
        );
        self.reliability = reliability;
        self
    }

    /// The current reliability model.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }

    /// Looks up (or computes and memoizes) the transition for the ordered
    /// entry-index pair, returning the entry indices of the two output
    /// states.
    fn transition(&mut self, ia: usize, ib: usize) -> (usize, usize) {
        if P::DETERMINISTIC_INTERACT {
            if let Some(hit) = self.memo.get(ia, ib) {
                if M::ENABLED {
                    self.metrics.on_memo_lookup(true);
                }
                return hit;
            }
            if M::ENABLED {
                self.metrics.on_memo_lookup(false);
            }
        }
        let mut a = self.config.state_at(ia).clone();
        let mut b = self.config.state_at(ib).clone();
        self.protocol.interact(&mut a, &mut b, &mut self.rng);
        let ja = self.config.ensure_entry(a);
        // One-way application discards the responder's update: the memo stays
        // consistent because reliability is fixed for the simulation's life.
        let jb = if self.reliability.one_way { ib } else { self.config.ensure_entry(b) };
        if P::DETERMINISTIC_INTERACT {
            self.memo.set(ia, ib, ja, jb, self.config.raw_len());
        }
        (ja, jb)
    }

    /// Compacts tombstones away when worthwhile. Safe only between batches
    /// / exact steps; invalidates the transition memo.
    fn maybe_compact(&mut self) {
        if self.config.wants_compaction() && self.config.compact() {
            self.memo.grow(self.config.raw_len());
            if M::ENABLED {
                self.metrics
                    .on_compaction(self.config.support() as u64, self.config.raw_len() as u64);
            }
        }
    }

    /// Draws one agent (by state-entry index) without replacement from the
    /// scratch `remaining` counts holding `pool` agents.
    fn draw_without_replacement(remaining: &mut [u64], rng: &mut SmallRng, pool: u64) -> usize {
        let mut r = uniform_u64(rng, pool);
        for (idx, c) in remaining.iter_mut().enumerate() {
            if r < *c {
                *c -= 1;
                return idx;
            }
            r -= *c;
        }
        unreachable!("draw position beyond the remaining pool");
    }

    /// Records a count delta for the current batch.
    #[inline]
    fn bump_delta(deltas: &mut Vec<i64>, dirty: &mut Vec<u32>, idx: usize, d: i64) {
        if deltas.len() <= idx {
            deltas.resize(idx + 1, 0);
        }
        if deltas[idx] == 0 {
            dirty.push(idx as u32);
        }
        deltas[idx] += d;
    }

    /// Performs one exact interaction at the count level: initiator state
    /// with probability `C[s]/n`, responder with probability
    /// `(C[s'] − δ)/(n − 1)` — the lumped uniform scheduler. This is the
    /// fallback the batch machinery reduces to when compression cannot help
    /// (e.g. ranked configurations), and the step primitive for
    /// rank-tracked runs.
    pub fn step_exact(&mut self) {
        self.step_exact_indices();
    }

    /// [`BatchSimulation::step_exact`], returning the entry indices
    /// `(initiator_pre, responder_pre, initiator_post, responder_post)`.
    /// Entry states are immutable, so the pre-indices still resolve to the
    /// participants' pre-interaction states after the step.
    fn step_exact_indices(&mut self) -> (usize, usize, usize, usize) {
        self.maybe_compact();
        let ra = uniform_u64(&mut self.rng, self.n);
        let ia = self.config.locate(ra);
        let rb = uniform_u64(&mut self.rng, self.n - 1);
        let ib = self.config.locate_excluding(rb, ia);
        self.interactions += 1;
        if M::ENABLED {
            self.metrics.on_exact_step();
            self.metrics.on_interactions(1);
            self.metrics.on_rng_draws(2);
            if self.interactions.is_multiple_of(AGENT_FLUSH_EVERY) {
                self.metrics.on_flush(self.interactions);
            }
        }
        if self.reliability.drops(&mut self.rng) {
            // Omitted: the pair met but the transition never applied.
            return (ia, ib, ia, ib);
        }
        let (ja, jb) = self.transition(ia, ib);
        self.config.transfer(ia, ja);
        self.config.transfer(ib, jb);
        (ia, ib, ja, jb)
    }

    /// Runs one collision-free batch of at most `cap ≥ 1` interactions
    /// (plus its terminal colliding interaction, when one occurs within the
    /// cap). Returns the number of interactions performed.
    ///
    /// Metrics: the [`Section::Sample`] timer covers batch setup through
    /// the `T` draw and count snapshot; [`Section::Transition`] covers the
    /// pair loop, commit, and collision resolution. Counters and the sink
    /// flush fire once per batch, after the commit.
    fn step_batch(&mut self, cap: u64) -> u64 {
        debug_assert!(cap >= 1);
        self.maybe_compact();
        let section = if M::ENABLED { Some(Instant::now()) } else { None };
        let lmax = (self.survival.len() - 1).min(usize::try_from(cap).unwrap_or(usize::MAX));
        debug_assert!(lmax >= 1);

        // Sample the collision-free run length T: P(T ≥ t) = survival[t].
        let u: f64 = self.rng.gen();
        let (t, collides) = if u < self.survival[lmax] {
            (lmax, false) // capped batch: the collision lies beyond the cap
        } else {
            // Largest t with survival[t] > u; survival[1] = 1 > u.
            let (mut lo, mut hi) = (1, lmax - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if self.survival[mid] > u {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            (lo, true)
        };

        // Draw the 2T pairwise-distinct agents by state (sequential
        // without-replacement draws == multivariate hypergeometric), pair
        // them consecutively, and accumulate count deltas. Entry states
        // are frozen for the whole batch, so the snapshot stays valid.
        self.remaining.clear();
        self.remaining.extend((0..self.config.raw_len()).map(|i| self.config.count_at(i)));
        self.slots.clear();
        let mut pool = self.n;
        let section = section.map(|t0| {
            self.metrics.on_section(Section::Sample, t0.elapsed().as_nanos() as u64);
            Instant::now()
        });
        for _ in 0..t {
            let ia = Self::draw_without_replacement(&mut self.remaining, &mut self.rng, pool);
            pool -= 1;
            let ib = Self::draw_without_replacement(&mut self.remaining, &mut self.rng, pool);
            pool -= 1;
            if self.reliability.drops(&mut self.rng) {
                // Dropped interactions still consume their pair: the agents
                // met (so they stay excluded from the collision-free batch)
                // but keep their pre-states.
                self.slots.push(ia as u32);
                self.slots.push(ib as u32);
                continue;
            }
            let (ja, jb) = self.transition(ia, ib);
            self.slots.push(ja as u32);
            self.slots.push(jb as u32);
            Self::bump_delta(&mut self.deltas, &mut self.dirty, ia, -1);
            Self::bump_delta(&mut self.deltas, &mut self.dirty, ib, -1);
            Self::bump_delta(&mut self.deltas, &mut self.dirty, ja, 1);
            Self::bump_delta(&mut self.deltas, &mut self.dirty, jb, 1);
        }

        // Commit the batch: every touched agent now carries its post-state.
        for &idx in &self.dirty {
            let idx = idx as usize;
            let d = self.deltas[idx];
            self.deltas[idx] = 0;
            match d.cmp(&0) {
                std::cmp::Ordering::Greater => self.config.add_at(idx, d as u64),
                std::cmp::Ordering::Less => self.config.remove_at(idx, (-d) as u64),
                std::cmp::Ordering::Equal => {}
            }
        }
        self.dirty.clear();
        let mut performed = t as u64;

        if collides {
            // The first colliding interaction, conditioned on colliding:
            // uniform over ordered pairs intersecting the m = 2T touched
            // agents. Touched agents carry post-states (slots); untouched
            // agents still follow the leftover `remaining` counts.
            let m = 2 * t as u64;
            let fresh = self.n - m;
            let w_both = m * (m - 1);
            let w_mixed = m * fresh;
            let r = uniform_u64(&mut self.rng, w_both + 2 * w_mixed);
            let (ia, ib) = if r < w_both {
                let s1 = uniform_u64(&mut self.rng, m) as usize;
                let mut s2 = uniform_u64(&mut self.rng, m - 1) as usize;
                if s2 >= s1 {
                    s2 += 1;
                }
                (self.slots[s1] as usize, self.slots[s2] as usize)
            } else if r < w_both + w_mixed {
                let s1 = uniform_u64(&mut self.rng, m) as usize;
                let rb = uniform_u64(&mut self.rng, fresh);
                (self.slots[s1] as usize, Self::pick_remaining(&self.remaining, rb))
            } else {
                let ra = uniform_u64(&mut self.rng, fresh);
                let s2 = uniform_u64(&mut self.rng, m) as usize;
                (Self::pick_remaining(&self.remaining, ra), self.slots[s2] as usize)
            };
            if !self.reliability.drops(&mut self.rng) {
                let (ja, jb) = self.transition(ia, ib);
                self.config.transfer(ia, ja);
                self.config.transfer(ib, jb);
            }
            performed += 1;
        }

        self.interactions += performed;
        if M::ENABLED {
            if let Some(t0) = section {
                self.metrics.on_section(Section::Transition, t0.elapsed().as_nanos() as u64);
            }
            // Scheduler draws only: 1 for T, 2 per collision-free pair, 3
            // to resolve the colliding interaction (reliability and
            // protocol-internal draws are not counted).
            self.metrics.on_rng_draws(1 + 2 * t as u64 + if collides { 3 } else { 0 });
            self.metrics.on_batch(performed);
            self.metrics.on_interactions(performed);
            self.metrics.on_flush(self.interactions);
        }
        performed
    }

    /// Entry index of the untouched agent at zero-based position `r` of the
    /// leftover `remaining` counts.
    fn pick_remaining(remaining: &[u64], mut r: u64) -> usize {
        for (idx, c) in remaining.iter().enumerate() {
            if r < *c {
                return idx;
            }
            r -= *c;
        }
        unreachable!("position beyond the untouched pool");
    }

    /// Polls the fault schedule, materializing the configuration into an
    /// agent array only when something is actually due
    /// ([`FaultSchedule::next_due`]). Returns the number of corrupted
    /// agents.
    pub(crate) fn poll_faults(&mut self) -> usize {
        if !F::ACTIVE || self.interactions < self.faults.next_due() {
            return 0;
        }
        let fired_before = self.faults.fired_count();
        let mut states = self.config.to_states();
        let corrupted = self.faults.poll(&self.protocol, &mut states, self.interactions);
        if self.faults.fired_count() != fired_before {
            // Rebuild from the corrupted array; every entry index and
            // memoized transition is stale after the wholesale rebuild.
            self.config = CountConfig::from_states(&states);
            self.memo.grow(self.config.raw_len());
            self.observer.on_fault(corrupted, self.interactions);
        }
        corrupted
    }

    /// Advances by one batch of at most `cap` interactions, respecting due
    /// faults (batches never jump past [`FaultSchedule::next_due`]).
    pub(crate) fn advance(&mut self, cap: u64) {
        let cap = if F::ACTIVE {
            self.poll_faults();
            // Progress by at least one interaction even if a custom
            // schedule reports an already-due time after polling.
            cap.min(self.faults.next_due().saturating_sub(self.interactions).max(1))
        } else {
            cap
        };
        self.step_batch(cap);
        if F::ACTIVE {
            self.poll_faults();
        }
    }

    /// Runs exactly `k` interactions in batches.
    pub fn run(&mut self, k: u64) {
        let target = self.interactions + k;
        while self.interactions < target {
            self.advance(target - self.interactions);
        }
        self.observer.on_batch(k, self.interactions);
    }

    /// Runs in batches until `goal` holds for the configuration, or until
    /// the total interaction count reaches `max_interactions`.
    ///
    /// Mirrors [`crate::Simulation::run_until`] (the goal is evaluated on
    /// the initial configuration too) except that the goal is checked at
    /// batch boundaries, so the reported convergence point may overshoot by
    /// up to one batch (`O(√n)` interactions, i.e. `O(1/√n)` parallel
    /// time).
    pub fn run_until(
        &mut self,
        max_interactions: u64,
        mut goal: impl FnMut(&CountConfig<P::State>) -> bool,
    ) -> RunOutcome {
        loop {
            let probe = if M::ENABLED { Some(Instant::now()) } else { None };
            let reached = goal(&self.config);
            if let Some(t0) = probe {
                self.metrics.on_section(Section::Probe, t0.elapsed().as_nanos() as u64);
            }
            if reached {
                self.observer.on_converged(self.interactions);
                if F::ACTIVE {
                    self.faults.notify_converged(self.interactions);
                }
                return RunOutcome::Converged { interactions: self.interactions };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                return RunOutcome::Exhausted { interactions: self.interactions };
            }
            self.advance(max_interactions - self.interactions);
        }
    }

    /// Runs under an arbitrary [`SchedulerPolicy`] until `goal` holds or
    /// `max_interactions` is reached.
    ///
    /// Non-uniform policies distinguish agents, so the lumped count chain no
    /// longer describes the process: this materializes agent identities (in
    /// entry order) and runs an exact agent-level loop, recompressing the
    /// final configuration on return. For uniform-complete policies prefer
    /// [`BatchSimulation::run_until`], which batches.
    ///
    /// The goal receives the protocol and the materialized state array and
    /// is checked after every interaction (and once before the first).
    pub fn run_until_scheduled(
        &mut self,
        policy: &AnyScheduler,
        max_interactions: u64,
        mut goal: impl FnMut(&P, &[P::State]) -> bool,
    ) -> RunOutcome {
        assert_eq!(
            policy.population_size() as u64,
            self.n,
            "scheduler policy was built for a different population size"
        );
        let mut states = self.config.to_states();
        let outcome = loop {
            if goal(&self.protocol, &states) {
                self.observer.on_converged(self.interactions);
                if F::ACTIVE {
                    self.faults.notify_converged(self.interactions);
                }
                break RunOutcome::Converged { interactions: self.interactions };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                break RunOutcome::Exhausted { interactions: self.interactions };
            }
            let (i, j) = policy.sample_at(&mut self.rng, self.interactions);
            self.interactions += 1;
            interact_observed::<P, NoopObserver, true>(
                &self.protocol,
                &mut NoopObserver,
                self.reliability,
                &mut states,
                &mut self.rng,
                self.interactions,
                (i, j),
            );
            if F::ACTIVE && self.interactions >= self.faults.next_due() {
                let fired_before = self.faults.fired_count();
                let corrupted = self.faults.poll(&self.protocol, &mut states, self.interactions);
                if self.faults.fired_count() != fired_before {
                    self.observer.on_fault(corrupted, self.interactions);
                }
            }
        };
        // Recompress so `counts()` reflects the final configuration.
        self.config = CountConfig::from_states(&states);
        self.memo.grow(self.config.raw_len());
        outcome
    }
}

impl<P: RankingProtocol, O: Observer<P>, F: FaultSchedule<P>, M: MetricsSink>
    BatchSimulation<P, O, F, M>
where
    P::State: Eq + Hash,
{
    /// Number of agents currently outputting leader (rank 1).
    pub fn leader_count(&self) -> u64 {
        self.config.iter().filter(|(s, _)| self.protocol.is_leader(s)).map(|(_, c)| c).sum()
    }

    /// Whether the configuration is currently correctly ranked.
    pub fn is_ranked(&self) -> bool {
        RankTracker::of_counts(&self.protocol, &self.config).is_correct()
    }

    /// Count-level mirror of
    /// [`crate::Simulation::run_until_stably_ranked`]: identical
    /// convergence semantics (confirmation window, fault-triggered tracker
    /// rebuilds), but over the exact one-at-a-time fallback — a ranked
    /// configuration has `n` distinct states, so batching cannot help here
    /// and the honest cost is `O(support)` per interaction.
    pub fn run_until_stably_ranked(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
    ) -> RunOutcome {
        self.ranked_loop(max_interactions, confirm_window, None)
    }

    /// Like [`BatchSimulation::run_until_stably_ranked`], but additionally
    /// records a convergence-dynamics timeline: whenever `timeline` reports
    /// a checkpoint due, the configuration is snapshotted
    /// ([`crate::timeline::snapshot_counts`] — O(support), the
    /// configuration *is* the histogram), and the end-of-run configuration
    /// is sealed as the final checkpoint.
    ///
    /// The ranked loop steps through the exact per-interaction fallback, so
    /// checkpoints land on exactly the same interaction counts as the
    /// agent-array driver's, and snapshots never touch the RNG — the
    /// execution is identical to an uninstrumented run with the same seed.
    pub fn run_until_stably_ranked_timeline(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
        timeline: &mut TimelineObserver,
    ) -> RunOutcome {
        self.ranked_loop(max_interactions, confirm_window, Some(timeline))
    }

    fn ranked_loop(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
        mut timeline: Option<&mut TimelineObserver>,
    ) -> RunOutcome {
        let n = self.protocol.population_size();
        assert_eq!(n as u64, self.n, "protocol configured for a different population size");
        let mut tracker = RankTracker::of_counts(&self.protocol, &self.config);
        let mut confirm = ConfirmWindow::new(confirm_window);
        let outcome = loop {
            if let Some(tl) = timeline.as_deref_mut() {
                if tl.is_due(self.interactions) {
                    let observe = if M::ENABLED { Some(Instant::now()) } else { None };
                    tl.record(snapshot_counts(&self.protocol, &self.config, self.interactions));
                    if let Some(t0) = observe {
                        self.metrics.on_section(Section::Observe, t0.elapsed().as_nanos() as u64);
                    }
                }
            }
            if let Some(t0) = confirm.confirmed(tracker.is_correct(), self.interactions) {
                self.observer.on_converged(t0);
                if F::ACTIVE {
                    self.faults.notify_converged(t0);
                }
                break RunOutcome::Converged { interactions: t0 };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                break RunOutcome::Exhausted { interactions: self.interactions };
            }
            let (ia, ib, ja, jb) = self.step_exact_indices();
            tracker.update(
                self.protocol.rank_of(self.config.state_at(ia)),
                self.protocol.rank_of(self.config.state_at(ja)),
            );
            tracker.update(
                self.protocol.rank_of(self.config.state_at(ib)),
                self.protocol.rank_of(self.config.state_at(jb)),
            );
            if F::ACTIVE {
                let fired_before = self.faults.fired_count();
                self.poll_faults();
                if self.faults.fired_count() != fired_before {
                    tracker = RankTracker::of_counts(&self.protocol, &self.config);
                    confirm.restart();
                }
            }
            confirm.keep_if(tracker.is_correct());
        };
        if let Some(tl) = timeline {
            tl.seal(snapshot_counts(&self.protocol, &self.config, self.interactions));
        }
        outcome
    }

    /// [`BatchSimulation::run_until_stably_ranked`] under an arbitrary
    /// [`SchedulerPolicy`].
    ///
    /// Uniform-complete policies delegate to the lumped count-level loop —
    /// zero cost relative to the plain method. Anything else distinguishes
    /// agents, so the configuration is materialized (entry order assigns
    /// identities) and the run proceeds agent-by-agent with the exact same
    /// convergence semantics, recompressing on return.
    pub fn run_until_stably_ranked_scheduled(
        &mut self,
        policy: &AnyScheduler,
        max_interactions: u64,
        confirm_window: u64,
    ) -> RunOutcome {
        if policy.is_uniform_complete() {
            return self.run_until_stably_ranked(max_interactions, confirm_window);
        }
        let n = self.protocol.population_size();
        assert_eq!(n as u64, self.n, "protocol configured for a different population size");
        assert_eq!(
            policy.population_size(),
            n,
            "scheduler policy was built for a different population size"
        );
        let mut states = self.config.to_states();
        let mut tracker = RankTracker::of_states(&self.protocol, &states);
        let mut confirm = ConfirmWindow::new(confirm_window);
        let outcome = loop {
            if let Some(t0) = confirm.confirmed(tracker.is_correct(), self.interactions) {
                self.observer.on_converged(t0);
                if F::ACTIVE {
                    self.faults.notify_converged(t0);
                }
                break RunOutcome::Converged { interactions: t0 };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                break RunOutcome::Exhausted { interactions: self.interactions };
            }
            let (i, j) = policy.sample_at(&mut self.rng, self.interactions);
            let before_i = self.protocol.rank_of(&states[i]);
            let before_j = self.protocol.rank_of(&states[j]);
            self.interactions += 1;
            let applied = interact_observed::<P, NoopObserver, true>(
                &self.protocol,
                &mut NoopObserver,
                self.reliability,
                &mut states,
                &mut self.rng,
                self.interactions,
                (i, j),
            );
            if applied {
                tracker.update(before_i, self.protocol.rank_of(&states[i]));
                tracker.update(before_j, self.protocol.rank_of(&states[j]));
            }
            if F::ACTIVE && self.interactions >= self.faults.next_due() {
                let fired_before = self.faults.fired_count();
                let corrupted = self.faults.poll(&self.protocol, &mut states, self.interactions);
                if self.faults.fired_count() != fired_before {
                    self.observer.on_fault(corrupted, self.interactions);
                    tracker = RankTracker::of_states(&self.protocol, &states);
                    confirm.restart();
                }
            }
            confirm.keep_if(tracker.is_correct());
        };
        self.config = CountConfig::from_states(&states);
        self.memo.grow(self.config.raw_len());
        outcome
    }
}

impl<P, O, F, M> BatchSimulation<P, O, F, M>
where
    P: Corruptor,
    P::State: Eq + Hash,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    /// Count-level mirror of [`crate::Simulation::run_chaos`]: runs under
    /// the attached fault schedule, measuring recovery and availability.
    ///
    /// Both ranked and recovery stretches advance in collision-free
    /// batches, capped at the next due fault trigger
    /// ([`FaultSchedule::next_due`]), which is what makes chaos runs
    /// practical at `n ≥ 10⁶`: a ranked stretch waiting out the gap to the
    /// next injection no longer pays a per-interaction fault poll and
    /// tracker update. Batches never jump past a due fault, so fault
    /// injection times stay exact; ranked / unique-leader status is
    /// resolved at batch boundaries (one `O(support)` rank-histogram
    /// rebuild per batch), so availability and recovery times may overshoot
    /// by up to one batch (`O(√n)` interactions, i.e. `o(1)` parallel
    /// time).
    ///
    /// This is the [`SteppedDriver`] run with an empty churn plan and an
    /// empty Byzantine set (see [`BatchSimulation::run_dynamics`]).
    pub fn run_chaos(&mut self, max_interactions: u64) -> ChaosReport {
        SteppedDriver::bind(self, &ChurnPlan::none(), &ByzantineSet::none())
            .run(self, max_interactions)
            .chaos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultSize};
    use crate::test_support::{
        assert_worker_count_invariant, Backend, Fight, FightProtocol, ModRank, TrialKind,
    };

    fn leaders(config: &CountConfig<Fight>) -> u64 {
        config.count_of(&Fight::Leader)
    }

    #[test]
    fn count_config_round_trips_with_state_vectors() {
        let states = vec![3usize, 1, 3, 3, 7, 1];
        let config = CountConfig::from_states(&states);
        assert_eq!(config.population(), 6);
        assert_eq!(config.support(), 3);
        assert_eq!(config.count_of(&3), 3);
        assert_eq!(config.count_of(&1), 2);
        assert_eq!(config.count_of(&7), 1);
        assert_eq!(config.count_of(&42), 0);
        let mut expanded = config.to_states();
        let mut original = states;
        expanded.sort_unstable();
        original.sort_unstable();
        assert_eq!(expanded, original, "expansion is the same multiset");
    }

    #[test]
    fn count_config_locate_walks_entry_order() {
        let config = CountConfig::from_states(&[5usize, 5, 9, 5]);
        // Entry order is first-seen: [(5, 3), (9, 1)].
        assert_eq!(config.locate(0), 0);
        assert_eq!(config.locate(2), 0);
        assert_eq!(config.locate(3), 1);
        // With one agent of entry 0 excluded, position 2 is the 9.
        assert_eq!(config.locate_excluding(2, 0), 1);
        assert_eq!(config.locate_excluding(1, 0), 0);
    }

    #[test]
    fn count_config_compaction_drops_tombstones_only() {
        let mut config = CountConfig::from_states(&[0usize; 4]);
        for s in 1..40usize {
            config.add(s, 1);
            config.remove(&s, 1);
        }
        assert_eq!(config.support(), 1);
        assert!(config.raw_len() > 1, "tombstones accumulate until compaction");
        assert!(config.wants_compaction());
        assert!(config.compact());
        assert_eq!(config.raw_len(), 1);
        assert_eq!(config.population(), 4);
        assert_eq!(config.count_of(&0), 4);
    }

    #[test]
    fn survival_table_is_a_nonincreasing_probability() {
        for n in [2u64, 3, 10, 1000] {
            let table = survival_table(n);
            assert!(table.len() >= 2, "n = {n}");
            assert_eq!(table[0], 1.0);
            assert_eq!(table[1], 1.0, "one interaction can never self-collide");
            for w in table.windows(2) {
                assert!(w[1] <= w[0] && w[1] > 0.0);
            }
        }
        // n = 2: the second interaction always re-touches both agents.
        assert_eq!(survival_table(2).len(), 2);
    }

    #[test]
    fn batched_run_performs_exactly_k_interactions() {
        for n in [2usize, 3, 7, 64, 1000] {
            let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 11);
            sim.run(2_345);
            assert_eq!(sim.interactions(), 2_345, "n = {n}");
            assert_eq!(sim.counts().population(), n as u64, "population is conserved");
        }
    }

    #[test]
    fn batched_fight_elects_exactly_one_leader() {
        // From all-leader, pairwise elimination needs Θ(n) parallel time
        // ((n−1)² expected interactions) — keep n modest.
        let n = 500;
        let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 3);
        let outcome = sim.run_until(10_000_000, |c| c.count_of(&Fight::Leader) == 1);
        assert!(outcome.is_converged(), "{outcome:?}");
        assert_eq!(leaders(sim.counts()), 1);
        assert_eq!(sim.counts().count_of(&Fight::Follower), n as u64 - 1);
    }

    #[test]
    fn batched_execution_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; 512], seed);
            sim.run(20_000);
            (sim.interactions(), leaders(sim.counts()))
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn exact_stepping_matches_lumped_scheduler_distribution() {
        // One exact step from (L, F) with 2 agents: the pair is always
        // (L, F) or (F, L), never (L, L) — leader count is invariant.
        let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader, Fight::Follower], 7);
        for _ in 0..100 {
            sim.step_exact();
            assert_eq!(leaders(sim.counts()), 1);
        }
        assert_eq!(sim.interactions(), 100);
    }

    #[test]
    fn run_until_stably_ranked_converges_like_the_agent_backend() {
        let mut sim = BatchSimulation::new(ModRank { n: 8 }, vec![0usize; 8], 21);
        let outcome = sim.run_until_stably_ranked(1_000_000, 32);
        assert!(outcome.is_converged(), "{outcome:?}");
        assert!(sim.is_ranked());
        assert_eq!(sim.leader_count(), 1);
        assert_eq!(sim.counts().support(), 8, "a ranked configuration has n distinct states");
    }

    #[test]
    fn already_ranked_configuration_converges_at_zero() {
        let mut sim = BatchSimulation::new(ModRank { n: 6 }, (0..6).collect(), 4);
        let outcome = sim.run_until_stably_ranked(1_000, 10);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 0 });
    }

    #[test]
    fn fault_injection_by_count_preserves_population_size() {
        for (seed, action) in [
            (1, FaultAction::CorruptRandom(FaultSize::Exact(3))),
            (2, FaultAction::DuplicateLeader),
            (3, FaultAction::Collide(FaultSize::Sqrt)),
            (4, FaultAction::PartialReset(FaultSize::Fraction(0.5))),
            (5, FaultAction::Randomize),
        ] {
            let n = 24;
            let plan = FaultPlan::new(seed).at_interaction(40, action);
            let mut sim =
                BatchSimulation::new(ModRank { n }, vec![0usize; n], 13).with_fault_plan(&plan);
            sim.run(200);
            assert_eq!(
                sim.counts().population(),
                n as u64,
                "{action:?} changed the population size"
            );
            assert_eq!(
                FaultSchedule::<ModRank>::fired_count(sim.fault_schedule()),
                1,
                "{action:?} did not fire"
            );
        }
    }

    #[test]
    fn batches_never_jump_past_a_due_fault() {
        // A fault at interaction 1000 in a large population (batch length
        // ~√n ≫ 1) must be applied at exactly interaction 1000.
        struct Probe {
            fired_at: Option<u64>,
        }
        impl Observer<ModRank> for Probe {
            fn on_fault(&mut self, _agents: usize, interactions: u64) {
                self.fired_at = Some(interactions);
            }
        }
        let n = 4096;
        let plan = FaultPlan::new(3).at_interaction(1000, FaultAction::Randomize);
        let mut sim = BatchSimulation::new(ModRank { n }, vec![0usize; n], 17)
            .observe(Probe { fired_at: None })
            .with_fault_plan(&plan);
        sim.run(5_000);
        assert_eq!(sim.observer().fired_at, Some(1000));
    }

    #[test]
    fn counts_chaos_run_recovers_from_injected_faults() {
        let plan = FaultPlan::new(11)
            .after_convergence(5, FaultAction::CorruptRandom(FaultSize::Exact(2)));
        let mut sim =
            BatchSimulation::new(ModRank { n: 8 }, vec![0usize; 8], 3).with_fault_plan(&plan);
        let report = sim.run_chaos(10_000_000);
        assert!(report.first_ranked.is_some());
        assert_eq!(report.faults.len(), 1);
        assert!(report.fully_recovered(), "{report:?}");
        assert!(report.availability() > 0.0 && report.availability() <= 1.0);
    }

    #[test]
    fn counts_trials_are_reproducible_and_parallel_matches_sequential() {
        assert_worker_count_invariant(TrialKind::Ranked, Backend::Counts);
    }

    #[test]
    fn counts_chaos_trials_parallel_matches_sequential_reports() {
        assert_worker_count_invariant(TrialKind::Chaos, Backend::Counts);
    }

    #[test]
    fn memo_stays_correct_across_compaction() {
        // Drive ModRank (deterministic, memoized) long enough that entries
        // churn and compaction fires; the invariant ∑counts = n and the
        // eventual correct ranking prove no stale memo index was applied.
        let n = 40;
        let mut sim = BatchSimulation::new(ModRank { n }, vec![0usize; n], 5);
        let outcome = sim.run_until_stably_ranked(10_000_000, 0);
        assert!(outcome.is_converged());
        assert_eq!(sim.counts().population(), n as u64);
        let mut ranks: Vec<usize> = sim.counts().iter().map(|(s, _)| *s).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn omission_thins_batched_transitions() {
        // Fight from all-leader: every applied ℓ,ℓ interaction removes one
        // leader. With heavy omission, far more leaders survive the same
        // interaction budget than with a perfect channel.
        let n = 512;
        let run = |omission: f64| {
            let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 29)
                .with_reliability(Reliability::with_omission(omission));
            sim.run(2_000);
            leaders(sim.counts())
        };
        let perfect = run(0.0);
        let lossy = run(0.9);
        assert!(
            lossy > perfect + 50,
            "omission 0.9 left {lossy} leaders vs {perfect} on a perfect channel"
        );
    }

    #[test]
    fn perfect_reliability_leaves_the_batched_stream_untouched() {
        let run = |reliability: Reliability| {
            let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; 256], 31)
                .with_reliability(reliability);
            sim.run(10_000);
            leaders(sim.counts())
        };
        assert_eq!(run(Reliability::perfect()), run(Reliability::with_omission(0.0)));
    }

    #[test]
    fn one_way_application_freezes_responder_only_protocols() {
        // Fight's only transition updates the responder, so one-way
        // application (initiator-only) makes it a no-op protocol.
        let n = 64;
        let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 7)
            .with_reliability(Reliability::perfect().and_one_way());
        sim.run(50_000);
        assert_eq!(leaders(sim.counts()), n as u64);
    }

    #[test]
    fn scheduled_fallback_converges_under_nonuniform_policies() {
        for spec in ["zipf:1", "starve:2:64", "clustered:2:0.25"] {
            let n = 8;
            let policy = AnyScheduler::from_spec(spec, n).expect(spec);
            let mut sim = BatchSimulation::new(ModRank { n }, vec![0usize; n], 19)
                .with_reliability(Reliability::with_omission(0.1));
            let outcome = sim.run_until_stably_ranked_scheduled(&policy, 4_000_000, 32);
            assert!(outcome.is_converged(), "{spec}: {outcome:?}");
            assert!(sim.is_ranked(), "{spec}");
            assert_eq!(sim.counts().population(), n as u64, "{spec}");
        }
    }

    #[test]
    fn scheduled_fallback_with_uniform_policy_delegates_to_lumped_loop() {
        let n = 8;
        let policy = AnyScheduler::uniform(n);
        let mut plain = BatchSimulation::new(ModRank { n }, vec![0usize; n], 23);
        let mut scheduled = BatchSimulation::new(ModRank { n }, vec![0usize; n], 23);
        let a = plain.run_until_stably_ranked(1_000_000, 16);
        let b = scheduled.run_until_stably_ranked_scheduled(&policy, 1_000_000, 16);
        assert_eq!(a, b, "uniform-complete policies must take the zero-cost path");
    }

    #[test]
    fn scheduled_goal_runs_reach_the_goal() {
        let n = 32;
        let policy = AnyScheduler::from_spec("clustered:4:0.5", n).unwrap();
        let mut sim = BatchSimulation::new(FightProtocol, vec![Fight::Leader; n], 41);
        let outcome = sim.run_until_scheduled(&policy, 2_000_000, |_, states| {
            states.iter().filter(|s| **s == Fight::Leader).count() == 1
        });
        assert!(outcome.is_converged(), "{outcome:?}");
        assert_eq!(leaders(sim.counts()), 1, "recompressed counts reflect the final states");
    }

    #[test]
    fn batched_chaos_matches_recovery_semantics_of_small_runs() {
        // The hybrid (exact while ranked, batched while recovering) must
        // still recover from every fault and keep availability in (0, 1].
        let plan = FaultPlan::new(17)
            .after_convergence(5, FaultAction::Randomize)
            .after_convergence(9, FaultAction::CorruptRandom(FaultSize::Sqrt));
        let mut sim =
            BatchSimulation::new(ModRank { n: 64 }, vec![0usize; 64], 53).with_fault_plan(&plan);
        let report = sim.run_chaos(50_000_000);
        assert!(report.first_ranked.is_some());
        assert_eq!(report.faults.len(), 2, "{report:?}");
        assert!(report.fully_recovered(), "{report:?}");
        assert!(report.availability() > 0.0 && report.availability() <= 1.0);
    }
}
