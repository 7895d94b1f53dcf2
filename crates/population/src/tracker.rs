//! Incremental correctness detection for the ranking problem.
//!
//! A configuration is correct for ranking when each rank in `{1, …, n}` is
//! output by exactly one agent (Sec. 2 of the paper). Checking that from
//! scratch costs O(n) per interaction; [`RankTracker`] instead maintains a
//! rank histogram and a count of "good" ranks, updated in O(1) when an
//! agent's output changes, so stabilization times can be measured exactly
//! even for the Θ(n²)-time baseline at large `n`.

use std::hash::Hash;

use crate::counts::CountConfig;
use crate::protocol::RankingProtocol;

/// Histogram of rank outputs with an O(1) correctness predicate and O(1)
/// singleton / duplicated / missing rank tallies.
#[derive(Debug, Clone)]
pub struct RankTracker {
    /// `counts[r-1]` = number of agents currently outputting rank `r`.
    counts: Vec<u32>,
    /// Number of ranks `r` with `counts[r-1] == 1`.
    ranks_with_one: usize,
    /// Number of ranks `r` with `counts[r-1] == 0`.
    missing: usize,
}

impl RankTracker {
    /// Creates a tracker for ranks `1..=n` with no agents registered yet.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ranking is undefined for an empty population");
        RankTracker { counts: vec![0; n], ranks_with_one: 0, missing: n }
    }

    /// Histogram of an agent array's outputs against the protocol's
    /// configured `n`.
    pub fn of_states<P: RankingProtocol>(protocol: &P, states: &[P::State]) -> Self {
        Self::of_states_with_leader(protocol, states).0
    }

    /// [`RankTracker::of_states`] plus, from the same pass, the index of the
    /// unique agent outputting rank 1 (`None` when there is none or more
    /// than one).
    pub(crate) fn of_states_with_leader<P: RankingProtocol>(
        protocol: &P,
        states: &[P::State],
    ) -> (Self, Option<usize>) {
        let mut tracker = RankTracker::new(protocol.population_size());
        let mut leader = None;
        for (idx, s) in states.iter().enumerate() {
            let rank = protocol.rank_of(s);
            if rank == Some(1) {
                leader = Some(idx);
            }
            tracker.add(rank);
        }
        let unique = tracker.count_of(1) == 1;
        (tracker, leader.filter(|_| unique))
    }

    /// Histogram of a count-based configuration against the protocol's
    /// configured `n`: O(support), one bulk registration per distinct state.
    pub fn of_counts<P>(protocol: &P, config: &CountConfig<P::State>) -> Self
    where
        P: RankingProtocol,
        P::State: Eq + Hash,
    {
        let mut tracker = RankTracker::new(protocol.population_size());
        for (s, c) in config.iter() {
            tracker.add_many(protocol.rank_of(s), c);
        }
        tracker
    }

    /// The number of ranks tracked (`n`).
    pub fn rank_count(&self) -> usize {
        self.counts.len()
    }

    /// Registers one agent's initial output.
    ///
    /// # Panics
    ///
    /// Panics if a rank is outside `1..=n`.
    pub fn add(&mut self, rank: Option<usize>) {
        if let Some(r) = rank {
            self.bump(r, 1);
        }
    }

    /// Registers `k` agents that all share the same output — the count-based
    /// backend's bulk registration, making tracker rebuilds O(support)
    /// instead of O(n).
    ///
    /// # Panics
    ///
    /// Panics if a rank is outside `1..=n` or the count overflows `u32`.
    pub fn add_many(&mut self, rank: Option<usize>, k: u64) {
        if k == 0 {
            return;
        }
        if let Some(r) = rank {
            let to = u64::from(self.counts[self.slot(r)]) + k;
            self.set(r, u32::try_from(to).expect("rank count overflows u32"));
        }
    }

    /// Records that one agent's output changed from `before` to `after`.
    ///
    /// Calling with `before == after` is a no-op, so callers may report all
    /// interacting agents unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if a rank is outside `1..=n`.
    #[inline(always)]
    pub fn update(&mut self, before: Option<usize>, after: Option<usize>) {
        if before == after {
            return;
        }
        if let Some(r) = before {
            self.bump(r, -1);
        }
        if let Some(r) = after {
            self.bump(r, 1);
        }
    }

    #[inline]
    fn bump(&mut self, rank: usize, delta: i32) {
        let to = self.counts[self.slot(rank)]
            .checked_add_signed(delta)
            .expect("rank count underflow: update() called with a rank the agent did not hold");
        self.set(rank, to);
    }

    /// Index of rank `r` in `counts`.
    #[inline]
    fn slot(&self, r: usize) -> usize {
        assert!((1..=self.counts.len()).contains(&r), "rank {r} outside 1..={}", self.counts.len());
        r - 1
    }

    /// Sets rank `r`'s count to `to`, keeping the singleton and missing
    /// tallies in step.
    #[inline]
    fn set(&mut self, r: usize, to: u32) {
        let from = std::mem::replace(&mut self.counts[r - 1], to);
        self.ranks_with_one += usize::from(to == 1);
        self.ranks_with_one -= usize::from(from == 1);
        self.missing += usize::from(to == 0);
        self.missing -= usize::from(from == 0);
    }

    /// Number of agents currently outputting rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside `1..=n`.
    pub fn count_of(&self, r: usize) -> u32 {
        self.counts[self.slot(r)]
    }

    /// Number of ranks `r` with exactly one agent outputting `r` — the
    /// macroscopic "progress toward a permutation" observable recorded by
    /// [`crate::timeline`] checkpoints. Equals `rank_count()` exactly when
    /// [`RankTracker::is_correct`] holds.
    pub fn ranks_with_one(&self) -> usize {
        self.ranks_with_one
    }

    /// Number of ranks output by two or more agents.
    pub fn duplicated_ranks(&self) -> usize {
        self.counts.len() - self.ranks_with_one - self.missing
    }

    /// Number of ranks output by no agent.
    pub fn missing_ranks(&self) -> usize {
        self.missing
    }

    /// Whether every rank `1..=n` is output by exactly one agent.
    ///
    /// Note this implies all `n` agents output a rank (the histogram total
    /// equals the number of registered agents when they do).
    pub fn is_correct(&self) -> bool {
        self.ranks_with_one == self.counts.len()
    }
}

/// The confirmation window of the stable-ranking loops: a run converges at
/// the first interaction count `t0` from which the configuration stays
/// ranked for `window` further interactions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConfirmWindow {
    window: u64,
    since: Option<u64>,
}

impl ConfirmWindow {
    pub(crate) fn new(window: u64) -> Self {
        ConfirmWindow { window, since: None }
    }

    /// Checked before each interaction: opens the window at the first
    /// ranked configuration and returns its start `t0` once the window has
    /// stayed open for `window` interactions (at once when `window == 0`).
    #[inline]
    pub(crate) fn confirmed(&mut self, ranked: bool, now: u64) -> Option<u64> {
        if ranked && self.since.is_none() {
            self.since = Some(now);
        }
        self.since.filter(|&t0| now - t0 >= self.window)
    }

    /// Checked after each interaction: a configuration that is no longer
    /// ranked was not stable after all, so the search starts over.
    #[inline]
    pub(crate) fn keep_if(&mut self, ranked: bool) {
        if !ranked {
            self.since = None;
        }
    }

    /// A fault overwrote agents: an open window no longer describes this
    /// configuration.
    pub(crate) fn restart(&mut self) {
        self.since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty population")]
    fn zero_population_is_rejected() {
        RankTracker::new(0);
    }

    #[test]
    fn empty_tracker_is_incorrect() {
        let t = RankTracker::new(3);
        assert!(!t.is_correct());
    }

    #[test]
    fn permutation_is_correct() {
        let mut t = RankTracker::new(4);
        for r in [3, 1, 4, 2] {
            t.add(Some(r));
        }
        assert!(t.is_correct());
    }

    #[test]
    fn none_outputs_leave_ranks_uncovered() {
        let mut t = RankTracker::new(2);
        t.add(Some(1));
        t.add(None);
        assert!(!t.is_correct());
        t.update(None, Some(2));
        assert!(t.is_correct());
    }

    #[test]
    fn duplicate_rank_is_incorrect_until_resolved() {
        let mut t = RankTracker::new(2);
        t.add(Some(1));
        t.add(Some(1));
        assert!(!t.is_correct());
        t.update(Some(1), Some(2));
        assert!(t.is_correct());
        assert_eq!(t.count_of(1), 1);
        assert_eq!(t.count_of(2), 1);
    }

    #[test]
    fn update_with_equal_ranks_is_noop() {
        let mut t = RankTracker::new(2);
        t.add(Some(1));
        t.add(Some(2));
        t.update(Some(1), Some(1));
        assert!(t.is_correct());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_unheld_rank_panics() {
        let mut t = RankTracker::new(2);
        t.update(Some(1), None);
    }

    #[test]
    #[should_panic(expected = "outside 1..=3")]
    fn out_of_range_rank_panics() {
        let mut t = RankTracker::new(3);
        t.add(Some(4));
    }

    #[test]
    fn add_many_matches_repeated_add() {
        let mut bulk = RankTracker::new(3);
        bulk.add_many(Some(1), 2);
        bulk.add_many(Some(2), 1);
        bulk.add_many(None, 3);
        bulk.add_many(Some(3), 0);
        let mut single = RankTracker::new(3);
        for r in [Some(1), Some(1), Some(2), None, None, None] {
            single.add(r);
        }
        assert_eq!(bulk.count_of(1), single.count_of(1));
        assert_eq!(bulk.count_of(2), single.count_of(2));
        assert_eq!(bulk.count_of(3), single.count_of(3));
        assert_eq!(bulk.is_correct(), single.is_correct());
        // Bulk-added duplicates resolve through updates just like singles.
        bulk.update(Some(1), Some(3));
        assert_eq!(bulk.count_of(1), 1);
        assert_eq!(bulk.count_of(3), 1);
    }

    #[test]
    fn ranks_with_one_counts_good_ranks() {
        let mut t = RankTracker::new(3);
        assert_eq!(t.ranks_with_one(), 0);
        t.add(Some(1));
        t.add(Some(1));
        t.add(Some(3));
        assert_eq!(t.ranks_with_one(), 1);
        t.update(Some(1), Some(2));
        assert_eq!(t.ranks_with_one(), 3);
        assert!(t.is_correct());
    }

    /// After random `add` / `add_many` / `update` sequences the O(1)
    /// tallies equal a scan of the agents' outputs over `1..=n`.
    #[test]
    fn tallies_match_a_scan_after_random_updates() {
        use rand::Rng;
        let mut rng = crate::runner::rng_from_seed(17);
        for n in [1, 2, 5, 12] {
            let mut t = RankTracker::new(n);
            let mut held: Vec<Option<usize>> = Vec::new();
            let draw =
                |rng: &mut rand::rngs::SmallRng| rng.gen_bool(0.8).then(|| rng.gen_range(1..=n));
            for _ in 0..400 {
                let (r, k) = (draw(&mut rng), rng.gen_range(0..3));
                match rng.gen_range(0..3) {
                    0 => {
                        t.add(r);
                        held.push(r);
                    }
                    1 => {
                        t.add_many(r, k);
                        held.extend(std::iter::repeat_n(r, k as usize));
                    }
                    _ if !held.is_empty() => {
                        let i = rng.gen_range(0..held.len());
                        t.update(held[i], r);
                        held[i] = r;
                    }
                    _ => {}
                }
                let held_by = |r| held.iter().filter(|&&h| h == Some(r)).count();
                let scan = |want: fn(usize) -> bool| (1..=n).filter(|&r| want(held_by(r))).count();
                assert_eq!(t.ranks_with_one(), scan(|c| c == 1));
                assert_eq!(t.duplicated_ranks(), scan(|c| c >= 2));
                assert_eq!(t.missing_ranks(), scan(|c| c == 0));
                assert_eq!(t.is_correct(), t.ranks_with_one() == n);
            }
        }
    }

    #[test]
    fn interleaved_updates_track_exactly() {
        let mut t = RankTracker::new(3);
        t.add(Some(1));
        t.add(Some(1));
        t.add(Some(1));
        assert_eq!(t.count_of(1), 3);
        t.update(Some(1), Some(2));
        t.update(Some(1), Some(3));
        assert!(t.is_correct());
        t.update(Some(3), Some(2));
        assert!(!t.is_correct());
        assert_eq!(t.count_of(2), 2);
        t.update(Some(2), Some(3));
        assert!(t.is_correct());
    }
}
