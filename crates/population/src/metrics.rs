//! Internal simulator telemetry: what the *engine* does, not what the
//! protocol does.
//!
//! Observers ([`crate::observer`]) and timelines ([`crate::timeline`]) watch
//! the protocol — leader counts, phases, rank occupancy. This module watches
//! the simulator itself: how large the collision-free batches are, how often
//! the count-based backend falls back to exact per-interaction sampling, how
//! often the memoized transition table hits, how much wall time each
//! hot-loop section costs. Those are exactly the constant-factor signals the
//! n = 10⁹ scaling work needs before any kernel is written.
//!
//! # Design
//!
//! [`MetricsSink`] mirrors the [`Observer`](crate::observer::Observer) /
//! [`FaultSchedule`](crate::fault::FaultSchedule) zero-cost idiom: the
//! simulation takes a sink as a generic parameter defaulting to
//! [`NoopMetrics`], whose `ENABLED = false` associated const folds every
//! instrumentation site out of the monomorphized hot loop. The uninstrumented
//! path compiles to the code it was before this module existed.
//!
//! Both backends report at **batch boundaries**: the count-based backend
//! after every collision-free batch, the agent-array backend every
//! [`AGENT_FLUSH_EVERY`] interactions. Nothing here ever touches the
//! simulation's RNG, so attaching a sink cannot perturb an execution —
//! outcomes are bit-identical with [`NoopMetrics`] and with a recording
//! [`Metrics`] sink.

use std::time::Duration;

use crate::record::MetricsRecord;
use crate::telemetry::{Counter, FixedHistogram};

/// How many interactions the agent-array backend performs between metric
/// flushes (and section-timer samples). Chosen so the per-window `Instant`
/// reads amortize to well under a nanosecond per interaction.
pub const AGENT_FLUSH_EVERY: u64 = 1 << 10;

/// The hot-loop sections whose wall time the sinks account separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Drawing the schedule: batch lengths, pair indices, survival lookups.
    Sample,
    /// Applying transitions and committing count deltas.
    Transition,
    /// Convergence probing: rank-tracker queries and `run_until` goals.
    Probe,
    /// Observation work: timeline snapshots and observer bookkeeping.
    Observe,
}

impl Section {
    /// All sections, in display order.
    pub const ALL: [Section; 4] =
        [Section::Sample, Section::Transition, Section::Probe, Section::Observe];

    /// Dense index for array-backed accumulators.
    pub fn index(self) -> usize {
        match self {
            Section::Sample => 0,
            Section::Transition => 1,
            Section::Probe => 2,
            Section::Observe => 3,
        }
    }

    /// Stable snake_case name for records and reports.
    pub fn label(self) -> &'static str {
        match self {
            Section::Sample => "sample",
            Section::Transition => "transition",
            Section::Probe => "probe",
            Section::Observe => "observe",
        }
    }
}

/// Engine-side telemetry hooks, called by both simulation backends.
///
/// All hooks have empty default bodies and every call site is guarded by
/// `if M::ENABLED { … }`, so a sink with `ENABLED = false` costs nothing.
/// Sinks must never draw from any RNG: executions with and without a sink
/// attached are bit-identical.
pub trait MetricsSink {
    /// Whether the simulation should call the hooks at all. Checked as an
    /// associated const so disabled sinks monomorphize away.
    const ENABLED: bool;

    /// `n` interactions were performed (counted at batch boundaries).
    fn on_interactions(&mut self, n: u64) {
        let _ = n;
    }

    /// One collision-free batch of `size` interactions completed on the
    /// count-based backend.
    fn on_batch(&mut self, size: u64) {
        let _ = size;
    }

    /// One interaction went through the exact per-interaction fallback
    /// (`step_exact_indices` on the counts backend).
    fn on_exact_step(&mut self) {}

    /// `n` draws were consumed from the execution RNG: on the agent-array
    /// backend, the 64-bit words the scheduler and the omission coin drew
    /// (counted through [`crate::scheduler::CountingRng`]); on the
    /// count-based backend, its scheduler draws.
    fn on_rng_draws(&mut self, n: u64) {
        let _ = n;
    }

    /// The memoized transition table was consulted; `hit` says whether it
    /// answered without running the protocol.
    fn on_memo_lookup(&mut self, hit: bool) {
        let _ = hit;
    }

    /// The count-based configuration compacted its tombstones; `support` and
    /// `raw_len` describe occupancy after compaction.
    fn on_compaction(&mut self, support: u64, raw_len: u64) {
        let _ = (support, raw_len);
    }

    /// `nanos` of wall time were spent in the given hot-loop section.
    fn on_section(&mut self, section: Section, nanos: u64) {
        let _ = (section, nanos);
    }

    /// A batch boundary was reached at the given total interaction count —
    /// the seam at which per-batch instrumentation (and, later, single-run
    /// parallelism) synchronizes.
    fn on_flush(&mut self, interactions: u64) {
        let _ = interactions;
    }
}

/// The default sink: `ENABLED = false`, every hook compiled away.
///
/// `Simulation<P>` and `BatchSimulation<P>` mean the `NoopMetrics`
/// instantiation; the uninstrumented hot loops contain no metrics plumbing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    const ENABLED: bool = false;
}

/// The recording sink: counters and log-bucketed histograms over everything
/// the hooks report.
///
/// Built on [`Counter`] and [`FixedHistogram`] from [`crate::telemetry`];
/// merge per-trial instances with [`Metrics::merge_from`] for cross-trial
/// rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Total interactions performed.
    pub interactions: Counter,
    /// Collision-free batches completed (counts backend).
    pub batches: Counter,
    /// Interactions performed inside collision-free batches.
    pub batched_pairs: Counter,
    /// Log-bucketed distribution of collision-free batch sizes.
    pub batch_sizes: FixedHistogram,
    /// Interactions that went through the exact per-interaction fallback.
    pub exact_steps: Counter,
    /// Draws consumed from the execution RNG (see
    /// [`MetricsSink::on_rng_draws`]).
    pub rng_draws: Counter,
    /// Memoized-transition lookups that hit.
    pub memo_hits: Counter,
    /// Memoized-transition lookups that missed.
    pub memo_misses: Counter,
    /// CountConfig compactions performed.
    pub compactions: Counter,
    /// Distinct live states after the most recent compaction (0 = never
    /// compacted).
    pub support: u64,
    /// Raw table length after the most recent compaction.
    pub raw_len: u64,
    /// Batch-boundary flushes observed.
    pub flushes: Counter,
    /// Wall nanoseconds per hot-loop section, indexed by
    /// [`Section::index`].
    pub section_nanos: [u64; 4],
}

impl Metrics {
    /// A fresh sink with an exponential batch-size histogram
    /// (1, 2, 4, …, 2³¹).
    pub fn new() -> Self {
        Metrics {
            interactions: Counter::new(),
            batches: Counter::new(),
            batched_pairs: Counter::new(),
            batch_sizes: FixedHistogram::exponential(1, 32),
            exact_steps: Counter::new(),
            rng_draws: Counter::new(),
            memo_hits: Counter::new(),
            memo_misses: Counter::new(),
            compactions: Counter::new(),
            support: 0,
            raw_len: 0,
            flushes: Counter::new(),
            section_nanos: [0; 4],
        }
    }

    /// Folds another sink's totals into this one (cross-trial merging).
    pub fn merge_from(&mut self, other: &Metrics) {
        self.interactions.add(other.interactions.get());
        self.batches.add(other.batches.get());
        self.batched_pairs.add(other.batched_pairs.get());
        self.batch_sizes.merge_from(&other.batch_sizes);
        self.exact_steps.add(other.exact_steps.get());
        self.rng_draws.add(other.rng_draws.get());
        self.memo_hits.add(other.memo_hits.get());
        self.memo_misses.add(other.memo_misses.get());
        self.compactions.add(other.compactions.get());
        if other.support != 0 {
            self.support = other.support;
            self.raw_len = other.raw_len;
        }
        self.flushes.add(other.flushes.get());
        for (mine, theirs) in self.section_nanos.iter_mut().zip(other.section_nanos) {
            *mine += theirs;
        }
    }

    /// Total interactions recorded so far — the numerator a caller needs to
    /// report interactions-per-second against its own wall clock.
    pub fn total_interactions(&self) -> u64 {
        self.interactions.get()
    }

    /// Fraction of interactions that went through the exact fallback
    /// (`exact / (exact + batched)`); 0 when nothing ran.
    pub fn fallback_rate(&self) -> f64 {
        let exact = self.exact_steps.get();
        let total = exact + self.batched_pairs.get();
        if total == 0 {
            0.0
        } else {
            exact as f64 / total as f64
        }
    }

    /// Fraction of memo lookups that hit; 0 when the memo was never
    /// consulted.
    pub fn memo_hit_rate(&self) -> f64 {
        let hits = self.memo_hits.get();
        let total = hits + self.memo_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Wall seconds attributed to one hot-loop section.
    pub fn section_seconds(&self, section: Section) -> f64 {
        Duration::from_nanos(self.section_nanos[section.index()]).as_secs_f64()
    }

    /// The batch-size histogram as a flat `bound:count,…` string (only
    /// non-empty buckets; the overflow bucket encodes as `inf`), or `None`
    /// when no batch was recorded.
    pub fn encode_batch_hist(&self) -> Option<String> {
        encode_histogram(&self.batch_sizes)
    }

    /// Builds the schema-v5 JSONL row for this sink.
    ///
    /// `trial` is `None` for a merged cross-trial row.
    #[allow(clippy::too_many_arguments)]
    pub fn to_record(
        &self,
        experiment: &str,
        protocol: &str,
        backend: &str,
        n: u64,
        trial: Option<u64>,
        seed: u64,
        wall_s: f64,
    ) -> MetricsRecord {
        MetricsRecord {
            experiment: experiment.to_string(),
            protocol: protocol.to_string(),
            backend: backend.to_string(),
            n,
            trial,
            seed,
            wall_s,
            interactions: self.interactions.get(),
            batches: self.batches.get(),
            batched_pairs: self.batched_pairs.get(),
            exact_steps: self.exact_steps.get(),
            rng_draws: self.rng_draws.get(),
            memo_hits: self.memo_hits.get(),
            memo_misses: self.memo_misses.get(),
            compactions: self.compactions.get(),
            support: self.support,
            raw_len: self.raw_len,
            flushes: self.flushes.get(),
            batch_hist: self.encode_batch_hist(),
            sample_s: self.section_seconds(Section::Sample),
            transition_s: self.section_seconds(Section::Transition),
            probe_s: self.section_seconds(Section::Probe),
            observe_s: self.section_seconds(Section::Observe),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink for Metrics {
    const ENABLED: bool = true;

    fn on_interactions(&mut self, n: u64) {
        self.interactions.add(n);
    }

    fn on_batch(&mut self, size: u64) {
        self.batches.incr();
        self.batched_pairs.add(size);
        self.batch_sizes.record(size);
    }

    fn on_exact_step(&mut self) {
        self.exact_steps.incr();
    }

    fn on_rng_draws(&mut self, n: u64) {
        self.rng_draws.add(n);
    }

    fn on_memo_lookup(&mut self, hit: bool) {
        if hit {
            self.memo_hits.incr();
        } else {
            self.memo_misses.incr();
        }
    }

    fn on_compaction(&mut self, support: u64, raw_len: u64) {
        self.compactions.incr();
        self.support = support;
        self.raw_len = raw_len;
    }

    fn on_section(&mut self, section: Section, nanos: u64) {
        self.section_nanos[section.index()] += nanos;
    }

    fn on_flush(&mut self, _interactions: u64) {
        self.flushes.incr();
    }
}

/// A `&mut` sink forwards to its target, so callers can lend a sink to a
/// simulation and keep ownership for reading afterwards.
impl<M: MetricsSink> MetricsSink for &mut M {
    const ENABLED: bool = M::ENABLED;

    fn on_interactions(&mut self, n: u64) {
        (**self).on_interactions(n);
    }

    fn on_batch(&mut self, size: u64) {
        (**self).on_batch(size);
    }

    fn on_exact_step(&mut self) {
        (**self).on_exact_step();
    }

    fn on_rng_draws(&mut self, n: u64) {
        (**self).on_rng_draws(n);
    }

    fn on_memo_lookup(&mut self, hit: bool) {
        (**self).on_memo_lookup(hit);
    }

    fn on_compaction(&mut self, support: u64, raw_len: u64) {
        (**self).on_compaction(support, raw_len);
    }

    fn on_section(&mut self, section: Section, nanos: u64) {
        (**self).on_section(section, nanos);
    }

    fn on_flush(&mut self, interactions: u64) {
        (**self).on_flush(interactions);
    }
}

/// Flat-encodes a histogram as `bound:count,…` over non-empty buckets, the
/// overflow bucket as `inf:count`; `None` when the histogram is empty.
/// (Same flat-string idiom as timeline phase occupancy, so the v5 record
/// stays a flat JSON object.) Delegates to the one shared codec in
/// [`analysis::histogram`] so every log₂-bucket histogram in the workspace
/// serializes identically.
pub fn encode_histogram(hist: &FixedHistogram) -> Option<String> {
    analysis::encode_buckets(hist.bounds(), hist.counts())
}

/// Decodes an [`encode_histogram`] string back to `(bound-label, count)`
/// pairs, in encoded order. Returns `None` on malformed input.
pub fn decode_histogram(s: &str) -> Option<Vec<(String, u64)>> {
    analysis::decode_buckets(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled() {
        // Read through a runtime binding so the zero-cost contract is
        // asserted on the value generic code actually sees.
        let enabled = [<NoopMetrics as MetricsSink>::ENABLED];
        assert_eq!(enabled, [false]);
    }

    #[test]
    fn recording_sink_accumulates() {
        let mut m = Metrics::new();
        m.on_interactions(10);
        m.on_batch(8);
        m.on_batch(2);
        m.on_exact_step();
        m.on_rng_draws(21);
        m.on_memo_lookup(true);
        m.on_memo_lookup(true);
        m.on_memo_lookup(false);
        m.on_compaction(3, 7);
        m.on_section(Section::Sample, 1_000);
        m.on_section(Section::Sample, 500);
        m.on_flush(10);
        assert_eq!(m.interactions.get(), 10);
        assert_eq!(m.batches.get(), 2);
        assert_eq!(m.batched_pairs.get(), 10);
        assert_eq!(m.exact_steps.get(), 1);
        assert_eq!(m.rng_draws.get(), 21);
        assert!((m.memo_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.compactions.get(), 1);
        assert_eq!((m.support, m.raw_len), (3, 7));
        assert_eq!(m.section_nanos[Section::Sample.index()], 1_500);
        assert_eq!(m.flushes.get(), 1);
        assert!((m.fallback_rate() - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_when_nothing_ran() {
        let m = Metrics::new();
        assert_eq!(m.fallback_rate(), 0.0);
        assert_eq!(m.memo_hit_rate(), 0.0);
        assert_eq!(m.encode_batch_hist(), None);
    }

    #[test]
    fn merge_folds_counters_and_histograms() {
        let mut a = Metrics::new();
        a.on_interactions(5);
        a.on_batch(4);
        a.on_section(Section::Probe, 100);
        let mut b = Metrics::new();
        b.on_interactions(7);
        b.on_batch(4);
        b.on_batch(1_000_000);
        b.on_compaction(2, 9);
        b.on_section(Section::Probe, 50);
        a.merge_from(&b);
        assert_eq!(a.interactions.get(), 12);
        assert_eq!(a.batches.get(), 3);
        assert_eq!(a.batched_pairs.get(), 1_000_008);
        assert_eq!(a.batch_sizes.total(), 3);
        assert_eq!((a.support, a.raw_len), (2, 9));
        assert_eq!(a.section_nanos[Section::Probe.index()], 150);
        // The two size-4 batches land in the same bucket.
        let encoded = a.encode_batch_hist().unwrap();
        assert!(encoded.starts_with("4:2,"), "{encoded}");
    }

    #[test]
    fn histogram_encoding_round_trips() {
        let mut h = FixedHistogram::exponential(1, 4);
        for v in [1, 2, 2, 5, 100] {
            h.record(v);
        }
        let encoded = encode_histogram(&h).unwrap();
        assert_eq!(encoded, "1:1,2:2,8:1,inf:1");
        let decoded = decode_histogram(&encoded).unwrap();
        assert_eq!(
            decoded,
            vec![
                ("1".to_string(), 1),
                ("2".to_string(), 2),
                ("8".to_string(), 1),
                ("inf".to_string(), 1)
            ]
        );
        assert_eq!(decode_histogram("nonsense"), None);
        assert_eq!(decode_histogram(":3"), None);
    }

    #[test]
    fn section_labels_and_indices_are_stable() {
        for (idx, s) in Section::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), idx);
        }
        assert_eq!(Section::ALL.map(Section::label), ["sample", "transition", "probe", "observe"]);
    }

    #[test]
    fn borrowed_sink_forwards() {
        let mut m = Metrics::new();
        {
            let mut lent = &mut m;
            MetricsSink::on_interactions(&mut lent, 3);
            MetricsSink::on_batch(&mut lent, 3);
        }
        assert_eq!(m.interactions.get(), 3);
        assert_eq!(m.batches.get(), 1);
        const { assert!(<&mut Metrics as MetricsSink>::ENABLED) };
    }
}
