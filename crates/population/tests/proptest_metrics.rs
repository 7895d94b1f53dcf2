//! Property-based tests for the engine-metrics subsystem.
//!
//! Three families of invariants:
//!
//! * **RNG neutrality** — a recording [`Metrics`] sink must not perturb the
//!   execution: with the same seed, the instrumented and uninstrumented
//!   runs end in the same outcome, interaction count, and configuration,
//!   on both backends. (The sinks never draw from the simulation RNG;
//!   these tests pin that contract behaviorally.)
//! * **Counter reconciliation** — the sink's totals must agree with the
//!   simulation's own ground truth: interactions counted equal interactions
//!   performed, the agent backend's RNG draws equal the words its RNG
//!   advanced, batched + exact interactions partition the total, the
//!   batch-size histogram sums to the batch count, and (for deterministic
//!   protocols on a perfect channel) every interaction consults the memo
//!   exactly once.
//! * **Record round-trips** — schema-v5 `"kind":"metrics"` rows survive
//!   encode → parse unchanged, and lines stamped with older schema
//!   versions (v2–v4) still parse to the same records.

use population::metrics::AGENT_FLUSH_EVERY;
use population::record::from_jsonl;
use population::{
    BatchSimulation, InteractionGraph, Metrics, MetricsRecord, Protocol, RankingProtocol,
    RecordLine, Reliability, RunOutcome, RunRecord, Simulation,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::RngCore;

/// Protocol 1 of the paper in miniature: rank collision bumps the responder.
#[derive(Clone)]
struct ModRank {
    n: usize,
}
impl Protocol for ModRank {
    type State = usize;
    const DETERMINISTIC_INTERACT: bool = true;
    fn interact(&self, a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
        if a == b {
            *b = (*b + 1) % self.n;
        }
    }
}
impl RankingProtocol for ModRank {
    fn population_size(&self) -> usize {
        self.n
    }
    fn rank_of(&self, s: &usize) -> Option<usize> {
        Some(s + 1)
    }
}

/// How many words an RNG at stream position `start` draws to reach `end`,
/// stepping at most `limit` words.
fn words_between(start: [u64; 4], end: [u64; 4], limit: u64) -> u64 {
    let mut rng = SmallRng::from_state(start);
    for words in 0..=limit {
        if rng.state() == end {
            return words;
        }
        rng.next_u64();
    }
    panic!("the final RNG state is more than {limit} words past the start");
}

/// `(n, initial states)` with every state already in range.
fn population() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (2usize..12).prop_flat_map(|n| (Just(n), prop::collection::vec(0..n, n)))
}

/// Sorted state multiset of a count configuration.
fn multiset(config: &population::CountConfig<usize>) -> Vec<usize> {
    let mut states = config.to_states();
    states.sort_unstable();
    states
}

proptest! {
    /// Attaching a recording sink to the agent-array backend changes
    /// nothing observable about the execution.
    #[test]
    fn metrics_are_rng_neutral_on_the_agent_backend(
        (n, states) in population(),
        max in 0u64..3000,
        window in 0u64..40,
        seed in 0u64..1000,
    ) {
        let mut plain = Simulation::new(ModRank { n }, states.clone(), seed);
        let out_plain = plain.run_until_stably_ranked(max, window);

        let mut metrics = Metrics::new();
        let mut recorded = Simulation::new(ModRank { n }, states, seed)
            .with_metrics(&mut metrics);
        let out_recorded = recorded.run_until_stably_ranked(max, window);

        prop_assert_eq!(out_plain, out_recorded);
        prop_assert_eq!(recorded.interactions(), plain.interactions());
        prop_assert_eq!(recorded.states(), plain.states());
    }

    /// Attaching a recording sink to the count-based backend changes
    /// nothing observable about the execution — both the batched `run`
    /// driver and the exact ranked loop.
    #[test]
    fn metrics_are_rng_neutral_on_the_count_backend(
        (n, states) in population(),
        k in 0u64..3000,
        window in 0u64..40,
        seed in 0u64..1000,
    ) {
        let mut plain = BatchSimulation::new(ModRank { n }, states.clone(), seed);
        plain.run(k);
        let out_plain = plain.run_until_stably_ranked(k + 2000, window);

        let mut metrics = Metrics::new();
        let mut recorded = BatchSimulation::new(ModRank { n }, states, seed)
            .with_metrics(&mut metrics);
        recorded.run(k);
        let out_recorded = recorded.run_until_stably_ranked(k + 2000, window);

        prop_assert_eq!(out_plain, out_recorded);
        prop_assert_eq!(recorded.interactions(), plain.interactions());
        prop_assert_eq!(multiset(recorded.counts()), multiset(plain.counts()));
    }

    /// The sink's interaction counter matches the simulation's ground
    /// truth; batched and exact interactions partition the total; the
    /// batch-size histogram records one entry per batch summing to the
    /// batched-pair total; and a deterministic protocol on a perfect
    /// channel consults the memo exactly once per interaction.
    #[test]
    fn counters_reconcile_on_the_count_backend(
        (n, states) in population(),
        k in 0u64..3000,
        exact in 0u64..50,
        seed in 0u64..1000,
    ) {
        let mut metrics = Metrics::new();
        let mut sim = BatchSimulation::new(ModRank { n }, states, seed)
            .with_metrics(&mut metrics);
        sim.run(k);
        for _ in 0..exact {
            sim.step_exact();
        }
        let interactions = sim.interactions();
        drop(sim);

        prop_assert_eq!(metrics.interactions.get(), interactions);
        prop_assert_eq!(
            metrics.batched_pairs.get() + metrics.exact_steps.get(),
            interactions,
            "batched + exact must partition the total"
        );
        prop_assert!(metrics.exact_steps.get() >= exact);
        prop_assert_eq!(metrics.batch_sizes.total(), metrics.batches.get());
        if let Some(encoded) = metrics.encode_batch_hist() {
            let decoded = population::metrics::decode_histogram(&encoded).unwrap();
            let total: u64 = decoded.iter().map(|(_, c)| c).sum();
            prop_assert_eq!(total, metrics.batches.get());
        } else {
            prop_assert_eq!(metrics.batches.get(), 0);
        }
        prop_assert_eq!(
            metrics.memo_hits.get() + metrics.memo_misses.get(),
            interactions,
            "perfect channel: every interaction resolves through the memo"
        );
    }

    /// Agent-backend reconciliation: interactions match, `rng_draws` is
    /// exactly the number of words the execution drew from its RNG, and
    /// flushes land every `AGENT_FLUSH_EVERY` interactions. The draw count
    /// is checked against an independent oracle: a copy of the starting
    /// RNG stepped one word at a time until it reaches the final stream
    /// position. `ModRank` draws nothing itself, so every word is the
    /// scheduler's or the omission coin's: about one per interaction on
    /// the complete graph, two on the ring, one more with omission.
    #[test]
    fn counters_reconcile_on_the_agent_backend(
        (n, states) in population(),
        k in 0u64..5000,
        seed in 0u64..1000,
        setup in 0usize..3,
    ) {
        let mut metrics = Metrics::new();
        let sim = match setup {
            0 => Simulation::new(ModRank { n }, states, seed),
            1 => Simulation::with_graph(ModRank { n }, states, InteractionGraph::Ring, seed),
            _ => Simulation::new(ModRank { n }, states, seed)
                .with_reliability(Reliability::with_omission(0.3)),
        };
        let start = sim.rng_state();
        let mut sim = sim.with_metrics(&mut metrics);
        sim.run(k);
        let end = sim.rng_state();
        drop(sim);
        prop_assert_eq!(metrics.interactions.get(), k);
        prop_assert_eq!(metrics.rng_draws.get(), words_between(start, end, 4 * k + 64));
        prop_assert_eq!(metrics.flushes.get(), k / AGENT_FLUSH_EVERY);
        prop_assert_eq!(metrics.batches.get(), 0, "agent backend never batches");
    }

    /// Schema-v5 metrics rows survive encode → parse unchanged.
    #[test]
    fn metrics_records_round_trip(
        experiment in 0usize..3,
        protocol in 0usize..3,
        backend in 0usize..2,
        n in 2u64..1_000_000_000,
        // The flat JSONL reader (shared with v1–v4 records) parses
        // integers through f64, so counters must stay ≤ 2⁵³ (and the
        // rng_draws = 2·interactions written below must too).
        trial in prop::option::of(0u64..10_000),
        seed in 0u64..(1u64 << 53),
        interactions in 0u64..(1u64 << 52),
        batches in 0u64..1_000_000,
        hist in prop::option::of(prop::collection::vec((1u64..1_000_000, 1u64..1_000_000), 1..6)),
    ) {
        let record = MetricsRecord {
            experiment: ["simulate", "soak", "perf_baseline"][experiment].to_string(),
            protocol: ["epidemic", "loose", "oss"][protocol].to_string(),
            backend: ["agents", "counts"][backend].to_string(),
            n,
            trial,
            seed,
            wall_s: 0.25,
            interactions,
            batches,
            batched_pairs: interactions / 2,
            exact_steps: interactions - interactions / 2,
            rng_draws: interactions.saturating_mul(2),
            memo_hits: interactions / 3,
            memo_misses: interactions / 5,
            compactions: batches / 7,
            support: n.min(4096),
            raw_len: n.min(8192),
            flushes: batches,
            batch_hist: hist.map(|pairs| {
                pairs
                    .iter()
                    .map(|(b, c)| format!("{b}:{c}"))
                    .collect::<Vec<_>>()
                    .join(",")
            }),
            sample_s: 0.5,
            transition_s: 1.5,
            probe_s: 0.25,
            observe_s: 0.0,
        };
        let line = record.to_json();
        let parsed = RecordLine::from_json(&line).expect("round trip");
        prop_assert_eq!(parsed, RecordLine::Metrics(record));
    }
}

/// A fixed current-version run line with the version literal swapped to
/// older schema versions must still parse to the same record: the reader
/// accepts the whole v1–v7 range, so pre-metrics experiment logs stay
/// readable byte-for-byte.
#[test]
fn older_schema_versions_parse_to_the_same_records() {
    let record = RunRecord {
        experiment: "simulate".to_string(),
        protocol: "epidemic".to_string(),
        n: 4096,
        h: Some(3),
        trial: 7,
        seed: 13,
        outcome: RunOutcome::Converged { interactions: 123_456 },
        wall_s: 0.75,
        availability: None,
        faults: None,
        scheduler: None,
        omission: None,
        starve_window: None,
    };
    let current = record.to_json();
    assert!(current.contains("\"v\":9"), "{current}");
    for old in 1..9u32 {
        let line = current.replace("\"v\":9", &format!("\"v\":{old}"));
        let parsed =
            RecordLine::from_json(&line).unwrap_or_else(|e| panic!("v{old} line rejected: {e}"));
        assert_eq!(parsed, RecordLine::Trial(record.clone()), "v{old}");
    }
    // The trial reader sees exactly the run rows, whatever their version.
    let mixed = format!("{}\n{}\n", current, current.replace("\"v\":9", "\"v\":2"));
    assert_eq!(from_jsonl(&mixed).expect("mixed versions").len(), 2);
}
