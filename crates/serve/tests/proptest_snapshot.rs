//! Property tests for the snapshot lifecycle the daemon depends on.
//!
//! Two families:
//!
//! * **Bit-identity** — for every snapshottable protocol (`ciw`, `oss`,
//!   `loose`) on both backends, an execution that is snapshotted and
//!   restored mid-run continues bit-identically to the uninterrupted run:
//!   same states, same interaction count, same RNG position.
//! * **Robustness** — truncated and corrupted snapshot files produce clean
//!   errors, never panics, and never a silently wrong population.
//! * **Encoding** — the streaming encoder writes exactly the bytes the
//!   string-building encoder it replaced wrote, so snapshots on disk keep
//!   their format.

use population::record::JsonObject;
use population::runner::rng_from_seed;
use population::snapshot::{
    restore_agents, restore_counts, snapshot_agents, snapshot_counts, SnapshotDoc, SnapshotError,
    SnapshotProtocol,
};
use population::{BatchSimulation, Simulation};
use proptest::prelude::*;
use rand::Rng;
use ssle::adversary;
use ssle::loose::{LooseState, LooselyStabilizingLe};
use ssle::{CaiIzumiWada, OptimalSilentSsr};
use ssle_serve::pop;

fn roundtrip_agents<P>(
    protocol: impl Fn() -> P,
    initial: Vec<P::State>,
    seed: u64,
    pre: u64,
    post: u64,
) where
    P: SnapshotProtocol,
    P::State: Clone + PartialEq + std::fmt::Debug,
{
    let mut sim = Simulation::new(protocol(), initial, seed);
    sim.run(pre);
    let doc = snapshot_agents(&sim);
    // The document survives its own wire format.
    let doc = SnapshotDoc::from_jsonl(&doc.to_jsonl()).expect("reparse snapshot");
    let mut restored = restore_agents(protocol(), &doc).expect("restore agents");
    sim.run(post);
    restored.run(post);
    assert_eq!(sim.states(), restored.states());
    assert_eq!(sim.interactions(), restored.interactions());
    assert_eq!(sim.rng_state(), restored.rng_state());
}

fn roundtrip_counts<P>(
    protocol: impl Fn() -> P,
    initial: Vec<P::State>,
    seed: u64,
    pre: u64,
    post: u64,
) where
    P: SnapshotProtocol,
    P::State: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut sim = BatchSimulation::new(protocol(), initial, seed);
    sim.run(pre);
    let doc = snapshot_counts(&sim);
    let doc = SnapshotDoc::from_jsonl(&doc.to_jsonl()).expect("reparse snapshot");
    let mut restored = restore_counts(protocol(), &doc).expect("restore counts");
    sim.run(post);
    restored.run(post);
    assert_eq!(sim.counts().to_states(), restored.counts().to_states());
    assert_eq!(sim.interactions(), restored.interactions());
    assert_eq!(sim.rng_state(), restored.rng_state());
}

fn loose_initial(t_max: u32, n: usize, seed: u64) -> Vec<LooseState> {
    let mut rng = rng_from_seed(seed ^ 1);
    (0..n)
        .map(|_| LooseState { leader: rng.gen_range(0..2) == 1, timer: rng.gen_range(0..=t_max) })
        .collect()
}

/// The encoder `SnapshotDoc::to_jsonl` had before it streamed: builds
/// the whole text in one `String`. The reference the streaming encoder is
/// held to.
fn string_built_jsonl(doc: &SnapshotDoc) -> String {
    let mut rng_hex = String::with_capacity(64);
    for word in doc.rng {
        rng_hex.push_str(&format!("{word:016x}"));
    }
    let mut out = String::new();
    let mut header = JsonObject::new();
    header
        .field_u64("v", 1)
        .field_str("kind", "snapshot")
        .field_str("protocol", &doc.protocol)
        .field_str("backend", &doc.backend)
        .field_u64("param", doc.param)
        .field_u64("live", doc.live)
        .field_u64("interactions", doc.interactions)
        .field_str("rng", &rng_hex);
    if doc.seq != 0 {
        header.field_u64("seq", doc.seq);
    }
    out.push_str(&header.finish());
    out.push('\n');
    for (state, count) in &doc.runs {
        let mut line = JsonObject::new();
        line.field_str("kind", "snapshot-run").field_str("s", state).field_u64("c", *count);
        out.push_str(&line.finish());
        out.push('\n');
    }
    let mut footer = JsonObject::new();
    footer.field_str("kind", "snapshot-end").field_u64("runs", doc.runs.len() as u64);
    out.push_str(&footer.finish());
    out.push('\n');
    out
}

#[test]
fn streamed_snapshots_match_the_string_built_bytes() {
    for protocol in ["ciw", "oss"] {
        for backend in ["agents", "counts"] {
            let mut population = pop::create(protocol, backend, 40, 17).unwrap();
            population.step(20_000);
            for seq in [0, 1, 257, (1 << 53) + 1] {
                let mut doc = population.snapshot_doc();
                doc.seq = seq;
                let mut streamed = Vec::new();
                doc.write_jsonl(&mut streamed).unwrap();
                let want = string_built_jsonl(&doc);
                assert_eq!(streamed, want.as_bytes(), "{protocol}/{backend} at seq {seq}");
                assert_eq!(doc.to_jsonl(), want, "{protocol}/{backend} at seq {seq}");
            }
        }
    }
}

proptest! {
    #[test]
    fn ciw_roundtrips_on_both_backends(
        seed in 0u64..1_000,
        n in 4usize..24,
        pre in 0u64..4_000,
        post in 0u64..4_000,
    ) {
        let initial =
            adversary::random_ciw_configuration(&CaiIzumiWada::new(n), &mut rng_from_seed(seed ^ 1));
        roundtrip_agents(|| CaiIzumiWada::new(n), initial.clone(), seed, pre, post);
        roundtrip_counts(|| CaiIzumiWada::new(n), initial, seed, pre, post);
    }

    #[test]
    fn oss_roundtrips_on_both_backends(
        seed in 0u64..1_000,
        n in 4usize..24,
        pre in 0u64..4_000,
        post in 0u64..4_000,
    ) {
        let initial = adversary::random_oss_configuration(
            &OptimalSilentSsr::new(n),
            &mut rng_from_seed(seed ^ 1),
        );
        roundtrip_agents(|| OptimalSilentSsr::new(n), initial.clone(), seed, pre, post);
        roundtrip_counts(|| OptimalSilentSsr::new(n), initial, seed, pre, post);
    }

    #[test]
    fn loose_roundtrips_on_both_backends(
        seed in 0u64..1_000,
        n in 4usize..24,
        t_max in 8u32..64,
        pre in 0u64..4_000,
        post in 0u64..4_000,
    ) {
        let initial = loose_initial(t_max, n, seed);
        roundtrip_agents(|| LooselyStabilizingLe::new(t_max), initial.clone(), seed, pre, post);
        roundtrip_counts(|| LooselyStabilizingLe::new(t_max), initial, seed, pre, post);
    }

    #[test]
    fn truncated_snapshots_error_cleanly(
        seed in 0u64..1_000,
        n in 4usize..16,
        pre in 0u64..2_000,
        cut in 0usize..1_000,
    ) {
        let initial =
            adversary::random_oss_configuration(&OptimalSilentSsr::new(n), &mut rng_from_seed(seed ^ 1));
        let mut sim = Simulation::new(OptimalSilentSsr::new(n), initial, seed);
        sim.run(pre);
        let text = snapshot_agents(&sim).to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // Every proper line-prefix of a snapshot is truncated: the footer
        // (and possibly runs) are missing, so parsing must fail cleanly.
        let keep = cut % lines.len();
        let truncated = lines[..keep].join("\n");
        match SnapshotDoc::from_jsonl(&truncated) {
            Err(SnapshotError::Truncated) | Err(SnapshotError::Corrupt { .. }) => {}
            Ok(_) => prop_assert!(false, "truncated snapshot parsed successfully"),
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    #[test]
    fn corrupted_snapshot_lines_error_cleanly(
        seed in 0u64..1_000,
        n in 4usize..16,
        pre in 0u64..2_000,
        victim_pick in 0usize..1_000,
        garbage_pick in 0usize..6,
    ) {
        const GARBAGE: [&str; 6] = [
            "not json at all",
            "{\"kind\":\"snapshot-run\"}",
            "{\"kind\":\"snapshot-run\",\"s\":\"99999\",\"c\":1}",
            "{\"kind\":\"galaxy\"}",
            "{\"kind\":\"snapshot-end\",\"runs\":0}",
            "{truncat",
        ];
        let initial =
            adversary::random_ciw_configuration(&CaiIzumiWada::new(n), &mut rng_from_seed(seed ^ 1));
        let mut sim = BatchSimulation::new(CaiIzumiWada::new(n), initial, seed);
        sim.run(pre);
        let text = snapshot_counts(&sim).to_jsonl();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let victim = victim_pick % lines.len();
        lines[victim] = GARBAGE[garbage_pick].to_string();
        let corrupted = lines.join("\n");
        // A clean parse error, or — when the garbage is itself a
        // structurally valid line — a parse whose restore() validation
        // rejects out-of-range states. Either way: no panic, and a
        // wrong-count document never restores silently.
        if let Ok(doc) = SnapshotDoc::from_jsonl(&corrupted) {
            let _ = restore_counts(CaiIzumiWada::new(n), &doc);
        }
    }
}
