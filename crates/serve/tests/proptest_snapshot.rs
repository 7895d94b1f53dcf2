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
//! * **Encoding** — frozen copies and documents stream exactly the bytes
//!   the string-building encoder wrote before them, so snapshots on disk
//!   keep their format; and the files the daemon writes match golden
//!   copies under `tests/golden/snapshot/` byte for byte.

use std::fs;
use std::path::Path;

use population::record::JsonObject;
use population::runner::rng_from_seed;
use population::snapshot::{
    freeze_agents, freeze_counts, restore_agents, restore_counts, snapshot_agents, snapshot_counts,
    SnapshotDoc, SnapshotError, SnapshotProtocol, WriteSnapshot,
};
use population::{BatchSimulation, Simulation};
use proptest::prelude::*;
use rand::Rng;
use ssle::adversary;
use ssle::loose::{LooseState, LooselyStabilizingLe};
use ssle::{CaiIzumiWada, OptimalSilentSsr};
use ssle_serve::journal::{FsyncPolicy, Op};
use ssle_serve::registry::{Durability, Registry, SNAPSHOT_SUFFIX};

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

fn encoded<P: SnapshotProtocol>(protocol: &P, state: &P::State) -> String {
    let mut out = String::new();
    protocol.encode_state(state, &mut out);
    out
}

/// The document the encoder wrote before it streamed: one `String` per
/// agent, merged into runs of equal consecutive encodings on the agent
/// array, one run per raw entry on the count backend.
fn reference_doc<P: SnapshotProtocol>(
    protocol: &P,
    backend: &str,
    interactions: u64,
    rng: [u64; 4],
    entries: &[(P::State, u64)],
    seq: u64,
) -> SnapshotDoc {
    let mut runs: Vec<(String, u64)> = Vec::new();
    for (state, count) in entries {
        let state = encoded(protocol, state);
        match runs.last_mut() {
            Some((last, c)) if backend == "agents" && *last == state => *c += count,
            _ => runs.push((state, *count)),
        }
    }
    SnapshotDoc {
        protocol: P::TAG.to_string(),
        backend: backend.to_string(),
        param: protocol.snapshot_param(),
        live: entries.iter().map(|(_, c)| c).sum(),
        interactions,
        seq,
        rng,
        runs,
    }
}

/// A frozen copy writes the bytes the string-building encoder wrote for
/// the same execution, and a document writes them through the same
/// encoder.
fn check_streamed<P: SnapshotProtocol>(
    frozen: &impl WriteSnapshot,
    reference: impl Fn(u64) -> SnapshotDoc,
    at: &str,
) {
    for seq in [0, 1, 257, (1 << 53) + 1] {
        let want = string_built_jsonl(&reference(seq));
        let mut streamed = Vec::new();
        frozen.write_jsonl(seq, &mut streamed).unwrap();
        assert_eq!(streamed, want.as_bytes(), "{} {at} at seq {seq}", P::TAG);
        assert_eq!(reference(seq).to_jsonl(), want, "{} {at} document at seq {seq}", P::TAG);
    }
}

fn streamed_matches<P>(protocol: impl Fn() -> P, initial: Vec<P::State>, steps: u64, at: &str)
where
    P: SnapshotProtocol,
    P::State: Eq + std::hash::Hash,
{
    let mut agents = Simulation::new(protocol(), initial.clone(), 17);
    agents.run(steps);
    let entries: Vec<_> = agents.states().iter().map(|s| (s.clone(), 1)).collect();
    let (interactions, rng) = (agents.interactions(), agents.rng_state());
    check_streamed::<P>(
        &freeze_agents(&agents),
        |seq| reference_doc(agents.protocol(), "agents", interactions, rng, &entries, seq),
        &format!("agents {at}"),
    );
    let mut counts = BatchSimulation::new(protocol(), initial, 17);
    counts.run(steps);
    let entries = counts.counts().entries();
    let (interactions, rng) = (counts.interactions(), counts.rng_state());
    check_streamed::<P>(
        &freeze_counts(&counts),
        |seq| reference_doc(counts.protocol(), "counts", interactions, rng, entries, seq),
        &format!("counts {at}"),
    );
}

#[test]
fn streamed_snapshots_match_the_string_built_bytes() {
    let n = 40;
    let ciw = CaiIzumiWada::new(n);
    let random = adversary::random_ciw_configuration(&ciw, &mut rng_from_seed(16));
    streamed_matches(|| CaiIzumiWada::new(n), random.clone(), 20_000, "after 20000 steps");
    // A uniform start keeps long runs of equal agents for the merge.
    streamed_matches(|| CaiIzumiWada::new(n), vec![random[0]; n], 30, "from a uniform start");
    let oss = OptimalSilentSsr::new(n);
    let random = adversary::random_oss_configuration(&oss, &mut rng_from_seed(16));
    streamed_matches(|| OptimalSilentSsr::new(n), random.clone(), 20_000, "after 20000 steps");
    streamed_matches(|| OptimalSilentSsr::new(n), vec![random[0]; n], 30, "from a uniform start");
}

/// Commands the pinned populations go through before their stamped
/// snapshot: leaves that empty count entries (tombstones), a step that
/// compacts them away, joins and corruptions, and leaves that leave fresh
/// tombstones behind.
const PINNED_OPS: [Op; 8] = [
    Op::Step(60_000),
    Op::Leave(25),
    Op::Step(2_000),
    Op::Join(10),
    Op::Step(2_000),
    Op::Leave(4),
    Op::Corrupt(3),
    Op::Leave(2),
];

/// Compares `bytes` with `tests/golden/snapshot/<file>`; on a mismatch
/// writes them under the cargo target directory and names the file. Once a
/// format change is intended, copy it over the golden file.
fn matches_golden(file: &str, bytes: &[u8], mismatches: &mut Vec<String>) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot").join(file);
    if fs::read(&golden).unwrap_or_default() != bytes {
        let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("snapshot_golden");
        fs::create_dir_all(&actual_dir).unwrap();
        fs::write(actual_dir.join(file), bytes).unwrap();
        mismatches.push(format!("{file} (actual: {})", actual_dir.join(file).display()));
    }
}

/// The bytes of every snapshot the daemon writes are pinned: ciw and oss
/// on both backends, unstamped (`seq` 0) right after creation, and
/// stamped with the journal seq after joins, leaves and corruptions —
/// on the count backend with tombstones left after a compaction.
#[test]
fn snapshot_bytes_match_the_pinned_files() {
    let mut mismatches = Vec::new();
    for protocol in ["ciw", "oss"] {
        for backend in ["agents", "counts"] {
            let dir = std::env::temp_dir()
                .join(format!("ssle-snapshot-pin-{protocol}-{backend}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let reg = Registry::with_durability(
                Some(dir.clone()),
                Durability { fsync: FsyncPolicy::Never, autosnap_every: u64::MAX },
            );
            reg.create("p", protocol, backend, 40, 17, None).unwrap();
            let created = reg.with_cell("p", |cell| cell.pop.snapshot_jsonl()).unwrap();
            matches_golden(
                &format!("{protocol}_{backend}_created.jsonl"),
                created.as_bytes(),
                &mut mismatches,
            );
            for op in PINNED_OPS {
                reg.apply("p", op, None).unwrap();
            }
            let unstamped = reg.with_cell("p", |cell| cell.pop.snapshot_jsonl()).unwrap();
            let path = reg.snapshot("p").unwrap();
            assert_eq!(path, dir.join(format!("p{SNAPSHOT_SUFFIX}")));
            let stamped = fs::read_to_string(&path).unwrap();
            matches_golden(
                &format!("{protocol}_{backend}_stamped.jsonl"),
                stamped.as_bytes(),
                &mut mismatches,
            );
            // Stamping adds the header's last field and changes nothing else.
            let seq = format!(",\"seq\":{}", PINNED_OPS.len());
            assert_eq!(stamped.replacen(&seq, "", 1), unstamped, "{protocol}/{backend}");
            if backend == "counts" {
                let metrics =
                    reg.with_cell("p", |cell| cell.pop.metrics_record_json("pin")).unwrap();
                assert!(!metrics.contains("\"compactions\":0"), "{protocol}: no compaction");
                assert!(stamped.contains("\"c\":0}"), "{protocol}: no tombstone");
            }
            drop(reg);
            let _ = fs::remove_dir_all(&dir);
        }
    }
    assert!(mismatches.is_empty(), "snapshot bytes differ from:\n  {}", mismatches.join("\n  "));
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
