//! Crash-recovery grid — the `ssle serve` durability layer under
//! simulated kill -9.
//!
//! Each cell runs a journaled population through a deterministic command
//! stream (steps with periodic membership events), then "crashes" it at a
//! kill point: the registry is dropped without a shutdown snapshot and
//! the journal file is truncated to its last *synced* byte — exactly what
//! a power cut leaves behind under the cell's fsync policy. A fresh
//! registry then boots from the surviving snapshot + journal tail, and
//! the cell reports:
//!
//! * `recovery_ms` — wall-clock boot-time recovery (restore + replay +
//!   re-normalize);
//! * `lost_events` — acknowledged commands the crash discarded, asserted
//!   `≤` the fsync policy's loss window (`0` for `always`, `n-1` for
//!   `every:n`, unbounded for `never`);
//! * `replay_identical` — whether the recovered population is
//!   bit-identical (snapshot serialization) to a never-crashed replay of
//!   the surviving prefix.
//!
//! Grid: kill point `∈ {0.25, 0.5, 0.9}` × fsync `∈ {always, every:16,
//! never}` × backend `∈ {agents, counts}`. `--quick` shrinks to kill
//! point `0.5` and fsync `{always, every:16}` for CI smoke runs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ssle-bench --bin crash_recovery -- \
//!     [--seed 7] [--n 256] [--ops 40] [--quick 1] [--json-out results/crash.jsonl]
//! ```

use std::fs::OpenOptions;
use std::path::Path;
use std::time::Instant;

use population::record::{to_jsonl_mixed, CrashRecord, RecordLine};
use ssle_bench::cli::Flags;
use ssle_serve::journal::{FsyncPolicy, Op};
use ssle_serve::registry::{Durability, Registry};

const EXPERIMENT: &str = "crash_recovery";

/// One grid cell's shape.
struct Cell {
    backend: &'static str,
    fsync: FsyncPolicy,
    kill_point: f64,
}

/// The deterministic command stream every cell replays: mostly steps,
/// with a membership event every fifth command so the journal carries
/// every op kind the wire protocol can produce.
fn command_stream(ops: usize) -> Vec<Op> {
    (0..ops)
        .map(|i| match i % 10 {
            4 => Op::Join(2),
            7 => Op::Leave(1),
            9 => Op::Corrupt(2),
            _ => Op::Step(200),
        })
        .collect()
}

/// Serialized state after `ops` on a never-crashed, never-persisted
/// registry — the bit-identity reference.
fn reference_state(backend: &str, n: u64, seed: u64, ops: &[Op]) -> String {
    let reg = Registry::new(None);
    reg.create("c", "ciw", backend, n, seed, None).expect("reference create");
    for op in ops {
        reg.apply("c", op.clone(), None).expect("reference apply");
    }
    reg.with_cell("c", |cell| cell.pop.snapshot_jsonl()).expect("reference state")
}

fn run_cell(cell: &Cell, n: u64, ops: usize, seed: u64, scratch: &Path) -> CrashRecord {
    let started = Instant::now();
    let dir = scratch.join(format!(
        "{}-{}-{}",
        cell.backend,
        cell.fsync.spec(),
        (cell.kill_point * 100.0) as u64
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let stream = command_stream(ops);
    let applied = ((cell.kill_point * ops as f64).round() as usize).clamp(1, ops);

    let reg = Registry::with_durability(
        Some(dir.clone()),
        Durability { fsync: cell.fsync, autosnap_every: 10 },
    );
    reg.create("c", "ciw", cell.backend, n, seed, None).expect("create");
    for op in &stream[..applied] {
        reg.apply("c", op.clone(), None).expect("apply");
        // An autosnapshot finishes on a thread of its own, and its
        // rotation fsyncs the entries appended meanwhile. Settling it
        // before the next command keeps the journal the crash truncates,
        // and so the loss reported, independent of thread timing.
        reg.settle();
    }
    // The crash: no shutdown snapshot, and everything past the last
    // fsync'd byte of the journal never reached the platter.
    let synced = reg
        .with_cell("c", |cell| cell.wal.as_ref().map(|w| w.synced_len()).unwrap_or(0))
        .expect("synced length");
    drop(reg);
    let journal = dir.join("c.journal.jsonl");
    OpenOptions::new()
        .write(true)
        .open(&journal)
        .and_then(|f| f.set_len(synced))
        .expect("truncate journal to synced bytes");

    let recover_started = Instant::now();
    let recovered_reg = Registry::new(Some(dir.clone()));
    let outcomes = recovered_reg.restore_all();
    let recovery_ms = recover_started.elapsed().as_secs_f64() * 1e3;
    assert!(
        outcomes.iter().all(|(_, r)| r.is_ok()),
        "recovery failed under {}: {outcomes:?}",
        cell.fsync.spec()
    );

    let recovered = recovered_reg.with_cell("c", |cell| cell.seq).expect("recovered seq") as usize;
    let lost = applied - recovered;
    if let Some(window) = cell.fsync.loss_window() {
        assert!(
            lost as u64 <= window,
            "fsync {} lost {lost} events, window is {window}",
            cell.fsync.spec()
        );
    }
    let state = recovered_reg.with_cell("c", |cell| cell.pop.snapshot_jsonl()).expect("state");
    let replay_identical = state == reference_state(cell.backend, n, seed, &stream[..recovered]);
    let _ = std::fs::remove_dir_all(&dir);

    CrashRecord {
        experiment: EXPERIMENT.to_string(),
        protocol: "ciw".to_string(),
        backend: cell.backend.to_string(),
        n,
        fsync: cell.fsync.spec(),
        kill_point: cell.kill_point,
        events_applied: applied as u64,
        events_recovered: recovered as u64,
        lost_events: lost as u64,
        recovery_ms,
        replay_identical,
        seed,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    let flags = Flags::parse(&["seed", "n", "ops", "quick", "json-out"]);
    let seed: u64 = flags.get("seed", 7);
    let n: u64 = flags.get("n", 256);
    let ops: usize = flags.get("ops", 40);
    let quick = flags.try_get_str("quick").is_some();

    let kill_points: &[f64] = if quick { &[0.5] } else { &[0.25, 0.5, 0.9] };
    let policies: &[FsyncPolicy] = if quick {
        &[FsyncPolicy::Always, FsyncPolicy::EveryN(16)]
    } else {
        &[FsyncPolicy::Always, FsyncPolicy::EveryN(16), FsyncPolicy::Never]
    };
    let scratch = std::env::temp_dir().join(format!("ssle-crash-recovery-{}", std::process::id()));

    println!("Crash recovery — journal truncation at the synced byte, seed {seed}");
    println!("n = {n}, {ops} command(s)/cell, auto-snapshot every 10\n");
    println!(
        "{:<8} {:>9} {:>6} {:>8} {:>10} {:>6} {:>12} {:>9}",
        "backend", "fsync", "kill", "applied", "recovered", "lost", "recovery ms", "identical"
    );

    let mut records: Vec<CrashRecord> = Vec::new();
    for backend in ["agents", "counts"] {
        for fsync in policies {
            for &kill_point in kill_points {
                let cell = Cell { backend, fsync: *fsync, kill_point };
                let r = run_cell(&cell, n, ops, seed, &scratch);
                println!(
                    "{:<8} {:>9} {:>6.2} {:>8} {:>10} {:>6} {:>12.2} {:>9}",
                    r.backend,
                    r.fsync,
                    r.kill_point,
                    r.events_applied,
                    r.events_recovered,
                    r.lost_events,
                    r.recovery_ms,
                    r.replay_identical
                );
                assert!(r.replay_identical, "recovered state diverged from the reference replay");
                records.push(r);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    println!("\nreading the grid:");
    println!("  lost events are bounded by the fsync policy: 0 under always, at most");
    println!("  15 under every:16, and up to a whole auto-snapshot interval under");
    println!("  never (the rotation sync at each snapshot still bounds it there).");
    println!("  identical=true means the recovered population matches a never-crashed");
    println!("  replay of the surviving prefix bit-for-bit.");

    if let Some(path) = flags.try_get_str("json-out") {
        let lines: Vec<RecordLine> = records.iter().cloned().map(RecordLine::Crash).collect();
        std::fs::write(path, to_jsonl_mixed(&lines))
            .unwrap_or_else(|e| panic!("cannot write --json-out {path:?}: {e}"));
        println!("\nwrote {} crash rows to {path} (render: ssle report {path})", records.len());
    }
}
