//! The named-population registry the daemon multiplexes over — now the
//! durability and self-healing layer as well.
//!
//! Locking is two-level so a long `step` on one population never blocks
//! requests against another: the registry lock is held only long enough to
//! clone a population's `Arc`, then per-population mutexes serialize the
//! actual work. Every lock acquisition is poison-recovering: a handler
//! panic mid-mutation quarantines the population — when a state directory
//! is configured it is restarted from snapshot + journal (losing nothing
//! acknowledged as durable), otherwise the possibly half-mutated state is
//! kept as-is and the self-stabilizing protocol absorbs it like any other
//! adversarial configuration.
//!
//! When a state directory is configured, every mutating command is
//! appended to the population's write-ahead journal *before* it is
//! applied, snapshots record the journal sequence they cover, and the
//! journal is truncated (rotated) against each snapshot. Boot-time
//! recovery replays the journal tail on top of the last snapshot and then
//! re-snapshots, so any crash state normalizes to a clean
//! snapshot-plus-empty-journal pair.
//!
//! **Snapshots hold the population lock only to freeze.** Under the lock a
//! snapshot syncs the journal, builds the snapshot document at the
//! population's seq `S`, and notes the journal offset just past entry `S`.
//! Off the lock it streams the document to a temp file, fsyncs it and
//! renames it into place; back under the lock it rotates the journal to a
//! header at `base_seq = S` followed by the entries appended meanwhile.
//! The snapshot is durable before the rotation starts, so a crash anywhere
//! recovers from the snapshot plus a journal that covers everything after
//! it. The autosnapshot runs the off-lock part on a thread of its own, so
//! the write that triggers it replies at once; the explicit `snapshot`
//! command, shutdown's [`Registry::snapshot_all`] and boot recovery run the
//! same steps in the caller. A per-population gate keeps at most one
//! snapshot in flight; `delete`, healing, `snapshot_all` and dropping the
//! registry wait for it, so no snapshot thread outlives any of them.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use population::dynamics::ChurnPlan;
use population::snapshot::SnapshotDoc;

use crate::journal::{
    sync_parent, valid_request_id, DedupWindow, FsyncPolicy, Header, JournalDoc, Op, Wal,
    JOURNAL_SUFFIX,
};
use crate::obs::{self, ServerStats, Span};
use crate::pop::{self, EventKind, Managed, Status, StepReport};

/// Suffix of every snapshot file the registry reads and writes.
pub const SNAPSHOT_SUFFIX: &str = ".snapshot.jsonl";

/// How the durable path behaves; only meaningful with a state directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Durability {
    /// When journal appends are forced to disk.
    pub fsync: FsyncPolicy,
    /// Auto-snapshot (and truncate the journal) after this many journaled
    /// commands since the last snapshot.
    pub autosnap_every: u64,
}

impl Default for Durability {
    fn default() -> Self {
        Durability { fsync: FsyncPolicy::Always, autosnap_every: 256 }
    }
}

/// One population plus its durability state, individually lockable.
pub struct PopCell {
    /// The live population.
    pub pop: Box<dyn Managed>,
    /// The append handle for the population's journal (durable mode only).
    pub wal: Option<Wal>,
    /// Recently acknowledged request ids, for exactly-once retries.
    pub dedup: DedupWindow,
    /// The creation seed — carried in the journal header across restarts
    /// (the population snapshot does not store it) because injected-event
    /// randomness is derived from `(seed, seq)` on every apply and replay.
    pub seed: u64,
    /// Sequence number of the last applied mutating command.
    pub seq: u64,
    /// Sequence number covered by the last written snapshot.
    pub snapshot_seq: u64,
    /// The active churn-plan binding `(spec, seed)` — driver state the
    /// population snapshot cannot capture, carried in the journal header
    /// across rotations instead.
    pub churn: Option<(String, u64)>,
    /// Serializes the population's snapshots; kept across a heal.
    snapshots: Arc<SnapshotGate>,
}

impl PopCell {
    /// The journal header for a journal starting at the cell's seq.
    fn journal_header(&self, name: &str) -> Header {
        let status = self.pop.status();
        Header {
            name: name.to_string(),
            protocol: status.protocol.to_string(),
            backend: status.backend.to_string(),
            n: status.n0 as u64,
            // The cell's creation seed, not `status.seed`: a restored
            // population reports seed 0, and losing the real seed would
            // desynchronize injected-event replay.
            seed: self.seed,
            base_seq: self.seq,
            ids: self.dedup.ids(),
            churn: self.churn.clone(),
        }
    }

    /// The part of a snapshot that runs under the population lock: syncs
    /// the journal (the snapshot must never be ahead of it), builds the
    /// document at the cell's seq and notes where the journal's next entry
    /// will start.
    fn freeze(&mut self, dir: &Path, name: &str) -> Result<Frozen, String> {
        let wal = self.wal.as_mut().ok_or_else(|| format!("population {name:?} has no journal"))?;
        wal.sync()?;
        let (journal_base, offset) = (wal.base_seq(), wal.len());
        let mut doc = self.pop.snapshot_doc();
        doc.seq = self.seq;
        Ok(Frozen {
            doc,
            path: snapshot_path(dir, name),
            header: self.journal_header(name),
            journal_base,
            offset,
        })
    }

    /// The last part of a snapshot, back under the population lock once
    /// its file is durable: rotates the journal past it, keeping the
    /// entries appended meanwhile. A journal rotated or rebuilt since the
    /// freeze is left alone.
    fn rotate(&mut self, frozen: &Frozen) -> Result<(), String> {
        match self.wal.as_mut() {
            Some(wal) if wal.base_seq() == frozen.journal_base => {
                wal.rotate_keeping(&frozen.header, frozen.offset)?;
                self.snapshot_seq = frozen.doc.seq;
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// A snapshot frozen under the population lock: what writing it and
/// rotating the journal against it need.
struct Frozen {
    doc: SnapshotDoc,
    /// Where the snapshot goes.
    path: PathBuf,
    /// The rotated journal's header: `base_seq` is the document's seq,
    /// and the dedup ids and churn binding are those at that seq.
    header: Header,
    /// The journal's `base_seq` at the freeze.
    journal_base: u64,
    /// Journal byte offset just past entry `doc.seq`.
    offset: u64,
}

impl Frozen {
    /// Streams the document to a temp file, fsyncs it, renames it over the
    /// population's snapshot (a crash mid-write never leaves a truncated
    /// snapshot under the restorable name) and fsyncs the directory, so
    /// the snapshot is durable before the journal rotates against it.
    fn write(&self) -> Result<(), String> {
        let dir = self.path.parent().expect("snapshot paths are inside the state directory");
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let write = || -> std::io::Result<()> {
            let mut out = BufWriter::new(File::create(&tmp)?);
            self.doc.write_jsonl(&mut out)?;
            out.into_inner().map_err(|e| e.into_error())?.sync_all()
        };
        write().map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &self.path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), self.path.display()))?;
        sync_parent(&self.path)
    }
}

/// Writes a frozen snapshot, then takes the population lock only to rotate
/// the journal against it. A cell poisoned meanwhile is left to its heal,
/// which rebuilds it from these files.
fn finish_snapshot(slot: &Slot, frozen: &Frozen) -> Result<(), String> {
    frozen.write()?;
    match slot.lock() {
        Ok(mut cell) => cell.rotate(frozen),
        Err(_) => Ok(()),
    }
}

/// Serializes one population's snapshots: at most one is in flight. The
/// autosnapshot skips a busy gate; everything else waits for it.
#[derive(Default)]
struct SnapshotGate {
    state: Mutex<GateState>,
    idle: Condvar,
}

#[derive(Default)]
struct GateState {
    /// A snapshot is in flight: claimed, and not yet released or joined.
    busy: bool,
    /// The population was deleted: no snapshot may start.
    closed: bool,
    /// The thread an autosnapshot runs on, until it is joined.
    thread: Option<JoinHandle<()>>,
}

/// The right to run one snapshot of a population; released on drop.
struct Claim {
    gate: Arc<SnapshotGate>,
    held: bool,
}

impl SnapshotGate {
    fn state(&self) -> MutexGuard<'_, GateState> {
        // Every update below leaves the state valid, so a poisoned lock
        // is adopted as-is.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until no snapshot is in flight, joining the thread of a
    /// finished one, and returns the idle state still locked.
    fn idle(&self) -> MutexGuard<'_, GateState> {
        let mut state = self.state();
        loop {
            if let Some(thread) = state.thread.take() {
                drop(state);
                // A panicked snapshot left the files as a crash would,
                // which recovery handles.
                let _ = thread.join();
                state = self.state();
                state.busy = false;
                self.idle.notify_all();
            } else if state.busy {
                state = self.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
            } else {
                return state;
            }
        }
    }

    /// Claims the gate, waiting out an in-flight snapshot; `None` once the
    /// population is deleted.
    fn claim(self: &Arc<Self>) -> Option<Claim> {
        let mut state = self.idle();
        if state.closed {
            return None;
        }
        state.busy = true;
        Some(Claim { gate: Arc::clone(self), held: true })
    }

    /// Claims the gate only when no snapshot is in flight: the
    /// autosnapshot claims under the population lock, so it must not wait.
    fn try_claim(self: &Arc<Self>) -> Option<Claim> {
        let mut state = self.state();
        if state.thread.as_ref().is_some_and(JoinHandle::is_finished) {
            let _ = state.thread.take().map(JoinHandle::join);
            state.busy = false;
        }
        if state.busy || state.closed {
            return None;
        }
        state.busy = true;
        Some(Claim { gate: Arc::clone(self), held: true })
    }

    /// Waits out the in-flight snapshot; `close` also refuses every later
    /// claim.
    fn settle(&self, close: bool) {
        self.idle().closed |= close;
    }
}

impl Claim {
    /// Runs `job` on a thread of its own; the gate stays busy until that
    /// thread is joined. If no thread can be spawned the claim is released
    /// and the job dropped.
    fn spawn(mut self, job: impl FnOnce() + Send + 'static) {
        if let Ok(thread) = thread::Builder::new().name("autosnapshot".to_string()).spawn(job) {
            self.gate.state().thread = Some(thread);
            self.held = false;
            // Waiters parked on `busy` now come to join the thread.
            self.gate.idle.notify_all();
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.held {
            self.gate.state().busy = false;
            self.gate.idle.notify_all();
        }
    }
}

/// The gate of a slot's population, whether or not the slot is poisoned.
fn gate_of(slot: &Slot) -> Arc<SnapshotGate> {
    Arc::clone(&slot.lock().unwrap_or_else(PoisonError::into_inner).snapshots)
}

/// One population slot.
pub type Slot = Arc<Mutex<PopCell>>;

/// What a mutating command did (beyond the common status payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Applied {
    /// A `step`: the driver's report.
    Step(StepReport),
    /// A membership event: agents touched after clamps.
    Event(usize),
    /// A `churn-plan` rebind.
    Churn,
}

/// The result of [`Registry::apply`] / [`Registry::create`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// What the command did; `None` when it was a deduplicated retry.
    pub applied: Option<Applied>,
    /// Status after the command (or as-is for a deduplicated retry).
    pub status: Status,
    /// Whether the request id was already acknowledged (retry absorbed).
    pub replayed: bool,
    /// Journal sequence number of the command (last applied seq for a
    /// deduplicated retry; 0 without durability).
    pub seq: u64,
}

/// One row of the `health` report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRow {
    /// Population name.
    pub name: String,
    /// Full status at report time.
    pub status: Status,
    /// Last applied journal sequence number.
    pub seq: u64,
    /// Sequence covered by the last snapshot.
    pub snapshot_seq: u64,
    /// Active fsync policy; `None` when the daemon runs stateless.
    pub fsync: Option<FsyncPolicy>,
}

/// The daemon's shared state: named populations plus the durability layer.
pub struct Registry {
    pops: Mutex<HashMap<String, Slot>>,
    state_dir: Option<PathBuf>,
    durability: Durability,
    quarantines: AtomicU64,
    /// The daemon's shared request-trace aggregation, when one is
    /// attached ([`Registry::set_obs`]). Carried here so the `stats` /
    /// `dump-trace` wire commands can reach it from request dispatch and
    /// so a quarantine can dump the flight recorder.
    obs: Mutex<Option<Arc<ServerStats>>>,
}

fn valid_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("population names must be 1–64 characters".to_string());
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
        return Err(format!("population name {name:?} may only contain letters, digits, '-', '_'"));
    }
    Ok(())
}

fn checked_id(id: Option<&str>) -> Result<Option<&str>, String> {
    match id {
        None => Ok(None),
        Some(id) if valid_request_id(id) => Ok(Some(id)),
        Some(id) => Err(format!("request id {id:?} must be 1–128 chars of [A-Za-z0-9._-]")),
    }
}

impl Registry {
    /// An empty registry with default [`Durability`]. `state_dir` enables
    /// the snapshot + journal lifecycle; without it the daemon runs
    /// stateless and `snapshot` requests are refused.
    pub fn new(state_dir: Option<PathBuf>) -> Self {
        Registry::with_durability(state_dir, Durability::default())
    }

    /// An empty registry with an explicit fsync/auto-snapshot policy.
    pub fn with_durability(state_dir: Option<PathBuf>, durability: Durability) -> Self {
        Registry {
            pops: Mutex::new(HashMap::new()),
            state_dir,
            durability,
            quarantines: AtomicU64::new(0),
            obs: Mutex::new(None),
        }
    }

    /// Attaches the daemon's shared request-trace aggregation; the
    /// `stats` and `dump-trace` wire commands serve from it, and
    /// quarantines dump the flight recorder to it.
    pub fn set_obs(&self, stats: Arc<ServerStats>) {
        *self.obs.lock().unwrap_or_else(PoisonError::into_inner) = Some(stats);
    }

    /// The attached request-trace aggregation, if any.
    pub fn obs(&self) -> Option<Arc<ServerStats>> {
        self.obs.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// How often a poisoned population has been quarantined and healed.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::SeqCst)
    }

    /// The active durability policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Whether a state directory is configured.
    pub fn durable(&self) -> bool {
        self.state_dir.is_some()
    }

    fn map(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        // The map is only ever inserted into / removed from under the
        // lock; a panic can not leave it mid-mutation, so poisoning is
        // recoverable by construction.
        self.pops.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates, registers, and (in durable mode) journals a population.
    /// A duplicate name with a request id already in the existing
    /// population's dedup window is an absorbed retry, not an error.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid names/ids, duplicate names, or
    /// [`pop::create`] failures.
    pub fn create(
        &self,
        name: &str,
        protocol: &str,
        backend: &str,
        n: u64,
        seed: u64,
        id: Option<&str>,
    ) -> Result<ApplyOutcome, String> {
        valid_name(name)?;
        let id = checked_id(id)?;
        let managed = pop::create(protocol, backend, n, seed)?;
        let mut pops = self.map();
        if let Some(existing) = pops.get(name) {
            if let Some(id) = id {
                let cell = lock_slot(existing);
                if cell.dedup.contains(id) {
                    return Ok(ApplyOutcome {
                        applied: None,
                        status: cell.pop.status(),
                        replayed: true,
                        seq: cell.seq,
                    });
                }
            }
            return Err(format!("population {name:?} already exists"));
        }
        let mut dedup = DedupWindow::new();
        if let Some(id) = id {
            dedup.insert(id);
        }
        let wal = match &self.state_dir {
            Some(dir) => {
                let header = Header {
                    name: name.to_string(),
                    protocol: protocol.to_string(),
                    backend: backend.to_string(),
                    n,
                    seed,
                    base_seq: 0,
                    ids: dedup.ids(),
                    churn: None,
                };
                Some(Wal::create(&journal_path(dir, name), &header, self.durability.fsync)?)
            }
            None => None,
        };
        let status = managed.status();
        let cell = PopCell {
            pop: managed,
            wal,
            dedup,
            seed,
            seq: 0,
            snapshot_seq: 0,
            churn: None,
            snapshots: Arc::default(),
        };
        pops.insert(name.to_string(), Arc::new(Mutex::new(cell)));
        Ok(ApplyOutcome { applied: None, status, replayed: false, seq: 0 })
    }

    /// Looks up a population by name. The wait for the registry map lock
    /// is attributed to the active trace's `registry_lock` span.
    pub fn get(&self, name: &str) -> Option<Slot> {
        obs::time_span(Span::RegistryLock, || self.map()).get(name).cloned()
    }

    /// Runs `f` against the named population's locked cell, quarantining
    /// and healing a poisoned lock first (`lock_healing` semantics).
    ///
    /// # Errors
    ///
    /// Returns a message when the population does not exist.
    pub fn with_cell<R>(&self, name: &str, f: impl FnOnce(&mut PopCell) -> R) -> Result<R, String> {
        let slot = self.get(name).ok_or_else(|| format!("no population {name:?}"))?;
        let mut cell = self.lock_healing(name, &slot);
        Ok(obs::time_span(Span::Engine, || f(&mut cell)))
    }

    /// Locks a slot, quarantining and healing it when poisoned: with a
    /// state directory the cell is rebuilt from snapshot + journal
    /// (nothing durable is lost); without one the possibly half-mutated
    /// in-memory state is kept — the protocol is self-stabilizing, so a
    /// torn mutation is just another adversarial configuration it
    /// recovers from.
    fn lock_healing<'a>(&self, name: &str, slot: &'a Slot) -> MutexGuard<'a, PopCell> {
        let poisoned = match obs::time_span(Span::PopLock, || slot.lock()) {
            Ok(cell) => return cell,
            Err(poisoned) => poisoned,
        };
        // Heal from settled files: wait out an in-flight snapshot first,
        // off the lock its rotation needs (it skips a poisoned cell).
        let gate = Arc::clone(&poisoned.get_ref().snapshots);
        drop(poisoned);
        gate.settle(false);
        let mut cell = match slot.lock() {
            // Another request healed it meanwhile.
            Ok(cell) => return cell,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.quarantines.fetch_add(1, Ordering::SeqCst);
        // Post-mortem first: the traces leading up to the poison are
        // exactly what a quarantine investigation needs.
        if let Some(stats) = self.obs() {
            let _ = stats.dump("quarantine");
        }
        if let Some(dir) = &self.state_dir {
            if let Ok(healed) = self.recover_cell(name, dir) {
                *cell = PopCell { snapshots: gate, ..healed };
            }
            // An unrecoverable disk state falls back to the in-memory
            // cell, same as the stateless path.
        }
        slot.clear_poison();
        cell
    }

    /// Journals (durable mode) and applies one mutating command, with
    /// request-id deduplication and auto-snapshotting.
    ///
    /// # Errors
    ///
    /// Returns a message for missing populations, invalid ids/specs, or
    /// journal I/O failures (the command is then *not* applied).
    pub fn apply(&self, name: &str, op: Op, id: Option<&str>) -> Result<ApplyOutcome, String> {
        let id = checked_id(id)?;
        let slot = self.get(name).ok_or_else(|| format!("no population {name:?}"))?;
        let mut cell = self.lock_healing(name, &slot);
        if let Some(id) = id {
            if cell.dedup.contains(id) {
                return Ok(ApplyOutcome {
                    applied: None,
                    status: cell.pop.status(),
                    replayed: true,
                    seq: cell.seq,
                });
            }
        }
        // Validate before journaling so the journal never holds a command
        // replay would refuse.
        match &op {
            Op::Churn(spec, seed) => _ = ChurnPlan::parse(spec, *seed)?,
            Op::Join(k) => {
                let live = cell.pop.status().live as u64;
                if live.checked_add(*k).is_none_or(|total| total > pop::MAX_N) {
                    return Err(format!(
                        "join of {k} to {live} live agents exceeds the service cap of {}",
                        pop::MAX_N
                    ));
                }
            }
            _ => {}
        }
        // Write-ahead: the command is durable (per policy) before its
        // effects exist, so a crash between the two replays it.
        // The append is traced as `journal` (the fsync it may trigger is
        // measured separately inside `Wal::sync` and subtracted out).
        let seq = match cell.wal.as_mut() {
            Some(wal) => obs::time_span(Span::Journal, || wal.append(op.clone(), id))?,
            None => cell.seq + 1,
        };
        cell.seq = seq;
        let eseed = event_seed(cell.seed, seq);
        let applied = obs::time_span(Span::Engine, || apply_op(&mut cell.pop, &op, eseed))?;
        if let Op::Churn(spec, cseed) = &op {
            cell.churn = Some((spec.clone(), *cseed));
        }
        if let Some(id) = id {
            cell.dedup.insert(id);
        }
        let status = cell.pop.status();
        if seq - cell.snapshot_seq >= self.durability.autosnap_every {
            self.autosnapshot(name, &slot, &mut cell);
        }
        Ok(ApplyOutcome { applied: Some(applied), status, replayed: false, seq })
    }

    /// Starts an autosnapshot unless one is in flight: freezes it under
    /// the lock the caller holds and finishes it on a thread, so the
    /// command that triggered it replies at once. Failures are dropped —
    /// they must not fail that command, the journal still covers
    /// everything, and the next write tries again.
    fn autosnapshot(&self, name: &str, slot: &Slot, cell: &mut PopCell) {
        let Some(dir) = &self.state_dir else { return };
        let Some(claim) = cell.snapshots.try_claim() else { return };
        let Ok(frozen) = cell.freeze(dir, name) else { return };
        let slot = Arc::clone(slot);
        claim.spawn(move || {
            let _ = finish_snapshot(&slot, &frozen);
        });
    }

    /// All population names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.map().keys().cloned().collect();
        names.sort();
        names
    }

    /// Unregisters a population and removes its on-disk state; returns
    /// whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        let Some(slot) = self.map().remove(name) else { return false };
        // Wait out an in-flight snapshot and refuse later ones, so nothing
        // rewrites the files removed below.
        gate_of(&slot).settle(true);
        if let Some(dir) = &self.state_dir {
            let _ = fs::remove_file(snapshot_path(dir, name));
            let _ = fs::remove_file(journal_path(dir, name));
        }
        true
    }

    /// Serializes one population to `<dir>/<name>.snapshot.jsonl` and
    /// rotates its journal against the new snapshot, after any snapshot
    /// already in flight.
    ///
    /// # Errors
    ///
    /// Returns a message when no state directory is configured, the
    /// population does not exist, or the write fails.
    pub fn snapshot(&self, name: &str) -> Result<PathBuf, String> {
        let slot = self.get(name).ok_or_else(|| format!("no population {name:?}"))?;
        self.snapshot_slot(name, &slot)
    }

    fn snapshot_slot(&self, name: &str, slot: &Slot) -> Result<PathBuf, String> {
        let dir = self
            .state_dir
            .as_ref()
            .ok_or_else(|| "no state directory configured (--snapshot-dir)".to_string())?;
        let gate = Arc::clone(&self.lock_healing(name, slot).snapshots);
        let _claim = gate.claim().ok_or_else(|| format!("no population {name:?}"))?;
        // Not `lock_healing`: a heal waits for the claim held here.
        let frozen = slot
            .lock()
            .map_err(|_| format!("population {name:?} was quarantined mid-snapshot"))?
            .freeze(dir, name)?;
        finish_snapshot(slot, &frozen)?;
        Ok(frozen.path)
    }

    /// Serializes every population; returns `(name, outcome)` pairs.
    /// Without a state directory this is a no-op returning the empty
    /// list (a daemon without persistence shuts down stateless).
    pub fn snapshot_all(&self) -> Vec<(String, Result<PathBuf, String>)> {
        if self.state_dir.is_none() {
            return Vec::new();
        }
        let mut results = Vec::new();
        for name in self.list() {
            let Some(slot) = self.get(&name) else { continue };
            let outcome = self.snapshot_slot(&name, &slot);
            results.push((name, outcome));
        }
        results
    }

    /// Waits until no population has a snapshot in flight.
    pub fn settle(&self) {
        let slots: Vec<Slot> = self.map().values().cloned().collect();
        for slot in &slots {
            gate_of(slot).settle(false);
        }
    }

    /// Restores every population with on-disk state (a snapshot, a
    /// journal, or both) in the state directory; returns `(name,
    /// outcome)` pairs. Corrupt state is reported and skipped, never
    /// fatal — one bad file must not brick the daemon.
    pub fn restore_all(&self) -> Vec<(String, Result<(), String>)> {
        let Some(dir) = self.state_dir.clone() else {
            return Vec::new();
        };
        let mut names: Vec<String> = Vec::new();
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(_) => return Vec::new(), // directory not created yet
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else { continue };
            let name =
                file.strip_suffix(SNAPSHOT_SUFFIX).or_else(|| file.strip_suffix(JOURNAL_SUFFIX));
            if let Some(name) = name {
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        let mut results = Vec::new();
        for name in names {
            results.push((name.clone(), self.restore_one(&name, &dir)));
        }
        results
    }

    fn restore_one(&self, name: &str, dir: &Path) -> Result<(), String> {
        valid_name(name)?;
        if self.map().contains_key(name) {
            return Err(format!("population {name:?} already exists"));
        }
        let cell = self.recover_cell(name, dir)?;
        self.map().insert(name.to_string(), Arc::new(Mutex::new(cell)));
        Ok(())
    }

    /// Rebuilds one population from its on-disk state: restore the
    /// snapshot (or recreate from the journal header when no snapshot
    /// covers seq 0), replay the journal tail, then normalize by writing
    /// a fresh snapshot and rotating the journal — so every crash state
    /// converges to a clean snapshot-plus-empty-journal pair.
    fn recover_cell(&self, name: &str, dir: &Path) -> Result<PopCell, String> {
        let journal = match fs::read_to_string(journal_path(dir, name)) {
            Ok(text) => Some(JournalDoc::parse(&text).map_err(|e| format!("journal: {e}"))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("journal: read: {e}")),
        };
        let snapshot = match fs::read_to_string(snapshot_path(dir, name)) {
            Ok(text) => Some(SnapshotDoc::from_jsonl(&text).map_err(|e| format!("snapshot: {e}"))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("snapshot: read: {e}")),
        };
        // The creation seed travels in the journal header — the snapshot
        // does not store it. A snapshot-only recovery (journal deleted by
        // hand) has no seed to recover; future injections then draw from
        // a zero-based stream, which the protocol absorbs like any other
        // adversarial input, but replay determinism is kept only when the
        // journal survives. Extracted *before* the restore so the rebuilt
        // population reports its real seed in `status`.
        let seed = match &journal {
            Some(Ok(j)) => j.header.seed,
            _ => 0,
        };
        let (mut pop, mut seq, mut dedup) = match (&snapshot, &journal) {
            (Some(Ok(doc)), _) => (pop::restore(doc, seed)?, doc.seq, DedupWindow::new()),
            // No usable snapshot: only a journal from seq 0 carries the
            // full history.
            (_, Some(Ok(j))) if j.header.base_seq == 0 => (
                pop::create(&j.header.protocol, &j.header.backend, j.header.n, j.header.seed)?,
                0,
                DedupWindow::new(),
            ),
            (Some(Err(e)), _) => return Err(e.clone()),
            (None, Some(Ok(j))) => {
                return Err(format!(
                    "journal starts at seq {} but no snapshot covers it",
                    j.header.base_seq
                ))
            }
            (None, Some(Err(e))) => return Err(e.clone()),
            (None, None) => return Err("no on-disk state".to_string()),
        };
        let mut churn: Option<(String, u64)> = None;
        if let Some(Ok(j)) = &journal {
            if j.header.base_seq > seq {
                return Err(format!(
                    "journal starts at seq {} but the snapshot only covers seq {seq}",
                    j.header.base_seq
                ));
            }
            dedup = DedupWindow::from_ids(j.header.ids.iter().cloned());
            // Churn bindings live in the driver, which the snapshot does
            // not capture: rebind the header-carried plan before any
            // replay (the schedule restarts its random stream).
            if let Some((spec, cseed)) = &j.header.churn {
                pop.set_churn(&ChurnPlan::parse(spec, *cseed)?);
                churn = j.header.churn.clone();
            }
            for entry in &j.entries {
                let replay = entry.seq > seq;
                if let Op::Churn(spec, cseed) = &entry.op {
                    // Rebind even when the snapshot already covers this
                    // entry — the binding itself is not in the snapshot.
                    pop.set_churn(
                        &ChurnPlan::parse(spec, *cseed)
                            .map_err(|e| format!("journal replay seq {}: {e}", entry.seq))?,
                    );
                    churn = Some((spec.clone(), *cseed));
                } else if replay {
                    apply_op(&mut pop, &entry.op, event_seed(seed, entry.seq))
                        .map_err(|e| format!("journal replay seq {}: {e}", entry.seq))?;
                }
                if replay {
                    seq = entry.seq;
                }
                if let Some(id) = &entry.id {
                    dedup.insert(id);
                }
            }
        }
        let mut cell = PopCell {
            pop,
            wal: None,
            dedup,
            seed,
            seq,
            snapshot_seq: 0,
            churn,
            snapshots: Arc::default(),
        };
        // Normalize through the one snapshot path: reopen the journal when
        // it ends at the recovered seq (else start one there — the
        // snapshot on disk already covers it), then snapshot and rotate.
        // Snapshot-first, so a crash inside recovery just recovers again.
        let path = journal_path(dir, name);
        let policy = self.durability.fsync;
        cell.wal = Some(match &journal {
            Some(Ok(j)) if j.last_seq() == seq => Wal::reopen(&path, j, policy)?,
            _ => Wal::create(&path, &cell.journal_header(name), policy)?,
        });
        let frozen = cell.freeze(dir, name)?;
        frozen.write()?;
        cell.rotate(&frozen)?;
        Ok(cell)
    }

    /// One liveness/journal-lag row per population, sorted by name.
    pub fn health(&self) -> Vec<HealthRow> {
        let mut rows = Vec::new();
        for name in self.list() {
            let row = self.with_cell(&name, |cell| HealthRow {
                name: name.clone(),
                status: cell.pop.status(),
                seq: cell.seq,
                snapshot_seq: cell.snapshot_seq,
                fsync: cell.wal.as_ref().map(|w| w.policy()),
            });
            if let Ok(row) = row {
                rows.push(row);
            }
        }
        rows
    }
}

impl Drop for Registry {
    /// Waits out every in-flight autosnapshot, so no snapshot thread
    /// outlives the registry.
    fn drop(&mut self) {
        self.settle();
    }
}

/// Locks a slot without healing (registry-internal paths that already
/// hold the map lock); poisoned state is adopted as-is.
fn lock_slot(slot: &Slot) -> MutexGuard<'_, PopCell> {
    match slot.lock() {
        Ok(cell) => cell,
        Err(poisoned) => {
            slot.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Applies one journaled command to a population. Only `churn` can fail,
/// and only on a spec the write path should have validated.
///
/// Injections pin the driver's event stream to `eseed` first, so victim
/// and adversarial-state selection depend only on `(creation seed, seq)`
/// — boot-time replay of the same entry lands on the same agents even
/// though the snapshot carries no driver RNG state.
fn apply_op(pop: &mut Box<dyn Managed>, op: &Op, eseed: u64) -> Result<Applied, String> {
    if matches!(op, Op::Join(_) | Op::Leave(_) | Op::Corrupt(_)) {
        pop.reseed_events(eseed);
    }
    Ok(match op {
        Op::Step(k) => Applied::Step(pop.step(*k)),
        Op::Join(k) => Applied::Event(pop.inject(EventKind::Join, *k as usize)),
        Op::Leave(k) => Applied::Event(pop.inject(EventKind::Leave, *k as usize)),
        Op::Corrupt(k) => Applied::Event(pop.inject(EventKind::Corrupt, *k as usize)),
        Op::Churn(spec, seed) => {
            pop.set_churn(&ChurnPlan::parse(spec, *seed)?);
            Applied::Churn
        }
    })
}

/// The per-injection event-stream seed: a [`SplitMix64`]-style mix of the
/// population's creation seed and the command's journal sequence number.
///
/// [`SplitMix64`]: https://prng.di.unimi.it/splitmix64.c
fn event_seed(seed: u64, seq: u64) -> u64 {
    seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}{SNAPSHOT_SUFFIX}"))
}

fn journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}{JOURNAL_SUFFIX}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = env::temp_dir().join(format!("ssle-serve-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_list_delete_round_trip() {
        let reg = Registry::new(None);
        reg.create("a", "ciw", "agents", 8, 1, None).unwrap();
        reg.create("b", "oss", "counts", 8, 2, None).unwrap();
        assert_eq!(reg.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(reg
            .create("a", "ciw", "agents", 8, 1, None)
            .err()
            .unwrap()
            .contains("already exists"));
        assert!(reg.get("a").is_some());
        assert!(reg.delete("a"));
        assert!(!reg.delete("a"));
        assert_eq!(reg.list(), vec!["b".to_string()]);
    }

    #[test]
    fn names_are_validated() {
        let reg = Registry::new(None);
        assert!(reg.create("", "ciw", "agents", 8, 1, None).is_err());
        assert!(reg.create("a/b", "ciw", "agents", 8, 1, None).is_err());
        assert!(reg.create("../evil", "ciw", "agents", 8, 1, None).is_err());
        assert!(reg
            .create("ok", "ciw", "agents", 8, 1, Some("bad id"))
            .err()
            .unwrap()
            .contains("request id"));
    }

    #[test]
    fn snapshot_requires_a_directory() {
        let reg = Registry::new(None);
        reg.create("a", "ciw", "agents", 8, 1, None).unwrap();
        assert!(reg.snapshot("a").unwrap_err().contains("state directory"));
        assert!(reg.snapshot_all().is_empty());
    }

    #[test]
    fn snapshot_all_then_restore_all_round_trips() {
        let dir = temp_dir("roundtrip");
        let reg = Registry::new(Some(dir.clone()));
        reg.create("a", "ciw", "agents", 10, 1, None).unwrap();
        reg.create("b", "oss", "counts", 12, 2, None).unwrap();
        reg.apply("a", Op::Step(3_000), None).unwrap();
        reg.apply("b", Op::Step(3_000), None).unwrap();
        let snapshots = reg.snapshot_all();
        assert_eq!(snapshots.len(), 2);
        assert!(snapshots.iter().all(|(_, r)| r.is_ok()));

        let fresh = Registry::new(Some(dir.clone()));
        let restored = fresh.restore_all();
        assert_eq!(restored.len(), 2);
        assert!(restored.iter().all(|(_, r)| r.is_ok()), "{restored:?}");
        assert_eq!(fresh.list(), vec!["a".to_string(), "b".to_string()]);
        let status = fresh.with_cell("a", |cell| cell.pop.status()).unwrap();
        assert_eq!(status.interactions, 3_000);
        assert_eq!(status.protocol, "ciw");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_reports_and_does_not_brick_boot() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("bad{SNAPSHOT_SUFFIX}")), "not json\n").unwrap();
        let reg = Registry::new(Some(dir.clone()));
        reg.create("good", "ciw", "agents", 8, 1, None).unwrap();
        reg.snapshot("good").unwrap();
        let fresh = Registry::new(Some(dir.clone()));
        let restored = fresh.restore_all();
        assert_eq!(restored.len(), 2);
        let bad = restored.iter().find(|(n, _)| n == "bad").unwrap();
        assert!(bad.1.is_err());
        let good = restored.iter().find(|(n, _)| n == "good").unwrap();
        assert!(good.1.is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_alone_rebuilds_the_population() {
        let dir = temp_dir("journal-only");
        let reg = Registry::new(Some(dir.clone()));
        reg.create("j", "oss", "counts", 16, 5, None).unwrap();
        reg.apply("j", Op::Step(2_000), None).unwrap();
        reg.apply("j", Op::Corrupt(3), None).unwrap();
        reg.apply("j", Op::Step(1_000), None).unwrap();
        let reference = reg.with_cell("j", |c| c.pop.snapshot_jsonl()).unwrap();
        // Delete the snapshot (none was ever written — only create +
        // journal): recovery must replay the journal from scratch.
        let _ = fs::remove_file(dir.join(format!("j{SNAPSHOT_SUFFIX}")));

        let fresh = Registry::new(Some(dir.clone()));
        let restored = fresh.restore_all();
        assert!(restored.iter().all(|(_, r)| r.is_ok()), "{restored:?}");
        let recovered = fresh.with_cell("j", |c| c.pop.snapshot_jsonl()).unwrap();
        assert_eq!(reference, recovered, "journal replay diverged");
        // Recovery normalized: snapshot now covers seq 3, journal is empty.
        let health = &fresh.health()[0];
        assert_eq!(health.seq, 3);
        assert_eq!(health.snapshot_seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_ids_deduplicate_retries() {
        let dir = temp_dir("dedup");
        let reg = Registry::new(Some(dir.clone()));
        reg.create("d", "ciw", "counts", 16, 1, Some("create-1")).unwrap();
        // Retried create with the same id is absorbed, not an error.
        let retry = reg.create("d", "ciw", "counts", 16, 1, Some("create-1")).unwrap();
        assert!(retry.replayed);

        let first = reg.apply("d", Op::Step(1_000), Some("step-1")).unwrap();
        assert!(!first.replayed);
        let before = reg.with_cell("d", |c| c.pop.status().interactions).unwrap();
        let retry = reg.apply("d", Op::Step(1_000), Some("step-1")).unwrap();
        assert!(retry.replayed);
        assert!(retry.applied.is_none());
        let after = reg.with_cell("d", |c| c.pop.status().interactions).unwrap();
        assert_eq!(before, after, "deduplicated retry must not re-apply");

        // The dedup window survives restart via the journal.
        drop(reg);
        let fresh = Registry::new(Some(dir.clone()));
        fresh.restore_all();
        let replayed = fresh.apply("d", Op::Step(1_000), Some("step-1")).unwrap();
        assert!(replayed.replayed, "dedup window lost across restart");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn autosnap_truncates_the_journal() {
        let dir = temp_dir("autosnap");
        let reg = Registry::with_durability(
            Some(dir.clone()),
            Durability { fsync: FsyncPolicy::Always, autosnap_every: 4 },
        );
        reg.create("s", "oss", "counts", 12, 3, None).unwrap();
        for _ in 0..5 {
            reg.apply("s", Op::Step(100), None).unwrap();
        }
        reg.settle();
        let health = &reg.health()[0];
        assert_eq!(health.seq, 5);
        assert!(health.snapshot_seq >= 4, "auto-snapshot never fired: {health:?}");
        // The journal was rotated against the snapshot: base_seq matches.
        let text = fs::read_to_string(dir.join(format!("s{JOURNAL_SUFFIX}"))).unwrap();
        let doc = JournalDoc::parse(&text).unwrap();
        assert_eq!(doc.header.base_seq, health.snapshot_seq);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_slot_is_quarantined_and_healed_from_disk() {
        let dir = temp_dir("poison");
        let reg = Arc::new(Registry::new(Some(dir.clone())));
        reg.create("p", "ciw", "counts", 16, 2, None).unwrap();
        reg.apply("p", Op::Step(2_000), None).unwrap();
        let reference = reg.with_cell("p", |c| c.pop.snapshot_jsonl()).unwrap();

        // Poison the slot: panic while holding its lock, then mangle the
        // in-memory state so only a disk heal can explain recovery.
        let slot = reg.get("p").unwrap();
        let slot2 = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let mut cell = slot2.lock().unwrap();
            cell.pop.step(12_345); // torn mutation the journal never saw
            panic!("wedged handler");
        })
        .join();
        assert!(slot.is_poisoned());

        // The next access heals: quarantine counted, state rebuilt from
        // snapshot + journal, identical to the pre-panic state.
        let healed = reg.with_cell("p", |c| c.pop.snapshot_jsonl()).unwrap();
        assert_eq!(reg.quarantines(), 1);
        assert_eq!(healed, reference, "heal did not restore the journaled state");
        assert!(!reg.get("p").unwrap().is_poisoned());

        // And the population still serves.
        let out = reg.apply("p", Op::Step(500), None).unwrap();
        assert!(matches!(out.applied, Some(Applied::Step(r)) if r.performed == 500));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Starts a snapshot of `name` the way an autosnapshot does — gate
    /// claimed, document frozen, lock released — and hands back what
    /// finishing it needs, so a test holds it in flight as long as it
    /// likes.
    fn begin_snapshot(reg: &Registry, name: &str) -> (Slot, Claim, Frozen) {
        let slot = reg.get(name).unwrap();
        let mut cell = slot.lock().unwrap();
        let claim = cell.snapshots.try_claim().expect("no snapshot in flight");
        let frozen = cell.freeze(reg.state_dir.as_ref().unwrap(), name).unwrap();
        drop(cell);
        (slot, claim, frozen)
    }

    /// A registry that never autosnapshots, with `p` created and stepped
    /// through `writes` journaled commands.
    fn manual_registry(dir: &Path, writes: u64) -> Registry {
        let reg = Registry::with_durability(
            Some(dir.to_path_buf()),
            Durability { fsync: FsyncPolicy::Always, autosnap_every: u64::MAX },
        );
        reg.create("p", "oss", "counts", 16, 4, None).unwrap();
        for _ in 0..writes {
            reg.apply("p", Op::Step(300), None).unwrap();
        }
        reg
    }

    fn journal(dir: &Path) -> JournalDoc {
        JournalDoc::parse(&fs::read_to_string(dir.join(format!("p{JOURNAL_SUFFIX}"))).unwrap())
            .unwrap()
    }

    #[test]
    fn writes_acknowledged_mid_snapshot_survive_the_rotation() {
        let dir = temp_dir("in-flight");
        let reg = manual_registry(&dir, 3);
        let (slot, claim, frozen) = begin_snapshot(&reg, "p");
        for _ in 0..4 {
            reg.apply("p", Op::Step(300), None).unwrap();
        }
        finish_snapshot(&slot, &frozen).unwrap();
        drop(claim);
        let doc = journal(&dir);
        assert_eq!(doc.header.base_seq, 3);
        assert_eq!(doc.entries.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        assert_eq!(reg.health()[0].snapshot_seq, 3);
        // The rotated journal keeps taking appends.
        reg.apply("p", Op::Step(300), None).unwrap();
        assert_eq!(journal(&dir).last_seq(), 8);
        let reference = reg.with_cell("p", |c| c.pop.snapshot_jsonl()).unwrap();
        drop(reg);
        let fresh = Registry::new(Some(dir.clone()));
        assert!(fresh.restore_all().iter().all(|(_, r)| r.is_ok()));
        assert_eq!(fresh.with_cell("p", |c| c.pop.snapshot_jsonl()).unwrap(), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs `op` on another thread while a snapshot of `p` is in flight,
    /// checks it waits for that snapshot, finishes the snapshot, and
    /// returns what `op` returned.
    fn race_in_flight<R: Send>(reg: &Registry, op: impl FnOnce() -> R + Send) -> R {
        let (slot, claim, frozen) = begin_snapshot(reg, "p");
        std::thread::scope(|scope| {
            let (done, finished) = std::sync::mpsc::channel();
            let racer = scope.spawn(move || {
                let out = op();
                done.send(()).unwrap();
                out
            });
            let waited = finished.recv_timeout(std::time::Duration::from_millis(200));
            assert!(waited.is_err(), "ran while a snapshot was in flight");
            finish_snapshot(&slot, &frozen).unwrap();
            drop(claim);
            racer.join().unwrap()
        })
    }

    #[test]
    fn explicit_snapshot_waits_for_the_one_in_flight() {
        let dir = temp_dir("race-snapshot");
        let reg = manual_registry(&dir, 2);
        reg.apply("p", Op::Step(300), None).unwrap();
        let path = race_in_flight(&reg, || {
            reg.apply("p", Op::Corrupt(2), None).unwrap();
            reg.snapshot("p")
        });
        assert!(path.unwrap().exists());
        // The explicit snapshot ran second and covers every write.
        let health = &reg.health()[0];
        assert_eq!((health.seq, health.snapshot_seq), (4, 4));
        let doc = journal(&dir);
        assert_eq!((doc.header.base_seq, doc.entries.len()), (4, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_waits_for_the_snapshot_in_flight_and_refuses_later_ones() {
        let dir = temp_dir("race-delete");
        let reg = manual_registry(&dir, 2);
        let stale = reg.get("p").unwrap();
        assert!(race_in_flight(&reg, || reg.delete("p")));
        assert!(!dir.join(format!("p{SNAPSHOT_SUFFIX}")).exists());
        assert!(!dir.join(format!("p{JOURNAL_SUFFIX}")).exists());
        // A request still holding the slot can start no snapshot.
        assert!(lock_slot(&stale).snapshots.try_claim().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heal_waits_for_the_snapshot_in_flight() {
        let dir = temp_dir("race-heal");
        let reg = manual_registry(&dir, 3);
        let reference = reg.with_cell("p", |c| c.pop.snapshot_jsonl()).unwrap();
        let healed = race_in_flight(&reg, || {
            let slot = reg.get("p").unwrap();
            let _ = std::thread::spawn(move || {
                let mut cell = slot.lock().unwrap();
                cell.pop.step(12_345);
                panic!("wedged handler");
            })
            .join();
            reg.with_cell("p", |c| c.pop.snapshot_jsonl()).unwrap()
        });
        assert_eq!(reg.quarantines(), 1);
        assert_eq!(healed, reference, "heal did not restore the journaled state");
        let health = &reg.health()[0];
        assert_eq!((health.seq, health.snapshot_seq), (3, 3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_registry_waits_for_the_autosnapshot_thread() {
        let dir = temp_dir("drop");
        let reg = Registry::with_durability(
            Some(dir.clone()),
            Durability { fsync: FsyncPolicy::Always, autosnap_every: 1 },
        );
        reg.create("p", "ciw", "agents", 20_000, 4, None).unwrap();
        reg.apply("p", Op::Step(100), None).unwrap();
        drop(reg);
        // The thread finished before the drop returned: snapshot written
        // and journal rotated against it.
        let text = fs::read_to_string(dir.join(format!("p{SNAPSHOT_SUFFIX}"))).unwrap();
        assert_eq!(SnapshotDoc::from_jsonl(&text).unwrap().seq, 1);
        assert_eq!(journal(&dir).header.base_seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_slot_without_state_dir_keeps_memory_state() {
        let reg = Registry::new(None);
        reg.create("m", "oss", "counts", 12, 1, None).unwrap();
        reg.apply("m", Op::Step(1_000), None).unwrap();
        let slot = reg.get("m").unwrap();
        let slot2 = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _cell = slot2.lock().unwrap();
            panic!("wedged handler");
        })
        .join();
        assert!(slot.is_poisoned());
        // Heal keeps the in-memory state (nothing on disk to restore).
        let status = reg.with_cell("m", |c| c.pop.status()).unwrap();
        assert_eq!(status.interactions, 1_000);
        assert_eq!(reg.quarantines(), 1);
        assert!(!reg.get("m").unwrap().is_poisoned());
    }
}
