//! Versioned on-disk checkpoints of live executions.
//!
//! The service daemon (`ssle serve`) keeps populations alive between
//! requests; a checkpoint lets them outlive the *process* — graceful
//! shutdown snapshots every population, and the next boot restores them.
//! Because the two backends are exact state machines over a seeded RNG, a
//! checkpoint captures everything a continuation depends on:
//!
//! * the configuration — the agent array (run-length encoded) for the
//!   agent backend, the raw count entries **in entry order, including
//!   zero-count tombstones** for the count backend (entry order is the
//!   sampling order, so dropping tombstones would change the trajectory);
//! * the interaction count;
//! * the RNG stream position ([`rand::rngs::SmallRng::state`] — reseeding
//!   cannot reproduce a mid-stream position).
//!
//! Restoring and continuing is **bit-identical** to never having stopped —
//! property-tested on both backends in `crates/serve`.
//!
//! # Wire format
//!
//! A snapshot is line-delimited JSON (the repository's only serialization
//! idiom — see [`crate::record`]): a header line, one `snapshot-run` line
//! per run/entry, and a footer line whose `runs` count detects
//! truncation. The RNG state rides as one 64-hex-digit string; integer
//! fields are read from their text, so every `u64` reads back as written.
//!
//! ```text
//! {"v":1,"kind":"snapshot","protocol":"ciw","backend":"counts","param":50,"live":50,"interactions":1200,"rng":"<64 hex>"}
//! {"kind":"snapshot-run","s":"17","c":3}
//! {"kind":"snapshot-end","runs":12}
//! ```
//!
//! Protocol states are encoded by [`SnapshotProtocol`], implemented in
//! `crates/core` for the protocols whose state is plain data.
//!
//! # Freezing and encoding
//!
//! [`freeze_agents`] and [`freeze_counts`] copy a backend's raw state — the
//! agent array, or the count entries — into a [`FrozenSnapshot`]. That is a
//! memcpy; encoding, the slow part, runs later on the copy, wherever it is
//! held ([`WriteSnapshot`]). Frozen copies and parsed [`SnapshotDoc`]s are
//! written by the one streaming encoder, so a file's bytes do not depend
//! on which of the two wrote it.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use rand::rngs::SmallRng;

use crate::counts::{BatchSimulation, CountConfig};
use crate::fault::FaultSchedule;
use crate::metrics::MetricsSink;
use crate::observer::Observer;
use crate::protocol::Protocol;
use crate::record::{parse_flat_json_exact, write_escaped, ExactScalar, JsonObject};
use crate::scheduler::Scheduler;
use crate::simulation::Simulation;

/// The snapshot format version this build writes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Largest population [`restore_agents`] rebuilds, and the largest the
/// service daemon creates. A snapshot's `live` comes from the file, so the
/// agent array it sizes is refused above this cap before anything is
/// allocated.
pub const MAX_N: u64 = 100_000_000;

/// A protocol whose states can round-trip through a snapshot. A frozen
/// copy owns a clone of the protocol and may be written on another thread.
///
/// `decode_state` must invert `encode_state` exactly — the restored
/// configuration feeds the same transition function, so a lossy encoding
/// would silently fork the trajectory. Implementations validate
/// ranges (a rank beyond `n`, a timer beyond `t_max`) and reject rather
/// than clamp: a malformed snapshot is corruption, not input.
pub trait SnapshotProtocol: Protocol<State: Send> + Clone + Send + 'static {
    /// Stable protocol tag stored in the header (`"ciw"`, `"oss"`, …).
    /// Restore refuses a snapshot whose tag does not match.
    const TAG: &'static str;

    /// The protocol's configuring parameter — the population size for the
    /// ranking protocols, `T_max` for the loosely-stabilizing protocol.
    /// Restore refuses a snapshot taken under a different parameter, since
    /// the transition function would differ.
    fn snapshot_param(&self) -> u64;

    /// Appends one agent state's encoding to `out`: compact text without
    /// `"` or `\`. The snapshot encoder clears and reuses `out` from state
    /// to state, so encoding allocates nothing per agent.
    fn encode_state(&self, state: &Self::State, out: &mut String);

    /// Decodes a state previously produced by
    /// [`SnapshotProtocol::encode_state`].
    fn decode_state(&self, text: &str) -> Result<Self::State, String>;
}

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file ended before the footer — a partial write.
    Truncated,
    /// A line failed to parse or validate.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The header's format version is newer than this build understands.
    Version(u64),
    /// The snapshot does not match what the caller asked to restore
    /// (wrong protocol tag, backend, or population size).
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated (missing footer)"),
            SnapshotError::Corrupt { line, reason } => {
                write!(f, "snapshot corrupt at line {line}: {reason}")
            }
            SnapshotError::Version(v) => {
                write!(f, "snapshot version {v} is newer than supported ({SNAPSHOT_VERSION})")
            }
            SnapshotError::Mismatch(reason) => write!(f, "snapshot mismatch: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A parsed (or to-be-written) snapshot document.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDoc {
    /// Protocol tag ([`SnapshotProtocol::TAG`]).
    pub protocol: String,
    /// Backend name (`"agents"` or `"counts"`).
    pub backend: String,
    /// The protocol's configuring parameter ([`SnapshotProtocol::snapshot_param`]).
    pub param: u64,
    /// Live population size (may differ from `n0` under churn).
    pub live: u64,
    /// Interactions performed when the snapshot was taken.
    pub interactions: u64,
    /// Write-ahead-journal command sequence number this snapshot covers —
    /// boot-time recovery replays only journal entries with `seq >` this
    /// value. `0` for snapshots taken outside the journaled service path
    /// (the field is optional on the wire for back-compat).
    pub seq: u64,
    /// RNG stream position.
    pub rng: [u64; 4],
    /// `(encoded state, count)` runs. For the agent backend these are
    /// maximal runs of consecutive equal states (counts ≥ 1); for the
    /// count backend they are the raw entries in entry order, tombstones
    /// included (counts ≥ 0).
    pub runs: Vec<(String, u64)>,
}

impl SnapshotDoc {
    /// Serializes to the versioned JSONL format.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Streams the versioned JSONL format into `out` one line at a time,
    /// so the full text is never held in memory. Runs are written as they
    /// are, one line each.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let header = Header {
            protocol: &self.protocol,
            backend: &self.backend,
            param: self.param,
            live: self.live,
            interactions: self.interactions,
            seq: self.seq,
            rng: self.rng,
        };
        let mut encoder = RunEncoder::start(out, &header, false)?;
        for (state, count) in &self.runs {
            encoder.push(*count, |buf| buf.push_str(state))?;
        }
        encoder.finish()
    }

    /// Parses the versioned JSONL format, validating structure: header
    /// first, footer last, run count matching the footer, and run counts
    /// summing to `live`. Any violation is a clean [`SnapshotError`],
    /// never a panic.
    pub fn from_jsonl(input: &str) -> Result<SnapshotDoc, SnapshotError> {
        let mut lines = input.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (lineno, header) = lines.next().ok_or(SnapshotError::Truncated)?;
        let header = parse_line(lineno, header)?;
        if kind(&header) != Some("snapshot") {
            return Err(corrupt(lineno, "expected a snapshot header"));
        }
        let version = get_u64(&header, "v").ok_or_else(|| corrupt(lineno, "missing version"))?;
        if version > SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(version));
        }
        let rng_hex = get_str(&header, "rng").ok_or_else(|| corrupt(lineno, "missing rng"))?;
        let rng = parse_rng_hex(rng_hex).map_err(|reason| corrupt(lineno, &reason))?;
        let mut doc = SnapshotDoc {
            protocol: get_str(&header, "protocol")
                .ok_or_else(|| corrupt(lineno, "missing protocol"))?
                .to_string(),
            backend: get_str(&header, "backend")
                .ok_or_else(|| corrupt(lineno, "missing backend"))?
                .to_string(),
            param: get_u64(&header, "param").ok_or_else(|| corrupt(lineno, "missing param"))?,
            live: get_u64(&header, "live").ok_or_else(|| corrupt(lineno, "missing live"))?,
            interactions: get_u64(&header, "interactions")
                .ok_or_else(|| corrupt(lineno, "missing interactions"))?,
            // Absent on snapshots written before the write-ahead journal
            // existed (and on non-service snapshots): they cover no
            // journaled commands.
            seq: get_u64(&header, "seq").unwrap_or(0),
            rng,
            runs: Vec::new(),
        };
        let mut footer_runs = None;
        for (lineno, line) in lines {
            if footer_runs.is_some() {
                return Err(corrupt(lineno, "content after the footer"));
            }
            let obj = parse_line(lineno, line)?;
            match kind(&obj) {
                Some("snapshot-run") => {
                    let state = get_str(&obj, "s")
                        .ok_or_else(|| corrupt(lineno, "run line missing state"))?;
                    let count = get_u64(&obj, "c")
                        .ok_or_else(|| corrupt(lineno, "run line missing count"))?;
                    doc.runs.push((state.to_string(), count));
                }
                Some("snapshot-end") => {
                    footer_runs = Some(
                        get_u64(&obj, "runs")
                            .ok_or_else(|| corrupt(lineno, "footer missing run count"))?,
                    );
                }
                _ => return Err(corrupt(lineno, "unexpected line kind")),
            }
        }
        match footer_runs {
            None => return Err(SnapshotError::Truncated),
            Some(runs) if runs != doc.runs.len() as u64 => {
                return Err(corrupt(
                    0,
                    &format!("footer promises {runs} runs, found {}", doc.runs.len()),
                ));
            }
            Some(_) => {}
        }
        doc.check_runs().map_err(|reason| corrupt(0, &reason))?;
        Ok(doc)
    }

    /// Checks that the runs sum to `live` agents.
    fn check_runs(&self) -> Result<(), String> {
        let total = self.runs.iter().try_fold(0u64, |sum, (_, c)| sum.checked_add(*c));
        if total != Some(self.live) {
            let total = total.map_or("more than 2^64".to_string(), |t| t.to_string());
            return Err(format!("runs sum to {total} agents, header says {} live", self.live));
        }
        Ok(())
    }
}

fn corrupt(lineno: usize, reason: &str) -> SnapshotError {
    SnapshotError::Corrupt { line: lineno + 1, reason: reason.to_string() }
}

fn parse_line(lineno: usize, line: &str) -> Result<BTreeMap<String, ExactScalar>, SnapshotError> {
    parse_flat_json_exact(line).map_err(|reason| corrupt(lineno, &reason))
}

fn kind(obj: &BTreeMap<String, ExactScalar>) -> Option<&str> {
    get_str(obj, "kind")
}

fn get_str<'a>(obj: &'a BTreeMap<String, ExactScalar>, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(ExactScalar::as_str)
}

fn get_u64(obj: &BTreeMap<String, ExactScalar>, key: &str) -> Option<u64> {
    obj.get(key).and_then(ExactScalar::as_u64)
}

fn parse_rng_hex(hex: &str) -> Result<[u64; 4], String> {
    if hex.len() != 64 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("rng state must be 64 hex digits, got {:?}", hex));
    }
    let mut words = [0u64; 4];
    for (i, word) in words.iter_mut().enumerate() {
        *word = u64::from_str_radix(&hex[i * 16..(i + 1) * 16], 16)
            .map_err(|e| format!("bad rng word: {e}"))?;
    }
    if words == [0; 4] {
        return Err("the all-zero rng state is invalid".to_string());
    }
    Ok(words)
}

/// Every header field of one snapshot.
struct Header<'a> {
    protocol: &'a str,
    backend: &'a str,
    param: u64,
    live: u64,
    interactions: u64,
    /// `0` writes no `seq` field.
    seq: u64,
    rng: [u64; 4],
}

/// The one snapshot writer: the header line, one `snapshot-run` line per
/// run, then the footer.
///
/// Each run's state is encoded into a reused buffer. With `merge` set (agent
/// arrays), a run whose encoding equals the pending run's extends it, so
/// consecutive equal agents share one line; encodings are compared, not
/// states, and the two buffers swap roles when a new run starts. No
/// `String` or [`JsonObject`] is built per state or per run line.
struct RunEncoder<W: Write> {
    out: W,
    merge: bool,
    /// The encoding of the run not yet written.
    pending: String,
    /// Its agent count; `None` before the first run and after a flush.
    count: Option<u64>,
    /// The encoding being compared against `pending`.
    next: String,
    /// Run lines written so far.
    runs: u64,
}

impl<W: Write> RunEncoder<W> {
    fn start(mut out: W, header: &Header<'_>, merge: bool) -> io::Result<Self> {
        let mut rng_hex = String::with_capacity(64);
        for word in header.rng {
            rng_hex.push_str(&format!("{word:016x}"));
        }
        let mut line = JsonObject::new();
        line.field_u64("v", SNAPSHOT_VERSION)
            .field_str("kind", "snapshot")
            .field_str("protocol", header.protocol)
            .field_str("backend", header.backend)
            .field_u64("param", header.param)
            .field_u64("live", header.live)
            .field_u64("interactions", header.interactions)
            .field_str("rng", &rng_hex);
        if header.seq != 0 {
            line.field_u64("seq", header.seq);
        }
        writeln!(out, "{}", line.finish())?;
        Ok(RunEncoder {
            out,
            merge,
            pending: String::new(),
            count: None,
            next: String::new(),
            runs: 0,
        })
    }

    /// Adds `count` agents in the state `encode` appends to the buffer.
    fn push(&mut self, count: u64, encode: impl FnOnce(&mut String)) -> io::Result<()> {
        self.next.clear();
        encode(&mut self.next);
        if let Some(pending) = &mut self.count {
            if self.merge && self.next == self.pending {
                *pending += count;
                return Ok(());
            }
        }
        self.flush()?;
        std::mem::swap(&mut self.pending, &mut self.next);
        self.count = Some(count);
        Ok(())
    }

    /// Writes the pending run, if any.
    fn flush(&mut self) -> io::Result<()> {
        let Some(count) = self.count.take() else { return Ok(()) };
        self.out.write_all(br#"{"kind":"snapshot-run","s":""#)?;
        write_escaped(&mut self.out, &self.pending)?;
        writeln!(self.out, r#"","c":{count}}}"#)?;
        self.runs += 1;
        Ok(())
    }

    fn finish(mut self) -> io::Result<()> {
        self.flush()?;
        let mut footer = JsonObject::new();
        footer.field_str("kind", "snapshot-end").field_u64("runs", self.runs);
        writeln!(self.out, "{}", footer.finish())
    }
}

/// A backend's raw state, copied: everything a snapshot encodes, detached
/// from the execution it was taken from. Taking it copies the agent array
/// or the count entries and nothing else; the encoding happens when the
/// copy is written ([`WriteSnapshot`]).
pub struct FrozenSnapshot<P: SnapshotProtocol> {
    protocol: P,
    live: u64,
    interactions: u64,
    rng: [u64; 4],
    states: FrozenStates<P::State>,
}

enum FrozenStates<S> {
    /// The agent array in agent order (the scheduler draws agent
    /// *indices*, so order is part of the trajectory).
    Agents(Vec<S>),
    /// The count entries in entry order, **zero-count tombstones
    /// included** — entry order is the sampling order.
    Counts(Vec<(S, u64)>),
}

/// A frozen snapshot of any protocol: what a holder of several kinds of
/// execution (the service daemon) keeps while it writes one.
pub trait WriteSnapshot: Send {
    /// Streams the snapshot into `out`, its header stamped with the journal
    /// sequence `seq` it covers (`0` writes no `seq` field). Agent runs are
    /// maximal runs of consecutive equal encodings; count entries are
    /// written one line each.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    fn write_jsonl(&self, seq: u64, out: &mut dyn Write) -> io::Result<()>;

    /// The snapshot stamped with `seq` as one string.
    fn to_jsonl(&self, seq: u64) -> String {
        let mut out = Vec::new();
        self.write_jsonl(seq, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }
}

impl<P: SnapshotProtocol> WriteSnapshot for FrozenSnapshot<P> {
    fn write_jsonl(&self, seq: u64, out: &mut dyn Write) -> io::Result<()> {
        let protocol = &self.protocol;
        let (backend, merge) = match self.states {
            FrozenStates::Agents(_) => ("agents", true),
            FrozenStates::Counts(_) => ("counts", false),
        };
        let header = Header {
            protocol: P::TAG,
            backend,
            param: protocol.snapshot_param(),
            live: self.live,
            interactions: self.interactions,
            seq,
            rng: self.rng,
        };
        let mut encoder = RunEncoder::start(out, &header, merge)?;
        match &self.states {
            FrozenStates::Agents(states) => {
                for state in states {
                    encoder.push(1, |buf| protocol.encode_state(state, buf))?;
                }
            }
            FrozenStates::Counts(entries) => {
                for (state, count) in entries {
                    encoder.push(*count, |buf| protocol.encode_state(state, buf))?;
                }
            }
        }
        encoder.finish()
    }
}

/// Freezes an agent-array execution: copies its agent array, clock and RNG
/// position.
pub fn freeze_agents<P, O, F, M>(sim: &Simulation<P, O, F, Scheduler, M>) -> FrozenSnapshot<P>
where
    P: SnapshotProtocol,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    FrozenSnapshot {
        protocol: sim.protocol().clone(),
        live: sim.states().len() as u64,
        interactions: sim.interactions(),
        rng: sim.rng_state(),
        states: FrozenStates::Agents(sim.states().to_vec()),
    }
}

/// Freezes a count-based execution: copies its raw entries in entry order,
/// tombstones included, its clock and RNG position.
pub fn freeze_counts<P, O, F, M>(sim: &BatchSimulation<P, O, F, M>) -> FrozenSnapshot<P>
where
    P: SnapshotProtocol,
    P::State: Eq + std::hash::Hash,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    FrozenSnapshot {
        protocol: sim.protocol().clone(),
        live: sim.counts().population(),
        interactions: sim.interactions(),
        rng: sim.rng_state(),
        states: FrozenStates::Counts(sim.counts().entries().to_vec()),
    }
}

/// Snapshots an agent-array execution as a document: the bytes a
/// [`freeze_agents`] copy writes, read back.
pub fn snapshot_agents<P, O, F, M>(sim: &Simulation<P, O, F, Scheduler, M>) -> SnapshotDoc
where
    P: SnapshotProtocol,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    reread(&freeze_agents(sim))
}

/// Snapshots a count-based execution as a document: the bytes a
/// [`freeze_counts`] copy writes, read back.
pub fn snapshot_counts<P, O, F, M>(sim: &BatchSimulation<P, O, F, M>) -> SnapshotDoc
where
    P: SnapshotProtocol,
    P::State: Eq + std::hash::Hash,
    O: Observer<P>,
    F: FaultSchedule<P>,
    M: MetricsSink,
{
    reread(&freeze_counts(sim))
}

fn reread(frozen: &impl WriteSnapshot) -> SnapshotDoc {
    SnapshotDoc::from_jsonl(&frozen.to_jsonl(0)).expect("a frozen snapshot reads back")
}

fn check_doc<P: SnapshotProtocol>(
    protocol: &P,
    doc: &SnapshotDoc,
    backend: &str,
) -> Result<(), SnapshotError> {
    if doc.protocol != P::TAG {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot is for protocol {:?}, restoring {:?}",
            doc.protocol,
            P::TAG
        )));
    }
    if doc.backend != backend {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot is for backend {:?}, restoring {backend:?}",
            doc.backend
        )));
    }
    if doc.param != protocol.snapshot_param() {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot taken under protocol parameter {}, restoring under {}",
            doc.param,
            protocol.snapshot_param()
        )));
    }
    Ok(())
}

/// Restores an agent-array execution from a snapshot. Continuing it is
/// bit-identical to continuing the snapshotted simulation.
pub fn restore_agents<P: SnapshotProtocol>(
    protocol: P,
    doc: &SnapshotDoc,
) -> Result<Simulation<P>, SnapshotError> {
    check_doc(&protocol, doc, "agents")?;
    if doc.live > MAX_N {
        return Err(SnapshotError::Mismatch(format!(
            "{} live agents exceed the cap of {MAX_N}",
            doc.live
        )));
    }
    // `from_jsonl` checks this too; a document built in code is checked
    // here, so the pushes below stay within the reservation.
    doc.check_runs().map_err(SnapshotError::Mismatch)?;
    let mut states = Vec::with_capacity(doc.live as usize);
    for (encoded, count) in &doc.runs {
        if *count == 0 {
            return Err(SnapshotError::Mismatch(
                "agent snapshots cannot contain zero-length runs".to_string(),
            ));
        }
        let state = protocol.decode_state(encoded).map_err(|reason| {
            SnapshotError::Mismatch(format!("bad state {encoded:?}: {reason}"))
        })?;
        states.extend(std::iter::repeat_n(state, *count as usize));
    }
    if states.len() < 2 {
        return Err(SnapshotError::Mismatch("fewer than two agents".to_string()));
    }
    Ok(Simulation::from_checkpoint(
        protocol,
        states,
        doc.interactions,
        SmallRng::from_state(doc.rng),
    ))
}

/// Restores a count-based execution from a snapshot. Continuing it is
/// bit-identical to continuing the snapshotted simulation.
pub fn restore_counts<P>(
    protocol: P,
    doc: &SnapshotDoc,
) -> Result<BatchSimulation<P>, SnapshotError>
where
    P: SnapshotProtocol,
    P::State: Eq + std::hash::Hash,
{
    check_doc(&protocol, doc, "counts")?;
    let mut config = CountConfig::new();
    for (encoded, count) in &doc.runs {
        let state = protocol.decode_state(encoded).map_err(|reason| {
            SnapshotError::Mismatch(format!("bad state {encoded:?}: {reason}"))
        })?;
        let idx = config.ensure_entry(state);
        if idx != config.raw_len() - 1 {
            return Err(SnapshotError::Mismatch(format!(
                "duplicate count entry for state {encoded:?}"
            )));
        }
        config.add_at(idx, *count);
    }
    if config.population() < 2 {
        return Err(SnapshotError::Mismatch("fewer than two agents".to_string()));
    }
    Ok(BatchSimulation::from_checkpoint(
        protocol,
        config,
        doc.interactions,
        SmallRng::from_state(doc.rng),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Test protocol: states are u32 tokens; collision bumps mod n.
    #[derive(Debug, Clone)]
    struct TokenRank {
        n: usize,
    }

    impl crate::protocol::Protocol for TokenRank {
        type State = u32;
        const DETERMINISTIC_INTERACT: bool = true;
        fn interact(&self, a: &mut u32, b: &mut u32, _rng: &mut SmallRng) {
            if *a == *b {
                *b = (*b + 1) % self.n as u32;
            }
        }
    }

    impl crate::protocol::RankingProtocol for TokenRank {
        fn population_size(&self) -> usize {
            self.n
        }
        fn rank_of(&self, state: &u32) -> Option<usize> {
            Some(*state as usize + 1)
        }
    }

    impl SnapshotProtocol for TokenRank {
        const TAG: &'static str = "token";
        fn snapshot_param(&self) -> u64 {
            self.n as u64
        }
        fn encode_state(&self, state: &u32, out: &mut String) {
            out.push_str(&state.to_string());
        }
        fn decode_state(&self, text: &str) -> Result<u32, String> {
            let v: u32 = text.parse().map_err(|e| format!("{e}"))?;
            if v as usize >= self.n {
                return Err(format!("token {v} out of range for n = {}", self.n));
            }
            Ok(v)
        }
    }

    fn doc_round_trip(doc: &SnapshotDoc) -> SnapshotDoc {
        SnapshotDoc::from_jsonl(&doc.to_jsonl()).expect("round trip")
    }

    #[test]
    fn agents_snapshot_restore_continue_is_bit_identical() {
        let n = 20;
        let mut sim = Simulation::new(TokenRank { n }, vec![0; n], 42);
        sim.run(5_000);
        let doc = doc_round_trip(&snapshot_agents(&sim));
        let mut restored = restore_agents(TokenRank { n }, &doc).expect("restore");
        sim.run(5_000);
        restored.run(5_000);
        assert_eq!(sim.states(), restored.states());
        assert_eq!(sim.interactions(), restored.interactions());
        assert_eq!(sim.rng_state(), restored.rng_state());
    }

    #[test]
    fn counts_snapshot_restore_continue_is_bit_identical() {
        let n = 20;
        let mut sim = BatchSimulation::new(TokenRank { n }, vec![0; n], 42);
        sim.run(5_000);
        let doc = doc_round_trip(&snapshot_counts(&sim));
        let mut restored = restore_counts(TokenRank { n }, &doc).expect("restore");
        sim.run(5_000);
        restored.run(5_000);
        assert_eq!(sim.counts().to_states(), restored.counts().to_states());
        assert_eq!(sim.interactions(), restored.interactions());
        assert_eq!(sim.rng_state(), restored.rng_state());
    }

    #[test]
    fn counts_snapshot_preserves_tombstones_and_entry_order() {
        let n = 12;
        let mut sim = BatchSimulation::new(TokenRank { n }, vec![0; n], 7);
        // Long enough that some token counts have dropped to zero.
        sim.run(2_000);
        let doc = snapshot_counts(&sim);
        let restored = restore_counts(TokenRank { n }, &doc).expect("restore");
        assert_eq!(restored.counts().raw_len(), sim.counts().raw_len());
        for idx in 0..sim.counts().raw_len() {
            assert_eq!(restored.counts().state_at(idx), sim.counts().state_at(idx));
            assert_eq!(restored.counts().count_at(idx), sim.counts().count_at(idx));
        }
    }

    #[test]
    fn truncated_snapshot_is_a_clean_error() {
        let n = 8;
        let mut sim = Simulation::new(TokenRank { n }, vec![0; n], 3);
        sim.run(500);
        let text = snapshot_agents(&sim).to_jsonl();
        // Drop the footer.
        let without_footer: String =
            text.lines().take(text.lines().count() - 1).map(|l| format!("{l}\n")).collect();
        assert_eq!(SnapshotDoc::from_jsonl(&without_footer), Err(SnapshotError::Truncated));
        // Drop a run line too: the footer count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        let missing_run = lines.join("\n");
        assert!(matches!(
            SnapshotDoc::from_jsonl(&missing_run),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert_eq!(SnapshotDoc::from_jsonl(""), Err(SnapshotError::Truncated));
    }

    #[test]
    fn corrupted_snapshots_are_clean_errors() {
        let n = 8;
        let mut sim = Simulation::new(TokenRank { n }, vec![0; n], 3);
        sim.run(500);
        let doc = snapshot_agents(&sim);
        let text = doc.to_jsonl();

        // Unparseable JSON.
        let garbled = text.replacen('{', "[", 1);
        assert!(matches!(SnapshotDoc::from_jsonl(&garbled), Err(SnapshotError::Corrupt { .. })));

        // Future version.
        let future = text.replacen("\"v\":1", "\"v\":99", 1);
        assert_eq!(SnapshotDoc::from_jsonl(&future), Err(SnapshotError::Version(99)));

        // Bad RNG hex.
        let mut bad_rng = doc.clone();
        bad_rng.rng = [0; 4];
        assert!(matches!(
            SnapshotDoc::from_jsonl(&bad_rng.to_jsonl()),
            Err(SnapshotError::Corrupt { .. })
        ));

        // Out-of-range state is rejected at restore.
        let mut bad_state = doc.clone();
        bad_state.runs[0].0 = "999".to_string();
        let reparsed = doc_round_trip(&bad_state);
        assert!(matches!(
            restore_agents(TokenRank { n }, &reparsed),
            Err(SnapshotError::Mismatch(_))
        ));

        // Wrong protocol tag / backend / size are mismatches.
        let mut wrong = doc.clone();
        wrong.protocol = "galaxy".to_string();
        assert!(matches!(restore_agents(TokenRank { n }, &wrong), Err(SnapshotError::Mismatch(_))));
        let mut wrong = doc.clone();
        wrong.backend = "counts".to_string();
        assert!(matches!(restore_agents(TokenRank { n }, &wrong), Err(SnapshotError::Mismatch(_))));
        assert!(matches!(
            restore_agents(TokenRank { n: n + 1 }, &doc),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn hostile_live_counts_are_refused_before_allocating() {
        // One run of 2^40 agents: the file is consistent (the run sums to
        // `live`), so only the cap stands between it and a multi-terabyte
        // reservation.
        let text = concat!(
            r#"{"v":1,"kind":"snapshot","protocol":"token","backend":"agents","param":8,"#,
            r#""live":1099511627776,"interactions":0,"rng":"00000000000000010000000000000002"#,
            r#"00000000000000030000000000000004"}"#,
            "\n",
            r#"{"kind":"snapshot-run","s":"0","c":1099511627776}"#,
            "\n",
            r#"{"kind":"snapshot-end","runs":1}"#,
        );
        let doc = SnapshotDoc::from_jsonl(text).expect("well-formed file");
        let err = restore_agents(TokenRank { n: 8 }, &doc).expect_err("refused");
        assert!(err.to_string().contains("exceed the cap"), "{err}");
        // Just past the cap is refused too; a document whose runs overshoot
        // a small `live` is refused instead of outgrowing its reservation.
        let mut doc = doc;
        doc.live = MAX_N + 1;
        doc.runs = vec![("0".to_string(), MAX_N + 1)];
        assert!(matches!(
            restore_agents(TokenRank { n: 8 }, &doc),
            Err(SnapshotError::Mismatch(_))
        ));
        doc.live = 2;
        doc.runs = vec![("0".to_string(), MAX_N)];
        let err = restore_agents(TokenRank { n: 8 }, &doc).expect_err("refused");
        assert!(
            err.to_string().contains("runs sum to 100000000 agents, header says 2 live"),
            "{err}"
        );
    }

    #[test]
    fn rng_hex_round_trips_extreme_words() {
        let mut rng = crate::runner::rng_from_seed(9);
        let _: u64 = rng.gen();
        let doc = SnapshotDoc {
            protocol: "token".to_string(),
            backend: "agents".to_string(),
            param: 2,
            live: 2,
            interactions: (1 << 53) - 1,
            seq: 7,
            rng: [u64::MAX, 1, 0, rng.state()[0]],
            runs: vec![("0".to_string(), 2)],
        };
        assert_eq!(doc_round_trip(&doc).rng, doc.rng);
    }

    #[test]
    fn integers_above_2_pow_53_restore_exactly() {
        let n = 4;
        let sim = Simulation::new(TokenRank { n }, vec![0, 1, 2, 3], 5);
        let mut doc = snapshot_agents(&sim);
        doc.interactions = (1 << 53) + 1;
        doc.seq = u64::MAX;
        let parsed = doc_round_trip(&doc);
        assert_eq!((parsed.interactions, parsed.seq), (doc.interactions, doc.seq));
        let restored = restore_agents(TokenRank { n }, &parsed).expect("restore");
        assert_eq!(restored.interactions(), (1 << 53) + 1);
    }
}
