//! Per-population append-only write-ahead journal.
//!
//! Every mutating command the daemon acknowledges is first appended here
//! as one flat-JSON line, so a crash at *any* byte offset loses at most
//! the tail the [`FsyncPolicy`] had not yet forced to disk. Boot-time
//! recovery replays the journal on top of the last snapshot (whose
//! `seq` header says how far it already covers) and reproduces the
//! population state bit-identically — the service-layer analogue of the
//! protocols' own recover-from-anything guarantee.
//!
//! File layout (`<name>.journal.jsonl`):
//!
//! ```text
//! {"v":1,"kind":"wal","name":"a","protocol":"ciw","backend":"agents","n":16,"seed":7,"base_seq":0,"ids":""}
//! {"kind":"wal-entry","seq":1,"op":"step","k":500}
//! {"kind":"wal-entry","seq":2,"op":"corrupt","k":3,"id":"cli-7"}
//! ```
//!
//! The header pins the create parameters (so a journal alone, without any
//! snapshot, is enough to rebuild the population) plus the dedup-window
//! request ids carried across truncation. Entries carry a contiguous
//! sequence number starting at `base_seq + 1`.
//!
//! **Torn-tail tolerance.** A crash mid-append leaves a final line that is
//! a strict prefix of a flat-JSON object — such a prefix can never parse
//! (the object's only top-level `}` is its last byte, and a `}` inside a
//! string value is preceded by an unclosed quote), so the reader detects
//! it reliably and drops it. An unparsable line *before* the last one, or
//! a gap in the sequence numbers, is real corruption and fails the load.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use population::record::{parse_flat_json_exact, ExactScalar, JsonObject};

/// Suffix of every journal file the registry reads and writes.
pub const JOURNAL_SUFFIX: &str = ".journal.jsonl";

/// Version of the journal format (independent of the record schema).
pub const WAL_VERSION: u64 = 1;

/// How many request ids the per-population dedup window retains.
pub const DEDUP_WINDOW: usize = 64;

/// When appended journal entries are forced to disk.
///
/// The policy bounds the **lost-event window**: the number of acknowledged
/// commands a `kill -9` can silently discard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every entry — loss window 0, slowest.
    Always,
    /// Fsync after every `n`-th entry — loss window `n - 1`.
    EveryN(u64),
    /// Never fsync explicitly — loss window unbounded (OS flush only).
    Never,
}

impl FsyncPolicy {
    /// Parses a policy spec: `always`, `every:N` (N ≥ 1), or `never`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown specs or a zero interval.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => {
                let n =
                    spec.strip_prefix("every:").and_then(|n| n.parse::<u64>().ok()).ok_or_else(
                        || format!("unknown fsync policy {spec:?} (always, every:N, never)"),
                    )?;
                if n == 0 {
                    return Err("fsync interval must be at least 1".to_string());
                }
                Ok(FsyncPolicy::EveryN(n))
            }
        }
    }

    /// The canonical spec string (`parse` round-trips it).
    pub fn spec(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::EveryN(n) => format!("every:{n}"),
            FsyncPolicy::Never => "never".to_string(),
        }
    }

    /// Worst-case acknowledged commands a crash can lose; `None` means
    /// unbounded ([`FsyncPolicy::Never`]).
    pub fn loss_window(&self) -> Option<u64> {
        match self {
            FsyncPolicy::Always => Some(0),
            FsyncPolicy::EveryN(n) => Some(n - 1),
            FsyncPolicy::Never => None,
        }
    }
}

/// Whether `id` is acceptable as an idempotency request id: 1–128 chars of
/// `[A-Za-z0-9._-]`. The charset keeps ids comma-joinable in the journal
/// header and free of JSON metacharacters.
pub fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// One journaled mutating command.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `step` with an explicit interaction budget (the server resolves the
    /// "one parallel-time unit" default *before* journaling, so replay is
    /// deterministic even though the live size drifts).
    Step(u64),
    /// `join` of `k` adversarial agents.
    Join(u64),
    /// `leave` of `k` random agents.
    Leave(u64),
    /// `corrupt` of `k` random agents.
    Corrupt(u64),
    /// `churn-plan` rebind: spec string plus schedule seed.
    Churn(String, u64),
}

impl Op {
    fn tag(&self) -> &'static str {
        match self {
            Op::Step(_) => "step",
            Op::Join(_) => "join",
            Op::Leave(_) => "leave",
            Op::Corrupt(_) => "corrupt",
            Op::Churn(..) => "churn",
        }
    }
}

/// One journal entry: a sequence number, the command, and the request id
/// it was acknowledged under (when the client sent one).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Contiguous per-journal sequence number (`base_seq + 1` onward).
    pub seq: u64,
    /// The journaled command.
    pub op: Op,
    /// Idempotency id, if the request carried one.
    pub id: Option<String>,
}

impl Entry {
    /// Serializes to a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("kind", "wal-entry");
        obj.field_u64("seq", self.seq);
        obj.field_str("op", self.op.tag());
        match &self.op {
            Op::Step(k) | Op::Join(k) | Op::Leave(k) | Op::Corrupt(k) => {
                obj.field_u64("k", *k);
            }
            Op::Churn(spec, seed) => {
                obj.field_str("spec", spec);
                obj.field_u64("cseed", *seed);
            }
        }
        if let Some(id) = &self.id {
            obj.field_str("id", id);
        }
        obj.finish()
    }

    fn from_fields(fields: &BTreeMap<String, ExactScalar>) -> Result<Self, String> {
        let seq = scalar_u64(fields, "seq")?;
        let op = match scalar_str(fields, "op")? {
            "step" => Op::Step(scalar_u64(fields, "k")?),
            "join" => Op::Join(scalar_u64(fields, "k")?),
            "leave" => Op::Leave(scalar_u64(fields, "k")?),
            "corrupt" => Op::Corrupt(scalar_u64(fields, "k")?),
            "churn" => {
                Op::Churn(scalar_str(fields, "spec")?.to_string(), scalar_u64(fields, "cseed")?)
            }
            other => return Err(format!("unknown journal op {other:?}")),
        };
        let id = match fields.get("id") {
            Some(ExactScalar::Str(s)) => Some(s.clone()),
            None => None,
            Some(other) => return Err(format!("field \"id\": expected string, got {other:?}")),
        };
        Ok(Entry { seq, op, id })
    }
}

/// The journal's first line: create parameters plus truncation carry-over.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Population name (duplicated from the filename as a sanity check).
    pub name: String,
    /// Protocol tag the population was created with.
    pub protocol: String,
    /// Backend name the population was created with.
    pub backend: String,
    /// Population size at creation.
    pub n: u64,
    /// Creation seed.
    pub seed: u64,
    /// Sequence number already covered by the snapshot this journal was
    /// rotated against; entries start at `base_seq + 1`.
    pub base_seq: u64,
    /// Dedup-window request ids carried across the last truncation,
    /// oldest first.
    pub ids: Vec<String>,
    /// The churn-plan binding `(spec, seed)` active at `base_seq`, if
    /// any. Bindings live in the driver, not the population snapshot, so
    /// rotation must carry them or recovery would silently drop an
    /// active schedule. Note a recovered binding restarts the schedule's
    /// random stream — the plan is restored, not its stream position.
    pub churn: Option<(String, u64)>,
}

impl Header {
    /// Serializes to a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("v", WAL_VERSION);
        obj.field_str("kind", "wal");
        obj.field_str("name", &self.name);
        obj.field_str("protocol", &self.protocol);
        obj.field_str("backend", &self.backend);
        obj.field_u64("n", self.n);
        obj.field_u64("seed", self.seed);
        obj.field_u64("base_seq", self.base_seq);
        obj.field_str("ids", &self.ids.join(","));
        if let Some((spec, seed)) = &self.churn {
            obj.field_str("churn_spec", spec);
            obj.field_u64("churn_seed", *seed);
        }
        obj.finish()
    }

    fn from_fields(fields: &BTreeMap<String, ExactScalar>) -> Result<Self, String> {
        let v = scalar_u64(fields, "v")?;
        if v != WAL_VERSION {
            return Err(format!("unsupported journal version {v} (writer supports {WAL_VERSION})"));
        }
        let ids_str = scalar_str(fields, "ids")?;
        let ids = if ids_str.is_empty() {
            Vec::new()
        } else {
            ids_str.split(',').map(str::to_string).collect()
        };
        let churn = match fields.get("churn_spec") {
            Some(ExactScalar::Str(spec)) => Some((spec.clone(), scalar_u64(fields, "churn_seed")?)),
            None => None,
            Some(other) => {
                return Err(format!("field \"churn_spec\": expected string, got {other:?}"))
            }
        };
        Ok(Header {
            name: scalar_str(fields, "name")?.to_string(),
            protocol: scalar_str(fields, "protocol")?.to_string(),
            backend: scalar_str(fields, "backend")?.to_string(),
            n: scalar_u64(fields, "n")?,
            seed: scalar_u64(fields, "seed")?,
            base_seq: scalar_u64(fields, "base_seq")?,
            ids,
            churn,
        })
    }
}

fn scalar_str<'a>(fields: &'a BTreeMap<String, ExactScalar>, key: &str) -> Result<&'a str, String> {
    match fields.get(key) {
        Some(ExactScalar::Str(s)) => Ok(s),
        Some(other) => Err(format!("field {key:?}: expected string, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn scalar_u64(fields: &BTreeMap<String, ExactScalar>, key: &str) -> Result<u64, String> {
    match fields.get(key) {
        Some(value) => value.as_u64().ok_or_else(|| {
            format!("field {key:?}: expected a non-negative integer, got {value:?}")
        }),
        None => Err(format!("missing field {key:?}")),
    }
}

/// A parsed journal: the header plus every intact entry, with the byte
/// length of the valid prefix so a torn tail can be truncated away before
/// appending resumes.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDoc {
    /// The parsed header line.
    pub header: Header,
    /// Entries in sequence order (`header.base_seq + 1` onward).
    pub entries: Vec<Entry>,
    /// Bytes of the file occupied by intact lines; anything past this is
    /// the torn tail of a crash mid-append.
    pub valid_len: u64,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
}

impl JournalDoc {
    /// Sequence number of the last intact entry (`base_seq` when empty).
    pub fn last_seq(&self) -> u64 {
        self.entries.last().map_or(self.header.base_seq, |e| e.seq)
    }

    /// Parses journal text with torn-tail tolerance.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing/corrupt header, an unparsable line
    /// that is *not* the final one, or a sequence gap.
    pub fn parse(text: &str) -> Result<JournalDoc, String> {
        let mut offset = 0usize;
        let mut valid_len = 0u64;
        let mut torn_tail = false;
        let mut header: Option<Header> = None;
        let mut entries = Vec::new();
        let mut lineno = 0usize;
        while offset < text.len() {
            let rest = &text[offset..];
            let (line, consumed) = match rest.find('\n') {
                Some(pos) => (&rest[..pos], pos + 1),
                // A final line without its newline was interrupted
                // mid-append even if it happens to parse: drop it.
                None => {
                    torn_tail = true;
                    break;
                }
            };
            lineno += 1;
            if !line.trim().is_empty() {
                let parsed =
                    parse_flat_json_exact(line.trim()).and_then(|fields| {
                        match scalar_str(&fields, "kind")? {
                            "wal" => Header::from_fields(&fields).map(Some),
                            "wal-entry" => {
                                entries.push(Entry::from_fields(&fields)?);
                                Ok(None)
                            }
                            other => Err(format!("unknown journal line kind {other:?}")),
                        }
                    });
                match parsed {
                    Ok(Some(h)) => {
                        if header.is_some() {
                            return Err(format!("line {lineno}: duplicate journal header"));
                        }
                        if !entries.is_empty() {
                            return Err(format!("line {lineno}: header after entries"));
                        }
                        header = Some(h);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        // Only the file's final line may be torn.
                        if offset + consumed >= text.len() {
                            torn_tail = true;
                            break;
                        }
                        return Err(format!("line {lineno}: {e}"));
                    }
                }
            }
            offset += consumed;
            valid_len = offset as u64;
        }
        let header = header.ok_or_else(|| "journal has no header line".to_string())?;
        let mut expected = header.base_seq;
        for e in &entries {
            expected = expected.checked_add(1).ok_or("journal sequence exhausted")?;
            if e.seq != expected {
                return Err(format!(
                    "journal sequence gap: expected seq {expected}, found {}",
                    e.seq
                ));
            }
        }
        let doc = JournalDoc { header, entries, valid_len, torn_tail };
        // The next append takes `last_seq + 1`, which must exist.
        if doc.last_seq() == u64::MAX {
            return Err("journal sequence exhausted".to_string());
        }
        Ok(doc)
    }
}

/// The append handle for one population's journal.
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    base_seq: u64,
    next_seq: u64,
    since_sync: u64,
    len: u64,
    synced_len: u64,
}

impl Wal {
    /// Creates a fresh journal at `path` (truncating any previous file)
    /// with the given header, fsynced before return.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as strings.
    pub fn create(path: &Path, header: &Header, policy: FsyncPolicy) -> Result<Wal, String> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let mut file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let line = format!("{}\n", header.to_json());
        file.write_all(line.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))?;
        file.sync_all().map_err(|e| format!("sync {}: {e}", path.display()))?;
        let len = line.len() as u64;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            policy,
            base_seq: header.base_seq,
            next_seq: header.base_seq + 1,
            since_sync: 0,
            len,
            synced_len: len,
        })
    }

    /// Reopens an existing journal for appending after recovery: the file
    /// is truncated to `doc.valid_len` (dropping any torn tail) and the
    /// next appended entry continues the sequence.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as strings.
    pub fn reopen(path: &Path, doc: &JournalDoc, policy: FsyncPolicy) -> Result<Wal, String> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        file.set_len(doc.valid_len).map_err(|e| format!("truncate {}: {e}", path.display()))?;
        file.sync_all().map_err(|e| format!("sync {}: {e}", path.display()))?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            policy,
            base_seq: doc.header.base_seq,
            next_seq: doc.last_seq() + 1,
            since_sync: 0,
            len: doc.valid_len,
            synced_len: doc.valid_len,
        };
        // Position at the end for appends (OpenOptions::append would
        // fight set_len bookkeeping on some platforms; seek is explicit).
        wal.file
            .seek(SeekFrom::Start(doc.valid_len))
            .map_err(|e| format!("seek {}: {e}", wal.path.display()))?;
        Ok(wal)
    }

    /// The sequence number the journal's header says is already covered
    /// by a snapshot; it changes only when the journal is rotated.
    pub(crate) fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The sequence number the next appended entry will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes guaranteed durable under the policy's worst case — the
    /// crash-simulation point for benches and property tests.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Bytes written (durable or not).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no entries have been appended since creation/rotation.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 1 && self.since_sync == 0
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The active fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Appends one command, assigning it the next sequence number, and
    /// fsyncs according to policy. Returns the assigned sequence number.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as strings; the entry is not considered
    /// journaled on error.
    pub fn append(&mut self, op: Op, id: Option<&str>) -> Result<u64, String> {
        let entry = Entry { seq: self.next_seq, op, id: map_id(id) };
        let line = format!("{}\n", entry.to_json());
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("append {}: {e}", self.path.display()))?;
        self.len += line.len() as u64;
        self.next_seq += 1;
        self.since_sync += 1;
        let should_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if should_sync {
            self.sync()?;
        }
        Ok(entry.seq)
    }

    /// Forces everything appended so far to disk; a no-op when nothing
    /// is unsynced.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as strings.
    pub fn sync(&mut self) -> Result<(), String> {
        if self.synced_len == self.len {
            return Ok(());
        }
        crate::obs::time_span(crate::obs::Span::Fsync, || self.file.sync_all())
            .map_err(|e| format!("sync {}: {e}", self.path.display()))?;
        self.since_sync = 0;
        self.synced_len = self.len;
        Ok(())
    }

    /// Atomically replaces the journal with one that starts at a new
    /// snapshot (the truncation step): writes `header` to a temp file,
    /// copies after it every entry from byte `offset` on — the entries
    /// appended while the snapshot was written — fsyncs, renames it over
    /// the old journal, and rearms this handle to append to it.
    ///
    /// `offset` must be where entry `header.base_seq + 1` starts (the
    /// journal's length when the snapshot was frozen), and the caller must
    /// have written and fsynced the snapshot covering `header.base_seq`
    /// *before* rotating: a crash between the two then recovers from the
    /// snapshot plus the old journal, never losing acknowledged entries.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as strings. An error before the rename
    /// leaves the old journal in place and this handle appending to it;
    /// one syncing the directory after it leaves the new journal in place
    /// and this handle appending to that.
    pub fn rotate_keeping(&mut self, header: &Header, offset: u64) -> Result<(), String> {
        let path = &self.path;
        let kept = self
            .len
            .checked_sub(offset)
            .ok_or_else(|| format!("rotate {}: offset {offset} is past the end", path.display()))?;
        let mut tail = Vec::new();
        File::open(path)
            .and_then(|mut old| {
                old.seek(SeekFrom::Start(offset))?;
                old.take(kept).read_to_end(&mut tail)
            })
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        if tail.len() as u64 != kept {
            return Err(format!("read {}: journal shorter than {}", path.display(), self.len));
        }
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let line = format!("{}\n", header.to_json());
        file.write_all(line.as_bytes())
            .and_then(|()| file.write_all(&tail))
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
        let len = line.len() as u64 + kept;
        self.file = file;
        self.base_seq = header.base_seq;
        self.since_sync = 0;
        self.len = len;
        self.synced_len = len;
        sync_parent(&self.path)
    }
}

/// Fsyncs the directory holding `path`, so a rename into it survives a
/// crash.
///
/// # Errors
///
/// Returns filesystem errors as strings.
pub(crate) fn sync_parent(path: &Path) -> Result<(), String> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir).and_then(|d| d.sync_all()).map_err(|e| format!("sync {}: {e}", dir.display()))
}

fn map_id(id: Option<&str>) -> Option<String> {
    id.map(str::to_string)
}

/// The bounded, journaled window of recently acknowledged request ids
/// backing exactly-once retries.
#[derive(Debug, Default, Clone)]
pub struct DedupWindow {
    ids: VecDeque<String>,
}

impl DedupWindow {
    /// An empty window.
    pub fn new() -> Self {
        DedupWindow { ids: VecDeque::new() }
    }

    /// Rebuilds a window from journal-carried ids, oldest first.
    pub fn from_ids<I: IntoIterator<Item = String>>(ids: I) -> Self {
        let mut window = DedupWindow::new();
        for id in ids {
            window.insert(&id);
        }
        window
    }

    /// Whether `id` was acknowledged within the window.
    pub fn contains(&self, id: &str) -> bool {
        self.ids.iter().any(|seen| seen == id)
    }

    /// Records an acknowledged id, evicting the oldest past
    /// [`DEDUP_WINDOW`].
    pub fn insert(&mut self, id: &str) {
        if self.ids.len() == DEDUP_WINDOW {
            self.ids.pop_front();
        }
        self.ids.push_back(id.to_string());
    }

    /// The retained ids, oldest first (for header carry-over).
    pub fn ids(&self) -> Vec<String> {
        self.ids.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("ssle-journal-{tag}-{}{JOURNAL_SUFFIX}", std::process::id()))
    }

    fn sample_header() -> Header {
        Header {
            name: "a".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 16,
            seed: 7,
            base_seq: 0,
            ids: Vec::new(),
            churn: None,
        }
    }

    #[test]
    fn fsync_policy_specs_round_trip() {
        for spec in ["always", "every:16", "never"] {
            assert_eq!(FsyncPolicy::parse(spec).unwrap().spec(), spec);
        }
        assert_eq!(FsyncPolicy::parse("always").unwrap().loss_window(), Some(0));
        assert_eq!(FsyncPolicy::parse("every:16").unwrap().loss_window(), Some(15));
        assert_eq!(FsyncPolicy::parse("never").unwrap().loss_window(), None);
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn request_ids_are_validated() {
        assert!(valid_request_id("cli-1.a_B"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("brace}"));
        assert!(!valid_request_id(&"x".repeat(129)));
    }

    #[test]
    fn entries_and_header_round_trip() {
        let ops = [
            Op::Step(500),
            Op::Join(3),
            Op::Leave(1),
            Op::Corrupt(4),
            Op::Churn("burst:5:0.1".to_string(), 9),
        ];
        let mut text = String::new();
        let mut header = sample_header();
        header.ids = vec!["a-1".to_string(), "a-2".to_string()];
        header.churn = Some(("burst:5:0.1".to_string(), 11));
        text.push_str(&header.to_json());
        text.push('\n');
        for (i, op) in ops.iter().enumerate() {
            let entry = Entry {
                seq: i as u64 + 1,
                op: op.clone(),
                id: (i % 2 == 0).then(|| format!("id-{i}")),
            };
            text.push_str(&entry.to_json());
            text.push('\n');
        }
        let doc = JournalDoc::parse(&text).unwrap();
        assert_eq!(doc.header, header);
        assert_eq!(doc.entries.len(), 5);
        assert_eq!(doc.entries[4].op, ops[4]);
        assert_eq!(doc.entries[0].id.as_deref(), Some("id-0"));
        assert_eq!(doc.last_seq(), 5);
        assert!(!doc.torn_tail);
        assert_eq!(doc.valid_len, text.len() as u64);
    }

    #[test]
    fn torn_final_line_is_dropped_mid_file_garbage_is_fatal() {
        let mut text = format!("{}\n", sample_header().to_json());
        let full = Entry { seq: 1, op: Op::Step(100), id: None };
        text.push_str(&full.to_json());
        text.push('\n');
        let torn = Entry { seq: 2, op: Op::Step(200), id: None };
        let torn_json = torn.to_json();
        // Truncate the final line at every byte offset: always recoverable,
        // always to exactly one surviving entry.
        for cut in 0..torn_json.len() {
            let crashed = format!("{text}{}", &torn_json[..cut]);
            let doc = JournalDoc::parse(&crashed).unwrap();
            assert_eq!(doc.entries.len(), 1, "cut at {cut}");
            assert_eq!(doc.valid_len, text.len() as u64, "cut at {cut}");
        }
        // Even a fully written final line without its newline is torn.
        let no_newline = format!("{text}{torn_json}");
        let doc = JournalDoc::parse(&no_newline).unwrap();
        assert_eq!(doc.entries.len(), 1);
        assert!(doc.torn_tail);

        // Garbage before the end is corruption, not a torn tail.
        let mid = format!("{text}garbage\n{torn_json}\n");
        assert!(JournalDoc::parse(&mid).is_err());
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let mut text = format!("{}\n", sample_header().to_json());
        text.push_str(&Entry { seq: 1, op: Op::Step(1), id: None }.to_json());
        text.push('\n');
        text.push_str(&Entry { seq: 3, op: Op::Step(1), id: None }.to_json());
        text.push('\n');
        let err = JournalDoc::parse(&text).unwrap_err();
        assert!(err.contains("sequence gap"), "{err}");
    }

    #[test]
    fn wal_appends_rotates_and_reopens() {
        let path = temp_path("lifecycle");
        let mut wal = Wal::create(&path, &sample_header(), FsyncPolicy::EveryN(2)).unwrap();
        assert_eq!(wal.append(Op::Step(100), Some("r-1")).unwrap(), 1);
        // One unsynced entry: durable bytes still at the header.
        assert!(wal.synced_len() < wal.len());
        assert_eq!(wal.append(Op::Join(2), None).unwrap(), 2);
        // The every:2 policy synced on the second append.
        assert_eq!(wal.synced_len(), wal.len());

        let doc = JournalDoc::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.last_seq(), 2);

        // Rotation replaces the file with a fresh header at base_seq 2.
        let rotated = Header { base_seq: 2, ids: vec!["r-1".to_string()], ..sample_header() };
        wal.rotate_keeping(&rotated, wal.len()).unwrap();
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(wal.append(Op::Corrupt(1), None).unwrap(), 3);
        let doc = JournalDoc::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.header.base_seq, 2);
        assert_eq!(doc.header.ids, vec!["r-1".to_string()]);
        assert_eq!(doc.entries.len(), 1);

        // Reopen appends past the recovered tail.
        drop(wal);
        let doc = JournalDoc::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let mut wal = Wal::reopen(&path, &doc, FsyncPolicy::Always).unwrap();
        assert_eq!(wal.append(Op::Leave(1), None).unwrap(), 4);
        let doc = JournalDoc::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.last_seq(), 4);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reopen_truncates_a_torn_tail() {
        let path = temp_path("torn");
        let mut wal = Wal::create(&path, &sample_header(), FsyncPolicy::Always).unwrap();
        wal.append(Op::Step(10), None).unwrap();
        wal.append(Op::Step(20), None).unwrap();
        drop(wal);
        // Simulate a crash mid-append of entry 3.
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(br#"{"kind":"wal-entry","seq":3,"op":"st"#);
        fs::write(&path, &bytes).unwrap();

        let doc = JournalDoc::parse(&String::from_utf8(bytes).unwrap()).unwrap();
        assert!(doc.torn_tail);
        assert_eq!(doc.valid_len, intact as u64);
        let mut wal = Wal::reopen(&path, &doc, FsyncPolicy::Always).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), intact as u64);
        assert_eq!(wal.append(Op::Step(30), None).unwrap(), 3);
        let doc = JournalDoc::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!doc.torn_tail);
        assert_eq!(doc.last_seq(), 3);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut window = DedupWindow::new();
        for i in 0..DEDUP_WINDOW + 8 {
            window.insert(&format!("id-{i}"));
        }
        assert!(!window.contains("id-0"));
        assert!(window.contains(&format!("id-{}", DEDUP_WINDOW + 7)));
        assert_eq!(window.ids().len(), DEDUP_WINDOW);
        let rebuilt = DedupWindow::from_ids(window.ids());
        assert!(rebuilt.contains("id-9"));
    }
}
