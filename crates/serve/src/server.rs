//! The daemon: a nonblocking accept loop feeding the bounded thread pool.
//!
//! Each accepted connection becomes one pool job that serves requests
//! line-by-line until the peer closes (or idles past the read timeout).
//! When the pool's queue is full the accept loop answers
//! `{"ok":false,"error":"busy"}` immediately and closes — backpressure,
//! never a hang.
//!
//! Request lines are bounded two ways so a hostile or faulty peer cannot
//! pin a worker: a maximum line length (oversized lines are refused and
//! the connection closed) and a per-line read deadline (a line that
//! dribbles in slower than the deadline — slowloris — is dropped even
//! though each byte resets the socket's idle timer).
//!
//! Shutdown is graceful from any trigger — a `shutdown` request, SIGINT,
//! or SIGTERM: the accept loop drains, workers finish their connections,
//! and every population is snapshotted to the configured directory before
//! the daemon returns.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use population::record::{HealthRecord, JsonObject, ServerStatsRecord};

use crate::journal::{FsyncPolicy, Op};
use crate::obs::{self, ServerStats};
use crate::pool::{PoolError, ThreadPool};
use crate::pop::{Checkpoint, Status};
use crate::registry::{Applied, ApplyOutcome, Durability, Registry};
use crate::wire::{error_response, ok_response, Request};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Pending-connection queue capacity before `busy` responses.
    pub queue: usize,
    /// Where snapshots and journals live; `None` disables durability.
    pub snapshot_dir: Option<PathBuf>,
    /// Per-connection idle read timeout (waiting for a line to *start*).
    pub read_timeout: Duration,
    /// Maximum request-line length in bytes; longer lines are refused.
    pub max_line: usize,
    /// Deadline for one request line to arrive *completely* once its
    /// first byte is in — the slowloris guard.
    pub line_deadline: Duration,
    /// When journal appends are forced to disk.
    pub fsync: FsyncPolicy,
    /// Auto-snapshot after this many journaled commands per population.
    pub autosnap_every: u64,
    /// Log requests slower than this many milliseconds to stderr with
    /// their span breakdown; 0 disables the slow-request log.
    pub slow_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let durability = Durability::default();
        ServeConfig {
            addr: "127.0.0.1:7700".to_string(),
            threads: 4,
            queue: 64,
            snapshot_dir: None,
            read_timeout: Duration::from_secs(30),
            max_line: 64 * 1024,
            line_deadline: Duration::from_secs(10),
            fsync: durability.fsync,
            autosnap_every: durability.autosnap_every,
            slow_ms: 0,
        }
    }
}

/// What a daemon run did, for the caller's report.
#[derive(Debug)]
pub struct ServeSummary {
    /// Populations restored at boot: `(name, outcome)`.
    pub restored: Vec<(String, Result<(), String>)>,
    /// Populations snapshotted at shutdown: `(name, outcome)`.
    pub snapshots: Vec<(String, Result<PathBuf, String>)>,
    /// Handler panics survived (workers respawned).
    pub panics: u64,
    /// Poisoned populations quarantined and healed while serving.
    pub quarantines: u64,
}

/// Shutdown-signal latch — set by the raw handler for SIGINT *and*
/// SIGTERM, polled by the accept loop. Process-global because signal
/// handlers are.
static SIGINT: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SIGINT.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM → graceful-shutdown latch via the raw C
/// `signal` binding (the environment has no signal-handling crate), so a
/// plain `kill` gets the same snapshot-all treatment as Ctrl-C.
/// Idempotent.
pub fn install_sigint_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT_NUM: i32 = 2;
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGINT_NUM, on_shutdown_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM_NUM, on_shutdown_signal as extern "C" fn(i32) as usize);
    }
}

/// Whether SIGINT/SIGTERM has been received since process start.
pub fn sigint_received() -> bool {
    SIGINT.load(Ordering::SeqCst)
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    pool: ThreadPool,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    read_timeout: Duration,
    max_line: usize,
    line_deadline: Duration,
    restored: Vec<(String, Result<(), String>)>,
}

impl Server {
    /// Binds the listener, restores any on-disk state in the configured
    /// directory (snapshots plus journal tails), and prepares the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let registry = Arc::new(Registry::with_durability(
            config.snapshot_dir.clone(),
            Durability { fsync: config.fsync, autosnap_every: config.autosnap_every.max(1) },
        ));
        let restored = registry.restore_all();
        let stats = Arc::new(ServerStats::new(config.slow_ms, config.snapshot_dir.clone()));
        registry.set_obs(Arc::clone(&stats));
        // A handler panic dumps the flight recorder before the worker
        // respawns, so the traces leading up to the crash survive it.
        let dump_stats = Arc::clone(&stats);
        let pool = ThreadPool::with_panic_hook(
            config.threads.max(1),
            config.queue.max(1),
            Some(Arc::new(move || {
                let _ = dump_stats.dump("panic");
            })),
        );
        Ok(Server {
            listener,
            registry,
            pool,
            stop: Arc::new(AtomicBool::new(false)),
            stats,
            read_timeout: config.read_timeout,
            max_line: config.max_line.max(256),
            line_deadline: config.line_deadline,
            restored,
        })
    }

    /// The bound address (with the OS-assigned port when `:0` was asked).
    ///
    /// # Errors
    ///
    /// Returns the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return (same effect as the
    /// `shutdown` request).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The shared registry (for in-process embedding, e.g. benches).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The shared request-tracing aggregate (also reachable through the
    /// registry via [`Registry::obs`]).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Populations restored at boot: `(name, outcome)`.
    pub fn restored(&self) -> &[(String, Result<(), String>)] {
        &self.restored
    }

    /// Runs the accept loop until `shutdown`/SIGINT/SIGTERM/stop-handle,
    /// then drains the pool and snapshots every population.
    pub fn run(self) -> ServeSummary {
        loop {
            if self.stop.load(Ordering::SeqCst) || sigint_received() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.dispatch(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        }
        self.pool.shutdown();
        let snapshots = self.registry.snapshot_all();
        ServeSummary {
            restored: self.restored,
            snapshots,
            panics: self.pool.panics(),
            quarantines: self.registry.quarantines(),
        }
    }

    fn dispatch(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        // The pool consumes the closure (and the stream inside it) even on
        // refusal, so clone a handle for the busy response first.
        let refusal = stream.try_clone().ok();
        let registry = Arc::clone(&self.registry);
        let stop = Arc::clone(&self.stop);
        let stats = Arc::clone(&self.stats);
        let limits = LineLimits {
            max_line: self.max_line,
            deadline: self.line_deadline,
            idle: self.read_timeout,
        };
        stats.set_queue_depth(self.pool.queued() as u64);
        // Pool queue wait: stamped at enqueue, measured when the worker
        // picks the job up, attributed to the connection's first request.
        let enqueued = obs::COMPILED.then(Instant::now);
        match self.pool.try_execute(move || {
            let queue_ns =
                enqueued.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            handle_connection(stream, &registry, &stop, limits, &stats, queue_ns)
        }) {
            Ok(()) => {}
            Err(PoolError::Busy | PoolError::ShuttingDown) => {
                self.stats.record_busy();
                // Backpressure: answer immediately rather than queueing
                // unboundedly or hanging the accept loop.
                if let Some(mut s) = refusal {
                    let _ = s.write_all(error_response("busy").as_bytes());
                    let _ = s.write_all(b"\n");
                    let _ = s.flush();
                }
            }
        }
    }
}

/// Per-connection line-reading limits.
#[derive(Debug, Clone, Copy)]
struct LineLimits {
    max_line: usize,
    deadline: Duration,
    idle: Duration,
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer.
    Line,
    /// Peer closed (a torn final line without `\n` is dropped).
    Eof,
    /// The line exceeded `max_line` bytes.
    TooLong,
    /// The line started but did not complete within the deadline
    /// (slowloris), or the connection idled out before a line started.
    TimedOut { mid_line: bool },
    /// Any other socket error.
    Failed,
}

/// Reads one `\n`-terminated line of at most `max_line` bytes, giving the
/// peer `limits.idle` to start the line and `limits.deadline` to finish
/// it. The socket's read timeout is re-armed to the *remaining* deadline
/// between chunks, so a peer dribbling one byte per idle-period cannot
/// hold the worker (slowloris guard).
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    limits: LineLimits,
) -> LineRead {
    buf.clear();
    let mut started: Option<Instant> = None;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return LineRead::Eof,
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineRead::TimedOut { mid_line: started.is_some() };
            }
            Err(_) => return LineRead::Failed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > limits.max_line {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                // Next line gets a fresh idle window.
                let _ = reader.get_ref().set_read_timeout(Some(limits.idle));
                return LineRead::Line;
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > limits.max_line {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
                // A line is in flight: arm (or tighten to) the remaining
                // per-line deadline.
                let start = *started.get_or_insert_with(Instant::now);
                let elapsed = start.elapsed();
                if elapsed >= limits.deadline {
                    return LineRead::TimedOut { mid_line: true };
                }
                let _ = reader.get_ref().set_read_timeout(Some(limits.deadline - elapsed));
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    registry: &Arc<Registry>,
    stop: &Arc<AtomicBool>,
    limits: LineLimits,
    stats: &ServerStats,
    mut queue_ns: u64,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let respond = |writer: &mut TcpStream, response: &str| {
        writer.write_all(response.as_bytes()).is_ok()
            && writer.write_all(b"\n").is_ok()
            && writer.flush().is_ok()
    };
    loop {
        match read_line_bounded(&mut reader, &mut buf, limits) {
            LineRead::Line => {
                let trimmed = String::from_utf8_lossy(&buf);
                let trimmed = trimmed.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let started = obs::COMPILED.then(Instant::now);
                obs::trace_begin();
                let (response, meta) = serve_line(registry, stop, trimmed);
                let sent = obs::time_span(obs::Span::Write, || respond(&mut writer, &response));
                if let (Some(started), Some(mut spans)) = (started, obs::trace_take()) {
                    // The Journal span wraps the whole append (fsync
                    // included); subtract the inner Fsync span so the final
                    // spans partition the request without overlap.
                    spans[obs::Span::Journal as usize] = spans[obs::Span::Journal as usize]
                        .saturating_sub(spans[obs::Span::Fsync as usize]);
                    spans[obs::Span::Queue as usize] = queue_ns;
                    let total_ns = queue_ns
                        .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(0));
                    queue_ns = 0; // pool wait belongs to the first request only
                    stats.record(obs::Trace {
                        cmd: meta.cmd,
                        pop: meta.pop,
                        id: meta.id,
                        ok: meta.ok,
                        total_us: total_ns / 1_000,
                        spans_us: std::array::from_fn(|i| spans[i] / 1_000),
                    });
                }
                if !sent {
                    return;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            LineRead::Eof | LineRead::Failed | LineRead::TimedOut { mid_line: false } => return,
            LineRead::TooLong => {
                // Refuse and close: the rest of the oversized line is
                // unconsumed and there is no resynchronizing mid-stream.
                let _ = respond(
                    &mut writer,
                    &error_response(&format!("request line exceeds {} bytes", limits.max_line)),
                );
                return;
            }
            LineRead::TimedOut { mid_line: true } => {
                let _ =
                    respond(&mut writer, &error_response("request line read deadline exceeded"));
                return;
            }
        }
    }
}

/// What the tracer needs to know about a served line, extracted before the
/// request is consumed by dispatch.
struct LineMeta {
    cmd: String,
    pop: String,
    id: String,
    ok: bool,
}

/// Serves one request line and reports trace metadata alongside the
/// response. Unparsable lines are attributed to the `other` command slot.
fn serve_line(registry: &Registry, stop: &AtomicBool, line: &str) -> (String, LineMeta) {
    let parsed = obs::time_span(obs::Span::Parse, || Request::parse(line));
    match parsed {
        Ok(request) => {
            let cmd = request.cmd.clone();
            let pop = request.opt_str_arg("name").ok().flatten().unwrap_or("").to_string();
            let id = request.opt_str_arg("id").ok().flatten().unwrap_or("").to_string();
            match serve_request(registry, stop, &request) {
                Ok(response) => (response, LineMeta { cmd, pop, id, ok: true }),
                Err(e) => (error_response(&e), LineMeta { cmd, pop, id, ok: false }),
            }
        }
        Err(e) => (
            error_response(&e),
            LineMeta { cmd: "other".to_string(), pop: String::new(), id: String::new(), ok: false },
        ),
    }
}

/// Serves one request line — the full command dispatch. Pure with respect
/// to the socket, so tests can drive the protocol without a listener.
pub fn handle_line(registry: &Registry, stop: &AtomicBool, line: &str) -> String {
    serve_line(registry, stop, line).0
}

fn push_status(obj: &mut JsonObject, status: &Status) {
    obj.field_str("protocol", status.protocol)
        .field_str("backend", status.backend)
        .field_u64("n", status.n0 as u64)
        .field_u64("live", status.live as u64)
        .field_u64("interactions", status.interactions)
        .field_f64("parallel_time", status.parallel_time)
        .field_bool("ranked", status.ranked)
        .field_u64("leaders", u64::from(status.leaders))
        .field_u64("joins", status.joins)
        .field_u64("leaves", status.leaves)
        .field_u64("replacements", status.replacements)
        .field_u64("corruptions", status.corruptions)
        .field_u64("byz_strikes", status.byz_strikes)
        .field_u64("open_faults", status.open_faults as u64)
        .field_f64("availability", status.availability)
        .field_u64("seed", status.seed);
}

/// Mutation bookkeeping shared by every journaled command's response.
fn push_outcome(obj: &mut JsonObject, out: &ApplyOutcome) {
    obj.field_u64("seq", out.seq).field_bool("replayed", out.replayed);
}

fn checkpoint_json(c: &Checkpoint) -> String {
    let mut obj = JsonObject::new();
    obj.field_u64("interactions", c.interactions)
        .field_f64("parallel_time", c.parallel_time)
        .field_u64("live", c.live as u64)
        .field_u64("leaders", u64::from(c.leaders))
        .field_bool("ranked", c.ranked);
    obj.finish()
}

fn serve_request(
    registry: &Registry,
    stop: &AtomicBool,
    request: &Request,
) -> Result<String, String> {
    match request.cmd.as_str() {
        "ping" => {
            let mut obj = ok_response();
            obj.field_bool("pong", true);
            Ok(obj.finish())
        }
        "create" => {
            let name = request.str_arg("name")?;
            let protocol = request.str_arg("protocol")?;
            let backend = request.str_arg("backend")?;
            let n = request.required_u64("n")?;
            let seed = request.u64_arg("seed")?.unwrap_or(1);
            let id = request.opt_str_arg("id")?;
            let out = registry.create(name, protocol, backend, n, seed, id)?;
            let mut obj = ok_response();
            obj.field_str("name", name);
            push_outcome(&mut obj, &out);
            push_status(&mut obj, &out.status);
            Ok(obj.finish())
        }
        "step" => {
            let name = request.str_arg("name")?;
            let id = request.opt_str_arg("id")?;
            // Default: one parallel-time unit of the live population.
            let interactions = match request.u64_arg("interactions")? {
                Some(k) => k,
                None => registry.with_cell(name, |cell| cell.pop.status().live as u64)?,
            };
            const MAX_STEP: u64 = 1 << 32;
            if interactions > MAX_STEP {
                return Err(format!("step of {interactions} exceeds the cap of {MAX_STEP}"));
            }
            let out = registry.apply(name, Op::Step(interactions), id)?;
            let (performed, slices) = match out.applied {
                Some(Applied::Step(report)) => (report.performed, report.slices),
                _ => (0, 0), // deduplicated retry: nothing re-applied
            };
            let mut obj = ok_response();
            obj.field_u64("performed", performed).field_u64("slices", slices);
            push_outcome(&mut obj, &out);
            push_status(&mut obj, &out.status);
            Ok(obj.finish())
        }
        "join" | "leave" | "corrupt" => {
            let name = request.str_arg("name")?;
            let id = request.opt_str_arg("id")?;
            let k = request.u64_arg("k")?.unwrap_or(1);
            if k > crate::pop::MAX_N {
                return Err(format!("k = {k} exceeds the service cap"));
            }
            let op = match request.cmd.as_str() {
                "join" => Op::Join(k),
                "leave" => Op::Leave(k),
                _ => Op::Corrupt(k),
            };
            let out = registry.apply(name, op, id)?;
            let applied = match out.applied {
                Some(Applied::Event(touched)) => touched as u64,
                _ => 0, // deduplicated retry
            };
            let mut obj = ok_response();
            obj.field_u64("applied", applied);
            push_outcome(&mut obj, &out);
            push_status(&mut obj, &out.status);
            Ok(obj.finish())
        }
        "churn-plan" => {
            let name = request.str_arg("name")?;
            let spec = request.str_arg("spec")?;
            let seed = request.u64_arg("seed")?.unwrap_or(0);
            let id = request.opt_str_arg("id")?;
            let out = registry.apply(name, Op::Churn(spec.to_string(), seed), id)?;
            let mut obj = ok_response();
            push_outcome(&mut obj, &out);
            push_status(&mut obj, &out.status);
            Ok(obj.finish())
        }
        "leader" => {
            let name = request.str_arg("name")?;
            let report = registry.with_cell(name, |cell| cell.pop.leader())?;
            let mut obj = ok_response();
            obj.field_u64("leaders", u64::from(report.leaders)).field_bool("ranked", report.ranked);
            match report.index {
                Some(idx) => obj.field_u64("leader_index", idx as u64),
                None => obj.field_null("leader_index"),
            };
            Ok(obj.finish())
        }
        "ranks" => {
            let name = request.str_arg("name")?;
            let report = registry.with_cell(name, |cell| cell.pop.ranks())?;
            let mut obj = ok_response();
            obj.field_bool("ranked", report.ranked)
                .field_u64("singleton_ranks", report.singleton_ranks as u64)
                .field_u64("duplicated_ranks", report.duplicated_ranks as u64)
                .field_u64("missing_ranks", report.missing_ranks as u64);
            Ok(obj.finish())
        }
        "status" => {
            let name = request.str_arg("name")?;
            // The cell's seed is authoritative: a freshly restored
            // population re-stamps it from the journal header, and stamping
            // it here too keeps even older in-memory snapshots honest.
            let (mut status, seed, seq, base_seq) = registry.with_cell(name, |cell| {
                (cell.pop.status(), cell.seed, cell.seq, cell.snapshot_seq)
            })?;
            status.seed = seed;
            let mut obj = ok_response();
            obj.field_str("name", name);
            push_status(&mut obj, &status);
            obj.field_u64("seq", seq).field_u64("base_seq", base_seq);
            Ok(obj.finish())
        }
        "timeline" => {
            let name = request.str_arg("name")?;
            let last = request.u64_arg("last")?.unwrap_or(16).min(4096) as usize;
            let points = registry.with_cell(name, |cell| cell.pop.timeline(last))?;
            let rows: Vec<String> = points.iter().map(checkpoint_json).collect();
            let mut obj = ok_response();
            obj.field_u64("points", rows.len() as u64)
                .field_raw("timeline", &format!("[{}]", rows.join(",")));
            Ok(obj.finish())
        }
        "metrics" => {
            let name = request.str_arg("name")?;
            let record =
                registry.with_cell(name, |cell| cell.pop.metrics_record_json("service"))?;
            let mut obj = ok_response();
            obj.field_raw("metrics", &record);
            Ok(obj.finish())
        }
        "snapshot" => {
            let name = request.str_arg("name")?;
            let path = registry.snapshot(name)?;
            let mut obj = ok_response();
            obj.field_str("path", &path.display().to_string());
            Ok(obj.finish())
        }
        "health" => {
            let quarantines = registry.quarantines();
            let rows: Vec<String> = registry
                .health()
                .into_iter()
                .map(|row| {
                    HealthRecord {
                        experiment: "serve".to_string(),
                        pop: row.name,
                        protocol: row.status.protocol.to_string(),
                        backend: row.status.backend.to_string(),
                        n: row.status.n0 as u64,
                        live: row.status.live as u64,
                        interactions: row.status.interactions,
                        ranked: row.status.ranked,
                        seq: row.seq,
                        snapshot_seq: row.snapshot_seq,
                        lag: row.seq.saturating_sub(row.snapshot_seq),
                        fsync: row.fsync.map(|policy| policy.spec()),
                        quarantines,
                    }
                    .to_json()
                })
                .collect();
            let mut obj = ok_response();
            obj.field_u64("count", rows.len() as u64)
                .field_u64("quarantines", quarantines)
                .field_bool("durable", registry.durable())
                .field_raw("populations", &format!("[{}]", rows.join(",")));
            Ok(obj.finish())
        }
        "list" => {
            let names = registry.list();
            let rows: Vec<String> = names.iter().map(|n| format!("\"{}\"", n)).collect();
            let mut obj = ok_response();
            obj.field_u64("count", names.len() as u64)
                .field_raw("populations", &format!("[{}]", rows.join(",")));
            Ok(obj.finish())
        }
        "delete" => {
            let name = request.str_arg("name")?;
            if !registry.delete(name) {
                return Err(format!("no population {name:?}"));
            }
            let mut obj = ok_response();
            obj.field_bool("deleted", true);
            Ok(obj.finish())
        }
        "stats" => {
            let stats = registry
                .obs()
                .ok_or_else(|| "stats: no request tracer attached to this registry".to_string())?;
            let reset = request.bool_arg("reset")?.unwrap_or(false);
            let snap = stats.snapshot();
            if reset {
                // Read-and-reset: the snapshot above covers the window that
                // just ended; counters and the rps window restart now (the
                // flight recorder is deliberately left intact).
                stats.reset();
            }
            let journal_lag = registry
                .health()
                .iter()
                .map(|row| row.seq.saturating_sub(row.snapshot_seq))
                .max()
                .unwrap_or(0);
            let window = snap.window_s.max(1e-9);
            let rows: Vec<String> = snap
                .commands
                .iter()
                .map(|c| {
                    let per = |total: u64| total as f64 / c.count.max(1) as f64;
                    ServerStatsRecord {
                        experiment: "serve".to_string(),
                        cmd: c.cmd.to_string(),
                        count: c.count,
                        errors: c.errors,
                        rps: c.count as f64 / window,
                        p50_us: c.p50_us,
                        p95_us: c.p95_us,
                        p99_us: c.p99_us,
                        mean_us: per(c.total_us),
                        queue_us: per(c.spans_us[obs::Span::Queue as usize]),
                        parse_us: per(c.spans_us[obs::Span::Parse as usize]),
                        registry_lock_us: per(c.spans_us[obs::Span::RegistryLock as usize]),
                        pop_lock_us: per(c.spans_us[obs::Span::PopLock as usize]),
                        engine_us: per(c.spans_us[obs::Span::Engine as usize]),
                        journal_us: per(c.spans_us[obs::Span::Journal as usize]),
                        fsync_us: per(c.spans_us[obs::Span::Fsync as usize]),
                        write_us: per(c.spans_us[obs::Span::Write as usize]),
                        hist: c.hist.clone().unwrap_or_default(),
                        window_s: snap.window_s,
                        busy: snap.busy,
                        queue_depth: snap.queue_depth,
                        slow: snap.slow,
                        journal_lag,
                    }
                    .to_json()
                })
                .collect();
            let mut obj = ok_response();
            obj.field_bool("tracing", obs::COMPILED)
                .field_u64("requests", snap.requests)
                .field_f64("rps", snap.requests as f64 / window)
                .field_f64("window_s", snap.window_s)
                .field_u64("busy", snap.busy)
                .field_u64("slow", snap.slow)
                .field_u64("queue_depth", snap.queue_depth)
                .field_u64("dumps", snap.dumps)
                .field_u64("journal_lag", journal_lag)
                .field_bool("reset", reset)
                .field_raw("commands", &format!("[{}]", rows.join(",")));
            Ok(obj.finish())
        }
        "dump-trace" => {
            let stats = registry.obs().ok_or_else(|| {
                "dump-trace: no request tracer attached to this registry".to_string()
            })?;
            let last =
                request.u64_arg("last")?.unwrap_or(32).min(obs::FLIGHT_CAPACITY as u64) as usize;
            let traces = stats.recent(last);
            let path = stats.dump("demand");
            let rows: Vec<String> = traces.iter().map(|t| t.to_record().to_json()).collect();
            let mut obj = ok_response();
            obj.field_u64("count", rows.len() as u64);
            match path {
                Some(p) => obj.field_str("path", &p.display().to_string()),
                None => obj.field_null("path"),
            };
            obj.field_raw("traces", &format!("[{}]", rows.join(",")));
            Ok(obj.finish())
        }
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            let mut obj = ok_response();
            obj.field_bool("stopping", true);
            Ok(obj.finish())
        }
        other => Err(format!("unknown cmd {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Registry, AtomicBool) {
        (Registry::new(None), AtomicBool::new(false))
    }

    /// `health` rows are `"kind":"health"` record lines, with `fsync` null
    /// on an undurable daemon and the policy spec on a durable one.
    #[test]
    fn health_rows_parse_as_health_records() {
        let dir = std::env::temp_dir().join(format!("ssle-serve-health-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = Registry::with_durability(Some(dir.clone()), Default::default());
        for (registry, fsync) in [(Registry::new(None), None), (durable, Some("always"))] {
            let stop = AtomicBool::new(false);
            for (name, backend) in [("a", "agents"), ("b", "counts")] {
                let create = format!(
                    r#"{{"cmd":"create","name":"{name}","protocol":"oss","backend":"{backend}","n":12,"seed":3}}"#
                );
                assert!(handle_line(&registry, &stop, &create).contains("\"ok\":true"));
            }
            let health = handle_line(&registry, &stop, r#"{"cmd":"health"}"#);
            let rows = crate::wire::embedded_rows(&health, "populations").expect("rows");
            assert_eq!(rows.len(), 2, "{health}");
            for (row, backend) in rows.iter().zip(["agents", "counts"]) {
                let population::RecordLine::Health(h) =
                    population::RecordLine::from_json(row).expect("a well-formed record line")
                else {
                    panic!("not a health line: {row}");
                };
                assert_eq!(h.experiment, "serve");
                assert_eq!(h.backend, backend);
                assert_eq!((h.n, h.live, h.quarantines), (12, 12, 0));
                assert_eq!(h.fsync.as_deref(), fsync);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_covers_the_population_lifecycle() {
        let (registry, stop) = fresh();
        let create = handle_line(
            &registry,
            &stop,
            r#"{"cmd":"create","name":"a","protocol":"ciw","backend":"agents","n":16,"seed":7}"#,
        );
        assert!(create.contains("\"ok\":true"), "{create}");
        assert!(create.contains("\"live\":16"), "{create}");

        let step = handle_line(&registry, &stop, r#"{"cmd":"step","name":"a","interactions":500}"#);
        assert!(step.contains("\"performed\":500"), "{step}");

        let corrupt = handle_line(&registry, &stop, r#"{"cmd":"corrupt","name":"a","k":4}"#);
        assert!(corrupt.contains("\"applied\":4"), "{corrupt}");

        let leader = handle_line(&registry, &stop, r#"{"cmd":"leader","name":"a"}"#);
        assert!(leader.contains("\"leaders\":"), "{leader}");

        let ranks = handle_line(&registry, &stop, r#"{"cmd":"ranks","name":"a"}"#);
        for field in ["ranked", "singleton_ranks", "duplicated_ranks", "missing_ranks"] {
            assert!(ranks.contains(&format!("\"{field}\":")), "{ranks}");
        }

        let timeline = handle_line(&registry, &stop, r#"{"cmd":"timeline","name":"a","last":4}"#);
        assert!(timeline.contains("\"timeline\":["), "{timeline}");

        let metrics = handle_line(&registry, &stop, r#"{"cmd":"metrics","name":"a"}"#);
        assert!(metrics.contains("\"kind\":\"metrics\""), "{metrics}");

        let health = handle_line(&registry, &stop, r#"{"cmd":"health"}"#);
        assert!(health.contains("\"quarantines\":0"), "{health}");
        assert!(health.contains("\"pop\":\"a\""), "{health}");
        assert!(health.contains("\"fsync\":null"), "{health}");

        let list = handle_line(&registry, &stop, r#"{"cmd":"list"}"#);
        assert!(list.contains("\"populations\":[\"a\"]"), "{list}");

        let delete = handle_line(&registry, &stop, r#"{"cmd":"delete","name":"a"}"#);
        assert!(delete.contains("\"deleted\":true"), "{delete}");
        assert!(handle_line(&registry, &stop, r#"{"cmd":"status","name":"a"}"#)
            .contains("\"ok\":false"));
    }

    #[test]
    fn errors_are_enveloped_not_panics() {
        let (registry, stop) = fresh();
        assert!(handle_line(&registry, &stop, "garbage").contains("\"ok\":false"));
        assert!(handle_line(&registry, &stop, r#"{"cmd":"step","name":"nope"}"#)
            .contains("no population"));
        assert!(handle_line(
            &registry,
            &stop,
            r#"{"cmd":"create","name":"x","protocol":"sublinear","backend":"agents","n":8}"#
        )
        .contains("unknown protocol"));
    }

    #[test]
    fn shutdown_sets_the_stop_flag() {
        let (registry, stop) = fresh();
        let resp = handle_line(&registry, &stop, r#"{"cmd":"shutdown"}"#);
        assert!(resp.contains("\"stopping\":true"));
        assert!(stop.load(Ordering::SeqCst));
    }

    #[test]
    fn churn_plan_rebinds() {
        let (registry, stop) = fresh();
        handle_line(
            &registry,
            &stop,
            r#"{"cmd":"create","name":"c","protocol":"oss","backend":"counts","n":12}"#,
        );
        let resp = handle_line(
            &registry,
            &stop,
            r#"{"cmd":"churn-plan","name":"c","spec":"0.05","seed":3}"#,
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let bad =
            handle_line(&registry, &stop, r#"{"cmd":"churn-plan","name":"c","spec":"not-a-plan"}"#);
        assert!(bad.contains("\"ok\":false"), "{bad}");
    }

    /// A join that would grow a population past `MAX_N` is refused before
    /// it is journaled or applied; the check allocates nothing.
    #[test]
    fn joins_past_the_population_cap_are_refused() {
        let (registry, stop) = fresh();
        handle_line(
            &registry,
            &stop,
            r#"{"cmd":"create","name":"j","protocol":"oss","backend":"agents","n":10}"#,
        );
        let join = format!(r#"{{"cmd":"join","name":"j","k":{}}}"#, crate::pop::MAX_N);
        let resp = handle_line(&registry, &stop, &join);
        assert!(resp.contains("\"ok\":false") && resp.contains("service cap"), "{resp}");
        let status = handle_line(&registry, &stop, r#"{"cmd":"status","name":"j"}"#);
        assert!(status.contains("\"live\":10") && status.contains("\"seq\":0"), "{status}");
    }

    #[test]
    fn request_ids_replay_instead_of_reapplying() {
        let (registry, stop) = fresh();
        handle_line(
            &registry,
            &stop,
            r#"{"cmd":"create","name":"r","protocol":"ciw","backend":"counts","n":16}"#,
        );
        let first = handle_line(
            &registry,
            &stop,
            r#"{"cmd":"step","name":"r","interactions":300,"id":"s.1"}"#,
        );
        assert!(first.contains("\"replayed\":false"), "{first}");
        assert!(first.contains("\"performed\":300"), "{first}");
        let retry = handle_line(
            &registry,
            &stop,
            r#"{"cmd":"step","name":"r","interactions":300,"id":"s.1"}"#,
        );
        assert!(retry.contains("\"replayed\":true"), "{retry}");
        assert!(retry.contains("\"performed\":0"), "{retry}");
        assert!(retry.contains("\"interactions\":300"), "{retry}");
        let bad = handle_line(&registry, &stop, r#"{"cmd":"step","name":"r","id":"bad id"}"#);
        assert!(bad.contains("\"ok\":false"), "{bad}");
    }

    #[test]
    fn status_reports_seed_seq_and_base_seq() {
        let (registry, stop) = fresh();
        handle_line(
            &registry,
            &stop,
            r#"{"cmd":"create","name":"s","protocol":"ciw","backend":"counts","n":8,"seed":42}"#,
        );
        handle_line(&registry, &stop, r#"{"cmd":"step","name":"s","interactions":100}"#);
        let status = handle_line(&registry, &stop, r#"{"cmd":"status","name":"s"}"#);
        assert!(status.contains("\"seed\":42"), "{status}");
        // Create occupies seq 0; the step is the first journaled mutation.
        assert!(status.contains("\"seq\":1"), "{status}");
        assert!(status.contains("\"base_seq\":0"), "{status}");
    }

    #[test]
    fn seeds_above_2_pow_53_survive_status_and_journal_replay() {
        let dir = std::env::temp_dir().join(format!("ssle-serve-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stop = AtomicBool::new(false);
        let registry = Registry::new(Some(dir.clone()));
        let create = format!(
            r#"{{"cmd":"create","name":"s","protocol":"ciw","backend":"counts","n":8,"seed":{}}}"#,
            u64::MAX
        );
        assert!(handle_line(&registry, &stop, &create).contains("\"ok\":true"));
        handle_line(&registry, &stop, r#"{"cmd":"corrupt","name":"s","k":2}"#);
        let want = format!("\"seed\":{}", u64::MAX);
        let status = handle_line(&registry, &stop, r#"{"cmd":"status","name":"s"}"#);
        assert!(status.contains(&want), "{status}");
        let before = registry.with_cell("s", |cell| cell.pop.snapshot_jsonl()).unwrap();
        drop(registry);

        // No snapshot was written: recovery replays the journal, whose
        // header carries the seed the corrupt's victims derive from.
        let _ = std::fs::remove_file(dir.join("s.snapshot.jsonl"));
        let recovered = Registry::new(Some(dir.clone()));
        assert!(recovered.restore_all().iter().all(|(_, r)| r.is_ok()));
        let status = handle_line(&recovered, &stop, r#"{"cmd":"status","name":"s"}"#);
        assert!(status.contains(&want), "{status}");
        let after = recovered.with_cell("s", |cell| cell.pop.snapshot_jsonl()).unwrap();
        assert_eq!(after, before, "replay drew different corrupt victims");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_serves_counters_from_the_attached_tracer() {
        let (registry, stop) = fresh();
        assert!(
            handle_line(&registry, &stop, r#"{"cmd":"stats"}"#).contains("no request tracer"),
            "stats without a tracer must refuse"
        );
        let stats = Arc::new(ServerStats::new(0, None));
        registry.set_obs(Arc::clone(&stats));
        stats.record(obs::Trace {
            cmd: "ping".to_string(),
            pop: String::new(),
            id: String::new(),
            ok: true,
            total_us: 42,
            spans_us: [0; obs::SPAN_COUNT],
        });
        let resp = handle_line(&registry, &stop, r#"{"cmd":"stats","reset":true}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"requests\":1"), "{resp}");
        assert!(resp.contains("\"kind\":\"server_stats\""), "{resp}");
        assert!(resp.contains("\"cmd\":\"ping\""), "{resp}");
        // Read-and-reset: the next window starts empty.
        let after = handle_line(&registry, &stop, r#"{"cmd":"stats"}"#);
        assert!(after.contains("\"requests\":0"), "{after}");
        // The flight recorder survives the reset.
        let dump = handle_line(&registry, &stop, r#"{"cmd":"dump-trace","last":8}"#);
        assert!(dump.contains("\"count\":1"), "{dump}");
        assert!(dump.contains("\"kind\":\"trace\""), "{dump}");
    }

    #[test]
    fn sigterm_sets_the_shutdown_latch() {
        // Raising SIGTERM at ourselves must hit the installed latch, not
        // kill the test process. The latch is process-global and sticky;
        // no lib test runs an accept loop, so setting it here is safe.
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        install_sigint_handler();
        assert!(!sigint_received());
        unsafe {
            raise(15);
        }
        assert!(sigint_received());
    }
}
