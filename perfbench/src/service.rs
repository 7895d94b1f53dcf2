//! The service workload `service_mixed`: an in-process `ssle serve` daemon
//! (2 workers) driven by two closed-loop connections from two client
//! threads. It serves `ciw`/`agents` at n = 10⁵ with durability at its
//! defaults (fsync always, autosnapshot every 256 commands); one connection
//! writes `step` (with a `corrupt` every 32nd write), the other reads
//! `status`:`leader` = 3:1.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use population::record::{parse_flat_json, JsonScalar};
use population::{RecordLine, ServerStatsRecord};
use ssle_serve::wire::embedded_rows;
use ssle_serve::{check_response, FsyncPolicy, ServeConfig, ServeSummary, Server};

use crate::stats::{self, median, tail};
use crate::{Layers, Outcome};

/// Population size of `service_mixed`.
pub const MIXED_N: usize = 100_000;
/// Interactions per `step` write in `service_mixed`.
pub const MIXED_STEP: u64 = 20_000;
/// Agents overwritten by each `corrupt` write.
const CORRUPT_K: u64 = 16;
/// Every this-many-th write of `service_mixed` is a `corrupt`.
const CORRUPT_EVERY: u64 = 32;
/// The daemon's auto-snapshot cadence (its default).
const AUTOSNAP_EVERY: u64 = 256;
/// The measured phase runs in this many equal segments, with set-up boots
/// between them.
const SEGMENTS: usize = 10;
/// Daemon boots before each segment; the median of all of them is
/// `setup_s`.
const BOOTS_PER_SEGMENT: usize = 10;
/// Latency samples each client reserves before the measured phase (a run
/// of 50 s takes about 20 000 per client), so its bookkeeping adds a
/// constant to `peak_heap_mb` rather than a step that moves with
/// throughput.
const SAMPLE_CAPACITY: usize = 1 << 16;
/// A request without a reply after this long has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// The hosted population's name.
pub const POP: &str = "bench";

/// The commands the workload issues, indexing per-command tallies.
const CMDS: [&str; 4] = ["status", "leader", "step", "corrupt"];
const STATUS: usize = 0;
const LEADER: usize = 1;
const STEP: usize = 2;
const CORRUPT: usize = 3;

fn request_line(cmd: usize) -> String {
    match cmd {
        STEP => format!("{{\"cmd\":\"step\",\"name\":\"{POP}\",\"interactions\":{MIXED_STEP}}}"),
        CORRUPT => format!("{{\"cmd\":\"corrupt\",\"name\":\"{POP}\",\"k\":{CORRUPT_K}}}"),
        _ => format!("{{\"cmd\":\"{}\",\"name\":\"{POP}\"}}", CMDS[cmd]),
    }
}

/// One in-process daemon running its accept loop on a thread.
struct Daemon {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<ServeSummary>,
}

impl Daemon {
    fn start(state: Option<&Path>) -> Daemon {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            snapshot_dir: state.map(Path::to_path_buf),
            fsync: FsyncPolicy::Always,
            autosnap_every: AUTOSNAP_EVERY,
            ..ServeConfig::default()
        };
        let server = Server::start(&config).expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let stop = server.stop_handle();
        let thread = thread::spawn(move || server.run());
        Daemon { addr, stop, thread }
    }

    /// Stops the accept loop and waits for it (every connection must be
    /// closed first, or a worker waits out its idle timeout).
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("daemon thread panicked");
    }
}

/// One open client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn { writer, reader: BufReader::new(stream), line: String::new() })
    }

    /// Sends one request line and returns the response line; transport
    /// failures (timeout, reset, close) are errors.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// A request that must succeed (set-up and bookkeeping traffic).
    fn expect_ok(&mut self, request: &str) -> String {
        match self.call(request) {
            // Some responses embed arrays, which the flat parser refuses.
            Ok(line) if line.starts_with("{\"ok\":true") => line.to_string(),
            Ok(line) => panic!("{request} failed: {line}"),
            Err(e) => panic!("{request} failed: {e}"),
        }
    }
}

/// One bookkeeping request on a connection of its own, closed before the
/// measured phase: each open connection holds one of the two workers.
fn admin(addr: &str, request: &str) -> String {
    let mut conn = Conn::open(addr).expect("connect to the daemon");
    conn.expect_ok(request)
}

fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    match check_response(line)?.get(key) {
        Some(JsonScalar::Num(v)) => Ok(*v as u64),
        _ => Err(format!("response has no numeric {key:?}: {line}")),
    }
}

/// Starts a daemon, creates the population and warms it with one of the
/// workload's `step` writes; returns the daemon and the seconds that took.
fn boot(seed: u64, state: Option<&Path>) -> (Daemon, f64) {
    if let Some(dir) = state {
        // A cold boot on an empty state directory.
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the state directory");
    }
    let started = Instant::now();
    let daemon = Daemon::start(state);
    let mut conn = Conn::open(&daemon.addr).expect("connect to the daemon");
    conn.expect_ok(&format!(
        "{{\"cmd\":\"create\",\"name\":\"{POP}\",\"protocol\":\"ciw\",\"backend\":\"agents\",\
         \"n\":{MIXED_N},\"seed\":{seed}}}"
    ));
    conn.expect_ok(&request_line(STEP));
    conn.expect_ok(&request_line(STATUS));
    (daemon, started.elapsed().as_secs_f64())
}

/// Boots a daemon without a state directory `boots` times, stopping each
/// again, and prints the seconds each boot took on one line. This is the
/// body of the child process [`setup_boots`] starts.
pub fn boot_child(boots: usize, seed: u64) {
    let times: Vec<String> = (0..boots)
        .map(|_| {
            let (daemon, secs) = boot(seed, None);
            daemon.stop();
            secs.to_string()
        })
        .collect();
    println!("{}", times.join(" "));
}

/// The set-up times of [`BOOTS_PER_SEGMENT`] boots, made in a child
/// process so the booted and dropped populations never reach this
/// process's heap or resident set.
///
/// The boots have no state directory: a durable boot also creates the
/// journal and fsyncs it and the warm-up write, and on the checkout's disk
/// those fsyncs added between 0.6 and 3.8 ms to a 5 ms boot from one run
/// to the next; they time the device, not the program (README.md). The
/// durable boot of the measured daemon is `setup.durable_boot_ms`.
fn setup_boots(seed: u64) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of this executable");
    let output = std::process::Command::new(exe)
        .args(["--boot-child", &BOOTS_PER_SEGMENT.to_string(), "--seed", &seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the set-up child process");
    assert!(output.status.success(), "set-up child process failed: {}", output.status);
    String::from_utf8_lossy(&output.stdout)
        .split_whitespace()
        .map(|t| t.parse().expect("set-up child prints seconds"))
        .collect()
}

/// What one closed-loop connection saw and what the workload's checks
/// need from it.
#[derive(Default)]
struct Tally {
    /// `(command, latency ms)` per request; failures at the timeout.
    samples: Vec<(usize, f64)>,
    /// Requests that failed: busy or error envelopes, timeouts, resets.
    failed: u64,
    /// The first few failure reasons, for the report.
    failures: Vec<String>,
    /// Failed correctness checks on acknowledged responses.
    errors: Vec<String>,
    /// Acknowledged mutating requests.
    writes: u64,
    /// Interactions performed by acknowledged `step`s.
    stepped: u64,
    /// Driver slices reported by acknowledged `step`s.
    slices: u64,
}

impl Tally {
    /// Checks one acknowledged write and tallies what it did.
    fn check(&mut self, cmd: usize, response: &str) -> Result<(), String> {
        match cmd {
            STEP => {
                let performed = field_u64(response, "performed")?;
                if performed != MIXED_STEP {
                    return Err(format!("step performed {performed} of {MIXED_STEP}"));
                }
                self.writes += 1;
                self.stepped += performed;
                self.slices += field_u64(response, "slices")?;
            }
            CORRUPT => {
                let applied = field_u64(response, "applied")?;
                if applied != CORRUPT_K {
                    return Err(format!("corrupt touched {applied} of {CORRUPT_K} agents"));
                }
                self.writes += 1;
            }
            _ => {}
        }
        Ok(())
    }
}

/// One closed-loop client: its connection, its request cycle and what it
/// saw. It keeps its connection, and so its daemon worker, across the
/// measured segments, so the segments make one closed loop.
struct Client {
    conn: Option<Conn>,
    /// Command indices, cycled.
    pattern: Vec<usize>,
    next: usize,
    tally: Tally,
}

impl Client {
    fn new(addr: &str, pattern: Vec<usize>) -> Client {
        let mut tally = Tally::default();
        tally.samples.reserve(SAMPLE_CAPACITY);
        Client { conn: Conn::open(addr).ok(), pattern, next: 0, tally }
    }

    /// Issues requests, each after the previous reply, until `deadline`.
    fn run(&mut self, addr: &str, deadline: Instant) {
        let lines: Vec<String> = (0..CMDS.len()).map(request_line).collect();
        let tally = &mut self.tally;
        let timeout_ms = REQUEST_TIMEOUT.as_secs_f64() * 1e3;
        while Instant::now() < deadline {
            let cmd = self.pattern[self.next % self.pattern.len()];
            self.next += 1;
            let started = Instant::now();
            let reply = match self.conn.as_mut() {
                Some(c) => c.call(&lines[cmd]).map(str::to_string),
                None => Err("cannot connect".to_string()),
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let transport_ok = reply.is_ok();
            match reply.and_then(|line| check_response(&line).map(|_| line)) {
                Ok(line) => {
                    tally.samples.push((cmd, ms));
                    if let Err(e) = tally.check(cmd, &line) {
                        if tally.errors.len() < 5 {
                            tally.errors.push(e);
                        }
                    }
                }
                Err(reason) => {
                    // A failed request misses every latency bound.
                    tally.samples.push((cmd, timeout_ms));
                    tally.failed += 1;
                    if tally.failures.len() < 5 {
                        tally.failures.push(format!("{}: {reason}", CMDS[cmd]));
                    }
                    if !transport_ok {
                        // The connection is gone; a closed loop reconnects.
                        self.conn = Conn::open(addr).ok();
                    }
                }
            }
        }
    }
}

/// Runs every client on a thread of its own for `seconds`; returns the
/// wall time.
fn drive(addr: &str, clients: &mut [Client], seconds: f64) -> f64 {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || client.run(addr, deadline));
        }
    });
    started.elapsed().as_secs_f64()
}

fn outcome(
    setup_s: f64,
    peak: stats::Peaks,
    tallies: &[Tally],
    wall: f64,
    mut errors: Vec<String>,
) -> Outcome {
    let per_cmd: Vec<String> = CMDS
        .iter()
        .enumerate()
        .map(|(cmd, name)| {
            let count: usize =
                tallies.iter().map(|t| t.samples.iter().filter(|s| s.0 == cmd).count()).sum();
            format!("{name} {count}")
        })
        .collect();
    println!("  requests per command: {}", per_cmd.join(", "));
    let samples_ms: Vec<f64> =
        tallies.iter().flat_map(|t| t.samples.iter().map(|&(_, ms)| ms)).collect();
    let attempted = samples_ms.len() as u64;
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    for t in tallies {
        errors.extend(t.errors.iter().cloned());
        for reason in &t.failures {
            println!("  failed request: {reason}");
        }
    }
    Outcome {
        setup_s,
        peak,
        ops_per_s: (attempted - failed) as f64 / wall,
        samples_ms,
        sample: "requests",
        attempted,
        failed,
        errors,
    }
}

/// Per-command client latencies (p50 and tail, µs).
fn client_layers(layers: &mut Layers, tallies: &[Tally]) {
    const NAMES: [(usize, &str, &str); 3] = [
        (STATUS, "client.status.p50_us", "client.status.tail_us"),
        (LEADER, "client.leader.p50_us", "client.leader.tail_us"),
        (STEP, "client.step.p50_us", "client.step.tail_us"),
    ];
    for &(cmd, p50, tl) in &NAMES {
        let us: Vec<f64> = tallies
            .iter()
            .flat_map(|t| t.samples.iter().filter(|s| s.0 == cmd).map(|s| s.1 * 1e3))
            .collect();
        if !us.is_empty() {
            layers.set(p50, median(&us));
            layers.set(tl, tail(&us).0);
        }
    }
}

/// Reads the daemon's request tracer (`stats`, read-and-reset).
fn drain_stats(addr: &str) -> (Vec<ServerStatsRecord>, u64) {
    let line = admin(addr, "{\"cmd\":\"stats\",\"reset\":true}");
    let rows = embedded_rows(&line, "commands")
        .expect("stats embeds a commands array")
        .iter()
        .map(|row| ServerStatsRecord::from_json(row).expect("well-formed server_stats row"))
        .collect();
    let busy = line
        .split_once("\"busy\":")
        .and_then(|(_, rest)| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .expect("stats reports busy");
    (rows, busy)
}

/// Count-weighted mean of one span over the rows of the given commands.
fn span_mean(
    rows: &[ServerStatsRecord],
    cmds: &[&str],
    span: fn(&ServerStatsRecord) -> f64,
) -> f64 {
    let chosen: Vec<&ServerStatsRecord> =
        rows.iter().filter(|r| cmds.is_empty() || cmds.contains(&r.cmd.as_str())).collect();
    let count: u64 = chosen.iter().map(|r| r.count).sum();
    if count == 0 {
        return 0.0;
    }
    chosen.iter().map(|r| span(r) * r.count as f64).sum::<f64>() / count as f64
}

/// Server-side span attribution and the population's engine counters.
fn server_layers(layers: &mut Layers, addr: &str) {
    let (rows, busy) = drain_stats(addr);
    let rows = &rows[..];
    layers.set("span.pop_lock_us", span_mean(rows, &["status", "leader"], |r| r.pop_lock_us));
    layers.set("span.registry_lock_us", span_mean(rows, &[], |r| r.registry_lock_us));
    layers.set("span.journal_us", span_mean(rows, &["step", "corrupt"], |r| r.journal_us));
    layers.set("span.fsync_us", span_mean(rows, &["step", "corrupt"], |r| r.fsync_us));
    layers.set("span.queue_us", span_mean(rows, &[], |r| r.queue_us));
    layers.set("span.write_us", span_mean(rows, &[], |r| r.write_us));
    layers.set("pool.busy", busy as f64);

    let line = admin(addr, &format!("{{\"cmd\":\"metrics\",\"name\":\"{POP}\"}}"));
    let start = line.find("\"metrics\":{").expect("metrics response embeds a record") + 10;
    let end = start + line[start..].find('}').expect("flat record") + 1;
    let Ok(RecordLine::Metrics(m)) = RecordLine::from_json(&line[start..end]) else {
        panic!("metrics response does not embed a metrics record: {line}");
    };
    let interactions = m.interactions as f64;
    layers.set("engine.interactions", interactions);
    layers.set("engine.ns_per_interaction", m.transition_s * 1e9 / interactions);
    layers.set("engine.rng_draws_per_interaction", m.rng_draws as f64 / interactions);
    layers.set("simulation.run_s", m.transition_s);
}

/// The population's `health` row: `(seq, snapshot_seq)`.
fn journal_position(addr: &str) -> (u64, u64) {
    let line = admin(addr, "{\"cmd\":\"health\"}");
    let rows = embedded_rows(&line, "populations").expect("health embeds a populations array");
    let row = parse_flat_json(rows.first().expect("one population")).expect("flat health row");
    let get = |key: &str| match row.get(key) {
        Some(JsonScalar::Num(v)) => *v as u64,
        _ => panic!("health row has no {key}"),
    };
    (get("seq"), get("snapshot_seq"))
}

/// `service_mixed`: a writer (`step`, some `corrupt`) beside a reader
/// (status:leader = 3:1) on a durable n = 10⁵ population.
pub fn mixed(seed: u64, seconds: f64, layers: Option<&mut Layers>, state: &Path) -> Outcome {
    let (daemon, durable_boot_s) = boot(seed, Some(&state.join("mixed")));
    let before = field_u64(&admin(&daemon.addr, &request_line(STATUS)), "interactions")
        .expect("status reports interactions");
    let (seq_before, _) = journal_position(&daemon.addr);
    if layers.is_some() {
        drain_stats(&daemon.addr);
    }
    let mut writer: Vec<usize> = vec![STEP; CORRUPT_EVERY as usize - 1];
    writer.push(CORRUPT);
    let reader = vec![STATUS, STATUS, STATUS, LEADER];
    // Set-up boots between the segments sample the host over the whole
    // run, as the measured requests do; all at the start, they fell into
    // whichever of the host's minute-long slow or fast stretches the run
    // began in.
    let mut clients = [Client::new(&daemon.addr, writer), Client::new(&daemon.addr, reader)];
    let (mut boots, mut wall) = (Vec::new(), 0.0);
    for _ in 0..SEGMENTS {
        boots.extend(setup_boots(seed));
        wall += drive(&daemon.addr, &mut clients, seconds / SEGMENTS as f64);
    }
    // Read before the checks and the stop: the daemon's shutdown snapshot
    // is not part of the measured phase.
    let peak = stats::Peaks::now();
    // Closes both connections, freeing the workers for the checks.
    let tallies: Vec<Tally> = clients.into_iter().map(|c| c.tally).collect();

    let mut errors = Vec::new();
    let after = field_u64(&admin(&daemon.addr, &request_line(STATUS)), "interactions")
        .expect("status reports interactions");
    let stepped: u64 = tallies.iter().map(|t| t.stepped).sum();
    if after != before + stepped {
        errors.push(format!(
            "status.interactions {after} != {before} before + {stepped} acknowledged step budgets"
        ));
    }
    let writes: u64 = tallies.iter().map(|t| t.writes).sum();
    let (seq, snapshot_seq) = journal_position(&daemon.addr);
    if seq != seq_before + writes {
        errors.push(format!("journal seq {seq} != {seq_before} + {writes} acknowledged writes"));
    }
    if let Some(layers) = layers {
        server_layers(layers, &daemon.addr);
        client_layers(layers, &tallies);
        layers.set("setup.durable_boot_ms", durable_boot_s * 1e3);
        layers.set("registry.autosnaps", (snapshot_seq / AUTOSNAP_EVERY) as f64);
        let slices: u64 = tallies.iter().map(|t| t.slices).sum();
        layers.set("driver.slices", slices as f64);
    }
    daemon.stop();
    println!(
        "service_mixed: n = {MIXED_N}, writer step {MIXED_STEP} (corrupt k = {CORRUPT_K} every \
         {CORRUPT_EVERY}th) + reader status:leader = 3:1, fsync always, autosnapshot every \
         {AUTOSNAP_EVERY}"
    );
    outcome(median(&boots), peak, &tallies, wall, errors)
}
