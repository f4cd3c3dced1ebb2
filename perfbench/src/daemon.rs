//! The `daemon-sessions` workload: a closed loop of two connections to a
//! daemon process serving `amle_serve::Server` (the `amle-served` binary's
//! library entry, started as a child of this benchmark). Each connection
//! cycles through fresh sessions, one per system:
//! `open → (ingest + refine) × BATCHES → stats → close`.
//!
//! Every refine is checked twice: its `fingerprint_digest` must match its
//! `fingerprint`, and must equal the digest of an in-process
//! `amle_core::Session` replay of the same batches.

use crate::layers::{Layer, Spans, TimedLearner};
use crate::measure::{
    cpu_seconds, median, mix, ms, peak_rss_mb, percentile, permutation, reset_peak_rss,
};
use crate::{Metric, Outcome};
use amle_benchmarks::{benchmark_by_name, Benchmark};
use amle_core::{fingerprint_digest, ActiveLearnerConfig, OracleConfig, ParallelConfig, Session};
use amle_learner::HistoryLearner;
use amle_serve::json::{parse_json, Json};
use amle_serve::{Server, SessionSpec};
use amle_system::{wire, Simulator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Converging, non-exploding systems the sessions learn (see README.md for
/// why BangBang and AutomaticTransmission are left out).
const SYSTEMS: [&str; 5] = [
    "HomeClimateControlCooler",
    "MealyVendingMachine",
    "CountEvents",
    "LaunchAbortModeLogic",
    "CdPlayerModeManager",
];
/// Ingest + refine rounds per session, and the shape of each batch.
const BATCHES: usize = 4;
const BATCH_TRACES: usize = 8;
const BATCH_LENGTH: usize = 12;
/// Concurrent connections of the load generator.
const CONNECTIONS: usize = 2;
/// Daemon start-ups timed before the first pass; one more follows every
/// pass, and `setup_s` is the median of all.
const SETUP_REPS: usize = 5;
/// Pings sent to measure the transport floor in a traced run.
const PINGS: usize = 40;

/// Entry point of the daemon child process: binds an ephemeral port, prints
/// `listening on <addr>` and serves until a `shutdown` request.
pub fn serve() -> ExitCode {
    let server = match Server::bind("127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on a failure drops (kills and reaps) the child.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` over `conn` and waits (bounded) for the process to
    /// exit after draining its sessions.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let (response, _, _) = conn.request("{\"op\":\"shutdown\"}\n")?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown refused: {}", response.render()));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One protocol connection. `TCP_NODELAY` is set and each request line goes
/// out in one write, so the measured latency belongs to the server.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends `line` (newline included) and reads one response line; returns
    /// the response, the latency and the response size in bytes.
    fn request(&mut self, line: &str) -> Result<(Json, Duration, usize), String> {
        let start = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        let latency = start.elapsed();
        if self.line.is_empty() {
            return Err("daemon closed the connection".to_string());
        }
        let response =
            parse_json(self.line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
        Ok((response, latency, self.line.len()))
    }
}

#[derive(Debug, Clone, Copy)]
enum Verb {
    Open,
    Ingest,
    Refine,
    Stats,
    Close,
    Ping,
}

impl Verb {
    fn span(self) -> &'static str {
        match self {
            Verb::Open => "serve.open",
            Verb::Ingest => "serve.ingest",
            Verb::Refine => "serve.refine",
            Verb::Stats => "serve.stats",
            Verb::Close => "serve.close",
            Verb::Ping => "serve.ping",
        }
    }
}

/// One request as the client saw it.
struct Request {
    verb: Verb,
    start: Instant,
    latency: Duration,
}

/// What one connection observed during a pass.
#[derive(Default)]
struct ConnLog {
    requests: Vec<Request>,
    /// Session cycles: label, start, duration, and the index range of their
    /// requests in `requests`.
    cycles: Vec<(String, Instant, Duration, std::ops::Range<usize>)>,
    /// Refine digests per script, in batch order.
    digests: Vec<(usize, Vec<String>)>,
    response_bytes: u64,
    retries: u64,
    failed: u64,
}

impl ConnLog {
    fn latencies(&self, verb: fn(Verb) -> bool) -> impl Iterator<Item = f64> + '_ {
        self.requests
            .iter()
            .filter(move |r| verb(r.verb))
            .map(|r| ms(r.latency))
    }

    /// Sends a request, retrying retriable rejections (full queue, expired
    /// deadline) with backoff; a retried request's latency includes its
    /// earlier attempts and the backoff.
    fn call(&mut self, conn: &mut Conn, verb: Verb, line: &str) -> Result<Json, String> {
        let start = Instant::now();
        let mut waited = Duration::ZERO;
        for attempt in 1..=20u64 {
            let (response, latency, bytes) = conn.request(line)?;
            self.response_bytes += bytes as u64;
            waited += latency;
            if response.get("ok").and_then(Json::as_bool) == Some(true) {
                self.requests.push(Request {
                    verb,
                    start,
                    latency: waited,
                });
                return Ok(response);
            }
            if response.get("retriable").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{} rejected: {}", verb.span(), response.render()));
            }
            self.retries += 1;
            let backoff = Duration::from_millis(10 * attempt);
            std::thread::sleep(backoff);
            waited += backoff;
        }
        Err(format!("{} kept being rejected", verb.span()))
    }
}

/// One session's input: a system and its seeded trace batches.
struct Script {
    system: usize,
    batches: Vec<Vec<Trace>>,
    /// Each batch in wire form, rendered once.
    batch_json: Vec<String>,
}

impl Script {
    /// Generates the batches; returns the script and the simulation time.
    fn new(benchmark: &Benchmark, system: usize, seed: u64) -> (Script, Duration) {
        let mut rng = StdRng::seed_from_u64(seed);
        let simulator = Simulator::new(&benchmark.system);
        let mut simulate = Duration::ZERO;
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            let traces = simulator.random_traces(BATCH_TRACES, BATCH_LENGTH, &mut rng);
            simulate += start.elapsed();
            batches.push(traces.iter().cloned().collect::<Vec<_>>());
        }
        let batch_json = batches
            .iter()
            .map(|batch| {
                let traces: Json = batch
                    .iter()
                    .map(|trace| -> Json {
                        wire::trace_to_rows(trace)
                            .into_iter()
                            .map(|row| -> Json { row.into_iter().map(Json::from).collect() })
                            .collect()
                    })
                    .collect();
                traces.render()
            })
            .collect();
        let script = Script {
            system,
            batches,
            batch_json,
        };
        (script, simulate)
    }
}

/// Runs one session cycle; returns the refine digests.
fn cycle(
    conn: &mut Conn,
    log: &mut ConnLog,
    script: &Script,
    name: &str,
) -> Result<Vec<String>, String> {
    let system = SYSTEMS[script.system];
    log.call(
        conn,
        Verb::Open,
        &format!(
            "{{\"op\":\"open\",\"session\":\"{name}\",\"system\":\"{system}\",\"config\":{{\"workers\":1}}}}\n"
        ),
    )?;
    let mut digests = Vec::with_capacity(BATCHES);
    let outcome = (|| {
        for traces in &script.batch_json {
            log.call(
                conn,
                Verb::Ingest,
                &format!("{{\"op\":\"ingest\",\"session\":\"{name}\",\"traces\":{traces}}}\n"),
            )?;
            let refined = log.call(
                conn,
                Verb::Refine,
                &format!("{{\"op\":\"refine\",\"session\":\"{name}\"}}\n"),
            )?;
            let fingerprint = refined
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("");
            let digest = refined
                .get("fingerprint_digest")
                .and_then(Json::as_str)
                .unwrap_or("");
            if fingerprint_digest(fingerprint) != digest {
                return Err(format!(
                    "{name}: fingerprint_digest {digest} does not match the fingerprint"
                ));
            }
            digests.push(digest.to_string());
        }
        log.call(
            conn,
            Verb::Stats,
            &format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}\n"),
        )
        .map(|_| ())
    })();
    let closed = log.call(
        conn,
        Verb::Close,
        &format!("{{\"op\":\"close\",\"session\":\"{name}\"}}\n"),
    );
    outcome.and(closed).map(|_| digests)
}

/// Drives one connection through its scripts for one pass.
fn drive(conn: &mut Conn, scripts: &[Script], connection: usize, pass: usize) -> ConnLog {
    let mut log = ConnLog::default();
    for (index, script) in scripts.iter().enumerate() {
        let name = format!("p{pass}-c{connection}-{}", SYSTEMS[script.system]);
        let first_request = log.requests.len();
        let start = Instant::now();
        match cycle(conn, &mut log, script, &name) {
            Ok(digests) => log.digests.push((index, digests)),
            Err(e) => {
                eprintln!("{e}");
                log.failed += 1;
            }
        }
        let range = first_request..log.requests.len();
        log.cycles.push((name, start, start.elapsed(), range));
    }
    log
}

/// One pass: the connections run all their scripts concurrently (this
/// thread drives connection 0, a scoped thread connection 1).
fn run_pass(conns: &mut [Conn], scripts: &[Vec<Script>], pass: usize) -> (Duration, Vec<ConnLog>) {
    let start = Instant::now();
    let logs = match conns {
        [only] => vec![drive(only, &scripts[0], 0, pass)],
        [first, second] => std::thread::scope(|scope| {
            let other = scope.spawn(|| drive(second, &scripts[1], 1, pass));
            let mine = drive(first, &scripts[0], 0, pass);
            let theirs = other.join().unwrap_or_else(|_| ConnLog {
                failed: 1,
                ..ConnLog::default()
            });
            vec![mine, theirs]
        }),
        _ => unreachable!("the load generator uses one or two connections"),
    };
    (start.elapsed(), logs)
}

/// The configuration a daemon session runs with (`SessionSpec` defaults,
/// one condition worker), for the in-process replay.
fn session_config(benchmark: &Benchmark) -> ActiveLearnerConfig {
    let spec = SessionSpec::default();
    ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        k: benchmark.k,
        max_iterations: spec.max_iterations,
        max_spurious_rounds: spec.max_spurious_rounds,
        parallel: ParallelConfig::with_workers(1),
        oracle: OracleConfig {
            engine: spec.engine,
            verdict_cache: spec.verdict_cache,
            ..OracleConfig::default()
        },
        ..ActiveLearnerConfig::default()
    }
}

/// Replays a script through an in-process `Session`; returns the refine
/// digests and durations and folds the refinements into `layer`.
fn replay(
    script: &Script,
    benchmark: &Benchmark,
    layer: &mut Layer,
) -> Result<(Vec<String>, Vec<f64>), String> {
    let log = RefCell::new(Vec::new());
    let learner = TimedLearner::new(HistoryLearner::default(), &log);
    let mut session = Session::new(&benchmark.system, learner, session_config(benchmark));
    let (mut digests, mut refine_ms) = (Vec::new(), Vec::new());
    for batch in &script.batches {
        session.ingest(batch.iter().cloned());
        let start = Instant::now();
        let report = session
            .refine()
            .map_err(|e| format!("replay refine: {e}"))?;
        let elapsed = start.elapsed();
        layer.add_run(&report, elapsed, &std::mem::take(&mut *log.borrow_mut()));
        refine_ms.push(ms(elapsed));
        digests.push(fingerprint_digest(
            &report.semantic_fingerprint(benchmark.system.vars()),
        ));
    }
    Ok((digests, refine_ms))
}

/// Serve-layer metrics from the samples of a traced run.
struct ServeSamples {
    ping: Vec<f64>,
    open: Vec<f64>,
    close: Vec<f64>,
    refine: Vec<f64>,
    replay_refine: Vec<f64>,
    retries: u64,
    response_bytes: Vec<f64>,
}

impl ServeSamples {
    fn metrics(&self) -> Vec<Metric> {
        let session_refine = percentile(&self.replay_refine, 0.5);
        vec![
            ("serve.ping_p50_ms", percentile(&self.ping, 0.5), "ms"),
            ("serve.open_p50_ms", percentile(&self.open, 0.5), "ms"),
            ("serve.close_p50_ms", percentile(&self.close, 0.5), "ms"),
            (
                "serve.overhead_ms",
                percentile(&self.refine, 0.5) - session_refine,
                "ms",
            ),
            ("core.session_refine_ms", session_refine, "ms"),
            ("serve.retries", self.retries as f64, "count"),
            (
                "serve.response_bytes",
                median(&self.response_bytes),
                "bytes",
            ),
        ]
    }
}

/// Everything a daemon run produces.
struct DaemonRun {
    setup: Vec<f64>,
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    traced_cpu: Vec<f64>,
    /// Response bytes of each traced pass.
    traced_bytes: Vec<f64>,
    logs: Vec<(bool, ConnLog)>,
    pings: ConnLog,
    /// Peak RSS of the daemon during each pass.
    peaks: Vec<f64>,
    requests: u64,
    failed: u64,
    layer: Layer,
    replay_refine: Vec<f64>,
}

/// Set-up: builds the systems, starts a daemon and waits for its first
/// `ping` to be answered. Returns the time that took, the systems (in
/// `SYSTEMS` order), the daemon and the connection that pinged it.
fn start() -> Result<(f64, Vec<Benchmark>, Daemon, Conn), String> {
    let start = Instant::now();
    let benchmarks = SYSTEMS
        .iter()
        .map(|name| benchmark_by_name(name).ok_or_else(|| format!("unknown system {name}")))
        .collect::<Result<Vec<_>, _>>()?;
    let daemon = Daemon::spawn()?;
    let mut conn = Conn::connect(&daemon.addr)?;
    let (pong, _, _) = conn.request("{\"op\":\"ping\"}\n")?;
    if pong.get("pong").and_then(Json::as_bool) != Some(true) {
        return Err(format!("unexpected ping reply {}", pong.render()));
    }
    Ok((start.elapsed().as_secs_f64(), benchmarks, daemon, conn))
}

/// Starts the daemon (timed `SETUP_REPS` times, and once more after each
/// pass, so set-up is sampled across the whole run), then runs passes in which
/// each connection cycles one session per system of `systems`, until
/// `seconds` have passed (and at least two passes when tracing). Then it
/// pings `pings` times, shuts the daemon down and replays every session
/// in-process.
fn drive_daemon(
    seed: u64,
    seconds: f64,
    trace: bool,
    connections: usize,
    systems: &[usize],
    pings: usize,
    spans: &mut Spans,
) -> Result<DaemonRun, String> {
    let mut setup = Vec::new();
    for _ in 1..SETUP_REPS {
        let (setup_s, _, daemon, mut conn) = start()?;
        setup.push(setup_s);
        daemon.shutdown(&mut conn)?;
    }
    let (setup_s, benchmarks, daemon, first_conn) = start()?;
    setup.push(setup_s);

    let mut layer = Layer::default();
    let scripts: Vec<Vec<Script>> = (0..connections)
        .map(|c| {
            let order = permutation(systems.len(), mix(seed, 10 + c as u64));
            order
                .into_iter()
                .map(|i| {
                    let system = systems[i];
                    let script_seed = mix(seed, 100 + (c * SYSTEMS.len() + system) as u64);
                    let (script, simulate) = Script::new(&benchmarks[system], system, script_seed);
                    layer.simulate_s += simulate.as_secs_f64();
                    script
                })
                .collect()
        })
        .collect();
    let mut conns = vec![first_conn];
    for _ in 1..connections {
        conns.push(Conn::connect(&daemon.addr)?);
    }

    let mut run = DaemonRun {
        setup,
        walls: Vec::new(),
        traced_walls: Vec::new(),
        untraced_walls: Vec::new(),
        traced_cpu: Vec::new(),
        traced_bytes: Vec::new(),
        logs: Vec::new(),
        pings: ConnLog::default(),
        peaks: Vec::new(),
        requests: 0,
        failed: 0,
        layer,
        replay_refine: Vec::new(),
    };
    // Refine digests per (connection, script), fixed by the first pass.
    let mut first_digests: Vec<Vec<Option<Vec<String>>>> = scripts
        .iter()
        .map(|s| s.iter().map(|_| None).collect())
        .collect();
    let clock = Instant::now();
    let min_passes = if trace { 2 } else { 1 };
    for pass in 0.. {
        if pass >= min_passes && clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = trace && pass % 2 == 1;
        reset_peak_rss(daemon.pid());
        let cpu_before = cpu_seconds(daemon.pid()).unwrap_or(0.0);
        let (wall, logs) = run_pass(&mut conns, &scripts, pass);
        let cpu = cpu_seconds(daemon.pid()).unwrap_or(0.0) - cpu_before;
        run.peaks
            .push(peak_rss_mb(daemon.pid()).ok_or("cannot read the daemon's VmHWM")?);
        let wall = wall.as_secs_f64();
        run.walls.push(wall);
        if traced {
            run.traced_walls.push(wall);
            run.traced_cpu.push(cpu);
            run.traced_bytes
                .push(logs.iter().map(|l| l.response_bytes as f64).sum());
        } else if pass > 0 || !trace {
            run.untraced_walls.push(wall);
        }
        for (connection, log) in logs.into_iter().enumerate() {
            run.requests += log.requests.len() as u64 + log.failed;
            run.failed += log.failed;
            for (script, digests) in &log.digests {
                let slot = &mut first_digests[connection][*script];
                match slot {
                    None => *slot = Some(digests.clone()),
                    Some(first) if first == digests => {}
                    Some(_) => {
                        eprintln!("connection {connection} script {script}: digests changed between passes");
                        run.failed += 1;
                    }
                }
            }
            if traced {
                for (label, start, dur, range) in &log.cycles {
                    let root = spans.push(0, "serve.session", label, Some(*start), *dur);
                    for request in &log.requests[range.clone()] {
                        spans.push(
                            root,
                            request.verb.span(),
                            label,
                            Some(request.start),
                            request.latency,
                        );
                    }
                }
            }
            run.logs.push((traced, log));
        }
        let (setup_s, _, extra, mut conn) = start()?;
        run.setup.push(setup_s);
        extra.shutdown(&mut conn)?;
    }
    for _ in 0..pings {
        run.pings
            .call(&mut conns[0], Verb::Ping, "{\"op\":\"ping\"}\n")?;
        run.requests += 1;
    }
    let mut conn = conns.swap_remove(0);
    drop(conns);
    daemon.shutdown(&mut conn)?;

    // The in-process replay: same system, same config, same batches.
    for (connection, scripts) in scripts.iter().enumerate() {
        for (index, script) in scripts.iter().enumerate() {
            let (digests, refine_ms) = replay(script, &benchmarks[script.system], &mut run.layer)?;
            run.replay_refine.extend(refine_ms);
            if let Some(served) = &first_digests[connection][index] {
                if *served != digests {
                    eprintln!(
                        "{}: daemon digests {served:?} != in-process replay {digests:?}",
                        SYSTEMS[script.system]
                    );
                    run.failed += 1;
                }
            }
        }
    }
    Ok(run)
}

impl DaemonRun {
    fn samples(&self, verb: fn(Verb) -> bool, traced_only: bool) -> Vec<f64> {
        self.logs
            .iter()
            .filter(|(traced, _)| *traced || !traced_only)
            .flat_map(|(_, log)| log.latencies(verb))
            .collect()
    }

    fn serve_samples(&self) -> ServeSamples {
        ServeSamples {
            ping: self.pings.latencies(|v| matches!(v, Verb::Ping)).collect(),
            open: self.samples(|v| matches!(v, Verb::Open), true),
            close: self.samples(|v| matches!(v, Verb::Close), true),
            refine: self.samples(|v| matches!(v, Verb::Refine), true),
            replay_refine: self.replay_refine.clone(),
            retries: self.logs.iter().map(|(_, l)| l.retries).sum::<u64>() + self.pings.retries,
            response_bytes: self.traced_bytes.clone(),
        }
    }
}

/// The `daemon-sessions` workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let systems: Vec<usize> = (0..SYSTEMS.len()).collect();
    let pings = if trace { PINGS } else { 0 };
    let mut run = drive_daemon(
        seed,
        seconds,
        trace,
        CONNECTIONS,
        &systems,
        pings,
        &mut spans,
    )?;
    let metrics = if trace {
        if run.untraced_walls.is_empty() {
            run.untraced_walls.push(run.walls[0]);
        }
        let mut metrics = Layer::metrics(std::slice::from_ref(&run.layer), &run.layer);
        metrics.extend(run.serve_samples().metrics());
        metrics.push(("process.cpu_s", median(&run.traced_cpu), "s"));
        metrics.push((
            "tracing.overhead_s",
            median(&run.traced_walls) - median(&run.untraced_walls),
            "s",
        ));
        let path = spans
            .write(workload, seed)
            .map_err(|e| format!("cannot write spans: {e}"))?;
        eprintln!("spans written to {}", path.display());
        metrics
    } else {
        let refine = run.samples(|v| matches!(v, Verb::Refine), false);
        let ingest = run.samples(|v| matches!(v, Verb::Ingest), false);
        let completed: f64 = run.logs.iter().map(|(_, l)| l.requests.len() as f64).sum();
        vec![
            ("wall_s", median(&run.walls), "s"),
            ("setup_s", median(&run.setup), "s"),
            ("peak_rss_mb", median(&run.peaks), "MiB"),
            ("refine_p50_ms", percentile(&refine, 0.5), "ms"),
            ("refine_p95_ms", percentile(&refine, 0.95), "ms"),
            ("ingest_p50_ms", percentile(&ingest, 0.5), "ms"),
            ("ingest_p95_ms", percentile(&ingest, 0.95), "ms"),
            (
                "requests_per_s",
                completed / run.walls.iter().sum::<f64>(),
                "1/s",
            ),
        ]
    };
    eprintln!(
        "{workload}: {} passes, {} requests",
        run.walls.len(),
        run.requests
    );
    Ok(Outcome {
        correct: run.failed == 0,
        attempted: run.requests,
        failed: run.failed,
        metrics,
    })
}

/// The serve layer's figures for a suite workload's traced run, which never
/// touches the daemon: one connection, one cooler session cycle and the
/// ping floor.
pub struct Probe {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn probe(seed: u64) -> Result<Probe, String> {
    let mut spans = Spans::new();
    let run = drive_daemon(seed, 0.0, true, 1, &[0], PINGS, &mut spans)?;
    Ok(Probe {
        attempted: run.requests,
        failed: run.failed,
        metrics: run.serve_samples().metrics(),
    })
}
