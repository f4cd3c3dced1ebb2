//! The per-session actor: a thread owning one resident [`Session`].
//!
//! A protocol session's learning state borrows the `System` it learns
//! (`Session<'a, _>`), so it cannot be parked in a shared registry; instead
//! each session runs as an *actor* — a thread that builds the system on its
//! own stack and processes commands from a **bounded** queue. The bound is
//! the backpressure seam: when the queue is full, the serving layer rejects
//! the request with a retriable error instead of blocking the accept loop
//! behind a long refinement.
//!
//! Dropping every sender of the queue is the graceful-shutdown signal: the
//! channel delivers all buffered commands before disconnecting, so an actor
//! drains in-flight work (refinements included) and then exits.

use crate::json::{obj, Json};
use amle_automaton::{display_expr, Nfa};
use amle_benchmarks::{benchmark_by_name, Benchmark};
use amle_core::{
    fingerprint_digest, ActiveLearnerConfig, InternerStats, OracleKind, ParallelConfig, Session,
    SessionStats,
};
use amle_learner::LearnerKind;
use amle_system::wire;
use amle_system::System;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Default bound of a session's command queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default per-request deadline in milliseconds.
pub const DEFAULT_REQUEST_TIMEOUT_MS: u64 = 120_000;

/// Largest condition-engine worker count a session may ask for. The actor
/// builds one oracle per worker up front, so the count is refused above
/// this bound rather than clamped or left to exhaust memory.
pub const MAX_WORKERS: usize = 64;

/// Largest k-induction bound a session may ask for, about ten times the
/// largest benchmark `k`. The checker encodes `k` transition frames per
/// spurious check, so the bound is refused above this cap rather than left
/// to exhaust memory.
pub const MAX_K: usize = 256;

/// The configuration of one protocol session, parsed from the `open` verb's
/// `config` object (and embedded verbatim in snapshot files).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Benchmark name of the system under learning.
    pub system: String,
    /// k-induction bound, 1 to [`MAX_K`]; `None` uses the benchmark's own
    /// `k`.
    pub k: Option<usize>,
    /// Iteration budget per `refine` call.
    pub max_iterations: usize,
    /// Spurious-counterexample bound per condition.
    pub max_spurious_rounds: usize,
    /// Condition-engine worker count, 1 to [`MAX_WORKERS`].
    pub workers: usize,
    /// Learner kind name (one of [`LearnerKind::NAMES`]).
    pub learner: String,
    /// Condition-oracle engine.
    pub engine: OracleKind,
    /// Whether the cross-iteration verdict cache is on.
    pub verdict_cache: bool,
    /// Command-queue bound (backpressure threshold).
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds.
    pub request_timeout_ms: u64,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            system: String::new(),
            k: None,
            max_iterations: 25,
            max_spurious_rounds: 10,
            workers: 1,
            learner: "history".to_string(),
            engine: OracleKind::default(),
            verdict_cache: true,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            request_timeout_ms: DEFAULT_REQUEST_TIMEOUT_MS,
        }
    }
}

impl SessionSpec {
    /// Parses a spec from the `open` verb: the system name plus an optional
    /// `config` object.
    pub fn from_request(system: String, config: Option<&Json>) -> Result<SessionSpec, String> {
        let mut spec = SessionSpec {
            system,
            ..SessionSpec::default()
        };
        if benchmark_by_name(&spec.system).is_none() {
            return Err(format!("unknown system `{}`", spec.system));
        }
        let Some(config) = config else {
            return Ok(spec);
        };
        let field_usize = |key: &str| -> Result<Option<usize>, String> {
            match config.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(|n| Some(n as usize))
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
            }
        };
        spec.k = field_usize("k")?;
        if matches!(spec.k, Some(k) if k == 0 || k > MAX_K) {
            return Err(format!("`k` must be between 1 and {MAX_K}"));
        }
        if let Some(n) = field_usize("max_iterations")? {
            spec.max_iterations = n.max(1);
        }
        if let Some(n) = field_usize("max_spurious_rounds")? {
            spec.max_spurious_rounds = n.max(1);
        }
        if let Some(n) = field_usize("workers")? {
            if n > MAX_WORKERS {
                return Err(format!("`workers` must be at most {MAX_WORKERS}"));
            }
            spec.workers = n.max(1);
        }
        if let Some(n) = field_usize("queue_capacity")? {
            spec.queue_capacity = n.clamp(1, 4096);
        }
        if let Some(n) = field_usize("request_timeout_ms")? {
            spec.request_timeout_ms = (n as u64).max(1);
        }
        if let Some(v) = config.get("learner") {
            let name = v.as_str().ok_or("`learner` must be a string")?;
            make_learner(name)?; // validate eagerly
            spec.learner = name.to_string();
        }
        if let Some(v) = config.get("engine") {
            let name = v.as_str().ok_or("`engine` must be a string")?;
            spec.engine = OracleKind::from_name(name)
                .ok_or_else(|| format!("unknown engine `{name}` (kinduction|portfolio)"))?;
        }
        if let Some(v) = config.get("no_cache") {
            spec.verdict_cache = !v.as_bool().ok_or("`no_cache` must be a boolean")?;
        }
        Ok(spec)
    }

    /// The spec as a JSON object (the snapshot file's `config` field).
    pub fn to_json(&self) -> Json {
        obj([
            ("system", Json::from(self.system.as_str())),
            ("k", self.k.map(Json::from).unwrap_or(Json::Null)),
            ("max_iterations", Json::from(self.max_iterations)),
            ("max_spurious_rounds", Json::from(self.max_spurious_rounds)),
            ("workers", Json::from(self.workers)),
            ("learner", Json::from(self.learner.as_str())),
            ("engine", Json::from(self.engine.name())),
            ("no_cache", Json::from(!self.verdict_cache)),
            ("queue_capacity", Json::from(self.queue_capacity)),
            ("request_timeout_ms", Json::from(self.request_timeout_ms)),
        ])
    }

    /// Parses a spec back out of a snapshot file's `config` object.
    pub fn from_json(config: &Json) -> Result<SessionSpec, String> {
        let system = config
            .get("system")
            .and_then(Json::as_str)
            .ok_or("snapshot config lacks `system`")?
            .to_string();
        SessionSpec::from_request(system, Some(config))
    }

    fn learner_config(&self, benchmark: &Benchmark) -> ActiveLearnerConfig {
        ActiveLearnerConfig {
            observables: Some(benchmark.observables.clone()),
            k: self.k.unwrap_or(benchmark.k),
            max_iterations: self.max_iterations,
            max_spurious_rounds: self.max_spurious_rounds,
            parallel: ParallelConfig::with_workers(self.workers),
            oracle: amle_core::OracleConfig {
                engine: self.engine,
                verdict_cache: self.verdict_cache,
                ..amle_core::OracleConfig::default()
            },
            ..ActiveLearnerConfig::default()
        }
    }
}

/// Builds a fresh learner of the named kind.
fn make_learner(name: &str) -> Result<LearnerKind, String> {
    LearnerKind::from_name(name).ok_or_else(|| {
        format!(
            "unknown learner `{name}` ({})",
            LearnerKind::NAMES.join("|")
        )
    })
}

/// One replayable session operation (the snapshot file's event log).
#[derive(Debug, Clone)]
pub enum ReplayOp {
    /// A trace batch, as raw wire rows.
    Ingest(Vec<Vec<Vec<i64>>>),
    /// A completed refinement.
    Refine,
}

/// A subscriber's write half: events interleave with the connection's own
/// responses, so every write goes through the shared mutex.
pub type EventSink = Arc<Mutex<TcpStream>>;

/// A command delivered to a session actor. Every variant carries a reply
/// channel; the serving layer waits on it with the request's deadline.
pub enum Command {
    /// Fold a batch of wire-encoded traces into the store.
    Ingest {
        /// The batch, one row matrix per trace.
        traces: Vec<Vec<Vec<i64>>>,
        /// Reply channel.
        reply: Sender<Json>,
    },
    /// Run the refinement loop over the current store.
    Refine {
        /// Reply channel.
        reply: Sender<Json>,
    },
    /// Render the current model.
    Model {
        /// `"dot"` or `"json"`.
        format: String,
        /// Reply channel.
        reply: Sender<Json>,
    },
    /// Report the session's cumulative counters.
    Stats {
        /// Reply channel.
        reply: Sender<Json>,
    },
    /// Serialize the session's replay log to a file.
    Snapshot {
        /// Destination path.
        path: String,
        /// Reply channel.
        reply: Sender<Json>,
    },
    /// Attach a model-delta subscriber.
    Subscribe {
        /// The subscriber connection's write half.
        sink: EventSink,
        /// Reply channel.
        reply: Sender<Json>,
    },
    /// Diagnostics: hold the actor busy for a bounded interval so tests can
    /// fill the command queue deterministically.
    Sleep {
        /// Busy interval in milliseconds (capped at 5000).
        ms: u64,
        /// Reply channel.
        reply: Sender<Json>,
    },
}

/// The serving layer's handle to a running actor.
pub struct SessionHandle {
    /// The bounded command queue. `try_send` full ⇒ backpressure.
    pub tx: SyncSender<Command>,
    /// The actor thread; joined on `close` and on daemon shutdown.
    pub join: JoinHandle<()>,
    /// The session's spec (for `stats` and error messages).
    pub spec: SessionSpec,
}

/// What a successfully started actor reports back after replay.
#[derive(Debug, Clone)]
pub struct ReadyInfo {
    /// Replayed ingest batches.
    pub replayed_ingests: usize,
    /// Replayed refinements.
    pub replayed_refines: usize,
    /// Digest of the latest refinement's fingerprint, if any.
    pub last_fingerprint_digest: Option<String>,
}

/// Spawns a session actor, replaying `replay` first (empty for a fresh
/// `open`) and returning its [`ReadyInfo`] replay summary. Blocks until the
/// actor finished replaying; a replay failure or a store-digest mismatch
/// tears the actor down and is returned as `Err`.
pub fn spawn_session(
    name: String,
    spec: SessionSpec,
    replay: Vec<ReplayOp>,
    expected_store_digest: Option<String>,
) -> Result<(SessionHandle, ReadyInfo), String> {
    let benchmark = benchmark_by_name(&spec.system)
        .ok_or_else(|| format!("unknown system `{}`", spec.system))?;
    make_learner(&spec.learner)?;
    let (tx, rx) = mpsc::sync_channel(spec.queue_capacity);
    let (ready_tx, ready_rx) = mpsc::channel();
    let actor_spec = spec.clone();
    let join = std::thread::Builder::new()
        .name(format!("session-{name}"))
        .spawn(move || {
            actor_main(
                name,
                actor_spec,
                benchmark,
                replay,
                expected_store_digest,
                rx,
                ready_tx,
            )
        })
        .map_err(|e| format!("cannot spawn session thread: {e}"))?;
    match ready_rx.recv() {
        Ok(Ok(info)) => Ok((SessionHandle { tx, join, spec }, info)),
        Ok(Err(reason)) => {
            drop(tx);
            let _ = join.join();
            Err(reason)
        }
        Err(_) => {
            let _ = join.join();
            Err("session actor died during startup".to_string())
        }
    }
}

/// State the actor keeps besides the [`Session`] itself.
struct ActorState {
    name: String,
    ops_log: Vec<ReplayOp>,
    subscribers: Vec<EventSink>,
    last_fingerprint: Option<String>,
    last_model: Option<Nfa>,
}

fn actor_main(
    name: String,
    spec: SessionSpec,
    benchmark: Benchmark,
    replay: Vec<ReplayOp>,
    expected_store_digest: Option<String>,
    rx: Receiver<Command>,
    ready: Sender<Result<ReadyInfo, String>>,
) {
    // The system lives on the actor's stack: `Session` borrows it, which is
    // why sessions are threads rather than entries in a shared map.
    let system = benchmark.system.clone();
    let config = spec.learner_config(&benchmark);
    let learner = match make_learner(&spec.learner) {
        Ok(l) => l,
        Err(reason) => {
            let _ = ready.send(Err(reason));
            return;
        }
    };
    let mut session = Session::new(&system, learner, config);
    let mut state = ActorState {
        name,
        ops_log: Vec::new(),
        subscribers: Vec::new(),
        last_fingerprint: None,
        last_model: None,
    };

    // Replay the snapshot's event log: same system, same config, same
    // batches in the same order ⇒ the deterministic pipeline reproduces the
    // exact pre-snapshot state (store contents, learner state, verdict
    // cache), which the store digest then witnesses.
    let mut info = ReadyInfo {
        replayed_ingests: 0,
        replayed_refines: 0,
        last_fingerprint_digest: None,
    };
    for op in replay {
        match op {
            ReplayOp::Ingest(traces) => {
                let response = do_ingest(&mut session, &mut state, &system, traces);
                if response.get("ok") != Some(&Json::Bool(true)) {
                    let reason = response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("replay failed")
                        .to_string();
                    let _ = ready.send(Err(format!("replay ingest failed: {reason}")));
                    return;
                }
                info.replayed_ingests += 1;
            }
            ReplayOp::Refine => {
                let response = do_refine(&mut session, &mut state, &system);
                if response.get("ok") != Some(&Json::Bool(true)) {
                    let reason = response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("replay failed")
                        .to_string();
                    let _ = ready.send(Err(format!("replay refine failed: {reason}")));
                    return;
                }
                info.replayed_refines += 1;
            }
        }
    }
    if let Some(expected) = expected_store_digest {
        let actual = wire::rows_digest(&wire::store_rows(session.store()));
        if actual != expected {
            let _ = ready.send(Err(format!(
                "snapshot integrity check failed: store digest {actual} != recorded {expected}"
            )));
            return;
        }
    }
    info.last_fingerprint_digest = state.last_fingerprint.as_deref().map(fingerprint_digest);
    let _ = ready.send(Ok(info));

    // The command loop. `recv` returns `Err` only once every sender is gone
    // *and* the buffered commands are drained — that is the graceful
    // shutdown contract.
    while let Ok(command) = rx.recv() {
        match command {
            Command::Ingest { traces, reply } => {
                let response = do_ingest(&mut session, &mut state, &system, traces);
                let _ = reply.send(response);
            }
            Command::Refine { reply } => {
                let response = do_refine(&mut session, &mut state, &system);
                let _ = reply.send(response);
            }
            Command::Model { format, reply } => {
                let _ = reply.send(do_model(&state, &system, &format));
            }
            Command::Stats { reply } => {
                let _ = reply.send(do_stats(&session, &state, &spec));
            }
            Command::Snapshot { path, reply } => {
                let _ = reply.send(do_snapshot(&session, &state, &spec, &path));
            }
            Command::Subscribe { sink, reply } => {
                state.subscribers.push(sink);
                let _ = reply.send(obj([
                    ("ok", Json::Bool(true)),
                    ("subscribed", Json::from(state.name.as_str())),
                    (
                        "fingerprint_digest",
                        state
                            .last_fingerprint
                            .as_deref()
                            .map(|fp| Json::from(fingerprint_digest(fp)))
                            .unwrap_or(Json::Null),
                    ),
                ]));
            }
            Command::Sleep { ms, reply } => {
                std::thread::sleep(std::time::Duration::from_millis(ms.min(5000)));
                let _ = reply.send(obj([
                    ("ok", Json::Bool(true)),
                    ("slept_ms", Json::from(ms)),
                ]));
            }
        }
    }
}

fn error_response(message: String, retriable: bool) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(message)),
        ("retriable", Json::Bool(retriable)),
    ])
}

fn do_ingest(
    session: &mut Session<'_, LearnerKind>,
    state: &mut ActorState,
    system: &System,
    traces: Vec<Vec<Vec<i64>>>,
) -> Json {
    let mut decoded = Vec::with_capacity(traces.len());
    for (i, rows) in traces.iter().enumerate() {
        match wire::trace_from_rows(system.vars(), rows) {
            Ok(trace) if !trace.is_empty() => decoded.push(trace),
            Ok(_) => return error_response(format!("trace {i} is empty"), false),
            Err(e) => return error_response(format!("trace {i}: {e}"), false),
        }
    }
    let outcome = session.ingest(decoded);
    state.ops_log.push(ReplayOp::Ingest(traces));
    obj([
        ("ok", Json::Bool(true)),
        ("accepted", Json::from(outcome.accepted)),
        ("duplicates", Json::from(outcome.duplicates)),
        ("traces", Json::from(session.trace_count())),
    ])
}

fn do_refine(
    session: &mut Session<'_, LearnerKind>,
    state: &mut ActorState,
    system: &System,
) -> Json {
    let report = match session.refine() {
        Ok(report) => report,
        Err(e) => return error_response(e.to_string(), false),
    };
    let fingerprint = report.semantic_fingerprint(system.vars());
    let digest = fingerprint_digest(&fingerprint);
    state.ops_log.push(ReplayOp::Refine);
    state.last_fingerprint = Some(fingerprint.clone());
    state.last_model = Some(report.abstraction.clone());

    // Push the model delta to every subscriber; a dead sink is dropped.
    let event = obj([
        ("event", Json::from("refinement")),
        ("session", Json::from(state.name.as_str())),
        ("alpha", Json::Number(report.alpha)),
        ("converged", Json::Bool(report.converged)),
        ("iterations", Json::from(report.iterations)),
        ("fingerprint_digest", Json::from(digest.as_str())),
        ("fingerprint", Json::from(fingerprint.as_str())),
        ("dot", Json::from(report.abstraction.to_dot(system.vars()))),
    ])
    .render();
    state.subscribers.retain(|sink| {
        let Ok(mut stream) = sink.lock() else {
            return false;
        };
        stream
            .write_all(event.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .is_ok()
    });

    obj([
        ("ok", Json::Bool(true)),
        ("alpha", Json::Number(report.alpha)),
        ("converged", Json::Bool(report.converged)),
        ("iterations", Json::from(report.iterations)),
        ("states", Json::from(report.abstraction.num_states())),
        (
            "transitions",
            Json::from(report.abstraction.num_transitions()),
        ),
        ("traces", Json::from(session.trace_count())),
        ("fingerprint", Json::from(fingerprint)),
        ("fingerprint_digest", Json::from(digest)),
    ])
}

fn do_model(state: &ActorState, system: &System, format: &str) -> Json {
    let Some(model) = &state.last_model else {
        return error_response("no model yet: refine first".to_string(), false);
    };
    match format {
        "dot" => obj([
            ("ok", Json::Bool(true)),
            ("format", Json::from("dot")),
            ("dot", Json::from(model.to_dot(system.vars()))),
        ]),
        "json" => {
            let transitions: Json = model
                .transitions()
                .iter()
                .map(|t| {
                    obj([
                        ("from", Json::from(t.from.index())),
                        ("to", Json::from(t.to.index())),
                        ("guard", Json::from(display_expr(&t.guard, system.vars()))),
                    ])
                })
                .collect();
            let initial: Json = model
                .initial_states()
                .map(|s| Json::from(s.index()))
                .collect();
            obj([
                ("ok", Json::Bool(true)),
                ("format", Json::from("json")),
                ("states", Json::from(model.num_states())),
                ("initial", initial),
                ("transitions", transitions),
            ])
        }
        other => error_response(format!("unknown model format `{other}` (dot|json)"), false),
    }
}

fn stats_json(stats: &SessionStats) -> [(&'static str, Json); 3] {
    [
        (
            "store",
            obj([
                ("traces", Json::from(stats.store.traces)),
                (
                    "unique_observations",
                    Json::from(stats.store.unique_observations),
                ),
                ("segments", Json::from(stats.store.segments)),
                (
                    "stored_observations",
                    Json::from(stats.store.stored_observations),
                ),
                (
                    "shared_observations",
                    Json::from(stats.store.shared_observations),
                ),
            ]),
        ),
        (
            "verdict_cache",
            obj([
                ("hits", Json::from(stats.verdict_cache.hits)),
                ("misses", Json::from(stats.verdict_cache.misses)),
                ("entries", Json::from(stats.verdict_cache.entries)),
            ]),
        ),
        (
            "checker",
            obj([
                (
                    "condition_checks",
                    Json::from(stats.checker.condition_checks),
                ),
                ("spurious_checks", Json::from(stats.checker.spurious_checks)),
                (
                    "kinduction_queries",
                    Json::from(stats.checker.kinduction_queries),
                ),
                (
                    "explicit_queries",
                    Json::from(stats.checker.explicit_queries),
                ),
                ("solve_calls", Json::from(stats.checker.solver.solve_calls)),
                ("conflicts", Json::from(stats.checker.solver.conflicts)),
                (
                    "propagations",
                    Json::from(stats.checker.solver.propagations),
                ),
            ]),
        ),
    ]
}

fn do_stats(session: &Session<'_, LearnerKind>, state: &ActorState, spec: &SessionSpec) -> Json {
    let stats = session.stats();
    let [store, cache, checker] = stats_json(&stats);
    // The expression interner is process-global and never shrinks; a
    // resident daemon must watch it as a gauge, not per-session deltas.
    let interner = InternerStats::snapshot();
    obj([
        ("ok", Json::Bool(true)),
        ("session", Json::from(state.name.as_str())),
        ("system", Json::from(spec.system.as_str())),
        ("workers", Json::from(spec.workers)),
        ("engine", Json::from(spec.engine.name())),
        ("learner", Json::from(spec.learner.as_str())),
        ("ingested_traces", Json::from(stats.ingested_traces)),
        ("duplicate_traces", Json::from(stats.duplicate_traces)),
        ("refinements", Json::from(stats.refinements)),
        ("subscribers", Json::from(state.subscribers.len())),
        store,
        cache,
        checker,
        (
            "interner_gauge",
            obj([
                ("nodes_interned", Json::from(interner.nodes_interned)),
                ("hits", Json::from(interner.hits)),
                (
                    "canonical_rewrites",
                    Json::from(interner.canonical_rewrites),
                ),
            ]),
        ),
    ])
}

/// Snapshot file schema version.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// Snapshot file `kind` marker.
pub const SNAPSHOT_KIND: &str = "amle-session-snapshot";

fn do_snapshot(
    session: &Session<'_, LearnerKind>,
    state: &ActorState,
    spec: &SessionSpec,
    path: &str,
) -> Json {
    let ops: Json = state
        .ops_log
        .iter()
        .map(|op| match op {
            ReplayOp::Ingest(traces) => {
                let traces: Json = traces
                    .iter()
                    .map(|rows| -> Json {
                        rows.iter()
                            .map(|row| -> Json { row.iter().map(|v| Json::from(*v)).collect() })
                            .collect()
                    })
                    .collect();
                obj([("op", Json::from("ingest")), ("traces", traces)])
            }
            ReplayOp::Refine => obj([("op", Json::from("refine"))]),
        })
        .collect();
    let store_digest = wire::rows_digest(&wire::store_rows(session.store()));
    let doc = obj([
        ("schema", Json::from(SNAPSHOT_SCHEMA)),
        ("kind", Json::from(SNAPSHOT_KIND)),
        ("config", spec.to_json()),
        ("store_digest", Json::from(store_digest.as_str())),
        (
            "last_fingerprint_digest",
            state
                .last_fingerprint
                .as_deref()
                .map(|fp| Json::from(fingerprint_digest(fp)))
                .unwrap_or(Json::Null),
        ),
        ("ops", ops),
    ]);
    match std::fs::write(path, doc.render() + "\n") {
        Ok(()) => obj([
            ("ok", Json::Bool(true)),
            ("path", Json::from(path)),
            ("store_digest", Json::from(store_digest)),
            ("ops", Json::from(state.ops_log.len())),
        ]),
        Err(e) => error_response(format!("cannot write snapshot to {path}: {e}"), false),
    }
}

/// Parses a snapshot file into its spec, replay log and recorded store
/// digest.
pub fn parse_snapshot(text: &str) -> Result<(SessionSpec, Vec<ReplayOp>, String), String> {
    let doc = crate::json::parse_json(text)?;
    if doc.get("kind").and_then(Json::as_str) != Some(SNAPSHOT_KIND) {
        return Err("not an amle session snapshot".to_string());
    }
    let schema = doc.get("schema").and_then(Json::as_u64).unwrap_or(0);
    if schema != SNAPSHOT_SCHEMA {
        return Err(format!("unsupported snapshot schema {schema}"));
    }
    let spec = SessionSpec::from_json(
        doc.get("config")
            .ok_or("snapshot lacks a `config` object")?,
    )?;
    let store_digest = doc
        .get("store_digest")
        .and_then(Json::as_str)
        .ok_or("snapshot lacks `store_digest`")?
        .to_string();
    let ops_json = doc
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("snapshot lacks an `ops` array")?;
    let mut ops = Vec::with_capacity(ops_json.len());
    for (i, op) in ops_json.iter().enumerate() {
        match op.get("op").and_then(Json::as_str) {
            Some("ingest") => {
                let traces = op
                    .get("traces")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("ops[{i}]: ingest lacks `traces`"))?;
                ops.push(ReplayOp::Ingest(decode_trace_batch(traces)?));
            }
            Some("refine") => ops.push(ReplayOp::Refine),
            other => return Err(format!("ops[{i}]: unknown op {other:?}")),
        }
    }
    Ok((spec, ops, store_digest))
}

/// Decodes the protocol's trace-batch shape (array of row matrices of
/// integers) into wire rows.
pub fn decode_trace_batch(traces: &[Json]) -> Result<Vec<Vec<Vec<i64>>>, String> {
    let mut batch = Vec::with_capacity(traces.len());
    for (t, trace) in traces.iter().enumerate() {
        let rows = trace
            .as_array()
            .ok_or_else(|| format!("trace {t} is not an array of rows"))?;
        let mut matrix = Vec::with_capacity(rows.len());
        for (r, row) in rows.iter().enumerate() {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("trace {t} row {r} is not an array"))?;
            let mut values = Vec::with_capacity(cells.len());
            for (c, cell) in cells.iter().enumerate() {
                values
                    .push(cell.as_i64().ok_or_else(|| {
                        format!("trace {t} row {r} column {c} is not an integer")
                    })?);
            }
            matrix.push(values);
        }
        batch.push(matrix);
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SessionSpec {
            system: "HomeClimateControlCooler".to_string(),
            k: Some(4),
            max_iterations: 9,
            max_spurious_rounds: 3,
            workers: 2,
            learner: "ktails".to_string(),
            engine: OracleKind::KInduction,
            verdict_cache: false,
            queue_capacity: 7,
            request_timeout_ms: 1234,
        };
        let parsed = SessionSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn spec_rejects_unknown_names() {
        let err = SessionSpec::from_request("NoSuchSystem".to_string(), None).unwrap_err();
        assert!(err.contains("unknown system"));
        for learner in ["telepathy", "lstar"] {
            let config = obj([("learner", Json::from(learner))]);
            let err =
                SessionSpec::from_request("HomeClimateControlCooler".to_string(), Some(&config))
                    .unwrap_err();
            assert!(err.contains("unknown learner"), "{learner}: {err}");
        }
        let config = obj([("engine", Json::from("oracle-of-delphi"))]);
        let err = SessionSpec::from_request("HomeClimateControlCooler".to_string(), Some(&config))
            .unwrap_err();
        assert!(err.contains("unknown engine"));
    }

    #[test]
    fn spec_refuses_workers_and_k_above_their_caps() {
        let open = |key: &str, value: usize| {
            let config = obj([(key, Json::from(value))]);
            SessionSpec::from_request("HomeClimateControlCooler".to_string(), Some(&config))
        };
        assert_eq!(open("workers", MAX_WORKERS).unwrap().workers, MAX_WORKERS);
        let err = open("workers", MAX_WORKERS + 1).unwrap_err();
        assert!(err.contains("`workers`"), "{err}");
        assert_eq!(open("k", MAX_K).unwrap().k, Some(MAX_K));
        let err = open("k", MAX_K + 1).unwrap_err();
        assert!(err.contains("`k`"), "{err}");
    }

    #[test]
    fn trace_batch_decoding_validates_shape() {
        let batch = crate::json::parse_json("[[[1,0],[2,1]]]").unwrap();
        let rows = decode_trace_batch(batch.as_array().unwrap()).unwrap();
        assert_eq!(rows, vec![vec![vec![1, 0], vec![2, 1]]]);
        let bad = crate::json::parse_json("[[[1,0.5]]]").unwrap();
        assert!(decode_trace_batch(bad.as_array().unwrap())
            .unwrap_err()
            .contains("not an integer"));
        let bad = crate::json::parse_json("[1]").unwrap();
        assert!(decode_trace_batch(bad.as_array().unwrap())
            .unwrap_err()
            .contains("not an array of rows"));
    }
}
