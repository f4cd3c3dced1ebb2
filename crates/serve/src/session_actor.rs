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
//! A session verb reaches the actor as the request itself ([`Command`]),
//! and one handler decodes and answers it. The actor logs every successful
//! `ingest` and `refine`, without the fields a replay does not read; a
//! snapshot writes that log, and `restore` feeds it back through the same
//! handler before the session serves.
//!
//! Dropping every sender of the queue is the graceful-shutdown signal: the
//! channel delivers all buffered commands before disconnecting, so an actor
//! drains in-flight work (refinements included) and then exits.

use crate::json::{obj, parse_json, Json};
use crate::{error_response, write_line};
use amle_automaton::{display_expr, Nfa};
use amle_benchmarks::{benchmark_by_name, benchmark_names, Benchmark};
use amle_core::{
    fingerprint_digest, ActiveLearnerConfig, InternerStats, OracleKind, ParallelConfig, Session,
    SessionStats,
};
use amle_learner::LearnerKind;
use amle_system::wire;
use amle_system::System;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
        if !benchmark_names().any(|name| name == spec.system) {
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

/// A connection's write half. Subscriber events interleave with the
/// connection's own replies, so every line goes through this mutex whole.
pub type EventSink = Arc<Mutex<TcpStream>>;

/// Writes `message` to a connection as one line (see [`write_line`]);
/// false once the connection is gone.
pub(crate) fn send(sink: &EventSink, message: &Json) -> bool {
    sink.lock()
        .is_ok_and(|mut stream| write_line(&mut *stream, message).is_ok())
}

/// A session verb on its way to the actor: the request itself, the
/// connection it arrived on (`subscribe` registers it) and the reply channel
/// the serving layer waits on with the request's deadline.
pub struct Command {
    /// The request object, `op` field included.
    pub request: Json,
    /// The requesting connection's write half.
    pub sink: EventSink,
    /// Reply channel.
    pub reply: Sender<Json>,
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
    /// The names of the system's variables, in declaration order (the
    /// columns of a wire row).
    pub vars: Vec<String>,
    /// Replayed ingest batches.
    pub replayed_ingests: usize,
    /// Replayed refinements.
    pub replayed_refines: usize,
    /// Digest of the latest refinement's fingerprint, if any.
    pub last_fingerprint_digest: Option<String>,
}

/// Spawns a session actor, first replaying `replay` (a snapshot's recorded
/// `ingest` and `refine` requests; empty for a fresh `open`) and returning
/// its [`ReadyInfo`] replay summary. Blocks until the actor finished
/// replaying; a replay failure or a store-digest mismatch tears the actor
/// down and is returned as `Err`.
pub fn spawn_session(
    name: String,
    spec: SessionSpec,
    replay: Vec<Json>,
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

/// One session: the resident [`Session`] and what the actor keeps beside
/// it.
struct Actor<'a> {
    name: String,
    spec: SessionSpec,
    system: &'a System,
    session: Session<'a, LearnerKind>,
    /// Every `ingest` and `refine` that succeeded, rendered as a snapshot
    /// records it: `{"op":"ingest","traces":…}` and `{"op":"refine"}`, no
    /// other field. The text of a trace batch takes a fraction of the
    /// memory of its parsed form.
    ops_log: Vec<String>,
    subscribers: Vec<EventSink>,
    /// Digest of the latest refinement's fingerprint.
    last_digest: Option<String>,
    last_model: Option<Nfa>,
}

fn actor_main(
    name: String,
    spec: SessionSpec,
    benchmark: Benchmark,
    replay: Vec<Json>,
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
    let mut actor = Actor {
        name,
        spec,
        system: &system,
        session: Session::new(&system, learner, config),
        ops_log: Vec::new(),
        subscribers: Vec::new(),
        last_digest: None,
        last_model: None,
    };

    // Replay the snapshot's recorded requests through the live handler:
    // same system, same config, same batches in the same order ⇒ the
    // deterministic pipeline reproduces the exact pre-snapshot state (store
    // contents, learner state, verdict cache), which the store digest then
    // witnesses.
    let mut info = ReadyInfo {
        vars: system
            .vars()
            .iter()
            .map(|(_, info)| info.name.clone())
            .collect(),
        replayed_ingests: 0,
        replayed_refines: 0,
        last_fingerprint_digest: None,
    };
    for (i, request) in replay.into_iter().enumerate() {
        let refine = request.get("op").and_then(Json::as_str) == Some("refine");
        let response = actor.handle(request, None);
        if let Some(reason) = response.get("error").and_then(Json::as_str) {
            let _ = ready.send(Err(format!("replaying ops[{i}] failed: {reason}")));
            return;
        }
        if refine {
            info.replayed_refines += 1;
        } else {
            info.replayed_ingests += 1;
        }
    }
    if let Some(expected) = expected_store_digest {
        let actual = wire::rows_digest(&wire::store_rows(actor.session.store()));
        if actual != expected {
            let _ = ready.send(Err(format!(
                "snapshot integrity check failed: store digest {actual} != recorded {expected}"
            )));
            return;
        }
    }
    info.last_fingerprint_digest = actor.last_digest.clone();
    let _ = ready.send(Ok(info));

    // The command loop. `recv` returns `Err` only once every sender is gone
    // *and* the buffered commands are drained — that is the graceful
    // shutdown contract.
    while let Ok(Command {
        request,
        sink,
        reply,
    }) = rx.recv()
    {
        let _ = reply.send(actor.handle(request, Some(&sink)));
    }
}

impl Actor<'_> {
    /// Decodes and answers one session verb. Live requests arrive with
    /// their connection; on restore, a snapshot's recorded `ingest` and
    /// `refine` requests arrive with none.
    fn handle(&mut self, request: Json, sink: Option<&EventSink>) -> Json {
        match (request.get("op").and_then(Json::as_str), sink) {
            (Some("ingest"), _) => self.ingest(request),
            (Some("refine"), _) => self.refine(),
            (Some("model"), _) => self.model(
                request
                    .get("format")
                    .and_then(Json::as_str)
                    .unwrap_or("dot"),
            ),
            (Some("stats"), _) => self.stats(),
            (Some("snapshot"), _) => match request.get("path").and_then(Json::as_str) {
                Some(path) => self.snapshot(path),
                None => error_response("snapshot lacks a `path` field", false),
            },
            (Some("subscribe"), Some(sink)) => {
                self.subscribers.push(Arc::clone(sink));
                obj([
                    ("ok", Json::Bool(true)),
                    ("subscribed", Json::from(self.name.as_str())),
                    ("fingerprint_digest", self.last_digest()),
                ])
            }
            // Diagnostics: hold the actor busy for a bounded interval so
            // tests can fill the command queue deterministically.
            (Some("sleep"), _) => {
                let ms = request.get("ms").and_then(Json::as_u64).unwrap_or(100);
                std::thread::sleep(Duration::from_millis(ms.min(5000)));
                obj([("ok", Json::Bool(true)), ("slept_ms", Json::from(ms))])
            }
            (op, _) => error_response(
                format!("`{}` is not a session verb here", op.unwrap_or("")),
                false,
            ),
        }
    }

    /// The digest of the latest refinement's fingerprint; null before the
    /// first.
    fn last_digest(&self) -> Json {
        self.last_digest.as_deref().map_or(Json::Null, Json::from)
    }

    fn ingest(&mut self, request: Json) -> Json {
        let batch = match request {
            Json::Object(mut fields) => fields.remove("traces"),
            _ => None,
        };
        let Some(Json::Array(batch)) = batch else {
            return error_response("ingest lacks a `traces` array", false);
        };
        let rows = match decode_trace_batch(&batch) {
            Ok(rows) => rows,
            Err(e) => return error_response(e, false),
        };
        let mut traces = Vec::with_capacity(rows.len());
        for (i, rows) in rows.iter().enumerate() {
            match wire::trace_from_rows(self.system.vars(), rows) {
                Ok(trace) if !trace.is_empty() => traces.push(trace),
                Ok(_) => return error_response(format!("trace {i} is empty"), false),
                Err(e) => return error_response(format!("trace {i}: {e}"), false),
            }
        }
        let outcome = self.session.ingest(traces);
        // Only the batch is logged, and it decoded, so every cell is a whole
        // number and renders as its integer, whatever its spelling was.
        let logged = obj([("op", "ingest".into()), ("traces", Json::Array(batch))]);
        self.ops_log.push(logged.render());
        obj([
            ("ok", Json::Bool(true)),
            ("accepted", Json::from(outcome.accepted)),
            ("duplicates", Json::from(outcome.duplicates)),
            ("traces", Json::from(self.session.trace_count())),
        ])
    }

    fn refine(&mut self) -> Json {
        let report = match self.session.refine() {
            Ok(report) => report,
            Err(e) => return error_response(e.to_string(), false),
        };
        self.ops_log.push(obj([("op", "refine".into())]).render());
        let vars = self.system.vars();
        let fingerprint = report.semantic_fingerprint(vars);
        let digest = fingerprint_digest(&fingerprint);

        // Push the model to every subscriber; a dead one is dropped. With no
        // subscriber, no event (and no second DOT rendering) is built.
        if !self.subscribers.is_empty() {
            let event = obj([
                ("event", Json::from("refinement")),
                ("session", Json::from(self.name.as_str())),
                ("alpha", Json::Number(report.alpha)),
                ("converged", Json::Bool(report.converged)),
                ("iterations", Json::from(report.iterations)),
                ("fingerprint_digest", Json::from(digest.as_str())),
                ("fingerprint", Json::from(fingerprint.as_str())),
                ("dot", Json::from(report.abstraction.to_dot(vars))),
            ]);
            self.subscribers.retain(|sink| send(sink, &event));
        }

        let response = obj([
            ("ok", Json::Bool(true)),
            ("alpha", Json::Number(report.alpha)),
            ("converged", Json::Bool(report.converged)),
            ("iterations", Json::from(report.iterations)),
            ("states", Json::from(report.abstraction.num_states())),
            (
                "transitions",
                Json::from(report.abstraction.num_transitions()),
            ),
            ("traces", Json::from(self.session.trace_count())),
            ("fingerprint", Json::from(fingerprint)),
            ("fingerprint_digest", Json::from(digest.as_str())),
        ]);
        self.last_digest = Some(digest);
        self.last_model = Some(report.abstraction);
        response
    }

    fn model(&self, format: &str) -> Json {
        let Some(model) = &self.last_model else {
            return error_response("no model yet: refine first", false);
        };
        let vars = self.system.vars();
        match format {
            "dot" => obj([
                ("ok", Json::Bool(true)),
                ("format", Json::from("dot")),
                ("dot", Json::from(model.to_dot(vars))),
            ]),
            "json" => {
                let transitions: Json = model
                    .transitions()
                    .iter()
                    .map(|t| {
                        obj([
                            ("from", Json::from(t.from.index())),
                            ("to", Json::from(t.to.index())),
                            ("guard", Json::from(display_expr(&t.guard, vars))),
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

    fn stats(&self) -> Json {
        let stats = self.session.stats();
        let [store, cache, checker] = stats_json(&stats);
        // The expression interner is process-global and never shrinks; a
        // resident daemon must watch it as a gauge, not per-session deltas.
        let interner = InternerStats::snapshot();
        obj([
            ("ok", Json::Bool(true)),
            ("session", Json::from(self.name.as_str())),
            ("system", Json::from(self.spec.system.as_str())),
            ("workers", Json::from(self.spec.workers)),
            ("engine", Json::from(self.spec.engine.name())),
            ("learner", Json::from(self.spec.learner.as_str())),
            ("ingested_traces", Json::from(stats.ingested_traces)),
            ("duplicate_traces", Json::from(stats.duplicate_traces)),
            ("refinements", Json::from(stats.refinements)),
            ("subscribers", Json::from(self.subscribers.len())),
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

    fn snapshot(&self, path: &str) -> Json {
        // The store's rows are freed before the log is parsed back, so the
        // two never peak together.
        let store_digest = wire::rows_digest(&wire::store_rows(self.session.store()));
        let ops = match self.ops_log.iter().map(|op| parse_json(op)).collect() {
            Ok(ops) => ops,
            Err(e) => return error_response(format!("bad session log: {e}"), false),
        };
        let doc = obj([
            ("schema", Json::from(SNAPSHOT_SCHEMA)),
            ("kind", Json::from(SNAPSHOT_KIND)),
            ("config", self.spec.to_json()),
            ("store_digest", Json::from(store_digest.as_str())),
            ("last_fingerprint_digest", self.last_digest()),
            ("ops", ops),
        ]);
        match std::fs::write(path, doc.render() + "\n") {
            Ok(()) => obj([
                ("ok", Json::Bool(true)),
                ("path", Json::from(path)),
                ("store_digest", Json::from(store_digest)),
                ("ops", Json::from(self.ops_log.len())),
            ]),
            Err(e) => error_response(format!("cannot write snapshot to {path}: {e}"), false),
        }
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

/// Snapshot file schema version.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// Snapshot file `kind` marker.
pub const SNAPSHOT_KIND: &str = "amle-session-snapshot";

/// Parses a snapshot file into its spec, its recorded `ingest` and `refine`
/// requests and its store digest. The requests are replayed through the
/// actor's live handler, so any other verb in the log is refused here.
pub fn parse_snapshot(text: &str) -> Result<(SessionSpec, Vec<Json>, String), String> {
    let mut doc = match crate::json::parse_json(text)? {
        Json::Object(doc) if doc.get("kind").and_then(Json::as_str) == Some(SNAPSHOT_KIND) => doc,
        _ => return Err("not an amle session snapshot".to_string()),
    };
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
    // Moved out, not cloned: the recorded batches are the bulk of the file.
    let Some(Json::Array(ops)) = doc.remove("ops") else {
        return Err("snapshot lacks an `ops` array".to_string());
    };
    for (i, op) in ops.iter().enumerate() {
        match op.get("op").and_then(Json::as_str) {
            Some("ingest" | "refine") => {}
            other => return Err(format!("ops[{i}]: unknown op {other:?}")),
        }
    }
    Ok((spec, ops, store_digest))
}

/// Decodes the protocol's trace-batch shape (array of row matrices of
/// integers, as [`crate::trace_batch`] encodes it) into wire rows.
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
