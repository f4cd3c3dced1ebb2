//! The TCP serving shell: accept loop, session registry, graceful shutdown.
//!
//! Protocol: newline-delimited JSON. Each request is one line of at most
//! [`MAX_REQUEST_BYTES`], one object with an `"op"` field; each response is
//! one line, `{"ok":true,...}` or `{"ok":false,"error":...,"retriable":...}`.
//! Connections that subscribed to a session additionally receive
//! `{"event":"refinement",...}` lines interleaved between responses (all
//! writes to a connection go through one mutex, so lines never shear).
//!
//! Threading model: one thread per connection (blocking reads), one *actor*
//! thread per session (see [`crate::session_actor`]). Connection threads
//! never run learning work — they decode requests, `try_send` into the
//! session's bounded queue (full queue ⇒ immediate retriable rejection, the
//! accept loop is never blocked by a slow session), and wait for the reply
//! with the request's deadline.
//!
//! The daemon serves at most [`MAX_CONNECTIONS`] connections at once. The
//! accept loop joins connections whose thread has ended, so a closed
//! connection releases its socket; a connection beyond the cap gets one
//! retriable error line and is closed.
//!
//! Graceful shutdown (the `shutdown` verb): stop accepting, drop every
//! session's queue sender and join the actors — the queue delivers buffered
//! commands before disconnecting, so in-flight refinements drain — then
//! shut down the connection streams and join the connection threads.

use crate::json::{obj, parse_json, Json};
use crate::session_actor::{
    decode_trace_batch, parse_snapshot, spawn_session, Command, EventSink, SessionHandle,
    SessionSpec,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request line the daemon reads, newline excluded: more than a
/// hundred times a 50×50 trace batch. A longer line is answered with a
/// non-retriable error and its connection is closed, so a peer that never
/// sends a newline cannot grow the daemon's memory without bound.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Most connections the daemon serves at once: one thread each, bounded like
/// a session's [`crate::session_actor::MAX_WORKERS`]. With request lines
/// capped at [`MAX_REQUEST_BYTES`] it also bounds buffered request input at
/// 1 GiB. A client beyond the cap gets one retriable error line, and the
/// daemon then closes the connection.
pub const MAX_CONNECTIONS: usize = 64;

/// Shared state of one daemon instance.
struct Shared {
    sessions: Mutex<HashMap<String, SessionHandle>>,
    connections: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                sessions: Mutex::new(HashMap::new()),
                connections: Mutex::new(Vec::new()),
                shutting_down: AtomicBool::new(false),
                local_addr,
            }),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Runs the accept loop until a `shutdown` request arrives, then drains
    /// every session and connection before returning.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let mut stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let mut connections = lock(&self.shared.connections);
            // Join the connections whose thread has ended; dropping the
            // registry's stream clone closes their socket.
            for (_, join) in connections.extract_if(.., |(_, join)| join.is_finished()) {
                let _ = join.join();
            }
            if connections.len() >= MAX_CONNECTIONS {
                // One retriable error line; dropping `stream` then closes it.
                drop(connections);
                let message =
                    format!("the daemon serves at most {MAX_CONNECTIONS} connections; retry later");
                let line = error_response(message, true).render() + "\n";
                let _ = stream.write_all(line.as_bytes());
                continue;
            }
            let peer = stream
                .try_clone()
                .expect("cloning an accepted stream cannot fail");
            let shared = Arc::clone(&self.shared);
            let join = std::thread::spawn(move || handle_connection(stream, shared));
            connections.push((peer, join));
        }

        // Drain sessions first: dropping the queue senders lets each actor
        // finish its buffered commands (replies still reach any waiting
        // connection threads) and exit.
        let sessions = std::mem::take(&mut *lock(&self.shared.sessions));
        for (_, handle) in sessions {
            drop(handle.tx);
            let _ = handle.join.join();
        }

        // Then sever the connections: reads unblock with EOF, threads exit.
        let connections = std::mem::take(&mut *lock(&self.shared.connections));
        for (stream, join) in connections {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = join.join();
        }
        Ok(())
    }
}

/// Locks a registry, recovering it if a panicking thread poisoned it. Each
/// critical section changes its map only by whole operations (lookup,
/// insert, remove, drain, take), so a panic while the lock is held leaves
/// the map consistent, and every later request can still be served.
fn lock<T>(registry: &Mutex<T>) -> MutexGuard<'_, T> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

fn error_response(message: impl Into<String>, retriable: bool) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(message.into())),
        ("retriable", Json::Bool(retriable)),
    ])
}

fn write_line(writer: &EventSink, line: &str) -> bool {
    let Ok(mut stream) = writer.lock() else {
        return false;
    };
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let writer: EventSink = Arc::new(Mutex::new(stream));
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        match (&mut reader).take(limit).read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
        } else if bytes.len() > MAX_REQUEST_BYTES {
            let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            write_line(&writer, &error_response(message, false).render());
            if let Ok(stream) = writer.lock() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            break;
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match process_request(line, &shared, &writer) {
            Some(response) => {
                if !write_line(&writer, &response.render()) {
                    break;
                }
            }
            // The handler already wrote the reply (shutdown does, so the
            // line is on the wire before the drain severs this stream).
            None => break,
        }
    }
}

/// Dispatches one request. Returns `Some(response)` for the caller to write,
/// or `None` when the handler wrote the reply itself and the connection loop
/// should end.
fn process_request(line: &str, shared: &Arc<Shared>, writer: &EventSink) -> Option<Json> {
    let request = match parse_json(line) {
        Ok(request) => request,
        Err(e) => return Some(error_response(format!("malformed request: {e}"), false)),
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return Some(error_response("request lacks an `op` field", false));
    };
    Some(match op {
        "ping" => obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
        "open" => handle_open(&request, shared),
        "restore" => handle_restore(&request, shared),
        "close" => handle_close(&request, shared),
        "shutdown" => return handle_shutdown(shared, writer),
        "ingest" | "refine" | "model" | "stats" | "snapshot" | "subscribe" | "sleep" => {
            handle_session_verb(op, &request, shared, writer)
        }
        other => error_response(format!("unknown op `{other}`"), false),
    })
}

fn session_name(request: &Json) -> Result<String, Json> {
    request
        .get("session")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| error_response("request lacks a `session` field", false))
}

/// Registers a freshly spawned session under `name`, tearing the actor down
/// again if the name was taken concurrently.
fn register(shared: &Arc<Shared>, name: &str, handle: SessionHandle) -> Result<(), Json> {
    let mut sessions = lock(&shared.sessions);
    if sessions.contains_key(name) {
        drop(sessions);
        drop(handle.tx);
        let _ = handle.join.join();
        return Err(error_response(
            format!("session `{name}` already exists"),
            false,
        ));
    }
    sessions.insert(name.to_string(), handle);
    Ok(())
}

fn handle_open(request: &Json, shared: &Arc<Shared>) -> Json {
    let name = match session_name(request) {
        Ok(name) => name,
        Err(response) => return response,
    };
    if lock(&shared.sessions).contains_key(&name) {
        return error_response(format!("session `{name}` already exists"), false);
    }
    let Some(system) = request.get("system").and_then(Json::as_str) else {
        return error_response("open lacks a `system` field", false);
    };
    let spec = match SessionSpec::from_request(system.to_string(), request.get("config")) {
        Ok(spec) => spec,
        Err(e) => return error_response(e, false),
    };
    let (handle, _info) = match spawn_session(name.clone(), spec, Vec::new(), None) {
        Ok(started) => started,
        Err(e) => return error_response(e, false),
    };
    let vars: Json = {
        let benchmark = amle_benchmarks::benchmark_by_name(&handle.spec.system)
            .expect("spec validated the system name");
        benchmark
            .system
            .vars()
            .iter()
            .map(|(_, info)| Json::from(info.name.as_str()))
            .collect()
    };
    let response = obj([
        ("ok", Json::Bool(true)),
        ("session", Json::from(name.as_str())),
        ("system", Json::from(handle.spec.system.as_str())),
        ("workers", Json::from(handle.spec.workers)),
        ("queue_capacity", Json::from(handle.spec.queue_capacity)),
        ("vars", vars),
    ]);
    match register(shared, &name, handle) {
        Ok(()) => response,
        Err(response) => response,
    }
}

fn handle_restore(request: &Json, shared: &Arc<Shared>) -> Json {
    let name = match session_name(request) {
        Ok(name) => name,
        Err(response) => return response,
    };
    let Some(path) = request.get("path").and_then(Json::as_str) else {
        return error_response("restore lacks a `path` field", false);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return error_response(format!("cannot read snapshot {path}: {e}"), false),
    };
    let (spec, replay, store_digest) = match parse_snapshot(&text) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(format!("bad snapshot {path}: {e}"), false),
    };
    let (handle, info) = match spawn_session(name.clone(), spec, replay, Some(store_digest)) {
        Ok(started) => started,
        Err(e) => return error_response(e, false),
    };
    let response = obj([
        ("ok", Json::Bool(true)),
        ("session", Json::from(name.as_str())),
        ("system", Json::from(handle.spec.system.as_str())),
        ("replayed_ingests", Json::from(info.replayed_ingests)),
        ("replayed_refines", Json::from(info.replayed_refines)),
        (
            "fingerprint_digest",
            info.last_fingerprint_digest
                .as_deref()
                .map(Json::from)
                .unwrap_or(Json::Null),
        ),
    ]);
    match register(shared, &name, handle) {
        Ok(()) => response,
        Err(response) => response,
    }
}

fn handle_close(request: &Json, shared: &Arc<Shared>) -> Json {
    let name = match session_name(request) {
        Ok(name) => name,
        Err(response) => return response,
    };
    let handle = lock(&shared.sessions).remove(&name);
    match handle {
        Some(handle) => {
            // Dropping the sender drains the queue; join waits for it.
            drop(handle.tx);
            let _ = handle.join.join();
            obj([
                ("ok", Json::Bool(true)),
                ("closed", Json::from(name.as_str())),
            ])
        }
        None => error_response(format!("unknown session `{name}`"), false),
    }
}

fn handle_shutdown(shared: &Arc<Shared>, writer: &EventSink) -> Option<Json> {
    // Write the reply *before* waking the accept loop: the drain severs this
    // very connection, so the line must already be on the wire or the client
    // reads EOF instead of the acknowledgement.
    let response = obj([
        ("ok", Json::Bool(true)),
        ("shutting_down", Json::Bool(true)),
    ]);
    let _ = write_line(writer, &response.render());
    shared.shutting_down.store(true, Ordering::SeqCst);
    // Unblock the accept loop; it sees the flag and starts the drain. The
    // dummy connection is accepted and immediately discarded.
    let _ = TcpStream::connect(shared.local_addr);
    None
}

fn handle_session_verb(op: &str, request: &Json, shared: &Arc<Shared>, writer: &EventSink) -> Json {
    let name = match session_name(request) {
        Ok(name) => name,
        Err(response) => return response,
    };
    // Clone the queue sender out of the registry and release the lock before
    // waiting on anything — registry access must stay O(lookup).
    let (tx, timeout_default) = {
        let sessions = lock(&shared.sessions);
        match sessions.get(&name) {
            Some(handle) => (handle.tx.clone(), handle.spec.request_timeout_ms),
            None => return error_response(format!("unknown session `{name}`"), false),
        }
    };
    let timeout_ms = request
        .get("timeout_ms")
        .and_then(Json::as_u64)
        .unwrap_or(timeout_default)
        .max(1);

    let (reply_tx, reply_rx) = mpsc::channel();
    let command = match op {
        "ingest" => {
            let Some(traces) = request.get("traces").and_then(Json::as_array) else {
                return error_response("ingest lacks a `traces` array", false);
            };
            match decode_trace_batch(traces) {
                Ok(traces) => Command::Ingest {
                    traces,
                    reply: reply_tx,
                },
                Err(e) => return error_response(e, false),
            }
        }
        "refine" => Command::Refine { reply: reply_tx },
        "model" => Command::Model {
            format: request
                .get("format")
                .and_then(Json::as_str)
                .unwrap_or("dot")
                .to_string(),
            reply: reply_tx,
        },
        "stats" => Command::Stats { reply: reply_tx },
        "snapshot" => {
            let Some(path) = request.get("path").and_then(Json::as_str) else {
                return error_response("snapshot lacks a `path` field", false);
            };
            Command::Snapshot {
                path: path.to_string(),
                reply: reply_tx,
            }
        }
        "subscribe" => Command::Subscribe {
            sink: Arc::clone(writer),
            reply: reply_tx,
        },
        "sleep" => Command::Sleep {
            ms: request.get("ms").and_then(Json::as_u64).unwrap_or(100),
            reply: reply_tx,
        },
        _ => unreachable!("dispatcher routes only session verbs here"),
    };

    // The backpressure seam: a full queue rejects instead of blocking.
    match tx.try_send(command) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            return error_response(format!("session `{name}` queue is full; retry later"), true)
        }
        Err(TrySendError::Disconnected(_)) => {
            return error_response(format!("session `{name}` is gone"), false)
        }
    }
    // Drop our sender clone before waiting, so a draining daemon is never
    // kept alive by a parked connection thread.
    drop(tx);

    match reply_rx.recv_timeout(Duration::from_millis(timeout_ms)) {
        Ok(response) => response,
        Err(RecvTimeoutError::Timeout) => error_response(
            format!("deadline exceeded after {timeout_ms}ms (the command may still complete)"),
            true,
        ),
        Err(RecvTimeoutError::Disconnected) => {
            error_response(format!("session `{name}` dropped the request"), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    const PING: &str = r#"{"op":"ping"}"#;

    /// A daemon serving on its own thread, with its registry in reach.
    fn start() -> (SocketAddr, Arc<Shared>, JoinHandle<std::io::Result<()>>) {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let shared = Arc::clone(&server.shared);
        (
            server.local_addr(),
            shared,
            thread::spawn(move || server.run()),
        )
    }

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set a read timeout");
        BufReader::new(stream)
    }

    /// Sends `request` (if any) and reads one line back; `None` when the
    /// daemon closed the connection instead.
    fn exchange(client: &mut BufReader<TcpStream>, request: Option<&str>) -> Option<Json> {
        if let Some(request) = request {
            client
                .get_mut()
                .write_all(format!("{request}\n").as_bytes())
                .ok()?;
        }
        let mut line = String::new();
        match client.read_line(&mut line) {
            Ok(n) if n > 0 => parse_json(line.trim_end()).ok(),
            _ => None,
        }
    }

    fn pinged(addr: SocketAddr) -> Option<BufReader<TcpStream>> {
        let mut client = connect(addr);
        let reply = exchange(&mut client, Some(PING))?;
        (reply.get("pong") == Some(&Json::Bool(true))).then_some(client)
    }

    /// Shuts the daemon down through a served client and waits for the drain.
    fn shut_down(mut client: BufReader<TcpStream>, serving: JoinHandle<std::io::Result<()>>) {
        let reply = exchange(&mut client, Some(r#"{"op":"shutdown"}"#)).expect("a reply");
        assert_eq!(reply.get("shutting_down"), Some(&Json::Bool(true)));
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn bind_to_ephemeral_port() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let (addr, shared, serving) = start();
        for _ in 0..50 {
            drop(pinged(addr).expect("a served connection"));
        }
        // A connection thread ends just after its peer closes, and the next
        // accept joins it: poll with a probe until the probe is all that
        // is left.
        let deadline = Instant::now() + Duration::from_secs(5);
        let probe = loop {
            let probe = pinged(addr).expect("a served probe");
            let held = shared.connections.lock().unwrap().len();
            if held == 1 {
                break probe;
            }
            assert!(
                Instant::now() < deadline,
                "the registry holds {held} connections, not just the probe"
            );
            thread::sleep(Duration::from_millis(50));
        };
        shut_down(probe, serving);
    }

    #[test]
    fn a_poisoned_session_registry_still_serves() {
        let (addr, shared, serving) = start();
        let holder = Arc::clone(&shared);
        let panicked = thread::spawn(move || {
            let _sessions = holder.sessions.lock().unwrap();
            panic!("a panic while the session registry is held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared.sessions.is_poisoned());

        let mut client = pinged(addr).expect("a served connection");
        let open = r#"{"op":"open","session":"s","system":"HomeClimateControlCooler"}"#;
        let opened = exchange(&mut client, Some(open)).expect("an open reply");
        assert_eq!(opened.get("ok"), Some(&Json::Bool(true)), "{opened:?}");
        let close = r#"{"op":"close","session":"s"}"#;
        let closed = exchange(&mut client, Some(close)).expect("a close reply");
        assert_eq!(closed.get("closed"), Some(&Json::from("s")), "{closed:?}");
        shut_down(client, serving);
    }

    #[test]
    fn connections_beyond_the_cap_are_refused_until_one_closes() {
        let (addr, _, serving) = start();
        let mut clients: Vec<_> = (0..MAX_CONNECTIONS)
            .map(|_| pinged(addr).expect("a served connection"))
            .collect();
        // The refusal arrives unasked, and then the daemon closes.
        let mut refused = connect(addr);
        let refusal = exchange(&mut refused, None).expect("a refusal line");
        assert_eq!(refusal.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(refusal.get("retriable"), Some(&Json::Bool(true)));
        assert!(exchange(&mut refused, None).is_none());

        // Once a served client closes (its thread ends just after), a new
        // client is served.
        drop(clients.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        while pinged(addr).is_none() {
            assert!(
                Instant::now() < deadline,
                "no client was served after one closed"
            );
            thread::sleep(Duration::from_millis(20));
        }
        shut_down(clients.pop().unwrap(), serving);
    }
}
