//! End-to-end tests of the serving daemon over localhost TCP.
//!
//! The central assertion is the batch/daemon differential: trace batches
//! pushed through the protocol must produce a semantic fingerprint
//! byte-identical to [`ActiveLearner::run_with_traces`] on the concatenated
//! batches — including after a snapshot/restore round-trip into a second
//! daemon instance, and at one and at several condition workers.

use amle_benchmarks::{benchmark_by_name, Benchmark};
use amle_core::{ActiveLearner, ActiveLearnerConfig, ParallelConfig};
use amle_serve::json::{parse_json, Json};
use amle_serve::Server;
use amle_system::{wire, Simulator, Trace, TraceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

const COOLER: &str = "HomeClimateControlCooler";

/// Starts a daemon on an ephemeral port; returns its address and the join
/// handle of the serving thread (which returns once `shutdown` drains).
fn start_server() -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

/// A tiny protocol client: one request line out, one response line in.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, stream }
    }

    fn read_line(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        parse_json(line.trim_end()).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"))
    }

    fn send_raw(&mut self, line: &str) -> Json {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .expect("write request");
        self.read_line()
    }

    fn send(&mut self, request: &Json) -> Json {
        self.send_raw(&request.render())
    }

    fn send_ok(&mut self, request: &Json) -> Json {
        let response = self.send(request);
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "expected success, got {}",
            response.render()
        );
        response
    }
}

fn req<const N: usize>(op: &str, fields: [(&str, Json); N]) -> Json {
    let mut pairs = vec![("op".to_string(), Json::from(op))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    pairs.into_iter().collect()
}

fn cooler() -> Benchmark {
    benchmark_by_name(COOLER).expect("cooler benchmark exists")
}

/// Deterministic trace batches for the cooler, as both `Trace`s (for the
/// local batch run) and wire-encoded JSON (for the protocol).
fn sample_batch(benchmark: &Benchmark, count: usize, length: usize, seed: u64) -> Vec<Trace> {
    let mut rng = StdRng::seed_from_u64(seed);
    Simulator::new(&benchmark.system)
        .random_traces(count, length, &mut rng)
        .iter()
        .cloned()
        .collect()
}

fn encode_batch(traces: &[Trace]) -> Json {
    traces
        .iter()
        .map(|t| -> Json {
            wire::trace_to_rows(t)
                .into_iter()
                .map(|row| -> Json { row.into_iter().map(Json::from).collect() })
                .collect()
        })
        .collect()
}

fn batch_config(benchmark: &Benchmark, workers: usize) -> ActiveLearnerConfig {
    ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        k: benchmark.k,
        parallel: ParallelConfig::with_workers(workers),
        ..ActiveLearnerConfig::default()
    }
}

/// The reference result: the batch loop on the concatenated batches.
fn batch_fingerprint(benchmark: &Benchmark, batches: &[Vec<Trace>], workers: usize) -> String {
    let mut traces = TraceSet::new();
    for batch in batches {
        traces.extend(batch.iter().cloned());
    }
    let mut learner = ActiveLearner::new(
        &benchmark.system,
        amle_learner::HistoryLearner::default(),
        batch_config(benchmark, workers),
    );
    let report = learner.run_with_traces(traces).expect("batch run succeeds");
    report.semantic_fingerprint(benchmark.system.vars())
}

#[test]
fn concurrent_sessions_match_batch_run_and_stream_models() {
    let (addr, server) = start_server();
    let benchmark = cooler();

    // Two sessions with different worker counts and trace sets, driven from
    // concurrent client threads against the same daemon.
    let jobs: Vec<(String, usize, u64)> =
        vec![("alpha".to_string(), 1, 11), ("beta".to_string(), 4, 22)];
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|(name, workers, seed)| {
            let benchmark = benchmark.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.send_ok(&req(
                    "open",
                    [
                        ("session", Json::from(name.as_str())),
                        ("system", Json::from(COOLER)),
                        (
                            "config",
                            [("workers".to_string(), Json::from(workers))]
                                .into_iter()
                                .collect(),
                        ),
                    ],
                ));

                // A second connection subscribes to streamed model deltas.
                let mut subscriber = Client::connect(addr);
                subscriber.send_ok(&req("subscribe", [("session", Json::from(name.as_str()))]));

                let batch1 = sample_batch(&benchmark, 6, 10, seed);
                let batch2 = sample_batch(&benchmark, 6, 10, seed + 1);
                let ingested = client.send_ok(&req(
                    "ingest",
                    [
                        ("session", Json::from(name.as_str())),
                        ("traces", encode_batch(&batch1)),
                    ],
                ));
                assert_eq!(ingested.get("accepted").unwrap().as_u64(), Some(6));
                client.send_ok(&req(
                    "ingest",
                    [
                        ("session", Json::from(name.as_str())),
                        ("traces", encode_batch(&batch2)),
                    ],
                ));

                let refined =
                    client.send_ok(&req("refine", [("session", Json::from(name.as_str()))]));
                let daemon_fp = refined.get("fingerprint").unwrap().as_str().unwrap();
                let expected = batch_fingerprint(&benchmark, &[batch1, batch2], workers);
                assert_eq!(
                    daemon_fp, expected,
                    "daemon fingerprint diverged from the batch run ({name}, {workers} workers)"
                );
                assert_eq!(refined.get("converged"), Some(&Json::Bool(true)));

                // The subscriber received the same model, pushed not polled.
                let event = subscriber.read_line();
                assert_eq!(event.get("event").unwrap().as_str(), Some("refinement"));
                assert_eq!(
                    event.get("fingerprint").unwrap().as_str(),
                    Some(expected.as_str()),
                    "streamed fingerprint diverged ({name})"
                );
                assert!(event
                    .get("dot")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("digraph"));

                // Stats expose the session's counters and the process-global
                // interner gauge.
                let stats = client.send_ok(&req("stats", [("session", Json::from(name.as_str()))]));
                assert_eq!(stats.get("refinements").unwrap().as_u64(), Some(1));
                assert_eq!(stats.get("ingested_traces").unwrap().as_u64(), Some(12));
                assert!(
                    stats
                        .get("interner_gauge")
                        .unwrap()
                        .get("nodes_interned")
                        .unwrap()
                        .as_u64()
                        .unwrap()
                        > 0
                );

                client.send_ok(&req("close", [("session", Json::from(name.as_str()))]));
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let mut closer = Client::connect(addr);
    closer.send_ok(&req("shutdown", []));
    server.join().expect("server thread").expect("server io");
}

#[test]
fn snapshot_restore_round_trip_is_byte_identical() {
    let (addr, server) = start_server();
    let benchmark = cooler();
    let path = std::env::temp_dir().join(format!(
        "amle-snapshot-{}-{:?}.json",
        std::process::id(),
        thread::current().id()
    ));
    let path_str = path.to_str().unwrap().to_string();

    let batch1 = sample_batch(&benchmark, 6, 10, 7);
    let batch2 = sample_batch(&benchmark, 4, 12, 8);

    // First daemon: ingest, refine, snapshot, then keep going to produce
    // the continuation the restored session must reproduce.
    let mut client = Client::connect(addr);
    client.send_ok(&req(
        "open",
        [
            ("session", Json::from("cooler")),
            ("system", Json::from(COOLER)),
        ],
    ));
    client.send_ok(&req(
        "ingest",
        [
            ("session", Json::from("cooler")),
            ("traces", encode_batch(&batch1)),
        ],
    ));
    let refined1 = client.send_ok(&req("refine", [("session", Json::from("cooler"))]));
    let digest1 = refined1
        .get("fingerprint_digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let snapshot = client.send_ok(&req(
        "snapshot",
        [
            ("session", Json::from("cooler")),
            ("path", Json::from(path_str.as_str())),
        ],
    ));
    assert!(snapshot.get("store_digest").unwrap().as_str().is_some());

    client.send_ok(&req(
        "ingest",
        [
            ("session", Json::from("cooler")),
            ("traces", encode_batch(&batch2)),
        ],
    ));
    let refined2 = client.send_ok(&req("refine", [("session", Json::from("cooler"))]));
    let fp2 = refined2
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let model2 = client.send_ok(&req(
        "model",
        [
            ("session", Json::from("cooler")),
            ("format", Json::from("dot")),
        ],
    ));
    let dot2 = model2.get("dot").unwrap().as_str().unwrap().to_string();

    // Graceful shutdown with the session still open: the daemon drains it.
    client.send_ok(&req("shutdown", []));
    server.join().expect("server thread").expect("server io");

    // Second daemon instance (fresh process state as far as the session is
    // concerned): restore from the snapshot file and replay the tail.
    let (addr2, server2) = start_server();
    let mut client2 = Client::connect(addr2);
    let restored = client2.send_ok(&req(
        "restore",
        [
            ("session", Json::from("cooler")),
            ("path", Json::from(path_str.as_str())),
        ],
    ));
    assert_eq!(restored.get("replayed_ingests").unwrap().as_u64(), Some(1));
    assert_eq!(restored.get("replayed_refines").unwrap().as_u64(), Some(1));
    assert_eq!(
        restored.get("fingerprint_digest").unwrap().as_str(),
        Some(digest1.as_str()),
        "restored session replayed to a different pre-snapshot state"
    );

    client2.send_ok(&req(
        "ingest",
        [
            ("session", Json::from("cooler")),
            ("traces", encode_batch(&batch2)),
        ],
    ));
    let refined2b = client2.send_ok(&req("refine", [("session", Json::from("cooler"))]));
    assert_eq!(
        refined2b.get("fingerprint").unwrap().as_str(),
        Some(fp2.as_str()),
        "post-restore refinement diverged from the original session"
    );
    let model2b = client2.send_ok(&req(
        "model",
        [
            ("session", Json::from("cooler")),
            ("format", Json::from("dot")),
        ],
    ));
    assert_eq!(model2b.get("dot").unwrap().as_str(), Some(dot2.as_str()));

    // A tampered snapshot fails the integrity check instead of silently
    // learning from corrupt traces.
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("\"store_digest\":\"", "\"store_digest\":\"0", 1);
    std::fs::write(&path, tampered).unwrap();
    let rejected = client2.send(&req(
        "restore",
        [
            ("session", Json::from("tampered")),
            ("path", Json::from(path_str.as_str())),
        ],
    ));
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert!(
        rejected
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("integrity"),
        "got {}",
        rejected.render()
    );

    client2.send_ok(&req("shutdown", []));
    server2.join().expect("server thread").expect("server io");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn backpressure_rejects_and_deadlines_expire_without_blocking() {
    let (addr, server) = start_server();
    let mut client = Client::connect(addr);
    client.send_ok(&req(
        "open",
        [
            ("session", Json::from("busy")),
            ("system", Json::from(COOLER)),
            (
                "config",
                [("queue_capacity".to_string(), Json::from(1usize))]
                    .into_iter()
                    .collect(),
            ),
        ],
    ));

    // Occupy the actor: connection 1 parks in a 1.5s diagnostics sleep.
    let sleeper = thread::spawn(move || {
        let mut conn = Client::connect(addr);
        conn.send_ok(&req(
            "sleep",
            [("session", Json::from("busy")), ("ms", Json::from(1500u64))],
        ))
    });
    thread::sleep(Duration::from_millis(300));

    // Connection 2 fills the single queue slot and asks for a deadline far
    // shorter than the sleep: it gets a retriable timeout, not a hang.
    let queued = thread::spawn(move || {
        let mut conn = Client::connect(addr);
        conn.send(&req(
            "stats",
            [
                ("session", Json::from("busy")),
                ("timeout_ms", Json::from(100u64)),
            ],
        ))
    });
    thread::sleep(Duration::from_millis(300));

    // Connection 3 finds the queue full and is rejected immediately —
    // the accept loop and the connection stay fully responsive.
    let mut conn3 = Client::connect(addr);
    let rejected = conn3.send(&req("stats", [("session", Json::from("busy"))]));
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(rejected.get("retriable"), Some(&Json::Bool(true)));
    assert!(
        rejected
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("queue is full"),
        "got {}",
        rejected.render()
    );

    let timed_out = queued.join().expect("queued client");
    assert_eq!(timed_out.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(timed_out.get("retriable"), Some(&Json::Bool(true)));
    assert!(
        timed_out
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("deadline exceeded"),
        "got {}",
        timed_out.render()
    );
    let slept = sleeper.join().expect("sleeper client");
    assert_eq!(slept.get("slept_ms").unwrap().as_u64(), Some(1500));

    // The session drained its queue and still works.
    let stats = conn3.send_ok(&req("stats", [("session", Json::from("busy"))]));
    assert_eq!(stats.get("system").unwrap().as_str(), Some(COOLER));

    conn3.send_ok(&req("shutdown", []));
    server.join().expect("server thread").expect("server io");
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (addr, server) = start_server();
    let mut client = Client::connect(addr);

    assert_eq!(
        client.send_ok(&req("ping", [])).get("pong"),
        Some(&Json::Bool(true))
    );

    let bad = client.send_raw("{not json");
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(bad.get("retriable"), Some(&Json::Bool(false)));

    let unknown = client.send(&req("teleport", []));
    assert!(unknown
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown op"));

    let missing = client.send(&req("refine", [("session", Json::from("ghost"))]));
    assert!(missing
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown session"));

    let bad_system = client.send(&req(
        "open",
        [
            ("session", Json::from("s")),
            ("system", Json::from("PerpetuumMobile")),
        ],
    ));
    assert!(bad_system
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown system"));

    // A zero k-induction bound is refused at `open`; the connection and the
    // daemon keep serving.
    let zero_k = client.send(&req(
        "open",
        [
            ("session", Json::from("z")),
            ("system", Json::from(COOLER)),
            (
                "config",
                [("k".to_string(), Json::from(0usize))]
                    .into_iter()
                    .collect(),
            ),
        ],
    ));
    assert_eq!(zero_k.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(zero_k.get("retriable"), Some(&Json::Bool(false)));
    assert!(zero_k
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("`k`"));

    client.send_ok(&req(
        "open",
        [("session", Json::from("s")), ("system", Json::from(COOLER))],
    ));
    let duplicate = client.send(&req(
        "open",
        [("session", Json::from("s")), ("system", Json::from(COOLER))],
    ));
    assert!(duplicate
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("already exists"));

    // Refine before any trace arrived, and model before any refinement.
    let empty = client.send(&req("refine", [("session", Json::from("s"))]));
    assert!(empty
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("at least one ingested trace"));
    let no_model = client.send(&req(
        "model",
        [("session", Json::from("s")), ("format", Json::from("dot"))],
    ));
    assert!(no_model
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("refine first"));

    // A malformed trace batch is rejected by the wire codec with context.
    let bad_rows = client.send(&req(
        "ingest",
        [
            ("session", Json::from("s")),
            ("traces", parse_json("[[[1,2,3,4,5,6,7,8,9]]]").unwrap()),
        ],
    ));
    assert!(bad_rows
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("columns"));

    client.send_ok(&req("shutdown", []));
    server.join().expect("server thread").expect("server io");
}
