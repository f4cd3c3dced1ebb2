//! End-to-end tests of the serving daemon over localhost TCP.
//!
//! The central assertion is the batch/daemon differential: trace batches
//! pushed through the protocol must produce a semantic fingerprint
//! byte-identical to [`ActiveLearner::run_with_traces`] on the concatenated
//! batches — including after a snapshot/restore round-trip into a second
//! daemon instance, and at one and at several condition workers.

use amle_benchmarks::{benchmark_by_name, Benchmark};
use amle_core::{ActiveLearner, ActiveLearnerConfig, ParallelConfig};
use amle_serve::json::{obj, parse_json, Json};
use amle_serve::server::MAX_REQUEST_BYTES;
use amle_serve::{trace_batch, Client, Server};
use amle_system::{Simulator, Trace, TraceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::net::SocketAddr;
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

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to daemon")
}

/// The reply of a request that must succeed.
fn ok(reply: std::io::Result<Json>) -> Json {
    let reply = reply.expect("a reply line");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "expected success, got {}",
        reply.render()
    );
    reply
}

fn cooler() -> Benchmark {
    benchmark_by_name(COOLER).expect("cooler benchmark exists")
}

/// A deterministic trace batch for the cooler: the local batch run takes the
/// `Trace`s and the protocol their `trace_batch` encoding.
fn sample_batch(benchmark: &Benchmark, count: usize, length: usize, seed: u64) -> Vec<Trace> {
    let mut rng = StdRng::seed_from_u64(seed);
    Simulator::new(&benchmark.system)
        .random_traces(count, length, &mut rng)
        .iter()
        .cloned()
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
                let mut client = connect(addr);
                ok(client.send(&obj([
                    ("op", "open".into()),
                    ("session", Json::from(name.as_str())),
                    ("system", Json::from(COOLER)),
                    ("config", obj([("workers", Json::from(workers))])),
                ])));

                // A second connection subscribes to streamed model deltas.
                let mut subscriber = connect(addr);
                ok(subscriber.send(&obj([
                    ("op", "subscribe".into()),
                    ("session", Json::from(name.as_str())),
                ])));

                let batch1 = sample_batch(&benchmark, 6, 10, seed);
                let batch2 = sample_batch(&benchmark, 6, 10, seed + 1);
                let ingested = ok(client.send(&obj([
                    ("op", "ingest".into()),
                    ("session", Json::from(name.as_str())),
                    ("traces", trace_batch(&batch1)),
                ])));
                assert_eq!(ingested.get("accepted").unwrap().as_u64(), Some(6));
                ok(client.send(&obj([
                    ("op", "ingest".into()),
                    ("session", Json::from(name.as_str())),
                    ("traces", trace_batch(&batch2)),
                ])));

                let refined = ok(client.send(&obj([
                    ("op", "refine".into()),
                    ("session", Json::from(name.as_str())),
                ])));
                let daemon_fp = refined.get("fingerprint").unwrap().as_str().unwrap();
                let expected = batch_fingerprint(&benchmark, &[batch1, batch2], workers);
                assert_eq!(
                    daemon_fp, expected,
                    "daemon fingerprint diverged from the batch run ({name}, {workers} workers)"
                );
                assert_eq!(refined.get("converged"), Some(&Json::Bool(true)));

                // The subscriber received the same model, pushed not polled.
                let event = subscriber.read_line().unwrap();
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
                let stats = ok(client.send(&obj([
                    ("op", "stats".into()),
                    ("session", Json::from(name.as_str())),
                ])));
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

                ok(client.send(&obj([
                    ("op", "close".into()),
                    ("session", Json::from(name.as_str())),
                ])));
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let mut closer = connect(addr);
    ok(closer.send(&obj([("op", "shutdown".into())])));
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
    let mut client = connect(addr);
    ok(client.send(&obj([
        ("op", "open".into()),
        ("session", Json::from("cooler")),
        ("system", Json::from(COOLER)),
    ])));
    ok(client.send(&obj([
        ("op", "ingest".into()),
        ("session", Json::from("cooler")),
        ("traces", trace_batch(&batch1)),
    ])));
    let refined1 = ok(client.send(&obj([
        ("op", "refine".into()),
        ("session", Json::from("cooler")),
    ])));
    let digest1 = refined1
        .get("fingerprint_digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let snapshot = ok(client.send(&obj([
        ("op", "snapshot".into()),
        ("session", Json::from("cooler")),
        ("path", Json::from(path_str.as_str())),
    ])));
    assert!(snapshot.get("store_digest").unwrap().as_str().is_some());

    ok(client.send(&obj([
        ("op", "ingest".into()),
        ("session", Json::from("cooler")),
        ("traces", trace_batch(&batch2)),
    ])));
    let refined2 = ok(client.send(&obj([
        ("op", "refine".into()),
        ("session", Json::from("cooler")),
    ])));
    let fp2 = refined2
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let model2 = ok(client.send(&obj([
        ("op", "model".into()),
        ("session", Json::from("cooler")),
        ("format", Json::from("dot")),
    ])));
    let dot2 = model2.get("dot").unwrap().as_str().unwrap().to_string();

    // Graceful shutdown with the session still open: the daemon drains it.
    ok(client.send(&obj([("op", "shutdown".into())])));
    server.join().expect("server thread").expect("server io");

    // Second daemon instance (fresh process state as far as the session is
    // concerned): restore from the snapshot file and replay the tail.
    let (addr2, server2) = start_server();
    let mut client2 = connect(addr2);
    let restored = ok(client2.send(&obj([
        ("op", "restore".into()),
        ("session", Json::from("cooler")),
        ("path", Json::from(path_str.as_str())),
    ])));
    assert_eq!(restored.get("replayed_ingests").unwrap().as_u64(), Some(1));
    assert_eq!(restored.get("replayed_refines").unwrap().as_u64(), Some(1));
    assert_eq!(
        restored.get("fingerprint_digest").unwrap().as_str(),
        Some(digest1.as_str()),
        "restored session replayed to a different pre-snapshot state"
    );

    ok(client2.send(&obj([
        ("op", "ingest".into()),
        ("session", Json::from("cooler")),
        ("traces", trace_batch(&batch2)),
    ])));
    let refined2b = ok(client2.send(&obj([
        ("op", "refine".into()),
        ("session", Json::from("cooler")),
    ])));
    assert_eq!(
        refined2b.get("fingerprint").unwrap().as_str(),
        Some(fp2.as_str()),
        "post-restore refinement diverged from the original session"
    );
    let model2b = ok(client2.send(&obj([
        ("op", "model".into()),
        ("session", Json::from("cooler")),
        ("format", Json::from("dot")),
    ])));
    assert_eq!(model2b.get("dot").unwrap().as_str(), Some(dot2.as_str()));

    // A tampered snapshot fails the integrity check instead of silently
    // learning from corrupt traces.
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("\"store_digest\":\"", "\"store_digest\":\"0", 1);
    std::fs::write(&path, tampered).unwrap();
    let rejected = client2
        .send(&obj([
            ("op", "restore".into()),
            ("session", Json::from("tampered")),
            ("path", Json::from(path_str.as_str())),
        ]))
        .unwrap();
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

    ok(client2.send(&obj([("op", "shutdown".into())])));
    server2.join().expect("server thread").expect("server io");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_snapshot_records_decoded_batches_and_bare_refines() {
    let (addr, server) = start_server();
    let benchmark = cooler();
    let path = std::env::temp_dir().join(format!("amle-snapshot-log-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let batch = sample_batch(&benchmark, 3, 6, 5);
    let mut client = connect(addr);
    ok(client.send(&obj([
        ("op", "open".into()),
        ("session", Json::from("s")),
        ("system", Json::from(COOLER)),
    ])));

    // The same integers spelled otherwise, and fields no replay reads: one
    // of them a number the writer cannot render back (1e999 reads as
    // infinity).
    let spelled = trace_batch(&batch)
        .render()
        .replace(",0]", ",-0]")
        .replace(",1]", ",1.0]");
    assert!(spelled.contains("-0]"));
    let mut raw = |line: String| {
        client
            .stream()
            .write_all(format!("{line}\n").as_bytes())
            .expect("write a request line");
        ok(client.read_line())
    };
    raw(format!(
        r#"{{"op":"ingest","session":"s","traces":{spelled},"timeout_ms":60000,"note":1e999}}"#
    ));
    let refined = raw(r#"{"op":"refine","session":"s","traces":1e999}"#.to_string());
    ok(client.send(&obj([
        ("op", "snapshot".into()),
        ("session", Json::from("s")),
        ("path", Json::from(path_str)),
    ])));

    let text = std::fs::read_to_string(&path).unwrap();
    let ops = format!(
        r#""ops":[{{"op":"ingest","traces":{}}},{{"op":"refine"}}]"#,
        trace_batch(&batch).render()
    );
    assert!(text.contains(&ops), "expected {ops} in {text}");
    let restored = ok(client.send(&obj([
        ("op", "restore".into()),
        ("session", Json::from("r")),
        ("path", Json::from(path_str)),
    ])));
    assert_eq!(
        restored.get("fingerprint_digest"),
        refined.get("fingerprint_digest")
    );

    ok(client.send(&obj([("op", "shutdown".into())])));
    server.join().expect("server thread").expect("server io");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn backpressure_rejects_and_deadlines_expire_without_blocking() {
    let (addr, server) = start_server();
    let mut client = connect(addr);
    ok(client.send(&obj([
        ("op", "open".into()),
        ("session", Json::from("busy")),
        ("system", Json::from(COOLER)),
        ("config", obj([("queue_capacity", Json::from(1usize))])),
    ])));

    // Occupy the actor: connection 1 parks in a 1.5s diagnostics sleep.
    let sleeper = thread::spawn(move || {
        let mut conn = connect(addr);
        ok(conn.send(&obj([
            ("op", "sleep".into()),
            ("session", Json::from("busy")),
            ("ms", Json::from(1500u64)),
        ])))
    });
    thread::sleep(Duration::from_millis(300));

    // Connection 2 fills the single queue slot and asks for a deadline far
    // shorter than the sleep: it gets a retriable timeout, not a hang.
    let queued = thread::spawn(move || {
        let mut conn = connect(addr);
        conn.send(&obj([
            ("op", "stats".into()),
            ("session", Json::from("busy")),
            ("timeout_ms", Json::from(100u64)),
        ]))
        .unwrap()
    });
    thread::sleep(Duration::from_millis(300));

    // Connection 3 finds the queue full and is rejected immediately —
    // the accept loop and the connection stay fully responsive.
    let mut conn3 = connect(addr);
    let rejected = conn3
        .send(&obj([
            ("op", "stats".into()),
            ("session", Json::from("busy")),
        ]))
        .unwrap();
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
    let stats = ok(conn3.send(&obj([
        ("op", "stats".into()),
        ("session", Json::from("busy")),
    ])));
    assert_eq!(stats.get("system").unwrap().as_str(), Some(COOLER));

    ok(conn3.send(&obj([("op", "shutdown".into())])));
    server.join().expect("server thread").expect("server io");
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (addr, server) = start_server();
    let mut client = connect(addr);

    assert_eq!(
        ok(client.send(&obj([("op", "ping".into())]))).get("pong"),
        Some(&Json::Bool(true))
    );

    client
        .stream()
        .write_all(b"{not json\n")
        .expect("write a malformed request");
    let bad = client.read_line().unwrap();
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(bad.get("retriable"), Some(&Json::Bool(false)));

    let unknown = client.send(&obj([("op", "teleport".into())])).unwrap();
    assert!(unknown
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown op"));

    let missing = client
        .send(&obj([
            ("op", "refine".into()),
            ("session", Json::from("ghost")),
        ]))
        .unwrap();
    assert!(missing
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown session"));

    let bad_system = client
        .send(&obj([
            ("op", "open".into()),
            ("session", Json::from("s")),
            ("system", Json::from("PerpetuumMobile")),
        ]))
        .unwrap();
    assert!(bad_system
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown system"));

    // A zero k-induction bound is refused at `open`; the connection and the
    // daemon keep serving.
    let zero_k = client
        .send(&obj([
            ("op", "open".into()),
            ("session", Json::from("z")),
            ("system", Json::from(COOLER)),
            ("config", obj([("k", Json::from(0usize))])),
        ]))
        .unwrap();
    assert_eq!(zero_k.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(zero_k.get("retriable"), Some(&Json::Bool(false)));
    assert!(zero_k
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("`k`"));

    ok(client.send(&obj([
        ("op", "open".into()),
        ("session", Json::from("s")),
        ("system", Json::from(COOLER)),
    ])));
    let duplicate = client
        .send(&obj([
            ("op", "open".into()),
            ("session", Json::from("s")),
            ("system", Json::from(COOLER)),
        ]))
        .unwrap();
    assert!(duplicate
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("already exists"));

    // Refine before any trace arrived, and model before any refinement.
    let empty = client
        .send(&obj([
            ("op", "refine".into()),
            ("session", Json::from("s")),
        ]))
        .unwrap();
    assert!(empty
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("at least one ingested trace"));
    let no_model = client
        .send(&obj([
            ("op", "model".into()),
            ("session", Json::from("s")),
            ("format", Json::from("dot")),
        ]))
        .unwrap();
    assert!(no_model
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("refine first"));

    // A malformed trace batch is rejected by the wire codec with context.
    let bad_rows = client
        .send(&obj([
            ("op", "ingest".into()),
            ("session", Json::from("s")),
            ("traces", parse_json("[[[1,2,3,4,5,6,7,8,9]]]").unwrap()),
        ]))
        .unwrap();
    assert!(bad_rows
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("columns"));

    // A request line over the cap gets an error on its own connection,
    // which closes; the daemon keeps serving the others. Exactly cap + 1
    // bytes leave the server nothing unread, so the reply is not lost to a
    // reset, and the read timeout turns a daemon that keeps reading into a
    // failure instead of a hang.
    let mut flooder = connect(addr);
    flooder
        .stream()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    flooder
        .stream()
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("write oversized request");
    let oversized = flooder.read_line().unwrap();
    assert_eq!(oversized.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(oversized.get("retriable"), Some(&Json::Bool(false)));
    assert!(oversized
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("exceeds"));
    assert_eq!(
        ok(client.send(&obj([("op", "ping".into())]))).get("pong"),
        Some(&Json::Bool(true))
    );

    ok(client.send(&obj([("op", "shutdown".into())])));
    server.join().expect("server thread").expect("server io");
}
