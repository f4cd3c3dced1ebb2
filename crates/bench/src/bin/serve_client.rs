//! Load generator and smoke client for the `amle-served` daemon.
//!
//! ```text
//! serve-client [--addr ADDR] [--system NAME] [--sessions N] [--batches N]
//!              [--traces N] [--length N] [--seed N] [--workers N]
//!              [--expect-converged] [--shutdown]
//! ```
//!
//! Connects to a running daemon (retrying the connect for a few seconds so
//! CI can start the daemon in the background without a sleep), opens
//! `--sessions` sessions named `load-0`, `load-1`, …, and drives each
//! through `--batches` ingest+refine rounds with deterministically seeded
//! simulator traces (session index folded into the seed, so concurrent
//! sessions learn from distinct trace sets). Retriable rejections — a full
//! session queue or an expired deadline — are retried with backoff, which
//! doubles as an end-to-end exercise of the daemon's backpressure contract.
//!
//! * `--addr ADDR` — daemon address (default `127.0.0.1:4155`).
//! * `--system NAME` — benchmark system to learn (default
//!   `HomeClimateControlCooler`).
//! * `--sessions N` / `--batches N` / `--traces N` / `--length N` — load
//!   shape: sessions, ingest+refine rounds per session, traces per batch,
//!   trace length (defaults 1 / 2 / 8 / 12). Each must be at least 1, and
//!   the length at least 2.
//! * `--seed N` — base RNG seed (default 7).
//! * `--workers N` — condition-checking workers per session (default 1, at
//!   least 1).
//! * `--expect-converged` — exit non-zero unless every session's final
//!   refinement reports `converged: true` (the CI smoke gate).
//! * `--shutdown` — send `shutdown` after the load and wait for the
//!   acknowledgement, so the daemon process exits cleanly.
//!
//! A missing, unparsable or too small value prints the usage and exits 2
//! before any connection is tried. Every request goes out as one line in
//! one write, through `amle_serve::Client`.

use amle_bench::fingerprint_digest;
use amle_benchmarks::{benchmark_by_name, Benchmark};
use amle_serve::json::{obj, Json};
use amle_serve::{trace_batch, Client};
use amle_system::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

struct Options {
    addr: String,
    system: String,
    sessions: usize,
    batches: usize,
    traces: usize,
    length: usize,
    seed: u64,
    workers: usize,
    expect_converged: bool,
    shutdown: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve-client [--addr ADDR] [--system NAME] [--sessions N] [--batches N]\n\
         \x20                   [--traces N] [--length N] [--seed N] [--workers N]\n\
         \x20                   [--expect-converged] [--shutdown]"
    );
    ExitCode::from(2)
}

fn parse_options() -> Result<Options, ExitCode> {
    let mut options = Options {
        addr: "127.0.0.1:4155".to_string(),
        system: "HomeClimateControlCooler".to_string(),
        sessions: 1,
        batches: 2,
        traces: 8,
        length: 12,
        seed: 7,
        workers: 1,
        expect_converged: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, ExitCode> {
            args.next().ok_or_else(|| {
                eprintln!("{name} requires an argument");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--system" => options.system = value("--system")?,
            "--sessions" => options.sessions = at_least("--sessions", &value("--sessions")?, 1)?,
            "--batches" => options.batches = at_least("--batches", &value("--batches")?, 1)?,
            "--traces" => options.traces = at_least("--traces", &value("--traces")?, 1)?,
            "--length" => options.length = at_least("--length", &value("--length")?, 2)?,
            "--seed" => options.seed = at_least("--seed", &value("--seed")?, 0)?,
            "--workers" => options.workers = at_least("--workers", &value("--workers")?, 1)?,
            "--expect-converged" => options.expect_converged = true,
            "--shutdown" => options.shutdown = true,
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("unknown argument `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(options)
}

/// Parses `raw` as the value of `name`, which must be at least `min`.
fn at_least<T: FromStr + PartialOrd + std::fmt::Display>(
    name: &str,
    raw: &str,
    min: T,
) -> Result<T, ExitCode> {
    match raw.parse() {
        Ok(n) if n >= min => Ok(n),
        _ => {
            eprintln!("{name} requires an integer of at least {min}, got `{raw}`");
            Err(usage())
        }
    }
}

/// Connects, retrying for up to ~10s so a freshly spawned daemon has time
/// to bind.
fn connect(addr: &str) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        }
    }
}

/// Sends, retrying retriable rejections (full queue, expired deadline) with
/// linear backoff. Non-retriable errors are final.
fn send_retry(client: &mut Client, request: &Json) -> Result<Json, String> {
    for attempt in 0..50u64 {
        let response = client.send(request).map_err(|e| e.to_string())?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(response);
        }
        let retriable = response.get("retriable").and_then(Json::as_bool) == Some(true);
        let error = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error")
            .to_string();
        if !retriable {
            return Err(error);
        }
        std::thread::sleep(Duration::from_millis(50 * (attempt + 1)));
    }
    Err("retriable rejection persisted after 50 attempts".to_string())
}

fn simulated_batch(options: &Options, benchmark: &Benchmark, session: usize, batch: usize) -> Json {
    let seed = options
        .seed
        .wrapping_add(1000 * session as u64)
        .wrapping_add(batch as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let traces =
        Simulator::new(&benchmark.system).random_traces(options.traces, options.length, &mut rng);
    trace_batch(traces.iter())
}

fn drive_session(
    options: &Options,
    benchmark: &Benchmark,
    index: usize,
) -> Result<(bool, String), String> {
    let name = format!("load-{index}");
    let mut client = connect(&options.addr)?;
    let session = || ("session", Json::from(name.as_str()));
    send_retry(
        &mut client,
        &obj([
            ("op", "open".into()),
            session(),
            ("system", Json::from(options.system.as_str())),
            ("config", obj([("workers", Json::from(options.workers))])),
        ]),
    )?;
    let mut converged = false;
    let mut digest = String::new();
    for batch in 0..options.batches {
        let traces = simulated_batch(options, benchmark, index, batch);
        let ingest = obj([("op", "ingest".into()), session(), ("traces", traces)]);
        send_retry(&mut client, &ingest)?;
        let refined = send_retry(&mut client, &obj([("op", "refine".into()), session()]))?;
        converged = refined.get("converged").and_then(Json::as_bool) == Some(true);
        digest = refined
            .get("fingerprint_digest")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let fingerprint = refined
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("");
        if fingerprint_digest(fingerprint) != digest {
            return Err(format!(
                "session {name}: fingerprint digest mismatch (daemon says {digest})"
            ));
        }
        eprintln!(
            "session {name}: batch {}/{} alpha={} converged={converged} digest={digest}",
            batch + 1,
            options.batches,
            refined
                .get("alpha")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
    send_retry(&mut client, &obj([("op", "close".into()), session()]))?;
    Ok((converged, digest))
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(code) => return code,
    };
    let Some(benchmark) = benchmark_by_name(&options.system) else {
        eprintln!("unknown system `{}`", options.system);
        return ExitCode::FAILURE;
    };

    // Sessions run on concurrent connections — the point of a resident
    // daemon — and each drives its own ingest/refine rounds.
    let (options, benchmark) = (&options, &benchmark);
    let outcomes: Vec<Result<(bool, String), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.sessions)
            .map(|index| scope.spawn(move || drive_session(options, benchmark, index)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("session thread panicked".to_string()))
            })
            .collect()
    });

    let mut failed = false;
    let mut all_converged = true;
    for (index, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok((converged, digest)) => {
                println!(
                    "session load-{index}: {} digest={digest}",
                    if *converged {
                        "converged"
                    } else {
                        "not converged"
                    }
                );
                all_converged &= converged;
            }
            Err(e) => {
                eprintln!("session load-{index} failed: {e}");
                failed = true;
            }
        }
    }

    if options.shutdown {
        let shutdown = obj([("op", "shutdown".into())]);
        match connect(&options.addr).and_then(|mut client| send_retry(&mut client, &shutdown)) {
            Ok(_) => println!("daemon acknowledged shutdown"),
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else if options.expect_converged && !all_converged {
        eprintln!("--expect-converged: at least one session did not reach alpha = 1");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
