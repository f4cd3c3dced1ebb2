//! The multi-threaded suite runner: runs the full evaluation suite (Table I
//! plus the synthetic families) sharded across worker threads and emits the
//! Table I-style report, with an optional sequential-vs-parallel comparison
//! that verifies report determinism and measures the wall-clock speedup.
//!
//! ```text
//! suite [--workers N] [--condition-workers N] [--quick] [--compare]
//!       [--repeat N] [--table1-only] [--stress] [--circuits]
//!       [--circuit-file <path>] [--only <substring>]
//!       [--dump-fingerprint <path>] [--json <path>]
//!       [--learner history|ktails|satdfa]
//!       [--engine kinduction|portfolio] [--no-cache]
//!       [--cross-validate]
//! ```
//!
//! Every `N` must be a positive integer; anything else (`0` included)
//! prints the usage and exits with status 2.
//!
//! * `--workers N` — number of suite-level worker threads (benchmarks are
//!   sharded across them). Defaults to 4.
//! * `--condition-workers N` — worker count of the per-run condition-checking
//!   engine (see `amle_core::ParallelConfig`). Defaults to 1: benchmark-level
//!   sharding already saturates the cores, and nesting both multiplies
//!   threads.
//! * `--quick` — use the smaller experiment shape (12 traces of length 12,
//!   `k` capped at 5, at most 6 iterations) instead of the paper's 50×50.
//!   This is tighter than `amle_bench::quick_config` (15×15), the ablation
//!   shape.
//! * `--compare` — additionally run everything sequentially (1 suite
//!   worker, 1 condition worker), assert that both runs' reports are
//!   byte-identical, and print the wall-clock speedup.
//! * `--repeat N` — run the whole suite `N` times and keep, per benchmark,
//!   the report of its fastest run: the minimum wall time, with that run's
//!   solver time (fingerprints, solve calls and cache hits are asserted
//!   identical across repeats). Best-of-N is what `perf-diff` regression
//!   gating should consume: on a busy machine a single run's wall time
//!   flaps by tens of milliseconds, while the minimum estimates the
//!   noise-free cost.
//! * `--table1-only` — restrict the suite to the Table I benchmarks; without
//!   `--quick` this is the paper's Table I experiment (its "Our Algorithm"
//!   columns at the paper's 50×50 shape).
//! * `--stress` — extend the suite with the non-converging splicing-stress
//!   family (`SynthSpliceStorm…`), which exercises the interned trace store
//!   and the incremental word pipeline hardest.
//! * `--circuits` — extend the suite with the gate-level circuit family
//!   (`Circuit…`): the embedded AIGER/`.bench` fixtures of `amle-circuit`,
//!   compiled to systems after cone-of-influence reduction. The report
//!   gains a netlist-statistics table (inputs, latches and gates in/out of
//!   the COI), and `--json` records gain a per-benchmark `circuit` object.
//!   Combine with `--only Circuit` to run the circuit family alone.
//! * `--circuit-file <path>` — load a real `.aag` (ASCII AIGER) or `.bench`
//!   (ISCAS) netlist from disk and append it to the suite as
//!   `CircuitFile_<stem>`, through the same COI-reduce-and-compile pipeline
//!   as the embedded fixtures but with generic witness schedules (see
//!   `amle_benchmarks::circuit_benchmark_from_file`). Repeatable; files are
//!   appended in argument order. Does not imply `--circuits`.
//! * `--only <substring>` — restrict the suite to benchmarks whose name
//!   contains the substring (e.g. `--only Synth`).
//! * `--dump-fingerprint <path>` — write the concatenated semantic
//!   fingerprints to a file, for byte-for-byte comparison across versions
//!   (the trace-store representation swap and the expression-interner swap
//!   were verified this way) and across oracle engines (CI diffs the
//!   portfolio run against the kinduction baseline).
//! * `--json <path>` — write the machine-readable per-benchmark results
//!   (wall time, iterations, solver work, verdict-cache and interner
//!   statistics, fingerprint digests; see `amle_bench::suite_json`), which
//!   `perf-diff` compares across versions.
//! * `--learner history|ktails|satdfa` — the model-learning component
//!   driven by the loop (default `history`, the paper's configuration; see
//!   `amle_learner::LearnerKind::from_name`). `satdfa` does not finish any
//!   quick Table I benchmark within 20 s; pair it with `--only`.
//! * `--engine kinduction|portfolio` — the routing threshold of the
//!   condition oracle (see `amle_checker::OracleKind::route_threshold`):
//!   `portfolio` (the default) routes queries on small input/state products
//!   to the explicit-state engine and the rest to k-induction, `kinduction`
//!   (the paper's configuration) answers every query by k-induction.
//!   Fingerprints are byte-identical across engines; the `solves`,
//!   `Tsat(s)` and `%Tm` columns are not.
//! * `--no-cache` — disable the cross-iteration verdict cache (enabled by
//!   default; fingerprints are byte-identical either way).
//! * `--cross-validate` — portfolio cross-validation: every explicitly
//!   routed query is also answered by k-induction and asserted equal.
//!
//! Besides the Table I columns the runner prints the trace-store / word
//! pipeline statistics table (see the README's "suite statistics" section):
//! per benchmark the stored trace count, distinct interned observations,
//! shared-prefix segments, estimated KiB saved, and the learner's
//! encoded-vs-reused word counts, followed by the per-iteration encode
//! curve.

use amle_bench::{
    format_active_table, format_circuit_table, format_oracle_table, format_store_stats_table,
    paper_config, run_suite, suite_fingerprint, suite_json, SuiteRunMeta,
};
use amle_benchmarks::{all_benchmarks, full_suite, Benchmark};
use amle_core::{ActiveLearnerConfig, OracleConfig, OracleKind, ParallelConfig};
use amle_learner::LearnerKind;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    workers: usize,
    condition_workers: usize,
    quick: bool,
    compare: bool,
    repeat: usize,
    table1_only: bool,
    stress: bool,
    circuits: bool,
    circuit_files: Vec<String>,
    only: Option<String>,
    dump_fingerprint: Option<String>,
    json: Option<String>,
    learner: String,
    oracle: OracleConfig,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: suite [--workers N] [--condition-workers N] [--quick] [--compare]\n\
         \x20            [--repeat N] [--table1-only] [--stress] [--circuits]\n\
         \x20            [--circuit-file <path>] [--only <substring>]\n\
         \x20            [--dump-fingerprint <path>] [--json <path>]\n\
         \x20            [--learner {}]\n\
         \x20            [--engine kinduction|portfolio] [--no-cache]\n\
         \x20            [--cross-validate]",
        LearnerKind::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_options() -> Result<Options, ExitCode> {
    let mut options = Options {
        workers: 4,
        condition_workers: 1,
        quick: false,
        compare: false,
        repeat: 1,
        table1_only: false,
        stress: false,
        circuits: false,
        circuit_files: Vec::new(),
        only: None,
        dump_fingerprint: None,
        json: None,
        learner: "history".to_string(),
        oracle: OracleConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, ExitCode> {
            args.next().ok_or_else(|| {
                eprintln!("{name} requires an argument");
                usage()
            })
        };
        let mut numeric = |name: &str| -> Result<usize, ExitCode> {
            let raw = value(name)?;
            match raw.parse() {
                Ok(n) if n > 0 => Ok(n),
                _ => {
                    eprintln!("{name} requires a positive integer, got `{raw}`");
                    Err(usage())
                }
            }
        };
        match arg.as_str() {
            "--workers" => options.workers = numeric("--workers")?,
            "--condition-workers" => options.condition_workers = numeric("--condition-workers")?,
            "--quick" => options.quick = true,
            "--compare" => options.compare = true,
            "--repeat" => options.repeat = numeric("--repeat")?,
            "--table1-only" => options.table1_only = true,
            "--stress" => options.stress = true,
            "--circuits" => options.circuits = true,
            "--circuit-file" => options.circuit_files.push(value("--circuit-file")?),
            "--only" => options.only = Some(value("--only")?),
            "--dump-fingerprint" => {
                options.dump_fingerprint = Some(value("--dump-fingerprint")?);
            }
            "--json" => options.json = Some(value("--json")?),
            "--learner" => {
                let name = value("--learner")?;
                if LearnerKind::from_name(&name).is_none() {
                    eprintln!(
                        "unknown learner `{name}` ({})",
                        LearnerKind::NAMES.join("|")
                    );
                    return Err(usage());
                }
                options.learner = name;
            }
            "--engine" => {
                let name = value("--engine")?;
                match OracleKind::from_name(&name) {
                    Some(engine) => options.oracle.engine = engine,
                    None => {
                        eprintln!("unknown engine `{name}` (kinduction|portfolio)");
                        return Err(usage());
                    }
                }
            }
            "--no-cache" => options.oracle.verdict_cache = false,
            "--cross-validate" => options.oracle.cross_validate = true,
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("unknown argument `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(options)
}

fn config_for(
    benchmark: &Benchmark,
    quick: bool,
    condition_workers: usize,
    oracle: OracleConfig,
) -> ActiveLearnerConfig {
    let mut config = if quick {
        // Tighter than `quick_config`: the full-suite sweep visits every
        // benchmark, including ones that do not converge at this scale, and
        // for those the trace-splicing growth and the larger-k step-case
        // queries blow up super-linearly with the iteration count.
        ActiveLearnerConfig {
            observables: Some(benchmark.observables.clone()),
            initial_traces: 12,
            trace_length: 12,
            k: benchmark.k.min(5),
            max_iterations: 6,
            ..Default::default()
        }
    } else {
        paper_config(benchmark)
    };
    config.parallel = ParallelConfig::with_workers(condition_workers);
    config.oracle = oracle;
    config
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(code) => return code,
    };
    let mut suite = if options.table1_only {
        all_benchmarks()
    } else {
        full_suite()
    };
    // `--stress` appends exactly the splicing-stress family to either base
    // set (`--table1-only --stress` must not smuggle the other synthetic
    // families back in).
    if options.stress {
        suite.extend(amle_benchmarks::splice_stress_benchmarks(
            amle_benchmarks::DEFAULT_SEED,
        ));
    }
    if options.circuits {
        suite.extend(amle_benchmarks::circuit_benchmarks());
    }
    for path in &options.circuit_files {
        match amle_benchmarks::circuit_benchmark_from_file(std::path::Path::new(path)) {
            Ok(benchmark) => suite.push(benchmark),
            Err(e) => {
                eprintln!("--circuit-file: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(only) = &options.only {
        suite.retain(|b| b.name.contains(only.as_str()));
        if suite.is_empty() {
            eprintln!("--only `{only}` matches no benchmark");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "suite: {} benchmarks, {} suite worker(s), {} condition worker(s), engine {}, learner {}{}{}",
        suite.len(),
        options.workers,
        options.condition_workers,
        options.oracle.engine.name(),
        options.learner,
        if options.oracle.verdict_cache {
            ""
        } else {
            ", verdict cache off"
        },
        if options.quick { ", quick config" } else { "" }
    );

    let run = |suite_workers: usize, condition_workers: usize| {
        let start = Instant::now();
        let rows = run_suite(&suite, suite_workers, |benchmark| {
            eprintln!("running {} ...", benchmark.name);
            // A fresh learner per benchmark run, so per-learner incremental
            // caches never leak across benchmarks.
            (
                LearnerKind::from_name(&options.learner)
                    .expect("learner name validated at parse time"),
                config_for(benchmark, options.quick, condition_workers, options.oracle),
            )
        });
        (rows, start.elapsed())
    };

    let (mut rows, mut parallel_time) = run(options.workers, options.condition_workers);
    // `--repeat N`: keep each benchmark's fastest run, and assert the
    // deterministic side of every repeat is identical (any divergence is a
    // bug worth failing loudly on, not averaging away).
    for round in 1..options.repeat {
        eprintln!("repeat {}/{} ...", round + 1, options.repeat);
        let (repeat_rows, repeat_time) = run(options.workers, options.condition_workers);
        if suite_fingerprint(&suite, &repeat_rows) != suite_fingerprint(&suite, &rows) {
            eprintln!("determinism violation: repeat {} diverged", round + 1);
            return ExitCode::FAILURE;
        }
        for (row, repeat_row) in rows.iter_mut().zip(repeat_rows) {
            let (kept, repeat) = (&row.report, &repeat_row.report);
            if repeat.solver_stats().solve_calls != kept.solver_stats().solve_calls
                || repeat.verdict_cache.hits != kept.verdict_cache.hits
            {
                eprintln!(
                    "determinism violation: {} changed solver counters across repeats",
                    row.name
                );
                return ExitCode::FAILURE;
            }
            if repeat.total_time < kept.total_time {
                *row = repeat_row;
            }
        }
        parallel_time = parallel_time.min(repeat_time);
    }
    let rows = rows;
    let parallel_time = parallel_time;

    if let Some(path) = &options.dump_fingerprint {
        if let Err(e) = std::fs::write(path, suite_fingerprint(&suite, &rows)) {
            eprintln!("cannot write fingerprint to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fingerprint written to {path}");
    }

    if let Some(path) = &options.json {
        let meta = SuiteRunMeta {
            engine: options.oracle.engine.name().to_string(),
            learner: options.learner.clone(),
            quick: options.quick,
            workers: options.workers,
            condition_workers: options.condition_workers,
            wall_time_s: parallel_time.as_secs_f64(),
        };
        if let Err(e) = std::fs::write(path, suite_json(&meta, &suite, &rows)) {
            eprintln!("cannot write suite JSON to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("machine-readable results written to {path}");
    }

    println!("Table I + synthetic families — Our Algorithm");
    println!("{}", format_active_table(&rows));
    println!("Trace store & word pipeline");
    println!("{}", format_store_stats_table(&rows));
    println!(
        "Oracle portfolio & verdict cache (engine: {})",
        options.oracle.engine.name()
    );
    println!("{}", format_oracle_table(&rows));
    let circuit_table = format_circuit_table(&rows);
    if !circuit_table.is_empty() {
        println!("Circuit netlists (cone-of-influence reduction)");
        println!("{circuit_table}");
    }
    let converged = rows
        .iter()
        .filter(|r| (r.report.alpha - 1.0).abs() < 1e-9)
        .count();
    let exact = rows.iter().filter(|r| (r.d - 1.0).abs() < 1e-9).count();
    println!(
        "summary: {}/{} benchmarks reached alpha = 1, {}/{} reached d = 1; wall-clock {:.2}s with {} worker(s)",
        converged,
        rows.len(),
        exact,
        rows.len(),
        parallel_time.as_secs_f64(),
        options.workers
    );

    if options.compare {
        eprintln!("re-running sequentially for the determinism + speedup comparison ...");
        let (sequential_rows, sequential_time) = run(1, 1);
        let parallel_fp = suite_fingerprint(&suite, &rows);
        let sequential_fp = suite_fingerprint(&suite, &sequential_rows);
        if parallel_fp != sequential_fp {
            eprintln!("determinism violation: parallel and sequential suite reports differ");
            return ExitCode::FAILURE;
        }
        println!(
            "determinism: OK — {} workers and 1 worker produced byte-identical reports ({} fingerprint bytes)",
            options.workers,
            parallel_fp.len()
        );
        println!(
            "speedup: sequential {:.2}s / parallel {:.2}s = {:.2}x with {} worker(s)",
            sequential_time.as_secs_f64(),
            parallel_time.as_secs_f64(),
            sequential_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9),
            options.workers
        );
    }
    ExitCode::SUCCESS
}
