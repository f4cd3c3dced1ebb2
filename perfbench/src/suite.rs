//! The suite workloads, driven through `amle_core::ActiveLearner` exactly as
//! the `suite` binary drives them, one benchmark run at a time:
//!
//! * `table1-paper` — the 19 Table I benchmarks at the paper's 50×50 shape,
//!   sequential condition engine;
//! * `quick-suite` — the 27 `full_suite()` benchmarks at the `suite --quick`
//!   shape, with 2 condition workers (the `WorkerPool` path).
//!
//! An operation is one benchmark run: simulating its initial traces and
//! refining them (`ActiveLearner::run_with_traces`). A pass first simulates
//! every benchmark (its ingest phase), then refines them all (its refine
//! phase); the `ingest_*`/`refine_*` percentiles are over those per-pass
//! phase times. Per-benchmark runs of a few milliseconds, dominated by
//! thread start-up, swing with the host's load far more than whole phases
//! do; the traced run keeps one span per benchmark run.

use crate::layers::{Layer, LearnCall, Spans, TimedLearner};
use crate::measure::{
    cpu_seconds, median, mix, ms, peak_rss_mb, percentile, permutation, reset_peak_rss, sha256_hex,
};
use crate::{Metric, Outcome};
use amle_benchmarks::{all_benchmarks, full_suite, Benchmark};
use amle_core::{ActiveLearner, ActiveLearnerConfig, OracleConfig, ParallelConfig, RunReport};
use amle_learner::{HistoryLearner, ModelLearner};
use amle_system::{Simulator, TraceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// How many times set-up (building the benchmark systems) is repeated before
/// the first pass; it runs once more after every pass, and the median of all
/// is reported.
const SETUP_REPS: usize = 5;

/// Fresh traces per benchmark for the Theorem 1 check, and their length.
const FRESH_TRACES: usize = 10;
const FRESH_LENGTH: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `table1-paper`.
    Paper,
    /// `quick-suite`.
    Quick,
}

impl Shape {
    fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Shape::Paper => all_benchmarks(),
            Shape::Quick => full_suite(),
        }
    }

    /// The run configuration: `paper_config`, or the `suite --quick` shape.
    /// The simulation seed stays the configuration's own, so every run
    /// learns from the same initial traces as `suite` does.
    fn config(self, benchmark: &Benchmark) -> ActiveLearnerConfig {
        let (mut config, workers) = match self {
            Shape::Paper => (amle_bench::paper_config(benchmark), 1),
            Shape::Quick => (
                ActiveLearnerConfig {
                    observables: Some(benchmark.observables.clone()),
                    initial_traces: 12,
                    trace_length: 12,
                    k: benchmark.k.min(5),
                    max_iterations: 6,
                    ..Default::default()
                },
                2,
            ),
        };
        config.parallel = ParallelConfig::with_workers(workers);
        config.oracle = OracleConfig::default();
        config
    }
}

/// One benchmark run.
struct Op {
    simulate_start: Instant,
    simulate: Duration,
    run_start: Instant,
    run: Duration,
    report: RunReport,
    calls: Vec<LearnCall>,
}

fn refine<L: ModelLearner>(
    benchmark: &Benchmark,
    config: ActiveLearnerConfig,
    traces: TraceSet,
    learner: L,
) -> Result<(Instant, Duration, RunReport), String> {
    let start = Instant::now();
    let report = ActiveLearner::new(&benchmark.system, learner, config)
        .run_with_traces(traces)
        .map_err(|e| format!("{}: {e}", benchmark.name))?;
    Ok((start, start.elapsed(), report))
}

/// What one pass measured besides its benchmark runs: wall time, and how
/// it splits into the ingest phase and the refine phase.
struct PassUsage {
    wall: Duration,
    ingest: Duration,
    refine: Duration,
    cpu_s: f64,
    peak_rss_mb: Option<f64>,
}

/// One pass over every benchmark, in `order`; results in benchmark order.
fn run_pass(
    shape: Shape,
    benchmarks: &[Benchmark],
    order: &[usize],
    traced: bool,
) -> (PassUsage, Vec<Result<Op, String>>) {
    let pid = std::process::id();
    reset_peak_rss(pid);
    let cpu_before = cpu_seconds(pid).unwrap_or(0.0);
    let start = Instant::now();
    // Ingest first: simulate every benchmark's initial traces (the seeded
    // traces `ActiveLearner::run` would draw), then refine them all.
    let mut ingested: Vec<Option<(Instant, Duration, TraceSet)>> =
        benchmarks.iter().map(|_| None).collect();
    for &index in order {
        let config = shape.config(&benchmarks[index]);
        let simulate_start = Instant::now();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let traces = Simulator::new(&benchmarks[index].system).random_traces(
            config.initial_traces,
            config.trace_length,
            &mut rng,
        );
        ingested[index] = Some((simulate_start, simulate_start.elapsed(), traces));
    }
    let ingest = start.elapsed();
    let mut ops: Vec<Option<Result<Op, String>>> = benchmarks.iter().map(|_| None).collect();
    for &index in order {
        let benchmark = &benchmarks[index];
        let config = shape.config(benchmark);
        let (simulate_start, simulate, traces) = ingested[index].take().expect("simulated above");
        let log = RefCell::new(Vec::new());
        let refined = if traced {
            let learner = TimedLearner::new(HistoryLearner::default(), &log);
            refine(benchmark, config, traces, learner)
        } else {
            refine(benchmark, config, traces, HistoryLearner::default())
        };
        ops[index] = Some(refined.map(|(run_start, run, report)| Op {
            simulate_start,
            simulate,
            run_start,
            run,
            report,
            calls: log.into_inner(),
        }));
    }
    let wall = start.elapsed();
    let usage = PassUsage {
        wall,
        ingest,
        refine: wall - ingest,
        cpu_s: cpu_seconds(pid).unwrap_or(0.0) - cpu_before,
        peak_rss_mb: peak_rss_mb(pid),
    };
    let ops = ops
        .into_iter()
        .map(|op| op.expect("every benchmark ran"))
        .collect();
    (usage, ops)
}

/// What a suite run checks its outputs against.
struct Checks {
    /// Table I shape: fresh simulator traces per benchmark, from seeds the
    /// runs never use; the final model must admit them (Theorem 1).
    fresh: Vec<TraceSet>,
    /// Quick shape: the committed SHA-256 of the suite fingerprint.
    committed_sha256: Option<String>,
    /// Per-benchmark fingerprints of the first pass; later passes must
    /// reproduce them.
    first_fingerprints: Option<Vec<String>>,
    /// The first pass's exact-count ledger.
    first_ledger: Option<[(&'static str, u64); 5]>,
}

/// The committed quick-suite digest (`ci/quick-suite.fingerprint.sha256`).
fn committed_quick_sha256() -> Result<String, String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../ci/quick-suite.fingerprint.sha256"
    );
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.split_whitespace()
        .next()
        .map(str::to_string)
        .ok_or_else(|| format!("{path} is empty"))
}

impl Checks {
    /// Checks one pass's outputs; returns the number of failed operations.
    fn check_pass(
        &mut self,
        shape: Shape,
        benchmarks: &[Benchmark],
        ops: &[Result<Op, String>],
    ) -> u64 {
        let mut failed = 0;
        let mut fingerprints = Vec::with_capacity(ops.len());
        let mut suite_fingerprint = String::new();
        for (index, (benchmark, op)) in benchmarks.iter().zip(ops).enumerate() {
            let report = match op {
                Ok(op) => &op.report,
                Err(e) => {
                    eprintln!("run failed: {e}");
                    failed += 1;
                    fingerprints.push(String::new());
                    continue;
                }
            };
            if shape == Shape::Paper {
                let d = benchmark.score_d(&report.abstraction);
                let rejected = self.fresh[index]
                    .iter()
                    .filter(|t| !report.abstraction.accepts_trace(t))
                    .count();
                if !report.converged || report.alpha != 1.0 || d != 1.0 || rejected > 0 {
                    eprintln!(
                        "{}: alpha={} converged={} d={d} fresh traces rejected={rejected}",
                        benchmark.name, report.alpha, report.converged
                    );
                    failed += 1;
                }
            }
            let fingerprint = report.semantic_fingerprint(benchmark.system.vars());
            suite_fingerprint.push_str(&format!("== {}\n{fingerprint}", benchmark.name));
            fingerprints.push(fingerprint);
        }
        match &self.first_fingerprints {
            None => self.first_fingerprints = Some(fingerprints),
            Some(first) => {
                for ((benchmark, a), b) in benchmarks.iter().zip(first).zip(&fingerprints) {
                    if a != b {
                        eprintln!("{}: fingerprint changed between passes", benchmark.name);
                        failed += 1;
                    }
                }
            }
        }
        if let Some(committed) = &self.committed_sha256 {
            let digest = sha256_hex(suite_fingerprint.as_bytes());
            if &digest != committed {
                eprintln!("quick-suite fingerprint sha256 {digest} != committed {committed}");
                failed += 1;
            }
        }
        failed
    }

    fn check_ledger(&mut self, layer: &Layer) -> u64 {
        let ledger = layer.ledger();
        match &self.first_ledger {
            None => {
                self.first_ledger = Some(ledger);
                0
            }
            Some(first) if *first == ledger => 0,
            Some(first) => {
                eprintln!("exact-count ledger drifted: {first:?} -> {ledger:?}");
                1
            }
        }
    }
}

/// Runs a suite workload for `seconds`. The seed orders the benchmarks
/// within each pass and picks the Theorem 1 check's fresh traces.
pub fn run(
    shape: Shape,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut benchmarks = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        benchmarks = std::hint::black_box(shape.benchmarks());
        setup.push(start.elapsed().as_secs_f64());
    }
    let order = permutation(benchmarks.len(), mix(seed, 1));
    let mut checks = Checks {
        fresh: Vec::new(),
        committed_sha256: None,
        first_fingerprints: None,
        first_ledger: None,
    };
    match shape {
        Shape::Paper => {
            for (index, benchmark) in benchmarks.iter().enumerate() {
                let mut fresh_seed = mix(seed, 2 + index as u64);
                if fresh_seed == shape.config(benchmark).seed {
                    fresh_seed += 1;
                }
                let mut rng = StdRng::seed_from_u64(fresh_seed);
                checks
                    .fresh
                    .push(Simulator::new(&benchmark.system).random_traces(
                        FRESH_TRACES,
                        FRESH_LENGTH,
                        &mut rng,
                    ));
            }
        }
        Shape::Quick => checks.committed_sha256 = Some(committed_quick_sha256()?),
    }

    let mut spans = Spans::new();
    let (mut walls, mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let (mut refine_ms, mut ingest_ms) = (Vec::new(), Vec::new());
    let (mut traced_layers, mut traced_cpu, mut cold) = (Vec::new(), Vec::new(), None);
    let (mut attempted, mut completed, mut failed) = (0u64, 0u64, 0u64);
    let clock = Instant::now();
    let min_passes = if trace { 2 } else { 1 };
    for pass in 0.. {
        if pass >= min_passes && clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // The traced run alternates untraced and traced passes, starting
        // untraced, so tracing overhead is measured within one process.
        let traced = trace && pass % 2 == 1;
        let (usage, ops) = run_pass(shape, &benchmarks, &order, traced);
        let wall = usage.wall.as_secs_f64();
        peaks.push(usage.peak_rss_mb.ok_or("cannot read VmHWM")?);
        ingest_ms.push(ms(usage.ingest));
        refine_ms.push(ms(usage.refine));
        attempted += ops.len() as u64;
        failed += checks.check_pass(shape, &benchmarks, &ops);
        let mut layer = Layer::default();
        for (benchmark, op) in benchmarks.iter().zip(&ops) {
            let Ok(op) = op else { continue };
            completed += 1;
            layer.simulate_s += op.simulate.as_secs_f64();
            layer.add_run(&op.report, op.run, &op.calls);
            if traced {
                let label = format!("{} pass {pass}", benchmark.name);
                let root = spans.id();
                spans.push(
                    root,
                    "system.simulate",
                    &label,
                    Some(op.simulate_start),
                    op.simulate,
                );
                let run_id = spans.push(root, "core.run", &label, Some(op.run_start), op.run);
                spans.record_run(run_id, &label, &op.report, op.run, &op.calls);
                let span = op.run_start + op.run - op.simulate_start;
                spans.record(root, 0, "benchmark", &label, Some(op.simulate_start), span);
            }
        }
        failed += checks.check_ledger(&layer);
        walls.push(wall);
        if traced {
            traced_walls.push(wall);
            traced_cpu.push(usage.cpu_s);
            traced_layers.push(layer.clone());
        } else if pass > 0 || !trace {
            untraced_walls.push(wall);
        }
        if pass == 0 {
            cold = Some(layer);
        }
        // One more set-up after every pass samples it across the whole run.
        let start = Instant::now();
        std::hint::black_box(shape.benchmarks());
        setup.push(start.elapsed().as_secs_f64());
    }
    let cold = cold.expect("at least one pass ran");

    let metrics: Vec<Metric> = if trace {
        if untraced_walls.is_empty() {
            // Only the cold first pass ran untraced; compare against it.
            untraced_walls.push(walls[0]);
        }
        let mut metrics = Layer::metrics(&traced_layers, &cold);
        let probe = crate::daemon::probe(seed)?;
        attempted += probe.attempted;
        failed += probe.failed;
        metrics.extend(probe.metrics);
        metrics.push(("process.cpu_s", median(&traced_cpu), "s"));
        metrics.push((
            "tracing.overhead_s",
            median(&traced_walls) - median(&untraced_walls),
            "s",
        ));
        let path = spans
            .write(workload, seed)
            .map_err(|e| format!("cannot write spans: {e}"))?;
        eprintln!("spans written to {}", path.display());
        metrics
    } else {
        let total_wall: f64 = walls.iter().sum();
        vec![
            ("wall_s", median(&walls), "s"),
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mb", median(&peaks), "MiB"),
            ("refine_p50_ms", percentile(&refine_ms, 0.5), "ms"),
            ("refine_p95_ms", percentile(&refine_ms, 0.95), "ms"),
            ("ingest_p50_ms", percentile(&ingest_ms, 0.5), "ms"),
            ("ingest_p95_ms", percentile(&ingest_ms, 0.95), "ms"),
            ("requests_per_s", completed as f64 / total_wall, "1/s"),
        ]
    };
    eprintln!(
        "{workload}: {} passes, {} runs per pass",
        walls.len(),
        benchmarks.len()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
