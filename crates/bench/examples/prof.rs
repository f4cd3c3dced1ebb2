//! Per-benchmark profiling probe: runs one suite benchmark at an explicit
//! experiment shape and prints the phase breakdown, for chasing down where a
//! configuration blows up.
//!
//! ```text
//! cargo run --release -p amle-bench --example prof -- <name> <traces> <len> <k> <iters>
//! ```
//!
//! `<name>` is a suite benchmark; the four numbers are positive integers.
//! Missing, unparsable or zero arguments and unknown benchmarks print the
//! usage and exit with status 2.

use amle_bench::run_active;
use amle_benchmarks::benchmark_by_name;
use amle_core::ActiveLearnerConfig;
use amle_learner::HistoryLearner;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: prof <name> <traces> <len> <k> <iters>\n\
         \x20 <name>: a suite benchmark; the four numbers are positive integers"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name, numbers @ ..] = args.as_slice() else {
        return usage();
    };
    let numbers: Vec<usize> = numbers
        .iter()
        .filter_map(|raw| raw.parse().ok().filter(|&n| n > 0))
        .collect();
    let Ok([traces, len, k, iters]) = <[usize; 4]>::try_from(numbers) else {
        return usage();
    };
    let Some(b) = benchmark_by_name(name) else {
        eprintln!("unknown benchmark `{name}`");
        return usage();
    };
    let config = ActiveLearnerConfig {
        observables: Some(b.observables.clone()),
        initial_traces: traces,
        trace_length: len,
        k: b.k.min(k),
        max_iterations: iters,
        ..Default::default()
    };
    let t = Instant::now();
    let report = run_active(&b, HistoryLearner::default(), config).report;
    let solver = report.solver_stats();
    println!(
        "{name} t={traces}x{len} k={k} i={iters}: {:.2}s alpha={:.2} iters={} states={} solves={} Tsat={:.2}s",
        t.elapsed().as_secs_f64(),
        report.alpha,
        report.iterations,
        report.num_states(),
        solver.solve_calls,
        solver.solve_time.as_secs_f64()
    );
    println!(
        "  learn={:.2}s check={:.2}s total={:.2}s conditions_last={}",
        report.learn_time.as_secs_f64(),
        report.check_time.as_secs_f64(),
        report.total_time.as_secs_f64(),
        report
            .iteration_stats
            .last()
            .map(|s| s.conditions)
            .unwrap_or(0)
    );
    println!(
        "  cache: hits={} misses={} entries={}; engines: kiQ={} exQ={}",
        report.verdict_cache.hits,
        report.verdict_cache.misses,
        report.verdict_cache.entries,
        report.checker_stats.kinduction_queries,
        report.checker_stats.explicit_queries
    );
    ExitCode::SUCCESS
}
