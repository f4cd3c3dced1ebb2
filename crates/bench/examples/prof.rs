//! Per-benchmark profiling probe: runs one suite benchmark at an explicit
//! experiment shape and prints the phase breakdown, for chasing down where a
//! configuration blows up.
//!
//! ```text
//! cargo run --release -p amle-bench --example prof -- <name> <traces> <len> <k> <iters>
//! ```

use amle_bench::run_active;
use amle_benchmarks::benchmark_by_name;
use amle_core::ActiveLearnerConfig;
use amle_learner::HistoryLearner;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap();
    let traces: usize = args.next().unwrap().parse().unwrap();
    let len: usize = args.next().unwrap().parse().unwrap();
    let k: usize = args.next().unwrap().parse().unwrap();
    let iters: usize = args.next().unwrap().parse().unwrap();
    let b = benchmark_by_name(&name).unwrap();
    let config = ActiveLearnerConfig {
        observables: Some(b.observables.clone()),
        initial_traces: traces,
        trace_length: len,
        k: b.k.min(k),
        max_iterations: iters,
        ..Default::default()
    };
    let t = Instant::now();
    let (row, report) = run_active(&b, HistoryLearner::default(), config);
    println!(
        "{name} t={traces}x{len} k={k} i={iters}: {:.2}s alpha={:.2} iters={} states={} solves={} Tsat={:.2}s",
        t.elapsed().as_secs_f64(),
        row.alpha,
        row.iterations,
        row.states,
        row.solve_calls,
        report.solver_stats().solve_time.as_secs_f64()
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
}
