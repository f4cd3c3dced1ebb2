//! Differential tests of the parallel condition-checking engine.
//!
//! For every benchmark of the full suite (Table I plus the synthetic
//! families), an active-learning run with `workers = 4` must produce a
//! [`RunReport`] identical to the `workers = 1` run: the same learned NFA,
//! the same iteration counts, the same invariants and the same deterministic
//! work counters. This mirrors the incremental-vs-fresh equivalence test of
//! the checker crate one level up, at the whole-loop granularity.

use amle_benchmarks::{full_suite, Benchmark};
use amle_core::{ActiveLearner, ActiveLearnerConfig, ParallelConfig, RunReport};
use amle_learner::HistoryLearner;

fn run(benchmark: &Benchmark, workers: usize) -> RunReport {
    // Deliberately small: the property under test is determinism across
    // worker counts, not convergence, and `cargo test` runs unoptimised.
    let config = ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        initial_traces: 6,
        trace_length: 8,
        k: benchmark.k.min(4),
        max_iterations: 3,
        parallel: ParallelConfig::with_workers(workers),
        ..Default::default()
    };
    ActiveLearner::new(&benchmark.system, HistoryLearner::default(), config)
        .run()
        .expect("active learning run failed")
}

#[test]
fn four_workers_match_one_worker_on_every_benchmark() {
    for benchmark in full_suite() {
        let start = std::time::Instant::now();
        let sequential = run(&benchmark, 1);
        let parallel = run(&benchmark, 4);
        eprintln!("{}: {:.2}s", benchmark.name, start.elapsed().as_secs_f64());

        // The learned model and the loop trajectory must be identical.
        assert_eq!(
            sequential.abstraction, parallel.abstraction,
            "{}: learned NFAs differ",
            benchmark.name
        );
        assert_eq!(
            sequential.iterations, parallel.iterations,
            "{}: iteration counts differ",
            benchmark.name
        );
        assert_eq!(
            sequential.converged, parallel.converged,
            "{}: convergence differs",
            benchmark.name
        );
        assert_eq!(
            sequential.invariants, parallel.invariants,
            "{}: invariants differ",
            benchmark.name
        );
        assert_eq!(
            sequential.trace_count, parallel.trace_count,
            "{}: trace counts differ",
            benchmark.name
        );

        // Deterministic work counters: the engine distributes the very same
        // per-condition work, so the aggregated counts must agree too.
        assert_eq!(
            sequential.checker_stats.condition_checks, parallel.checker_stats.condition_checks,
            "{}: condition-check counts differ",
            benchmark.name
        );
        assert_eq!(
            sequential.checker_stats.spurious_checks, parallel.checker_stats.spurious_checks,
            "{}: spurious-check counts differ",
            benchmark.name
        );
        assert_eq!(
            sequential.checker_stats.solver.solve_calls, parallel.checker_stats.solver.solve_calls,
            "{}: solve-call counts differ",
            benchmark.name
        );
        // The default portfolio answers small queries explicitly; which
        // engine answers a query, and the explicit work it costs, are
        // functions of the query alone.
        let attribution = |r: &RunReport| {
            let c = &r.checker_stats;
            (c.kinduction_queries, c.explicit_queries, c.explicit_work)
        };
        assert_eq!(
            attribution(&sequential),
            attribution(&parallel),
            "{}: engine attribution differs",
            benchmark.name
        );

        // And the canonical rendering — everything above plus per-iteration
        // statistics — must be byte-identical.
        let vars = benchmark.system.vars();
        assert_eq!(
            sequential.semantic_fingerprint(vars),
            parallel.semantic_fingerprint(vars),
            "{}: semantic fingerprints differ",
            benchmark.name
        );
    }
}
