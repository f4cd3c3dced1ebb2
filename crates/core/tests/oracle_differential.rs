//! Differential tests of the oracle portfolio's routing and the
//! cross-iteration verdict cache.
//!
//! For every benchmark of the full suite, an active-learning run must
//! produce a byte-identical [`RunReport::semantic_fingerprint`] across:
//!
//! * oracle engines (`kinduction` vs `portfolio`),
//! * verdict cache on vs off,
//! * condition-engine worker counts (1 vs 4).
//!
//! This pins the two invariants the oracle refactor rests on: engines agree
//! query-for-query (verdicts *and* canonical counterexamples), and the
//! cache only skips work it would have recomputed identically.

use amle_benchmarks::{circuit_benchmarks, full_suite, Benchmark};
use amle_checker::DEFAULT_ROUTE_THRESHOLD;
use amle_core::{
    ActiveLearner, ActiveLearnerConfig, OracleConfig, OracleKind, ParallelConfig, RunReport,
};
use amle_learner::HistoryLearner;

fn run(benchmark: &Benchmark, workers: usize, oracle: OracleConfig) -> RunReport {
    // Deliberately small: the property under test is determinism across
    // configurations, not convergence, and `cargo test` runs unoptimised.
    let config = ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        initial_traces: 6,
        trace_length: 8,
        k: benchmark.k.min(4),
        max_iterations: 3,
        parallel: ParallelConfig::with_workers(workers),
        oracle,
        ..Default::default()
    };
    ActiveLearner::new(&benchmark.system, HistoryLearner::default(), config)
        .run()
        .expect("active learning run failed")
}

fn kinduction() -> OracleConfig {
    OracleConfig {
        engine: OracleKind::KInduction,
        ..OracleConfig::default()
    }
}

fn portfolio() -> OracleConfig {
    OracleConfig {
        engine: OracleKind::Portfolio,
        ..OracleConfig::default()
    }
}

fn without_cache(mut config: OracleConfig) -> OracleConfig {
    config.verdict_cache = false;
    config
}

/// Runs the full engine × cache × worker matrix for one benchmark and
/// asserts every variant reproduces the sequential k-induction reference
/// fingerprint, plus that the reference's cache accounting is complete.
fn assert_fingerprints_agree(benchmark: &Benchmark) {
    let vars = benchmark.system.vars();
    let reference_report = run(benchmark, 1, kinduction());
    let reference = reference_report.semantic_fingerprint(vars);
    let variants: [(&str, usize, OracleConfig); 4] = [
        ("kinduction, cache, 4 workers", 4, kinduction()),
        (
            "kinduction, no cache, 1 worker",
            1,
            without_cache(kinduction()),
        ),
        ("portfolio, cache, 1 worker", 1, portfolio()),
        (
            "portfolio, no cache, 4 workers",
            4,
            without_cache(portfolio()),
        ),
    ];
    for (label, workers, oracle) in variants {
        let report = run(benchmark, workers, oracle);
        assert_eq!(
            reference,
            report.semantic_fingerprint(vars),
            "{}: `{}` diverged from the kinduction/cache/sequential reference",
            benchmark.name,
            label
        );
    }
    // The cache-enabled reference accounts every condition as a hit or
    // a miss, and the per-iteration hit counts add up to the total.
    let conditions: u64 = reference_report
        .iteration_stats
        .iter()
        .map(|s| s.conditions as u64)
        .sum();
    let cache = reference_report.verdict_cache;
    assert_eq!(
        cache.hits + cache.misses,
        conditions,
        "{}: cache accounting is incomplete",
        benchmark.name
    );
    let per_iteration_hits: u64 = reference_report
        .iteration_stats
        .iter()
        .map(|s| s.cache_hits as u64)
        .sum();
    assert_eq!(per_iteration_hits, cache.hits);
}

#[test]
fn fingerprints_identical_across_engines_cache_and_workers() {
    for benchmark in full_suite() {
        assert_fingerprints_agree(&benchmark);
    }
}

#[test]
fn circuit_fingerprints_identical_across_engines_cache_and_workers() {
    // The circuit family rides outside `full_suite()` (so the pinned quick-
    // suite fingerprint stays comparable across releases) but the same
    // determinism contract applies to systems compiled from netlists —
    // including the COI-reduced one, whose registered outputs exercise the
    // compiler's extra state variables.
    let circuits = circuit_benchmarks();
    assert!(!circuits.is_empty(), "the circuit family is empty");
    for benchmark in circuits {
        assert_fingerprints_agree(&benchmark);
    }
}

#[test]
fn explicit_first_portfolio_matches_kinduction_on_small_systems() {
    // Small input/state products are the explicit engine's home turf: on
    // every benchmark the portfolio routes to it, the portfolio answers
    // explicit-first (with k-induction rescuing budget exhaustions), and
    // cross-validation additionally asserts per-query agreement inside the
    // portfolio.
    let small: Vec<Benchmark> = full_suite()
        .into_iter()
        .filter(|b| {
            amle_checker::ExplicitChecker::new(&b.system, 0).estimate_condition_cost()
                <= DEFAULT_ROUTE_THRESHOLD
        })
        .collect();
    assert!(
        !small.is_empty(),
        "no suite benchmark is small enough for the explicit engine"
    );
    for benchmark in small {
        let vars = benchmark.system.vars();
        let baseline = run(&benchmark, 1, kinduction());
        let cross_validated = OracleConfig {
            cross_validate: true,
            ..portfolio()
        };
        let report = run(&benchmark, 1, cross_validated);
        assert_eq!(
            baseline.semantic_fingerprint(vars),
            report.semantic_fingerprint(vars),
            "{}: explicit-first portfolio diverged",
            benchmark.name
        );
        assert!(
            report.checker_stats.explicit_queries > 0,
            "{}: the explicit engine was never consulted",
            benchmark.name
        );
    }
}

#[test]
fn base_session_reuse_dominates_by_late_iterations() {
    // The acceptance criterion on the base-session ledger: on a benchmark
    // with repeated spurious checks, reuse must dominate fresh encodes by
    // the end of the run.
    for benchmark in full_suite() {
        let report = run(&benchmark, 1, OracleConfig::default());
        let stats = report.checker_stats;
        if stats.spurious_checks >= 4 {
            assert!(
                stats.frames_reused > stats.frames_encoded,
                "{}: frame reuse {} did not dominate encodes {} over {} spurious checks",
                benchmark.name,
                stats.frames_reused,
                stats.frames_encoded,
                stats.spurious_checks
            );
            return;
        }
    }
    panic!("no suite benchmark issued enough spurious checks at this shape");
}
