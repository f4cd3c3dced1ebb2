//! Reproduces Fig. 2 of the paper: learn the Home Climate-Control Cooler
//! abstraction and print it.
//!
//! Run with `cargo run --example home_climate_control`.

use active_model_learning::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = benchmarks::benchmark_by_name("HomeClimateControlCooler")
        .expect("the benchmark suite includes the cooler");
    let config = ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        initial_traces: 50,
        trace_length: 50,
        k: benchmark.k,
        ..ActiveLearnerConfig::default()
    };
    let mut runner = ActiveLearner::new(&benchmark.system, HistoryLearner::default(), config);
    let report = runner.run()?;

    let vars = benchmark.system.vars();
    println!(
        "alpha = {:.2}, d = {:.2}, {} states, {} iterations",
        report.alpha,
        benchmark.score_d(&report.abstraction),
        report.num_states(),
        report.iterations
    );
    println!("\ntransitions (compare with Fig. 2 of the paper):");
    for t in report.abstraction.transitions() {
        println!(
            "  {} --[{}]--> {}",
            t.from,
            active_model_learning::automaton::display_expr(&t.guard, vars),
            t.to
        );
    }
    println!("\nDOT:\n{}", report.abstraction.to_dot(vars));

    // The default portfolio answers the small queries by explicit-state
    // search and the rest through the incremental SAT backend; the SAT
    // statistics surface in the report.
    let solver = report.solver_stats();
    assert!(solver.solve_calls > 0, "no SAT queries were issued");
    println!(
        "solver: {} solve calls, {} decisions, {} propagations, {} conflicts, {:?} in solve",
        solver.solve_calls,
        solver.decisions,
        solver.propagations,
        solver.conflicts,
        solver.solve_time
    );
    Ok(())
}
