//! Reproduces Fig. 2: the learned abstraction of the Home Climate-Control
//! Cooler, printed as a transition list and as Graphviz DOT.

use amle_bench::{paper_config, run_active};
use amle_benchmarks::benchmark_by_name;
use amle_learner::HistoryLearner;

fn main() {
    let benchmark =
        benchmark_by_name("HomeClimateControlCooler").expect("benchmark suite includes the cooler");
    let row = run_active(
        &benchmark,
        HistoryLearner::default(),
        paper_config(&benchmark),
    );
    let report = &row.report;
    println!(
        "Fig. 2 — Home Climate-Control Cooler abstraction (alpha = {:.2}, d = {:.2}, {} states)",
        report.alpha,
        row.d,
        report.num_states()
    );
    println!();
    let vars = benchmark.system.vars();
    for t in report.abstraction.transitions() {
        println!(
            "  {} --[{}]--> {}",
            t.from,
            amle_automaton::display_expr(&t.guard, vars),
            t.to
        );
    }
    println!();
    println!("{}", report.abstraction.to_dot(vars));
    println!("invariants extracted from the final abstraction:");
    for invariant in report.invariants.iter().take(6) {
        println!("  {}", invariant.display(vars));
    }
}
