//! Design-choice ablations (experiments A1 and A2 of DESIGN.md):
//!
//! * A1 — learner choice: the default history learner vs k-tails state
//!   merging, on a selection of benchmarks;
//! * A2 — sensitivity of the run to the k-induction bound used for the
//!   spurious-counterexample check. A2 runs the k-induction engine alone,
//!   so its `solves` column is the SAT work each bound costs.

use amle_bench::{format_active_table, quick_config, run_active, run_learner_ablation};
use amle_benchmarks::benchmark_by_name;
use amle_core::OracleKind;
use amle_learner::HistoryLearner;

fn main() {
    println!("A1 — learner choice (history vs k-tails)");
    for name in [
        "HomeClimateControlCooler",
        "MealyVendingMachine",
        "LadderLogicScheduler",
    ] {
        let benchmark = benchmark_by_name(name).expect("known benchmark");
        let (history, ktails) = run_learner_ablation(&benchmark);
        println!("{}", format_active_table(&[history, ktails]));
    }

    println!("A2 — k-induction bound sensitivity (HomeClimateControlCooler, CountEvents)");
    for name in ["HomeClimateControlCooler", "CountEvents"] {
        let benchmark = benchmark_by_name(name).expect("known benchmark");
        let mut rows = Vec::new();
        for k in [1usize, 4, 8, 16, 32] {
            let mut config = quick_config(&benchmark);
            config.k = k;
            config.oracle.engine = OracleKind::KInduction;
            rows.push(run_active(&benchmark, HistoryLearner::default(), config));
        }
        println!("{name}:");
        println!("{}", format_active_table(&rows));
    }
}
