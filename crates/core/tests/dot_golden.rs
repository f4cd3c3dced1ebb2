//! Golden test for the DOT rendering of a learned abstraction.
//!
//! Learns the Fig. 2 home climate-control cooler with a fixed seed and
//! compares the `amle_automaton` DOT export byte-for-byte against a checked-in
//! golden file, so that any change to guard rendering, node/edge layout or
//! the learned model itself is surfaced in review. The run is deterministic
//! across condition-engine worker counts (canonical counterexamples), so the
//! test checks the golden at 1 and at 4 workers.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! AMLE_DOT_GOLDEN_WRITE=1 cargo test -p amle-core --test dot_golden
//! ```

use amle_core::{ActiveLearner, ActiveLearnerConfig, ParallelConfig};
use amle_expr::{Expr, Sort, Value};
use amle_learner::HistoryLearner;
use amle_system::{System, SystemBuilder};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cooler.dot");

fn cooler() -> System {
    let mut b = SystemBuilder::new();
    b.name("HomeClimateControl");
    let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120).unwrap();
    let on = b.state("s_on", Sort::Bool, Value::Bool(false)).unwrap();
    b.update(on, b.var(temp).gt(&Expr::int_val(75, 8))).unwrap();
    b.build().unwrap()
}

#[test]
fn learned_cooler_dot_matches_golden() {
    let system = cooler();
    for workers in [1, 4] {
        let config = ActiveLearnerConfig {
            initial_traces: 15,
            trace_length: 15,
            k: 6,
            max_iterations: 15,
            parallel: ParallelConfig::with_workers(workers),
            ..Default::default()
        };
        let report = ActiveLearner::new(&system, HistoryLearner::default(), config)
            .run()
            .expect("cooler learning failed");
        assert!(report.converged, "cooler must converge before rendering");
        let dot = report.abstraction.to_dot(system.vars());

        if std::env::var("AMLE_DOT_GOLDEN_WRITE").is_ok() {
            std::fs::write(GOLDEN_PATH, &dot).expect("writing golden file failed");
        }
        let golden = std::fs::read_to_string(GOLDEN_PATH)
            .expect("golden file missing; run with AMLE_DOT_GOLDEN_WRITE=1 to create it");
        assert_eq!(
            dot, golden,
            "DOT rendering at {workers} workers drifted from tests/golden/cooler.dot; \
             re-generate with AMLE_DOT_GOLDEN_WRITE=1 if the change is intended"
        );
    }
}
