//! # active-model-learning
//!
//! Umbrella crate for the reproduction of *Active Learning of Abstract System
//! Models from Traces using Model Checking* (DATE 2022). It re-exports the
//! workspace crates under stable module names so that examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`expr`] — typed expressions, sorts, valuations (`amle-expr`);
//! * [`system`] — transition systems, traces, the random-input simulator
//!   (`amle-system`);
//! * [`automaton`] — symbolic NFAs with predicate-labelled edges
//!   (`amle-automaton`);
//! * [`learner`] — pluggable passive learners: history, k-tails, SAT-based
//!   DFA identification (`amle-learner`);
//! * [`sat`] / [`bitblast`] / [`checker`] — the incremental CDCL
//!   [`sat::Solver`], the word-level CNF encoder that writes into one, and
//!   the k-induction model checker with persistent incremental solver
//!   sessions;
//! * [`active`] — the active-learning loop, completeness conditions,
//!   invariants and the random-sampling baseline (`amle-core`);
//! * [`benchmarks`] — the Stateflow-style evaluation suite
//!   (`amle-benchmarks`).
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the paper-to-code mapping and the experiment naming used by `amle-bench`.
//!
//! ```
//! use active_model_learning::prelude::*;
//!
//! let benchmark = benchmarks::benchmark_by_name("HomeClimateControlCooler").unwrap();
//! let config = ActiveLearnerConfig {
//!     observables: Some(benchmark.observables.clone()),
//!     initial_traces: 10,
//!     trace_length: 10,
//!     k: 4,
//!     ..ActiveLearnerConfig::default()
//! };
//! let mut runner = ActiveLearner::new(&benchmark.system, HistoryLearner::default(), config);
//! let report = runner.run()?;
//! assert!(report.converged);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use amle_automaton as automaton;
pub use amle_benchmarks as benchmarks;
pub use amle_bitblast as bitblast;
pub use amle_checker as checker;
pub use amle_circuit as circuit;
pub use amle_core as active;
pub use amle_expr as expr;
pub use amle_learner as learner;
pub use amle_sat as sat;
pub use amle_system as system;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::benchmarks;
    pub use amle_automaton::Nfa;
    pub use amle_core::{
        random_sampling_baseline, ActiveLearner, ActiveLearnerConfig, CheckerStats, RunReport,
        SolverStats,
    };
    pub use amle_expr::{Expr, Sort, Valuation, Value, VarId, VarSet};
    pub use amle_learner::{HistoryLearner, KTailsLearner, ModelLearner, SatDfaLearner};
    pub use amle_system::{Simulator, System, SystemBuilder, Trace, TraceSet};
}
