//! # amle-core
//!
//! The paper's primary contribution: an active model-learning loop that
//! combines a pluggable passive learner (black-box, `amle-learner`) with
//! software model checking (white-box, `amle-checker`) to produce an
//! abstraction that provably admits **all** system behaviours over a chosen
//! set of observable variables.
//!
//! The loop (Fig. 1 of the paper):
//!
//! 1. generate an initial trace set `T` by executing the system on random
//!    inputs;
//! 2. learn a candidate NFA `M` from `T`;
//! 3. extract the completeness conditions (1) and (2) from the structure of
//!    `M` ([`extract_conditions`]) and check each against the system with
//!    k-induction;
//! 4. classify counterexamples as valid or spurious (Fig. 3b), strengthen
//!    assumptions for spurious ones, and splice valid ones onto matching
//!    trace prefixes to form new traces `T_CE`;
//! 5. if every condition holds (`α = 1`), return `M` together with the
//!    conditions, which are now invariants of the implementation; otherwise
//!    set `T ← T ∪ T_CE` and repeat.
//!
//! The crate also contains the passive random-sampling baseline used in the
//! paper's comparison (Section IV-C).
//!
//! ## Example
//!
//! ```
//! use amle_core::{ActiveLearner, ActiveLearnerConfig};
//! use amle_expr::{Expr, Sort, Value};
//! use amle_learner::HistoryLearner;
//! use amle_system::SystemBuilder;
//!
//! // The Fig. 2 climate-control cooler: the mode follows a temperature
//! // threshold.
//! let mut b = SystemBuilder::new();
//! let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120)?;
//! let on = b.state("s_on", Sort::Bool, Value::Bool(false))?;
//! let update = b.var(temp).gt(&Expr::int_val(75, 8));
//! b.update(on, update)?;
//! let system = b.build()?;
//!
//! let config = ActiveLearnerConfig {
//!     initial_traces: 10,
//!     trace_length: 10,
//!     k: 4,
//!     ..ActiveLearnerConfig::default()
//! };
//! let mut learner = ActiveLearner::new(&system, HistoryLearner::default(), config);
//! let report = learner.run()?;
//! assert!(report.converged);
//! assert_eq!(report.alpha, 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod baseline;
mod conditions;
mod engine;
mod learner_loop;
mod report;
mod session;

pub use baseline::{random_sampling_baseline, BaselineReport};
pub use conditions::{extract_conditions, Condition, ConditionKind};
pub use engine::{OracleConfig, ParallelConfig, VerdictCacheStats};
pub use learner_loop::{ActiveLearnError, ActiveLearner, ActiveLearnerConfig};
pub use report::{fingerprint_digest, Invariant, IterationStats, RunReport};
pub use session::{IngestOutcome, Session, SessionStats};

// The interned trace container the loop accumulates its traces in, and the
// statistics types surfaced through `RunReport` — re-exported so harnesses
// need not depend on the system/learner/checker/sat crates directly.
pub use amle_checker::{CheckerStats, OracleKind};
pub use amle_expr::InternerStats;
pub use amle_learner::WordStats;
pub use amle_sat::SolverStats;
pub use amle_system::{ObsId, SegmentId, TraceId, TraceStore, TraceStoreStats};

#[cfg(test)]
mod proptests;
