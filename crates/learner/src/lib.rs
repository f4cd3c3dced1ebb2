//! # amle-learner
//!
//! The pluggable model-learning component of the active learning pipeline.
//!
//! The paper only requires that, given a set of execution traces `T`, the
//! learner returns an NFA that accepts (at least) every trace in `T`
//! (Section II-B). This crate provides three interchangeable learners behind
//! the [`ModelLearner`] trait. All of them learn from an interned
//! [`TraceStore`](amle_system::TraceStore) through the same front end: an
//! [`IncrementalAbstraction`] generalises the stored observations into a
//! finite alphabet of synthesised predicates ([`AlphabetAbstraction`]) and
//! converts every trace into an abstract word, and the automaton learned
//! over those words is translated back into a symbolic NFA whose edge guards
//! are the letters' predicates — producing models like Fig. 2 of the paper.
//!
//! * [`HistoryLearner`] — the default: states are bounded observation
//!   histories (depth 1 gives one state per abstract letter plus an initial
//!   state). Its stable state identity makes every refinement iteration of
//!   the active loop attach counterexample edges to exactly the state whose
//!   completeness condition failed.
//! * [`KTailsLearner`] — classic k-tails state merging on the prefix-tree
//!   acceptor ([`Pta`]): states with equal bounded futures are merged.
//! * [`SatDfaLearner`] — exact minimal-DFA identification using the CDCL
//!   solver from `amle-sat`, with negative evidence inferred from
//!   well-supported prefixes (an ablation point for the greedy mergers).
//!
//! All learners guarantee the paper's contract: the returned NFA admits every
//! input trace (checked by unit and property tests, and re-checked at runtime
//! by the active-learning loop in `amle-core`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod abstraction;
mod history;
mod ktails;
mod learner;
mod pta;
mod satdfa;

pub use abstraction::{AbstractionUpdate, AlphabetAbstraction, IncrementalAbstraction, LetterId};
pub use history::HistoryLearner;
pub use ktails::KTailsLearner;
pub use learner::{LearnError, LearnerKind, ModelLearner, WordStats};
pub use pta::Pta;
pub use satdfa::SatDfaLearner;

#[cfg(test)]
mod proptests;
