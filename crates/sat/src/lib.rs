//! # amle-sat
//!
//! A from-scratch CDCL (conflict-driven clause learning) SAT solver used as
//! the reasoning engine behind the bit-blasted bounded model checker and the
//! SAT-based automaton identification in the model learner. Every
//! condition-check and spurious-counterexample query of the paper (Fig. 3a
//! and 3b, Section III-B) bottoms out in a
//! [`Solver::solve_with_assumptions`] call on a [`Solver`] that the
//! `amle-bitblast` encoder writes its clauses into.
//!
//! Features:
//!
//! * two-watched-literal propagation,
//! * first-UIP conflict analysis with clause learning,
//! * VSIDS-style variable activities with phase saving,
//! * Luby restarts,
//! * LBD-tiered learnt-clause database reduction,
//! * incremental solving under assumptions: clauses may be added between
//!   solves, so the checker and the learner each keep one solver alive
//!   across queries and select per-query constraints with activation
//!   literals ([`ActivationLedger`]),
//! * trail and model reuse across calls: a call keeps the decision levels of
//!   the assumption prefix it shares with the last search, and a call whose
//!   assumptions the last model already satisfies is answered from it, so a
//!   run of probes that each pin one more literal costs little more than one
//!   search; every call still counts in [`SolverStats::solve_calls`],
//! * a plain [`CnfFormula`] container, the brute-force reference of the
//!   property tests.
//!
//! The solver is deliberately dependency-free and single-threaded: the CNF
//! instances produced by the pipeline (condition checks with one or two
//! unrollings of a controller transition relation, automaton identification
//! for a few dozen states) are small, and determinism matters more than raw
//! throughput for reproducing the paper's tables.
//!
//! ## Example
//!
//! ```
//! use amle_sat::{Lit, SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cnf;
mod ledger;
mod lit;
mod solver;

pub use cnf::CnfFormula;
pub use ledger::ActivationLedger;
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};

#[cfg(test)]
mod proptests;
