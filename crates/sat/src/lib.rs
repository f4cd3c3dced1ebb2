//! # amle-sat
//!
//! A from-scratch CDCL (conflict-driven clause learning) SAT solver used as
//! the reasoning engine behind the bit-blasted bounded model checker and the
//! SAT-based automaton identification in the model learner. Every
//! condition-check and spurious-counterexample query of the paper (Fig. 3a
//! and 3b, Section III-B) bottoms out in [`Solver::solve`] calls issued
//! through the incremental backend seam.
//!
//! Features:
//!
//! * two-watched-literal propagation,
//! * first-UIP conflict analysis with clause learning,
//! * VSIDS-style variable activities with phase saving,
//! * Luby restarts,
//! * LBD-tiered learnt-clause database reduction,
//! * solving under assumptions (incremental use),
//! * a pluggable backend seam ([`IncrementalSolver`] / [`ClauseSink`]) so the
//!   checker and learner can keep one solver session alive across queries,
//! * a plain [`CnfFormula`] container and DIMACS import/export for testing.
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
mod dimacs;
mod incremental;
mod ledger;
mod lit;
mod solver;

pub use cnf::CnfFormula;
pub use dimacs::{parse_dimacs, write_dimacs, ParseDimacsError};
pub use incremental::{cdcl_backend, ClauseSink, IncrementalSolver};
pub use ledger::ActivationLedger;
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};

#[cfg(test)]
mod proptests;
