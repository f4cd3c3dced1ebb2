//! The pluggable incremental-backend seam.
//!
//! The active-learning pipeline issues long sequences of closely related SAT
//! queries: the k-induction checker re-solves the same transition-relation
//! unrolling under different state constraints, and the SAT-based DFA learner
//! re-solves the same folding skeleton at growing automaton sizes. Rebuilding
//! a solver from a CNF blob per query throws away learnt clauses, variable
//! activities and saved phases; the [`IncrementalSolver`] trait lets those
//! consumers keep one solver alive and select per-query constraints with
//! assumption literals instead.
//!
//! [`ClauseSink`] is the write-only half — "something clauses can be encoded
//! into" — implemented both by the plain [`CnfFormula`] container and by
//! solvers, so the bit-blaster can target either without caring which.

use crate::{CnfFormula, Lit, SolveResult, Solver, SolverStats, Var};

/// A consumer of freshly encoded CNF: allocates variables and accepts
/// clauses.
///
/// Implemented by [`CnfFormula`] (pure container) and by every
/// [`IncrementalSolver`]; the bit-blasting encoder is generic over this
/// trait.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the receiver can already prove the formula
    /// unsatisfiable; containers that cannot reason always return `true`.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Number of allocated variables.
    fn num_vars(&self) -> usize;

    /// Number of clauses currently held.
    fn num_clauses(&self) -> usize;
}

/// An incremental SAT solver: a [`ClauseSink`] that can also decide
/// satisfiability under assumptions and expose a model.
///
/// Clause additions are permanent; per-query constraints must be expressed
/// through `assumptions` (typically via activation literals), which hold only
/// for the duration of one [`IncrementalSolver::solve`] call.
pub trait IncrementalSolver: ClauseSink {
    /// Decides satisfiability of the accumulated clauses under the given
    /// assumption literals.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult;

    /// The value of `var` in the most recent satisfying model, or `None` if
    /// the variable was unconstrained or no model is available.
    fn model_value(&self, var: Var) -> Option<bool>;

    /// The most recent satisfying model as a dense vector indexed by
    /// variable; unassigned variables default to `false`.
    fn model(&self) -> Vec<bool> {
        (0..self.num_vars())
            .map(|i| self.model_value(Var::from_index(i)).unwrap_or(false))
            .collect()
    }

    /// Statistics accumulated over the lifetime of this solver.
    fn stats(&self) -> SolverStats;

    /// A short identifier of the backing implementation, for reports.
    fn backend_name(&self) -> &'static str;
}

impl ClauseSink for CnfFormula {
    fn new_var(&mut self) -> Var {
        CnfFormula::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        CnfFormula::add_clause(self, lits.iter().copied());
        true
    }

    fn num_vars(&self) -> usize {
        CnfFormula::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        CnfFormula::num_clauses(self)
    }
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        Solver::num_clauses(self)
    }
}

impl IncrementalSolver for Solver {
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with_assumptions(assumptions)
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        if self.has_model() {
            self.value(var)
        } else {
            None
        }
    }

    fn model(&self) -> Vec<bool> {
        if self.has_model() {
            Solver::model(self)
        } else {
            vec![false; ClauseSink::num_vars(self)]
        }
    }

    fn stats(&self) -> SolverStats {
        Solver::stats(self)
    }

    fn backend_name(&self) -> &'static str {
        "cdcl"
    }
}

impl<T: ClauseSink + ?Sized> ClauseSink for Box<T> {
    fn new_var(&mut self) -> Var {
        (**self).new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        (**self).add_clause(lits)
    }

    fn num_vars(&self) -> usize {
        (**self).num_vars()
    }

    fn num_clauses(&self) -> usize {
        (**self).num_clauses()
    }
}

impl<T: IncrementalSolver + ?Sized> IncrementalSolver for Box<T> {
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        (**self).solve(assumptions)
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        (**self).model_value(var)
    }

    fn model(&self) -> Vec<bool> {
        (**self).model()
    }

    fn stats(&self) -> SolverStats {
        (**self).stats()
    }

    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
}

/// The default backend: a fresh dependency-free CDCL [`Solver`].
///
/// The trait object is `Send` so that consumers (notably the parallel
/// condition-checking engine) can move solver sessions into worker threads.
pub fn cdcl_backend() -> Box<dyn IncrementalSolver + Send> {
    Box::new(Solver::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a backend generically through the trait.
    fn exercise<S: IncrementalSolver>(mut solver: S) {
        let a = solver.new_var();
        let b = solver.new_var();
        assert!(solver.add_clause(&[Lit::positive(a), Lit::positive(b)]));

        // Activation-literal pattern: a clause that only bites under its
        // activation assumption.
        let act = solver.new_var();
        assert!(solver.add_clause(&[Lit::negative(act), Lit::negative(a)]));

        assert_eq!(solver.solve(&[Lit::positive(act)]), SolveResult::Sat);
        assert_eq!(solver.model_value(a), Some(false));
        assert_eq!(solver.model_value(b), Some(true));

        // Without the activation the solver is free again.
        assert_eq!(
            solver.solve(&[Lit::positive(a), Lit::negative(b)]),
            SolveResult::Sat
        );
        assert!(solver.model()[a.index()]);

        // Conflicting assumptions are transient.
        assert_eq!(
            solver.solve(&[Lit::positive(act), Lit::positive(a)]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(&[]), SolveResult::Sat);

        let stats = solver.stats();
        assert_eq!(stats.solve_calls, 4);
    }

    #[test]
    fn cdcl_solver_through_the_trait() {
        exercise(Solver::new());
        assert_eq!(Solver::new().backend_name(), "cdcl");
    }

    #[test]
    fn boxed_backend_through_the_trait() {
        exercise(cdcl_backend());
    }

    #[test]
    fn clauses_can_be_added_after_solving() {
        let mut solver = Solver::new();
        let a = solver.new_var();
        let b = solver.new_var();
        assert!(ClauseSink::add_clause(
            &mut solver,
            &[Lit::positive(a), Lit::positive(b)]
        ));
        assert_eq!(IncrementalSolver::solve(&mut solver, &[]), SolveResult::Sat);
        // Growing the formula after a solve must not trip level-0 invariants.
        assert!(ClauseSink::add_clause(&mut solver, &[Lit::negative(a)]));
        // ¬a forces b through (a ∨ b), so ¬b empties out under top-level
        // simplification and the solver reports unsatisfiability eagerly.
        assert!(!ClauseSink::add_clause(&mut solver, &[Lit::negative(b)]));
        assert_eq!(
            IncrementalSolver::solve(&mut solver, &[]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn cnf_formula_is_a_clause_sink() {
        let mut cnf = CnfFormula::new();
        let x = ClauseSink::new_var(&mut cnf);
        assert!(ClauseSink::add_clause(&mut cnf, &[Lit::positive(x)]));
        assert_eq!(ClauseSink::num_vars(&cnf), 1);
        assert_eq!(ClauseSink::num_clauses(&cnf), 1);
    }
}
