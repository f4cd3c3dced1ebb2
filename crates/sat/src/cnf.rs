//! A plain CNF container, independent of any solver state.

use crate::{Lit, Solver, Var};

/// A formula in conjunctive normal form: a variable counter plus a clause
/// list.
///
/// The property tests build random formulas as `CnfFormula`s, hand them to a
/// fresh [`Solver`] with [`CnfFormula::to_solver`] and check its verdicts and
/// models against brute-force enumeration with [`CnfFormula::evaluate`].
///
/// # Example
///
/// ```
/// use amle_sat::{CnfFormula, Lit, SolveResult};
///
/// let mut cnf = CnfFormula::new();
/// let x = cnf.new_var();
/// let y = cnf.new_var();
/// cnf.add_clause([Lit::positive(x), Lit::positive(y)]);
/// cnf.add_clause([Lit::negative(x)]);
/// let mut solver = cnf.to_solver();
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl CnfFormula {
    /// Creates an empty formula with no variables and no clauses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Clauses over variables that have not been allocated yet grow the
    /// variable counter automatically, as [`Solver::add_clause`] does.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for lit in &clause {
            if lit.var().index() >= self.num_vars {
                self.num_vars = lit.var().index() + 1;
            }
        }
        self.clauses.push(clause);
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Builds a fresh [`Solver`] loaded with this formula.
    pub fn to_solver(&self) -> Solver {
        let mut solver = Solver::new();
        solver.ensure_vars(self.num_vars);
        for clause in &self.clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// Evaluates the formula under a total assignment (indexed by variable).
    ///
    /// Used by property tests to cross-check solver models.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the number of variables.
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_vars,
            "assignment covers {} variables but formula has {}",
            assignment.len(),
            self.num_vars
        );
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|lit| assignment[lit.var().index()] == lit.is_positive())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn build_and_query() {
        let mut cnf = CnfFormula::new();
        let x = cnf.new_var();
        let y = cnf.new_var();
        cnf.add_clause([Lit::positive(x)]);
        cnf.add_clause([Lit::negative(x), Lit::positive(y)]);
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 2);
        assert!(cnf.evaluate(&[true, true]));
        assert!(!cnf.evaluate(&[true, false]));
        assert!(!cnf.evaluate(&[false, true]));
    }

    #[test]
    fn clause_grows_var_counter() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause([Lit::positive(Var::from_index(4))]);
        assert_eq!(cnf.num_vars(), 5);
    }

    #[test]
    fn to_solver_solves() {
        let mut cnf = CnfFormula::new();
        let x = cnf.new_var();
        let y = cnf.new_var();
        cnf.add_clause([Lit::positive(x), Lit::positive(y)]);
        cnf.add_clause([Lit::negative(x), Lit::positive(y)]);
        cnf.add_clause([Lit::negative(y), Lit::positive(x)]);
        let mut solver = cnf.to_solver();
        assert_eq!(solver.solve(), SolveResult::Sat);
        let model: Vec<bool> = (0..cnf.num_vars())
            .map(|i| solver.value(Var::from_index(i)).unwrap())
            .collect();
        assert!(cnf.evaluate(&model));
    }
}
