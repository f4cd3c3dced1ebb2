//! Property-based tests of the CDCL solver.
//!
//! The central invariants:
//!
//! 1. on satisfiable instances the returned model really satisfies every
//!    clause (checked against [`CnfFormula::evaluate`]);
//! 2. the solver agrees with a brute-force enumeration on small random
//!    instances, in both the SAT and UNSAT directions;
//! 3. solving under assumptions agrees with adding the assumptions as unit
//!    clauses to a fresh solver;
//! 4. differential checks of the CDCL core against exhaustive enumeration on
//!    instances up to 16 variables with wider clauses — sat/unsat agreement,
//!    model validity, and unsat-under-assumptions consistency — which
//!    exercise propagation (blockers) and conflict analysis (minimization)
//!    on deeper search trees than the narrow 8-variable instances. Those
//!    instances rarely reach the 50-conflict Luby unit, so each case is
//!    solved again with the unit forced to 1, which restarts after 1, 1, 2,
//!    1, … conflicts;
//! 5. one solver driven through a random session — solves whose
//!    assumptions extend, flip, truncate or replace the last call's, with
//!    `add_clause` and `new_var` in between — agrees with enumeration at
//!    every step, so trail reuse and model reuse never change an answer,
//!    and pinning bits most significant first, as the checker's canonical
//!    counterexamples do, finds the lexicographic minimum.

use crate::{CnfFormula, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// Brute-force satisfiability by enumerating all assignments.
fn brute_force_sat(cnf: &CnfFormula) -> bool {
    brute_force_model(cnf, &[]).is_some()
}

/// Brute-force search for a model satisfying the formula and every
/// assumption literal; `None` when unsatisfiable under the assumptions.
fn brute_force_model(cnf: &CnfFormula, assumptions: &[Lit]) -> Option<Vec<bool>> {
    let n = cnf.num_vars();
    assert!(n <= 16, "brute force limited to 16 variables");
    (0u32..(1 << n))
        .map(|bits| (0..n).map(|i| bits & (1 << i) != 0).collect::<Vec<bool>>())
        .find(|assignment| {
            cnf.evaluate(assignment)
                && assumptions
                    .iter()
                    .all(|lit| assignment[lit.var().index()] == lit.is_positive())
        })
}

/// Random clause lists over `num_vars` variables with the given clause
/// widths.
fn arb_clauses(
    num_vars: usize,
    max_clauses: usize,
    width: RangeInclusive<usize>,
) -> impl Strategy<Value = Vec<Vec<Lit>>> {
    let clause = proptest::collection::vec((0..num_vars, any::<bool>()), width).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, pos)| Lit::new(Var::from_index(v), pos))
            .collect()
    });
    proptest::collection::vec(clause, 0..=max_clauses)
}

/// Random CNF with the given clause-width range (codomain of
/// [`arb_cnf`] plus wider clauses for the differential tests).
fn arb_cnf_with_width(
    max_vars: usize,
    max_clauses: usize,
    width: RangeInclusive<usize>,
) -> impl Strategy<Value = CnfFormula> {
    arb_clauses(max_vars, max_clauses, width).prop_map(move |clauses| {
        let mut cnf = CnfFormula::new();
        for _ in 0..max_vars {
            cnf.new_var();
        }
        for clause in clauses {
            cnf.add_clause(clause);
        }
        cnf
    })
}

fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = CnfFormula> {
    arb_cnf_with_width(max_vars, max_clauses, 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn solver_agrees_with_brute_force(cnf in arb_cnf(8, 24)) {
        let mut solver = cnf.to_solver();
        let result = solver.solve();
        let expected = brute_force_sat(&cnf);
        prop_assert_eq!(result == SolveResult::Sat, expected);
        if result == SolveResult::Sat {
            prop_assert!(cnf.evaluate(&solver.model()));
        }
    }

    #[test]
    fn model_is_a_real_model(cnf in arb_cnf(12, 40)) {
        let mut solver = cnf.to_solver();
        if solver.solve() == SolveResult::Sat {
            prop_assert!(cnf.evaluate(&solver.model()));
        }
    }

    #[test]
    fn assumptions_match_unit_clauses(cnf in arb_cnf(8, 20), assumption_bits in any::<u8>()) {
        // Use the low three bits to pick up to three assumption literals.
        let assumptions: Vec<Lit> = (0..3)
            .map(|i| Lit::new(Var::from_index(i), assumption_bits & (1 << i) != 0))
            .collect();

        let mut with_assumptions = cnf.to_solver();
        let r1 = with_assumptions.solve_with_assumptions(&assumptions);

        let mut with_units = cnf.clone();
        for lit in &assumptions {
            with_units.add_clause([*lit]);
        }
        let mut unit_solver = with_units.to_solver();
        let r2 = unit_solver.solve();

        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn solve_is_repeatable(cnf in arb_cnf(8, 24)) {
        let mut s1 = cnf.to_solver();
        let mut s2 = cnf.to_solver();
        prop_assert_eq!(s1.solve(), s2.solve());
        // Re-solving the same solver gives the same answer.
        let again = s1.solve();
        prop_assert_eq!(again, s2.solve());
    }
}

// Differential tests of the CDCL core against exhaustive enumeration; a
// separate block keeps the `proptest!` macro expansion within the default
// recursion limit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Differential check of the CDCL core at the brute-force ceiling:
    // 16 variables and clauses up to width 5 produce non-trivial search
    // (learnt clauses, minimization, and restarts under the unit-1 run)
    // while enumeration stays exact. Verdicts must agree and models must
    // really be models.
    #[test]
    fn cdcl_differential_vs_enumeration(cnf in arb_cnf_with_width(16, 64, 1..=5)) {
        let expected = brute_force_sat(&cnf);
        for luby_unit in [None, Some(1)] {
            let mut solver = cnf.to_solver();
            solver.luby_unit_override = luby_unit;
            let result = solver.solve();
            prop_assert_eq!(result == SolveResult::Sat, expected, "unit {:?}", luby_unit);
            if result == SolveResult::Sat {
                prop_assert!(cnf.evaluate(&solver.model()), "unit {:?}", luby_unit);
            }
        }
    }

    // Unsat-under-assumptions consistency: the solver's verdict under
    // assumption literals matches enumeration restricted to assignments
    // honouring the assumptions, on SAT the model honours them too, and the
    // assumptions leave no permanent constraint behind.
    #[test]
    fn assumptions_differential_vs_enumeration(
        cnf in arb_cnf_with_width(12, 48, 1..=4),
        assumption_bits in any::<u8>(),
    ) {
        let assumptions: Vec<Lit> = (0..4)
            .map(|i| Lit::new(Var::from_index(i), assumption_bits & (1 << i) != 0))
            .collect();
        let expected = brute_force_model(&cnf, &assumptions);
        let expected_plain = brute_force_sat(&cnf);
        for luby_unit in [None, Some(1)] {
            let mut solver = cnf.to_solver();
            solver.luby_unit_override = luby_unit;
            let result = solver.solve_with_assumptions(&assumptions);
            prop_assert_eq!(result == SolveResult::Sat, expected.is_some(), "unit {:?}", luby_unit);
            if result == SolveResult::Sat {
                let model = solver.model();
                prop_assert!(cnf.evaluate(&model), "unit {:?}", luby_unit);
                for lit in &assumptions {
                    prop_assert_eq!(model[lit.var().index()], lit.is_positive());
                }
            }
            // The assumptions are transient: an unconstrained re-solve must
            // agree with plain enumeration again.
            prop_assert_eq!(solver.solve() == SolveResult::Sat, expected_plain, "unit {:?}", luby_unit);
        }
    }

    // Incremental clause addition between solve calls agrees with solving
    // the combined formula from scratch.
    #[test]
    fn incremental_addition_matches_fresh_solver(
        base in arb_cnf_with_width(10, 32, 1..=4),
        extra in proptest::collection::vec(
            proptest::collection::vec((1..=10usize, any::<bool>()), 1..=4), 1..=8),
    ) {
        let mut incremental = base.to_solver();
        let _ = incremental.solve();
        let mut combined = base.clone();
        for clause in extra {
            let lits: Vec<Lit> = clause
                .into_iter()
                .map(|(v, pos)| Lit::new(Var::from_index(v - 1), pos))
                .collect();
            incremental.add_clause(lits.iter().copied());
            combined.add_clause(lits);
        }
        let r1 = incremental.solve();
        let mut fresh = combined.to_solver();
        prop_assert_eq!(r1, fresh.solve());
        prop_assert_eq!(r1 == SolveResult::Sat, brute_force_sat(&combined));
    }
}

/// Whether `lit` holds in the assignment whose bit `i` is variable `i`.
fn holds(bits: u32, lit: Lit) -> bool {
    (bits >> lit.var().index() & 1 == 1) == lit.is_positive()
}

/// One solver and, beside it, the formula it was given and every
/// assignment satisfying that formula, kept exact as clauses and variables
/// are added.
struct Mirror {
    solver: Solver,
    cnf: CnfFormula,
    models: Vec<u32>,
}

impl Mirror {
    fn new(num_vars: usize, clauses: &[Vec<Lit>], luby_unit: Option<u64>) -> Self {
        let mut solver = Solver::new();
        solver.luby_unit_override = luby_unit;
        solver.ensure_vars(num_vars);
        let mut mirror = Mirror {
            solver,
            cnf: CnfFormula::new(),
            models: (0u32..1 << num_vars).collect(),
        };
        for _ in 0..num_vars {
            mirror.cnf.new_var();
        }
        for clause in clauses {
            mirror.add_clause(clause);
        }
        mirror
    }

    fn num_vars(&self) -> usize {
        self.cnf.num_vars()
    }

    /// The literals `(v, positive)`, each `v` reduced to an existing
    /// variable.
    fn lits(&self, raw: &[(usize, bool)]) -> Vec<Lit> {
        raw.iter()
            .map(|&(v, positive)| Lit::new(Var::from_index(v % self.num_vars()), positive))
            .collect()
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        self.solver.add_clause(clause.iter().copied());
        self.cnf.add_clause(clause.iter().copied());
        self.models
            .retain(|&bits| clause.iter().any(|&lit| holds(bits, lit)));
    }

    fn new_var(&mut self) {
        assert!(self.num_vars() < 16, "enumeration limited to 16 variables");
        let bit = 1 << self.num_vars();
        self.solver.new_var();
        self.cnf.new_var();
        let set: Vec<u32> = self.models.iter().map(|bits| bits | bit).collect();
        self.models.extend(set);
    }

    /// Solves under `assumptions` and checks the verdict against
    /// enumeration; a `Sat` model must assign every variable, satisfy every
    /// clause and make every assumption true, and an `Unsat` leaves no model.
    fn check_solve(&mut self, assumptions: &[Lit]) -> Result<SolveResult, TestCaseError> {
        let result = self.solver.solve_with_assumptions(assumptions);
        let expected = self
            .models
            .iter()
            .any(|&bits| assumptions.iter().all(|&lit| holds(bits, lit)));
        prop_assert_eq!(
            result == SolveResult::Sat,
            expected,
            "under {:?}",
            assumptions
        );
        if result == SolveResult::Sat {
            prop_assert!(
                (0..self.num_vars()).all(|i| self.solver.value(Var::from_index(i)).is_some()),
                "partial model under {:?}",
                assumptions
            );
            let model = self.solver.model();
            prop_assert!(self.cnf.evaluate(&model), "model violates a clause");
            for lit in assumptions {
                prop_assert_eq!(model[lit.var().index()], lit.is_positive(), "{:?}", lit);
            }
        } else {
            prop_assert!(!self.solver.has_model());
        }
        Ok(result)
    }
}

/// One step of a solve session. Variables are drawn from `0..16` and
/// reduced to the variables that exist when the step runs.
#[derive(Debug, Clone)]
enum Step {
    /// Solve under the last assumptions plus these literals.
    Extend(Vec<(usize, bool)>),
    /// Solve under the last assumptions with the final one negated.
    Flip,
    /// Solve under a prefix of the last assumptions (its length taken
    /// modulo their count plus one) plus these literals.
    TruncateAndExtend(usize, Vec<(usize, bool)>),
    /// Solve under unrelated assumptions.
    Fresh(Vec<(usize, bool)>),
    /// Add a clause.
    AddClause(Vec<(usize, bool)>),
    /// Allocate a variable, while fewer than 16 exist.
    NewVar,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let lits =
        |len: RangeInclusive<usize>| proptest::collection::vec((0..16usize, any::<bool>()), len);
    prop_oneof![
        lits(1..=3).prop_map(Step::Extend),
        Just(Step::Flip),
        (0..8usize, lits(0..=2)).prop_map(|(keep, extra)| Step::TruncateAndExtend(keep, extra)),
        lits(0..=4).prop_map(Step::Fresh),
        lits(1..=3).prop_map(Step::AddClause),
        Just(Step::NewVar),
    ]
}

// Solve sequences on one solver against enumeration; a separate block keeps
// the `proptest!` macro expansion within the default recursion limit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // A random session on one solver: successive assumption lists share
    // and diverge from the last call's prefix, and clauses and variables
    // arrive between solves. Every verdict must match enumeration of the
    // formula as it stands, at the default Luby unit and at unit 1.
    #[test]
    fn solve_sequences_agree_with_enumeration(
        clauses in arb_clauses(12, 40, 1..=4),
        steps in proptest::collection::vec(arb_step(), 1..=16),
    ) {
        for luby_unit in [None, Some(1)] {
            let mut mirror = Mirror::new(12, &clauses, luby_unit);
            let mut assumptions: Vec<Lit> = Vec::new();
            for step in &steps {
                match step {
                    Step::Extend(extra) => assumptions.extend(mirror.lits(extra)),
                    Step::Flip => {
                        if let Some(last) = assumptions.last_mut() {
                            *last = !*last;
                        }
                    }
                    Step::TruncateAndExtend(keep, extra) => {
                        assumptions.truncate(keep % (assumptions.len() + 1));
                        assumptions.extend(mirror.lits(extra));
                    }
                    Step::Fresh(fresh) => assumptions = mirror.lits(fresh),
                    Step::AddClause(clause) => {
                        let clause = mirror.lits(clause);
                        mirror.add_clause(&clause);
                        continue;
                    }
                    Step::NewVar => {
                        if mirror.num_vars() < 16 {
                            mirror.new_var();
                        }
                        continue;
                    }
                }
                mirror.check_solve(&assumptions)?;
            }
        }
    }

    // Canonical-counterexample probing: after a satisfiable query, pin the
    // variables word by word (4-bit words, most significant bit first) to
    // 0 while the query stays satisfiable and to 1 otherwise. The pinned
    // bits must be the lexicographic minimum over every model of the query.
    #[test]
    fn msb_first_pinning_finds_the_lexicographic_minimum(
        clauses in arb_clauses(16, 40, 2..=4),
        query in proptest::collection::vec((0..16usize, any::<bool>()), 0..=3),
    ) {
        let pins: Vec<Var> = (0..16)
            .step_by(4)
            .flat_map(|word| (word..word + 4).rev())
            .map(Var::from_index)
            .collect();
        for luby_unit in [None, Some(1)] {
            let mut mirror = Mirror::new(16, &clauses, luby_unit);
            let mut fixed = mirror.lits(&query);
            let minimum = mirror
                .models
                .iter()
                .filter(|&&bits| fixed.iter().all(|&lit| holds(bits, lit)))
                .map(|&bits| pins.iter().fold(0u32, |key, v| key << 1 | (bits >> v.index() & 1)))
                .min();
            let Some(minimum) = minimum else {
                mirror.check_solve(&fixed)?;
                continue;
            };
            prop_assert_eq!(mirror.check_solve(&fixed)?, SolveResult::Sat);
            let mut pinned = 0u32;
            for &v in &pins {
                fixed.push(Lit::negative(v));
                let one = mirror.check_solve(&fixed)? == SolveResult::Unsat;
                if one {
                    fixed.pop();
                    fixed.push(Lit::positive(v));
                }
                pinned = pinned << 1 | u32::from(one);
            }
            prop_assert_eq!(pinned, minimum, "unit {:?}", luby_unit);
        }
    }
}
