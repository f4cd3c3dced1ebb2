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
//!    1, … conflicts.

use crate::{CnfFormula, Lit, SolveResult, Var};
use proptest::prelude::*;

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

/// Random CNF with the given clause-width range (codomain of
/// [`arb_cnf`] plus wider clauses for the differential tests).
fn arb_cnf_with_width(
    max_vars: usize,
    max_clauses: usize,
    width: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = CnfFormula> {
    let clause = proptest::collection::vec((1..=max_vars, any::<bool>()), width);
    proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = CnfFormula::new();
        for _ in 0..max_vars {
            cnf.new_var();
        }
        for clause in clauses {
            cnf.add_clause(
                clause
                    .into_iter()
                    .map(|(v, pos)| Lit::new(Var::from_index(v - 1), pos)),
            );
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

    #[test]
    fn dimacs_round_trip_preserves_satisfiability(cnf in arb_cnf(6, 16)) {
        let text = crate::write_dimacs(&cnf);
        let reparsed = crate::parse_dimacs(&text).unwrap();
        let mut s1 = cnf.to_solver();
        let mut s2 = reparsed.to_solver();
        prop_assert_eq!(s1.solve(), s2.solve());
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
