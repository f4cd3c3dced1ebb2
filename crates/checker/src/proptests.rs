//! Property-based cross-validation of the SAT-based checker against the
//! explicit-state oracle and against trace semantics.

use crate::{state_formula, CheckResult, ExplicitChecker, KInductionChecker, SpuriousResult};
use amle_expr::{Expr, Sort, Value};
use amle_system::{System, SystemBuilder};
use proptest::prelude::*;

/// A small parametric controller: mod-N counter with enable, plus a flag
/// tracking whether the counter passed a threshold.
fn parametric_system(n: i64, threshold: i64) -> System {
    let bits = 4;
    let mut b = SystemBuilder::new();
    let en = b.input("en", Sort::Bool).unwrap();
    let c = b.state("c", Sort::int(bits), Value::Int(0)).unwrap();
    let flag = b.state("flag", Sort::Bool, Value::Bool(false)).unwrap();
    let ce = b.var(c);
    let wrapped = ce
        .add(&Expr::int_val(1, bits))
        .ge(&Expr::int_val(n, bits))
        .ite(&Expr::int_val(0, bits), &ce.add(&Expr::int_val(1, bits)));
    let next_c = b.var(en).ite(&wrapped, &ce);
    b.update(c, next_c.clone()).unwrap();
    b.update(flag, next_c.ge(&Expr::int_val(threshold, bits)))
        .unwrap();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn violated_conditions_produce_real_transitions(n in 3i64..10, threshold in 1i64..8, bound in 0i64..9) {
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut checker = KInductionChecker::new(&sys);
        // "The counter is never `bound` after one step" — may or may not hold.
        let conclusion = [ce.ne(&Expr::int_val(bound, 4))];
        match checker.check_condition(&Expr::true_(), &[], &conclusion) {
            CheckResult::Valid => {}
            CheckResult::Violated { from, to } => {
                prop_assert!(sys.is_transition(&from, &to));
                prop_assert_eq!(to.value(c).to_i64(), bound);
            }
        }
    }

    #[test]
    fn valid_conditions_hold_on_all_reachable_transitions(n in 3i64..8, threshold in 1i64..6) {
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys);
        // Check a family of candidate invariants; whenever the k-induction
        // checker says Valid, the explicit oracle must agree on reachable
        // transitions (the converse need not hold).
        for bound in 0..n + 2 {
            let conclusion = ce.lt(&Expr::int_val(bound.min(15), 4));
            let sat_valid = sat_checker
                .check_condition(&Expr::true_(), &[], std::slice::from_ref(&conclusion))
                .is_valid();
            if sat_valid {
                prop_assert!(explicit.condition_holds_on_reachable(&Expr::true_(), &conclusion));
            }
        }
    }

    #[test]
    fn spurious_verdicts_agree_with_explicit_reachability(n in 3i64..8, threshold in 1i64..6, target in 0i64..10) {
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let flag = sys.vars().lookup("flag").unwrap();
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys);

        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(target.min(15)));
        state.set(flag, Value::Bool(target >= threshold && target < n));
        let formula = state_formula(sys.vars(), &state, &[c, flag]);
        // A bound of 2*n exceeds the diameter of this system.
        let verdict = sat_checker.check_spurious(&formula, (2 * n) as usize);
        let truly_reachable = explicit.is_reachable(&formula);
        match verdict {
            SpuriousResult::Spurious => prop_assert!(!truly_reachable, "spurious verdict for a reachable state"),
            SpuriousResult::Reachable => prop_assert!(truly_reachable, "reachable verdict for an unreachable state"),
            SpuriousResult::Inconclusive => {}
        }
    }

    #[test]
    fn explicit_engine_matches_kinduction_exactly(n in 3i64..10, threshold in 1i64..8, bound in 0i64..9) {
        // The production explicit engine decides the same formulas as the
        // SAT engine — same verdicts AND the same canonical counterexample
        // transitions — for both query shapes, within the work bounds that
        // let the portfolio route queries by estimated cost alone.
        let sys = parametric_system(n, threshold);
        let c = sys.vars().lookup("c").unwrap();
        let flag = sys.vars().lookup("flag").unwrap();
        let ce = sys.var(c);
        let mut sat_checker = KInductionChecker::new(&sys);
        let mut explicit = ExplicitChecker::new(&sys);
        let cost = explicit.estimate_condition_cost();

        let conclusion = [ce.ne(&Expr::int_val(bound, 4))];
        prop_assert_eq!(
            explicit.check_condition(&Expr::true_(), &[], &conclusion),
            sat_checker.check_condition(&Expr::true_(), &[], &conclusion)
        );
        let work = explicit.stats().explicit_work;
        prop_assert!(work <= 2 * cost, "condition: {} > 2 x {}", work, cost);

        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(bound.min(15)));
        state.set(flag, Value::Bool(bound >= threshold));
        let formula = state_formula(sys.vars(), &state, &[c, flag]);
        for k in [1usize, 3, (2 * n) as usize] {
            let before = explicit.stats().explicit_work;
            prop_assert_eq!(
                explicit.check_spurious(&formula, k),
                sat_checker.check_spurious(&formula, k),
                "k = {}", k
            );
            let work = explicit.stats().explicit_work - before;
            let limit = (k as u64 + 4) * cost;
            prop_assert!(work <= limit, "k = {}: {} > (k + 4) x {}", k, work, cost);
        }
    }
}
