//! The portfolio oracle: per-query routing between the explicit-state
//! engine and the k-induction checker.
//!
//! Cheap concrete enumeration beats SAT on small input/state products —
//! violated conditions especially, where the SAT path needs a full
//! bit-by-bit canonicalisation probe per counterexample while the explicit
//! engine's first hit *is* the canonical counterexample. The portfolio
//! estimates each query's concrete size and routes it accordingly:
//!
//! * estimated cost ≤ routing threshold → explicit engine, under a work
//!   budget;
//! * otherwise, or whenever the budget runs out mid-query → k-induction.
//!
//! Because both engines decide the same formulas and return identical
//! canonical counterexamples (see [`crate::explicit`]), routing is
//! invisible in a run's verdicts: only the per-engine attribution counters
//! in [`CheckerStats`] reveal which engine answered. The *cross-validation
//! mode* asserts that invariant at runtime by answering every
//! explicitly-routed query with both engines and comparing.

use crate::explicit::ExplicitChecker;
use crate::kinduction::{CheckResult, CheckerStats, KInductionChecker, SpuriousResult};
use crate::oracle::ConditionOracle;
use amle_expr::Expr;
use amle_system::System;

/// A [`ConditionOracle`] routing each query between an [`ExplicitChecker`]
/// and a [`KInductionChecker`] by estimated concrete cost.
#[derive(Debug)]
pub struct PortfolioOracle<'a> {
    explicit: ExplicitChecker<'a>,
    kinduction: KInductionChecker<'a>,
    explicit_budget: u64,
    route_threshold: u64,
    cross_validate: bool,
    fallbacks: u64,
}

impl<'a> PortfolioOracle<'a> {
    /// Creates a portfolio over `system`.
    ///
    /// `explicit_budget` bounds the work one explicitly-routed query may
    /// spend before falling back to k-induction; `route_threshold` is the
    /// largest estimated concrete cost still routed to the explicit engine
    /// (`u64::MAX` yields the explicit-first stack of
    /// [`crate::OracleKind::Explicit`]); `cross_validate` additionally
    /// answers every explicitly-routed query with k-induction and asserts
    /// agreement.
    pub fn new(
        system: &'a System,
        explicit_budget: u64,
        route_threshold: u64,
        cross_validate: bool,
    ) -> Self {
        PortfolioOracle {
            explicit: ExplicitChecker::with_budget(system, usize::MAX, explicit_budget),
            kinduction: KInductionChecker::new(system),
            explicit_budget,
            route_threshold,
            cross_validate,
            fallbacks: 0,
        }
    }

    /// The system under check.
    pub fn system(&self) -> &System {
        self.kinduction.system()
    }

    /// Number of explicitly-routed queries whose budget ran out, forcing a
    /// k-induction re-run.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl ConditionOracle for PortfolioOracle<'_> {
    fn check_condition(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        if self.explicit.estimate_condition_cost() <= self.route_threshold {
            let mut budget = self.explicit_budget;
            if let Some(result) =
                self.explicit
                    .check_condition_budgeted(assumption, blocked, outgoing, &mut budget)
            {
                if self.cross_validate {
                    let reference = self
                        .kinduction
                        .check_condition_disjuncts(assumption, blocked, outgoing);
                    assert_eq!(
                        result, reference,
                        "explicit and k-induction engines disagree on a condition check"
                    );
                }
                return result;
            }
            self.fallbacks += 1;
        }
        self.kinduction
            .check_condition_disjuncts(assumption, blocked, outgoing)
    }

    fn check_spurious(&mut self, state_formula: &Expr, k: usize) -> SpuriousResult {
        if self.explicit.estimate_spurious_cost(k) <= self.route_threshold {
            let mut budget = self.explicit_budget;
            if let Some(result) =
                self.explicit
                    .check_spurious_budgeted(state_formula, k, &mut budget)
            {
                if self.cross_validate {
                    let reference = self.kinduction.check_spurious(state_formula, k);
                    assert_eq!(
                        result, reference,
                        "explicit and k-induction engines disagree on a spurious check"
                    );
                }
                return result;
            }
            self.fallbacks += 1;
        }
        self.kinduction.check_spurious(state_formula, k)
    }

    fn stats(&self) -> CheckerStats {
        let mut stats = self.explicit.stats();
        stats += self.kinduction.stats();
        stats.explicit_fallbacks += self.fallbacks;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Value};
    use amle_system::SystemBuilder;

    /// The saturating counter used across the checker tests.
    fn saturating_counter() -> System {
        let mut b = SystemBuilder::new();
        b.name("sat_counter");
        let en = b.input("en", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(4), Value::Int(0)).unwrap();
        let flag = b.state("flag", Sort::Bool, Value::Bool(false)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(5, 4))
            .ite(&ce.add(&Expr::int_val(1, 4)), &ce);
        let next_c = b.var(en).ite(&bumped, &ce);
        b.update(c, next_c.clone()).unwrap();
        b.update(flag, next_c.ge(&Expr::int_val(5, 4))).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cross_validation_passes_on_a_mixed_query_sequence() {
        let sys = saturating_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        // Threshold u64::MAX: everything routed explicitly, every answer
        // double-checked against k-induction.
        let mut oracle = PortfolioOracle::new(&sys, u64::MAX, u64::MAX, true);
        for bound in 0..8 {
            let _ = oracle.check_condition(&Expr::true_(), &[], &[ce.ne(&Expr::int_val(bound, 4))]);
        }
        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(3));
        let formula = crate::oracle::state_formula(sys.vars(), &state, &[c]);
        assert_eq!(
            oracle.check_spurious(&formula, 5),
            SpuriousResult::Reachable
        );
        let stats = oracle.stats();
        assert!(stats.explicit_queries > 0);
        // Cross-validation runs both engines on every query.
        assert_eq!(stats.kinduction_queries, stats.explicit_queries);
        assert_eq!(oracle.fallbacks(), 0);
    }

    #[test]
    fn budget_exhaustion_falls_back_to_kinduction() {
        let sys = saturating_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        // A 2-unit budget cannot finish any query on this system.
        let mut oracle = PortfolioOracle::new(&sys, 2, u64::MAX, false);
        let conclusion = ce.le(&Expr::int_val(5, 4));
        assert!(oracle
            .check_condition(&conclusion, &[], std::slice::from_ref(&conclusion))
            .is_valid());
        assert_eq!(oracle.fallbacks(), 1);
        let stats = oracle.stats();
        assert_eq!(stats.explicit_fallbacks, 1);
        assert_eq!(stats.kinduction_queries, 1);
        assert_eq!(stats.explicit_queries, 0);
        // The (aborted) explicit attempt does not count as an answered
        // condition check.
        assert_eq!(stats.condition_checks, 1);
    }

    #[test]
    fn oversized_queries_are_routed_straight_to_kinduction() {
        let sys = saturating_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        // Threshold 0: nothing is small enough for the explicit engine.
        let mut oracle = PortfolioOracle::new(&sys, u64::MAX, 0, false);
        let conclusion = ce.le(&Expr::int_val(5, 4));
        assert!(oracle
            .check_condition(&conclusion, &[], std::slice::from_ref(&conclusion))
            .is_valid());
        let stats = oracle.stats();
        assert_eq!(stats.explicit_queries, 0);
        assert_eq!(stats.explicit_work, 0);
        assert_eq!(stats.kinduction_queries, 1);
        assert_eq!(oracle.fallbacks(), 0, "routing misses are not fallbacks");
    }

    #[test]
    fn portfolio_counterexamples_match_kinduction_byte_for_byte() {
        let sys = saturating_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut portfolio = PortfolioOracle::new(&sys, u64::MAX, u64::MAX, false);
        let mut sat = KInductionChecker::new(&sys);
        for bound in 0..8 {
            let conclusion = ce.ne(&Expr::int_val(bound, 4));
            assert_eq!(
                portfolio.check_condition(&Expr::true_(), &[], std::slice::from_ref(&conclusion)),
                sat.check_condition(&Expr::true_(), &[], &conclusion),
                "bound {bound}"
            );
        }
    }
}
