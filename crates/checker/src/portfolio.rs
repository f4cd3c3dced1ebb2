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
use amle_expr::Expr;
use amle_system::System;

/// The condition oracle: routes each query between an [`ExplicitChecker`]
/// and a [`KInductionChecker`] by estimated concrete cost.
///
/// With a routing threshold of 0 nothing is routed to the explicit engine
/// (every estimate is at least 1), so the portfolio makes exactly the bare
/// k-induction checker's solver calls; [`crate::OracleKind::route_threshold`]
/// names the two thresholds the learning loop uses.
#[derive(Debug)]
pub struct PortfolioOracle<'a> {
    explicit: ExplicitChecker<'a>,
    kinduction: KInductionChecker<'a>,
    explicit_budget: u64,
    route_threshold: u64,
    /// Estimated work of one condition check on this system; a spurious
    /// check with bound `k` is estimated at `k` times as much.
    condition_cost: u64,
    cross_validate: bool,
    fallbacks: u64,
}

impl<'a> PortfolioOracle<'a> {
    /// Creates a portfolio over `system`.
    ///
    /// `explicit_budget` bounds the work one explicitly-routed query may
    /// spend before falling back to k-induction; `route_threshold` is the
    /// largest estimated concrete cost still routed to the explicit engine;
    /// `cross_validate` additionally answers every explicitly-routed query
    /// with k-induction and asserts agreement.
    pub fn new(
        system: &'a System,
        explicit_budget: u64,
        route_threshold: u64,
        cross_validate: bool,
    ) -> Self {
        let explicit = ExplicitChecker::new(system, usize::MAX);
        PortfolioOracle {
            condition_cost: explicit.estimate_condition_cost(),
            explicit,
            kinduction: KInductionChecker::new(system),
            explicit_budget,
            route_threshold,
            cross_validate,
            fallbacks: 0,
        }
    }

    /// Checks a completeness condition (Fig. 3a): is there a transition from
    /// a state satisfying `assumption` (and none of the `blocked` state
    /// formulas) whose successor violates the conclusion `⋁ outgoing'`?
    ///
    /// The conclusion travels as its disjunct list, so the k-induction
    /// checker encodes only the disjuncts its session has not seen yet.
    pub fn check_condition(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        if self.condition_cost <= self.route_threshold {
            let mut budget = self.explicit_budget;
            if let Some(result) =
                self.explicit
                    .check_condition_budgeted(assumption, blocked, outgoing, &mut budget)
            {
                if self.cross_validate {
                    let reference = self
                        .kinduction
                        .check_condition(assumption, blocked, outgoing);
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
            .check_condition(assumption, blocked, outgoing)
    }

    /// Spurious-counterexample check (Fig. 3b): decides with bound `k`
    /// whether the state characterised by `state_formula` is unreachable.
    pub fn check_spurious(&mut self, state_formula: &Expr, k: usize) -> SpuriousResult {
        if self.condition_cost.saturating_mul(k.max(1) as u64) <= self.route_threshold {
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

    /// Statistics accumulated by both engines so far, including the
    /// per-engine query attribution counters and the budget fallbacks.
    pub fn stats(&self) -> CheckerStats {
        let mut stats = self.explicit.stats();
        stats += self.kinduction.stats();
        stats.explicit_fallbacks += self.fallbacks;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleKind;
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
        assert_eq!(stats.explicit_fallbacks, 0);
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
        // The k-induction kind's threshold: nothing is small enough for the
        // explicit engine, so the portfolio is the paper's bare checker.
        let threshold = OracleKind::KInduction.route_threshold();
        let mut oracle = PortfolioOracle::new(&sys, u64::MAX, threshold, false);
        let mut bare = KInductionChecker::new(&sys);
        for bound in 0..8 {
            let conclusion = [ce.ne(&Expr::int_val(bound, 4))];
            let answer = oracle.check_condition(&Expr::true_(), &[], &conclusion);
            assert_eq!(
                answer,
                bare.check_condition(&Expr::true_(), &[], &conclusion),
                "bound {bound}"
            );
            if let CheckResult::Violated { from, .. } = answer {
                let formula = crate::oracle::state_formula(sys.vars(), &from, &[c]);
                for k in [1, 3, 6] {
                    assert_eq!(
                        oracle.check_spurious(&formula, k),
                        bare.check_spurious(&formula, k),
                        "bound {bound}, k {k}"
                    );
                }
            }
        }
        let zero_time = |mut stats: CheckerStats| {
            stats.solver.solve_time = Default::default();
            stats
        };
        let stats = oracle.stats();
        assert_eq!(zero_time(stats), zero_time(bare.stats()));
        assert_eq!(stats.explicit_queries, 0);
        assert_eq!(stats.explicit_work, 0);
        assert!(stats.spurious_checks > 0);
        assert_eq!(
            stats.explicit_fallbacks, 0,
            "routing misses are not fallbacks"
        );
    }

    #[test]
    fn portfolio_counterexamples_match_kinduction_byte_for_byte() {
        let sys = saturating_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut portfolio = PortfolioOracle::new(&sys, u64::MAX, u64::MAX, false);
        let mut sat = KInductionChecker::new(&sys);
        for bound in 0..8 {
            let conclusion = [ce.ne(&Expr::int_val(bound, 4))];
            assert_eq!(
                portfolio.check_condition(&Expr::true_(), &[], &conclusion),
                sat.check_condition(&Expr::true_(), &[], &conclusion),
                "bound {bound}"
            );
        }
    }
}
