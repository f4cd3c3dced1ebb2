//! The pluggable condition-oracle interface.
//!
//! The active-learning loop asks exactly two kinds of questions (Fig. 3 of
//! the paper): condition checks and spurious-counterexample checks. Both are
//! decision procedures over the system's transition relation, and nothing in
//! the loop depends on *how* they are decided — the k-induction checker
//! answers them with incremental SAT, the explicit engine by streaming
//! concrete enumeration, and the portfolio by routing each query to
//! whichever engine its size estimate favours.
//!
//! [`ConditionOracle`] captures that seam. Every implementation in this
//! crate is **answer-deterministic**: for a given query the verdict — and,
//! for violated conditions, the counterexample transition — is a pure
//! function of the query and the system, independent of the engine, of
//! session history and of worker count. The k-induction checker achieves
//! this by canonicalising counterexamples to the lexicographically minimal
//! satisfying transition; the explicit engine enumerates candidate
//! transitions in exactly that canonical order, so its first hit *is* the
//! minimal one. This agreement is what lets `amle-core` cache verdicts
//! across iterations and swap engines without perturbing a run's semantic
//! fingerprint, and it is asserted at runtime by the portfolio's
//! cross-validation mode.

use crate::explicit::{ExplicitChecker, DEFAULT_QUERY_BUDGET};
use crate::kinduction::{CheckResult, CheckerStats, KInductionChecker, SpuriousResult};
use crate::portfolio::PortfolioOracle;
use amle_expr::{Expr, Valuation, VarId, VarSet};
use amle_system::System;

/// A decision procedure for the two query shapes of the learning loop.
///
/// Implementations must be answer-deterministic (see the module-level
/// documentation): two oracles over the same system must return
/// identical results for identical queries, including the counterexample
/// valuations of violated conditions.
pub trait ConditionOracle: Send {
    /// Checks a completeness condition (Fig. 3a): is there a transition from
    /// a state satisfying `assumption` (and none of the `blocked` state
    /// formulas) whose successor violates the conclusion `⋁ outgoing'`?
    ///
    /// The conclusion travels as its structured disjunct list rather than a
    /// pre-built or-chain so that incremental engines can encode only the
    /// disjuncts a session has not seen yet (the learning loop's conclusion
    /// sets grow monotonically per state). Engines that need the folded
    /// formula build it themselves; verdicts never depend on the packaging.
    fn check_condition(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult;

    /// Spurious-counterexample check (Fig. 3b): decides with bound `k`
    /// whether the state characterised by `state_formula` is unreachable.
    fn check_spurious(&mut self, state_formula: &Expr, k: usize) -> SpuriousResult;

    /// Statistics accumulated by this oracle so far, including the
    /// per-engine query attribution counters.
    fn stats(&self) -> CheckerStats;
}

/// The state formula `s' := ⋀ (x_i = v(x_i))` over the given variables, used
/// both to block spurious states and to query reachability.
///
/// This is engine-independent (it only reads the variable table), so it
/// lives next to the oracle trait rather than on any one checker. The
/// conjunction is built through the canonical constructors
/// ([`Expr::canonical`]): the same state described over the same variables
/// always interns to the same node, whatever order the caller's variable
/// list is in — which is what lets the checkers' session maps (activation
/// literals, blocked-state encodings) and the explicit engine's emulated
/// base/step cases treat repeated states as O(1) repeats. State formulas
/// are internal to checking and never rendered, so the canonical shape
/// cannot perturb any report.
pub fn state_formula(vars: &VarSet, state: &Valuation, over: &[VarId]) -> Expr {
    Expr::and_all(over.iter().map(|id| {
        let sort = vars.sort(*id).clone();
        let value = Expr::constant(&sort, state.value(*id)).expect("trace value fits sort");
        Expr::var(*id, sort).eq(&value)
    }))
    .canonical()
}

/// Which oracle implementation answers the loop's queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OracleKind {
    /// The incremental SAT k-induction checker for every query. The paper's
    /// configuration and the default.
    #[default]
    KInduction,
    /// Explicit-first: every query is attempted with the streaming
    /// explicit-state engine and falls back to k-induction only when the
    /// per-query work budget runs out.
    Explicit,
    /// The portfolio: each query is routed by its estimated concrete size —
    /// small input/state products go to the explicit engine, everything
    /// else (and every budget exhaustion) to k-induction.
    Portfolio,
}

impl OracleKind {
    /// The flag/environment spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::KInduction => "kinduction",
            OracleKind::Explicit => "explicit",
            OracleKind::Portfolio => "portfolio",
        }
    }

    /// Parses a flag/environment spelling (`kinduction`, `explicit` or
    /// `portfolio`).
    pub fn from_name(name: &str) -> Option<OracleKind> {
        match name.trim() {
            "kinduction" | "k-induction" | "sat" => Some(OracleKind::KInduction),
            "explicit" => Some(OracleKind::Explicit),
            "portfolio" => Some(OracleKind::Portfolio),
            _ => None,
        }
    }
}

/// Portfolio routing threshold (estimated evaluations): a query goes to the
/// explicit engine only when its estimated concrete cost (input/state
/// product size) is at most this many evaluations.
pub const DEFAULT_ROUTE_THRESHOLD: u64 = 1 << 14;

/// Builds the oracle stack of the given `kind` over `system`.
///
/// * [`OracleKind::KInduction`] — a bare [`KInductionChecker`];
/// * [`OracleKind::Explicit`] — a [`PortfolioOracle`] with an unbounded
///   routing threshold (explicit-first, k-induction rescue on budget
///   exhaustion);
/// * [`OracleKind::Portfolio`] — a [`PortfolioOracle`] routing by
///   [`DEFAULT_ROUTE_THRESHOLD`].
///
/// Both portfolio stacks give the explicit engine [`DEFAULT_QUERY_BUDGET`]
/// per query. With `cross_validate`, every query a portfolio answers
/// explicitly is *also* answered by k-induction and the two results are
/// asserted equal — the cross-validation mode of the differential tests.
///
/// Each call builds fresh sessions with zeroed statistics, so the parallel
/// engine can call it once per worker.
pub fn build_oracle<'a>(
    system: &'a System,
    kind: OracleKind,
    cross_validate: bool,
) -> Box<dyn ConditionOracle + 'a> {
    match kind {
        OracleKind::KInduction => Box::new(KInductionChecker::new(system)),
        OracleKind::Explicit => Box::new(PortfolioOracle::new(
            system,
            DEFAULT_QUERY_BUDGET,
            u64::MAX,
            cross_validate,
        )),
        OracleKind::Portfolio => Box::new(PortfolioOracle::new(
            system,
            DEFAULT_QUERY_BUDGET,
            DEFAULT_ROUTE_THRESHOLD,
            cross_validate,
        )),
    }
}

impl ConditionOracle for KInductionChecker<'_> {
    fn check_condition(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        KInductionChecker::check_condition_disjuncts(self, assumption, blocked, outgoing)
    }

    fn check_spurious(&mut self, state_formula: &Expr, k: usize) -> SpuriousResult {
        KInductionChecker::check_spurious(self, state_formula, k)
    }

    fn stats(&self) -> CheckerStats {
        KInductionChecker::stats(self)
    }
}

/// The bare explicit engine as an oracle runs **unbudgeted** (no
/// k-induction rescue): suitable for small systems and for cross-validation
/// harnesses, but a wide input/state product will be enumerated in full.
/// [`build_oracle`] therefore never constructs it — [`OracleKind::Explicit`]
/// gets the explicit-first portfolio, whose budget bounds every query.
impl ConditionOracle for ExplicitChecker<'_> {
    fn check_condition(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        self.check_condition_unbudgeted(assumption, blocked, outgoing)
    }

    fn check_spurious(&mut self, state_formula: &Expr, k: usize) -> SpuriousResult {
        self.check_spurious_unbudgeted(state_formula, k)
    }

    fn stats(&self) -> CheckerStats {
        ExplicitChecker::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Value};

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            OracleKind::KInduction,
            OracleKind::Explicit,
            OracleKind::Portfolio,
        ] {
            assert_eq!(OracleKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OracleKind::from_name("sat"), Some(OracleKind::KInduction));
        assert_eq!(OracleKind::from_name("nonsense"), None);
    }

    #[test]
    fn bare_explicit_checker_works_through_the_oracle_trait() {
        use amle_system::SystemBuilder;
        let mut b = SystemBuilder::new();
        let en = b.input("en", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(3), Value::Int(0)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(4, 3))
            .ite(&ce.add(&Expr::int_val(1, 3)), &ce);
        b.update(c, b.var(en).ite(&bumped, &ce)).unwrap();
        let sys = b.build().unwrap();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);

        let mut explicit: Box<dyn ConditionOracle + '_> =
            Box::new(ExplicitChecker::new(&sys, 10_000));
        let mut sat: Box<dyn ConditionOracle + '_> = Box::new(KInductionChecker::new(&sys));
        for bound in 0..8 {
            let conclusion = [ce.ne(&Expr::int_val(bound, 3))];
            assert_eq!(
                explicit.check_condition(&Expr::true_(), &[], &conclusion),
                sat.check_condition(&Expr::true_(), &[], &conclusion),
                "bound {bound}"
            );
        }
        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(4));
        let formula = state_formula(sys.vars(), &state, &[c]);
        assert_eq!(
            explicit.check_spurious(&formula, 6),
            sat.check_spurious(&formula, 6)
        );
        let stats = explicit.stats();
        assert_eq!(stats.explicit_queries, 9);
        assert_eq!(stats.kinduction_queries, 0);
    }

    #[test]
    fn state_formula_is_engine_independent() {
        let mut vars = VarSet::new();
        let c = vars.declare("c", Sort::int(4)).unwrap();
        let b = vars.declare("b", Sort::Bool).unwrap();
        let mut v = Valuation::zeroed(&vars);
        v.set(c, Value::Int(7));
        v.set(b, Value::Bool(true));
        let f = state_formula(&vars, &v, &[c, b]);
        assert!(f.eval_bool(&v));
        v.set(c, Value::Int(6));
        assert!(!f.eval_bool(&v));
        assert_eq!(state_formula(&vars, &v, &[c]).free_vars().len(), 1);
    }
}
