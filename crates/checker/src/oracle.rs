//! The condition oracle's shared vocabulary: the engine kinds, the state
//! formula and the answer-determinism contract.
//!
//! The active-learning loop asks exactly two kinds of questions (Fig. 3 of
//! the paper): condition checks and spurious-counterexample checks. Both are
//! decision procedures over the system's transition relation, and nothing in
//! the loop depends on *how* they are decided. One type answers them all:
//! the [`crate::PortfolioOracle`], which routes each query either to the
//! incremental SAT k-induction checker or to the streaming explicit-state
//! engine. An [`OracleKind`] only sets its routing threshold.
//!
//! Both engines are **answer-deterministic**: for a given query the verdict
//! — and, for violated conditions, the counterexample transition — is a
//! pure function of the query and the system, independent of the engine,
//! of session history and of worker count. The k-induction checker achieves
//! this by canonicalising counterexamples to the lexicographically minimal
//! satisfying transition; the explicit engine enumerates candidate
//! transitions in exactly that canonical order, so its first hit *is* the
//! minimal one. This agreement is what lets `amle-core` cache verdicts
//! across iterations and route queries without perturbing a run's semantic
//! fingerprint, and it is asserted at runtime by the portfolio's
//! cross-validation mode.

use amle_expr::{Expr, Valuation, VarId, VarSet};

/// The state formula `s' := ⋀ (x_i = v(x_i))` over the given variables, used
/// both to block spurious states and to query reachability.
///
/// This is engine-independent (it only reads the variable table), so it
/// lives next to the engine kinds rather than on any one checker. The
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

/// Which engines answer the loop's queries: the routing threshold of the
/// [`crate::PortfolioOracle`] the condition engine builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OracleKind {
    /// The incremental SAT k-induction checker for every query. The paper's
    /// configuration and the default.
    #[default]
    KInduction,
    /// The portfolio: each query is routed by its estimated concrete size —
    /// small input/state products go to the explicit engine, everything
    /// else to k-induction.
    Portfolio,
}

impl OracleKind {
    /// The flag spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::KInduction => "kinduction",
            OracleKind::Portfolio => "portfolio",
        }
    }

    /// Parses a flag spelling (`kinduction` or `portfolio`).
    pub fn from_name(name: &str) -> Option<OracleKind> {
        match name.trim() {
            "kinduction" | "k-induction" | "sat" => Some(OracleKind::KInduction),
            "portfolio" => Some(OracleKind::Portfolio),
            _ => None,
        }
    }

    /// The largest estimated concrete cost the portfolio of this kind still
    /// routes to the explicit engine: 0 for [`OracleKind::KInduction`]
    /// (every estimate is at least 1, so nothing is routed),
    /// [`DEFAULT_ROUTE_THRESHOLD`] for [`OracleKind::Portfolio`].
    pub fn route_threshold(self) -> u64 {
        match self {
            OracleKind::KInduction => 0,
            OracleKind::Portfolio => DEFAULT_ROUTE_THRESHOLD,
        }
    }
}

/// Portfolio routing threshold (estimated evaluations): a query goes to the
/// explicit engine only when its estimated concrete cost (input/state
/// product size) is at most this many evaluations.
///
/// The threshold also bounds the explicit engine's work. With `cost` the
/// estimate of one condition check, a condition check costs at most
/// frame-0 + frame-0·inputs ≤ 2·cost evaluations. A spurious check with
/// bound `k` costs at most inputs + cost + |reach| for its base case and
/// frame-0 + k·cost for its step case, so at most (k + 4)·cost; it is routed
/// only when k·cost is within the threshold. Any routed query therefore
/// costs at most 5 × the threshold.
pub const DEFAULT_ROUTE_THRESHOLD: u64 = 1 << 14;

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Value};

    #[test]
    fn kind_names_round_trip() {
        for kind in [OracleKind::KInduction, OracleKind::Portfolio] {
            assert_eq!(OracleKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OracleKind::from_name("sat"), Some(OracleKind::KInduction));
        assert_eq!(OracleKind::from_name("explicit"), None);
        assert_eq!(OracleKind::from_name("nonsense"), None);
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
