//! Extraction of completeness conditions from a candidate abstraction
//! (Eqs. 1 and 2 of the paper), plus the memoised assumption evaluator the
//! splicing step uses to find qualifying trace prefixes.

use amle_automaton::{Nfa, StateId};
use amle_expr::{Expr, Valuation};
use amle_system::ObsId;

/// Which of the paper's two condition shapes a [`Condition`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionKind {
    /// Condition (1): successors of initial system states must satisfy some
    /// outgoing predicate of an initial automaton state.
    Initial,
    /// Condition (2): from any state satisfying an incoming predicate of an
    /// automaton state, every transition's successor must satisfy some
    /// outgoing predicate of that state.
    State {
        /// The automaton state the condition was extracted from.
        state: StateId,
    },
}

/// One completeness condition of the form
/// `v ⊨ assumption ∧ (v, v') ⊨ R ⟹ v' ⊨ ⋁ outgoing`.
///
/// When every extracted condition holds, Theorem 1 of the paper guarantees
/// `Traces_X(S) ⊆ L(M)`; the conditions then serve as invariants of the
/// implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Whether this is the initial-state condition or a per-state condition.
    pub kind: ConditionKind,
    /// The assumption `r` on the pre-state (`Init` for the initial condition,
    /// an incoming predicate otherwise).
    pub assumption: Expr,
    /// The outgoing predicates whose disjunction must hold on the post-state.
    pub outgoing: Vec<Expr>,
}

impl Condition {
    /// The conclusion of the condition: the disjunction of the outgoing
    /// predicates (`false` for a state with no outgoing transitions).
    pub fn conclusion(&self) -> Expr {
        Expr::or_all(self.outgoing.iter().cloned())
    }

    /// Renders the condition as an implication `assumption ∧ R ⟹ conclusion'`.
    pub fn as_implication(&self) -> Expr {
        self.assumption.implies(&self.conclusion())
    }
}

/// Memoised evaluation of one condition's assumption over interned
/// observations.
///
/// The splicing step of Section III-B scans every stored trace for its first
/// observation satisfying the violated condition's assumption. With a flat
/// trace set that evaluates the assumption expression once per observation
/// *occurrence*; interning makes the evaluation a per-distinct-observation
/// memo lookup, which is what keeps splicing cheap on heavily shared trace
/// sets. The memo grows on demand, so it stays valid while splices intern
/// new observations into the store it reads.
pub(crate) struct AssumptionMemo<'c> {
    assumption: &'c Expr,
    memo: Vec<Option<bool>>,
}

impl<'c> AssumptionMemo<'c> {
    /// Creates an empty memo for `assumption`.
    pub fn new(assumption: &'c Expr) -> Self {
        AssumptionMemo {
            assumption,
            memo: Vec::new(),
        }
    }

    /// Whether the assumption holds on the observation, evaluating the
    /// expression at most once per distinct observation id.
    pub fn eval(&mut self, obs: ObsId, valuation: &Valuation) -> bool {
        if obs.index() >= self.memo.len() {
            self.memo.resize(obs.index() + 1, None);
        }
        *self.memo[obs.index()].get_or_insert_with(|| self.assumption.eval_bool(valuation))
    }
}

/// Extracts the full set of completeness conditions from a candidate
/// abstraction, given the system's initial-state constraint.
///
/// One condition of kind [`ConditionKind::Initial`] is produced (Eq. 1 of the
/// paper), plus one condition of kind [`ConditionKind::State`] per pair of an
/// automaton state and an incoming predicate of that state (Eq. 2).
pub fn extract_conditions(nfa: &Nfa, init: &Expr) -> Vec<Condition> {
    let mut conditions = Vec::new();
    conditions.push(Condition {
        kind: ConditionKind::Initial,
        assumption: init.clone(),
        outgoing: nfa.initial_outgoing_predicates(),
    });
    for state in nfa.states() {
        let outgoing = nfa.outgoing_predicates(state);
        for incoming in nfa.incoming_predicates(state) {
            conditions.push(Condition {
                kind: ConditionKind::State { state },
                assumption: incoming,
                outgoing: outgoing.clone(),
            });
        }
    }
    conditions
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Valuation, Value, VarId, VarSet};

    fn fixture() -> (VarSet, Nfa, Expr) {
        let mut vars = VarSet::new();
        let on = vars.declare("on", Sort::Bool).unwrap();
        let one = Expr::var(on, Sort::Bool);
        let mut nfa = Nfa::new();
        let q0 = nfa.add_state();
        let q1 = nfa.add_state();
        nfa.mark_initial(q0);
        nfa.add_transition(q0, q1, one.clone());
        nfa.add_transition(q1, q0, one.not());
        nfa.add_transition(q1, q1, one.clone());
        (vars, nfa, one.not())
    }

    #[test]
    fn extraction_counts() {
        let (_, nfa, init) = fixture();
        let conditions = extract_conditions(&nfa, &init);
        // 1 initial + one per (state, incoming predicate): q0 has one incoming
        // (from q1), q1 has two incoming (from q0 and its self-loop).
        assert_eq!(conditions.len(), 1 + 1 + 2);
        assert_eq!(
            conditions
                .iter()
                .filter(|c| c.kind == ConditionKind::Initial)
                .count(),
            1
        );
        let q1 = StateId::from_index(1);
        assert_eq!(
            conditions
                .iter()
                .filter(|c| c.kind == (ConditionKind::State { state: q1 }))
                .count(),
            2
        );
    }

    #[test]
    fn initial_condition_uses_init_and_initial_outgoing() {
        let (_, nfa, init) = fixture();
        let conditions = extract_conditions(&nfa, &init);
        let initial = &conditions[0];
        assert_eq!(initial.assumption, init);
        assert_eq!(initial.outgoing.len(), 1);
    }

    #[test]
    fn conclusion_is_disjunction_of_outgoing() {
        let (vars, nfa, init) = fixture();
        let conditions = extract_conditions(&nfa, &init);
        // Find a condition for q1: its conclusion must hold both when on is
        // true (self-loop) and when on is false (edge back to q0).
        let q1 = StateId::from_index(1);
        let condition = conditions
            .iter()
            .find(|c| c.kind == (ConditionKind::State { state: q1 }))
            .unwrap();
        let mut v = Valuation::zeroed(&vars);
        assert!(condition.conclusion().eval_bool(&v));
        v.set(VarId::from_index(0), Value::Bool(true));
        assert!(condition.conclusion().eval_bool(&v));
    }

    #[test]
    fn dead_end_state_yields_false_conclusion() {
        let mut nfa = Nfa::new();
        let q0 = nfa.add_state();
        let q1 = nfa.add_state();
        nfa.mark_initial(q0);
        nfa.add_transition(q0, q1, Expr::true_());
        let conditions = extract_conditions(&nfa, &Expr::true_());
        let dead_end = conditions
            .iter()
            .find(|c| c.kind == (ConditionKind::State { state: q1 }))
            .unwrap();
        assert!(dead_end.conclusion().is_false());
        assert_eq!(dead_end.as_implication().to_string(), "(true => false)");
    }

    #[test]
    fn assumption_memo_grows_with_the_store() {
        let mut vars = VarSet::new();
        let on = vars.declare("on", Sort::Bool).unwrap();
        let assumption = Expr::var(on, Sort::Bool);
        let mut valuation = Valuation::zeroed(&vars);
        let mut store = amle_system::TraceStore::new();
        let off = store.intern(&valuation);
        let mut memo = AssumptionMemo::new(&assumption);
        assert!(!memo.eval(off, store.valuation(off)));
        // An observation interned after the memo's first use lies past its
        // initial size.
        valuation.set(on, Value::Bool(true));
        let on_obs = store.intern(&valuation);
        assert!(on_obs.index() > off.index());
        assert!(memo.eval(on_obs, store.valuation(on_obs)));
        assert!(!memo.eval(off, store.valuation(off)));
    }
}
