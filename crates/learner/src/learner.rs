//! The pluggable learner interface and shared letter-automaton utilities.

use crate::{AlphabetAbstraction, LetterId};
use amle_automaton::Nfa;
use amle_expr::{VarId, VarSet};
use amle_sat::SolverStats;
use amle_system::{TraceSet, TraceStore};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Errors raised by model learners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// The trace set was empty; there is nothing to learn from.
    NoTraces,
    /// The learner's internal search failed to find a consistent automaton
    /// within its configured bounds.
    SearchExhausted {
        /// Short description of the bound that was hit.
        reason: String,
    },
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::NoTraces => write!(f, "cannot learn a model from an empty trace set"),
            LearnError::SearchExhausted { reason } => {
                write!(f, "model search exhausted its bounds: {reason}")
            }
        }
    }
}

impl Error for LearnError {}

/// Word-pipeline statistics of a model learner: how many abstract words a
/// `learn` call actually processed versus reused from its incremental cache.
///
/// Counters accumulate over the learner's lifetime (like
/// [`SolverStats`]); callers snapshot and diff with [`WordStats::since`] to
/// attribute work to one run or iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordStats {
    /// Abstract words converted and fed to the learner's internal
    /// representation (automaton fold, SAT encoding, …).
    pub words_encoded: u64,
    /// Abstract words whose conversion *and* internal encoding were reused
    /// from a previous call on the same (grown) trace store.
    pub words_reused: u64,
}

impl WordStats {
    /// The work done since an earlier snapshot of the same accumulating
    /// counters.
    pub fn since(&self, earlier: &WordStats) -> WordStats {
        WordStats {
            words_encoded: self.words_encoded - earlier.words_encoded,
            words_reused: self.words_reused - earlier.words_reused,
        }
    }
}

impl AddAssign for WordStats {
    fn add_assign(&mut self, rhs: WordStats) {
        self.words_encoded += rhs.words_encoded;
        self.words_reused += rhs.words_reused;
    }
}

impl Add for WordStats {
    type Output = WordStats;

    fn add(mut self, rhs: WordStats) -> WordStats {
        self += rhs;
        self
    }
}

/// A passive model-learning component.
///
/// The contract is the one stated in Section II-B of the paper: given a set
/// of execution traces, return an NFA that admits (at least) every trace in
/// the set. The active-learning loop in `amle-core` treats implementations of
/// this trait as interchangeable black boxes.
pub trait ModelLearner {
    /// Learns an NFA over the observable variables from the given traces.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::NoTraces`] when the trace set is empty and
    /// [`LearnError::SearchExhausted`] when the learner's bounded search fails.
    fn learn(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
    ) -> Result<Nfa, LearnError>;

    /// Learns from an interned [`TraceStore`] instead of a flat trace set.
    ///
    /// This is the entry point the active-learning loop uses every
    /// iteration. Incremental learners ([`crate::HistoryLearner`],
    /// [`crate::SatDfaLearner`]) recognise a store they have seen before
    /// (same [`TraceStore::store_id`], grown append-only) and only process
    /// the traces added since the previous call; the default implementation
    /// simply materialises the store (cloning every observation of every
    /// trace, O(total observations) per call) and delegates to
    /// [`learn`](ModelLearner::learn). The learned model is identical either
    /// way — incrementality is a cost optimisation, not a semantic change —
    /// but learners expected on the refinement loop's hot path should
    /// override this.
    ///
    /// # Errors
    ///
    /// As for [`learn`](ModelLearner::learn).
    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        self.learn(vars, observables, &store.to_trace_set())
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// SAT-solver statistics accumulated by this learner, for
    /// learners that reason with SAT; others report the zero default.
    fn solver_stats(&self) -> SolverStats {
        SolverStats::default()
    }

    /// Word-pipeline statistics accumulated by this learner across its
    /// lifetime; learners without an incremental path report the zero
    /// default.
    fn word_stats(&self) -> WordStats {
        WordStats::default()
    }
}

/// Convenience enum for selecting a learner in configurations and benchmark
/// harnesses without trait objects.
// The SAT-DFA variant carries its incremental caches and is therefore the
// largest by a margin; a handful of these exist per harness run, so the
// footprint is irrelevant and boxing would only complicate construction.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LearnerKind {
    /// The history-based learner (default; Fig. 2 style models).
    History(crate::HistoryLearner),
    /// The k-tails (bounded-future) state-merging learner.
    KTails(crate::KTailsLearner),
    /// SAT-based exact minimal DFA identification.
    SatDfa(crate::SatDfaLearner),
}

impl LearnerKind {
    /// The flag spelling of every kind, in the order usage messages list
    /// them.
    pub const NAMES: [&'static str; 3] = ["history", "ktails", "satdfa"];

    /// Builds a fresh learner from its flag spelling (`history`, `ktails`
    /// with future depth 1, or `satdfa`).
    pub fn from_name(name: &str) -> Option<LearnerKind> {
        match name {
            "history" => Some(LearnerKind::History(crate::HistoryLearner::default())),
            "ktails" => Some(LearnerKind::KTails(crate::KTailsLearner::new(1))),
            "satdfa" => Some(LearnerKind::SatDfa(crate::SatDfaLearner::default())),
            _ => None,
        }
    }
}

impl ModelLearner for LearnerKind {
    fn learn(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
    ) -> Result<Nfa, LearnError> {
        match self {
            LearnerKind::History(l) => l.learn(vars, observables, traces),
            LearnerKind::KTails(l) => l.learn(vars, observables, traces),
            LearnerKind::SatDfa(l) => l.learn(vars, observables, traces),
        }
    }

    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        match self {
            LearnerKind::History(l) => l.learn_from_store(vars, observables, store),
            LearnerKind::KTails(l) => l.learn_from_store(vars, observables, store),
            LearnerKind::SatDfa(l) => l.learn_from_store(vars, observables, store),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            LearnerKind::History(l) => l.name(),
            LearnerKind::KTails(l) => l.name(),
            LearnerKind::SatDfa(l) => l.name(),
        }
    }

    fn solver_stats(&self) -> SolverStats {
        match self {
            LearnerKind::History(l) => l.solver_stats(),
            LearnerKind::KTails(l) => l.solver_stats(),
            LearnerKind::SatDfa(l) => l.solver_stats(),
        }
    }

    fn word_stats(&self) -> WordStats {
        match self {
            LearnerKind::History(l) => l.word_stats(),
            LearnerKind::KTails(l) => l.word_stats(),
            LearnerKind::SatDfa(l) => l.word_stats(),
        }
    }
}

impl Default for LearnerKind {
    fn default() -> Self {
        LearnerKind::History(crate::HistoryLearner::default())
    }
}

/// A finite automaton over abstract letters, the intermediate representation
/// shared by all learners before predicates are attached.
#[derive(Debug, Clone, Default)]
pub(crate) struct LetterAutomaton {
    pub num_states: usize,
    pub initial: usize,
    /// Transitions `(from, letter, to)`.
    pub transitions: BTreeSet<(usize, LetterId, usize)>,
}

impl LetterAutomaton {
    /// Converts the letter automaton into a symbolic NFA: each letter on an
    /// edge contributes its predicate, parallel edges are merged into a
    /// disjunction and guards are simplified for readability.
    pub fn to_nfa(&self, abstraction: &AlphabetAbstraction) -> Nfa {
        let mut nfa = Nfa::new();
        nfa.add_states(self.num_states.max(1));
        nfa.mark_initial(amle_automaton::StateId::from_index(self.initial));
        for (from, letter, to) in &self.transitions {
            nfa.add_transition(
                amle_automaton::StateId::from_index(*from),
                amle_automaton::StateId::from_index(*to),
                abstraction.predicate(*letter),
            );
        }
        nfa.merge_parallel_edges()
            .simplify_guards()
            .trim_unreachable()
    }

    /// Checks whether the letter automaton accepts an abstract word.
    pub fn accepts_word(&self, word: &[LetterId]) -> bool {
        let mut current: BTreeSet<usize> = BTreeSet::from([self.initial]);
        for letter in word {
            current = self
                .transitions
                .iter()
                .filter(|(from, l, _)| current.contains(from) && l == letter)
                .map(|(_, _, to)| *to)
                .collect();
            if current.is_empty() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbstractionConfig;
    use amle_expr::{Sort, Valuation, Value};
    use amle_system::Trace;

    fn letters_fixture() -> (VarSet, AlphabetAbstraction, Vec<LetterId>) {
        let mut vars = VarSet::new();
        let b = vars.declare("b", Sort::Bool).unwrap();
        let mut traces = TraceSet::new();
        let mut v0 = Valuation::zeroed(&vars);
        v0.set(b, Value::Bool(false));
        let mut v1 = Valuation::zeroed(&vars);
        v1.set(b, Value::Bool(true));
        traces.insert(Trace::new(vec![v0.clone(), v1.clone(), v0.clone()]));
        let abs =
            AlphabetAbstraction::from_traces(&vars, &[b], &traces, AbstractionConfig::default());
        let word = abs
            .word_of(traces.traces()[0].observations())
            .expect("letters exist");
        (vars, abs, word)
    }

    #[test]
    fn letter_automaton_round_trip() {
        let (_, abs, word) = letters_fixture();
        // Single-state automaton with self loops on both letters.
        let mut la = LetterAutomaton {
            num_states: 1,
            initial: 0,
            transitions: BTreeSet::new(),
        };
        for l in abs.letters() {
            la.transitions.insert((0, l, 0));
        }
        assert!(la.accepts_word(&word));
        let nfa = la.to_nfa(&abs);
        assert_eq!(nfa.num_states(), 1);
        assert!(nfa.num_transitions() <= 1, "parallel edges must be merged");
    }

    #[test]
    fn letter_automaton_rejects_by_dead_end() {
        let (_, _abs, word) = letters_fixture();
        let la = LetterAutomaton {
            num_states: 1,
            initial: 0,
            transitions: BTreeSet::new(),
        };
        assert!(la.accepts_word(&[]));
        assert!(!la.accepts_word(&word));
    }

    #[test]
    fn error_display() {
        assert!(LearnError::NoTraces.to_string().contains("empty"));
        let e = LearnError::SearchExhausted {
            reason: "too many states".into(),
        };
        assert!(e.to_string().contains("too many states"));
    }

    #[test]
    fn learner_kind_default_is_history() {
        assert_eq!(LearnerKind::default().name(), "history");
    }

    #[test]
    fn learner_kind_names_round_trip() {
        let kinds = [
            LearnerKind::History(crate::HistoryLearner::default()),
            LearnerKind::KTails(crate::KTailsLearner::default()),
            LearnerKind::SatDfa(crate::SatDfaLearner::default()),
        ];
        assert_eq!(kinds.map(|kind| kind.name()), LearnerKind::NAMES);
        for name in LearnerKind::NAMES {
            let kind = LearnerKind::from_name(name).expect("listed names parse");
            assert_eq!(kind.name(), name);
        }
        match LearnerKind::from_name("ktails") {
            Some(LearnerKind::KTails(learner)) => assert_eq!(learner.future_depth, 1),
            other => panic!("`ktails` built {other:?}"),
        }
        for name in ["lstar", "sat-dfa", "telepathy", ""] {
            assert!(LearnerKind::from_name(name).is_none(), "`{name}` parsed");
        }
    }
}
