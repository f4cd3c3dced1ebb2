//! The k-history passive learner: automaton states are identified by the last
//! `k` abstract letters of the access word.
//!
//! This is the learner the active loop uses by default. It produces exactly
//! the Fig. 2 style of model: one state per (bounded) observation history,
//! transitions labelled by the predicate of the observation that is consumed.
//! Its key property for the active loop is *stable state identity*: the state
//! reached after reading a prefix depends only on the letters of that prefix,
//! so when a counterexample `(v_t, v_{t+1})` is spliced onto a prefix ending
//! in a state that satisfies the violated assumption, the new edge is
//! attached to exactly the automaton state whose completeness condition was
//! violated — each refinement iteration makes monotone progress.

use crate::abstraction::{AbstractionUpdate, IncrementalAbstraction};
use crate::learner::LetterAutomaton;
use crate::{
    AbstractionConfig, AlphabetAbstraction, LearnError, LetterId, ModelLearner, WordStats,
};
use amle_automaton::Nfa;
use amle_expr::{VarId, VarSet};
use amle_system::{TraceSet, TraceStore};
use std::collections::{BTreeMap, BTreeSet};

/// Passive learner whose states are bounded observation histories.
///
/// `history_depth = 1` (the default) yields one state per abstract letter
/// plus a distinguished initial state; larger depths refine states by longer
/// histories, which can capture counter-like sequencing at the cost of more
/// states.
///
/// The store-backed path ([`ModelLearner::learn_from_store`]) is
/// **incremental**: the history quotient is a left fold over the sample
/// words, so when the alphabet is stable between iterations the learner
/// keeps its state map and transition set and folds in only the words of
/// newly added traces. The result is byte-identical to a from-scratch fold
/// (state ids depend only on first-encounter order, which appending
/// preserves); only the cost changes.
#[derive(Debug, Clone)]
pub struct HistoryLearner {
    /// Number of trailing letters that identify a state.
    pub history_depth: usize,
    /// Alphabet-abstraction configuration.
    pub abstraction: AbstractionConfig,
    /// Incremental state for the store-backed path.
    cache: Option<HistoryCache>,
    /// Accumulated word-pipeline statistics.
    stats: WordStats,
}

/// Equality is configuration equality; incremental caches and accumulated
/// statistics are ignored.
impl PartialEq for HistoryLearner {
    fn eq(&self, other: &Self) -> bool {
        self.history_depth == other.history_depth && self.abstraction == other.abstraction
    }
}

impl Eq for HistoryLearner {}

/// The incremental fold state of the store-backed path.
#[derive(Debug, Clone)]
struct HistoryCache {
    /// Depth the fold was built with; a config change invalidates it.
    depth: usize,
    inc: IncrementalAbstraction,
    /// Number of cached words already folded into the quotient.
    words_done: usize,
    state_ids: BTreeMap<Vec<LetterId>, usize>,
    transitions: BTreeSet<(usize, LetterId, usize)>,
}

impl HistoryCache {
    fn fresh(depth: usize, config: AbstractionConfig) -> Self {
        HistoryCache {
            depth,
            inc: IncrementalAbstraction::new(config),
            words_done: 0,
            state_ids: BTreeMap::from([(Vec::new(), 0)]),
            transitions: BTreeSet::new(),
        }
    }

    fn reset_fold(&mut self) {
        self.words_done = 0;
        self.state_ids = BTreeMap::from([(Vec::new(), 0)]);
        self.transitions = BTreeSet::new();
    }
}

impl Default for HistoryLearner {
    fn default() -> Self {
        HistoryLearner {
            history_depth: 1,
            abstraction: AbstractionConfig::default(),
            cache: None,
            stats: WordStats::default(),
        }
    }
}

/// Folds one sample word into the history quotient: states are the bounded
/// letter histories, assigned dense ids in first-encounter order.
fn fold_word(
    depth: usize,
    state_ids: &mut BTreeMap<Vec<LetterId>, usize>,
    transitions: &mut BTreeSet<(usize, LetterId, usize)>,
    word: &[LetterId],
) {
    let mut history: Vec<LetterId> = Vec::new();
    for letter in word {
        let from_len = state_ids.len();
        let from = *state_ids.entry(history.clone()).or_insert(from_len);
        history.push(*letter);
        if history.len() > depth {
            history.remove(0);
        }
        let to_len = state_ids.len();
        let to = *state_ids.entry(history.clone()).or_insert(to_len);
        transitions.insert((from, *letter, to));
    }
}

impl HistoryLearner {
    /// Creates a learner with the given history depth and default abstraction
    /// configuration.
    pub fn new(history_depth: usize) -> Self {
        HistoryLearner {
            history_depth,
            ..Default::default()
        }
    }

    pub(crate) fn learn_letter_automaton(&self, words: &[Vec<LetterId>]) -> LetterAutomaton {
        let depth = self.history_depth.max(1);
        // State identity: the (at most `depth`-long) suffix of the access
        // word. The empty suffix is the initial state.
        let mut state_ids: BTreeMap<Vec<LetterId>, usize> = BTreeMap::new();
        state_ids.insert(Vec::new(), 0);
        let mut transitions = BTreeSet::new();
        for word in words {
            fold_word(depth, &mut state_ids, &mut transitions, word);
        }
        LetterAutomaton {
            num_states: state_ids.len(),
            initial: 0,
            transitions,
        }
    }
}

impl ModelLearner for HistoryLearner {
    fn learn(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
    ) -> Result<Nfa, LearnError> {
        if traces.is_empty() {
            return Err(LearnError::NoTraces);
        }
        let abstraction =
            AlphabetAbstraction::from_traces(vars, observables, traces, self.abstraction);
        let words: Vec<Vec<LetterId>> = traces
            .iter()
            .map(|t| {
                abstraction
                    .word_of(t.observations())
                    .expect("abstraction was built from these traces")
            })
            .collect();
        self.stats.words_encoded += words.len() as u64;
        let letter_automaton = self.learn_letter_automaton(&words);
        debug_assert!(
            words.iter().all(|w| letter_automaton.accepts_word(w)),
            "history quotient must accept every sample word"
        );
        Ok(letter_automaton.to_nfa(&abstraction))
    }

    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        if store.is_empty() {
            return Err(LearnError::NoTraces);
        }
        let depth = self.history_depth.max(1);
        let config = self.abstraction;
        let reusable =
            matches!(&self.cache, Some(c) if c.depth == depth && c.inc.config() == config);
        if !reusable {
            self.cache = Some(HistoryCache::fresh(depth, config));
        }
        let cache = self.cache.as_mut().expect("cache just ensured");
        let update = cache.inc.update(vars, observables, store);
        if update == AbstractionUpdate::Rebuilt {
            cache.reset_fold();
        }
        let words = cache.inc.words();
        for word in &words[cache.words_done..] {
            fold_word(depth, &mut cache.state_ids, &mut cache.transitions, word);
        }
        self.stats.words_encoded += (words.len() - cache.words_done) as u64;
        self.stats.words_reused += cache.words_done as u64;
        cache.words_done = words.len();

        let letter_automaton = LetterAutomaton {
            num_states: cache.state_ids.len(),
            initial: 0,
            transitions: cache.transitions.clone(),
        };
        debug_assert!(
            words.iter().all(|w| letter_automaton.accepts_word(w)),
            "history quotient must accept every sample word"
        );
        Ok(letter_automaton.to_nfa(cache.inc.abstraction()))
    }

    fn name(&self) -> &'static str {
        "history"
    }

    fn word_stats(&self) -> WordStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Expr, Sort, Value};
    use amle_system::{Simulator, SystemBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cooler() -> amle_system::System {
        let mut b = SystemBuilder::new();
        b.name("cooler");
        let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120).unwrap();
        let on = b.state("s_on", Sort::Bool, Value::Bool(false)).unwrap();
        let update = b.var(temp).gt(&Expr::int_val(75, 8));
        b.update(on, update).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn learned_model_accepts_all_training_traces() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(11);
        let traces = sim.random_traces(20, 20, &mut rng);
        let mut learner = HistoryLearner::default();
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        for trace in traces.iter() {
            assert!(nfa.accepts_trace(trace));
        }
    }

    #[test]
    fn depth_one_model_is_bounded_by_letter_count_plus_one() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(3);
        let traces = sim.random_traces(30, 30, &mut rng);
        let mut learner = HistoryLearner::new(1);
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        // Letters for the cooler: (temp cell) x (on value) — at most 2*2 plus
        // the initial state, and the threshold mining may add a few cells.
        assert!(
            nfa.num_states() <= 10,
            "unexpectedly large model: {}",
            nfa.num_states()
        );
        for trace in traces.iter() {
            assert!(nfa.accepts_trace(trace));
        }
    }

    #[test]
    fn deeper_history_refines_the_model() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(5);
        let traces = sim.random_traces(15, 15, &mut rng);
        let observables = sys.all_vars();
        let shallow = HistoryLearner::new(1)
            .learn(sys.vars(), &observables, &traces)
            .unwrap()
            .num_states();
        let deep = HistoryLearner::new(2)
            .learn(sys.vars(), &observables, &traces)
            .unwrap()
            .num_states();
        assert!(shallow <= deep);
    }

    #[test]
    fn store_path_matches_flat_path_and_reuses_words() {
        use amle_system::TraceStore;
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(21);
        let traces = sim.random_traces(12, 10, &mut rng);
        // Boolean observables only: the cell structure is pinned once both
        // values are seen, so growing the store must take the incremental
        // path (a numeric observable could re-mine thresholds and rebuild).
        let observables = vec![sys.vars().lookup("s_on").unwrap()];

        let mut store = TraceStore::from_trace_set(&traces);
        let mut incremental = HistoryLearner::default();
        let from_store = incremental
            .learn_from_store(sys.vars(), &observables, &store)
            .unwrap();
        let from_flat = HistoryLearner::default()
            .learn(sys.vars(), &observables, &traces)
            .unwrap();
        assert_eq!(from_store, from_flat, "store and flat models diverged");
        assert_eq!(incremental.word_stats().words_encoded, traces.len() as u64);

        // Growing the store with a splice of known observations keeps the
        // alphabet stable, so only the new trace's word is encoded.
        let first = store.traces().next().unwrap();
        let obs = store.obs_ids(first)[2];
        let prefix = store.prefix(first, 4);
        store.splice(prefix, obs, obs).unwrap();
        let before = incremental.word_stats();
        let grown = incremental
            .learn_from_store(sys.vars(), &observables, &store)
            .unwrap();
        let delta = incremental.word_stats().since(&before);
        assert_eq!(delta.words_encoded, 1);
        assert_eq!(delta.words_reused, traces.len() as u64);
        let fresh = HistoryLearner::default()
            .learn(sys.vars(), &observables, &store.to_trace_set())
            .unwrap();
        assert_eq!(grown, fresh, "incremental model diverged from rebuild");
    }

    #[test]
    fn empty_trace_set_is_an_error() {
        let sys = cooler();
        let mut learner = HistoryLearner::default();
        let observables = sys.all_vars();
        assert_eq!(
            learner.learn(sys.vars(), &observables, &TraceSet::new()),
            Err(LearnError::NoTraces)
        );
    }

    #[test]
    fn learner_name_and_depth_zero_behaves_like_depth_one() {
        assert_eq!(HistoryLearner::default().name(), "history");
        let words = vec![vec![LetterId(0), LetterId(1)]];
        let a0 = HistoryLearner::new(0).learn_letter_automaton(&words);
        let a1 = HistoryLearner::new(1).learn_letter_automaton(&words);
        assert_eq!(a0.num_states, a1.num_states);
    }
}
