//! The Trace2Model-style passive learner: alphabet abstraction followed by
//! k-future (k-tails) state merging on the prefix-tree acceptor.

use crate::learner::LetterAutomaton;
use crate::{IncrementalAbstraction, LearnError, LetterId, ModelLearner, Pta, WordStats};
use amle_automaton::Nfa;
use amle_expr::{VarId, VarSet};
use amle_system::TraceStore;
use std::collections::BTreeSet;

/// Passive learner that merges prefix-tree states with identical bounded
/// futures.
///
/// `future_depth` plays the role of the k in classic k-tails: a larger depth
/// distinguishes more states (less generalisation, larger automata), a depth
/// of zero collapses the sample into a single state. The default is 2; the
/// front doors (`LearnerKind::from_name`, the ablation harness) use depth 1.
///
/// The quotient is recomputed on every call, so each call abstracts the
/// store with a fresh [`IncrementalAbstraction`] and keeps nothing between
/// calls but its word counters: every call encodes one word per stored
/// trace and reuses none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KTailsLearner {
    /// Depth of the future signature used to distinguish states.
    pub future_depth: usize,
    stats: WordStats,
}

impl Default for KTailsLearner {
    fn default() -> Self {
        KTailsLearner::new(2)
    }
}

impl KTailsLearner {
    /// Creates a learner with the given future depth.
    pub fn new(future_depth: usize) -> Self {
        KTailsLearner {
            future_depth,
            stats: WordStats::default(),
        }
    }

    /// Learns the intermediate letter automaton: the k-future quotient of the
    /// words' prefix-tree acceptor.
    fn learn_letter_automaton(&self, words: &[Vec<LetterId>]) -> LetterAutomaton {
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        let classes = pta.kfuture_classes(self.future_depth);

        // Renumber classes densely in order of first appearance so that the
        // initial state gets index 0.
        let mut order: Vec<usize> = Vec::new();
        let mut dense = vec![usize::MAX; pta.num_nodes()];
        for node in pta.nodes() {
            let class = classes[node];
            let idx = match order.iter().position(|c| *c == class) {
                Some(i) => i,
                None => {
                    order.push(class);
                    order.len() - 1
                }
            };
            dense[node] = idx;
        }

        let mut transitions = BTreeSet::new();
        for node in pta.nodes() {
            for (letter, child) in pta.children(node) {
                transitions.insert((dense[node], *letter, dense[*child]));
            }
        }
        LetterAutomaton {
            num_states: order.len(),
            initial: dense[pta.root()],
            transitions,
        }
    }
}

impl ModelLearner for KTailsLearner {
    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        if store.is_empty() {
            return Err(LearnError::NoTraces);
        }
        let mut inc = IncrementalAbstraction::default();
        inc.update(vars, observables, store);
        let words = inc.words();
        self.stats.words_encoded += words.len() as u64;
        let letter_automaton = self.learn_letter_automaton(words);
        debug_assert!(
            words.iter().all(|w| letter_automaton.accepts_word(w)),
            "k-tails quotient must accept every sample word"
        );
        Ok(letter_automaton.to_nfa(inc.abstraction()))
    }

    fn name(&self) -> &'static str {
        "ktails"
    }

    fn word_stats(&self) -> WordStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Expr, Sort, Value};
    use amle_system::{Simulator, SystemBuilder, TraceSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's running example (Fig. 2): a climate-control cooler whose
    /// mode follows a temperature threshold.
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
        let mut learner = KTailsLearner::default();
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        for trace in traces.iter() {
            assert!(nfa.accepts_trace(trace), "training trace rejected");
        }
        assert!(nfa.num_states() >= 1);
    }

    #[test]
    fn empty_trace_set_is_an_error() {
        let sys = cooler();
        let mut learner = KTailsLearner::default();
        let observables = sys.all_vars();
        assert_eq!(
            learner.learn(sys.vars(), &observables, &TraceSet::new()),
            Err(LearnError::NoTraces)
        );
    }

    #[test]
    fn future_depth_zero_collapses_to_one_state() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(3);
        let traces = sim.random_traces(10, 15, &mut rng);
        let mut learner = KTailsLearner::new(0);
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        assert_eq!(nfa.num_states(), 1);
    }

    #[test]
    fn deeper_futures_never_give_smaller_models() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(5);
        let traces = sim.random_traces(15, 15, &mut rng);
        let observables = sys.all_vars();
        let sizes: Vec<usize> = [0usize, 1, 2, 4]
            .iter()
            .map(|&depth| {
                KTailsLearner::new(depth)
                    .learn(sys.vars(), &observables, &traces)
                    .unwrap()
                    .num_states()
            })
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] <= w[1], "sizes must be monotone in depth: {sizes:?}");
        }
    }

    #[test]
    fn observing_only_the_mode_gives_a_two_state_toggle() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(7);
        let traces = sim.random_traces(40, 30, &mut rng);
        let on = sys.vars().lookup("s_on").unwrap();
        let mut learner = KTailsLearner::new(1);
        let nfa = learner.learn(sys.vars(), &[on], &traces).unwrap();
        // Observing only the boolean mode, the abstraction has two letters and
        // the learned machine stays small (bounded by the number of distinct
        // depth-1 futures over a two-letter alphabet) while accepting all data.
        assert!(nfa.num_states() <= 4);
        for trace in traces.iter() {
            assert!(nfa.accepts_trace(trace));
        }
    }

    #[test]
    fn learner_name() {
        assert_eq!(KTailsLearner::default().name(), "ktails");
    }
}
