//! Property-based tests of the learners.
//!
//! The central invariant is the paper's learner contract: whatever the traces
//! and whatever the learner configuration, the returned NFA admits every
//! training trace.

use crate::{KTailsLearner, LearnerKind, ModelLearner, SatDfaLearner, WordStats};
use amle_expr::{Expr, Sort, Value};
use amle_system::{Simulator, System, SystemBuilder, TraceSet, TraceStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A two-mode controller with a threshold input and a small counter —
/// exercises both the equality and the interval abstraction.
fn controller(threshold: i64, limit: i64) -> System {
    let mut b = SystemBuilder::new();
    b.name("controller");
    let temp = b.input_in_range("temp", Sort::int(7), 0, 120).unwrap();
    let on = b.state("on", Sort::Bool, Value::Bool(false)).unwrap();
    let count = b.state("count", Sort::int(4), Value::Int(0)).unwrap();
    let hot = b.var(temp).gt(&Expr::int_val(threshold, 7));
    b.update(on, hot.clone()).unwrap();
    let ce = b.var(count);
    let bumped = ce
        .ge(&Expr::int_val(limit, 4))
        .ite(&Expr::int_val(0, 4), &ce.add(&Expr::int_val(1, 4)));
    let next_count = hot.ite(&bumped, &ce);
    b.update(count, next_count).unwrap();
    b.build().unwrap()
}

fn training_set(sys: &System, count: usize, len: usize, seed: u64) -> TraceSet {
    let sim = Simulator::new(sys);
    let mut rng = StdRng::seed_from_u64(seed);
    sim.random_traces(count, len, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ktails_admits_all_training_traces(
        threshold in 20i64..100,
        limit in 2i64..10,
        depth in 0usize..4,
        seed in 0u64..100,
    ) {
        let sys = controller(threshold, limit);
        let traces = training_set(&sys, 10, 15, seed);
        let mut learner = KTailsLearner::new(depth);
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        for trace in traces.iter() {
            prop_assert!(nfa.accepts_trace(trace));
        }
    }

    #[test]
    fn ktails_admits_prefixes_of_training_traces(
        threshold in 20i64..100,
        seed in 0u64..50,
    ) {
        let sys = controller(threshold, 5);
        let traces = training_set(&sys, 8, 12, seed);
        let mut learner = KTailsLearner::default();
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        for trace in traces.iter() {
            for k in 0..=trace.len() {
                prop_assert!(nfa.accepts(&trace.observations()[..k]));
            }
        }
    }

    #[test]
    fn sat_dfa_admits_all_training_traces(seed in 0u64..30) {
        let sys = controller(60, 4);
        // Keep the sample small so exact identification stays fast.
        let traces = training_set(&sys, 4, 6, seed);
        let mut learner = SatDfaLearner::default();
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        for trace in traces.iter() {
            prop_assert!(nfa.accepts_trace(trace));
        }
    }

    // The contract on a store that grows between two calls of one learner:
    // every learner admits every stored trace, before and after a splice
    // of two stored observations onto a stored prefix, and accounts one
    // word, encoded or reused, per stored trace on every call.
    #[test]
    fn every_learner_admits_a_spliced_store(
        threshold in 20i64..100,
        seed in 0u64..30,
        cut in 0usize..7,
        from in 0usize..6,
        to in 0usize..6,
    ) {
        let sys = controller(threshold, 4);
        let observables = sys.all_vars();
        for name in LearnerKind::NAMES {
            let mut store = TraceStore::from_trace_set(&training_set(&sys, 4, 6, seed));
            let mut learner = LearnerKind::from_name(name).unwrap();
            let words = |stats: WordStats| stats.words_encoded + stats.words_reused;
            let first = learner.learn_from_store(sys.vars(), &observables, &store).unwrap();
            prop_assert_eq!(words(learner.word_stats()), store.len() as u64, "{}", name);
            for trace in store.traces() {
                prop_assert!(first.accepts_trace(&store.materialize(trace)), "{}", name);
            }
            let (head, tail) = (store.traces().next().unwrap(), store.traces().last().unwrap());
            let (prefix, ids) = (store.prefix(head, cut), store.obs_ids(tail));
            store.splice(prefix, ids[from], ids[to]);
            let before = learner.word_stats();
            let grown = learner.learn_from_store(sys.vars(), &observables, &store).unwrap();
            let added = learner.word_stats().since(&before);
            prop_assert_eq!(words(added), store.len() as u64, "{}", name);
            for trace in store.traces() {
                prop_assert!(grown.accepts_trace(&store.materialize(trace)), "{}", name);
            }
        }
    }

    #[test]
    fn observing_fewer_variables_never_grows_the_model(seed in 0u64..30) {
        let sys = controller(70, 6);
        let traces = training_set(&sys, 10, 15, seed);
        let mut learner = KTailsLearner::default();
        let all = sys.all_vars();
        let on_only = vec![sys.vars().lookup("on").unwrap()];
        let full = learner.learn(sys.vars(), &all, &traces).unwrap();
        let coarse = learner.learn(sys.vars(), &on_only, &traces).unwrap();
        prop_assert!(coarse.num_states() <= full.num_states());
    }
}
