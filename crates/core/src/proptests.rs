//! Property-based tests of the end-to-end active-learning loop.
//!
//! The central property is the paper's Theorem 1: when the loop converges
//! (`α = 1`), the learned abstraction admits every system trace — checked by
//! sampling fresh random traces with seeds the learner never saw. The
//! grouped splicing step is checked against the flat reference on random
//! trace sets and counterexample sequences.

use crate::learner_loop::{splice_both_ways, SpliceIteration};
use crate::{ActiveLearner, ActiveLearnerConfig, Condition, ConditionKind};
use amle_automaton::StateId;
use amle_expr::{Expr, Sort, Valuation, Value, VarSet};
use amle_learner::HistoryLearner;
use amle_system::{Simulator, System, SystemBuilder, Trace, TraceSet};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A parametric threshold controller (the Fig. 2 shape) with a configurable
/// threshold.
fn threshold_controller(threshold: i64) -> System {
    let mut b = SystemBuilder::new();
    b.name("threshold_controller");
    let temp = b.input_in_range("temp", Sort::int(7), 0, 120).unwrap();
    let on = b.state("on", Sort::Bool, Value::Bool(false)).unwrap();
    let update = b.var(temp).gt(&Expr::int_val(threshold, 7));
    b.update(on, update).unwrap();
    b.build().unwrap()
}

/// A parametric mod-N counter with an enable input.
fn mod_counter(n: i64) -> System {
    let mut b = SystemBuilder::new();
    b.name("mod_counter");
    let en = b.input("en", Sort::Bool).unwrap();
    let c = b.state("c", Sort::int(4), Value::Int(0)).unwrap();
    let ce = b.var(c);
    let wrapped = ce
        .add(&Expr::int_val(1, 4))
        .ge(&Expr::int_val(n, 4))
        .ite(&Expr::int_val(0, 4), &ce.add(&Expr::int_val(1, 4)));
    b.update(c, b.var(en).ite(&wrapped, &ce)).unwrap();
    b.build().unwrap()
}

fn check_theorem_1(system: &System, config: ActiveLearnerConfig) -> Result<(), TestCaseError> {
    let mut learner = ActiveLearner::new(system, HistoryLearner::default(), config);
    let report = learner.run().expect("active learning must not error");
    prop_assert!(
        report.converged,
        "loop did not converge: α = {}",
        report.alpha
    );
    let sim = Simulator::new(system);
    let mut rng = StdRng::seed_from_u64(0xFEED_5EED);
    for _ in 0..15 {
        let fresh = sim.random_trace(25, &mut rng);
        prop_assert!(
            report.abstraction.accepts_trace(&fresh),
            "converged abstraction rejected a fresh system trace"
        );
    }
    // The paper's prefix-closure argument: every prefix must be admitted too.
    let fresh = sim.random_trace(12, &mut rng);
    for k in 0..=fresh.len() {
        prop_assert!(report.abstraction.accepts(&fresh.observations()[..k]));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn theorem_1_holds_for_threshold_controllers(threshold in 20i64..100, seed in 0u64..50) {
        let system = threshold_controller(threshold);
        let config = ActiveLearnerConfig {
            initial_traces: 10,
            trace_length: 10,
            k: 4,
            max_iterations: 15,
            seed,
            ..Default::default()
        };
        check_theorem_1(&system, config)?;
    }

    #[test]
    fn theorem_1_holds_for_mod_counters(n in 2i64..9, seed in 0u64..50) {
        let system = mod_counter(n);
        let config = ActiveLearnerConfig {
            initial_traces: 8,
            trace_length: 6,
            k: (2 * n) as usize,
            max_iterations: 40,
            seed,
            ..Default::default()
        };
        check_theorem_1(&system, config)?;
    }

    #[test]
    fn iteration_count_never_exceeds_the_bound(threshold in 20i64..100, max_iterations in 1usize..6) {
        let system = threshold_controller(threshold);
        let config = ActiveLearnerConfig {
            initial_traces: 5,
            trace_length: 5,
            k: 4,
            max_iterations,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&system, HistoryLearner::default(), config);
        let report = learner.run().expect("run");
        prop_assert!(report.iterations <= max_iterations);
        prop_assert_eq!(report.iteration_stats.len(), report.iterations);
    }
}

/// Conditions over one 2-bit variable `x`, indexed by the splicing
/// proptest: an `Initial` condition, never- and always-matching
/// assumptions, and overlapping ones, two of which share an assumption
/// across different automaton states.
fn splice_conditions(vars: &VarSet) -> Vec<Condition> {
    let x = Expr::var(vars.lookup("x").expect("declared"), Sort::int(2));
    let state = |state, assumption| Condition {
        kind: ConditionKind::State {
            state: StateId::from_index(state),
        },
        assumption,
        outgoing: vec![Expr::true_()],
    };
    let is = |v| x.eq(&Expr::int_val(v, 2));
    vec![
        Condition {
            kind: ConditionKind::Initial,
            assumption: is(0),
            outgoing: vec![],
        },
        state(0, Expr::false_()),
        state(0, Expr::true_()),
        state(0, is(1)),
        state(1, is(1)),
        state(1, is(2)),
        state(2, x.lt(&Expr::int_val(2, 2))),
        state(2, is(1).or(&is(3))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grouped_splicing_matches_the_flat_reference(
        traces in vec(vec(0i64..4, 1..6), 0..8),
        iterations in vec(vec((0usize..8, 0i64..4, 0i64..4), 0..12), 1..4),
    ) {
        let mut vars = VarSet::new();
        let x = vars.declare("x", Sort::int(2)).expect("fresh variable");
        let obs = |v| {
            let mut o = Valuation::zeroed(&vars);
            o.set(x, Value::Int(v));
            o
        };
        let conditions = splice_conditions(&vars);
        let initial: TraceSet = traces
            .iter()
            .map(|t| Trace::new(t.iter().map(|&v| obs(v)).collect()))
            .collect();
        let iterations: Vec<SpliceIteration> = iterations
            .iter()
            .map(|iteration| {
                iteration
                    .iter()
                    .map(|&(c, from, to)| (conditions[c].clone(), obs(from), obs(to)))
                    .collect()
            })
            .collect();
        let [(want_counts, want), (got_counts, got)] = splice_both_ways(&initial, &iterations);
        prop_assert_eq!(got_counts, want_counts);
        prop_assert_eq!(got, want);
    }
}
