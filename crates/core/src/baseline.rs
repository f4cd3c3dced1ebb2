//! The passive random-sampling baseline of Section IV-C.

use crate::conditions::extract_conditions;
use crate::engine::{ConditionEngine, OracleConfig, ParallelConfig};
use crate::learner_loop::ActiveLearnerConfig;
use amle_automaton::Nfa;
use amle_checker::OracleKind;
use amle_expr::VarId;
use amle_learner::{LearnError, ModelLearner};
use amle_system::{Simulator, System};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Result of the random-sampling baseline: a passively learned model together
/// with its (post-hoc) degree of completeness.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// The passively learned model.
    pub model: Nfa,
    /// Degree of completeness of the model, measured with the same condition
    /// checks the active algorithm uses.
    pub alpha: f64,
    /// Number of traces fed to the learner.
    pub trace_count: usize,
    /// Total number of random input samples consumed.
    pub inputs_used: usize,
    /// Wall-clock time of trace generation plus learning (the paper's `T`
    /// column for random sampling; the α measurement is reported separately).
    pub time: Duration,
    /// Wall-clock time of the α measurement.
    pub alpha_time: Duration,
}

impl BaselineReport {
    /// Number of states of the learned model (the paper's `N` column).
    pub fn num_states(&self) -> usize {
        self.model.num_states()
    }
}

/// Runs the random-sampling baseline: execute the system on `total_inputs`
/// randomly sampled inputs (in traces of `trace_length` observations), learn
/// a model passively, and measure its degree of completeness `α` using the
/// same completeness conditions as the active algorithm.
///
/// The paper uses one million random inputs; the budget is a parameter here
/// so the experiment can be scaled to the simulator substrate.
///
/// # Errors
///
/// Propagates [`LearnError`] from the model-learning component.
pub fn random_sampling_baseline<L: ModelLearner>(
    system: &System,
    learner: &mut L,
    observables: &[VarId],
    total_inputs: usize,
    trace_length: usize,
    k: usize,
    seed: u64,
) -> Result<BaselineReport, LearnError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let simulator = Simulator::new(system);
    let traces = simulator.random_traces_with_budget(total_inputs, trace_length, &mut rng);
    let model = learner.learn(system.vars(), observables, &traces)?;
    let time = start.elapsed();

    // α is measured the paper's way: every condition solved in condition
    // order by one k-induction checker, without the verdict cache.
    let alpha_start = Instant::now();
    let config = ActiveLearnerConfig {
        observables: Some(observables.to_vec()),
        k,
        parallel: ParallelConfig::with_workers(1),
        oracle: OracleConfig {
            engine: OracleKind::KInduction,
            verdict_cache: false,
            cross_validate: false,
        },
        ..ActiveLearnerConfig::default()
    };
    let conditions = extract_conditions(&model, &system.init_expr());
    let evaluation = ConditionEngine::new(system, &config).evaluate(&conditions);
    let alpha_time = alpha_start.elapsed();

    Ok(BaselineReport {
        model,
        alpha: evaluation.alpha(),
        trace_count: traces.len(),
        inputs_used: traces.total_observations(),
        time,
        alpha_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActiveLearner, ActiveLearnerConfig};
    use amle_expr::{Expr, Sort, Value};
    use amle_learner::HistoryLearner;
    use amle_system::SystemBuilder;

    /// A system where random sampling struggles: a counter must reach 12
    /// before a flag flips, which short random traces rarely witness.
    fn needle_system() -> System {
        let mut b = SystemBuilder::new();
        b.name("needle");
        let tick = b.input("tick", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(4), Value::Int(0)).unwrap();
        let hit = b.state("hit", Sort::Bool, Value::Bool(false)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(12, 4))
            .ite(&ce.add(&Expr::int_val(1, 4)), &ce);
        let next = b.var(tick).ite(&bumped, &ce);
        b.update(c, next.clone()).unwrap();
        b.update(hit, next.ge(&Expr::int_val(12, 4))).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn baseline_learns_a_model_and_measures_alpha() {
        let sys = needle_system();
        let mut learner = HistoryLearner::new(1);
        let observables = sys.all_vars();
        let report =
            random_sampling_baseline(&sys, &mut learner, &observables, 120, 6, 30, 7).unwrap();
        assert!(report.num_states() >= 1);
        assert!(report.trace_count >= 1);
        assert!(report.inputs_used >= 100);
        assert!((0.0..=1.0).contains(&report.alpha));
    }

    #[test]
    fn active_learning_reaches_higher_alpha_than_a_small_random_budget() {
        // The paper's headline comparison: with a limited random budget the
        // passive model misses behaviours (α < 1) while the active loop
        // reaches α = 1.
        let sys = needle_system();
        let observables = sys.all_vars();

        let mut passive_learner = HistoryLearner::new(1);
        let baseline =
            random_sampling_baseline(&sys, &mut passive_learner, &observables, 60, 5, 30, 3)
                .unwrap();

        let config = ActiveLearnerConfig {
            initial_traces: 12,
            trace_length: 5,
            k: 30,
            max_iterations: 40,
            ..Default::default()
        };
        let mut active = ActiveLearner::new(&sys, HistoryLearner::new(1), config);
        let report = active.run().unwrap();

        assert!(
            report.converged,
            "active loop should converge, α = {}",
            report.alpha
        );
        assert!(
            baseline.alpha <= report.alpha,
            "baseline α {} should not exceed active α {}",
            baseline.alpha,
            report.alpha
        );
    }
}
