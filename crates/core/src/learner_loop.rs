//! The active model-learning loop (Fig. 1 of the paper).

use crate::conditions::{extract_conditions, AssumptionMemo, Condition, ConditionKind};
use crate::engine::{ConditionEngine, OracleConfig, ParallelConfig};
use crate::report::{Invariant, IterationStats, RunReport};
use amle_expr::{Expr, Valuation, VarId};
use amle_learner::{LearnError, ModelLearner};
#[cfg(test)]
use amle_system::Trace;
use amle_system::{SegmentId, Simulator, System, TraceSet, TraceStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Configuration of an active-learning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveLearnerConfig {
    /// The observable variables `X` the abstraction ranges over. `None` means
    /// all system variables.
    pub observables: Option<Vec<VarId>>,
    /// Number of random traces in the initial trace set (the paper uses 50).
    pub initial_traces: usize,
    /// Length of each random trace (the paper uses 50).
    pub trace_length: usize,
    /// k-induction bound for the spurious-counterexample check (the paper
    /// assumes a benchmark-specific `k` is supplied).
    pub k: usize,
    /// Safety bound on the number of learning iterations (plays the role of
    /// the paper's wall-clock timeout).
    pub max_iterations: usize,
    /// Bound on consecutive spurious counterexamples blocked for a single
    /// condition before the condition is given up for this iteration.
    pub max_spurious_rounds: usize,
    /// Seed for the random trace generator.
    pub seed: u64,
    /// Worker count of the condition-checking engine: the calling thread is
    /// worker 0, and each further worker adds a helper thread and an oracle
    /// of its own. The default honours the `AMLE_WORKERS` environment
    /// variable (1 = the calling thread alone); reports are byte-identical
    /// across worker counts.
    pub parallel: ParallelConfig,
    /// The condition-oracle stack and planner behaviour: which engine
    /// answers queries, whether the cross-iteration verdict cache is on, and
    /// whether the portfolio cross-validates its explicit answers. Semantic
    /// fingerprints are byte-identical across engines and cache settings.
    pub oracle: OracleConfig,
}

impl ActiveLearnerConfig {
    /// The observable variables of a run over `system`: `observables`, or
    /// every system variable when it is `None`.
    pub(crate) fn observables_of(&self, system: &System) -> Vec<VarId> {
        self.observables
            .clone()
            .unwrap_or_else(|| system.all_vars())
    }

    /// Rejects the bounds no refinement can run with: a zero iteration
    /// budget leaves no model to report, and a zero k-induction bound
    /// cannot decide a spurious counterexample. Both [`ActiveLearner`] and
    /// [`crate::Session`] check this before any work.
    pub(crate) fn check_bounds(&self) -> Result<(), ActiveLearnError> {
        for (field, value) in [("max_iterations", self.max_iterations), ("k", self.k)] {
            if value == 0 {
                return Err(ActiveLearnError::BadConfig {
                    reason: format!("{field} must be positive"),
                });
            }
        }
        Ok(())
    }
}

impl Default for ActiveLearnerConfig {
    fn default() -> Self {
        ActiveLearnerConfig {
            observables: None,
            initial_traces: 50,
            trace_length: 50,
            k: 10,
            max_iterations: 25,
            max_spurious_rounds: 10,
            seed: 0xA1,
            parallel: ParallelConfig::from_env(),
            oracle: OracleConfig::default(),
        }
    }
}

/// Errors raised by the active-learning loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActiveLearnError {
    /// The model-learning component failed.
    Learner(LearnError),
    /// The configuration is unusable (e.g. no traces requested).
    BadConfig {
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for ActiveLearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActiveLearnError::Learner(e) => write!(f, "model learning failed: {e}"),
            ActiveLearnError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
        }
    }
}

impl Error for ActiveLearnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ActiveLearnError::Learner(e) => Some(e),
            ActiveLearnError::BadConfig { .. } => None,
        }
    }
}

impl From<LearnError> for ActiveLearnError {
    fn from(e: LearnError) -> Self {
        ActiveLearnError::Learner(e)
    }
}

/// Converts a valid counterexample into new traces by splicing it onto the
/// shortest prefix of every existing trace that ends in a state satisfying
/// the violated condition's assumption (Section III-B).
///
/// This is the **reference implementation** over flat traces, kept for the
/// tests: the loop itself runs a [`Splicer`] on the interned
/// [`TraceStore`], which must insert exactly the distinct traces this
/// function produces, in the same first-occurrence order — the differential
/// tests drive both with identical counterexample sequences and compare the
/// resulting sets observation for observation.
#[cfg(test)]
pub(crate) fn counterexample_traces(
    condition: &Condition,
    from: &Valuation,
    to: &Valuation,
    traces: &TraceSet,
) -> Vec<Trace> {
    if condition.kind == ConditionKind::Initial {
        return vec![Trace::new(vec![to.clone()])];
    }
    let mut new_traces = Vec::new();
    for trace in traces.iter() {
        if let Some(j) = trace
            .observations()
            .iter()
            .position(|v| condition.assumption.eval_bool(v))
        {
            let mut observations = trace.observations()[..j].to_vec();
            observations.push(from.clone());
            observations.push(to.clone());
            new_traces.push(Trace::new(observations));
        }
    }
    if new_traces.is_empty() {
        new_traces.push(Trace::new(vec![from.clone(), to.clone()]));
    }
    new_traces
}

/// One simulated refinement iteration: its counterexamples, in the order
/// the engine reports them.
#[cfg(test)]
pub(crate) type SpliceIteration = Vec<(Condition, Valuation, Valuation)>;

/// Splices `iterations` into `initial` twice: with the flat
/// [`counterexample_traces`] reference, and the way [`run_refinement`] does,
/// with one [`Splicer`] per iteration. Returns each side's new-trace count
/// per counterexample and its final trace set, reference first.
#[cfg(test)]
pub(crate) fn splice_both_ways(
    initial: &TraceSet,
    iterations: &[SpliceIteration],
) -> [(Vec<usize>, TraceSet); 2] {
    let mut reference = initial.clone();
    let mut reference_counts = Vec::new();
    let mut store = TraceStore::from_trace_set(initial);
    let mut store_counts = Vec::new();
    for iteration in iterations {
        let mut splicer = Splicer::default();
        for (condition, from, to) in iteration {
            let spliced = counterexample_traces(condition, from, to, &reference);
            let inserted = spliced.into_iter().map(|t| reference.insert(t));
            reference_counts.push(inserted.filter(|&new| new).count());
            store_counts.push(splicer.splice(&mut store, condition, from, to));
        }
    }
    [
        (reference_counts, reference),
        (store_counts, store.to_trace_set()),
    ]
}

/// The store-backed splicing step (Section III-B) for one refinement
/// iteration: splices each valid counterexample `from → to` onto the
/// shortest qualifying prefix of every trace stored before it, including
/// the traces earlier counterexamples of the same iteration spliced in.
///
/// The splice points depend only on the violated condition's assumption,
/// not on the transition, and an iteration's counterexamples share few
/// distinct assumptions. So the splicer groups them by their hash-consed
/// assumption [`Expr`] (an O(1) hash) and keeps, per group, the ordered
/// list of distinct first-qualifying prefix segments. The first
/// counterexample of a group builds the list with one
/// [`TraceStore::qualifying_prefixes`] walk of the shared-prefix trie;
/// later ones extend it over the traces added since the group's
/// watermark. A counterexample then costs one splice per listed prefix,
/// with `from` and `to` interned once.
///
/// A group retains only its prefix list, its per-observation
/// [`AssumptionMemo`] and its watermark: nothing per store segment. The
/// list is ordered by the first trace reaching each prefix, which is the
/// order a scan of every trace emits them in, so the store's contents,
/// trace order and per-counterexample new-trace counts are identical to
/// the test-only `counterexample_traces` reference.
#[derive(Default)]
pub(crate) struct Splicer<'c> {
    groups: HashMap<&'c Expr, AssumptionGroup<'c>>,
}

/// The splice points of one assumption (see [`Splicer`]).
struct AssumptionGroup<'c> {
    /// The distinct first-qualifying prefixes of the traces below
    /// `watermark`, in first-occurrence order.
    prefixes: Vec<SegmentId>,
    memo: AssumptionMemo<'c>,
    watermark: usize,
}

impl<'c> Splicer<'c> {
    /// Splices one counterexample of `condition` into `store`, returning
    /// the number of *new* traces this inserted.
    pub fn splice(
        &mut self,
        store: &mut TraceStore,
        condition: &'c Condition,
        from: &Valuation,
        to: &Valuation,
    ) -> usize {
        if condition.kind == ConditionKind::Initial {
            return usize::from(store.insert(std::slice::from_ref(to)).is_some());
        }
        let group = self
            .groups
            .entry(&condition.assumption)
            .or_insert_with(|| AssumptionGroup {
                prefixes: Vec::new(),
                memo: AssumptionMemo::new(&condition.assumption),
                watermark: 0,
            });
        let memo = &mut group.memo;
        store.qualifying_prefixes(
            group.watermark,
            |obs| memo.eval(obs, store.valuation(obs)),
            &mut group.prefixes,
        );
        group.watermark = store.len();
        let (from, to) = (store.intern(from), store.intern(to));
        if group.prefixes.is_empty() {
            // No trace reaches the assumption: record the bare transition.
            return usize::from(store.splice(store.root(), from, to).is_some());
        }
        group
            .prefixes
            .iter()
            .filter(|&&prefix| store.splice(prefix, from, to).is_some())
            .count()
    }
}

/// The active model-learning algorithm.
///
/// See the [crate documentation](crate) for the algorithm outline and an
/// end-to-end example.
#[derive(Debug)]
pub struct ActiveLearner<'a, L: ModelLearner> {
    system: &'a System,
    learner: L,
    config: ActiveLearnerConfig,
}

impl<'a, L: ModelLearner> ActiveLearner<'a, L> {
    /// Creates an active learner for `system` using the given pluggable
    /// model-learning component.
    pub fn new(system: &'a System, learner: L, config: ActiveLearnerConfig) -> Self {
        ActiveLearner {
            system,
            learner,
            config,
        }
    }

    /// The observable variables of this run.
    pub fn observables(&self) -> Vec<VarId> {
        self.config.observables_of(self.system)
    }

    /// Runs the loop starting from randomly generated traces.
    ///
    /// # Example
    ///
    /// Learning the Fig. 2 home climate-control cooler to completeness
    /// (`α = 1`, Theorem 1: the abstraction admits every system trace):
    ///
    /// ```
    /// use amle_core::{ActiveLearner, ActiveLearnerConfig};
    /// use amle_expr::{Expr, Sort, Value};
    /// use amle_learner::HistoryLearner;
    /// use amle_system::SystemBuilder;
    ///
    /// let mut b = SystemBuilder::new();
    /// let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120)?;
    /// let on = b.state("s_on", Sort::Bool, Value::Bool(false))?;
    /// let update = b.var(temp).gt(&Expr::int_val(75, 8));
    /// b.update(on, update)?;
    /// let system = b.build()?;
    ///
    /// let config = ActiveLearnerConfig {
    ///     initial_traces: 10,
    ///     trace_length: 10,
    ///     k: 4,
    ///     ..ActiveLearnerConfig::default()
    /// };
    /// let mut learner = ActiveLearner::new(&system, HistoryLearner::default(), config);
    /// let report = learner.run()?;
    /// assert!(report.converged);
    /// // The run's traces lived in an interned store; the report carries its
    /// // sharing statistics alongside the paper's columns.
    /// assert!(report.trace_store.unique_observations > 0);
    /// assert_eq!(report.trace_count, report.trace_store.traces);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ActiveLearnError::BadConfig`] for unusable configurations
    /// (a zero `initial_traces`, `trace_length`, `max_iterations` or `k`)
    /// and [`ActiveLearnError::Learner`] when the model-learning component
    /// fails.
    pub fn run(&mut self) -> Result<RunReport, ActiveLearnError> {
        if self.config.initial_traces == 0 || self.config.trace_length == 0 {
            return Err(ActiveLearnError::BadConfig {
                reason: "initial_traces and trace_length must be positive".to_string(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let simulator = Simulator::new(self.system);
        let traces = simulator.random_traces(
            self.config.initial_traces,
            self.config.trace_length,
            &mut rng,
        );
        self.run_with_traces(traces)
    }

    /// Runs the loop starting from a user-supplied initial trace set.
    ///
    /// The run builds one condition engine with `config.parallel.workers`
    /// oracles and drops it with the report. The calling thread is worker
    /// 0; with more workers, each iteration's pending conditions are shared
    /// with scoped helper threads, and the report is byte-identical to a
    /// one-worker run (see [`crate::ParallelConfig`]).
    ///
    /// # Errors
    ///
    /// As for [`ActiveLearner::run`].
    pub fn run_with_traces(&mut self, traces: TraceSet) -> Result<RunReport, ActiveLearnError> {
        self.config.check_bounds()?;
        let observables = self.observables();
        let mut store = TraceStore::from_trace_set(&traces);
        drop(traces);
        let mut engine = ConditionEngine::new(self.system, &self.config);
        run_refinement(
            self.system,
            &mut self.learner,
            &observables,
            self.config.max_iterations,
            &mut store,
            &mut engine,
        )
    }
}

/// The iteration loop of Fig. 1, running over an **externally owned** trace
/// store and condition engine.
///
/// This is the shared core of the batch [`ActiveLearner`] and the resident
/// [`crate::Session`]: the batch path builds a fresh store and engine and
/// drops them with the report, while a session keeps both (the engine's
/// per-worker oracles and its verdict cache included) alive across calls,
/// so each refinement continues from the spliced result of the previous
/// one. The report attributes only this call's work: learner, interner,
/// checker and verdict-cache counters are all snapshotted at the start.
///
/// The trace set lives in an interned [`TraceStore`]: the learner consumes
/// it through [`ModelLearner::learn_from_store`] (incremental word
/// conversion and encoding). Each iteration splices its counterexamples
/// through one [`Splicer`], which groups them by assumption: a group finds
/// its first-qualifying prefixes with one trie walk, in the order of the
/// first trace reaching each, and then extends that list only over traces
/// added since. An iteration with `g` distinct assumptions therefore walks
/// the store `g` times instead of once per counterexample, and each group
/// holds O(its prefixes + observations) memory. Both paths are pinned
/// byte-identical to the flat-trace reference semantics.
pub(crate) fn run_refinement<L: ModelLearner>(
    system: &System,
    learner: &mut L,
    observables: &[VarId],
    max_iterations: usize,
    store: &mut TraceStore,
    engine: &mut ConditionEngine,
) -> Result<RunReport, ActiveLearnError> {
    let start = Instant::now();
    let mut learn_time = Duration::ZERO;
    let mut check_time = Duration::ZERO;
    let mut iteration_stats = Vec::new();
    // The learner and the engine accumulate statistics across their
    // lifetimes; snapshot them so the report attributes only this run's
    // work. The expression interner's counters are process-global, so a
    // delta snapshot bounds them to this run the same way.
    let learner_stats_start = learner.solver_stats();
    let word_stats_start = learner.word_stats();
    let checker_start = engine.checker_stats();
    let cache_start = engine.cache_stats();
    let interner_start = amle_expr::InternerStats::snapshot();

    let mut abstraction = None;
    let mut conditions: Vec<Condition> = Vec::new();
    let mut alpha = 0.0;
    let mut converged = false;
    let mut iterations = 0;

    for iteration in 1..=max_iterations {
        iterations = iteration;

        // 1. Learn a candidate model from the current trace store.
        let learn_start = Instant::now();
        let words_before = learner.word_stats();
        let candidate = learner.learn_from_store(system.vars(), observables, store)?;
        let iteration_words = learner.word_stats().since(&words_before);
        let iteration_learn_time = learn_start.elapsed();
        learn_time += iteration_learn_time;

        // 2. Extract and check the completeness conditions.
        let check_start = Instant::now();
        let extracted = extract_conditions(&candidate, &system.init_expr());
        let evaluation = engine.evaluate(&extracted);
        let iteration_check_time = check_start.elapsed();
        check_time += iteration_check_time;

        alpha = evaluation.alpha();

        // 3. Splice valid counterexamples into new traces.
        let mut splicer = Splicer::default();
        let mut new_traces = 0;
        for (condition, from, to) in &evaluation.counterexamples {
            new_traces += splicer.splice(store, condition, from, to);
        }

        iteration_stats.push(IterationStats {
            iteration,
            conditions: evaluation.total,
            conditions_holding: evaluation.held,
            alpha,
            new_traces,
            spurious_counterexamples: evaluation.spurious,
            inconclusive_counterexamples: evaluation.inconclusive,
            model_states: candidate.num_states(),
            model_transitions: candidate.num_transitions(),
            learn_time: iteration_learn_time,
            check_time: iteration_check_time,
            words_encoded: iteration_words.words_encoded,
            words_reused: iteration_words.words_reused,
            cache_hits: evaluation.cache_hits,
        });

        conditions = extracted;
        abstraction = Some(candidate);

        if alpha >= 1.0 {
            converged = true;
            break;
        }
        if new_traces == 0 {
            // No progress is possible: every violated condition produced
            // only already-known traces (or none at all).
            break;
        }
    }

    let abstraction = abstraction.expect("at least one iteration ran");
    let invariants = conditions
        .iter()
        .map(|c| Invariant {
            assumption: c.assumption.clone(),
            conclusion: c.conclusion(),
        })
        .collect();

    Ok(RunReport {
        abstraction,
        alpha,
        iterations,
        converged,
        invariants,
        iteration_stats,
        trace_count: store.len(),
        total_time: start.elapsed(),
        learn_time,
        check_time,
        checker_stats: engine.checker_stats().since(&checker_start),
        verdict_cache: engine.cache_stats().since(&cache_start),
        learner_solver_stats: learner.solver_stats().since(&learner_stats_start),
        word_stats: learner.word_stats().since(&word_stats_start),
        trace_store: store.stats(),
        interner: amle_expr::InternerStats::snapshot().since(&interner_start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Expr, Sort, Value};
    use amle_learner::HistoryLearner;
    use amle_system::SystemBuilder;

    /// The Fig. 2 home climate-control cooler.
    fn cooler() -> System {
        let mut b = SystemBuilder::new();
        b.name("HomeClimateControl");
        let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120).unwrap();
        let on = b.state("s_on", Sort::Bool, Value::Bool(false)).unwrap();
        let update = b.var(temp).gt(&Expr::int_val(75, 8));
        b.update(on, update).unwrap();
        b.build().unwrap()
    }

    /// A two-bit saturating counter with a mode flag — needs several
    /// iterations because random traces rarely reach saturation quickly.
    fn counter_with_flag() -> System {
        let mut b = SystemBuilder::new();
        b.name("CountEvents");
        let tick = b.input("tick", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(4), Value::Int(0)).unwrap();
        let full = b.state("full", Sort::Bool, Value::Bool(false)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(9, 4))
            .ite(&ce.add(&Expr::int_val(1, 4)), &ce);
        let next = b.var(tick).ite(&bumped, &ce);
        b.update(c, next.clone()).unwrap();
        b.update(full, next.ge(&Expr::int_val(9, 4))).unwrap();
        b.build().unwrap()
    }

    fn quick_config() -> ActiveLearnerConfig {
        ActiveLearnerConfig {
            initial_traces: 15,
            trace_length: 15,
            k: 6,
            max_iterations: 15,
            ..Default::default()
        }
    }

    #[test]
    fn cooler_converges_to_a_complete_model() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        assert!(
            report.converged,
            "expected convergence, got α = {}",
            report.alpha
        );
        assert_eq!(report.alpha, 1.0);
        assert!(report.num_states() >= 1);
        assert!(!report.invariants.is_empty());
        assert!(report.iterations >= 1);
        assert_eq!(report.iteration_stats.len(), report.iterations);
    }

    #[test]
    fn final_model_admits_fresh_random_traces() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        assert!(report.converged);
        // Theorem 1: the final abstraction admits every system trace. Sample
        // fresh traces with a different seed and verify.
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..20 {
            let t = sim.random_trace(30, &mut rng);
            assert!(report.abstraction.accepts_trace(&t), "fresh trace rejected");
        }
    }

    #[test]
    fn counter_system_requires_iterations_and_converges() {
        let sys = counter_with_flag();
        let config = ActiveLearnerConfig {
            initial_traces: 10,
            trace_length: 6,
            k: 20,
            max_iterations: 30,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::new(1), config);
        let report = learner.run().unwrap();
        assert!(
            report.converged,
            "α = {} after {} iterations",
            report.alpha, report.iterations
        );
        // Short random traces rarely witness the saturation behaviour, so at
        // least one refinement iteration is expected.
        assert!(report.iterations >= 1);
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..10 {
            let t = sim.random_trace(40, &mut rng);
            assert!(report.abstraction.accepts_trace(&t));
        }
    }

    #[test]
    fn alpha_is_monotone_in_practice_for_the_cooler() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        // α of the final iteration must be the maximum seen (the loop stops
        // at 1.0 and otherwise keeps adding behaviours).
        let max_alpha = report
            .iteration_stats
            .iter()
            .map(|s| s.alpha)
            .fold(0.0f64, f64::max);
        assert!(report.alpha >= max_alpha - 1e-9);
    }

    #[test]
    fn solver_stats_flow_into_the_report() {
        let sys = cooler();
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run().unwrap();
        // The checking phase issues SAT queries through the incremental
        // backend, so aggregated solve calls must be visible in the report.
        assert!(report.checker_stats.solver.solve_calls > 0);
        assert!(report.solver_stats().solve_calls >= report.checker_stats.solver.solve_calls);
        // The history learner does not use SAT.
        assert_eq!(report.learner_solver_stats.solve_calls, 0);
    }

    #[test]
    fn sat_learner_solver_stats_flow_into_the_report() {
        let sys = cooler();
        // Restrict the abstraction to the boolean mode variable: over the full
        // valuation space the 8-bit input yields a large abstract alphabet and
        // exact DFA identification is not tractable in a unit test.
        let on = sys.vars().lookup("s_on").unwrap();
        let config = ActiveLearnerConfig {
            observables: Some(vec![on]),
            initial_traces: 5,
            trace_length: 6,
            k: 4,
            max_iterations: 4,
            ..Default::default()
        };
        let mut learner = ActiveLearner::new(&sys, amle_learner::SatDfaLearner::default(), config);
        let report = learner.run().unwrap();
        assert!(report.learner_solver_stats.solve_calls > 0);
        assert!(report.solver_stats().solve_calls > report.checker_stats.solver.solve_calls);

        // The learner accumulates stats across its lifetime, but each report
        // must attribute only its own run: an identical second run (same
        // seed, same traces) reports the same per-run solve count, not the
        // cumulative total.
        let second = learner.run().unwrap();
        assert_eq!(
            second.learner_solver_stats.solve_calls,
            report.learner_solver_stats.solve_calls
        );
    }

    #[test]
    fn parallel_engine_reports_match_sequential_byte_for_byte() {
        for system in [cooler(), counter_with_flag()] {
            let mut config = quick_config();
            config.parallel = ParallelConfig::with_workers(1);
            let sequential = ActiveLearner::new(&system, HistoryLearner::default(), config.clone())
                .run()
                .unwrap();
            config.parallel = ParallelConfig::with_workers(4);
            let parallel = ActiveLearner::new(&system, HistoryLearner::default(), config)
                .run()
                .unwrap();
            assert_eq!(sequential.abstraction, parallel.abstraction);
            assert_eq!(
                sequential.semantic_fingerprint(system.vars()),
                parallel.semantic_fingerprint(system.vars()),
                "worker count leaked into the report for {}",
                system.name()
            );
        }
    }

    #[test]
    fn observables_default_to_all_variables() {
        let sys = cooler();
        let learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        assert_eq!(learner.observables().len(), 2);
    }

    #[test]
    fn bad_config_is_rejected() {
        let sys = cooler();
        let bad = |result: Result<RunReport, ActiveLearnError>| match result {
            Err(ActiveLearnError::BadConfig { reason }) => reason,
            other => panic!("expected BadConfig, got {other:?}"),
        };
        let mut zeroed = [quick_config(), quick_config(), quick_config()];
        zeroed[0].initial_traces = 0;
        zeroed[1].max_iterations = 0;
        zeroed[2].k = 0;
        let fields = ["initial_traces", "max_iterations", "k"];
        for (field, config) in fields.into_iter().zip(zeroed) {
            let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), config);
            let reason = bad(learner.run());
            assert!(reason.contains(field), "`{field}` unnamed in: {reason}");
        }

        // A session checks the same bounds when it refines.
        let config = ActiveLearnerConfig {
            max_iterations: 0,
            ..quick_config()
        };
        let mut session = crate::Session::new(&sys, HistoryLearner::default(), config);
        let mut rng = StdRng::seed_from_u64(5);
        session.ingest(
            Simulator::new(&sys)
                .random_traces(3, 5, &mut rng)
                .iter()
                .cloned(),
        );
        assert!(bad(session.refine()).contains("max_iterations"));
    }

    #[test]
    fn run_with_explicit_traces() {
        let sys = cooler();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(5);
        let traces = sim.random_traces(10, 10, &mut rng);
        let mut learner = ActiveLearner::new(&sys, HistoryLearner::default(), quick_config());
        let report = learner.run_with_traces(traces).unwrap();
        assert!(report.trace_count >= 1);
        assert!(report.total_time >= report.learn_time);
    }

    /// Asserts that the grouped splicer reproduces the flat reference on
    /// `iterations`: the same new-trace count for every counterexample, and
    /// trace sets identical observation for observation (content *and*
    /// insertion order).
    fn assert_splicing_differential(initial: &TraceSet, iterations: &[SpliceIteration]) {
        let [(want_counts, want), (got_counts, got)] = splice_both_ways(initial, iterations);
        assert_eq!(got_counts, want_counts, "new-trace counts diverged");
        assert_eq!(
            got.len(),
            want.len(),
            "trace counts diverged after splicing"
        );
        for (got, want) in got.iter().zip(want.iter()) {
            assert_eq!(
                got.observations(),
                want.observations(),
                "spliced traces diverged observation-for-observation"
            );
        }
    }

    /// A condition of some automaton state with the given assumption.
    fn state_condition(assumption: Expr) -> Condition {
        Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption,
            outgoing: vec![Expr::true_()],
        }
    }

    /// Conditions extracted from a model learned on the system's own random
    /// traces, plus concrete counterexample transitions sampled from fresh
    /// simulations — a realistic splicing workload without running the
    /// checker. Each of its two iterations cycles through the conditions
    /// twice, so every assumption recurs interleaved with the others. An
    /// `Initial` and a never-matching (`false`) counterexample sit
    /// mid-sequence. The last counterexample's assumption holds exactly on
    /// the `to` of the first state condition, so some of its qualifying
    /// prefixes are reached only by traces spliced earlier in the iteration.
    fn splicing_workload(system: &System, seed: u64) -> (TraceSet, Vec<SpliceIteration>) {
        let sim = Simulator::new(system);
        let mut rng = StdRng::seed_from_u64(seed);
        let traces = sim.random_traces(10, 8, &mut rng);
        let model = HistoryLearner::default()
            .learn(system.vars(), &system.all_vars(), &traces)
            .unwrap();
        let conditions = extract_conditions(&model, &system.init_expr());
        let initial = conditions[0].clone();
        assert_eq!(initial.kind, ConditionKind::Initial);
        let never = state_condition(Expr::false_());
        let mut step = |i: usize| {
            let probe = sim.random_trace(6, &mut rng);
            let (from, to) = probe.steps().nth(i % 5).expect("probe has 5 steps");
            (from.clone(), to.clone())
        };
        let mut iterations = Vec::new();
        for _ in 0..2 {
            let mut iteration = Vec::new();
            for (i, condition) in conditions.iter().chain(&conditions).enumerate() {
                if i == conditions.len() {
                    for special in [&initial, &never] {
                        let (from, to) = step(i);
                        iteration.push((special.clone(), from, to));
                    }
                }
                let (from, to) = step(i);
                iteration.push((condition.clone(), from, to));
            }
            let (_, _, target) = iteration
                .iter()
                .find(|(c, _, _)| c.kind != ConditionKind::Initial)
                .expect("a state condition");
            let exact = Expr::and_all(system.all_vars().into_iter().map(|v| {
                let sort = system.vars().sort(v);
                system
                    .var(v)
                    .eq(&Expr::constant(sort, target.value(v)).unwrap())
            }));
            let (from, to) = step(0);
            iteration.push((state_condition(exact), from, to));
            iterations.push(iteration);
        }
        assert!(
            conditions.len() >= 3,
            "workload should exercise several conditions"
        );
        (traces, iterations)
    }

    #[test]
    fn store_splicing_matches_reference_on_the_cooler() {
        let system = cooler();
        let (traces, iterations) = splicing_workload(&system, 0xC0);
        assert_splicing_differential(&traces, &iterations);
    }

    #[test]
    fn store_splicing_matches_reference_on_a_synthetic_family() {
        let benchmark = amle_benchmarks::benchmark_by_name("SynthModArithW4M5")
            .expect("the catalogue has SynthModArithW4M5");
        let (traces, iterations) = splicing_workload(&benchmark.system, 0x5E);
        assert_splicing_differential(&traces, &iterations);
    }

    #[test]
    fn duplicate_prefix_splices_are_emitted_once() {
        // Two traces with the same qualifying prefix: the reference path
        // builds both candidates and dedupes on insert; the store path must
        // emit the splice once and report one new trace — and a third trace
        // with a *different* qualifying prefix still yields its own splice.
        let sys = cooler();
        let temp = sys.vars().lookup("inp_temp").unwrap();
        let on = sys.vars().lookup("s_on").unwrap();
        let mk = |t: i64, o: bool| {
            let mut v = sys.initial_valuation();
            v.set(temp, Value::Int(t));
            v.set(on, Value::Bool(o));
            v
        };
        let mut traces = TraceSet::new();
        // Shared prefix [10, 80*] before the first `s_on` observation.
        traces.insert(Trace::new(vec![mk(10, false), mk(80, true), mk(90, true)]));
        traces.insert(Trace::new(vec![mk(10, false), mk(80, true), mk(20, false)]));
        // Different prefix [30] before its first `s_on` observation.
        traces.insert(Trace::new(vec![mk(30, false), mk(95, true)]));

        let condition = state_condition(sys.var(on));
        let from = mk(85, true);
        let to = mk(20, true);

        let mut store = TraceStore::from_trace_set(&traces);
        let inserted = Splicer::default().splice(&mut store, &condition, &from, &to);
        assert_eq!(inserted, 2, "one splice per distinct qualifying prefix");
        assert_eq!(store.len(), traces.len() + 2);

        // And the result matches the reference path exactly.
        assert_splicing_differential(&traces, &[vec![(condition, from, to)]]);
    }

    #[test]
    fn grouped_splices_reach_traces_spliced_earlier_in_the_iteration() {
        let sys = cooler();
        let temp = sys.vars().lookup("inp_temp").unwrap();
        let on = sys.vars().lookup("s_on").unwrap();
        let mk = |t: i64, o: bool| {
            let mut v = sys.initial_valuation();
            v.set(temp, Value::Int(t));
            v.set(on, Value::Bool(o));
            v
        };
        let mut traces = TraceSet::new();
        traces.insert(Trace::new(vec![mk(10, false), mk(80, true)]));
        traces.insert(Trace::new(vec![mk(20, false), mk(30, false)]));

        let hot = state_condition(sys.var(on));
        // Holds only on temperature 99, which no initial trace observes.
        let at_99 = state_condition(sys.var(temp).eq(&Expr::int_val(99, 8)));
        let iteration = vec![
            // No trace reaches `temp = 99` yet: the bare transition.
            (at_99.clone(), mk(50, false), mk(60, false)),
            // Splices onto [10]; the new trace [10, 90, 99] reaches 99.
            (hot.clone(), mk(90, true), mk(99, true)),
            // The `at_99` group extends over the two traces added since its
            // first counterexample and splices onto [10, 90]; its own new
            // trace [10, 90, 40, 99] reaches 99 again.
            (at_99.clone(), mk(40, false), mk(99, false)),
            // So the next `at_99` splice also lands on [10, 90, 40].
            (at_99, mk(41, false), mk(42, false)),
            // The `hot` group extends over every trace since its first
            // counterexample; all of them reach `s_on` after [10].
            (hot, mk(95, true), mk(5, true)),
        ];
        let iterations = [iteration];
        assert_splicing_differential(&traces, &iterations);
        let [_, (counts, _)] = splice_both_ways(&traces, &iterations);
        assert_eq!(counts, vec![1, 1, 1, 2, 1]);
    }

    #[test]
    fn counterexample_trace_splicing() {
        let sys = cooler();
        let temp = sys.vars().lookup("inp_temp").unwrap();
        let on = sys.vars().lookup("s_on").unwrap();
        let mk = |t: i64, o: bool| {
            let mut v = sys.initial_valuation();
            v.set(temp, Value::Int(t));
            v.set(on, Value::Bool(o));
            v
        };
        let mut traces = TraceSet::new();
        traces.insert(Trace::new(vec![mk(10, false), mk(80, false), mk(90, true)]));

        let condition = Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption: sys.var(on),
            outgoing: vec![Expr::true_()],
        };
        let from = mk(85, true);
        let to = mk(20, true);
        let spliced = counterexample_traces(&condition, &from, &to, &traces);
        assert_eq!(spliced.len(), 1);
        // The prefix before the first observation satisfying `s_on` has
        // length 2, so the new trace is v1, v2, from, to.
        assert_eq!(spliced[0].len(), 4);
        assert_eq!(spliced[0].observations()[2], from);
        assert_eq!(spliced[0].observations()[3], to);

        // Initial-condition counterexamples become single-observation traces.
        let initial_condition = Condition {
            kind: ConditionKind::Initial,
            assumption: Expr::true_(),
            outgoing: vec![],
        };
        let spliced = counterexample_traces(&initial_condition, &from, &to, &traces);
        assert_eq!(spliced.len(), 1);
        assert_eq!(spliced[0].len(), 1);

        // With no matching prefix the counterexample still becomes a trace.
        let unmatched = Condition {
            kind: ConditionKind::State {
                state: amle_automaton::StateId::from_index(0),
            },
            assumption: Expr::false_(),
            outgoing: vec![],
        };
        let spliced = counterexample_traces(&unmatched, &from, &to, &traces);
        assert_eq!(spliced.len(), 1);
        assert_eq!(spliced[0].len(), 2);
    }
}
