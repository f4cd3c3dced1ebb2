//! A resident learning session: the batch loop's warm state, kept alive
//! across incremental trace deliveries.
//!
//! The batch [`ActiveLearner`](crate::ActiveLearner) rebuilds every warm
//! structure per invocation — the interned [`TraceStore`], the condition
//! oracle's incremental solver sessions, the cross-iteration verdict cache.
//! All of them already survive across *iterations* in-process; a [`Session`]
//! is the seam that lets them survive across *requests* too, which is what a
//! long-lived trace-ingestion service (see the `amle-serve` crate) needs:
//!
//! * [`Session::ingest`] folds a batch of traces into the shared store
//!   (interned, deduplicated, insertion order preserved);
//! * [`Session::refine`] runs the paper's Fig. 1 refinement loop over the
//!   current store, reusing the warm condition engine (every worker's
//!   oracle and the verdict cache), and returns a [`RunReport`] attributing
//!   exactly this call's work;
//! * [`Session::stats`] exposes the cumulative counters a resident process
//!   wants to watch.
//!
//! **Determinism contract.** A fresh session that ingests trace batches and
//! then refines once produces a [`RunReport::semantic_fingerprint`]
//! byte-identical to [`ActiveLearner::run_with_traces`](crate::ActiveLearner)
//! on the concatenation of those batches — for every worker count, oracle
//! engine and cache setting. The integration tests of `amle-serve` pin this
//! differentially over a TCP boundary.

use crate::engine::{ConditionEngine, VerdictCacheStats};
use crate::learner_loop::{run_refinement, ActiveLearnError, ActiveLearnerConfig};
use crate::report::RunReport;
use amle_checker::CheckerStats;
use amle_expr::VarId;
use amle_learner::ModelLearner;
use amle_system::{System, Trace, TraceStore, TraceStoreStats};

/// Result of folding one trace batch into a session's store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Traces newly inserted into the store.
    pub accepted: usize,
    /// Traces already present (the store deduplicates exact repeats).
    pub duplicates: usize,
}

/// Cumulative counters of a session, for the serving layer's `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Traces delivered through [`Session::ingest`] (including duplicates).
    pub ingested_traces: u64,
    /// Ingested traces rejected as exact duplicates.
    pub duplicate_traces: u64,
    /// Completed [`Session::refine`] calls.
    pub refinements: u64,
    /// Current statistics of the interned trace store.
    pub store: TraceStoreStats,
    /// Verdict-cache counters accumulated across every refinement.
    pub verdict_cache: VerdictCacheStats,
    /// Checker work accumulated across every refinement.
    pub checker: CheckerStats,
}

/// A resident active-learning session over one system.
///
/// The session owns the pieces the batch loop would rebuild per run and
/// keeps them warm:
///
/// * the interned [`TraceStore`] the traces accumulate in;
/// * one condition engine for its whole lifetime, at every worker count:
///   the query planner (verdict cache + failure history) and one
///   [`ConditionOracle`](crate::ConditionOracle) per worker, each with its
///   incremental solver sessions.
///
/// `initial_traces`, `trace_length` and `seed` in the config are ignored:
/// sessions never generate traces, they are fed them.
///
/// # Example
///
/// ```
/// use amle_core::{ActiveLearnerConfig, Session};
/// use amle_expr::{Expr, Sort, Value};
/// use amle_learner::HistoryLearner;
/// use amle_system::{Simulator, SystemBuilder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut b = SystemBuilder::new();
/// let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120)?;
/// let on = b.state("s_on", Sort::Bool, Value::Bool(false))?;
/// let update = b.var(temp).gt(&Expr::int_val(75, 8));
/// b.update(on, update)?;
/// let system = b.build()?;
///
/// let config = ActiveLearnerConfig { k: 4, ..ActiveLearnerConfig::default() };
/// let mut session = Session::new(&system, HistoryLearner::default(), config);
///
/// // Traces arrive in batches, e.g. collected from the running system.
/// let mut rng = StdRng::seed_from_u64(7);
/// let sim = Simulator::new(&system);
/// let batch: Vec<_> = sim.random_traces(10, 10, &mut rng).iter().cloned().collect();
/// session.ingest(batch);
/// let report = session.refine()?;
/// assert!(report.converged);
///
/// // More traces later: the store, oracle and verdict cache stay warm.
/// let more: Vec<_> = sim.random_traces(5, 10, &mut rng).iter().cloned().collect();
/// session.ingest(more);
/// let again = session.refine()?;
/// assert!(again.converged);
/// assert_eq!(session.stats().refinements, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session<'a, L: ModelLearner> {
    system: &'a System,
    learner: L,
    config: ActiveLearnerConfig,
    store: TraceStore,
    engine: ConditionEngine<'a>,
    stats: SessionStats,
}

impl<'a, L: ModelLearner> Session<'a, L> {
    /// Creates an empty session for `system`.
    pub fn new(system: &'a System, learner: L, config: ActiveLearnerConfig) -> Self {
        Session {
            system,
            learner,
            engine: ConditionEngine::new(system, &config),
            config,
            store: TraceStore::new(),
            stats: SessionStats::default(),
        }
    }

    /// The system this session learns.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// The session's configuration.
    pub fn config(&self) -> &ActiveLearnerConfig {
        &self.config
    }

    /// The observable variables of this session's abstraction.
    pub fn observables(&self) -> Vec<VarId> {
        self.config.observables_of(self.system)
    }

    /// The interned store the ingested (and spliced) traces live in.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Number of traces currently in the store.
    pub fn trace_count(&self) -> usize {
        self.store.len()
    }

    /// Folds a batch of traces into the session's store. Exact duplicates
    /// (of earlier batches or within the batch) are deduplicated by the
    /// store; insertion order is first-occurrence order, exactly as
    /// [`TraceStore::from_trace_set`] would produce for the concatenated
    /// batches.
    pub fn ingest<I: IntoIterator<Item = Trace>>(&mut self, traces: I) -> IngestOutcome {
        let mut outcome = IngestOutcome::default();
        for trace in traces {
            if self.store.insert_trace(&trace).is_some() {
                outcome.accepted += 1;
            } else {
                outcome.duplicates += 1;
            }
        }
        self.stats.ingested_traces += (outcome.accepted + outcome.duplicates) as u64;
        self.stats.duplicate_traces += outcome.duplicates as u64;
        outcome
    }

    /// Runs the Fig. 1 refinement loop over the current store: learn a
    /// candidate, check its completeness conditions, splice valid
    /// counterexamples back into the store, repeat until `α = 1` or the
    /// iteration budget runs out.
    ///
    /// The store keeps the spliced traces afterwards, so the next refinement
    /// (after more ingestion) continues from this call's result. The report
    /// attributes only this call's checker and cache work.
    ///
    /// # Errors
    ///
    /// [`ActiveLearnError::BadConfig`] when no traces have been ingested
    /// yet, [`ActiveLearnError::Learner`] when the model-learning component
    /// fails.
    pub fn refine(&mut self) -> Result<RunReport, ActiveLearnError> {
        if self.store.is_empty() {
            return Err(ActiveLearnError::BadConfig {
                reason: "refine requires at least one ingested trace".to_string(),
            });
        }
        let observables = self.observables();
        let report = run_refinement(
            self.system,
            &mut self.learner,
            &observables,
            self.config.max_iterations,
            &mut self.store,
            &mut self.engine,
        )?;
        self.stats.refinements += 1;
        Ok(report)
    }

    /// Cumulative counters of this session.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            store: self.store.stats(),
            verdict_cache: self.engine.cache_stats(),
            checker: self.engine.checker_stats(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActiveLearner, ParallelConfig};
    use amle_expr::{Expr, Sort, Value};
    use amle_learner::HistoryLearner;
    use amle_system::{Simulator, SystemBuilder, TraceSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cooler() -> System {
        let mut b = SystemBuilder::new();
        b.name("HomeClimateControl");
        let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120).unwrap();
        let on = b.state("s_on", Sort::Bool, Value::Bool(false)).unwrap();
        let update = b.var(temp).gt(&Expr::int_val(75, 8));
        b.update(on, update).unwrap();
        b.build().unwrap()
    }

    fn session_config(workers: usize) -> ActiveLearnerConfig {
        ActiveLearnerConfig {
            k: 6,
            max_iterations: 15,
            parallel: ParallelConfig::with_workers(workers),
            ..Default::default()
        }
    }

    fn sample_traces(system: &System, count: usize, length: usize, seed: u64) -> Vec<Trace> {
        let sim = Simulator::new(system);
        let mut rng = StdRng::seed_from_u64(seed);
        sim.random_traces(count, length, &mut rng)
            .iter()
            .cloned()
            .collect()
    }

    /// The session determinism contract: ingest-all-then-refine-once equals
    /// the batch run on the concatenated traces, byte for byte — sequential
    /// and parallel.
    #[test]
    fn first_refinement_matches_batch_run_byte_for_byte() {
        let system = cooler();
        for workers in [1, 4] {
            let traces = sample_traces(&system, 15, 15, 0xA1);
            let mut batch_set = TraceSet::new();
            for t in &traces {
                batch_set.insert(t.clone());
            }
            let batch =
                ActiveLearner::new(&system, HistoryLearner::default(), session_config(workers))
                    .run_with_traces(batch_set)
                    .unwrap();

            let mut session =
                Session::new(&system, HistoryLearner::default(), session_config(workers));
            // Deliver in two batches: the store's first-occurrence order is
            // what makes this equal to the single-set batch path.
            let mid = traces.len() / 2;
            session.ingest(traces[..mid].to_vec());
            session.ingest(traces[mid..].to_vec());
            let report = session.refine().unwrap();

            assert_eq!(
                batch.semantic_fingerprint(system.vars()),
                report.semantic_fingerprint(system.vars()),
                "session refine diverged from batch run with {workers} worker(s)"
            );
            assert_eq!(batch.verdict_cache, report.verdict_cache);
            assert_eq!(
                batch.checker_stats.sat_queries,
                report.checker_stats.sat_queries
            );
            if workers == 1 {
                // With one worker even the solver-internal counters are
                // pinned; solve_time is wall-clock and legitimately jitters.
                // (With more workers, which worker's incremental session
                // answers which condition is scheduling-dependent, so
                // clause/decision counts vary while the merged semantics
                // cannot.)
                let strip_time = |mut stats: CheckerStats| {
                    stats.solver.solve_time = std::time::Duration::ZERO;
                    stats
                };
                assert_eq!(
                    strip_time(batch.checker_stats),
                    strip_time(report.checker_stats)
                );
            }
        }
    }

    #[test]
    fn ingest_deduplicates_and_counts() {
        let system = cooler();
        let mut session = Session::new(&system, HistoryLearner::default(), session_config(1));
        let traces = sample_traces(&system, 5, 8, 9);
        let first = session.ingest(traces.clone());
        assert_eq!(first.accepted + first.duplicates, 5);
        let again = session.ingest(traces);
        assert_eq!(again.accepted, 0, "exact repeats must deduplicate");
        assert_eq!(again.duplicates, 5);
        let stats = session.stats();
        assert_eq!(stats.ingested_traces, 10);
        assert_eq!(stats.duplicate_traces, 5 + first.duplicates as u64);
        assert_eq!(session.trace_count(), first.accepted);
    }

    #[test]
    fn refine_without_traces_is_a_bad_config() {
        let system = cooler();
        let mut session = Session::new(&system, HistoryLearner::default(), session_config(1));
        assert!(matches!(
            session.refine(),
            Err(ActiveLearnError::BadConfig { .. })
        ));
    }

    /// Warm-state reuse: a second refinement re-extracts the same conditions
    /// and must answer them from the persisted verdict cache instead of
    /// re-solving, while per-call attribution keeps each report bounded to
    /// its own work.
    #[test]
    fn second_refinement_hits_the_persisted_verdict_cache() {
        let system = cooler();
        for workers in [1, 4] {
            let mut session =
                Session::new(&system, HistoryLearner::default(), session_config(workers));
            session.ingest(sample_traces(&system, 15, 15, 0xA1));
            let first = session.refine().unwrap();
            assert!(first.converged);
            assert!(first.verdict_cache.misses > 0);

            let second = session.refine().unwrap();
            assert!(second.converged);
            assert_eq!(second.iterations, 1, "already-converged store");
            assert_eq!(
                second.verdict_cache.misses, 0,
                "the converged hypothesis re-extracts cached conditions only"
            );
            assert!(second.verdict_cache.hits > 0);
            assert_eq!(
                second.checker_stats.sat_queries, 0,
                "a fully cached refinement must not touch the solver"
            );

            let stats = session.stats();
            assert_eq!(stats.refinements, 2);
            assert_eq!(
                stats.verdict_cache.hits,
                first.verdict_cache.hits + second.verdict_cache.hits,
                "{workers} worker(s)"
            );
            assert_eq!(
                stats.checker.sat_queries,
                first.checker_stats.sat_queries + second.checker_stats.sat_queries,
                "{workers} worker(s)"
            );
        }
    }

    /// Incremental delivery with interleaved refinements still converges and
    /// keeps the trajectory deterministic across worker counts.
    #[test]
    fn interleaved_ingest_refine_is_deterministic_across_workers() {
        let system = cooler();
        let fingerprints: Vec<String> = [1usize, 4]
            .into_iter()
            .map(|workers| {
                let mut session =
                    Session::new(&system, HistoryLearner::default(), session_config(workers));
                let traces = sample_traces(&system, 12, 12, 0x77);
                let mid = traces.len() / 2;
                session.ingest(traces[..mid].to_vec());
                let _ = session.refine().unwrap();
                session.ingest(traces[mid..].to_vec());
                let report = session.refine().unwrap();
                assert!(report.converged);
                report.semantic_fingerprint(system.vars())
            })
            .collect();
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "worker count leaked into the resident trajectory"
        );
    }
}
