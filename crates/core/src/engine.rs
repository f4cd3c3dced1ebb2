//! The condition-checking engine: a query planner over pluggable condition
//! oracles, with a cross-iteration verdict cache and a failure-history
//! priority order, executing sequentially or over a worker pool.
//!
//! Checking the extracted conditions dominates the wall-clock time of an
//! active-learning iteration. Three observations shape the engine:
//!
//! 1. **Conditions are mutually independent** — each is decided by its own
//!    oracle queries, and the spurious-counterexample re-check loop of a
//!    condition only strengthens that condition's own assumption. The engine
//!    fans conditions out over a pool of [`std::thread::scope`] workers, each
//!    owning a private oracle stack (built by [`amle_checker::build_oracle`])
//!    with its own persistent sessions.
//! 2. **Condition outcomes are pure functions of the condition.** Thanks to
//!    canonical counterexamples, the full outcome of evaluating a condition —
//!    verdict, counterexample transition, spurious rounds — depends only on
//!    `(assumption, conclusion, kind, system, k, max_spurious_rounds)`. On
//!    stable stretches of the learning loop most hypotheses change only
//!    locally, so most extracted conditions are *semantically identical* to
//!    ones already decided. The **verdict cache** keys outcomes by the
//!    semantic content `(initial?, assumption, conclusion)` — the hypothesis
//!    automaton restricted to the condition — and replays them across
//!    iterations without touching a solver. Keying by semantics is also the
//!    invalidation rule: an alphabet or abstraction change rewrites the
//!    predicates, producing different keys, so exactly the affected
//!    conditions miss while untouched ones keep hitting; spliced traces
//!    never invalidate anything because trace content does not enter the
//!    outcome at all.
//! 3. **Past failures predict future failures.** A refined state keeps its
//!    incoming predicate while its outgoing set grows, so a condition whose
//!    *assumption* produced counterexamples before is the best candidate to
//!    fail again. The planner orders pending work by per-assumption failure
//!    counts (ties broken by condition index), so likely-failing conditions
//!    surface counterexamples first and the worker pool spends its early
//!    slots where refinement progress is made.
//!
//! **Determinism guarantee.** The merged [`ConditionEvaluation`] is
//! byte-identical for every worker count (including 1), every oracle engine
//! and cache on/off:
//!
//! * verdicts are satisfiability results and counterexample models are
//!   canonicalised, so each condition's outcome is a pure function of the
//!   condition and the system — across engines too (see `amle-checker`);
//! * cached outcomes are exactly the outcomes the oracle would recompute;
//! * workers pull work items from a shared queue (dynamic load balancing),
//!   and results are merged back **in condition order**, so neither
//!   scheduling, priority order nor completion order can leak into the
//!   report.

use crate::conditions::{Condition, ConditionKind};
use amle_checker::{
    build_oracle, CheckResult, CheckerStats, ConditionOracle, OracleKind, SpuriousResult,
};
use amle_expr::{Expr, Valuation, VarId, VarSet};
use amle_system::System;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// Parallelism configuration of the condition-checking engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of condition-checking workers. `1` checks conditions on the
    /// calling thread; `n > 1` spawns `n` scoped workers, each with its own
    /// persistent checker sessions.
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { workers: 1 }
    }
}

impl ParallelConfig {
    /// A configuration with the given worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
        }
    }

    /// Reads the worker count from the `AMLE_WORKERS` environment variable:
    /// unset (or empty) means 1 (sequential), `0` is clamped to 1, and a
    /// value that does not parse as an unsigned integer falls back to 1 with
    /// a one-time warning — a typo in a CI matrix or a service unit must not
    /// silently evaporate the intended parallel coverage.
    pub fn from_env() -> Self {
        Self::with_workers(Self::workers_from_env_value(
            std::env::var("AMLE_WORKERS").ok().as_deref(),
        ))
    }

    /// The pure parsing rule behind [`ParallelConfig::from_env`], factored
    /// out so tests can pin it without mutating the process environment.
    fn workers_from_env_value(value: Option<&str>) -> usize {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        let Some(raw) = value else { return 1 };
        let raw = raw.trim();
        if raw.is_empty() {
            return 1;
        }
        match raw.parse::<usize>() {
            // `with_workers` clamps again, but clamping here keeps the rule
            // self-contained: 0 is "sequential", never "no workers".
            Ok(n) => n.max(1),
            Err(_) => {
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "AMLE_WORKERS=`{raw}` is not a worker count; \
                         using 1 (sequential)"
                    )
                });
                1
            }
        }
    }
}

/// Which oracle stack answers the loop's queries and how the planner treats
/// repeated conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// The condition-oracle engine (see [`OracleKind`]).
    pub engine: OracleKind,
    /// Whether the cross-iteration verdict cache is consulted. Reports are
    /// byte-identical either way; the cache only skips re-solving.
    pub verdict_cache: bool,
    /// Cross-validation mode: explicitly-routed queries are also answered
    /// by k-induction and the results asserted equal.
    pub cross_validate: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            engine: OracleKind::default(),
            verdict_cache: true,
            cross_validate: false,
        }
    }
}

/// Aggregate statistics of the cross-iteration verdict cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCacheStats {
    /// Conditions answered from the cache without touching an oracle.
    pub hits: u64,
    /// Conditions that had to be solved (and were then recorded).
    pub misses: u64,
    /// Distinct semantic keys live in the cache at the end of the run.
    pub entries: u64,
}

/// Outcome of checking the full condition set of one candidate model.
#[derive(Debug, Clone)]
pub(crate) struct ConditionEvaluation {
    pub total: usize,
    pub held: usize,
    /// Valid counterexamples: the violated condition together with the
    /// offending transition, in condition order.
    pub counterexamples: Vec<(Condition, Valuation, Valuation)>,
    pub spurious: usize,
    pub inconclusive: usize,
    /// Conditions answered by the verdict cache this evaluation.
    pub cache_hits: usize,
    /// Conditions actually solved by an oracle this evaluation.
    pub solved: usize,
}

impl ConditionEvaluation {
    pub fn alpha(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.held as f64 / self.total as f64
        }
    }
}

/// The result of fully evaluating a single condition, including its
/// spurious-counterexample re-check rounds.
#[derive(Debug, Clone)]
pub(crate) enum ConditionOutcome {
    /// The condition was proven to hold.
    Held,
    /// A valid (or inconclusive, treated-as-valid) counterexample was found
    /// after `spurious` blocked rounds.
    Counterexample {
        from: Valuation,
        to: Valuation,
        spurious: usize,
        inconclusive: bool,
    },
    /// Every counterexample within the round budget was spurious; the
    /// condition is not shown to hold but produces no new trace.
    Exhausted { spurious: usize },
}

/// Checks one condition against the system, classifying counterexamples as in
/// Section III-B/III-C of the paper. This is the unit of work the engine
/// distributes; thanks to canonical counterexample extraction its result is a
/// pure function of `(condition, system, k, max_spurious_rounds)` — for every
/// oracle engine.
pub(crate) fn evaluate_one_condition(
    oracle: &mut (impl ConditionOracle + ?Sized),
    vars: &VarSet,
    condition: &Condition,
    observables: &[VarId],
    k: usize,
    max_spurious_rounds: usize,
) -> ConditionOutcome {
    let mut blocked = Vec::new();
    let mut spurious = 0;
    loop {
        let result = oracle.check_condition(&condition.assumption, &blocked, &condition.outgoing);
        match result {
            CheckResult::Valid => return ConditionOutcome::Held,
            CheckResult::Violated { from, to } => {
                if condition.kind == ConditionKind::Initial {
                    // Counterexamples to condition (1) start in an Init state
                    // and are always valid.
                    return ConditionOutcome::Counterexample {
                        from,
                        to,
                        spurious,
                        inconclusive: false,
                    };
                }
                let state_formula = amle_checker::state_formula(vars, &from, observables);
                match oracle.check_spurious(&state_formula, k) {
                    SpuriousResult::Spurious => {
                        spurious += 1;
                        blocked.push(state_formula);
                        if spurious >= max_spurious_rounds {
                            return ConditionOutcome::Exhausted { spurious };
                        }
                    }
                    SpuriousResult::Reachable => {
                        return ConditionOutcome::Counterexample {
                            from,
                            to,
                            spurious,
                            inconclusive: false,
                        };
                    }
                    SpuriousResult::Inconclusive => {
                        return ConditionOutcome::Counterexample {
                            from,
                            to,
                            spurious,
                            inconclusive: true,
                        };
                    }
                }
            }
        }
    }
}

/// Folds per-condition outcomes (in condition order) into the aggregate
/// evaluation. This is the deterministic merge point of the engine.
pub(crate) fn merge_outcomes(
    conditions: &[Condition],
    outcomes: Vec<ConditionOutcome>,
) -> ConditionEvaluation {
    debug_assert_eq!(conditions.len(), outcomes.len());
    let mut evaluation = ConditionEvaluation {
        total: conditions.len(),
        held: 0,
        counterexamples: Vec::new(),
        spurious: 0,
        inconclusive: 0,
        cache_hits: 0,
        solved: conditions.len(),
    };
    for (condition, outcome) in conditions.iter().zip(outcomes) {
        match outcome {
            ConditionOutcome::Held => evaluation.held += 1,
            ConditionOutcome::Counterexample {
                from,
                to,
                spurious,
                inconclusive,
            } => {
                evaluation.spurious += spurious;
                if inconclusive {
                    evaluation.inconclusive += 1;
                }
                evaluation
                    .counterexamples
                    .push((condition.clone(), from, to));
            }
            ConditionOutcome::Exhausted { spurious } => evaluation.spurious += spurious,
        }
    }
    evaluation
}

/// Checks every extracted condition sequentially on the given oracle,
/// without planning or caching.
///
/// Shared by the random-sampling baseline's α measurement and the planner
/// tests.
pub(crate) fn evaluate_conditions(
    oracle: &mut (impl ConditionOracle + ?Sized),
    vars: &VarSet,
    conditions: &[Condition],
    observables: &[VarId],
    k: usize,
    max_spurious_rounds: usize,
) -> ConditionEvaluation {
    let outcomes = conditions
        .iter()
        .map(|c| evaluate_one_condition(oracle, vars, c, observables, k, max_spurious_rounds))
        .collect();
    merge_outcomes(conditions, outcomes)
}

/// The semantic identity of a condition: the hypothesis automaton restricted
/// to the condition (incoming assumption + disjunction of outgoing
/// predicates) plus the condition shape. Together with the per-run constants
/// (system, `k`, `max_spurious_rounds`) this determines the full outcome, so
/// it is the verdict-cache key. Notably the automaton *state id* is absent:
/// two states with the same predicates share an outcome, and a state that
/// keeps its id but changes predicates gets a fresh key.
///
/// The key predicates are **canonicalised** ([`Expr::canonical`]): a
/// refined hypothesis frequently rebuilds the same predicate in a different
/// shape — outgoing disjunctions reassembled in another order, a duplicated
/// disjunct, a constant-true guard threaded through — and every such
/// variant decides identically (condition outcomes are pure functions of
/// the predicates' *semantics*; counterexamples are canonicalised by the
/// oracles). Canonical keys let those re-shaped conditions hit the verdict
/// cache across iterations instead of re-solving. Equality and hashing on
/// the interned canonical forms are O(1), so planning cost per condition is
/// a couple of integer probes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConditionKey {
    initial: bool,
    assumption: Expr,
    conclusion: Expr,
}

impl ConditionKey {
    fn of(condition: &Condition) -> ConditionKey {
        ConditionKey {
            initial: condition.kind == ConditionKind::Initial,
            assumption: condition.assumption.canonical(),
            conclusion: condition.conclusion().canonical(),
        }
    }
}

/// The failure-history key: per-assumption, deliberately coarser than the
/// cache key. Refinement grows a state's *outgoing* set while keeping its
/// incoming predicate, so the assumption is the stable part that predicts
/// repeated failure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FailureKey {
    initial: bool,
    assumption: Expr,
}

/// The work plan for one condition set: cache hits pre-filled, misses listed
/// in solving order.
struct PlannedWork {
    /// One slot per condition, hits already filled.
    outcomes: Vec<Option<ConditionOutcome>>,
    /// `(condition index, cache key)` of every miss, most-likely-failing
    /// first (per-assumption failure count, ties by index).
    pending: Vec<(usize, ConditionKey)>,
    /// In-batch duplicates, keyed by the primary pending index: these slots
    /// receive a clone of the primary's outcome instead of being solved.
    duplicates: HashMap<usize, Vec<usize>>,
    /// Number of slots answered without solving (cache hits + in-batch
    /// duplicates).
    cache_hits: usize,
}

impl PlannedWork {
    /// Fills the slot of a solved primary plus all its in-batch duplicates.
    fn resolve(&mut self, index: usize, outcome: ConditionOutcome) {
        if let Some(dups) = self.duplicates.remove(&index) {
            for dup in dups {
                self.outcomes[dup] = Some(outcome.clone());
            }
        }
        self.outcomes[index] = Some(outcome);
    }
}

/// The query planner: consults and maintains the verdict cache and the
/// failure history. Lives on the merge side of the engine (never inside a
/// worker), so its state evolves deterministically in condition order.
pub(crate) struct QueryPlanner {
    /// `None` when the cache is disabled; the failure history stays active
    /// either way.
    cache: Option<HashMap<ConditionKey, ConditionOutcome>>,
    failures: HashMap<FailureKey, u64>,
    hits: u64,
    misses: u64,
}

impl QueryPlanner {
    pub fn new(cache_enabled: bool) -> QueryPlanner {
        QueryPlanner {
            cache: cache_enabled.then(HashMap::new),
            failures: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn plan(&mut self, conditions: &[Condition]) -> PlannedWork {
        let mut outcomes: Vec<Option<ConditionOutcome>> = vec![None; conditions.len()];
        // (failure count, index, key) so the priority sort compares plain
        // integers instead of re-hashing expression trees per comparison.
        let mut pending: Vec<(u64, usize, ConditionKey)> = Vec::new();
        // First occurrence of each semantic key within this batch: later
        // duplicates are not solved again, they share the primary's outcome
        // (and count as hits — they are served by the entry the primary is
        // about to record). Only active alongside the cache: with caching
        // disabled every condition is genuinely solved.
        let mut planned: HashMap<ConditionKey, usize> = HashMap::new();
        let mut duplicates: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut cache_hits = 0;
        for (index, condition) in conditions.iter().enumerate() {
            let key = ConditionKey::of(condition);
            if let Some(cache) = &self.cache {
                if let Some(outcome) = cache.get(&key) {
                    outcomes[index] = Some(outcome.clone());
                    cache_hits += 1;
                    self.hits += 1;
                    continue;
                }
                if let Some(&primary) = planned.get(&key) {
                    duplicates.entry(primary).or_default().push(index);
                    cache_hits += 1;
                    self.hits += 1;
                    continue;
                }
                self.misses += 1;
                planned.insert(key.clone(), index);
            }
            let failures = self.failure_count(&key);
            pending.push((failures, index, key));
        }
        pending.sort_by(|(fa, ia, _), (fb, ib, _)| fb.cmp(fa).then(ia.cmp(ib)));
        PlannedWork {
            outcomes,
            pending: pending.into_iter().map(|(_, i, k)| (i, k)).collect(),
            duplicates,
            cache_hits,
        }
    }

    fn failure_count(&self, key: &ConditionKey) -> u64 {
        let key = FailureKey {
            initial: key.initial,
            assumption: key.assumption.clone(),
        };
        self.failures.get(&key).copied().unwrap_or(0)
    }

    /// Records a freshly solved outcome: into the cache under its semantic
    /// key, and into the failure history when it produced a counterexample.
    fn record(&mut self, key: ConditionKey, outcome: &ConditionOutcome) {
        if matches!(outcome, ConditionOutcome::Counterexample { .. }) {
            let fkey = FailureKey {
                initial: key.initial,
                assumption: key.assumption.clone(),
            };
            *self.failures.entry(fkey).or_insert(0) += 1;
        }
        if let Some(cache) = &mut self.cache {
            cache.insert(key, outcome.clone());
        }
    }

    pub fn stats(&self) -> VerdictCacheStats {
        VerdictCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.cache.as_ref().map_or(0, |c| c.len() as u64),
        }
    }
}

/// Completes a plan whose every slot has been filled.
fn finish_evaluation(conditions: &[Condition], plan: PlannedWork) -> ConditionEvaluation {
    let cache_hits = plan.cache_hits;
    let outcomes: Vec<ConditionOutcome> = plan
        .outcomes
        .into_iter()
        .map(|o| o.expect("every condition produced an outcome"))
        .collect();
    let mut evaluation = merge_outcomes(conditions, outcomes);
    evaluation.cache_hits = cache_hits;
    evaluation.solved = conditions.len() - cache_hits;
    evaluation
}

/// Statistics surrendered by an engine at the end of a run.
pub(crate) struct EngineStats {
    pub checker: CheckerStats,
    pub cache: VerdictCacheStats,
}

/// A condition-checking engine usable by the active-learning loop: evaluates
/// whole condition sets and surrenders its accumulated statistics at the end
/// of the run.
pub(crate) trait ConditionEngine {
    fn evaluate(&mut self, conditions: &[Condition]) -> ConditionEvaluation;
    fn finish(self) -> EngineStats;
}

/// The sequential engine: one oracle stack on the calling thread plus the
/// planner — the paper's Fig. 1 behaviour with cached verdicts.
///
/// Both the oracle and the planner are **borrowed**, not owned: the caller
/// decides their lifetime. A batch run builds both fresh and drops them with
/// the report; a resident [`crate::Session`] keeps the same warm oracle
/// (incremental solver sessions intact) and the same verdict cache across
/// many refinement calls.
pub(crate) struct SequentialEngine<'o, 'a> {
    system: &'a System,
    oracle: &'o mut (dyn ConditionOracle + 'a),
    planner: &'o mut QueryPlanner,
    observables: Vec<VarId>,
    k: usize,
    max_spurious_rounds: usize,
}

impl<'o, 'a> SequentialEngine<'o, 'a> {
    pub fn new(
        system: &'a System,
        oracle: &'o mut (dyn ConditionOracle + 'a),
        planner: &'o mut QueryPlanner,
        observables: Vec<VarId>,
        k: usize,
        max_spurious_rounds: usize,
    ) -> Self {
        SequentialEngine {
            system,
            oracle,
            planner,
            observables,
            k,
            max_spurious_rounds,
        }
    }
}

impl ConditionEngine for SequentialEngine<'_, '_> {
    fn evaluate(&mut self, conditions: &[Condition]) -> ConditionEvaluation {
        let mut plan = self.planner.plan(conditions);
        for (index, key) in std::mem::take(&mut plan.pending) {
            let outcome = evaluate_one_condition(
                &mut *self.oracle,
                self.system.vars(),
                &conditions[index],
                &self.observables,
                self.k,
                self.max_spurious_rounds,
            );
            self.planner.record(key, &outcome);
            plan.resolve(index, outcome);
        }
        finish_evaluation(conditions, plan)
    }

    fn finish(self) -> EngineStats {
        EngineStats {
            checker: self.oracle.stats(),
            cache: self.planner.stats(),
        }
    }
}

/// One unit of work: the condition's position in the extracted set plus the
/// condition itself.
type WorkItem = (usize, Condition);

/// A message from a worker to the merge loop.
enum PoolMessage {
    /// One condition's outcome, tagged with its position.
    Outcome(usize, ConditionOutcome),
    /// The sending worker is unwinding from a panic.
    Panicked,
}

/// Sends [`PoolMessage::Panicked`] when dropped during a panic unwind, so a
/// dying worker fails the run loudly: without this, the merge loop would
/// block forever on a result that will never arrive (the surviving workers
/// keep the result channel open).
struct PanicNotifier {
    result_tx: mpsc::Sender<PoolMessage>,
}

impl Drop for PanicNotifier {
    fn drop(&mut self) {
        if thread::panicking() {
            let _ = self.result_tx.send(PoolMessage::Panicked);
        }
    }
}

/// The parallel engine: a pool of scoped worker threads, each owning its own
/// oracle stack with persistent sessions that survive across iterations.
/// Work items are pulled from a shared queue in planner priority order; the
/// planner itself (cache + failure history) lives on the merge side, so its
/// state evolves identically for every worker count.
pub(crate) struct WorkerPool<'scope, 'p> {
    work_tx: Option<mpsc::Sender<WorkItem>>,
    result_rx: mpsc::Receiver<PoolMessage>,
    handles: Vec<thread::ScopedJoinHandle<'scope, CheckerStats>>,
    planner: &'p mut QueryPlanner,
}

impl<'scope, 'p> WorkerPool<'scope, 'p> {
    /// Spawns `workers` threads on `scope`, each building its own oracle
    /// stack for `system`. The planner is borrowed from the caller so the
    /// verdict cache can outlive the pool (worker oracles are rebuilt per
    /// refinement inside their `thread::scope`, but cached verdicts — living
    /// on the merge side — persist).
    #[allow(clippy::too_many_arguments)] // internal seam; callers are the two refine paths
    pub fn spawn<'env: 'scope>(
        scope: &'scope thread::Scope<'scope, 'env>,
        system: &'env System,
        observables: Vec<VarId>,
        workers: usize,
        k: usize,
        max_spurious_rounds: usize,
        oracle: &OracleConfig,
        planner: &'p mut QueryPlanner,
    ) -> Self {
        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (result_tx, result_rx) = mpsc::channel();
        let (engine, cross_validate) = (oracle.engine, oracle.cross_validate);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let work_rx = Arc::clone(&work_rx);
            let result_tx = result_tx.clone();
            let observables = observables.clone();
            handles.push(scope.spawn(move || {
                let _notifier = PanicNotifier {
                    result_tx: result_tx.clone(),
                };
                let mut oracle = build_oracle(system, engine, cross_validate);
                let vars = system.vars();
                loop {
                    // Hold the queue lock only for the dequeue itself; the
                    // expensive solving below runs unlocked.
                    let item = match work_rx.lock().expect("queue lock poisoned").recv() {
                        Ok(item) => item,
                        Err(_) => break,
                    };
                    let (index, condition) = item;
                    let outcome = evaluate_one_condition(
                        &mut *oracle,
                        vars,
                        &condition,
                        &observables,
                        k,
                        max_spurious_rounds,
                    );
                    if result_tx
                        .send(PoolMessage::Outcome(index, outcome))
                        .is_err()
                    {
                        break;
                    }
                }
                oracle.stats()
            }));
        }
        WorkerPool {
            work_tx: Some(work_tx),
            result_rx,
            handles,
            planner,
        }
    }
}

impl ConditionEngine for WorkerPool<'_, '_> {
    fn evaluate(&mut self, conditions: &[Condition]) -> ConditionEvaluation {
        let mut plan = self.planner.plan(conditions);
        let pending = std::mem::take(&mut plan.pending);
        let work_tx = self.work_tx.as_ref().expect("pool already finished");
        for (index, _) in &pending {
            work_tx
                .send((*index, conditions[*index].clone()))
                .expect("a worker thread panicked");
        }
        let mut keys: HashMap<usize, ConditionKey> = pending.into_iter().collect();
        for _ in 0..keys.len() {
            match self
                .result_rx
                .recv()
                .expect("every condition-checking worker exited before finishing its work")
            {
                PoolMessage::Outcome(index, outcome) => {
                    let key = keys.remove(&index).expect("outcome for an unplanned index");
                    self.planner.record(key, &outcome);
                    plan.resolve(index, outcome);
                }
                PoolMessage::Panicked => {
                    panic!("a condition-checking worker panicked; aborting the run")
                }
            }
        }
        finish_evaluation(conditions, plan)
    }

    fn finish(mut self) -> EngineStats {
        // Closing the queue lets every worker drain out and return its stats.
        drop(self.work_tx.take());
        let mut total = CheckerStats::default();
        for handle in self.handles {
            total += handle.join().expect("worker thread panicked");
        }
        EngineStats {
            checker: total,
            cache: self.planner.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_automaton::StateId;
    use amle_expr::{Expr, Sort, Value};
    use amle_system::SystemBuilder;

    fn toggle_system() -> System {
        let mut b = SystemBuilder::new();
        let tick = b.input("tick", Sort::Bool).unwrap();
        let s = b.state("s", Sort::Bool, Value::Bool(false)).unwrap();
        let next = b.var(tick);
        b.update(s, next).unwrap();
        b.build().unwrap()
    }

    fn state_condition(state_index: usize, assumption: Expr, outgoing: Vec<Expr>) -> Condition {
        Condition {
            kind: ConditionKind::State {
                state: StateId::from_index(state_index),
            },
            assumption,
            outgoing,
        }
    }

    /// The owned halves a [`SequentialEngine`] borrows — what a batch run
    /// builds fresh and a resident session keeps warm.
    fn engine_parts<'a>(
        system: &'a System,
        config: &OracleConfig,
    ) -> (Box<dyn ConditionOracle + 'a>, QueryPlanner) {
        (
            build_oracle(system, config.engine, config.cross_validate),
            QueryPlanner::new(config.verdict_cache),
        )
    }

    #[test]
    #[should_panic(expected = "condition-checking worker panicked")]
    fn a_panicking_worker_fails_the_run_instead_of_hanging() {
        // k = 0 trips the checker's bound assertion on the first violated
        // non-initial condition, panicking inside a worker. The merge loop
        // must surface that as a panic of its own, not block forever waiting
        // for an outcome that will never arrive.
        let system = toggle_system();
        let condition = state_condition(0, Expr::true_(), vec![Expr::false_()]);
        let mut planner = QueryPlanner::new(true);
        thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(
                scope,
                &system,
                system.all_vars(),
                2,
                0,
                10,
                &OracleConfig::default(),
                &mut planner,
            );
            let _ = pool.evaluate(std::slice::from_ref(&condition));
        });
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(ParallelConfig::default().workers, 1);
        assert_eq!(ParallelConfig::with_workers(0).workers, 1);
        assert_eq!(ParallelConfig::with_workers(8).workers, 8);
    }

    /// The `AMLE_WORKERS` parsing rule, pinned without touching the process
    /// environment: unset/empty → sequential, `0` clamps to 1 (never "no
    /// workers"), garbage falls back to 1 (with a one-time warning) instead
    /// of silently dropping the intended parallelism to a panic or to 0.
    #[test]
    fn workers_env_value_clamps_and_defaults() {
        assert_eq!(ParallelConfig::workers_from_env_value(None), 1);
        assert_eq!(ParallelConfig::workers_from_env_value(Some("")), 1);
        assert_eq!(ParallelConfig::workers_from_env_value(Some("  ")), 1);
        assert_eq!(ParallelConfig::workers_from_env_value(Some(" 7 ")), 7);
        assert_eq!(
            ParallelConfig::workers_from_env_value(Some("0")),
            1,
            "0 must clamp to sequential, not zero workers"
        );
        assert_eq!(ParallelConfig::workers_from_env_value(Some("four")), 1);
        assert_eq!(ParallelConfig::workers_from_env_value(Some("-3")), 1);
        assert_eq!(ParallelConfig::workers_from_env_value(Some("3.5")), 1);
    }

    #[test]
    fn from_env_parses_and_defaults() {
        // Sequential when unset; the CI matrix sets AMLE_WORKERS explicitly,
        // in which case the parsed value must flow through.
        let parsed = ParallelConfig::from_env();
        match std::env::var("AMLE_WORKERS") {
            Ok(v) => assert_eq!(
                parsed.workers,
                v.trim().parse::<usize>().unwrap_or(1).max(1)
            ),
            Err(_) => assert_eq!(parsed.workers, 1),
        }
    }

    /// The stale-cache regression pin (a cache keyed by automaton state id or
    /// by condition index — the natural bug — fails this test): across two
    /// "iterations" the condition at the *same* state id and the same
    /// position changes its predicates from an always-holding conclusion to a
    /// falsifiable one. The planner must re-solve it (a semantic miss) and
    /// report the violation, while the genuinely unchanged condition hits.
    #[test]
    fn changed_predicates_flush_exactly_the_affected_entries() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let (mut oracle, mut planner) = engine_parts(&system, &OracleConfig::default());
        let mut engine = SequentialEngine::new(
            &system,
            &mut *oracle,
            &mut planner,
            system.all_vars(),
            4,
            10,
        );

        // Iteration 1: both conditions hold.
        let unchanged = state_condition(0, se.clone(), vec![Expr::true_()]);
        let mutated_v1 = state_condition(1, se.not(), vec![Expr::true_()]);
        let first = engine.evaluate(&[unchanged.clone(), mutated_v1]);
        assert_eq!(first.held, 2);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.solved, 2);

        // Iteration 2: state 1 keeps its id and position but its outgoing
        // set changed to something falsifiable ("after a step, s never
        // holds" is violated by tick = true).
        let mutated_v2 = state_condition(1, se.not(), vec![se.not()]);
        let second = engine.evaluate(&[unchanged, mutated_v2]);
        assert_eq!(second.cache_hits, 1, "the unchanged condition must hit");
        assert_eq!(second.solved, 1, "the mutated condition must re-solve");
        assert_eq!(
            second.counterexamples.len(),
            1,
            "a stale verdict would mask the violation"
        );
        assert_eq!(second.held, 1);

        let stats = engine.finish();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 3);
        assert_eq!(stats.cache.entries, 3);
    }

    /// The canonical-key pin of the interner PR: conditions whose predicates
    /// are semantically identical but *syntactically different* — the same
    /// assumption threaded through a redundant `&& true`, the same outgoing
    /// set disjoined in a different order with a duplicated disjunct — must
    /// collapse onto one verdict-cache key and replay instead of re-solving.
    /// (Keys built on the raw expressions — the pre-canonicalisation
    /// behaviour — miss here.)
    #[test]
    fn syntactically_reshaped_conditions_hit_the_cache() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let (mut oracle, mut planner) = engine_parts(&system, &OracleConfig::default());
        let mut engine = SequentialEngine::new(
            &system,
            &mut *oracle,
            &mut planner,
            system.all_vars(),
            4,
            10,
        );

        let original = state_condition(0, se.clone(), vec![se.clone(), se.not()]);
        let first = engine.evaluate(std::slice::from_ref(&original));
        assert_eq!((first.cache_hits, first.solved), (0, 1));

        // The refinement-loop motif: same semantics, different shape, and a
        // different state id for good measure.
        let reshaped = state_condition(
            7,
            Expr::true_().and(&se),
            vec![se.not(), se.clone(), se.not()],
        );
        assert_ne!(original.assumption, reshaped.assumption);
        assert_ne!(original.conclusion(), reshaped.conclusion());
        let second = engine.evaluate(std::slice::from_ref(&reshaped));
        assert_eq!(
            second.cache_hits, 1,
            "canonical keys must merge the variants"
        );
        assert_eq!(second.solved, 0);
        assert_eq!(second.held, first.held);

        let stats = engine.finish();
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
        assert_eq!(stats.cache.entries, 1);
    }

    /// Semantic keying also *merges*: a condition re-extracted under a
    /// different state id with identical predicates is the same query and
    /// must hit.
    #[test]
    fn state_ids_do_not_enter_the_cache_key() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let (mut oracle, mut planner) = engine_parts(&system, &OracleConfig::default());
        let mut engine = SequentialEngine::new(
            &system,
            &mut *oracle,
            &mut planner,
            system.all_vars(),
            4,
            10,
        );
        let at_state_0 = state_condition(0, se.clone(), vec![Expr::true_()]);
        let at_state_7 = state_condition(7, se, vec![Expr::true_()]);
        let first = engine.evaluate(std::slice::from_ref(&at_state_0));
        assert_eq!(first.solved, 1);
        let second = engine.evaluate(std::slice::from_ref(&at_state_7));
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.solved, 0);
    }

    /// Cache on and cache off must produce identical evaluations (the cache
    /// only skips work); the oracle must not be consulted again on a hit.
    #[test]
    fn cached_evaluations_match_uncached_and_skip_the_oracle() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let conditions = vec![
            state_condition(0, Expr::true_(), vec![se.clone(), se.not()]),
            state_condition(1, se.clone(), vec![se.not()]),
        ];

        let (mut cached_oracle, mut cached_planner) =
            engine_parts(&system, &OracleConfig::default());
        let mut cached = SequentialEngine::new(
            &system,
            &mut *cached_oracle,
            &mut cached_planner,
            system.all_vars(),
            4,
            10,
        );
        let uncached_config = OracleConfig {
            verdict_cache: false,
            ..OracleConfig::default()
        };
        let (mut uncached_oracle, mut uncached_planner) = engine_parts(&system, &uncached_config);
        let mut uncached = SequentialEngine::new(
            &system,
            &mut *uncached_oracle,
            &mut uncached_planner,
            system.all_vars(),
            4,
            10,
        );

        for round in 0..3 {
            let a = cached.evaluate(&conditions);
            let b = uncached.evaluate(&conditions);
            assert_eq!(a.held, b.held, "round {round}");
            assert_eq!(a.spurious, b.spurious);
            assert_eq!(a.inconclusive, b.inconclusive);
            assert_eq!(a.counterexamples.len(), b.counterexamples.len());
            for ((ca, fa, ta), (cb, fb, tb)) in a.counterexamples.iter().zip(&b.counterexamples) {
                assert_eq!(ca, cb);
                assert_eq!(fa, fb);
                assert_eq!(ta, tb);
            }
            if round > 0 {
                assert_eq!(a.cache_hits, conditions.len());
                assert_eq!(b.cache_hits, 0);
            }
        }
        let cached_stats = cached.finish();
        let uncached_stats = uncached.finish();
        // After the first round every cached evaluation is free.
        assert_eq!(cached_stats.cache.hits, 2 * conditions.len() as u64);
        assert_eq!(uncached_stats.cache.hits, 0);
        assert_eq!(uncached_stats.cache.entries, 0);
        assert!(
            cached_stats.checker.sat_queries < uncached_stats.checker.sat_queries,
            "the cache must actually skip solver work"
        );
    }

    /// Semantically identical conditions within one batch are solved once:
    /// the duplicates share the primary's outcome and count as hits. With
    /// the cache disabled every condition is genuinely solved.
    #[test]
    fn in_batch_duplicates_are_solved_once_with_the_cache_on() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let batch = vec![
            state_condition(0, se.clone(), vec![Expr::true_()]),
            state_condition(1, se.clone(), vec![Expr::true_()]),
            state_condition(2, se.clone(), vec![Expr::true_()]),
        ];
        let (mut cached_oracle, mut cached_planner) =
            engine_parts(&system, &OracleConfig::default());
        let mut cached = SequentialEngine::new(
            &system,
            &mut *cached_oracle,
            &mut cached_planner,
            system.all_vars(),
            4,
            10,
        );
        let evaluation = cached.evaluate(&batch);
        assert_eq!(evaluation.held, 3, "duplicates must still get an outcome");
        assert_eq!(evaluation.solved, 1);
        assert_eq!(evaluation.cache_hits, 2);
        let stats = cached.finish();
        assert_eq!(stats.checker.condition_checks, 1);
        assert_eq!((stats.cache.hits, stats.cache.misses), (2, 1));

        let uncached_config = OracleConfig {
            verdict_cache: false,
            ..OracleConfig::default()
        };
        let (mut uncached_oracle, mut uncached_planner) = engine_parts(&system, &uncached_config);
        let mut uncached = SequentialEngine::new(
            &system,
            &mut *uncached_oracle,
            &mut uncached_planner,
            system.all_vars(),
            4,
            10,
        );
        let evaluation = uncached.evaluate(&batch);
        assert_eq!(evaluation.held, 3);
        assert_eq!(evaluation.solved, 3);
        assert_eq!(uncached.finish().checker.condition_checks, 3);
    }

    /// The failure history orders pending work: an assumption that produced
    /// counterexamples before is solved first even from a later position,
    /// and the coarser key survives a changed conclusion.
    #[test]
    fn failure_history_prioritises_likely_failing_assumptions() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let mut planner = QueryPlanner::new(true);

        let failing = state_condition(3, se.clone(), vec![se.not()]);
        let key = ConditionKey::of(&failing);
        planner.record(
            key,
            &ConditionOutcome::Counterexample {
                from: Valuation::zeroed(system.vars()),
                to: Valuation::zeroed(system.vars()),
                spurious: 0,
                inconclusive: false,
            },
        );

        // Same assumption, *different* conclusion (the refinement case) at a
        // late position; two fresh conditions ahead of it.
        let refined = state_condition(3, se.clone(), vec![se.not(), se.clone()]);
        let fresh_a = state_condition(0, Expr::true_(), vec![Expr::true_()]);
        let fresh_b = state_condition(1, se.not(), vec![Expr::true_()]);
        let plan = planner.plan(&[fresh_a, fresh_b, refined]);
        assert_eq!(plan.pending.len(), 3);
        assert_eq!(
            plan.pending[0].0, 2,
            "the historically failing assumption must be scheduled first"
        );
        assert_eq!(plan.pending[1].0, 0);
        assert_eq!(plan.pending[2].0, 1);
    }
}
