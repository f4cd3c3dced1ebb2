//! The condition-checking engine: a query planner over condition oracles,
//! with a cross-iteration verdict cache and a failure-history priority
//! order, solving each condition set on one oracle per worker.
//!
//! Checking the extracted conditions dominates the wall-clock time of an
//! active-learning iteration. Three observations shape the engine:
//!
//! 1. **Conditions are mutually independent** — each is decided by its own
//!    oracle queries, and the spurious-counterexample re-check loop of a
//!    condition only strengthens that condition's own assumption. The
//!    engine owns one [`PortfolioOracle`] per worker, routing at the
//!    configured engine's threshold, each with its own persistent
//!    sessions, for its whole lifetime. In each evaluation the calling
//!    thread is worker 0 and [`std::thread::scope`] helpers join it, one
//!    per further worker with work to do.
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
//!    surface counterexamples first and the workers spend their early slots
//!    where refinement progress is made.
//!
//! **Determinism guarantee.** The merged [`ConditionEvaluation`] is
//! byte-identical for every worker count (including 1), every oracle engine
//! and cache on/off:
//!
//! * verdicts are satisfiability results and counterexample models are
//!   canonicalised, so each condition's outcome is a pure function of the
//!   condition and the system — across engines too (see `amle-checker`);
//! * cached outcomes are exactly the outcomes the oracle would recompute;
//! * workers pull pending slots from one shared cursor (dynamic load
//!   balancing); outcomes are recorded in pending order and merged **in
//!   condition order**, so neither scheduling, priority order nor
//!   completion order can leak into the report.

use crate::conditions::{Condition, ConditionKind};
use crate::learner_loop::ActiveLearnerConfig;
use amle_checker::{CheckResult, CheckerStats, OracleKind, PortfolioOracle, SpuriousResult};
use amle_expr::{Expr, Valuation, VarId, VarSet};
use amle_system::System;
use std::collections::HashMap;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Parallelism configuration of the condition-checking engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of condition-checking workers, each with its own persistent
    /// oracle. The calling thread is worker 0, so `1` checks conditions on
    /// the calling thread alone; `n > 1` adds up to `n − 1` scoped helper
    /// threads per evaluation.
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

/// How the loop's oracles route their queries and how the planner treats
/// repeated conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// The condition-oracle engine: it sets the routing threshold of every
    /// worker's [`PortfolioOracle`] (see [`OracleKind::route_threshold`]).
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

impl VerdictCacheStats {
    /// The cache work done since an earlier snapshot of the same planner:
    /// `hits` and `misses` are differenced, and `entries` is a gauge and
    /// passes through. This is what lets a long-lived engine attribute
    /// per-refinement work, as [`CheckerStats::since`] does for its oracles.
    pub fn since(&self, earlier: &VerdictCacheStats) -> VerdictCacheStats {
        VerdictCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
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
    /// Conditions answered by the verdict cache this evaluation; the rest
    /// were solved by an oracle.
    pub cache_hits: usize,
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
enum ConditionOutcome {
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
fn evaluate_one_condition(
    oracle: &mut PortfolioOracle<'_>,
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
/// failure history. Lives on the calling thread (never inside a helper), so
/// its state evolves identically for every worker count.
struct QueryPlanner {
    /// `None` when the cache is disabled; the failure history stays active
    /// either way.
    cache: Option<HashMap<ConditionKey, ConditionOutcome>>,
    failures: HashMap<FailureKey, u64>,
    hits: u64,
    misses: u64,
}

impl QueryPlanner {
    fn new(cache_enabled: bool) -> QueryPlanner {
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

    fn stats(&self) -> VerdictCacheStats {
        VerdictCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.cache.as_ref().map_or(0, |c| c.len() as u64),
        }
    }
}

/// Folds a plan whose every slot has been filled into the aggregate
/// evaluation, in condition order. This is the deterministic merge point of
/// the engine.
fn merge(conditions: &[Condition], plan: PlannedWork) -> ConditionEvaluation {
    let mut evaluation = ConditionEvaluation {
        total: conditions.len(),
        held: 0,
        counterexamples: Vec::new(),
        spurious: 0,
        inconclusive: 0,
        cache_hits: plan.cache_hits,
    };
    for (condition, outcome) in conditions.iter().zip(plan.outcomes) {
        match outcome.expect("every condition produced an outcome") {
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

/// The condition-checking engine: the query planner plus one oracle per
/// worker, both kept for the engine's whole lifetime. A batch run
/// builds one engine per run; a resident [`crate::Session`] keeps one warm
/// (incremental solver sessions and verdict cache intact) across
/// refinements.
pub(crate) struct ConditionEngine<'a> {
    system: &'a System,
    planner: QueryPlanner,
    /// One oracle per worker; the calling thread drives the first.
    oracles: Vec<PortfolioOracle<'a>>,
    observables: Vec<VarId>,
    k: usize,
    max_spurious_rounds: usize,
}

impl<'a> ConditionEngine<'a> {
    /// Builds the planner and one oracle per configured worker for `system`.
    pub fn new(system: &'a System, config: &ActiveLearnerConfig) -> Self {
        let OracleConfig {
            engine,
            verdict_cache,
            cross_validate,
        } = config.oracle;
        let threshold = engine.route_threshold();
        ConditionEngine {
            system,
            planner: QueryPlanner::new(verdict_cache),
            oracles: (0..config.parallel.workers.max(1))
                .map(|_| PortfolioOracle::new(system, threshold, cross_validate))
                .collect(),
            observables: config.observables_of(system),
            k: config.k,
            max_spurious_rounds: config.max_spurious_rounds,
        }
    }

    /// Checks a whole condition set: plans it, solves the pending
    /// conditions, records their outcomes in pending order and merges in
    /// condition order.
    pub fn evaluate(&mut self, conditions: &[Condition]) -> ConditionEvaluation {
        let mut plan = self.planner.plan(conditions);
        let pending = std::mem::take(&mut plan.pending);
        let mut solved = self.solve(conditions, &pending);
        solved.sort_unstable_by_key(|&(slot, _)| slot);
        for ((index, key), (_, outcome)) in pending.into_iter().zip(solved) {
            self.planner.record(key, &outcome);
            plan.resolve(index, outcome);
        }
        merge(conditions, plan)
    }

    /// Solves every pending condition, returning `(slot, outcome)` pairs.
    /// The calling thread is worker 0 and `min(workers, pending) − 1`
    /// scoped helpers join it; each worker pulls the next pending slot from
    /// one shared cursor. With one worker the caller takes the slots in
    /// planner order on one oracle. A helper's panic is re-raised on the
    /// caller with its own payload; the other helpers drain the cursor and
    /// the scope waits for them, so nothing hangs.
    fn solve(
        &mut self,
        conditions: &[Condition],
        pending: &[(usize, ConditionKey)],
    ) -> Vec<(usize, ConditionOutcome)> {
        let cursor = AtomicUsize::new(0);
        let (vars, observables) = (self.system.vars(), &self.observables);
        let (k, max_spurious_rounds) = (self.k, self.max_spurious_rounds);
        let work = |oracle: &mut PortfolioOracle<'a>| {
            let mut solved = Vec::new();
            loop {
                // Relaxed suffices: the cursor publishes no data. What a slot
                // reads was written before the helpers were spawned, and
                // what it produces comes back through `join`.
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(index, _)) = pending.get(slot) else {
                    return solved;
                };
                let condition = &conditions[index];
                let outcome = evaluate_one_condition(
                    oracle,
                    vars,
                    condition,
                    observables,
                    k,
                    max_spurious_rounds,
                );
                solved.push((slot, outcome));
            }
        };
        let work = &work;
        let helpers = self.oracles.len().min(pending.len()).saturating_sub(1);
        let (caller, others) = self.oracles.split_first_mut().expect("at least one worker");
        thread::scope(|scope| {
            let handles: Vec<_> = others[..helpers]
                .iter_mut()
                .map(|oracle| scope.spawn(move || work(oracle)))
                .collect();
            let mut solved = work(caller);
            for handle in handles {
                solved.extend(handle.join().unwrap_or_else(|p| panic::resume_unwind(p)));
            }
            solved
        })
    }

    /// Checker work accumulated by every worker's oracle so far.
    pub fn checker_stats(&self) -> CheckerStats {
        let stats = self.oracles.iter().map(|oracle| oracle.stats());
        stats.fold(CheckerStats::default(), |total, s| total + s)
    }

    /// The planner's verdict-cache counters so far.
    pub fn cache_stats(&self) -> VerdictCacheStats {
        self.planner.stats()
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

    /// An engine over `system` with `k = 4` and the given oracle kind, at
    /// the worker count `AMLE_WORKERS` selects.
    fn engine(system: &System, kind: OracleKind, verdict_cache: bool) -> ConditionEngine<'_> {
        let config = ActiveLearnerConfig {
            k: 4,
            oracle: OracleConfig {
                engine: kind,
                verdict_cache,
                ..OracleConfig::default()
            },
            ..ActiveLearnerConfig::default()
        };
        ConditionEngine::new(system, &config)
    }

    #[test]
    #[should_panic(expected = "k-induction bound must be positive")]
    fn a_panicking_worker_fails_the_run_instead_of_hanging() {
        // k = 0 trips the checker's bound assertion on every violated
        // non-initial condition. Two distinct violated conditions on two
        // workers put one of them on a helper thread; whichever thread
        // panics, the evaluation must fail with the checker's own message
        // instead of blocking forever on an outcome that never arrives.
        let system = toggle_system();
        let s = system.var(system.vars().lookup("s").unwrap());
        let config = ActiveLearnerConfig {
            k: 0,
            parallel: ParallelConfig::with_workers(2),
            ..ActiveLearnerConfig::default()
        };
        let mut engine = ConditionEngine::new(&system, &config);
        engine.evaluate(&[
            state_condition(0, Expr::true_(), vec![Expr::false_()]),
            state_condition(1, s.clone(), vec![s.not()]),
        ]);
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
        let mut engine = engine(&system, OracleKind::default(), true);

        // Iteration 1: both conditions hold.
        let unchanged = state_condition(0, se.clone(), vec![Expr::true_()]);
        let mutated_v1 = state_condition(1, se.not(), vec![Expr::true_()]);
        let first = engine.evaluate(&[unchanged.clone(), mutated_v1]);
        assert_eq!(first.held, 2);
        assert_eq!(first.cache_hits, 0);

        // Iteration 2: state 1 keeps its id and position but its outgoing
        // set changed to something falsifiable ("after a step, s never
        // holds" is violated by tick = true).
        let mutated_v2 = state_condition(1, se.not(), vec![se.not()]);
        let second = engine.evaluate(&[unchanged, mutated_v2]);
        assert_eq!(
            second.cache_hits, 1,
            "the unchanged condition must hit and the mutated one re-solve"
        );
        assert_eq!(
            second.counterexamples.len(),
            1,
            "a stale verdict would mask the violation"
        );
        assert_eq!(second.held, 1);

        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
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
        let mut engine = engine(&system, OracleKind::default(), true);

        let original = state_condition(0, se.clone(), vec![se.clone(), se.not()]);
        let first = engine.evaluate(std::slice::from_ref(&original));
        assert_eq!(first.cache_hits, 0);

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
        assert_eq!(second.held, first.held);

        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    /// Semantic keying also *merges*: a condition re-extracted under a
    /// different state id with identical predicates is the same query and
    /// must hit.
    #[test]
    fn state_ids_do_not_enter_the_cache_key() {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let mut engine = engine(&system, OracleKind::default(), true);
        let at_state_0 = state_condition(0, se.clone(), vec![Expr::true_()]);
        let at_state_7 = state_condition(7, se, vec![Expr::true_()]);
        let first = engine.evaluate(std::slice::from_ref(&at_state_0));
        assert_eq!(first.cache_hits, 0);
        let second = engine.evaluate(std::slice::from_ref(&at_state_7));
        assert_eq!(second.cache_hits, 1);
    }

    /// Cache on and cache off must produce identical evaluations (the cache
    /// only skips work); the oracle must not be consulted again on a hit.
    /// Returns the checker work of the cached and the uncached engine after
    /// three rounds of the same two conditions under `kind`.
    fn cached_and_uncached_checker_stats(kind: OracleKind) -> (CheckerStats, CheckerStats) {
        let system = toggle_system();
        let s = system.vars().lookup("s").unwrap();
        let se = system.var(s);
        let conditions = vec![
            state_condition(0, Expr::true_(), vec![se.clone(), se.not()]),
            state_condition(1, se.clone(), vec![se.not()]),
        ];

        let mut cached = engine(&system, kind, true);
        let mut uncached = engine(&system, kind, false);

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
        // After the first round every cached evaluation is free.
        assert_eq!(cached.cache_stats().hits, 2 * conditions.len() as u64);
        assert_eq!(uncached.cache_stats().hits, 0);
        assert_eq!(uncached.cache_stats().entries, 0);
        (cached.checker_stats(), uncached.checker_stats())
    }

    #[test]
    fn cached_evaluations_match_uncached_and_skip_the_oracle() {
        let (cached, uncached) = cached_and_uncached_checker_stats(OracleKind::KInduction);
        assert!(
            cached.solver.solve_calls < uncached.solver.solve_calls,
            "the cache must actually skip solver work"
        );
    }

    /// The default portfolio routes the toggle's tiny queries to the
    /// explicit engine, so there the cache must skip explicit queries.
    #[test]
    fn cached_evaluations_skip_the_explicit_engine_under_the_default_oracle() {
        let (cached, uncached) = cached_and_uncached_checker_stats(OracleKind::default());
        assert!(
            cached.explicit_queries < uncached.explicit_queries,
            "the cache must actually skip explicit-engine work"
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
        let mut cached = engine(&system, OracleKind::default(), true);
        let evaluation = cached.evaluate(&batch);
        assert_eq!(evaluation.held, 3, "duplicates must still get an outcome");
        assert_eq!(evaluation.cache_hits, 2);
        assert_eq!(cached.checker_stats().condition_checks, 1);
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));

        let mut uncached = engine(&system, OracleKind::default(), false);
        let evaluation = uncached.evaluate(&batch);
        assert_eq!(evaluation.held, 3);
        assert_eq!(evaluation.cache_hits, 0);
        assert_eq!(uncached.checker_stats().condition_checks, 3);
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
