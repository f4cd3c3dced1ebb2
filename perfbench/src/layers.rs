//! Per-layer accounting: the learner wrapper that times every `learn` call,
//! the per-pass layer ledger built from `RunReport`s, and the in-memory span
//! recorder whose contents are written out when the benchmark ends.

use crate::measure::{median, ratio};
use crate::Metric;
use amle_automaton::Nfa;
use amle_core::{RunReport, SolverStats, TraceStore};
use amle_expr::{VarId, VarSet};
use amle_learner::{LearnError, ModelLearner, WordStats};
use amle_serve::json::{obj, Json};
use amle_system::TraceSet;
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One `learn` call: when it started and how long it took.
pub type LearnCall = (Instant, Duration);

/// A [`ModelLearner`] that delegates to `inner` and logs every call, so the
/// traced run gets a `learner.learn` span per call without touching the
/// learner itself.
pub struct TimedLearner<'log, L> {
    inner: L,
    log: &'log RefCell<Vec<LearnCall>>,
}

impl<'log, L> TimedLearner<'log, L> {
    pub fn new(inner: L, log: &'log RefCell<Vec<LearnCall>>) -> Self {
        TimedLearner { inner, log }
    }

    fn timed<T>(&mut self, call: impl FnOnce(&mut L) -> T) -> T {
        let start = Instant::now();
        let result = call(&mut self.inner);
        self.log.borrow_mut().push((start, start.elapsed()));
        result
    }
}

impl<L: ModelLearner> ModelLearner for TimedLearner<'_, L> {
    fn learn(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
    ) -> Result<Nfa, LearnError> {
        self.timed(|inner| inner.learn(vars, observables, traces))
    }

    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        self.timed(|inner| inner.learn_from_store(vars, observables, store))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solver_stats(&self) -> SolverStats {
        self.inner.solver_stats()
    }

    fn word_stats(&self) -> WordStats {
        self.inner.word_stats()
    }
}

/// The layer ledger of one pass: busy times and work counts summed over the
/// pass's refinement runs.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub simulate_s: f64,
    pub run_s: f64,
    pub learn_s: f64,
    pub check_s: f64,
    pub solve_s: f64,
    pub learner_calls: u64,
    pub iterations: u64,
    pub conditions: u64,
    pub new_traces: u64,
    pub store_traces: u64,
    pub store_segments: u64,
    pub unique_observations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub kinduction_queries: u64,
    pub explicit_queries: u64,
    pub spurious_checks: u64,
    pub disj_encoded: u64,
    pub disj_reused: u64,
    pub frames_encoded: u64,
    pub frames_reused: u64,
    pub solve_calls: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub words_encoded: u64,
    pub words_reused: u64,
    pub nodes_interned: u64,
    pub intern_hits: u64,
    pub canonical_rewrites: u64,
}

impl Layer {
    /// Folds one refinement run in: its report, its measured wall time and
    /// the learner calls logged during it (empty on untraced runs).
    pub fn add_run(&mut self, report: &RunReport, run: Duration, calls: &[LearnCall]) {
        let solver = report.solver_stats();
        let checker = &report.checker_stats;
        self.run_s += run.as_secs_f64();
        self.learn_s += calls.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>();
        self.learner_calls += calls.len() as u64;
        self.check_s += report.check_time.as_secs_f64();
        self.solve_s += solver.solve_time.as_secs_f64();
        self.iterations += report.iterations as u64;
        for iteration in &report.iteration_stats {
            self.conditions += iteration.conditions as u64;
            self.new_traces += iteration.new_traces as u64;
        }
        self.store_traces += report.trace_count as u64;
        self.store_segments += report.trace_store.segments as u64;
        self.unique_observations += report.trace_store.unique_observations as u64;
        self.cache_hits += report.verdict_cache.hits;
        self.cache_misses += report.verdict_cache.misses;
        self.kinduction_queries += checker.kinduction_queries;
        self.explicit_queries += checker.explicit_queries;
        self.spurious_checks += checker.spurious_checks;
        self.disj_encoded += checker.disj_encoded;
        self.disj_reused += checker.disj_reused;
        self.frames_encoded += checker.frames_encoded;
        self.frames_reused += checker.frames_reused;
        self.solve_calls += solver.solve_calls;
        self.conflicts += solver.conflicts;
        self.propagations += solver.propagations;
        self.words_encoded += report.word_stats.words_encoded;
        self.words_reused += report.word_stats.words_reused;
        self.nodes_interned += report.interner.nodes_interned;
        self.intern_hits += report.interner.hits;
        self.canonical_rewrites += report.interner.canonical_rewrites;
    }

    /// The exact-count ledger: counts that must repeat exactly from pass to
    /// pass and from run to run of the same seed.
    pub fn ledger(&self) -> [(&'static str, u64); 5] {
        [
            ("sat.solve_calls", self.solve_calls),
            ("core.cache_hits", self.cache_hits),
            ("core.iterations", self.iterations),
            ("system.store_traces", self.store_traces),
            ("learner.words_encoded", self.words_encoded),
        ]
    }

    /// Run time not spent learning or checking: splicing counterexamples
    /// into the trace store, plus the loop's own bookkeeping.
    fn splice_residual_s(&self) -> f64 {
        self.run_s - self.learn_s - self.check_s
    }

    /// The per-layer metrics of the pipeline layers. Busy times are medians
    /// over the traced passes; counts come from the first traced pass (the
    /// ledger counts are checked equal across passes). The interner is
    /// process-global and never shrinks, so its counts come from `cold`, the
    /// run's first pass.
    pub fn metrics(traced: &[Layer], cold: &Layer) -> Vec<Metric> {
        let time = |f: fn(&Layer) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let first = &traced[0];
        let count = |n: u64| n as f64;
        vec![
            (
                "core.splice_residual_s",
                time(Layer::splice_residual_s),
                "s",
            ),
            ("system.store_traces", count(first.store_traces), "count"),
            (
                "system.store_segments",
                count(first.store_segments),
                "count",
            ),
            (
                "system.unique_observations",
                count(first.unique_observations),
                "count",
            ),
            ("core.new_traces", count(first.new_traces), "count"),
            ("core.check_s", time(|l| l.check_s), "s"),
            ("core.iterations", count(first.iterations), "count"),
            ("core.conditions", count(first.conditions), "count"),
            ("core.cache_hits", count(first.cache_hits), "count"),
            ("core.cache_misses", count(first.cache_misses), "count"),
            (
                "core.cache_hit_ratio",
                ratio(first.cache_hits, first.cache_hits + first.cache_misses),
                "ratio",
            ),
            (
                "checker.kinduction_queries",
                count(first.kinduction_queries),
                "count",
            ),
            (
                "checker.explicit_queries",
                count(first.explicit_queries),
                "count",
            ),
            (
                "checker.spurious_checks",
                count(first.spurious_checks),
                "count",
            ),
            ("checker.disj_encoded", count(first.disj_encoded), "count"),
            ("checker.disj_reused", count(first.disj_reused), "count"),
            (
                "checker.frames_encoded",
                count(first.frames_encoded),
                "count",
            ),
            ("checker.frames_reused", count(first.frames_reused), "count"),
            ("sat.solve_calls", count(first.solve_calls), "count"),
            ("sat.solve_s", time(|l| l.solve_s), "s"),
            ("sat.conflicts", count(first.conflicts), "count"),
            ("sat.propagations", count(first.propagations), "count"),
            (
                "sat.solves_per_query",
                ratio(
                    first.solve_calls,
                    first.kinduction_queries + first.explicit_queries,
                ),
                "ratio",
            ),
            ("expr.nodes_interned", count(cold.nodes_interned), "count"),
            (
                "expr.intern_hit_rate",
                ratio(cold.intern_hits, cold.intern_hits + cold.nodes_interned),
                "ratio",
            ),
            (
                "expr.canonical_rewrites",
                count(cold.canonical_rewrites),
                "count",
            ),
            ("learner.calls", count(first.learner_calls), "count"),
            ("learner.learn_s", time(|l| l.learn_s), "s"),
            ("learner.words_encoded", count(first.words_encoded), "count"),
            ("learner.words_reused", count(first.words_reused), "count"),
            ("system.simulate_s", time(|l| l.simulate_s), "s"),
        ]
    }
}

/// One recorded span. `start_s` is `None` for spans derived from durations
/// the program reports (per-iteration check time, the splice residual).
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    label: String,
    start_s: Option<f64>,
    dur_s: f64,
}

/// In-memory span store of a traced run; [`Spans::write`] saves it once at
/// the end, so recording costs no I/O while passes are timed.
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Allocates a span id, so children can be recorded before their parent.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records span `id` (see [`Spans::id`]); parent 0 is the root.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        label: &str,
        start: Option<Instant>,
        dur: Duration,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            label: label.to_string(),
            start_s: start.map(|s| s.saturating_duration_since(self.epoch).as_secs_f64()),
            dur_s: dur.as_secs_f64(),
        });
    }

    /// Allocates an id and records the span in one step.
    pub fn push(
        &mut self,
        parent: u64,
        name: &'static str,
        label: &str,
        start: Option<Instant>,
        dur: Duration,
    ) -> u64 {
        let id = self.id();
        self.record(id, parent, name, label, start, dur);
        id
    }

    /// Records a refinement run's inner spans under `parent`: one
    /// `learner.learn` per logged call, one `core.check` per iteration and
    /// the `core.splice_residual` remainder.
    pub fn record_run(
        &mut self,
        parent: u64,
        label: &str,
        report: &RunReport,
        run: Duration,
        calls: &[LearnCall],
    ) {
        let mut learn = Duration::ZERO;
        for (start, dur) in calls {
            self.push(parent, "learner.learn", label, Some(*start), *dur);
            learn += *dur;
        }
        for iteration in &report.iteration_stats {
            self.push(parent, "core.check", label, None, iteration.check_time);
        }
        let residual = run.saturating_sub(learn).saturating_sub(report.check_time);
        self.push(parent, "core.splice_residual", label, None, residual);
    }

    /// Writes the spans as one JSON document under the benchmark's `out/`
    /// directory and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        let spans: Json = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("id", Json::from(s.id)),
                    ("parent", Json::from(s.parent)),
                    ("name", Json::from(s.name)),
                    ("label", Json::from(s.label.as_str())),
                    ("start_s", s.start_s.map(Json::from).unwrap_or(Json::Null)),
                    ("dur_s", Json::from(s.dur_s)),
                ])
            })
            .collect();
        let doc = obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("spans", spans),
        ]);
        std::fs::write(&path, doc.render() + "\n")?;
        Ok(path)
    }
}
