//! # amle-bench
//!
//! The benchmark harness that regenerates the paper's evaluation artefacts:
//!
//! * `suite --table1-only` — the "Our Algorithm" columns of Table I (`|X|`,
//!   `k`, `i`, `d`, `N`, `α`, `T`, `%Tm`) for every Table I benchmark;
//! * `random_sampling` — the "Random Sampling" columns of Table I (`N`, `α`,
//!   `T`) using the passive baseline of Section IV-C;
//! * `fig2` — re-learns the Home Climate-Control Cooler abstraction and
//!   prints it (textually and as DOT), reproducing Fig. 2;
//! * `ablation` — the design-choice ablations from DESIGN.md (learner choice
//!   and k-induction bound sensitivity).
//!
//! The `suite` binary runs the full evaluation suite (or, with
//! `--table1-only`, Table I alone) sharded across worker threads; the
//! `perf-diff` binary (backed by [`perf`]) compares two
//! `suite --json` documents and flags per-benchmark regressions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use amle_benchmarks::Benchmark;
use amle_core::{
    random_sampling_baseline, ActiveLearner, ActiveLearnerConfig, InternerStats, RunReport,
};
use amle_learner::{HistoryLearner, KTailsLearner, ModelLearner};
use amle_serve::json::json_escape;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default experiment parameters mirroring Section IV-B: 50 initial traces of
/// length 50.
pub fn paper_config(benchmark: &Benchmark) -> ActiveLearnerConfig {
    ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        initial_traces: 50,
        trace_length: 50,
        k: benchmark.k,
        max_iterations: 30,
        ..Default::default()
    }
}

/// A smaller experiment shape (15 traces of length 15) for the ablations and
/// tests, so that runs stay short.
pub fn quick_config(benchmark: &Benchmark) -> ActiveLearnerConfig {
    ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        initial_traces: 15,
        trace_length: 15,
        k: benchmark.k.min(16),
        max_iterations: 20,
        ..Default::default()
    }
}

/// One row of the "Our Algorithm" side of Table I.
#[derive(Debug, Clone)]
pub struct ActiveRow {
    /// Benchmark name.
    pub name: String,
    /// Number of observables (`|X|`).
    pub observables: usize,
    /// The k-induction bound used for spurious checks.
    pub k: usize,
    /// Number of learning iterations (`i`).
    pub iterations: usize,
    /// Accuracy score against the reference machine (`d`).
    pub d: f64,
    /// Number of states of the final abstraction (`N`).
    pub states: usize,
    /// Degree of completeness (`α`).
    pub alpha: f64,
    /// Total runtime in seconds (`T`).
    pub time_s: f64,
    /// Percentage of runtime spent in model learning (`%Tm`).
    pub learn_pct: f64,
    /// Total SAT solve calls across the checking and learning phases.
    pub solve_calls: u64,
    /// Wall-clock seconds spent inside the SAT backend.
    pub solver_time_s: f64,
    /// CDCL decisions across all solver sessions (`dec`).
    pub decisions: u64,
    /// Unit propagations across all solver sessions (`props`).
    pub propagations: u64,
    /// Conflicts across all solver sessions (`confl`).
    pub conflicts: u64,
    /// Literals removed from learnt clauses by recursive minimization before
    /// attachment (`minlit`).
    pub minimized_lits: u64,
    /// Mean LBD ("glue") of the learnt clauses stored across all solver
    /// sessions (`mLBD`); low glue means reusable clauses.
    pub mean_lbd: f64,
    /// Final trace count of the run.
    pub traces: usize,
    /// Distinct interned observations in the trace store (`uobs`).
    pub unique_observations: usize,
    /// Segments of the shared-prefix DAG (`segs`).
    pub segments: usize,
    /// Estimated KiB saved by interning + prefix sharing versus flat traces.
    pub saved_kib: u64,
    /// Abstract words the learner encoded across the run (`enc`).
    pub words_encoded: u64,
    /// Abstract words the learner reused from its incremental cache
    /// (`reuse`).
    pub words_reused: u64,
    /// Words encoded per iteration, in iteration order — the growth curve
    /// the trace-store work targets (at most linear on non-converging
    /// benchmarks).
    pub words_encoded_per_iteration: Vec<u64>,
    /// Conditions answered by the cross-iteration verdict cache (`hits`).
    pub cache_hits: u64,
    /// Conditions that had to be solved by an oracle (`miss`).
    pub cache_misses: u64,
    /// Oracle queries answered by the k-induction engine (`kiQ`).
    pub kinduction_queries: u64,
    /// Oracle queries answered by the explicit-state engine (`exQ`).
    pub explicit_queries: u64,
    /// Work units charged by the explicit engine (`exWork`).
    pub explicit_work: u64,
    /// Conclusion disjuncts Tseitin-encoded for the first time in a
    /// condition session (`disjE`).
    pub disj_encoded: u64,
    /// Conclusion disjuncts served from the session's persistent ledger
    /// without re-encoding (`disjR`).
    pub disj_reused: u64,
    /// Base-session frame disjuncts chain-encoded for the first time
    /// (`frmE`).
    pub frames_encoded: u64,
    /// Base-session frame disjuncts served from the activation ledger
    /// without re-encoding (`frmR`).
    pub frames_reused: u64,
    /// Expression-interner traffic during the run: nodes created
    /// (`inodes`), intern hit rate (`ihit%`) and canonical rewrites applied
    /// (`rewr`).
    pub interner: InternerStats,
    /// Distinct expression nodes reachable from the final invariant set
    /// (`Expr::dag_size` of the invariants' conjunction) — the honest size
    /// measure; the tree-shaped node count overstates shared predicates.
    pub invariant_dag_nodes: u64,
    /// Netlist statistics for circuit benchmarks (gates/latches in and out
    /// of the cone of influence); `None` for every other benchmark family.
    pub circuit: Option<amle_circuit::NetlistStats>,
}

/// Runs the active-learning algorithm on one benchmark and produces its
/// Table I row.
pub fn run_active<L: ModelLearner>(
    benchmark: &Benchmark,
    learner: L,
    config: ActiveLearnerConfig,
) -> (ActiveRow, RunReport) {
    let mut active = ActiveLearner::new(&benchmark.system, learner, config.clone());
    let report = active.run().expect("active learning run failed");
    let solver = report.solver_stats();
    let row = ActiveRow {
        name: benchmark.name.to_string(),
        observables: benchmark.num_observables(),
        k: config.k,
        iterations: report.iterations,
        d: benchmark.score_d(&report.abstraction),
        states: report.num_states(),
        alpha: report.alpha,
        time_s: report.total_time.as_secs_f64(),
        learn_pct: report.learn_time_percentage(),
        solve_calls: solver.solve_calls,
        solver_time_s: solver.solve_time.as_secs_f64(),
        decisions: solver.decisions,
        propagations: solver.propagations,
        conflicts: solver.conflicts,
        minimized_lits: solver.minimized_lits,
        mean_lbd: solver.mean_lbd(),
        traces: report.trace_count,
        unique_observations: report.trace_store.unique_observations,
        segments: report.trace_store.segments,
        saved_kib: report.trace_store.approx_bytes_saved / 1024,
        words_encoded: report.word_stats.words_encoded,
        words_reused: report.word_stats.words_reused,
        words_encoded_per_iteration: report
            .iteration_stats
            .iter()
            .map(|s| s.words_encoded)
            .collect(),
        cache_hits: report.verdict_cache.hits,
        cache_misses: report.verdict_cache.misses,
        kinduction_queries: report.checker_stats.kinduction_queries,
        explicit_queries: report.checker_stats.explicit_queries,
        explicit_work: report.checker_stats.explicit_work,
        disj_encoded: report.checker_stats.disj_encoded,
        disj_reused: report.checker_stats.disj_reused,
        frames_encoded: report.checker_stats.frames_encoded,
        frames_reused: report.checker_stats.frames_reused,
        interner: report.interner,
        invariant_dag_nodes: invariant_dag_nodes(&report),
        circuit: amle_benchmarks::circuit_stats_for(&benchmark.name),
    };
    (row, report)
}

/// Distinct expression nodes reachable from the run's invariant set: the
/// DAG size of the conjunction of `assumption => conclusion` implications
/// (shared predicates — abundant, since invariants reuse the hypothesis
/// automaton's guards — are counted once).
fn invariant_dag_nodes(report: &RunReport) -> u64 {
    use amle_expr::Expr;
    if report.invariants.is_empty() {
        return 0;
    }
    let combined = Expr::and_all(
        report
            .invariants
            .iter()
            .map(|i| i.assumption.implies(&i.conclusion)),
    );
    combined.dag_size() as u64
}

/// One row of the "Random Sampling" side of Table I.
#[derive(Debug, Clone)]
pub struct RandomRow {
    /// Benchmark name.
    pub name: String,
    /// Number of states of the passively learned model (`N`).
    pub states: usize,
    /// Degree of completeness (`α`).
    pub alpha: f64,
    /// Runtime of trace generation plus learning, in seconds (`T`).
    pub time_s: f64,
    /// Number of random inputs consumed.
    pub inputs: usize,
}

/// Runs the random-sampling baseline of Section IV-C on one benchmark.
///
/// `budget` is the number of random inputs (the paper uses 10^6; the harness
/// default scales this down to keep the run laptop-sized — the shape of the
/// comparison is what matters).
pub fn run_random_sampling(benchmark: &Benchmark, budget: usize) -> RandomRow {
    let mut learner = HistoryLearner::default();
    let report = random_sampling_baseline(
        &benchmark.system,
        &mut learner,
        &benchmark.observables,
        budget,
        50,
        benchmark.k,
        0xB5,
    )
    .expect("baseline learning failed");
    RandomRow {
        name: benchmark.name.to_string(),
        states: report.num_states(),
        alpha: report.alpha,
        time_s: report.time.as_secs_f64(),
        inputs: report.inputs_used,
    }
}

/// Runs a whole benchmark suite, sharding the benchmarks across `workers`
/// threads. Each worker pulls the next unstarted benchmark from a shared
/// cursor (dynamic load balancing); results are returned **in benchmark
/// order**, so the emitted tables are byte-identical for every worker count.
///
/// `setup` builds the learner and configuration per benchmark; it runs on the
/// worker thread that claims the benchmark.
pub fn run_suite<L, F>(
    benchmarks: &[Benchmark],
    workers: usize,
    setup: F,
) -> Vec<(ActiveRow, RunReport)>
where
    L: ModelLearner,
    F: Fn(&Benchmark) -> (L, ActiveLearnerConfig) + Sync,
{
    let workers = workers.max(1).min(benchmarks.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(ActiveRow, RunReport)>>> =
        Mutex::new((0..benchmarks.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(benchmark) = benchmarks.get(index) else {
                    break;
                };
                let (learner, config) = setup(benchmark);
                let outcome = run_active(benchmark, learner, config);
                results.lock().expect("suite worker panicked")[index] = Some(outcome);
            });
        }
    });
    results
        .into_inner()
        .expect("suite worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every benchmark produced a result"))
        .collect()
}

/// The concatenated [`RunReport::semantic_fingerprint`]s of a suite run, one
/// section per benchmark. Two runs of the same suite — at any combination of
/// suite-level and condition-level worker counts — must produce identical
/// fingerprints; the suite runner's `--compare` mode and the differential
/// tests assert exactly this.
pub fn suite_fingerprint(benchmarks: &[Benchmark], results: &[(ActiveRow, RunReport)]) -> String {
    let mut out = String::new();
    for (benchmark, (_, report)) in benchmarks.iter().zip(results) {
        out.push_str(&format!("== {}\n", benchmark.name));
        out.push_str(&report.semantic_fingerprint(benchmark.system.vars()));
    }
    out
}

// The digest lives in amle-core (the daemon stamps it into snapshots and
// refinement events); re-exported here so suite output and perf-diff keep
// using the same 16-hex-digit FNV-1a rendering without a drifting copy.
pub use amle_core::fingerprint_digest;

/// Run-level context recorded in the machine-readable suite output.
#[derive(Debug, Clone)]
pub struct SuiteRunMeta {
    /// The condition-oracle engine name (`kinduction` or `portfolio`).
    pub engine: String,
    /// The model-learner name (one of `amle_learner::LearnerKind::NAMES`).
    pub learner: String,
    /// Whether the quick experiment shape was used.
    pub quick: bool,
    /// Suite-level worker threads.
    pub workers: usize,
    /// Per-run condition-checking workers.
    pub condition_workers: usize,
    /// Wall-clock seconds of the whole suite run.
    pub wall_time_s: f64,
}

/// Renders a suite run as a machine-readable JSON document (no external
/// dependencies — the schema is small and hand-rolled): run metadata, the
/// digest of the concatenated semantic fingerprint, and one record per
/// benchmark with wall time, iterations, solver work, verdict-cache and
/// interner statistics, and the per-benchmark fingerprint digest. This is
/// what `suite --json <path>` writes and what the `perf-diff` binary
/// consumes to compare two runs.
///
/// The document is schema **5**, the only one `perf-diff` reads. Each
/// record carries the CDCL work counters (`decisions`, `propagations`,
/// `conflicts`, `minimized_lits`, `mean_lbd`), the conclusion-disjunct
/// ledger counters (`disj_encoded`, `disj_reused` — first-time Tseitin
/// encodes vs session reuses of conclusion disjuncts), the base-session
/// frame-ledger counters (`frames_encoded`, `frames_reused` — chain-encoded
/// frame disjuncts vs activation-ledger reuses) and, on circuit benchmarks
/// only, a `circuit` object of netlist statistics (input/latch/gate counts
/// and cone-of-influence survivors).
pub fn suite_json(
    meta: &SuiteRunMeta,
    benchmarks: &[Benchmark],
    results: &[(ActiveRow, RunReport)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": 5,");
    let _ = writeln!(out, "  \"engine\": \"{}\",", json_escape(&meta.engine));
    let _ = writeln!(out, "  \"learner\": \"{}\",", json_escape(&meta.learner));
    let _ = writeln!(out, "  \"quick\": {},", meta.quick);
    let _ = writeln!(out, "  \"workers\": {},", meta.workers);
    let _ = writeln!(out, "  \"condition_workers\": {},", meta.condition_workers);
    let _ = writeln!(out, "  \"wall_time_s\": {:.6},", meta.wall_time_s);
    let _ = writeln!(
        out,
        "  \"fingerprint_digest\": \"{}\",",
        fingerprint_digest(&suite_fingerprint(benchmarks, results))
    );
    out.push_str("  \"benchmarks\": [\n");
    assert_eq!(
        benchmarks.len(),
        results.len(),
        "one result per benchmark, in benchmark order (as run_suite returns)"
    );
    for (index, (benchmark, (row, report))) in benchmarks.iter().zip(results).enumerate() {
        let digest = fingerprint_digest(&report.semantic_fingerprint(benchmark.system.vars()));
        out.push_str("    {");
        let _ = write!(
            out,
            "\"name\": \"{}\", \"time_s\": {:.6}, \"iterations\": {}, \"alpha\": {}, \
             \"converged\": {}, \"states\": {}, \"d\": {}, \"traces\": {}, \
             \"solve_calls\": {}, \"solver_time_s\": {:.6}, \
             \"decisions\": {}, \"propagations\": {}, \"conflicts\": {}, \
             \"minimized_lits\": {}, \"mean_lbd\": {:.4}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"disj_encoded\": {}, \"disj_reused\": {}, \
             \"frames_encoded\": {}, \"frames_reused\": {}, \
             \"words_encoded\": {}, \"words_reused\": {}, \
             \"interner\": {{\"nodes_interned\": {}, \"hits\": {}, \
             \"hit_rate\": {:.4}, \"canonical_rewrites\": {}}}, \
             \"invariant_dag_nodes\": {}, \"fingerprint_digest\": \"{}\"",
            json_escape(&row.name),
            row.time_s,
            row.iterations,
            row.alpha,
            report.converged,
            row.states,
            row.d,
            row.traces,
            row.solve_calls,
            row.solver_time_s,
            row.decisions,
            row.propagations,
            row.conflicts,
            row.minimized_lits,
            row.mean_lbd,
            row.cache_hits,
            row.cache_misses,
            row.disj_encoded,
            row.disj_reused,
            row.frames_encoded,
            row.frames_reused,
            row.words_encoded,
            row.words_reused,
            row.interner.nodes_interned,
            row.interner.hits,
            row.interner.hit_rate(),
            row.interner.canonical_rewrites,
            row.invariant_dag_nodes,
            digest
        );
        if let Some(c) = &row.circuit {
            let _ = write!(
                out,
                ", \"circuit\": {{\"inputs\": {}, \"latches_total\": {}, \
                 \"latches_in_coi\": {}, \"gates_total\": {}, \"gates_in_coi\": {}, \
                 \"outputs\": {}}}",
                c.inputs,
                c.latches_total,
                c.latches_in_coi,
                c.gates_total,
                c.gates_in_coi,
                c.outputs
            );
        }
        out.push('}');
        if index + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the learner-choice ablation (history vs k-tails) on one benchmark,
/// returning `(history_row, ktails_row)`.
pub fn run_learner_ablation(benchmark: &Benchmark) -> (ActiveRow, ActiveRow) {
    let history = run_active(
        benchmark,
        HistoryLearner::default(),
        quick_config(benchmark),
    )
    .0;
    let ktails = run_active(benchmark, KTailsLearner::new(1), quick_config(benchmark)).0;
    (history, ktails)
}

/// Formats the active-algorithm table in the layout of Table I, extended
/// with the verdict-cache hit column (`hits`) next to the solver-work
/// column it reduces.
pub fn format_active_table(rows: &[ActiveRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>3} {:>4} {:>3} {:>5} {:>3} {:>6} {:>9} {:>6} {:>7} {:>9} {:>6}\n",
        "Benchmark", "|X|", "k", "i", "d", "N", "alpha", "T(s)", "%Tm", "solves", "Tsat(s)", "hits"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>3} {:>4} {:>3} {:>5.2} {:>3} {:>6.2} {:>9.2} {:>6.1} {:>7} {:>9.2} {:>6}\n",
            r.name,
            r.observables,
            r.k,
            r.iterations,
            r.d,
            r.states,
            r.alpha,
            r.time_s,
            r.learn_pct,
            r.solve_calls,
            r.solver_time_s,
            r.cache_hits
        ));
    }
    out
}

/// Formats the oracle-portfolio statistics table: verdict-cache hits and
/// misses, the per-engine query attribution (k-induction vs explicit, and
/// explicit work units), the conclusion-disjunct
/// ledger traffic (`disjE` first-time encodes vs `disjR` session reuses —
/// the quantity delta-encoded condition sessions minimise), the base-session
/// frame-ledger traffic (`frmE` chain links encoded vs `frmR` reuses), the
/// expression-interner traffic the canonical cache keys ride on (nodes
/// interned, intern hit rate, canonical rewrites applied), and the CDCL
/// search-quality columns (conflicts, propagations per conflict, literals
/// removed by learnt-clause minimization, mean learnt-clause LBD).
pub fn format_oracle_table(rows: &[ActiveRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>6} {:>6} {:>7} {:>7} {:>10} {:>6} {:>7} {:>5} {:>6} {:>7} {:>6} {:>7} {:>8} {:>8} {:>7} {:>5}\n",
        "Benchmark",
        "hits",
        "miss",
        "kiQ",
        "exQ",
        "exWork",
        "disjE",
        "disjR",
        "frmE",
        "frmR",
        "inodes",
        "ihit%",
        "rewr",
        "confl",
        "prop/cf",
        "minlit",
        "mLBD"
    ));
    for r in rows {
        let props_per_conflict = if r.conflicts == 0 {
            0.0
        } else {
            r.propagations as f64 / r.conflicts as f64
        };
        out.push_str(&format!(
            "{:<34} {:>6} {:>6} {:>7} {:>7} {:>10} {:>6} {:>7} {:>5} {:>6} {:>7} {:>6.1} {:>7} {:>8} {:>8.1} {:>7} {:>5.1}\n",
            r.name,
            r.cache_hits,
            r.cache_misses,
            r.kinduction_queries,
            r.explicit_queries,
            r.explicit_work,
            r.disj_encoded,
            r.disj_reused,
            r.frames_encoded,
            r.frames_reused,
            r.interner.nodes_interned,
            100.0 * r.interner.hit_rate(),
            r.interner.canonical_rewrites,
            r.conflicts,
            props_per_conflict,
            r.minimized_lits,
            r.mean_lbd
        ));
    }
    out
}

/// Formats the trace-store / word-pipeline statistics table: one row per
/// benchmark with the store's sharing metrics and the learner's
/// encoded-vs-reused word counts, followed by the per-iteration encode
/// curve (the series that must grow at most linearly on non-converging
/// benchmarks).
pub fn format_store_stats_table(rows: &[ActiveRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>7} {:>7} {:>7} {:>9} {:>8} {:>8}\n",
        "Benchmark", "traces", "uobs", "segs", "savedKiB", "enc", "reuse"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>7} {:>7} {:>7} {:>9} {:>8} {:>8}\n",
            r.name,
            r.traces,
            r.unique_observations,
            r.segments,
            r.saved_kib,
            r.words_encoded,
            r.words_reused
        ));
    }
    out.push('\n');
    for r in rows {
        let curve: Vec<String> = r
            .words_encoded_per_iteration
            .iter()
            .map(u64::to_string)
            .collect();
        out.push_str(&format!(
            "words encoded/iteration {:<23} [{}]\n",
            r.name,
            curve.join(", ")
        ));
    }
    out
}

/// Formats the circuit netlist-statistics table: one row per circuit
/// benchmark (rows without circuit stats are skipped) with the primary
/// input, latch and gate counts, how much of each survived the
/// cone-of-influence pass, and the observed-output count. Returns an empty
/// string when no row carries circuit stats, so callers can print it
/// unconditionally.
pub fn format_circuit_table(rows: &[ActiveRow]) -> String {
    let circuit_rows: Vec<_> = rows
        .iter()
        .filter_map(|r| r.circuit.as_ref().map(|c| (r, c)))
        .collect();
    if circuit_rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>4} {:>8} {:>8} {:>9} {:>9} {:>8} {:>4}\n",
        "Benchmark", "ins", "latches", "inCOI", "gates", "inCOI", "dropped", "outs"
    ));
    for (r, c) in circuit_rows {
        out.push_str(&format!(
            "{:<34} {:>4} {:>8} {:>8} {:>9} {:>9} {:>8} {:>4}\n",
            r.name,
            c.inputs,
            c.latches_total,
            c.latches_in_coi,
            c.gates_total,
            c.gates_in_coi,
            c.gates_dropped() + c.latches_dropped(),
            c.outputs
        ));
    }
    out
}

/// Formats the random-sampling table (the right-hand columns of Table I).
pub fn format_random_table(rows: &[RandomRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>3} {:>6} {:>9} {:>8}\n",
        "Benchmark", "N", "alpha", "T(s)", "inputs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>3} {:>6.2} {:>9.2} {:>8}\n",
            r.name, r.states, r.alpha, r.time_s, r.inputs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_benchmarks::benchmark_by_name;

    #[test]
    fn active_row_for_the_cooler_matches_the_paper_shape() {
        let b = benchmark_by_name("HomeClimateControlCooler").unwrap();
        let (row, report) = run_active(&b, HistoryLearner::default(), quick_config(&b));
        assert_eq!(row.alpha, 1.0);
        assert_eq!(row.d, 1.0);
        assert!(row.states >= 2);
        assert!(report.converged);
    }

    #[test]
    fn random_sampling_row_is_produced() {
        let b = benchmark_by_name("CountEvents").unwrap();
        let row = run_random_sampling(&b, 200);
        assert!(row.states >= 1);
        assert!((0.0..=1.0).contains(&row.alpha));
    }

    #[test]
    fn suite_runner_shards_deterministically() {
        use amle_core::ParallelConfig;
        let suite: Vec<_> = amle_benchmarks::full_suite()
            .into_iter()
            .filter(|b| b.name.starts_with("Synth"))
            .take(4)
            .collect();
        assert_eq!(suite.len(), 4);
        let config = |b: &amle_benchmarks::Benchmark| ActiveLearnerConfig {
            observables: Some(b.observables.clone()),
            initial_traces: 5,
            trace_length: 6,
            k: b.k.min(4),
            max_iterations: 2,
            parallel: ParallelConfig::with_workers(1),
            ..Default::default()
        };
        let run =
            |workers: usize| run_suite(&suite, workers, |b| (HistoryLearner::default(), config(b)));
        let sequential = run(1);
        let sharded = run(4);
        assert_eq!(sequential.len(), sharded.len());
        assert_eq!(
            suite_fingerprint(&suite, &sequential),
            suite_fingerprint(&suite, &sharded),
            "suite-level sharding leaked into the reports"
        );
        // Rows come back in benchmark order regardless of which worker
        // finished first.
        for ((row, _), benchmark) in sharded.iter().zip(&suite) {
            assert_eq!(row.name, benchmark.name);
        }
    }

    #[test]
    fn portfolio_engine_matches_kinduction_and_fills_the_oracle_columns() {
        let b = benchmark_by_name("CountEvents").unwrap();
        // CountEvents' condition cost (256) is far below the routing
        // threshold, so the portfolio's explicit engine answers queries.
        let mut config = quick_config(&b);
        config.oracle.engine = amle_core::OracleKind::Portfolio;
        let (row, report) = run_active(&b, HistoryLearner::default(), config);
        let (_, baseline) = run_active(&b, HistoryLearner::default(), quick_config(&b));
        assert_eq!(
            report.semantic_fingerprint(b.system.vars()),
            baseline.semantic_fingerprint(b.system.vars()),
            "oracle engine leaked into the semantic fingerprint"
        );
        assert!(row.explicit_queries > 0, "explicit engine never consulted");
        assert!(row.explicit_work > 0);
        let table = format_oracle_table(&[row]);
        assert!(table.contains("exQ"));
        assert!(table.contains("CountEvents"));
    }

    #[test]
    fn verdict_cache_reduces_solve_calls_on_repeated_conditions() {
        let b = benchmark_by_name("CountEvents").unwrap();
        let mut cached_config = quick_config(&b);
        cached_config.oracle.verdict_cache = true;
        let mut uncached_config = quick_config(&b);
        uncached_config.oracle.verdict_cache = false;
        let (cached_row, cached_report) = run_active(&b, HistoryLearner::default(), cached_config);
        let (uncached_row, uncached_report) =
            run_active(&b, HistoryLearner::default(), uncached_config);
        assert_eq!(
            cached_report.semantic_fingerprint(b.system.vars()),
            uncached_report.semantic_fingerprint(b.system.vars()),
            "verdict cache leaked into the semantic fingerprint"
        );
        // This benchmark re-extracts many conditions unchanged across its
        // iterations (deterministic seed), so the cache must hit — and every
        // hit is solver work the uncached run had to do.
        assert!(cached_row.cache_hits > 0, "cache never hit on CountEvents");
        assert!(
            cached_row.solve_calls < uncached_row.solve_calls,
            "cache hits must translate into fewer solver calls"
        );
        assert_eq!(uncached_row.cache_hits, 0);
    }

    #[test]
    fn tables_format_cleanly() {
        let b = benchmark_by_name("MealyVendingMachine").unwrap();
        let (row, _) = run_active(&b, HistoryLearner::default(), quick_config(&b));
        let table = format_active_table(&[row]);
        assert!(table.contains("MealyVendingMachine"));
        assert!(table.lines().count() >= 2);
        let rrow = run_random_sampling(&b, 100);
        assert!(format_random_table(&[rrow]).contains("MealyVendingMachine"));
    }

    /// The interner statistics must flow from the run into the row and the
    /// oracle table: a real run interns predicate nodes, applies canonical
    /// rewrites while keying the verdict cache, and reports a nonzero
    /// invariant DAG size.
    ///
    /// The interner and its canonical memo are process-global, so this must
    /// run on a benchmark no other test in this binary touches — a repeat
    /// run of an already-seen benchmark legitimately interns ~nothing new.
    #[test]
    fn interner_stats_flow_into_rows_and_tables() {
        let b = benchmark_by_name("RedundantSensorPair").unwrap();
        let (row, report) = run_active(&b, HistoryLearner::default(), quick_config(&b));
        assert!(row.interner.nodes_interned > 0, "a run must intern nodes");
        assert!(
            row.interner.canonical_rewrites > 0,
            "keying the verdict cache must apply canonical rewrites"
        );
        assert_eq!(row.interner, report.interner);
        assert!((0.0..=1.0).contains(&row.interner.hit_rate()));
        assert!(row.invariant_dag_nodes > 0);
        assert!(
            row.disj_encoded > 0,
            "a real run must encode conclusion disjuncts"
        );
        let table = format_oracle_table(std::slice::from_ref(&row));
        assert!(table.contains("inodes"));
        assert!(table.contains("rewr"));
        assert!(table.contains("disjE"));
        assert!(table.contains("frmE"));
        assert!(table.contains("RedundantSensorPair"));
    }

    /// Circuit benchmarks carry netlist stats into their rows, the circuit
    /// table and the JSON record; other benchmarks don't.
    #[test]
    fn circuit_stats_flow_into_rows_tables_and_json() {
        let b = benchmark_by_name("CircuitCoiDemo").unwrap();
        let config = ActiveLearnerConfig {
            observables: Some(b.observables.clone()),
            initial_traces: 5,
            trace_length: 6,
            k: b.k.min(4),
            max_iterations: 2,
            parallel: amle_core::ParallelConfig::with_workers(1),
            ..Default::default()
        };
        let (row, report) = run_active(&b, HistoryLearner::default(), config);
        let stats = row.circuit.expect("circuit benchmarks carry netlist stats");
        assert_eq!(stats.gates_dropped(), 2);
        assert_eq!(stats.latches_dropped(), 3);
        let table = format_circuit_table(std::slice::from_ref(&row));
        assert!(table.contains("CircuitCoiDemo"));
        assert!(table.contains("inCOI"));
        let meta = SuiteRunMeta {
            engine: "kinduction".to_string(),
            learner: "history".to_string(),
            quick: true,
            workers: 1,
            condition_workers: 1,
            wall_time_s: 0.1,
        };
        let suite = vec![b];
        let results = vec![(row, report)];
        let json = suite_json(&meta, &suite, &results);
        assert!(json.contains("\"circuit\": {\"inputs\": 2, \"latches_total\": 4"));
        assert!(json.contains("\"gates_in_coi\": 1"));
        // And the document still parses through the perf-diff consumer.
        let run = perf::parse_suite_run(&json).unwrap();
        assert_eq!(run.schema, 5);
        assert_eq!(run.benchmarks.len(), 1);
        // A non-circuit row renders an empty circuit table.
        let plain = benchmark_by_name("HomeClimateControlCooler").unwrap();
        let (plain_row, _) = run_active(&plain, HistoryLearner::default(), quick_config(&plain));
        assert!(plain_row.circuit.is_none());
        assert_eq!(format_circuit_table(std::slice::from_ref(&plain_row)), "");
    }

    #[test]
    fn fingerprint_digest_is_stable_and_content_sensitive() {
        let a = fingerprint_digest("alpha=1 iterations=3");
        assert_eq!(a, fingerprint_digest("alpha=1 iterations=3"));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, fingerprint_digest("alpha=1 iterations=4"));
        // Pinned value: the digest is compared across versions (committed CI
        // digests, `perf-diff`), so accidental algorithm changes must show
        // up here.
        assert_eq!(fingerprint_digest(""), "cbf29ce484222325");
    }

    /// The machine-readable suite output: structurally valid JSON (checked
    /// with a tiny scanner: balanced braces/brackets outside strings), one
    /// record per benchmark, and the digest of the suite fingerprint.
    #[test]
    fn suite_json_shape() {
        let suite: Vec<_> = amle_benchmarks::full_suite()
            .into_iter()
            .filter(|b| b.name.starts_with("SynthGray"))
            .take(2)
            .collect();
        assert_eq!(suite.len(), 2);
        let results = run_suite(&suite, 1, |b| {
            (
                HistoryLearner::default(),
                amle_core::ActiveLearnerConfig {
                    observables: Some(b.observables.clone()),
                    initial_traces: 5,
                    trace_length: 6,
                    k: b.k.min(4),
                    max_iterations: 2,
                    parallel: amle_core::ParallelConfig::with_workers(1),
                    ..Default::default()
                },
            )
        });
        let meta = SuiteRunMeta {
            engine: "kinduction".to_string(),
            learner: "history".to_string(),
            quick: true,
            workers: 1,
            condition_workers: 1,
            wall_time_s: 0.25,
        };
        let json = suite_json(&meta, &suite, &results);
        for needle in [
            "\"schema\": 5",
            "\"engine\": \"kinduction\"",
            "\"learner\": \"history\"",
            "\"fingerprint_digest\"",
            "\"interner\"",
            "\"canonical_rewrites\"",
            "\"invariant_dag_nodes\"",
            // CDCL work counters, one per benchmark record.
            "\"decisions\"",
            "\"propagations\"",
            "\"conflicts\"",
            "\"minimized_lits\"",
            "\"mean_lbd\"",
            // Conclusion-disjunct ledger counters.
            "\"disj_encoded\"",
            "\"disj_reused\"",
            // Base-session frame-ledger counters.
            "\"frames_encoded\"",
            "\"frames_reused\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        for b in &suite {
            assert!(json.contains(&format!("\"name\": \"{}\"", b.name)));
        }
        let expected_digest = fingerprint_digest(&suite_fingerprint(&suite, &results));
        assert!(json.contains(&expected_digest));
        // Synthetic benchmarks carry no circuit stats object.
        assert!(!json.contains("\"circuit\""));
        // Balanced-structure scan.
        let (mut depth, mut brackets, mut in_string, mut escaped) = (0i32, 0i32, false, false);
        for c in json.chars() {
            if in_string {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => depth += 1,
                '}' => depth -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
            assert!(depth >= 0 && brackets >= 0, "unbalanced JSON");
        }
        assert_eq!((depth, brackets, in_string), (0, 0, false));
    }
}
