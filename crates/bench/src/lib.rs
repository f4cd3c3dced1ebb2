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
    random_sampling_baseline, ActiveLearner, ActiveLearnerConfig, BaselineReport, RunReport,
};
use amle_learner::{HistoryLearner, KTailsLearner, ModelLearner};
use amle_serve::json::{obj, Json};
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

/// One row of the "Our Algorithm" side of Table I: the run's report plus
/// the few benchmark facts the report lacks. The tables and the suite JSON
/// read every measured counter from `report`.
#[derive(Debug, Clone)]
pub struct ActiveRow {
    /// Benchmark name.
    pub name: String,
    /// Number of observables (`|X|`).
    pub observables: usize,
    /// The k-induction bound used for spurious checks.
    pub k: usize,
    /// Accuracy score against the reference machine (`d`).
    pub d: f64,
    /// Netlist statistics for circuit benchmarks (gates/latches in and out
    /// of the cone of influence); `None` for every other benchmark family.
    pub circuit: Option<amle_circuit::NetlistStats>,
    /// The run's report: iterations (`i`), states (`N`), `α`, times and
    /// every work counter.
    pub report: RunReport,
}

/// Runs the active-learning algorithm on one benchmark and produces its
/// Table I row.
pub fn run_active<L: ModelLearner>(
    benchmark: &Benchmark,
    learner: L,
    config: ActiveLearnerConfig,
) -> ActiveRow {
    let k = config.k;
    let mut active = ActiveLearner::new(&benchmark.system, learner, config);
    let report = active.run().expect("active learning run failed");
    ActiveRow {
        name: benchmark.name.to_string(),
        observables: benchmark.num_observables(),
        k,
        d: benchmark.score_d(&report.abstraction),
        circuit: amle_benchmarks::circuit_stats_for(&benchmark.name),
        report,
    }
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
    /// The baseline's report: states (`N`), `α`, time (`T`) and the random
    /// inputs consumed.
    pub report: BaselineReport,
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
        report,
    }
}

/// Runs a whole benchmark suite, sharding the benchmarks across `workers`
/// threads. Each worker pulls the next unstarted benchmark from a shared
/// cursor (dynamic load balancing); results are returned **in benchmark
/// order**, so the emitted tables are byte-identical for every worker count.
///
/// `setup` builds the learner and configuration per benchmark; it runs on the
/// worker thread that claims the benchmark.
pub fn run_suite<L, F>(benchmarks: &[Benchmark], workers: usize, setup: F) -> Vec<ActiveRow>
where
    L: ModelLearner,
    F: Fn(&Benchmark) -> (L, ActiveLearnerConfig) + Sync,
{
    let workers = workers.max(1).min(benchmarks.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<ActiveRow>>> =
        Mutex::new((0..benchmarks.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(benchmark) = benchmarks.get(index) else {
                    break;
                };
                let (learner, config) = setup(benchmark);
                let row = run_active(benchmark, learner, config);
                results.lock().expect("suite worker panicked")[index] = Some(row);
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
pub fn suite_fingerprint(benchmarks: &[Benchmark], rows: &[ActiveRow]) -> String {
    let mut out = String::new();
    for (benchmark, row) in benchmarks.iter().zip(rows) {
        out.push_str(&format!("== {}\n", benchmark.name));
        out.push_str(&row.report.semantic_fingerprint(benchmark.system.vars()));
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

/// Renders a suite run as a machine-readable JSON document, built as one
/// [`Json`] value and rendered on one line with sorted keys: run metadata,
/// the digest of the concatenated semantic fingerprint, and one record per
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
/// and cone-of-influence survivors). Times keep 6 decimals, `mean_lbd` and
/// the interner `hit_rate` 4.
///
/// Under `suite --repeat N` each record is the benchmark's fastest run. The
/// repeats share one process, whose expression interner and canonical memo
/// stay warm after the first, so such a record's `interner` counters are
/// those of a warm run and cannot be compared with a single run's.
pub fn suite_json(meta: &SuiteRunMeta, benchmarks: &[Benchmark], rows: &[ActiveRow]) -> String {
    assert_eq!(
        benchmarks.len(),
        rows.len(),
        "one row per benchmark, in benchmark order (as run_suite returns)"
    );
    let records = benchmarks
        .iter()
        .zip(rows)
        .map(|(benchmark, row)| benchmark_record(benchmark, row))
        .collect();
    let doc = obj([
        ("schema", Json::from(5u64)),
        ("engine", meta.engine.as_str().into()),
        ("learner", meta.learner.as_str().into()),
        ("quick", meta.quick.into()),
        ("workers", meta.workers.into()),
        ("condition_workers", meta.condition_workers.into()),
        ("wall_time_s", rounded(meta.wall_time_s, 6)),
        (
            "fingerprint_digest",
            fingerprint_digest(&suite_fingerprint(benchmarks, rows)).into(),
        ),
        ("benchmarks", Json::Array(records)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    out
}

/// One benchmark's record of the suite JSON.
fn benchmark_record(benchmark: &Benchmark, row: &ActiveRow) -> Json {
    let report = &row.report;
    let solver = report.solver_stats();
    let checker = &report.checker_stats;
    let interner = &report.interner;
    let digest = fingerprint_digest(&report.semantic_fingerprint(benchmark.system.vars()));
    let mut fields = vec![
        ("name", row.name.as_str().into()),
        ("time_s", rounded(report.total_time.as_secs_f64(), 6)),
        ("iterations", report.iterations.into()),
        ("alpha", report.alpha.into()),
        ("converged", report.converged.into()),
        ("states", report.num_states().into()),
        ("d", row.d.into()),
        ("traces", report.trace_count.into()),
        ("solve_calls", solver.solve_calls.into()),
        ("solver_time_s", rounded(solver.solve_time.as_secs_f64(), 6)),
        ("decisions", solver.decisions.into()),
        ("propagations", solver.propagations.into()),
        ("conflicts", solver.conflicts.into()),
        ("minimized_lits", solver.minimized_lits.into()),
        ("mean_lbd", rounded(solver.mean_lbd(), 4)),
        ("cache_hits", report.verdict_cache.hits.into()),
        ("cache_misses", report.verdict_cache.misses.into()),
        ("disj_encoded", checker.disj_encoded.into()),
        ("disj_reused", checker.disj_reused.into()),
        ("frames_encoded", checker.frames_encoded.into()),
        ("frames_reused", checker.frames_reused.into()),
        ("words_encoded", report.word_stats.words_encoded.into()),
        ("words_reused", report.word_stats.words_reused.into()),
        (
            "interner",
            obj([
                ("nodes_interned", interner.nodes_interned.into()),
                ("hits", interner.hits.into()),
                ("hit_rate", rounded(interner.hit_rate(), 4)),
                ("canonical_rewrites", interner.canonical_rewrites.into()),
            ]),
        ),
        ("invariant_dag_nodes", invariant_dag_nodes(report).into()),
        ("fingerprint_digest", digest.into()),
    ];
    if let Some(c) = &row.circuit {
        fields.push((
            "circuit",
            obj([
                ("inputs", c.inputs.into()),
                ("latches_total", c.latches_total.into()),
                ("latches_in_coi", c.latches_in_coi.into()),
                ("gates_total", c.gates_total.into()),
                ("gates_in_coi", c.gates_in_coi.into()),
                ("outputs", c.outputs.into()),
            ]),
        ));
    }
    fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

/// `x` rounded to `places` decimals exactly as `{:.places$}` formatting
/// rounds it, so a JSON number keeps the document's fixed precision.
fn rounded(x: f64, places: usize) -> Json {
    Json::Number(
        format!("{x:.places$}")
            .parse()
            .expect("a formatted float parses back"),
    )
}

/// Runs the learner-choice ablation (history vs k-tails) on one benchmark,
/// returning `(history_row, ktails_row)`.
pub fn run_learner_ablation(benchmark: &Benchmark) -> (ActiveRow, ActiveRow) {
    let history = run_active(
        benchmark,
        HistoryLearner::default(),
        quick_config(benchmark),
    );
    let ktails = run_active(benchmark, KTailsLearner::new(1), quick_config(benchmark));
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
        let report = &r.report;
        let solver = report.solver_stats();
        out.push_str(&format!(
            "{:<34} {:>3} {:>4} {:>3} {:>5.2} {:>3} {:>6.2} {:>9.2} {:>6.1} {:>7} {:>9.2} {:>6}\n",
            r.name,
            r.observables,
            r.k,
            report.iterations,
            r.d,
            report.num_states(),
            report.alpha,
            report.total_time.as_secs_f64(),
            report.learn_time_percentage(),
            solver.solve_calls,
            solver.solve_time.as_secs_f64(),
            report.verdict_cache.hits
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
        let report = &r.report;
        let solver = report.solver_stats();
        let checker = &report.checker_stats;
        let props_per_conflict = if solver.conflicts == 0 {
            0.0
        } else {
            solver.propagations as f64 / solver.conflicts as f64
        };
        out.push_str(&format!(
            "{:<34} {:>6} {:>6} {:>7} {:>7} {:>10} {:>6} {:>7} {:>5} {:>6} {:>7} {:>6.1} {:>7} {:>8} {:>8.1} {:>7} {:>5.1}\n",
            r.name,
            report.verdict_cache.hits,
            report.verdict_cache.misses,
            checker.kinduction_queries,
            checker.explicit_queries,
            checker.explicit_work,
            checker.disj_encoded,
            checker.disj_reused,
            checker.frames_encoded,
            checker.frames_reused,
            report.interner.nodes_interned,
            100.0 * report.interner.hit_rate(),
            report.interner.canonical_rewrites,
            solver.conflicts,
            props_per_conflict,
            solver.minimized_lits,
            solver.mean_lbd()
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
        let report = &r.report;
        out.push_str(&format!(
            "{:<34} {:>7} {:>7} {:>7} {:>9} {:>8} {:>8}\n",
            r.name,
            report.trace_count,
            report.trace_store.unique_observations,
            report.trace_store.segments,
            report.trace_store.approx_bytes_saved / 1024,
            report.word_stats.words_encoded,
            report.word_stats.words_reused
        ));
    }
    out.push('\n');
    for r in rows {
        let curve: Vec<String> = r
            .report
            .iteration_stats
            .iter()
            .map(|s| s.words_encoded.to_string())
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
            r.name,
            r.report.num_states(),
            r.report.alpha,
            r.report.time.as_secs_f64(),
            r.report.inputs_used
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_benchmarks::benchmark_by_name;
    use amle_core::OracleKind;
    use amle_serve::json::parse_json;

    #[test]
    fn active_row_for_the_cooler_matches_the_paper_shape() {
        let b = benchmark_by_name("HomeClimateControlCooler").unwrap();
        let row = run_active(&b, HistoryLearner::default(), quick_config(&b));
        assert_eq!(row.report.alpha, 1.0);
        assert_eq!(row.d, 1.0);
        assert!(row.report.num_states() >= 2);
        assert!(row.report.converged);
    }

    #[test]
    fn random_sampling_row_is_produced() {
        let b = benchmark_by_name("CountEvents").unwrap();
        let row = run_random_sampling(&b, 200);
        assert!(row.report.num_states() >= 1);
        assert!((0.0..=1.0).contains(&row.report.alpha));
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
        for (row, benchmark) in sharded.iter().zip(&suite) {
            assert_eq!(row.name, benchmark.name);
        }
    }

    #[test]
    fn portfolio_engine_matches_kinduction_and_fills_the_oracle_columns() {
        let b = benchmark_by_name("CountEvents").unwrap();
        // CountEvents' condition cost (256) is far below the routing
        // threshold, so the portfolio's explicit engine answers queries.
        let mut config = quick_config(&b);
        config.oracle.engine = OracleKind::Portfolio;
        let row = run_active(&b, HistoryLearner::default(), config);
        let mut baseline_config = quick_config(&b);
        baseline_config.oracle.engine = OracleKind::KInduction;
        let baseline = run_active(&b, HistoryLearner::default(), baseline_config);
        assert_eq!(
            row.report.semantic_fingerprint(b.system.vars()),
            baseline.report.semantic_fingerprint(b.system.vars()),
            "oracle engine leaked into the semantic fingerprint"
        );
        let checker = &row.report.checker_stats;
        assert!(
            checker.explicit_queries > 0,
            "explicit engine never consulted"
        );
        assert!(checker.explicit_work > 0);
        let table = format_oracle_table(&[row]);
        assert!(table.contains("exQ"));
        assert!(table.contains("CountEvents"));
    }

    #[test]
    fn verdict_cache_reduces_solve_calls_on_repeated_conditions() {
        let b = benchmark_by_name("CountEvents").unwrap();
        // Under the default portfolio CountEvents makes no solver calls, so
        // the SAT-work comparison pins the k-induction engine.
        let mut cached_config = quick_config(&b);
        cached_config.oracle.engine = OracleKind::KInduction;
        cached_config.oracle.verdict_cache = true;
        let mut uncached_config = quick_config(&b);
        uncached_config.oracle.engine = OracleKind::KInduction;
        uncached_config.oracle.verdict_cache = false;
        let cached = run_active(&b, HistoryLearner::default(), cached_config).report;
        let uncached = run_active(&b, HistoryLearner::default(), uncached_config).report;
        assert_eq!(
            cached.semantic_fingerprint(b.system.vars()),
            uncached.semantic_fingerprint(b.system.vars()),
            "verdict cache leaked into the semantic fingerprint"
        );
        // This benchmark re-extracts many conditions unchanged across its
        // iterations (deterministic seed), so the cache must hit — and every
        // hit is solver work the uncached run had to do.
        assert!(
            cached.verdict_cache.hits > 0,
            "cache never hit on CountEvents"
        );
        assert!(
            cached.solver_stats().solve_calls < uncached.solver_stats().solve_calls,
            "cache hits must translate into fewer solver calls"
        );
        assert_eq!(uncached.verdict_cache.hits, 0);
    }

    #[test]
    fn tables_format_cleanly() {
        let b = benchmark_by_name("MealyVendingMachine").unwrap();
        let row = run_active(&b, HistoryLearner::default(), quick_config(&b));
        let table = format_active_table(&[row]);
        assert!(table.contains("MealyVendingMachine"));
        assert!(table.lines().count() >= 2);
        let rrow = run_random_sampling(&b, 100);
        assert!(format_random_table(&[rrow]).contains("MealyVendingMachine"));
    }

    /// The interner statistics must flow from the run into the report and
    /// the oracle table: a real run interns predicate nodes, applies
    /// canonical rewrites while keying the verdict cache, and reports a
    /// nonzero invariant DAG size.
    ///
    /// The interner and its canonical memo are process-global, so this must
    /// run on a benchmark no other test in this binary touches — a repeat
    /// run of an already-seen benchmark legitimately interns ~nothing new.
    #[test]
    fn interner_stats_flow_into_rows_and_tables() {
        let b = benchmark_by_name("RedundantSensorPair").unwrap();
        // The disjunct ledger is k-induction's; pin that engine.
        let mut config = quick_config(&b);
        config.oracle.engine = OracleKind::KInduction;
        let row = run_active(&b, HistoryLearner::default(), config);
        let interner = &row.report.interner;
        assert!(interner.nodes_interned > 0, "a run must intern nodes");
        assert!(
            interner.canonical_rewrites > 0,
            "keying the verdict cache must apply canonical rewrites"
        );
        assert!((0.0..=1.0).contains(&interner.hit_rate()));
        assert!(invariant_dag_nodes(&row.report) > 0);
        assert!(
            row.report.checker_stats.disj_encoded > 0,
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
        let row = run_active(&b, HistoryLearner::default(), config);
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
        let json = suite_json(&meta, &suite, &[row]);
        let doc = parse_json(&json).unwrap();
        let circuit = doc.get("benchmarks").and_then(Json::as_array).unwrap()[0]
            .get("circuit")
            .expect("circuit records carry a circuit object");
        let field = |key: &str| circuit.get(key).and_then(Json::as_u64);
        assert_eq!(field("inputs"), Some(2));
        assert_eq!(field("latches_total"), Some(4));
        assert_eq!(field("latches_in_coi"), Some(1));
        assert_eq!(field("gates_in_coi"), Some(1));
        assert_eq!(field("gates_total"), Some(3));
        assert_eq!(field("outputs"), Some(1));
        // And the document still parses through the perf-diff consumer.
        let run = perf::parse_suite_run(&json).unwrap();
        assert_eq!(run.schema, 5);
        assert_eq!(run.benchmarks.len(), 1);
        // A non-circuit row renders an empty circuit table.
        let plain = benchmark_by_name("HomeClimateControlCooler").unwrap();
        let plain_row = run_active(&plain, HistoryLearner::default(), quick_config(&plain));
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

    /// The machine-readable suite output: one line of valid JSON, the run
    /// metadata and the digest of the suite fingerprint, and one record per
    /// benchmark whose keys are exactly the schema's and whose counters are
    /// its row's report.
    #[test]
    fn suite_json_shape() {
        let suite: Vec<_> = amle_benchmarks::full_suite()
            .into_iter()
            .filter(|b| b.name.starts_with("SynthGray"))
            .take(2)
            .collect();
        assert_eq!(suite.len(), 2);
        let rows = run_suite(&suite, 1, |b| {
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
        let json = suite_json(&meta, &suite, &rows);
        assert_eq!(json.lines().count(), 1, "one compact line");
        let doc = parse_json(&json).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("engine").and_then(Json::as_str), Some("kinduction"));
        assert_eq!(doc.get("learner").and_then(Json::as_str), Some("history"));
        assert_eq!(doc.get("wall_time_s").and_then(Json::as_f64), Some(0.25));
        assert_eq!(
            doc.get("fingerprint_digest").and_then(Json::as_str),
            Some(fingerprint_digest(&suite_fingerprint(&suite, &rows)).as_str())
        );
        let records = doc.get("benchmarks").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), rows.len());
        for ((record, row), benchmark) in records.iter().zip(&rows).zip(&suite) {
            let report = &row.report;
            let solver = report.solver_stats();
            let checker = &report.checker_stats;
            let interner = &report.interner;
            let counters = [
                ("iterations", report.iterations as u64),
                ("states", report.num_states() as u64),
                ("traces", report.trace_count as u64),
                ("solve_calls", solver.solve_calls),
                ("decisions", solver.decisions),
                ("propagations", solver.propagations),
                ("conflicts", solver.conflicts),
                ("minimized_lits", solver.minimized_lits),
                ("cache_hits", report.verdict_cache.hits),
                ("cache_misses", report.verdict_cache.misses),
                ("disj_encoded", checker.disj_encoded),
                ("disj_reused", checker.disj_reused),
                ("frames_encoded", checker.frames_encoded),
                ("frames_reused", checker.frames_reused),
                ("words_encoded", report.word_stats.words_encoded),
                ("words_reused", report.word_stats.words_reused),
                ("invariant_dag_nodes", invariant_dag_nodes(report)),
            ];
            for (key, value) in counters {
                assert_eq!(record.get(key).and_then(Json::as_u64), Some(value), "{key}");
            }
            let record_interner = record.get("interner").unwrap();
            for (key, value) in [
                ("nodes_interned", interner.nodes_interned),
                ("hits", interner.hits),
                ("canonical_rewrites", interner.canonical_rewrites),
            ] {
                assert_eq!(record_interner.get(key).and_then(Json::as_u64), Some(value));
            }
            let text = |key: &str| record.get(key).and_then(Json::as_str);
            assert_eq!(text("name"), Some(benchmark.name.as_str()));
            let digest = fingerprint_digest(&report.semantic_fingerprint(benchmark.system.vars()));
            assert_eq!(text("fingerprint_digest"), Some(digest.as_str()));
            assert_eq!(
                record.get("alpha").and_then(Json::as_f64),
                Some(report.alpha)
            );
            assert_eq!(record.get("d").and_then(Json::as_f64), Some(row.d));
            assert_eq!(
                record.get("converged").and_then(Json::as_bool),
                Some(report.converged)
            );
            // Exactly the schema's keys: synthetic benchmarks carry no
            // circuit stats object.
            let mut keys: Vec<&str> = counters.iter().map(|(key, _)| *key).collect();
            keys.extend([
                "alpha",
                "converged",
                "d",
                "fingerprint_digest",
                "interner",
                "mean_lbd",
                "name",
                "solver_time_s",
                "time_s",
            ]);
            keys.sort_unstable();
            let Json::Object(fields) = record else {
                panic!("record is not an object: {record:?}");
            };
            assert!(fields.keys().eq(keys), "{record:?}");
        }
    }
}
