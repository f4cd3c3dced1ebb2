//! Run reports, per-iteration statistics and extracted invariants.

use crate::engine::VerdictCacheStats;
use amle_automaton::{write_expr, Nfa};
use amle_checker::CheckerStats;
use amle_expr::{Expr, InternerStats, VarSet};
use amle_learner::WordStats;
use amle_sat::SolverStats;
use amle_system::TraceStoreStats;
use std::time::Duration;

/// An invariant of the implementation, extracted from the final abstraction:
/// every system transition from a state satisfying `assumption` leads to a
/// state satisfying `conclusion`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// The pre-state assumption `r`.
    pub assumption: Expr,
    /// The post-state guarantee `s` (a disjunction of outgoing predicates).
    pub conclusion: Expr,
}

impl Invariant {
    /// Renders the invariant with variable names, e.g.
    /// `(s_on) ∧ R ⟹ (inp_temp > 75 || !s_on')`.
    pub fn display(&self, vars: &VarSet) -> String {
        let mut out = String::new();
        self.write(&mut out, vars);
        out
    }

    /// Appends [`Invariant::display`]'s rendering to `out`.
    fn write(&self, out: &mut String, vars: &VarSet) {
        write_expr(out, &self.assumption, vars);
        out.push_str(" && R(X, X') => ");
        write_expr(out, &self.conclusion, vars);
        out.push('\'');
    }
}

/// Statistics of one learning iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Iteration number, starting at 1.
    pub iteration: usize,
    /// Number of completeness conditions extracted from the candidate model.
    pub conditions: usize,
    /// Number of conditions that held.
    pub conditions_holding: usize,
    /// Degree of completeness `α` of the candidate model.
    pub alpha: f64,
    /// Number of valid counterexamples converted into new traces.
    pub new_traces: usize,
    /// Number of counterexamples proven spurious (and blocked).
    pub spurious_counterexamples: usize,
    /// Number of inconclusive counterexamples (treated as valid, recorded).
    pub inconclusive_counterexamples: usize,
    /// Number of states of the candidate model.
    pub model_states: usize,
    /// Number of transitions of the candidate model.
    pub model_transitions: usize,
    /// Wall-clock time spent in the model-learning component this iteration.
    pub learn_time: Duration,
    /// Wall-clock time spent in condition checking this iteration.
    pub check_time: Duration,
    /// Abstract words the learner converted and encoded this iteration.
    /// With an incremental learner this stays proportional to the *new*
    /// traces per iteration instead of the full trace count.
    pub words_encoded: u64,
    /// Abstract words the learner reused from its incremental cache this
    /// iteration (zero for non-incremental learners).
    pub words_reused: u64,
    /// Conditions answered by the cross-iteration verdict cache this
    /// iteration (no oracle query at all); the other
    /// `conditions − cache_hits` were solved by a condition oracle.
    pub cache_hits: usize,
}

/// The result of an active-learning run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The final learned abstraction `M'`.
    pub abstraction: Nfa,
    /// Degree of completeness of the final abstraction (1.0 when converged).
    pub alpha: f64,
    /// Number of model-learning iterations performed (the paper's `i`).
    pub iterations: usize,
    /// `true` when every extracted condition was proven to hold.
    pub converged: bool,
    /// The conditions extracted from the final abstraction; when `converged`
    /// they are invariants of the implementation.
    pub invariants: Vec<Invariant>,
    /// Per-iteration statistics.
    pub iteration_stats: Vec<IterationStats>,
    /// Number of traces in the final training set.
    pub trace_count: usize,
    /// Total wall-clock time of the run (the paper's `T`).
    pub total_time: Duration,
    /// Total wall-clock time spent in the model-learning component.
    pub learn_time: Duration,
    /// Total wall-clock time spent in model checking.
    pub check_time: Duration,
    /// Model-checker statistics, including the aggregated backend SAT-solver
    /// statistics of the checking phase (`checker_stats.solver`) and the
    /// per-engine query attribution of the oracle portfolio.
    pub checker_stats: CheckerStats,
    /// Statistics of the cross-iteration verdict cache (hits, misses, live
    /// entries). All zero when the cache is disabled.
    pub verdict_cache: VerdictCacheStats,
    /// Aggregated backend SAT-solver statistics of the model-learning phase
    /// (zero for learners that do not reason with SAT).
    pub learner_solver_stats: SolverStats,
    /// Aggregated word-pipeline statistics of the model-learning phase:
    /// how much word conversion/encoding work ran versus how much the
    /// learner's incremental cache absorbed.
    pub word_stats: WordStats,
    /// Final statistics of the interned trace store the run accumulated its
    /// traces in (unique observations, shared segments, bytes saved).
    pub trace_store: TraceStoreStats,
    /// Expression-interner traffic during this run (nodes interned, intern
    /// hits, canonical rewrites applied). The underlying counters are
    /// process-global, so when several runs execute concurrently (the
    /// sharded suite) a run's delta includes its neighbours' traffic — a
    /// load indicator, deliberately excluded from the semantic fingerprint.
    pub interner: InternerStats,
}

impl RunReport {
    /// The percentage of total runtime attributed to model learning (the
    /// paper's `%Tm` column). Returns 0 when the total time is zero.
    pub fn learn_time_percentage(&self) -> f64 {
        let total = self.total_time.as_secs_f64();
        if total <= f64::EPSILON {
            0.0
        } else {
            100.0 * self.learn_time.as_secs_f64() / total
        }
    }

    /// Number of states of the final abstraction (the paper's `N` column).
    pub fn num_states(&self) -> usize {
        self.abstraction.num_states()
    }

    /// Combined backend SAT-solver statistics across the checking and
    /// learning phases of the run.
    pub fn solver_stats(&self) -> SolverStats {
        self.checker_stats.solver + self.learner_solver_stats
    }

    /// A canonical rendering of every semantically meaningful field of the
    /// report: the learned automaton (as DOT), the extracted invariants, the
    /// convergence data and the per-iteration verdict trajectory.
    ///
    /// Wall-clock durations and *work* counters — SAT query counts, solver
    /// internals, explicit-engine work units, verdict-cache hit counts — are
    /// excluded: they legitimately vary between worker counts, oracle
    /// engines and cache settings, while the semantics (which conditions
    /// held, which counterexamples were found, what was learned) must not.
    /// Everything that remains is guaranteed byte-identical across
    /// condition-engine worker counts, across `--engine
    /// kinduction`/`explicit`/`portfolio` and across verdict-cache on/off,
    /// which is what the differential tests and the suite runner's
    /// `--compare` mode assert.
    pub fn semantic_fingerprint(&self, vars: &VarSet) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "alpha={} iterations={} converged={} traces={}",
            self.alpha, self.iterations, self.converged, self.trace_count
        );
        for s in &self.iteration_stats {
            let _ = writeln!(
                out,
                "iter {}: conditions={}/{} alpha={} new_traces={} spurious={} inconclusive={} states={} transitions={}",
                s.iteration,
                s.conditions_holding,
                s.conditions,
                s.alpha,
                s.new_traces,
                s.spurious_counterexamples,
                s.inconclusive_counterexamples,
                s.model_states,
                s.model_transitions
            );
        }
        for invariant in &self.invariants {
            out.push_str("invariant: ");
            invariant.write(&mut out, vars);
            out.push('\n');
        }
        self.abstraction.write_dot(&mut out, vars);
        out
    }
}

/// A short, stable digest of a fingerprint string (FNV-1a 64, rendered as
/// 16 hex digits): compact enough to commit next to the CI workflow, to
/// carry in `suite --json` documents and to stream over the serving
/// protocol, yet any semantic drift in the underlying report changes it.
pub fn fingerprint_digest(fingerprint: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in fingerprint.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, VarSet};

    #[test]
    fn invariant_display_uses_names() {
        let mut vars = VarSet::new();
        let on = vars.declare("s_on", Sort::Bool).unwrap();
        let inv = Invariant {
            assumption: Expr::var(on, Sort::Bool),
            conclusion: Expr::var(on, Sort::Bool).not(),
        };
        let text = inv.display(&vars);
        assert!(text.contains("s_on"));
        assert!(text.contains("R(X, X')"));
    }

    #[test]
    fn learn_time_percentage() {
        let report = RunReport {
            abstraction: Nfa::new(),
            alpha: 1.0,
            iterations: 1,
            converged: true,
            invariants: Vec::new(),
            iteration_stats: Vec::new(),
            trace_count: 0,
            total_time: Duration::from_millis(200),
            learn_time: Duration::from_millis(50),
            check_time: Duration::from_millis(150),
            checker_stats: CheckerStats::default(),
            verdict_cache: VerdictCacheStats::default(),
            learner_solver_stats: SolverStats::default(),
            word_stats: WordStats::default(),
            trace_store: TraceStoreStats::default(),
            interner: InternerStats::default(),
        };
        assert!((report.learn_time_percentage() - 25.0).abs() < 1e-9);
        assert_eq!(report.num_states(), 0);

        let zero = RunReport {
            total_time: Duration::ZERO,
            ..report
        };
        assert_eq!(zero.learn_time_percentage(), 0.0);
    }
}
