//! The SAT-based bounded model checker with k-induction.
//!
//! The checker keeps **persistent incremental solver sessions** — one per
//! query shape — instead of bit-blasting a fresh CNF per query:
//!
//! * the *condition session* holds one unrolling of the transition relation
//!   (frames 0 → 1); per-query assumption/blocked/conclusion constraints are
//!   selected with assumption literals, so repeated condition checks share
//!   the transition clauses, Tseitin definitions and everything the solver
//!   learnt about them. The conclusion disjunction `⋁ outgoing'` is
//!   **delta-encoded**: each disjunct is Tseitin-encoded once, keyed by its
//!   canonical [`ExprId`] in a persistent ledger, and a query assumes the
//!   negation of exactly its disjuncts (`¬(⋁ dᵢ) = ⋀ ¬dᵢ`). An iteration
//!   that adds 3 outgoing transitions to a state with 80 existing ones
//!   therefore encodes 3 disjuncts, not 83 — and no or-chain spine at all.
//!   Disjuncts dropped from a later query are retracted by simply not
//!   assuming them; their definitional clauses stay but never bite;
//! * the *base session* holds `Init(X₀)` plus a growing unrolling of the
//!   transition relation; "the target state is hit within `k` steps" is
//!   **chain-encoded**: one activation literal per `(formula, frame)` pair
//!   with the clause `act_f → lit_f ∨ act_{f-1}`, assumed only at `act_k`.
//!   Growing `k → k+1` for a known formula therefore encodes one new frame
//!   literal and one chaining clause instead of a fresh clause re-listing
//!   every frame `0..=k+1`;
//! * the *step session* holds the same unrolling without `Init`; the
//!   k-induction step case is expressed purely through assumptions
//!   (`¬state` on frames `0..k`, `state` on frame `k`).
//!
//! Because the transition relation is a total function of the previous frame
//! and input ranges are non-empty, a longer unrolling never constrains a
//! shorter query — frames beyond `k` simply extend any witness — so sessions
//! can grow monotonically across queries with different bounds.
//!
//! Every session is built on first use, so a fresh checker per query gives
//! the original blob-per-query behaviour; the differential tests use that as
//! their from-scratch reference.

use amle_bitblast::Encoder;
use amle_expr::{Expr, ExprId, Valuation, Value, VarId};
use amle_sat::{ActivationLedger, Lit, SolveResult, SolverStats};
use amle_system::System;
use std::fmt;

/// Outcome of a single condition check (Fig. 3a of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// The condition holds on the system: for every transition from a state
    /// satisfying the assumption, the conclusion holds in the successor.
    Valid,
    /// The condition is violated; the counterexample is the offending
    /// transition `(v_t, v_{t+1})`.
    Violated {
        /// The pre-state of the counterexample transition.
        from: Valuation,
        /// The post-state of the counterexample transition.
        to: Valuation,
    },
}

impl CheckResult {
    /// Returns `true` if the condition holds.
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckResult::Valid)
    }
}

/// Outcome of a spurious-counterexample check (Fig. 3b of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpuriousResult {
    /// Both the base and the step case of the k-induction proof hold: the
    /// state is unreachable and the counterexample is spurious.
    Spurious,
    /// The base case failed: the state is reachable within `k` steps from an
    /// initial state, so the counterexample is definitely valid.
    Reachable,
    /// Only the step case failed: no conclusive evidence either way. The
    /// paper treats such counterexamples as valid but records them.
    Inconclusive,
}

/// Aggregate statistics of a checker instance (for the `%Tm` and runtime
/// columns of the evaluation tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Number of condition checks performed.
    pub condition_checks: u64,
    /// Number of spurious-counterexample checks performed.
    pub spurious_checks: u64,
    /// Queries (condition + spurious) answered by the k-induction engine.
    /// With a portfolio oracle this attributes each query to the engine that
    /// actually produced the verdict.
    pub kinduction_queries: u64,
    /// Queries (condition + spurious) answered by the explicit-state engine.
    pub explicit_queries: u64,
    /// Concrete work units (state and transition evaluations) spent by the
    /// explicit-state engine — its analogue of `solver.solve_calls`.
    pub explicit_work: u64,
    /// Conclusion disjuncts Tseitin-encoded for the first time in a
    /// condition session (once per distinct canonical disjunct).
    pub disj_encoded: u64,
    /// Conclusion disjuncts answered from the session's persistent ledger
    /// without re-encoding.
    pub disj_reused: u64,
    /// Base-session frame disjuncts encoded for the first time (one chain
    /// link per new `(formula, frame)` pair).
    pub frames_encoded: u64,
    /// Base-session frame disjuncts answered from the activation ledger
    /// without re-encoding.
    pub frames_reused: u64,
    /// Aggregated solver statistics across all sessions.
    pub solver: SolverStats,
}

impl std::ops::AddAssign for CheckerStats {
    fn add_assign(&mut self, rhs: CheckerStats) {
        self.condition_checks += rhs.condition_checks;
        self.spurious_checks += rhs.spurious_checks;
        self.kinduction_queries += rhs.kinduction_queries;
        self.explicit_queries += rhs.explicit_queries;
        self.explicit_work += rhs.explicit_work;
        self.disj_encoded += rhs.disj_encoded;
        self.disj_reused += rhs.disj_reused;
        self.frames_encoded += rhs.frames_encoded;
        self.frames_reused += rhs.frames_reused;
        self.solver += rhs.solver;
    }
}

impl std::ops::Add for CheckerStats {
    type Output = CheckerStats;

    fn add(mut self, rhs: CheckerStats) -> CheckerStats {
        self += rhs;
        self
    }
}

impl CheckerStats {
    /// The work done since an earlier snapshot of the same (accumulating)
    /// checker — counters are differenced, the embedded solver gauge passes
    /// through via [`SolverStats::since`]. This is what lets a long-lived
    /// oracle session attribute per-refinement work: snapshot before, `since`
    /// after.
    pub fn since(&self, earlier: &CheckerStats) -> CheckerStats {
        CheckerStats {
            condition_checks: self
                .condition_checks
                .saturating_sub(earlier.condition_checks),
            spurious_checks: self.spurious_checks.saturating_sub(earlier.spurious_checks),
            kinduction_queries: self
                .kinduction_queries
                .saturating_sub(earlier.kinduction_queries),
            explicit_queries: self
                .explicit_queries
                .saturating_sub(earlier.explicit_queries),
            explicit_work: self.explicit_work.saturating_sub(earlier.explicit_work),
            disj_encoded: self.disj_encoded.saturating_sub(earlier.disj_encoded),
            disj_reused: self.disj_reused.saturating_sub(earlier.disj_reused),
            frames_encoded: self.frames_encoded.saturating_sub(earlier.frames_encoded),
            frames_reused: self.frames_reused.saturating_sub(earlier.frames_reused),
            solver: self.solver.since(&earlier.solver),
        }
    }
}

/// One persistent session: an encoder and the solver it owns.
struct Session {
    enc: Encoder,
    /// Number of transition steps already unrolled (frames `0..=unrolled`
    /// exist and are linked).
    unrolled: usize,
    /// Activation literals already attached for "formula holds in some frame
    /// `0..=k`" disjunctions, keyed by `(interned formula id, k)` — an O(1)
    /// probe — so repeated base-case queries re-assume instead of re-adding
    /// the clause.
    activations: ActivationLedger<(ExprId, usize)>,
    /// Conclusion-disjunct ledger of the condition session: the frame-1
    /// Tseitin literal of each canonical disjunct already encoded. A query
    /// assumes the negations of exactly its disjuncts' literals; everything
    /// else stays retracted.
    disjuncts: ActivationLedger<ExprId>,
}

impl Session {
    fn new(system: &System) -> Self {
        Session {
            enc: Encoder::new(system.vars()),
            unrolled: 0,
            activations: ActivationLedger::new(),
            disjuncts: ActivationLedger::new(),
        }
    }

    /// Encodes one unrolling of the transition relation between `frame` and
    /// `frame + 1`: every state variable's next value is its update
    /// expression over `frame`, every input variable in `frame + 1` respects
    /// its range.
    fn encode_transition(&mut self, system: &System, frame: usize) {
        for id in system.state_vars() {
            self.enc
                .assert_var_equals_expr_across(frame + 1, *id, frame, system.update(*id));
        }
        let input_constraints = system.input_constraints_expr();
        self.enc.assert_expr(frame + 1, &input_constraints);
    }

    /// Grows the unrolling so that at least `steps` transitions exist.
    fn ensure_unrolled(&mut self, system: &System, steps: usize) {
        while self.unrolled < steps {
            let frame = self.unrolled;
            self.encode_transition(system, frame);
            self.unrolled += 1;
        }
    }

    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.enc.solver_mut().solve_with_assumptions(assumptions)
    }

    fn solver_stats(&self) -> SolverStats {
        self.enc.solver().stats()
    }
}

/// Bounded model checker with k-induction over a [`System`].
pub struct KInductionChecker<'a> {
    system: &'a System,
    stats: CheckerStats,
    /// Fig. 3a session: one transition unrolling, query via assumptions.
    condition: Option<Session>,
    /// Fig. 3b base-case session: `Init` plus a growing unrolling.
    base: Option<Session>,
    /// Fig. 3b step-case session: a growing unrolling without `Init`.
    step: Option<Session>,
}

impl fmt::Debug for KInductionChecker<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KInductionChecker")
            .field("system", &self.system.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'a> KInductionChecker<'a> {
    /// Creates a checker for the given system with persistent incremental
    /// sessions.
    pub fn new(system: &'a System) -> Self {
        KInductionChecker {
            system,
            stats: CheckerStats::default(),
            condition: None,
            base: None,
            step: None,
        }
    }

    /// Statistics accumulated so far, including aggregated solver statistics
    /// across every session this checker has driven.
    pub fn stats(&self) -> CheckerStats {
        let mut stats = self.stats;
        stats.solver = self.solver_stats();
        stats
    }

    /// Aggregated solver statistics across all sessions.
    pub fn solver_stats(&self) -> SolverStats {
        let mut total = SolverStats::default();
        for session in [&self.condition, &self.base, &self.step]
            .into_iter()
            .flatten()
        {
            total += session.solver_stats();
        }
        total
    }

    /// The condition session, created on first use: input constraints on
    /// frame 0 plus one transition unrolling (which constrains frame 1).
    fn condition_session(system: &System) -> Session {
        let mut session = Session::new(system);
        let input_constraints = system.input_constraints_expr();
        session.enc.assert_expr(0, &input_constraints);
        session.ensure_unrolled(system, 1);
        session
    }

    /// The base-case session: `Init(X₀)`; the unrolling grows per query.
    fn base_session(system: &System) -> Session {
        let mut session = Session::new(system);
        let init = system.init_expr();
        session.enc.assert_expr(0, &init);
        session
    }

    /// The step-case session: input constraints on frame 0; the unrolling
    /// grows per query.
    fn step_session(system: &System) -> Session {
        let mut session = Session::new(system);
        let input_constraints = system.input_constraints_expr();
        session.enc.assert_expr(0, &input_constraints);
        session
    }

    /// Runs a condition query against a session. The session must contain
    /// the one-step transition unrolling; everything query-specific travels
    /// through assumptions. `outgoing` holds the *canonical* conclusion
    /// disjuncts.
    ///
    /// The query assumes `¬dᵢ` per disjunct — semantically `¬(⋁ dᵢ)` — with
    /// each `dᵢ` encoded at most once per session via the disjunct ledger
    /// and no or-chain spine ever built.
    fn condition_query(
        stats: &mut CheckerStats,
        session: &mut Session,
        system: &System,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        let mut assumptions = Vec::with_capacity(blocked.len() + outgoing.len() + 1);
        assumptions.push(session.enc.encode_bool(0, assumption));
        for blocked_state in blocked {
            assumptions.push(!session.enc.encode_bool(0, blocked_state));
        }
        let (fresh, reused) = (session.disjuncts.fresh(), session.disjuncts.reused());
        for disjunct in outgoing {
            let lit = session
                .disjuncts
                .get_or_insert_with(disjunct.id(), || session.enc.encode_bool(1, disjunct));
            assumptions.push(!lit);
        }
        stats.disj_encoded += session.disjuncts.fresh() - fresh;
        stats.disj_reused += session.disjuncts.reused() - reused;
        match session.solve(&assumptions) {
            SolveResult::Unsat => CheckResult::Valid,
            SolveResult::Sat => {
                let (from, to) = Self::canonical_transition(session, system, assumptions);
                CheckResult::Violated { from, to }
            }
        }
    }

    /// Extracts the **canonical** (lexicographically minimal) counterexample
    /// transition of a satisfiable condition query.
    ///
    /// A CDCL solver's satisfying model depends on its clause-learning and
    /// phase-saving history, so two sessions that served different query
    /// sequences can return different (equally valid) counterexamples for the
    /// same query. The active-learning loop feeds counterexamples back into
    /// the trace set, so that nondeterminism would compound into different
    /// learned models. Canonicalisation removes it: starting from the query
    /// assumptions, each free variable bit is probed in a fixed order
    /// (frame 0 before frame 1, declaration order, most significant bit
    /// first) and pinned to 0 whenever the query stays satisfiable, to 1
    /// otherwise. Frame-1 *state* bits are functionally implied by the
    /// transition clauses once frame 0 is pinned, so they are not probed:
    /// their values are read off the update expressions directly. The result
    /// is the unique minimal satisfying transition — a pure function of the
    /// query semantics, independent of solver history, session reuse and
    /// worker count (the probe set is static, so even the per-counterexample
    /// solve count is deterministic).
    fn canonical_transition(
        session: &mut Session,
        system: &System,
        mut fixed: Vec<Lit>,
    ) -> (Valuation, Valuation) {
        let vars = system.vars();
        let mut probe_var = |frame: usize, id: VarId| {
            let word = session.enc.word(frame, id);
            let mut raw: i64 = 0;
            for b in (0..word.bits().len()).rev() {
                let bit = word.bits()[b];
                fixed.push(!bit);
                if session.solve(&fixed) == SolveResult::Unsat {
                    // The bit is forced to 1 under everything pinned so far;
                    // flip the assumption and keep going.
                    fixed.pop();
                    fixed.push(bit);
                    raw |= 1 << b;
                }
            }
            Value::from_i64(vars.sort(id), raw)
        };
        let mut from = Valuation::zeroed(vars);
        for (id, _) in vars.iter() {
            from.set(id, probe_var(0, id));
        }
        let mut to = Valuation::zeroed(vars);
        for id in system.input_vars() {
            to.set(*id, probe_var(1, *id));
        }
        for id in system.state_vars() {
            to.set(*id, system.update(*id).eval(&from));
        }
        (from, to)
    }

    /// Runs the k-induction base case against a session holding `Init`:
    /// is the state reachable within `k` steps? The per-query disjunction
    /// "state holds in some frame `0..=k`" is attached behind activation
    /// literals so it can be retracted by simply not assuming it.
    ///
    /// The disjunction is a **chain**: one activation literal `act_f` per
    /// `(formula, frame)` pair with the clause `act_f → lit_f ∨ act_{f-1}`,
    /// and the query assumes only `act_k`. Assuming `act_k` forces the
    /// formula to hold in some frame `≤ k` (the one-directional Tseitin chain
    /// unrolls to the full disjunction), so growing `k → k+1` for a known
    /// formula encodes exactly one new frame literal and one
    /// two-or-three-literal chaining clause instead of a fresh
    /// `k+2`-literal clause re-listing every frame. There is exactly one
    /// solve per query.
    fn base_query(
        stats: &mut CheckerStats,
        session: &mut Session,
        system: &System,
        state_formula: &Expr,
        k: usize,
    ) -> SolveResult {
        session.ensure_unrolled(system, k);
        let enc = &mut session.enc;
        let (fresh, reused) = (session.activations.fresh(), session.activations.reused());
        let mut prev: Option<Lit> = None;
        for frame in 0..=k {
            let act = session
                .activations
                .get_or_insert_with((state_formula.id(), frame), || {
                    let lit = enc.encode_bool(frame, state_formula);
                    let act = Lit::positive(enc.solver_mut().new_var());
                    let mut clause = vec![!act, lit];
                    clause.extend(prev);
                    enc.solver_mut().add_clause(clause);
                    act
                });
            prev = Some(act);
        }
        stats.frames_encoded += session.activations.fresh() - fresh;
        stats.frames_reused += session.activations.reused() - reused;
        let act = prev.expect("0..=k is never empty");
        session.solve(&[act])
    }

    /// Runs the k-induction step case against a session without `Init`:
    /// `¬state` on frames `0..k`, one more transition, `state` on frame `k` —
    /// expressed entirely through assumptions.
    fn step_query(
        session: &mut Session,
        system: &System,
        state_formula: &Expr,
        k: usize,
    ) -> SolveResult {
        session.ensure_unrolled(system, k);
        let mut assumptions = Vec::with_capacity(k + 1);
        for frame in 0..k {
            assumptions.push(!session.enc.encode_bool(frame, state_formula));
        }
        assumptions.push(session.enc.encode_bool(k, state_formula));
        session.solve(&assumptions)
    }

    /// Checks a condition of the form
    /// `assume(r); X' = f(X); assert(s)` (Fig. 3a): is there a transition
    /// from a state satisfying `r` (and none of the `blocked` states) whose
    /// successor violates `s`?
    ///
    /// `blocked` holds the state formulas `s'` of counterexamples already
    /// proven spurious; they strengthen the assumption to `r ∧ ¬s'` exactly as
    /// in Section III-C of the paper.
    ///
    /// The conclusion `s` is handed over as its disjuncts `⋁ outgoing'`, the
    /// structured form the learning loop produces (a single conclusion is
    /// passed with [`std::slice::from_ref`]). This is what makes the
    /// conclusion incremental: each canonical disjunct is encoded into the
    /// condition session at most once (see the module documentation), so a
    /// growing outgoing set costs only its delta.
    pub fn check_condition(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        self.stats.condition_checks += 1;
        self.stats.kinduction_queries += 1;
        // Session reuse works on canonical query forms: semantically
        // identical predicates assembled in different shapes share one set
        // of Tseitin definitions and assumption literals inside the
        // persistent session. Verdicts and (canonicalised) counterexamples
        // are untouched — the rewrites are semantics-preserving.
        let assumption = assumption.canonical();
        let blocked: Vec<Expr> = blocked.iter().map(Expr::canonical).collect();
        let outgoing: Vec<Expr> = outgoing.iter().map(Expr::canonical).collect();
        let system = self.system;
        let session = self
            .condition
            .get_or_insert_with(|| Self::condition_session(system));
        Self::condition_query(
            &mut self.stats,
            session,
            system,
            &assumption,
            &blocked,
            &outgoing,
        )
    }

    /// Spurious-counterexample check (Fig. 3b): decides by k-induction with
    /// bound `k` whether the state characterised by `state_formula` is
    /// unreachable from the initial states.
    ///
    /// * base case: no path of length `0..=k` from an `Init` state reaches the
    ///   state — checked by asserting `Init(X_0)`, unrolling `k` transitions
    ///   and asserting that the state holds at some frame;
    /// * step case: there is no path of `k` consecutive non-`state` valuations
    ///   followed by a transition into the state.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn check_spurious(&mut self, state_formula: &Expr, k: usize) -> SpuriousResult {
        assert!(k > 0, "k-induction bound must be positive");
        self.stats.spurious_checks += 1;
        self.stats.kinduction_queries += 1;
        // Same-state queries built in different shapes share the activation
        // literal and the per-frame encodings of both sessions.
        let state_formula = &state_formula.canonical();

        let system = self.system;
        let base = self.base.get_or_insert_with(|| Self::base_session(system));
        if Self::base_query(&mut self.stats, base, system, state_formula, k) == SolveResult::Sat {
            return SpuriousResult::Reachable;
        }

        let step = self.step.get_or_insert_with(|| Self::step_session(system));
        if Self::step_query(step, system, state_formula, k) == SolveResult::Unsat {
            SpuriousResult::Spurious
        } else {
            SpuriousResult::Inconclusive
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitChecker;
    use crate::oracle::state_formula;
    use amle_expr::{Sort, Value};
    use amle_system::SystemBuilder;

    /// A saturating counter 0..=5 driven by an enable input; `flag` is true
    /// exactly when the counter is at its limit.
    fn saturating_counter() -> System {
        let mut b = SystemBuilder::new();
        b.name("sat_counter");
        let en = b.input("en", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(4), Value::Int(0)).unwrap();
        let flag = b.state("flag", Sort::Bool, Value::Bool(false)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(5, 4))
            .ite(&ce.add(&Expr::int_val(1, 4)), &ce);
        let next_c = b.var(en).ite(&bumped, &ce);
        b.update(c, next_c.clone()).unwrap();
        b.update(flag, next_c.ge(&Expr::int_val(5, 4))).unwrap();
        b.build().unwrap()
    }

    fn var_expr(sys: &System, name: &str) -> Expr {
        let id = sys.vars().lookup(name).unwrap();
        sys.var(id)
    }

    #[test]
    fn valid_condition_is_proved() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        // From any state with c <= 5, after one step c <= 5 still holds
        // (the counter saturates).
        let c = var_expr(&sys, "c");
        let assumption = c.le(&Expr::int_val(5, 4));
        let conclusion = c.le(&Expr::int_val(5, 4));
        assert!(checker
            .check_condition(&assumption, &[], std::slice::from_ref(&conclusion))
            .is_valid());
        assert_eq!(checker.stats().condition_checks, 1);
        assert!(checker.stats().solver.solve_calls >= 1);
    }

    #[test]
    fn violated_condition_returns_a_real_transition() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        // "After one step the counter is never 3" is violated from c = 2 with
        // the enable input set.
        let c = var_expr(&sys, "c");
        let assumption = Expr::true_();
        let conclusion = c.ne(&Expr::int_val(3, 4));
        match checker.check_condition(&assumption, &[], &[conclusion]) {
            CheckResult::Valid => panic!("condition should be violated"),
            CheckResult::Violated { from, to } => {
                assert!(
                    sys.is_transition(&from, &to),
                    "counterexample must be a transition"
                );
                let c_id = sys.vars().lookup("c").unwrap();
                assert_eq!(to.value(c_id).to_i64(), 3);
            }
        }
    }

    #[test]
    fn blocking_states_strengthens_the_assumption() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        let c = var_expr(&sys, "c");
        // Without blocking, "next c != 3" is violated (from c = 2).
        let conclusion = [c.ne(&Expr::int_val(3, 4))];
        let unblocked = checker.check_condition(&Expr::true_(), &[], &conclusion);
        assert!(!unblocked.is_valid());
        // Blocking both offending pre-states (c = 2 with the counter enabled
        // and c = 3 idling in place) makes the check pass.
        let blocked = vec![c.eq(&Expr::int_val(2, 4)), c.eq(&Expr::int_val(3, 4))];
        assert!(checker
            .check_condition(&Expr::true_(), &blocked, &conclusion)
            .is_valid());
    }

    #[test]
    fn initial_condition_check() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        let c = var_expr(&sys, "c");
        let init = sys.init_expr();
        // From Init (c = 0), one step leads to c = 0 or c = 1.
        let outgoing = vec![c.eq(&Expr::int_val(0, 4)), c.eq(&Expr::int_val(1, 4))];
        assert!(checker.check_condition(&init, &[], &outgoing).is_valid());
        // Claiming the successor is always exactly 1 is violated (en = false).
        let too_strong = vec![c.eq(&Expr::int_val(1, 4))];
        assert!(!checker.check_condition(&init, &[], &too_strong).is_valid());
    }

    #[test]
    fn unreachable_state_is_spurious() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        let c_id = sys.vars().lookup("c").unwrap();
        let flag_id = sys.vars().lookup("flag").unwrap();
        // flag = true with c = 0 is unreachable: flag is true only when the
        // counter has saturated.
        let mut ghost = sys.initial_valuation();
        ghost.set(c_id, Value::Int(0));
        ghost.set(flag_id, Value::Bool(true));
        let formula = state_formula(sys.vars(), &ghost, &[c_id, flag_id]);
        assert_eq!(
            checker.check_spurious(&formula, 8),
            SpuriousResult::Spurious
        );
        assert_eq!(checker.stats().spurious_checks, 1);
    }

    #[test]
    fn reachable_state_is_detected_in_base_case() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        let c_id = sys.vars().lookup("c").unwrap();
        let mut target = sys.initial_valuation();
        target.set(c_id, Value::Int(3));
        let formula = state_formula(sys.vars(), &target, &[c_id]);
        assert_eq!(
            checker.check_spurious(&formula, 5),
            SpuriousResult::Reachable
        );
    }

    #[test]
    fn too_small_bound_is_inconclusive_or_reachable_but_never_spurious_for_reachable_states() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        let c_id = sys.vars().lookup("c").unwrap();
        // c = 5 is reachable but only after 5 steps; with k = 2 the base case
        // cannot find it and the step case cannot exclude it.
        let mut target = sys.initial_valuation();
        target.set(c_id, Value::Int(5));
        let formula = state_formula(sys.vars(), &target, &[c_id]);
        let result = checker.check_spurious(&formula, 2);
        assert_ne!(result, SpuriousResult::Spurious);
        // With a sufficiently large bound the base case finds the path.
        assert_eq!(
            checker.check_spurious(&formula, 6),
            SpuriousResult::Reachable
        );
    }

    #[test]
    fn state_formula_mentions_only_requested_variables() {
        let sys = saturating_counter();
        let c_id = sys.vars().lookup("c").unwrap();
        let v = sys.initial_valuation();
        let formula = state_formula(sys.vars(), &v, &[c_id]);
        assert_eq!(formula.free_vars().len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bound_is_rejected() {
        let sys = saturating_counter();
        let mut checker = KInductionChecker::new(&sys);
        let _ = checker.check_spurious(&Expr::true_(), 0);
    }

    #[test]
    fn checkers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<KInductionChecker<'static>>();
        assert_send::<CheckResult>();
        assert_send::<SpuriousResult>();
    }

    #[test]
    fn retracted_disjuncts_never_poison_the_session() {
        // The delta-encoded conclusion ledger keeps Tseitin clauses of every
        // disjunct ever encoded; a later query that *drops* a disjunct must
        // not be influenced by the stale encoding. Sequence: prove the
        // initial condition with {c=0, c=1}, retract c=1, and require the
        // weakened condition to be Violated with exactly the counterexample
        // a cold checker produces.
        let sys = saturating_counter();
        let c = var_expr(&sys, "c");
        let d0 = c.eq(&Expr::int_val(0, 4));
        let d1 = c.eq(&Expr::int_val(1, 4));
        let init = sys.init_expr();

        let mut warm = KInductionChecker::new(&sys);
        assert!(warm
            .check_condition(&init, &[], &[d0.clone(), d1.clone()])
            .is_valid());
        let stats = warm.stats();
        assert_eq!(stats.disj_encoded, 2);
        assert_eq!(stats.disj_reused, 0);

        // Retracted d1: its clauses stay in the solver but are not assumed.
        let weakened = warm.check_condition(&init, &[], std::slice::from_ref(&d0));
        let mut cold = KInductionChecker::new(&sys);
        let reference = cold.check_condition(&init, &[], std::slice::from_ref(&d0));
        assert!(!reference.is_valid(), "weakened condition must be violated");
        assert_eq!(weakened, reference, "stale disjunct influenced a verdict");
        let stats = warm.stats();
        assert_eq!(stats.disj_encoded, 2, "retraction must not re-encode");
        assert_eq!(stats.disj_reused, 1);

        // Re-adding the retracted disjunct reuses both ledger entries and
        // restores the original verdict.
        assert!(warm.check_condition(&init, &[], &[d0, d1]).is_valid());
        let stats = warm.stats();
        assert_eq!(stats.disj_encoded, 2);
        assert_eq!(stats.disj_reused, 3);
    }

    #[test]
    fn delta_and_full_conclusion_encodings_agree() {
        // The delta-encoded session against two references: a fresh checker
        // per query, which encodes every conclusion in full, and the explicit
        // engine. The same query sequence (growing, shrinking and permuted
        // conclusions) must give byte-identical verdicts and counterexamples.
        let sys = saturating_counter();
        let c = var_expr(&sys, "c");
        let disjuncts = [
            c.eq(&Expr::int_val(0, 4)),
            c.eq(&Expr::int_val(1, 4)),
            c.eq(&Expr::int_val(2, 4)),
        ];
        let mut delta = KInductionChecker::new(&sys);
        let mut full_solve_calls = 0;
        let mut explicit = ExplicitChecker::new(&sys);
        let init = sys.init_expr();
        let queries: [&[Expr]; 5] = [
            &disjuncts[0..2],
            &disjuncts[0..3],
            &disjuncts[0..1],
            &[disjuncts[2].clone(), disjuncts[0].clone()],
            &[],
        ];
        for outgoing in queries {
            let result = delta.check_condition(&init, &[], outgoing);
            let mut full = KInductionChecker::new(&sys);
            assert_eq!(
                result,
                full.check_condition(&init, &[], outgoing),
                "fresh sessions disagree on {outgoing:?}"
            );
            full_solve_calls += full.stats().solver.solve_calls;
            assert_eq!(
                result,
                explicit.check_condition(&init, &[], outgoing),
                "explicit engine disagrees on {outgoing:?}"
            );
        }
        // Same number of solver queries either way — only encoding differs.
        assert_eq!(
            delta.stats().solver.solve_calls,
            full_solve_calls,
            "delta encoding changed the query count"
        );
    }

    #[test]
    fn base_chain_reuses_frames_across_growing_bounds() {
        // Growing k → k+1 for the same formula must encode exactly one new
        // chain link; shrinking back re-assumes an interior link without
        // touching the ledger's fresh count.
        let sys = saturating_counter();
        let c_id = sys.vars().lookup("c").unwrap();
        let flag_id = sys.vars().lookup("flag").unwrap();
        let mut checker = KInductionChecker::new(&sys);
        let mut ghost = sys.initial_valuation();
        ghost.set(c_id, Value::Int(0));
        ghost.set(flag_id, Value::Bool(true));
        let formula = state_formula(sys.vars(), &ghost, &[c_id, flag_id]);

        assert_eq!(
            checker.check_spurious(&formula, 4),
            SpuriousResult::Spurious
        );
        let stats = checker.stats();
        assert_eq!(stats.frames_encoded, 5, "k=4 encodes frames 0..=4");
        assert_eq!(stats.frames_reused, 0);

        // k=5: one new link, five reused.
        assert_eq!(
            checker.check_spurious(&formula, 5),
            SpuriousResult::Spurious
        );
        let stats = checker.stats();
        assert_eq!(stats.frames_encoded, 6);
        assert_eq!(stats.frames_reused, 5);

        // Back to k=3: a pure-reuse interior query.
        assert_eq!(
            checker.check_spurious(&formula, 3),
            SpuriousResult::Spurious
        );
        let stats = checker.stats();
        assert_eq!(stats.frames_encoded, 6, "shrinking must not re-encode");
        assert_eq!(stats.frames_reused, 9);
    }

    #[test]
    fn chained_and_full_base_encodings_agree() {
        // The chained base session against two references: a fresh checker
        // per query, which encodes the whole `0..=k` disjunction, and the
        // explicit engine. The same spurious-check sequence (growing,
        // repeated and shrinking bounds, reachable and unreachable targets)
        // must give identical verdicts, with identical solve counts summed
        // over the fresh checkers.
        let sys = saturating_counter();
        let c_id = sys.vars().lookup("c").unwrap();
        let flag_id = sys.vars().lookup("flag").unwrap();
        let mut delta = KInductionChecker::new(&sys);
        let mut full_solve_calls = 0;
        let mut explicit = ExplicitChecker::new(&sys);

        let mut ghost = sys.initial_valuation();
        ghost.set(c_id, Value::Int(0));
        ghost.set(flag_id, Value::Bool(true));
        let unreachable = state_formula(sys.vars(), &ghost, &[c_id, flag_id]);
        let mut target = sys.initial_valuation();
        target.set(c_id, Value::Int(3));
        let reachable = state_formula(sys.vars(), &target, &[c_id]);

        let queries = [
            (&unreachable, 2),
            (&unreachable, 3),
            (&unreachable, 3),
            (&reachable, 5),
            (&unreachable, 1),
            (&reachable, 6),
        ];
        for (formula, k) in queries {
            let result = delta.check_spurious(formula, k);
            let mut full = KInductionChecker::new(&sys);
            assert_eq!(
                result,
                full.check_spurious(formula, k),
                "fresh sessions disagree at k={k}"
            );
            full_solve_calls += full.stats().solver.solve_calls;
            assert_eq!(
                result,
                explicit.check_spurious(formula, k),
                "explicit engine disagrees at k={k}"
            );
        }
        assert_eq!(
            delta.stats().solver.solve_calls,
            full_solve_calls,
            "base chaining changed the query count"
        );
        // The chain amortises: by the end reuse dominates fresh encodes.
        let stats = delta.stats();
        assert!(
            stats.frames_reused > stats.frames_encoded,
            "reuse {} should dominate encodes {}",
            stats.frames_reused,
            stats.frames_encoded
        );
    }

    #[test]
    fn counterexamples_are_canonical_across_sessions_and_forks() {
        let sys = saturating_counter();
        let c = var_expr(&sys, "c");
        let conclusion = [c.ne(&Expr::int_val(3, 4))];

        // A fresh checker answering the query cold.
        let mut cold = KInductionChecker::new(&sys);
        let direct = cold.check_condition(&Expr::true_(), &[], &conclusion);

        // A warmed-up checker whose condition session served unrelated
        // queries first (different learnt clauses and saved phases).
        let mut warm = KInductionChecker::new(&sys);
        let side = c.le(&Expr::int_val(5, 4));
        assert!(warm
            .check_condition(&side, &[], std::slice::from_ref(&side))
            .is_valid());
        let _ = warm.check_condition(&Expr::true_(), &[], &[c.ne(&Expr::int_val(1, 4))]);
        let warmed = warm.check_condition(&Expr::true_(), &[], &conclusion);

        // And the from-scratch reference: a fresh checker for this query.
        let oracle = KInductionChecker::new(&sys).check_condition(&Expr::true_(), &[], &conclusion);

        assert_eq!(direct, warmed, "session history changed the model");
        assert_eq!(direct, oracle, "the from-scratch reference disagrees");
        match direct {
            CheckResult::Valid => panic!("condition should be violated"),
            CheckResult::Violated { from, to } => {
                assert!(sys.is_transition(&from, &to));
            }
        }
    }
}
