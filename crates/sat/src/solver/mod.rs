//! The CDCL solver.
//!
//! The search core is split across focused submodules:
//!
//! * [`clause_db`] — the flat `u32` clause arena ([`clause_db::ClauseRef`],
//!   per-clause LBD and activity, tombstone-and-compact garbage collection);
//! * [`propagate`] — two-watched-literal propagation with blocker literals
//!   and the dense lbool assignment array;
//! * [`decision`] — the indexed VSIDS max-heap behind branching decisions;
//! * [`analyze`] — first-UIP conflict analysis with recursive learnt-clause
//!   minimization and learn-time LBD computation.
//!
//! This module owns the [`Solver`] state, the public API and the top-level
//! search loop (assumption handling, Luby restarts, clause-database
//! reduction).

mod analyze;
mod clause_db;
mod decision;
mod propagate;

use crate::{Lit, Var};
use clause_db::{ClauseDb, ClauseRef};
use decision::VsidsHeap;
use propagate::Watcher;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::{Duration, Instant};

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// The formula (under the given assumptions) is satisfiable; a model is
    /// available through [`Solver::value`] / [`Solver::model`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

/// Aggregate statistics of a solver instance, useful for benchmark reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database. This is a
    /// point-in-time **gauge**, not a counter: aggregating statistics from
    /// several solver sessions (`+`/`+=`) takes the maximum of the
    /// per-session snapshots (summing gauges would overstate the live count),
    /// and [`SolverStats::since`] passes the current gauge value through
    /// unchanged rather than differencing it.
    pub learnt_clauses: u64,
    /// Number of `solve` / `solve_with_assumptions` calls.
    pub solve_calls: u64,
    /// Cumulative wall-clock time spent inside `solve`.
    pub solve_time: Duration,
    /// Literals removed from learnt clauses by recursive (MiniSat-style)
    /// conflict-clause minimization before attachment.
    pub minimized_lits: u64,
    /// Sum of the LBD ("glue") values of all stored learnt clauses, as
    /// computed at learn time. Divide by [`SolverStats::lbd_clauses`] (or
    /// call [`SolverStats::mean_lbd`]) for the mean glue — low means the
    /// solver is learning reusable clauses.
    pub lbd_sum: u64,
    /// Number of learnt clauses that contributed to
    /// [`SolverStats::lbd_sum`] (unit learnts are asserted on the trail, not
    /// stored, and carry no LBD).
    pub lbd_clauses: u64,
}

impl AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.conflicts += rhs.conflicts;
        self.restarts += rhs.restarts;
        // Gauge, not counter: the aggregate of per-session snapshots is the
        // largest live database, not their sum.
        self.learnt_clauses = self.learnt_clauses.max(rhs.learnt_clauses);
        self.solve_calls += rhs.solve_calls;
        self.solve_time += rhs.solve_time;
        self.minimized_lits += rhs.minimized_lits;
        self.lbd_sum += rhs.lbd_sum;
        self.lbd_clauses += rhs.lbd_clauses;
    }
}

impl Add for SolverStats {
    type Output = SolverStats;

    fn add(mut self, rhs: SolverStats) -> SolverStats {
        self += rhs;
        self
    }
}

impl SolverStats {
    /// The work done since an earlier snapshot of the same (accumulating)
    /// statistics: componentwise saturating subtraction for the counters.
    /// `learnt_clauses` is a gauge, so the *current* value passes through
    /// unchanged — a difference of snapshots of a quantity that also shrinks
    /// (database reduction) would be meaningless.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses,
            solve_calls: self.solve_calls.saturating_sub(earlier.solve_calls),
            solve_time: self.solve_time.saturating_sub(earlier.solve_time),
            minimized_lits: self.minimized_lits.saturating_sub(earlier.minimized_lits),
            lbd_sum: self.lbd_sum.saturating_sub(earlier.lbd_sum),
            lbd_clauses: self.lbd_clauses.saturating_sub(earlier.lbd_clauses),
        }
    }

    /// Mean LBD (glue) of the learnt clauses recorded in these statistics,
    /// or 0 when none were stored.
    pub fn mean_lbd(&self) -> f64 {
        if self.lbd_clauses == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.lbd_clauses as f64
        }
    }
}

// Dense lbool encoding of the assignment, indexed by **literal code**: a
// literal and its negation occupy adjacent slots, so reading a literal's
// truth value is one unconditional array probe — no `Option<bool>` branch,
// no sign fix-up — which is what the propagation inner loop wants.
const LTRUE: u8 = 0;
const LFALSE: u8 = 1;
const LUNDEF: u8 = 2;

// The search policy. None of it can change a verdict; the unit and glue
// were picked with min-of-3 `suite --quick` runs.

/// Conflicts per Luby unit: 50 rather than 100 (with [`GLUE_LBD`] 4) cut
/// quick-suite conflicts 2.5% and wall/solver time 9%/8%.
const LUBY_UNIT: u64 = 50;
/// Learnt-budget growth per database reduction: MiniSat's 10%, the
/// baseline the unit and glue were tuned against.
const LEARNT_GROWTH: f64 = 1.1;
/// LBD at or below which a learnt clause survives every reduction: 4
/// rather than 2, retuned together with [`LUBY_UNIT`].
const GLUE_LBD: u32 = 4;

/// A CDCL SAT solver.
///
/// See the [crate documentation](crate) for the feature list and an example.
/// Typical use: allocate variables with [`Solver::new_var`], add clauses with
/// [`Solver::add_clause`], call [`Solver::solve`] (or
/// [`Solver::solve_with_assumptions`]) and read the model back with
/// [`Solver::value`].
pub struct Solver {
    /// The flat clause arena (originals + learnts) and learnt index.
    db: ClauseDb,
    /// Watcher lists indexed by literal code: watchers of `p` are the
    /// clauses to revisit when `p` becomes **false**.
    watches: Vec<Vec<Watcher>>,
    /// lbool per literal code (see [`LTRUE`]/[`LFALSE`]/[`LUNDEF`]).
    value: Vec<u8>,
    /// Saved phases persist across solve calls: a session's successive
    /// queries are near-identical, so the last polarities are the best guess.
    saved_phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    /// VSIDS decision order (owns the activities).
    order: VsidsHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    model_valid: bool,
    seen: Vec<bool>,
    /// Scratch for conflict analysis: literals whose `seen` flag must be
    /// cleared, and the DFS stack of the recursive minimization.
    analyze_toclear: Vec<Lit>,
    analyze_stack: Vec<Lit>,
    /// Level-stamping scratch for O(clause) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_marker: u64,
    stats: SolverStats,
    max_learnts: f64,
    /// Test hook: forces a tiny learnt-clause budget so database reduction
    /// and arena GC run on small instances.
    #[cfg(test)]
    max_learnts_override: Option<f64>,
    /// Test hook: overrides [`LUBY_UNIT`] so small instances restart.
    #[cfg(test)]
    pub(crate) luby_unit_override: Option<u64>,
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_clauses", &self.num_clauses())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            value: Vec::new(),
            saved_phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            order: VsidsHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            model_valid: false,
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            analyze_stack: Vec::new(),
            lbd_stamp: vec![0],
            lbd_marker: 0,
            stats: SolverStats::default(),
            max_learnts: 0.0,
            #[cfg(test)]
            max_learnts_override: None,
            #[cfg(test)]
            luby_unit_override: None,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.level.len());
        self.value.push(LUNDEF);
        self.value.push(LUNDEF);
        self.saved_phase.push(false);
        self.level.push(0);
        self.reason.push(ClauseRef::INVALID);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var();
        self.lbd_stamp.push(0);
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses (original plus currently retained learnt clauses).
    pub fn num_clauses(&self) -> usize {
        self.db.num_clauses()
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause to the solver.
    ///
    /// Clauses may be added between solve calls (incremental use); doing so
    /// discards the current model, so read any model values you need before
    /// growing the formula.
    ///
    /// Returns `false` if the solver is already known to be unsatisfiable
    /// (either previously, or because this clause is empty after
    /// simplification against the top-level assignment).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        // Clause simplification and unit enqueueing are only sound against
        // the top-level assignment; backtracking discards any model.
        self.model_valid = false;
        self.backtrack(0);
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        for lit in &clause {
            self.ensure_vars(lit.var().index() + 1);
        }
        clause.sort_unstable();
        clause.dedup();
        // Tautology / satisfied / falsified literal handling at level 0.
        let mut simplified = Vec::with_capacity(clause.len());
        let mut i = 0;
        while i < clause.len() {
            let lit = clause[i];
            if i + 1 < clause.len() && clause[i + 1] == !lit {
                return true; // tautology: p and !p both present
            }
            match self.lit_value(lit) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop falsified literal
                None => simplified.push(lit),
            }
            i += 1;
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], ClauseRef::INVALID);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&simplified, false);
                true
            }
        }
    }

    /// Allocates the clause in the arena and installs both watchers, each
    /// carrying the *other* watched literal as its blocker.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.db.alloc(lits, learnt);
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.stats.learnt_clauses = self.db.learnts().len() as u64;
        }
        cref
    }

    /// lbool of a literal as an `Option<bool>` (API-level probes; the
    /// propagation loop reads the raw array instead).
    fn lit_value(&self, lit: Lit) -> Option<bool> {
        match self.value[lit.code()] {
            LTRUE => Some(true),
            LFALSE => Some(false),
            _ => None,
        }
    }

    /// The value of a variable in the most recent satisfying model.
    ///
    /// Returns `None` for variables that were never assigned (possible only
    /// before the first successful [`Solver::solve`] call, or for variables
    /// added afterwards).
    ///
    /// Only meaningful while [`Solver::has_model`] is true: an Unsat solve or
    /// an incremental [`Solver::add_clause`] discards the model, after which
    /// this returns the residual top-level assignment, not model values. The
    /// [`crate::IncrementalSolver`] trait methods perform this check.
    pub fn value(&self, var: Var) -> Option<bool> {
        if var.index() >= self.num_vars() {
            return None;
        }
        self.lit_value(Lit::positive(var))
    }

    /// Whether a satisfying model is currently available: the last solve
    /// returned [`SolveResult::Sat`] and no clause has been added since.
    pub fn has_model(&self) -> bool {
        self.model_valid
    }

    /// The most recent satisfying model as a dense vector indexed by
    /// variable. Unassigned variables default to `false`.
    ///
    /// As with [`Solver::value`], only meaningful while [`Solver::has_model`]
    /// is true; read the model before growing the formula.
    pub fn model(&self) -> Vec<bool> {
        (0..self.num_vars())
            .map(|i| self.value(Var::from_index(i)).unwrap_or(false))
            .collect()
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Assigns `lit` true with the given reason clause, or reports whether
    /// it already had a consistent value.
    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) -> bool {
        match self.value[lit.code()] {
            LTRUE => true,
            LFALSE => false,
            _ => {
                let v = lit.var().index();
                self.value[lit.code()] = LTRUE;
                self.value[(!lit).code()] = LFALSE;
                self.saved_phase[v] = lit.is_positive();
                self.level[v] = self.decision_level() as u32;
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    fn backtrack(&mut self, target_level: usize) {
        while self.decision_level() > target_level {
            let lim = self.trail_lim.pop().expect("non-root decision level");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail entry");
                let v = lit.var().index();
                self.saved_phase[v] = lit.is_positive();
                self.value[lit.code()] = LUNDEF;
                self.value[(!lit).code()] = LUNDEF;
                self.reason[v] = ClauseRef::INVALID;
                self.order.insert(v as u32);
            }
        }
        self.qhead = self.trail.len();
    }

    /// The next branching variable: the unassigned variable with maximal
    /// VSIDS activity, popped from the decision heap in O(log n). Variables
    /// that were assigned while enqueued are discarded lazily; backtracking
    /// reinserts whatever it unassigns.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max() {
            if self.value[Lit::positive(Var::from_index(v as usize)).code()] == LUNDEF {
                return Some(Var::from_index(v as usize));
            }
        }
        None
    }

    /// Whether the clause is the reason of a current assignment (reason
    /// clauses keep their implied literal at slot 0, so this is O(1)).
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit(cref, 0);
        self.value[first.code()] == LTRUE && self.reason[first.var().index()] == cref
    }

    /// Glue/activity-tiered learnt-database reduction: clauses with LBD at
    /// or below [`GLUE_LBD`] and reason clauses are always
    /// kept; of the rest, the half with the worst (highest-LBD, then
    /// least-active) scores is tombstoned and the arena compacted in place,
    /// relocating watcher lists and reasons instead of rebuilding them.
    fn reduce_learnts(&mut self) {
        let mut candidates: Vec<ClauseRef> = self
            .db
            .learnts()
            .iter()
            .copied()
            .filter(|&c| self.db.lbd(c) > GLUE_LBD && !self.is_locked(c))
            .collect();
        if candidates.len() < 2 {
            return;
        }
        // Worst first: highest LBD, then lowest activity; the clause
        // reference breaks exact ties deterministically (older first).
        candidates.sort_by(|&a, &b| {
            self.db
                .lbd(b)
                .cmp(&self.db.lbd(a))
                .then_with(|| {
                    self.db
                        .activity(a)
                        .partial_cmp(&self.db.activity(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(&b))
        });
        for &cref in &candidates[..candidates.len() / 2] {
            self.db.delete(cref);
        }
        self.collect_garbage();
        self.stats.learnt_clauses = self.db.learnts().len() as u64;
    }

    /// Compacts the clause arena and relocates every watcher and reason
    /// reference through the returned forwarding map. Watchers of dropped
    /// clauses are filtered out in place; list order (and blockers) of the
    /// survivors is preserved, so propagation visits clauses in the same
    /// order as before the collection.
    fn collect_garbage(&mut self) {
        let map = self.db.collect_garbage();
        for list in &mut self.watches {
            list.retain_mut(|w| match map.translate(w.cref) {
                Some(cref) => {
                    w.cref = cref;
                    true
                }
                None => false,
            });
        }
        for r in &mut self.reason {
            if r.is_valid() {
                *r = map.translate(*r).expect("reason clauses are never deleted");
            }
        }
    }

    fn luby(i: u64) -> u64 {
        // Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        // `i` is the 0-based restart count.
        let mut i = i + 1;
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Decides satisfiability of the clause database.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under the given assumption literals.
    ///
    /// Assumptions are treated as forced decisions at the lowest decision
    /// levels; they do not permanently constrain the solver, so repeated calls
    /// with different assumptions are supported.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        let started = Instant::now();
        let result = self.solve_with_assumptions_inner(assumptions);
        self.model_valid = result == SolveResult::Sat;
        self.stats.solve_calls += 1;
        self.stats.solve_time += started.elapsed();
        result
    }

    fn initial_max_learnts(&self) -> f64 {
        #[cfg(test)]
        if let Some(forced) = self.max_learnts_override {
            return forced;
        }
        (self.db.num_clauses() as f64 * 0.5).max(100.0)
    }

    fn luby_unit(&self) -> u64 {
        #[cfg(test)]
        if let Some(forced) = self.luby_unit_override {
            return forced;
        }
        LUBY_UNIT
    }

    fn solve_with_assumptions_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        for lit in assumptions {
            self.ensure_vars(lit.var().index() + 1);
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        self.max_learnts = self.initial_max_learnts();

        let luby_unit = self.luby_unit();
        let mut restart_count: u64 = 0;
        let mut conflicts_until_restart = luby_unit * Self::luby(restart_count);
        let mut conflicts_in_round: u64 = 0;

        loop {
            match self.propagate() {
                Some(confl) => {
                    self.stats.conflicts += 1;
                    conflicts_in_round += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let (learnt, backtrack_level) = self.analyze(confl);
                    self.backtrack(backtrack_level);
                    let assert_lit = learnt[0];
                    if learnt.len() == 1 {
                        if !self.enqueue(assert_lit, ClauseRef::INVALID) {
                            self.ok = false;
                            return SolveResult::Unsat;
                        }
                    } else {
                        let lbd = self.compute_lbd(&learnt);
                        let cref = self.attach_clause(&learnt, true);
                        self.db.set_lbd(cref, lbd);
                        self.stats.lbd_sum += u64::from(lbd);
                        self.stats.lbd_clauses += 1;
                        self.db.bump_activity(cref);
                        self.enqueue(assert_lit, cref);
                    }
                    self.order.decay();
                    self.db.decay_activity();
                }
                None => {
                    if conflicts_in_round >= conflicts_until_restart {
                        conflicts_in_round = 0;
                        restart_count += 1;
                        self.stats.restarts += 1;
                        conflicts_until_restart = luby_unit * Self::luby(restart_count);
                        self.backtrack(assumptions.len().min(self.decision_level()));
                    }
                    if self.stats.learnt_clauses as f64 > self.max_learnts {
                        self.reduce_learnts();
                        self.max_learnts *= LEARNT_GROWTH;
                    }
                    // Assumption decisions first, then free decisions.
                    let next = if self.decision_level() < assumptions.len() {
                        let a = assumptions[self.decision_level()];
                        match self.lit_value(a) {
                            Some(true) => {
                                // Already implied: introduce an empty decision level
                                // to keep the level/assumption correspondence.
                                self.trail_lim.push(self.trail.len());
                                continue;
                            }
                            Some(false) => {
                                self.backtrack(0);
                                return SolveResult::Unsat;
                            }
                            None => Some(a),
                        }
                    } else {
                        self.pick_branch_var()
                            .map(|v| Lit::new(v, self.saved_phase[v.index()]))
                    };
                    match next {
                        None => return SolveResult::Sat,
                        Some(lit) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(lit, ClauseRef::INVALID);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: i64) -> Lit {
        let v = solver_vars[(i.unsigned_abs() - 1) as usize];
        Lit::new(v, i > 0)
    }

    fn solver_with_vars(n: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = (0..n).map(|_| s.new_var()).collect();
        (s, vars)
    }

    fn add_pigeonhole(s: &mut Solver, v: &[Var], pigeons: usize, holes: usize) {
        let p = |i: usize, h: usize| (i * holes + h + 1) as i64;
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|h| lit(v, p(i, h))));
        }
        for h in 0..holes {
            for i in 0..pigeons {
                for j in (i + 1)..pigeons {
                    s.add_clause([lit(v, -p(i, h)), lit(v, -p(j, h))]);
                }
            }
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_clauses() {
        let (mut s, v) = solver_with_vars(2);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let (mut s, v) = solver_with_vars(1);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, -1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let (mut s, _) = solver_with_vars(1);
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let (mut s, v) = solver_with_vars(1);
        s.add_clause([lit(&v, 1), lit(&v, -1)]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn simple_implication_chain() {
        let (mut s, v) = solver_with_vars(4);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, -1), lit(&v, 2)]);
        s.add_clause([lit(&v, -2), lit(&v, 3)]);
        s.add_clause([lit(&v, -3), lit(&v, 4)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for var in &v {
            assert_eq!(s.value(*var), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        let (mut s, v) = solver_with_vars(6);
        add_pigeonhole(&mut s, &v, 3, 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        let (mut s, v) = solver_with_vars(12);
        add_pigeonhole(&mut s, &v, 4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn satisfiable_graph_coloring() {
        // Triangle with 3 colours is satisfiable.
        let (mut s, v) = solver_with_vars(9);
        let c = |node: usize, colour: usize| node * 3 + colour + 1;
        for node in 0..3 {
            s.add_clause((0..3).map(|k| lit(&v, c(node, k) as i64)));
            for k1 in 0..3 {
                for k2 in (k1 + 1)..3 {
                    s.add_clause([
                        lit(&v, -(c(node, k1) as i64)),
                        lit(&v, -(c(node, k2) as i64)),
                    ]);
                }
            }
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            for k in 0..3 {
                s.add_clause([lit(&v, -(c(a, k) as i64)), lit(&v, -(c(b, k) as i64))]);
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify the colouring is proper.
        let colour_of = |s: &Solver, node: usize| {
            (0..3)
                .find(|&k| s.value(v[c(node, k) - 1]) == Some(true))
                .unwrap()
        };
        assert_ne!(colour_of(&s, 0), colour_of(&s, 1));
        assert_ne!(colour_of(&s, 1), colour_of(&s, 2));
        assert_ne!(colour_of(&s, 0), colour_of(&s, 2));
    }

    #[test]
    fn assumptions_do_not_persist() {
        let (mut s, v) = solver_with_vars(2);
        s.add_clause([lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -2)]), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        // Conflicting assumptions yield Unsat without poisoning the solver.
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, -1), lit(&v, -2)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumption_contradicting_unit_is_unsat() {
        let (mut s, v) = solver_with_vars(1);
        s.add_clause([lit(&v, 1)]);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // A slightly larger random-ish instance with a known satisfying shape.
        let (mut s, v) = solver_with_vars(8);
        let clauses: Vec<Vec<i64>> = vec![
            vec![1, 2, -3],
            vec![-1, 4],
            vec![3, -4, 5],
            vec![-5, 6],
            vec![-6, -2, 7],
            vec![7, 8],
            vec![-7, -8, 1],
            vec![2, 5, 8],
        ];
        for c in &clauses {
            s.add_clause(c.iter().map(|&x| lit(&v, x)));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model();
        for c in &clauses {
            assert!(c.iter().any(|&x| {
                let val = model[(x.unsigned_abs() - 1) as usize];
                if x > 0 {
                    val
                } else {
                    !val
                }
            }));
        }
    }

    #[test]
    fn stats_are_populated() {
        let (mut s, v) = solver_with_vars(6);
        add_pigeonhole(&mut s, &v, 3, 2);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.decisions > 0 || stats.propagations > 0);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    /// The test hooks vary the search — a one-conflict Luby unit restarts
    /// constantly, a one-clause learnt budget reduces every round — and
    /// must agree with the default on verdicts. The pigeonhole instances
    /// force real search (conflicts, learnt clauses, restarts).
    #[test]
    fn search_policies_are_verdict_neutral() {
        for (luby_unit, max_learnts) in [(None, None), (Some(1), None), (Some(1), Some(1.0))] {
            let policy = format!("luby unit {luby_unit:?}, learnt budget {max_learnts:?}");
            // Unsat: 4 pigeons into 3 holes.
            let (mut s, v) = solver_with_vars(12);
            s.luby_unit_override = luby_unit;
            s.max_learnts_override = max_learnts;
            add_pigeonhole(&mut s, &v, 4, 3);
            assert_eq!(s.solve(), SolveResult::Unsat, "{policy}");
            if luby_unit.is_some() {
                assert!(s.stats().restarts > 0, "{policy}: never restarted");
            }
            // Sat: 4 pigeons into 4 holes; the model must be a real model.
            let (mut s, v) = solver_with_vars(16);
            s.luby_unit_override = luby_unit;
            s.max_learnts_override = max_learnts;
            let p = |i: usize, h: usize| (i * 4 + h + 1) as i64;
            for i in 0..4 {
                s.add_clause((0..4).map(|h| lit(&v, p(i, h))));
            }
            for h in 0..4 {
                for i in 0..4 {
                    for j in (i + 1)..4 {
                        s.add_clause([lit(&v, -p(i, h)), lit(&v, -p(j, h))]);
                    }
                }
            }
            assert_eq!(s.solve(), SolveResult::Sat, "{policy}");
            let model = s.model();
            for i in 0..4 {
                assert!(
                    (0..4).any(|h| model[(p(i, h) - 1) as usize]),
                    "{policy}: pigeon {i} unplaced"
                );
            }
            // Assumptions still work after the search above.
            let first = Lit::positive(v[0]);
            assert_eq!(s.solve_with_assumptions(&[!first]), SolveResult::Sat);
            assert_eq!(s.value(v[0]), Some(false));
        }
    }

    #[test]
    fn adding_clause_after_unsat_returns_false() {
        let (mut s, v) = solver_with_vars(1);
        s.add_clause([lit(&v, 1)]);
        s.add_clause([lit(&v, -1)]);
        assert!(!s.add_clause([lit(&v, 1)]));
    }

    /// Forcing a one-clause learnt budget makes every round of the search
    /// run the glue/activity-tiered reduction and the arena GC; the solver
    /// must still decide the pigeonhole instance correctly, and the learnt
    /// gauge must reflect the reduced database, not the learn counter.
    #[test]
    fn database_reduction_and_gc_preserve_unsatisfiability() {
        let (mut s, v) = solver_with_vars(20);
        add_pigeonhole(&mut s, &v, 5, 4);
        s.max_learnts_override = Some(1.0);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.conflicts > 2, "instance must be non-trivial");
        assert!(
            stats.learnt_clauses <= stats.conflicts,
            "gauge exceeds everything ever learnt"
        );
    }

    #[test]
    fn database_reduction_preserves_satisfiability_and_models() {
        let (mut s, v) = solver_with_vars(16);
        // Satisfiable near-pigeonhole: 4 pigeons, 4 holes.
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        let p = |i: usize, h: usize| (i * 4 + h + 1) as i64;
        for i in 0..4 {
            clauses.push((0..4).map(|h| p(i, h)).collect());
        }
        for h in 0..4 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    clauses.push(vec![-p(i, h), -p(j, h)]);
                }
            }
        }
        for c in &clauses {
            s.add_clause(c.iter().map(|&x| lit(&v, x)));
        }
        s.max_learnts_override = Some(1.0);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model();
        for c in &clauses {
            assert!(c.iter().any(|&x| {
                let val = model[(x.unsigned_abs() - 1) as usize];
                if x > 0 {
                    val
                } else {
                    !val
                }
            }));
        }
    }

    /// Conflict-clause minimization must actually fire on instances with
    /// implication structure, and the LBD accounting must cover every stored
    /// learnt clause.
    #[test]
    fn minimization_and_lbd_statistics_accumulate() {
        let (mut s, v) = solver_with_vars(20);
        add_pigeonhole(&mut s, &v, 5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.lbd_clauses > 0, "no learnt clause recorded an LBD");
        assert!(stats.lbd_sum >= stats.lbd_clauses, "LBD is at least 1");
        assert!(stats.mean_lbd() >= 1.0);
        assert!(
            stats.minimized_lits > 0,
            "recursive minimization never removed a literal"
        );
    }

    #[test]
    fn learnt_gauge_aggregates_as_max_and_counters_as_sums() {
        let a = SolverStats {
            learnt_clauses: 10,
            decisions: 3,
            minimized_lits: 2,
            lbd_sum: 8,
            lbd_clauses: 4,
            ..SolverStats::default()
        };
        let b = SolverStats {
            learnt_clauses: 7,
            decisions: 5,
            minimized_lits: 1,
            lbd_sum: 4,
            lbd_clauses: 2,
            ..SolverStats::default()
        };
        let sum = a + b;
        assert_eq!(sum.learnt_clauses, 10, "gauge: max, not sum");
        assert_eq!(sum.decisions, 8);
        assert_eq!(sum.minimized_lits, 3);
        assert_eq!(sum.lbd_sum, 12);
        assert_eq!(sum.lbd_clauses, 6);
        assert!((sum.mean_lbd() - 2.0).abs() < 1e-12);
        // `since` diffs counters but passes the gauge through.
        let diff = sum.since(&b);
        assert_eq!(diff.learnt_clauses, 10);
        assert_eq!(diff.decisions, 3);
        assert_eq!(diff.lbd_sum, 8);
    }
}
