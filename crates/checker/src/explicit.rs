//! The explicit-state engine: streamed concrete enumeration of transitions
//! and bounded reachability, usable both as a production oracle for small
//! input/state products and as an independent cross-validation oracle for
//! the SAT-based k-induction checker.
//!
//! Three properties make the engine production-grade rather than test-only:
//!
//! * **Streamed enumeration.** Input assignments and frame-0 valuations are
//!   produced by an [`Odometer`] — a cursor over per-variable value runs —
//!   so the cartesian product of the input ranges is never materialised.
//!   Memory is O(number of variables) regardless of how wide the inputs
//!   are; earlier revisions built the full product up front, which is
//!   exponential in the number of inputs.
//! * **Interned, resumable reachability.** Breadth-first exploration from
//!   the initial states interns every visited valuation once and records
//!   the layer structure, so repeated spurious-counterexample checks reuse
//!   the explored prefix and only extend it on demand.
//! * **Deterministic budgets.** Every query runs under a work budget
//!   (valuation/transition evaluations). Budget charging is a pure function
//!   of the query: cached reachability layers re-charge their recorded
//!   construction cost instead of being free, so whether a query exhausts
//!   its budget — and hence whether a [`crate::PortfolioOracle`] falls back
//!   to k-induction — never depends on which queries an engine instance
//!   served before. The cache accelerates wall-clock time, not the budget.
//!
//! **Exact agreement with k-induction.** The budgeted query methods decide
//! *the same formulas* as [`crate::KInductionChecker`]'s sessions — frame-0
//! state variables range over their full sort encoding (the bit-blaster
//! blocks out-of-range enumeration codes, which the domains here mirror),
//! inputs over their declared ranges, and the spurious check emulates the
//! base and step cases of k-induction rather than exact reachability. For
//! violated conditions the odometer enumerates candidate transitions in
//! exactly the canonical order of the SAT checker's counterexample
//! canonicalisation (raw-bit-pattern lexicographic: frame-0 variables in
//! declaration order, then frame-1 inputs), so the first violation found
//! *is* the lexicographically minimal transition the SAT checker would
//! return. Verdicts and counterexamples are therefore byte-identical across
//! engines, which the portfolio's cross-validation mode asserts.

use crate::kinduction::{CheckResult, CheckerStats, SpuriousResult};
use amle_expr::{Expr, Sort, Valuation, Value, VarId};
use amle_system::System;
use std::collections::{HashMap, HashSet};

/// Default per-query work budget of the explicit engine: the budget the
/// learning loop gives every [`crate::PortfolioOracle`] it builds.
pub const DEFAULT_QUERY_BUDGET: u64 = 1 << 18;

/// The admissible values of one variable as inclusive runs of *raw* (bit
/// pattern) encodings in ascending raw order.
///
/// Raw order matches the order in which the SAT checker's counterexample
/// canonicalisation minimises variable words (most significant bit probed
/// first, preferring 0), which is what makes the explicit engine's first
/// violation the canonical one. For booleans, unsigned integers and
/// enumerations raw order coincides with value order; for signed integers
/// it enumerates `0..=max` before `min..=-1`.
#[derive(Debug, Clone)]
struct VarDomain {
    id: VarId,
    sort: Sort,
    /// Inclusive `(start, end)` runs of raw encodings, ascending.
    runs: Vec<(u64, u64)>,
    count: u64,
}

impl VarDomain {
    fn new(id: VarId, sort: Sort, lo: i64, hi: i64) -> VarDomain {
        debug_assert!(lo <= hi, "empty domain for {id}");
        let mut runs = Vec::new();
        match &sort {
            Sort::Int { bits, signed: true } => {
                let wrap = 1u64 << bits;
                if hi >= 0 {
                    runs.push((lo.max(0) as u64, hi as u64));
                }
                if lo < 0 {
                    let nlo = (lo as i128 + wrap as i128) as u64;
                    let nhi = (hi.min(-1) as i128 + wrap as i128) as u64;
                    runs.push((nlo, nhi));
                }
            }
            _ => runs.push((lo as u64, hi as u64)),
        }
        let count = runs.iter().map(|(a, b)| b - a + 1).sum();
        VarDomain {
            id,
            sort,
            runs,
            count,
        }
    }

    fn value_of_raw(&self, raw: u64) -> Value {
        Value::from_i64(&self.sort, raw as i64)
    }
}

/// Where an [`Odometer`] is in its enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OdometerState {
    /// `advance` has not been called yet.
    Fresh,
    /// The cursor points at the current assignment.
    Running,
    /// Every assignment has been produced.
    Done,
}

/// A streaming cursor over the cartesian product of per-variable value
/// domains, yielding assignments in canonical (raw-bit-pattern
/// lexicographic) order with the *last* variable varying fastest.
///
/// The odometer holds one `(run, raw)` cursor per variable — O(variables)
/// memory however large the product is — and advances in O(1) amortised
/// time per assignment. Use [`Odometer::advance`] +
/// [`Odometer::write_pairs`]/[`Odometer::write_valuation`] in hot loops to
/// avoid per-assignment allocation; the [`Iterator`] implementation clones
/// for convenience.
#[derive(Debug, Clone)]
pub struct Odometer {
    domains: Vec<VarDomain>,
    /// Per-variable cursor: (run index, raw encoding).
    cursor: Vec<(usize, u64)>,
    state: OdometerState,
}

impl Odometer {
    fn new(domains: Vec<VarDomain>) -> Odometer {
        let cursor = domains.iter().map(|d| (0, d.runs[0].0)).collect();
        Odometer {
            domains,
            cursor,
            state: OdometerState::Fresh,
        }
    }

    /// Total number of assignments, saturating at `u64::MAX`.
    ///
    /// An odometer over zero variables yields exactly one (empty)
    /// assignment. (Named `size` rather than `count` to stay clear of
    /// [`Iterator::count`], which would consume the odometer.)
    pub fn size(&self) -> u64 {
        let mut total: u128 = 1;
        for d in &self.domains {
            total = total.saturating_mul(d.count as u128);
            if total > u64::MAX as u128 {
                return u64::MAX;
            }
        }
        total as u64
    }

    /// Moves the cursor to the next assignment; returns `false` once every
    /// assignment has been produced.
    pub fn advance(&mut self) -> bool {
        match self.state {
            OdometerState::Done => false,
            OdometerState::Fresh => {
                self.state = OdometerState::Running;
                true
            }
            OdometerState::Running => {
                for i in (0..self.domains.len()).rev() {
                    let d = &self.domains[i];
                    let (run, raw) = self.cursor[i];
                    if raw < d.runs[run].1 {
                        self.cursor[i] = (run, raw + 1);
                        return true;
                    }
                    if run + 1 < d.runs.len() {
                        self.cursor[i] = (run + 1, d.runs[run + 1].0);
                        return true;
                    }
                    // Digit exhausted: reset it and carry into the next
                    // more-significant variable.
                    self.cursor[i] = (0, d.runs[0].0);
                }
                self.state = OdometerState::Done;
                false
            }
        }
    }

    /// Rewinds the odometer to the state before the first `advance`.
    pub fn reset(&mut self) {
        for (cursor, d) in self.cursor.iter_mut().zip(&self.domains) {
            *cursor = (0, d.runs[0].0);
        }
        self.state = OdometerState::Fresh;
    }

    /// Writes the current assignment into `out` as `(variable, value)`
    /// pairs in domain order, reusing the buffer.
    pub fn write_pairs(&self, out: &mut Vec<(VarId, Value)>) {
        debug_assert_eq!(self.state, OdometerState::Running);
        out.clear();
        for (d, &(_, raw)) in self.domains.iter().zip(&self.cursor) {
            out.push((d.id, d.value_of_raw(raw)));
        }
    }

    /// Writes the current assignment into a valuation (touching only the
    /// odometer's own variables).
    pub fn write_valuation(&self, v: &mut Valuation) {
        debug_assert_eq!(self.state, OdometerState::Running);
        for (d, &(_, raw)) in self.domains.iter().zip(&self.cursor) {
            v.set(d.id, d.value_of_raw(raw));
        }
    }
}

impl Iterator for Odometer {
    type Item = Vec<(VarId, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.advance() {
            return None;
        }
        let mut out = Vec::with_capacity(self.domains.len());
        self.write_pairs(&mut out);
        Some(out)
    }
}

/// The interned, resumable breadth-first reachability cache.
#[derive(Debug, Default)]
struct ReachCache {
    /// Interner: valuation → dense index into `states`.
    index: HashMap<Valuation, u32>,
    /// Every distinct reachable valuation, in BFS discovery order.
    states: Vec<Valuation>,
    /// `layer_ends[d]` = number of states with BFS depth ≤ `d`.
    layer_ends: Vec<usize>,
    /// Deterministic construction cost of each layer (expansions charged to
    /// whichever query triggered — or re-uses — the layer).
    layer_costs: Vec<u64>,
    /// Set once a layer added no new states: the reachable set is fully
    /// explored and deeper queries need no further expansion.
    complete: bool,
}

impl ReachCache {
    fn intern(&mut self, v: Valuation) {
        if !self.index.contains_key(&v) {
            let id = self.states.len() as u32;
            self.index.insert(v.clone(), id);
            self.states.push(v);
        }
    }
}

/// Explicit-state engine over a [`System`]: streamed condition checks and
/// k-induction-shaped spurious checks under deterministic work budgets,
/// plus classic fixpoint reachability.
///
/// See the module-level documentation above for the engine's guarantees and its
/// exact-agreement relationship with [`crate::KInductionChecker`].
#[derive(Debug)]
pub struct ExplicitChecker<'a> {
    system: &'a System,
    /// Cap on interned states for the legacy fixpoint queries
    /// ([`ExplicitChecker::reachable_states`] and friends).
    max_states: usize,
    stats: CheckerStats,
    reach: ReachCache,
}

impl<'a> ExplicitChecker<'a> {
    /// Creates an explicit checker with a cap on the number of distinct
    /// states the fixpoint queries may intern. Budgeted queries take their
    /// work budget per call.
    pub fn new(system: &'a System, max_states: usize) -> Self {
        ExplicitChecker {
            system,
            max_states,
            stats: CheckerStats::default(),
            reach: ReachCache::default(),
        }
    }

    /// Statistics accumulated so far. `explicit_work` counts charged work
    /// units, which are a pure function of the queries served (cached
    /// reachability layers re-charge their recorded cost).
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// Charges `cost` work units against the query budget. Returns `false`
    /// (leaving the budget untouched) when the budget cannot cover the
    /// cost.
    fn charge(stats: &mut CheckerStats, budget: &mut u64, cost: u64) -> bool {
        if *budget < cost {
            return false;
        }
        *budget -= cost;
        stats.explicit_work += cost;
        true
    }

    fn domain_of(&self, id: VarId) -> VarDomain {
        let sort = self.system.vars().sort(id).clone();
        let (lo, hi) = if self.system.is_input(id) {
            self.system.input_range(id)
        } else {
            sort.value_range()
        };
        VarDomain::new(id, sort, lo, hi)
    }

    /// The streamed odometer over all input assignments (the cartesian
    /// product of the declared input ranges, never materialised).
    pub fn input_assignments(&self) -> Odometer {
        Odometer::new(
            self.system
                .input_vars()
                .iter()
                .map(|id| self.domain_of(*id))
                .collect(),
        )
    }

    /// The streamed odometer over all frame-0 valuations of a condition
    /// query: state variables range over their full sort encoding (matching
    /// the bit-blaster, which only blocks out-of-range enumeration codes),
    /// inputs over their declared ranges — in declaration order, exactly
    /// the canonicalisation order of the SAT checker.
    fn frame0_assignments(&self) -> Odometer {
        Odometer::new(
            self.system
                .all_vars()
                .into_iter()
                .map(|id| self.domain_of(id))
                .collect(),
        )
    }

    /// Estimated work of one condition check: frame-0 valuations × input
    /// assignments, saturating. A spurious check with bound `k` is
    /// dominated by its step case, up to `k` expansions of the same space.
    pub fn estimate_condition_cost(&self) -> u64 {
        let f0 = self.frame0_assignments().size() as u128;
        let inp = self.input_assignments().size() as u128;
        u64::try_from(f0.saturating_mul(inp)).unwrap_or(u64::MAX)
    }

    /// Condition check (Fig. 3a) under a work budget, deciding exactly the
    /// formula of [`crate::KInductionChecker::check_condition`]. Returns
    /// `None` when the budget runs out before an answer is reached; a
    /// `Some` answer — including the counterexample valuations — is
    /// byte-identical to the SAT checker's.
    pub fn check_condition_budgeted(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
        budget: &mut u64,
    ) -> Option<CheckResult> {
        // The emulated k-induction cases evaluate the query predicates once
        // per enumerated valuation; canonical forms (memoised in the
        // interner) shrink the evaluated DAG — constant subtrees folded,
        // duplicate conjuncts deduplicated — without touching verdicts or
        // the canonical counterexample order. The conclusion stays in
        // disjunct form: `⋁ dᵢ` evaluates as "some disjunct holds", which
        // short-circuits exactly like the folded or-chain would.
        let assumption = assumption.canonical();
        let blocked: Vec<Expr> = blocked.iter().map(Expr::canonical).collect();
        let outgoing: Vec<Expr> = outgoing.iter().map(Expr::canonical).collect();
        let (assumption, blocked, outgoing) = (&assumption, &blocked, &outgoing);
        let system = self.system;
        let mut frame0 = self.frame0_assignments();
        let mut inputs = self.input_assignments();
        let stats = &mut self.stats;
        let vars = system.vars();
        let mut from = Valuation::zeroed(vars);
        let mut to = Valuation::zeroed(vars);
        while frame0.advance() {
            if !Self::charge(stats, budget, 1) {
                return None;
            }
            frame0.write_valuation(&mut from);
            if !assumption.eval_bool(&from) {
                continue;
            }
            if blocked.iter().any(|b| b.eval_bool(&from)) {
                continue;
            }
            // Frame-1 state values are functions of `from` alone; compute
            // them once and sweep the frame-1 inputs.
            for id in system.state_vars() {
                to.set(*id, system.update(*id).eval(&from));
            }
            inputs.reset();
            while inputs.advance() {
                if !Self::charge(stats, budget, 1) {
                    return None;
                }
                inputs.write_valuation(&mut to);
                if !outgoing.iter().any(|d| d.eval_bool(&to)) {
                    stats.condition_checks += 1;
                    stats.explicit_queries += 1;
                    return Some(CheckResult::Violated {
                        from: from.clone(),
                        to: to.clone(),
                    });
                }
            }
        }
        stats.condition_checks += 1;
        stats.explicit_queries += 1;
        Some(CheckResult::Valid)
    }

    /// Spurious-counterexample check (Fig. 3b) under a work budget,
    /// emulating the k-induction base and step cases exactly (rather than
    /// deciding exact reachability, which could disagree with the bounded
    /// SAT verdicts). Returns `None` on budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, like the SAT checker.
    pub fn check_spurious_budgeted(
        &mut self,
        state_formula: &Expr,
        k: usize,
        budget: &mut u64,
    ) -> Option<SpuriousResult> {
        assert!(k > 0, "k-induction bound must be positive");
        let state_formula = &state_formula.canonical();
        let result = if self.base_reachable_within(state_formula, k, budget)? {
            SpuriousResult::Reachable
        } else if self.step_case_holds(state_formula, k, budget)? {
            SpuriousResult::Spurious
        } else {
            SpuriousResult::Inconclusive
        };
        self.stats.spurious_checks += 1;
        self.stats.explicit_queries += 1;
        Some(result)
    }

    /// Condition check with an effectively unbounded budget: the reference
    /// the k-induction tests compare against.
    #[cfg(test)]
    pub(crate) fn check_condition_unbudgeted(
        &mut self,
        assumption: &Expr,
        blocked: &[Expr],
        outgoing: &[Expr],
    ) -> CheckResult {
        let mut budget = u64::MAX;
        self.check_condition_budgeted(assumption, blocked, outgoing, &mut budget)
            .expect("unbounded budget cannot be exhausted")
    }

    /// Spurious check with an effectively unbounded budget.
    #[cfg(test)]
    pub(crate) fn check_spurious_unbudgeted(
        &mut self,
        state_formula: &Expr,
        k: usize,
    ) -> SpuriousResult {
        let mut budget = u64::MAX;
        self.check_spurious_budgeted(state_formula, k, &mut budget)
            .expect("unbounded budget cannot be exhausted")
    }

    /// The k-induction base case: is a state satisfying `formula` reachable
    /// from `Init` within `k` steps? Scans (and lazily extends) the interned
    /// BFS layers; cached layers re-charge their recorded construction cost
    /// so the budget verdict is a pure function of the query.
    fn base_reachable_within(
        &mut self,
        formula: &Expr,
        k: usize,
        budget: &mut u64,
    ) -> Option<bool> {
        let mut scanned = 0usize;
        let mut depth = 0usize;
        loop {
            if depth < self.reach.layer_ends.len() {
                let cost = self.reach.layer_costs[depth];
                if !Self::charge(&mut self.stats, budget, cost) {
                    return None;
                }
            } else if self.reach.complete {
                break;
            } else if !self.build_next_layer(budget) {
                return None;
            }
            let end = self.reach.layer_ends[depth];
            for i in scanned..end {
                if !Self::charge(&mut self.stats, budget, 1) {
                    return None;
                }
                if formula.eval_bool(&self.reach.states[i]) {
                    return Some(true);
                }
            }
            scanned = end;
            if depth == k {
                break;
            }
            depth += 1;
        }
        Some(false)
    }

    /// Builds the next BFS layer of the reachability cache, charging its
    /// (deterministic) construction cost. Returns `false` on budget
    /// exhaustion, leaving the cache unchanged.
    fn build_next_layer(&mut self, budget: &mut u64) -> bool {
        let system = self.system;
        let d = self.reach.layer_ends.len();
        let mut inputs = self.input_assignments();
        let input_count = inputs.size();
        let mut pairs: Vec<(VarId, Value)> = Vec::new();
        if d == 0 {
            // Layer 0: the initial state values under every input
            // assignment.
            if !Self::charge(&mut self.stats, budget, input_count) {
                return false;
            }
            while inputs.advance() {
                inputs.write_pairs(&mut pairs);
                let mut v = system.initial_valuation();
                for (id, value) in &pairs {
                    v.set(*id, *value);
                }
                self.reach.intern(v);
            }
            self.reach.layer_ends.push(self.reach.states.len());
            self.reach.layer_costs.push(input_count);
            return true;
        }
        let start = if d == 1 {
            0
        } else {
            self.reach.layer_ends[d - 2]
        };
        let end = self.reach.layer_ends[d - 1];
        let cost = ((end - start) as u64).saturating_mul(input_count);
        if !Self::charge(&mut self.stats, budget, cost) {
            return false;
        }
        for i in start..end {
            let current = self.reach.states[i].clone();
            inputs.reset();
            while inputs.advance() {
                inputs.write_pairs(&mut pairs);
                self.reach.intern(system.step(&current, &pairs));
            }
        }
        let new_end = self.reach.states.len();
        self.reach.complete = new_end == end;
        self.reach.layer_ends.push(new_end);
        self.reach.layer_costs.push(cost);
        true
    }

    /// The k-induction step case: `true` when there is **no** path of `k`
    /// transitions whose first `k` valuations violate `formula` and whose
    /// last satisfies it. Streams the frontier forward from *all* frame-0
    /// valuations (matching the step session, which has no `Init`
    /// constraint).
    fn step_case_holds(&mut self, formula: &Expr, k: usize, budget: &mut u64) -> Option<bool> {
        let system = self.system;
        let mut frame0 = self.frame0_assignments();
        let mut inputs = self.input_assignments();
        let mut pairs: Vec<(VarId, Value)> = Vec::new();
        let mut v = Valuation::zeroed(system.vars());
        let mut current: Vec<Valuation> = Vec::new();
        while frame0.advance() {
            if !Self::charge(&mut self.stats, budget, 1) {
                return None;
            }
            frame0.write_valuation(&mut v);
            if !formula.eval_bool(&v) {
                current.push(v.clone());
            }
        }
        let mut seen: HashSet<Valuation> = HashSet::new();
        for depth in 1..=k {
            if current.is_empty() {
                return Some(true);
            }
            let last = depth == k;
            let mut next_layer: Vec<Valuation> = Vec::new();
            seen.clear();
            for state in &current {
                inputs.reset();
                while inputs.advance() {
                    if !Self::charge(&mut self.stats, budget, 1) {
                        return None;
                    }
                    inputs.write_pairs(&mut pairs);
                    let next = system.step(state, &pairs);
                    if last {
                        if formula.eval_bool(&next) {
                            return Some(false);
                        }
                    } else if !formula.eval_bool(&next) && seen.insert(next.clone()) {
                        next_layer.push(next);
                    }
                }
            }
            if !last {
                current = next_layer;
            }
        }
        Some(true)
    }

    /// Runs the interned BFS to its fixpoint, honouring `max_states`.
    fn explore_to_fixpoint(&mut self) -> bool {
        let mut budget = u64::MAX;
        while !self.reach.complete {
            if self.reach.states.len() > self.max_states {
                return false;
            }
            if !self.build_next_layer(&mut budget) {
                return false;
            }
        }
        self.reach.states.len() <= self.max_states
    }

    /// Computes the set of reachable valuations (up to the state cap).
    ///
    /// Returns `None` if the cap is exhausted before the exploration
    /// completes. Exploration already performed is retained and resumed by
    /// later queries.
    pub fn reachable_states(&mut self) -> Option<HashSet<Valuation>> {
        if !self.explore_to_fixpoint() {
            return None;
        }
        Some(self.reach.states.iter().cloned().collect())
    }

    /// Decides whether any reachable state satisfies the predicate.
    ///
    /// Returns `None` when the state cap is exhausted.
    pub fn is_reachable(&mut self, predicate: &Expr) -> Option<bool> {
        if !self.explore_to_fixpoint() {
            return None;
        }
        Some(self.reach.states.iter().any(|v| predicate.eval_bool(v)))
    }

    /// Decides whether the condition `assumption ∧ R ⟹ conclusion'` holds on
    /// all *reachable* transitions. This is stronger than the k-induction
    /// condition check (which ranges over arbitrary, possibly unreachable,
    /// pre-states), so `Valid` answers from the SAT checker must imply `true`
    /// here — the property exploited by the cross-validation tests.
    ///
    /// Returns `None` when the state cap is exhausted.
    pub fn condition_holds_on_reachable(
        &mut self,
        assumption: &Expr,
        conclusion: &Expr,
    ) -> Option<bool> {
        if !self.explore_to_fixpoint() {
            return None;
        }
        let mut inputs = self.input_assignments();
        let mut pairs: Vec<(VarId, Value)> = Vec::new();
        for i in 0..self.reach.states.len() {
            let state = self.reach.states[i].clone();
            if !assumption.eval_bool(&state) {
                continue;
            }
            inputs.reset();
            while inputs.advance() {
                inputs.write_pairs(&mut pairs);
                let next = self.system.step(&state, &pairs);
                if !conclusion.eval_bool(&next) {
                    return Some(false);
                }
            }
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KInductionChecker;
    use amle_expr::Sort;
    use amle_system::SystemBuilder;

    fn small_counter() -> System {
        let mut b = SystemBuilder::new();
        let en = b.input("en", Sort::Bool).unwrap();
        let c = b.state("c", Sort::int(3), Value::Int(0)).unwrap();
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(4, 3))
            .ite(&ce.add(&Expr::int_val(1, 3)), &ce);
        b.update(c, b.var(en).ite(&bumped, &ce)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reachable_states_of_saturating_counter() {
        let sys = small_counter();
        let mut checker = ExplicitChecker::new(&sys, 1000);
        let states = checker.reachable_states().unwrap();
        let c = sys.vars().lookup("c").unwrap();
        let values: std::collections::BTreeSet<i64> =
            states.iter().map(|v| v.value(c).to_i64()).collect();
        assert_eq!(values, (0..=4).collect());
    }

    #[test]
    fn reachability_queries() {
        let sys = small_counter();
        let mut checker = ExplicitChecker::new(&sys, 1000);
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        assert_eq!(
            checker.is_reachable(&ce.eq(&Expr::int_val(4, 3))),
            Some(true)
        );
        assert_eq!(
            checker.is_reachable(&ce.eq(&Expr::int_val(7, 3))),
            Some(false)
        );
    }

    #[test]
    fn state_budget_is_respected() {
        let sys = small_counter();
        let mut checker = ExplicitChecker::new(&sys, 2);
        assert_eq!(checker.reachable_states(), None);
        assert_eq!(checker.is_reachable(&Expr::true_()), None);
    }

    #[test]
    fn condition_check_on_reachable_states() {
        let sys = small_counter();
        let mut checker = ExplicitChecker::new(&sys, 1000);
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        // The counter never exceeds 4 on reachable transitions.
        assert_eq!(
            checker.condition_holds_on_reachable(&Expr::true_(), &ce.le(&Expr::int_val(4, 3))),
            Some(true)
        );
        // It does reach values above 2.
        assert_eq!(
            checker.condition_holds_on_reachable(&Expr::true_(), &ce.le(&Expr::int_val(2, 3))),
            Some(false)
        );
    }

    #[test]
    fn odometer_streams_without_materialising_wide_products() {
        // Four 15-bit inputs: the cartesian product has 2^60 assignments;
        // the retired implementation materialised it up front. The odometer
        // must report the (saturated-safe) count and stream the first few
        // assignments in O(1) memory.
        let mut b = SystemBuilder::new();
        for name in ["a", "b", "c", "d"] {
            b.input(name, Sort::int(15)).unwrap();
        }
        let s = b.state("s", Sort::Bool, Value::Bool(false)).unwrap();
        b.update(s, Expr::true_()).unwrap();
        let sys = b.build().unwrap();
        let checker = ExplicitChecker::new(&sys, 10);
        let odo = checker.input_assignments();
        assert_eq!(odo.size(), 1u64 << 60);
        let first: Vec<_> = odo.take(3).collect();
        assert_eq!(first.len(), 3);
        // Last variable varies fastest; all values start at the range low.
        assert_eq!(first[0].iter().map(|(_, v)| v.to_i64()).max(), Some(0));
        assert_eq!(first[1][3].1.to_i64(), 1);
        assert_eq!(first[2][3].1.to_i64(), 2);
    }

    #[test]
    fn odometer_orders_signed_domains_by_raw_pattern() {
        // Signed 3-bit input restricted to -2..=2: raw-pattern order is
        // 0, 1, 2 (non-negative) then -2, -1 (sign bit set), matching the
        // SAT canonicalisation order, not numeric order.
        let mut b = SystemBuilder::new();
        let x = b.input_in_range("x", Sort::signed_int(3), -2, 2).unwrap();
        let s = b.state("s", Sort::Bool, Value::Bool(false)).unwrap();
        b.update(s, Expr::true_()).unwrap();
        let sys = b.build().unwrap();
        let checker = ExplicitChecker::new(&sys, 10);
        let values: Vec<i64> = checker
            .input_assignments()
            .map(|a| a[0].1.to_i64())
            .collect();
        assert_eq!(values, vec![0, 1, 2, -2, -1]);
        let _ = x;
    }

    #[test]
    fn odometer_over_zero_inputs_yields_one_empty_assignment() {
        let mut b = SystemBuilder::new();
        let s = b.state("s", Sort::Bool, Value::Bool(false)).unwrap();
        b.update(s, Expr::true_()).unwrap();
        let sys = b.build().unwrap();
        let checker = ExplicitChecker::new(&sys, 10);
        let mut odo = checker.input_assignments();
        assert_eq!(odo.size(), 1);
        assert!(odo.advance());
        assert!(!odo.advance());
    }

    #[test]
    fn budgeted_condition_check_agrees_with_kinduction_exactly() {
        let sys = small_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let mut explicit = ExplicitChecker::new(&sys, 10_000);
        let mut sat = KInductionChecker::new(&sys);
        for bound in 0..8 {
            let conclusion = ce.ne(&Expr::int_val(bound, 3));
            let mut budget = u64::MAX;
            let explicit_result = explicit
                .check_condition_budgeted(
                    &Expr::true_(),
                    &[],
                    std::slice::from_ref(&conclusion),
                    &mut budget,
                )
                .unwrap();
            let sat_result =
                sat.check_condition(&Expr::true_(), &[], std::slice::from_ref(&conclusion));
            assert_eq!(
                explicit_result, sat_result,
                "engines disagree for bound {bound}"
            );
        }
    }

    #[test]
    fn budgeted_spurious_check_agrees_with_kinduction() {
        let sys = small_counter();
        let c = sys.vars().lookup("c").unwrap();
        let mut explicit = ExplicitChecker::new(&sys, 10_000);
        let mut sat = KInductionChecker::new(&sys);
        for target in 0..8 {
            let mut state = sys.initial_valuation();
            state.set(c, Value::Int(target));
            let formula = crate::state_formula(sys.vars(), &state, &[c]);
            for k in [1, 2, 8] {
                let mut budget = u64::MAX;
                let explicit_verdict = explicit
                    .check_spurious_budgeted(&formula, k, &mut budget)
                    .unwrap();
                let sat_verdict = sat.check_spurious(&formula, k);
                assert_eq!(
                    explicit_verdict, sat_verdict,
                    "verdicts disagree for target {target}, k {k}"
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_returns_none_and_is_deterministic() {
        let sys = small_counter();
        let c = sys.vars().lookup("c").unwrap();
        let ce = sys.var(c);
        let conclusion = ce.le(&Expr::int_val(4, 3));
        let mut checker = ExplicitChecker::new(&sys, 10_000);
        let mut tiny = 3;
        assert_eq!(
            checker.check_condition_budgeted(
                &Expr::true_(),
                &[],
                std::slice::from_ref(&conclusion),
                &mut tiny
            ),
            None
        );
        // A warmed-up checker must make the same budget decision: charging
        // is a pure function of the query, not of cache state.
        let mut budget = u64::MAX;
        let _ = checker.check_spurious_budgeted(&ce.eq(&Expr::int_val(4, 3)), 3, &mut budget);
        let mut tiny = 3;
        assert_eq!(
            checker.check_condition_budgeted(
                &Expr::true_(),
                &[],
                std::slice::from_ref(&conclusion),
                &mut tiny
            ),
            None
        );
        // And with enough budget the answer appears.
        let mut enough = u64::MAX;
        assert!(checker
            .check_condition_budgeted(
                &Expr::true_(),
                &[],
                std::slice::from_ref(&conclusion),
                &mut enough
            )
            .is_some());
    }

    #[test]
    fn cached_reach_layers_recharge_their_cost() {
        let sys = small_counter();
        let c = sys.vars().lookup("c").unwrap();
        let mut checker = ExplicitChecker::new(&sys, 10_000);
        let mut state = sys.initial_valuation();
        state.set(c, Value::Int(4));
        let formula = crate::oracle::state_formula(sys.vars(), &state, &[c]);
        let mut first = u64::MAX;
        let verdict = checker
            .check_spurious_budgeted(&formula, 6, &mut first)
            .unwrap();
        let spent_first = u64::MAX - first;
        let mut second = u64::MAX;
        assert_eq!(
            checker.check_spurious_budgeted(&formula, 6, &mut second),
            Some(verdict)
        );
        let spent_second = u64::MAX - second;
        assert_eq!(
            spent_first, spent_second,
            "budget charging must not depend on the cache state"
        );
    }
}
