//! Activation-literal bookkeeping for incremental sessions.
//!
//! Long-lived [`crate::Solver`] sessions express retractable constraints
//! through activation literals: a clause `¬act ∨ C` is added once and `C`
//! bites only in queries that assume `act`. The pattern recurs in every
//! long-lived session — per-`(formula, bound)` reachability disjunctions,
//! per-disjunct conclusion encodings, per-negative-example blockers — and
//! each use needs the same three things: a key → literal map, allocate-once
//! semantics, and counters separating first-time encodings from reuses (the
//! quantity incremental sessions exist to optimise).
//!
//! [`ActivationLedger`] packages exactly that. It does not talk to the
//! solver itself: the caller's closure allocates the literal and adds the
//! guarded clauses, so the ledger never borrows the solver.

use crate::Lit;
use std::collections::HashMap;
use std::hash::Hash;

/// A key → activation-literal map with allocate-once semantics and
/// fresh/reused counters.
///
/// `K` is whatever identifies the guarded constraint — an interned
/// expression id, a `(formula, bound)` pair, a trace index. The ledger
/// never frees entries: retracting a constraint is done by *not assuming*
/// its literal, which is O(0) and leaves the solver's learnt clauses about
/// it intact.
#[derive(Debug, Clone, Default)]
pub struct ActivationLedger<K> {
    lits: HashMap<K, Lit>,
    fresh: u64,
    reused: u64,
}

impl<K: Hash + Eq> ActivationLedger<K> {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ActivationLedger {
            lits: HashMap::new(),
            fresh: 0,
            reused: 0,
        }
    }

    /// The literal guarding `key`'s constraint, allocating it with `make`
    /// on first sight. `make` runs only on a miss; it typically allocates a
    /// solver variable and adds the clauses guarded by (or defining) the
    /// returned literal.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> Lit) -> Lit {
        match self.lits.entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                self.reused += 1;
                *entry.get()
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                self.fresh += 1;
                *entry.insert(make())
            }
        }
    }

    /// Number of lookups that allocated a fresh literal.
    pub fn fresh(&self) -> u64 {
        self.fresh
    }

    /// Number of lookups answered by an existing entry.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Number of distinct keys ledgered.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` when no key has been ledgered yet.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};

    #[test]
    fn ledger_allocates_once_and_counts() {
        let mut ledger: ActivationLedger<u32> = ActivationLedger::new();
        let mut next = 0u32;
        let mut make = || {
            next += 1;
            Lit::positive(crate::Var::from_index(next as usize))
        };
        let a = ledger.get_or_insert_with(7, &mut make);
        let b = ledger.get_or_insert_with(7, &mut make);
        let c = ledger.get_or_insert_with(8, &mut make);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ledger.fresh(), 2);
        assert_eq!(ledger.reused(), 1);
        assert_eq!(ledger.len(), 2);
        assert!(!ledger.is_empty());
    }

    #[test]
    fn ledgered_constraints_retract_by_omission() {
        // The end-to-end pattern: two guarded unit constraints over one
        // variable; assuming either literal selects its constraint, assuming
        // neither leaves the solver free, and a constraint once retracted
        // never contaminates later queries.
        fn guard(solver: &mut Solver, lit: Lit) -> Lit {
            let act = Lit::positive(solver.new_var());
            solver.add_clause([!act, lit]);
            act
        }
        let mut solver = Solver::new();
        let x = solver.new_var();
        let mut ledger: ActivationLedger<&'static str> = ActivationLedger::new();
        let force_true = ledger.get_or_insert_with("x", || guard(&mut solver, Lit::positive(x)));
        let force_false =
            ledger.get_or_insert_with("not-x", || guard(&mut solver, Lit::negative(x)));
        assert_eq!(
            solver.solve_with_assumptions(&[force_true]),
            SolveResult::Sat
        );
        assert_eq!(solver.value(x), Some(true));
        assert_eq!(
            solver.solve_with_assumptions(&[force_false]),
            SolveResult::Sat
        );
        assert_eq!(solver.value(x), Some(false));
        assert_eq!(
            solver.solve_with_assumptions(&[force_true, force_false]),
            SolveResult::Unsat
        );
        // Both constraints retracted: the solver is free again.
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(ledger.fresh(), 2);
    }
}
