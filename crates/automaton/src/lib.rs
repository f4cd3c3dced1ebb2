//! # amle-automaton
//!
//! Symbolic non-deterministic finite automata (NFAs) with predicate-labelled
//! edges — the abstraction formalism of the paper.
//!
//! An [`Nfa`] has a finite set of states, a set of initial states and
//! transitions guarded by boolean [`amle_expr::Expr`] predicates over the
//! observable variables. The alphabet is the (possibly infinite) set of
//! valuations; a transition can be taken on an observation `v` when its guard
//! evaluates to true on `v`. All states are accepting: a trace is rejected
//! only by running into a dead end, which makes the accepted language
//! prefix-closed — exactly the setting of Section II-A of the paper.
//!
//! The crate provides acceptance checking against traces, structural
//! utilities used by the condition-extraction step (incoming/outgoing
//! predicates per state), reachability-based trimming, language-sampling
//! comparison helpers and DOT export for visual inspection (Fig. 2 of the
//! paper is regenerated this way).
//!
//! ## Example
//!
//! ```
//! use amle_automaton::Nfa;
//! use amle_expr::{Expr, Sort, Valuation, Value, VarSet};
//!
//! let mut vars = VarSet::new();
//! let on = vars.declare("on", Sort::Bool).unwrap();
//! let one = Expr::var(on, Sort::Bool);
//!
//! let mut nfa = Nfa::new();
//! let q1 = nfa.add_state();
//! let q2 = nfa.add_state();
//! nfa.mark_initial(q1);
//! nfa.add_transition(q1, q2, one.clone());
//! nfa.add_transition(q2, q2, one.clone());
//!
//! let mut v_on = Valuation::zeroed(&vars);
//! v_on.set(on, Value::Bool(true));
//! let v_off = Valuation::zeroed(&vars);
//!
//! assert!(nfa.accepts(&[v_on.clone(), v_on.clone()]));
//! assert!(!nfa.accepts(&[v_off]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod nfa;

pub use dot::{display_expr, write_expr};
pub use nfa::{Nfa, StateId, Transition};

#[cfg(test)]
mod proptests;
