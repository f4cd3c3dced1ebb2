//! # amle-checker
//!
//! Software model checking for the active learning loop: bounded model
//! checking and k-induction over the functional transition relation of an
//! [`amle_system::System`], bit-blasted to CNF (`amle-bitblast`) and decided
//! with the CDCL solver (`amle-sat`).
//!
//! The crate implements the two query shapes of the paper (Fig. 3):
//!
//! * **Condition checks** (Fig. 3a) — "from any state satisfying the
//!   assumption `r`, does one system transition always lead to a state
//!   satisfying `s`?" — used with `k = 1` to verify the completeness
//!   conditions (1) and (2) extracted from the candidate abstraction. A
//!   failed check returns the pair of valuations `(v_t, v_{t+1})` as a
//!   counterexample.
//! * **Spurious-counterexample checks** (Fig. 3b) — "is the state `v_t`
//!   reachable from an initial state?" — answered by k-induction with a
//!   user-supplied bound `k`: if both the base case and the step case hold,
//!   the counterexample is guaranteed spurious; if only the step case fails
//!   the result is inconclusive and the paper's rule is to treat the
//!   counterexample as valid but record it.
//!
//! Both query shapes are answered by one oracle type,
//! [`PortfolioOracle`], which owns two engines:
//!
//! * [`KInductionChecker`] — the incremental SAT engine above;
//! * [`ExplicitChecker`] — a production-grade explicit-state engine that
//!   streams input assignments through an odometer (never materialising the
//!   cartesian product), interns its reachability frontier, counts its work
//!   deterministically, and decides **exactly** the same formulas as the
//!   SAT engine — including byte-identical canonical counterexamples.
//!
//! The portfolio routes each query by its estimated concrete size and
//! offers a cross-validation mode asserting engine agreement. Routing
//! bounds the explicit engine's work, so every query it is routed finishes:
//! at most 5 × the routing threshold in evaluations. An [`OracleKind`] only
//! sets its routing threshold ([`OracleKind::route_threshold`]): 0 for the
//! paper's k-induction-only configuration, [`DEFAULT_ROUTE_THRESHOLD`] for
//! the portfolio, which is the default. Both engines give the same verdicts
//! and counterexamples, so the default changes how much SAT work a run
//! does, not what it learns.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod explicit;
mod kinduction;
mod oracle;
mod portfolio;

pub use explicit::{ExplicitChecker, Odometer};
pub use kinduction::{CheckResult, CheckerStats, KInductionChecker, SpuriousResult};
pub use oracle::{state_formula, OracleKind, DEFAULT_ROUTE_THRESHOLD};
pub use portfolio::PortfolioOracle;

#[cfg(test)]
mod proptests;
