//! # amle-bitblast
//!
//! Word-level to CNF translation (bit-blasting) of `amle-expr` expressions,
//! emitting clauses straight into an [`amle_sat::Solver`] that the encoder
//! owns — the persistent incremental sessions of the model checker are
//! encoders kept alive across queries.
//!
//! The central type is [`Encoder`]. It manages *frames* — copies of the
//! system variables at consecutive time steps — so that the bounded model
//! checker in `amle-checker` can unroll a transition relation:
//!
//! * [`Encoder::word`] returns (allocating on demand) the bit-vector of a
//!   variable in a given frame,
//! * [`Encoder::encode_bool`] Tseitin-encodes a boolean expression over a
//!   frame and returns its output literal,
//! * [`Encoder::assert_expr`] / [`Encoder::assert_not_expr`] add unit
//!   constraints,
//! * [`Encoder::assert_var_equals_expr_across`] constrains a variable in one
//!   frame to equal an expression evaluated over another frame — exactly the
//!   shape `x' = f(X)` of the paper's transition-relation implementations,
//! * [`Encoder::decode_frame`] reads a satisfying model back into a
//!   word-level [`amle_expr::Valuation`] (used to produce counterexample
//!   traces).
//!
//! Supported operations mirror the expression language: boolean connectives,
//! fixed-width wrap-around add/sub/mul/negate, signed and unsigned
//! comparisons, equality over booleans/integers/enumerations and
//! if-then-else.
//!
//! ## Example
//!
//! ```
//! use amle_bitblast::Encoder;
//! use amle_expr::{Expr, Sort, VarSet};
//! use amle_sat::SolveResult;
//!
//! let mut vars = VarSet::new();
//! let x = vars.declare("x", Sort::int(8)).unwrap();
//! let xe = Expr::var(x, Sort::int(8));
//!
//! // Is there an x with x + 1 == 0 (wrap-around)? Yes: x = 255.
//! let mut enc = Encoder::new(&vars);
//! let query = xe.add(&Expr::int_val(1, 8)).eq(&Expr::int_val(0, 8));
//! enc.assert_expr(0, &query);
//! assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
//! let model = enc.solver().model();
//! let valuation = enc.decode_frame(&model, 0);
//! assert_eq!(valuation.value(x).to_i64(), 255);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;

pub use encoder::{Encoder, Word};

#[cfg(test)]
mod proptests;
