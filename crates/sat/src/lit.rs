//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense index.
///
/// Variables are created by [`crate::Solver::new_var`] or
/// [`crate::CnfFormula::new_var`] and are valid only for the object that
/// created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The dense index of the variable (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from a raw 0-based index.
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0 + 1)
    }
}

/// A literal: a variable together with a polarity.
///
/// Internally encoded as `2 * var + negated`, the conventional encoding that
/// makes watch-list indexing cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Self {
        if positive {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        }
    }

    /// The variable of this literal.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a positive (non-negated) literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The dense code of the literal (`2 * var + negated`), used for
    /// watch-list indexing.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Builds a literal from its dense code.
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips() {
        let v = Var::from_index(7);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_code(p.code()), p);
        assert_eq!(Lit::new(v, true), p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn display() {
        let v = Var::from_index(0);
        assert_eq!(Lit::positive(v).to_string(), "v1");
        assert_eq!(Lit::negative(v).to_string(), "!v1");
    }
}
