//! The expression AST, constructors, evaluation and traversal.

use crate::intern::{self, ExprId};
use crate::{Sort, SortError, Valuation, Value, VarId};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Arithmetic negation (two's complement).
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean exclusive or.
    Xor,
    /// Boolean implication.
    Implies,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Equality (any matching sorts).
    Eq,
    /// Disequality (any matching sorts).
    Ne,
    /// Strictly less than (integer sorts).
    Lt,
    /// Less than or equal (integer sorts).
    Le,
    /// Strictly greater than (integer sorts).
    Gt,
    /// Greater than or equal (integer sorts).
    Ge,
}

impl BinOp {
    /// The operator symbol used by [`std::fmt::Display`].
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Xor => "^",
            BinOp::Implies => "=>",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// The shape of one expression node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// A constant of the node's sort.
    Const(Value),
    /// A reference to a declared variable.
    Var(VarId),
    /// A unary operation.
    Unary(UnOp, Expr),
    /// A binary operation.
    Binary(BinOp, Expr, Expr),
    /// If-then-else: condition, then-branch, else-branch.
    Ite(Expr, Expr, Expr),
}

#[derive(Debug)]
pub(crate) struct ExprNode {
    /// Dense interner id; equality of ids is equality of trees.
    pub(crate) id: u32,
    /// Cached structural hash (a pure function of `kind` + `sort`).
    pub(crate) shash: u64,
    /// Cached tree size (shared nodes counted once per occurrence),
    /// saturating at `u64::MAX`.
    pub(crate) tree_size: u64,
    pub(crate) kind: ExprKind,
    pub(crate) sort: Sort,
}

/// An immutable, cheaply clonable, **hash-consed** expression.
///
/// Expressions form a DAG of reference-counted nodes managed by a
/// process-global interner: each distinct
/// `(kind, sort)` node exists exactly once, so structurally equal expressions
/// built at different sites share one allocation and one [`ExprId`]. Cloning
/// is an `Arc` clone; [`Eq`]/[`Hash`]/[`Ord`] are O(1) id/hash operations
/// rather than tree walks, which is what makes expressions cheap cache keys
/// throughout the pipeline. Constructors check sorts eagerly so that
/// downstream components (evaluation, bit-blasting) never encounter ill-typed
/// terms; they preserve the shape they are given — the canonicalising
/// rewrites live behind the explicit [`Expr::canonical`] seam so that
/// rendered predicates stay byte-for-byte stable while cache keys
/// canonicalise.
///
/// # Example
///
/// ```
/// use amle_expr::{Expr, Sort, Valuation, Value, VarSet};
///
/// let mut vars = VarSet::new();
/// let x = vars.declare("x", Sort::int(8)).unwrap();
/// let xe = Expr::var(x, Sort::int(8));
/// let pred = xe.add(&Expr::int_val(1, 8)).gt(&Expr::int_val(10, 8));
///
/// let mut v = Valuation::zeroed(&vars);
/// v.set(x, Value::Int(10));
/// assert_eq!(pred.eval(&v), Value::Bool(true));
/// ```
#[derive(Debug, Clone)]
pub struct Expr(Arc<ExprNode>);

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl Eq for Expr {}

impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The cached structural hash: O(1), and — unlike the id — a pure
        // function of the tree content, so hash-based containers behave
        // identically for structurally identical key sets.
        state.write_u64(self.0.shash);
    }
}

impl PartialOrd for Expr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Expr {
    /// An O(1) total order consistent with `Eq`: interning order. Suitable
    /// for ordered containers, **not** for orderings that leak into reports —
    /// ids depend on thread interleaving; use [`Expr::structural_cmp`] where
    /// the order itself must be deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.id.cmp(&other.0.id)
    }
}

impl Expr {
    pub(crate) fn new(kind: ExprKind, sort: Sort) -> Self {
        intern::intern(kind, sort)
    }

    /// Wraps a freshly allocated interner node. Only the interner calls this.
    pub(crate) fn from_node(node: ExprNode) -> Self {
        Expr(Arc::new(node))
    }

    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// The boolean constant `true`.
    pub fn true_() -> Self {
        Expr::new(ExprKind::Const(Value::Bool(true)), Sort::Bool)
    }

    /// The boolean constant `false`.
    pub fn false_() -> Self {
        Expr::new(ExprKind::Const(Value::Bool(false)), Sort::Bool)
    }

    /// A boolean constant.
    pub fn bool_const(b: bool) -> Self {
        if b {
            Expr::true_()
        } else {
            Expr::false_()
        }
    }

    /// An unsigned integer constant of the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the width, naming the offending value
    /// and width.
    pub fn int_val(value: i64, bits: u32) -> Self {
        Expr::constant(&Sort::int(bits), Value::Int(value)).unwrap_or_else(|_| {
            panic!(
                "unsigned constant {value} does not fit the u{bits} sort (0..={})",
                Sort::int(bits).value_range().1
            )
        })
    }

    /// A signed integer constant of the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the width, naming the offending value
    /// and width.
    pub fn signed_int_val(value: i64, bits: u32) -> Self {
        let sort = Sort::signed_int(bits);
        let (lo, hi) = sort.value_range();
        Expr::constant(&sort, Value::Int(value)).unwrap_or_else(|_| {
            panic!("signed constant {value} does not fit the i{bits} sort ({lo}..={hi})")
        })
    }

    /// An enumeration constant referring to the named variant.
    ///
    /// # Panics
    ///
    /// Panics if `sort` is not an enumeration or `variant` is not one of its
    /// variants.
    pub fn enum_val(sort: &Sort, variant: &str) -> Self {
        let idx = sort
            .variant_index(variant)
            .unwrap_or_else(|| panic!("sort {sort} has no variant named `{variant}`"));
        Expr::new(ExprKind::Const(Value::Enum(idx as i64)), sort.clone())
    }

    /// A constant of an arbitrary sort.
    ///
    /// # Errors
    ///
    /// Returns [`SortError::ConstantOutOfRange`] if the value does not fit the
    /// sort, or [`SortError::Expected`] if the value's category does not match
    /// the sort.
    pub fn constant(sort: &Sort, value: Value) -> Result<Self, SortError> {
        if !value.fits(sort) {
            return match value {
                Value::Int(v) | Value::Enum(v) => Err(SortError::ConstantOutOfRange {
                    value: v,
                    sort: sort.clone(),
                }),
                Value::Bool(_) => Err(SortError::Expected {
                    op: "const",
                    expected: "bool",
                    found: sort.clone(),
                }),
            };
        }
        Ok(Expr::new(ExprKind::Const(value), sort.clone()))
    }

    /// A reference to a declared variable of the given sort.
    ///
    /// The caller is responsible for passing the sort the variable was
    /// declared with (the `amle-system` crate provides a convenience that
    /// looks the sort up in the [`crate::VarSet`]).
    pub fn var(id: VarId, sort: Sort) -> Self {
        Expr::new(ExprKind::Var(id), sort)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The sort of this expression.
    pub fn sort(&self) -> &Sort {
        &self.0.sort
    }

    /// The top-level node shape.
    pub fn kind(&self) -> &ExprKind {
        &self.0.kind
    }

    /// The interner id of this expression: equal ids ⟺ structurally equal
    /// trees. The O(1) cache key used by the bit-blaster's memo tables and
    /// the checker's session maps.
    pub fn id(&self) -> ExprId {
        ExprId(self.0.id)
    }

    /// The cached structural hash: a deterministic pure function of the tree
    /// content (unlike the id, which depends on interning order).
    pub fn structural_hash(&self) -> u64 {
        self.0.shash
    }

    pub(crate) fn tree_size(&self) -> u64 {
        self.0.tree_size
    }

    /// A deterministic total order on expressions, consistent with `Eq`:
    /// a pure function of the two trees' contents, independent of interning
    /// order. The canonicaliser sorts commutative operand chains with this,
    /// which is what keeps canonical forms — and therefore verdict-cache
    /// behaviour — identical across runs, worker counts and thread
    /// interleavings. Cost: O(1) in the common cases (id equality or
    /// distinct structural hashes), O(tree) only on hash collisions.
    pub fn structural_cmp(&self, other: &Expr) -> Ordering {
        if self.0.id == other.0.id {
            return Ordering::Equal;
        }
        self.0
            .shash
            .cmp(&other.0.shash)
            .then_with(|| Self::structural_cmp_deep(self, other))
    }

    /// Tie-break for hash collisions: lexicographic comparison of the trees.
    fn structural_cmp_deep(a: &Expr, b: &Expr) -> Ordering {
        fn rank(kind: &ExprKind) -> u8 {
            match kind {
                ExprKind::Const(_) => 0,
                ExprKind::Var(_) => 1,
                ExprKind::Unary(..) => 2,
                ExprKind::Binary(..) => 3,
                ExprKind::Ite(..) => 4,
            }
        }
        fn sort_cmp(a: &Sort, b: &Sort) -> Ordering {
            fn key(s: &Sort) -> (u8, u32, bool, &str) {
                match s {
                    Sort::Bool => (0, 0, false, ""),
                    Sort::Int { bits, signed } => (1, *bits, *signed, ""),
                    Sort::Enum(e) => (2, e.variants.len() as u32, false, e.name.as_str()),
                }
            }
            key(a)
                .cmp(&key(b))
                .then_with(|| match (a.enum_variants(), b.enum_variants()) {
                    (Some(va), Some(vb)) => va.cmp(vb),
                    _ => Ordering::Equal,
                })
        }
        sort_cmp(a.sort(), b.sort())
            .then_with(|| rank(a.kind()).cmp(&rank(b.kind())))
            .then_with(|| match (a.kind(), b.kind()) {
                (ExprKind::Const(va), ExprKind::Const(vb)) => va.cmp(vb),
                (ExprKind::Var(ia), ExprKind::Var(ib)) => ia.cmp(ib),
                (ExprKind::Unary(opa, aa), ExprKind::Unary(opb, ab)) => (*opa as u8)
                    .cmp(&(*opb as u8))
                    .then_with(|| aa.structural_cmp(ab)),
                (ExprKind::Binary(opa, aa, ba), ExprKind::Binary(opb, ab, bb)) => (*opa as u8)
                    .cmp(&(*opb as u8))
                    .then_with(|| aa.structural_cmp(ab))
                    .then_with(|| ba.structural_cmp(bb)),
                (ExprKind::Ite(ca, ta, ea), ExprKind::Ite(cb, tb, eb)) => ca
                    .structural_cmp(cb)
                    .then_with(|| ta.structural_cmp(tb))
                    .then_with(|| ea.structural_cmp(eb)),
                _ => unreachable!("rank() ordered distinct kinds"),
            })
    }

    /// Returns the constant value if this expression is a literal constant.
    pub fn as_const(&self) -> Option<Value> {
        match self.kind() {
            ExprKind::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns `true` if this is the literal constant `true`.
    pub fn is_true(&self) -> bool {
        self.as_const() == Some(Value::Bool(true))
    }

    /// Returns `true` if this is the literal constant `false`.
    pub fn is_false(&self) -> bool {
        self.as_const() == Some(Value::Bool(false))
    }

    // ------------------------------------------------------------------
    // Fallible builders
    // ------------------------------------------------------------------

    /// Builds a boolean binary operation, checking that both operands are
    /// boolean.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] if either operand is not boolean.
    pub fn try_bool_op(op: BinOp, a: &Expr, b: &Expr) -> Result<Expr, SortError> {
        debug_assert!(matches!(
            op,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Implies
        ));
        for e in [a, b] {
            if !e.sort().is_bool() {
                return Err(SortError::Expected {
                    op: op.symbol(),
                    expected: "bool",
                    found: e.sort().clone(),
                });
            }
        }
        Ok(Expr::new(
            ExprKind::Binary(op, a.clone(), b.clone()),
            Sort::Bool,
        ))
    }

    /// Builds an arithmetic binary operation, checking that both operands are
    /// integers of the same sort.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] on non-integer or mismatched operands.
    pub fn try_arith_op(op: BinOp, a: &Expr, b: &Expr) -> Result<Expr, SortError> {
        debug_assert!(matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul));
        for e in [a, b] {
            if !e.sort().is_int() {
                return Err(SortError::Expected {
                    op: op.symbol(),
                    expected: "int",
                    found: e.sort().clone(),
                });
            }
        }
        if !a.sort().compatible(b.sort()) {
            return Err(SortError::Mismatch {
                op: op.symbol(),
                left: a.sort().clone(),
                right: b.sort().clone(),
            });
        }
        Ok(Expr::new(
            ExprKind::Binary(op, a.clone(), b.clone()),
            a.sort().clone(),
        ))
    }

    /// Builds a comparison, checking operand sorts.
    ///
    /// Equality and disequality accept any pair of matching sorts; the
    /// ordering comparisons require integer (or enumeration) operands.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] on mismatched or unsupported operand sorts.
    pub fn try_cmp_op(op: BinOp, a: &Expr, b: &Expr) -> Result<Expr, SortError> {
        debug_assert!(matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ));
        if !a.sort().compatible(b.sort()) {
            return Err(SortError::Mismatch {
                op: op.symbol(),
                left: a.sort().clone(),
                right: b.sort().clone(),
            });
        }
        if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) && a.sort().is_bool() {
            return Err(SortError::Expected {
                op: op.symbol(),
                expected: "int or enum",
                found: a.sort().clone(),
            });
        }
        Ok(Expr::new(
            ExprKind::Binary(op, a.clone(), b.clone()),
            Sort::Bool,
        ))
    }

    /// Builds an if-then-else expression.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] if the condition is not boolean or the branches
    /// have different sorts.
    pub fn try_ite(cond: &Expr, then: &Expr, els: &Expr) -> Result<Expr, SortError> {
        if !cond.sort().is_bool() {
            return Err(SortError::Expected {
                op: "ite",
                expected: "bool",
                found: cond.sort().clone(),
            });
        }
        if !then.sort().compatible(els.sort()) {
            return Err(SortError::Mismatch {
                op: "ite",
                left: then.sort().clone(),
                right: els.sort().clone(),
            });
        }
        Ok(Expr::new(
            ExprKind::Ite(cond.clone(), then.clone(), els.clone()),
            then.sort().clone(),
        ))
    }

    // ------------------------------------------------------------------
    // Convenience (panicking) builders
    // ------------------------------------------------------------------

    /// Boolean negation.
    ///
    /// # Panics
    ///
    /// Panics if the operand is not boolean.
    pub fn not(&self) -> Expr {
        assert!(
            self.sort().is_bool(),
            "operand of `!` must be bool, found {}",
            self.sort()
        );
        Expr::new(ExprKind::Unary(UnOp::Not, self.clone()), Sort::Bool)
    }

    /// Arithmetic negation (two's complement wrap-around).
    ///
    /// # Panics
    ///
    /// Panics if the operand is not an integer.
    pub fn neg(&self) -> Expr {
        assert!(
            self.sort().is_int(),
            "operand of unary `-` must be int, found {}",
            self.sort()
        );
        Expr::new(
            ExprKind::Unary(UnOp::Neg, self.clone()),
            self.sort().clone(),
        )
    }

    /// Boolean conjunction. See [`Expr::try_bool_op`] for the fallible form.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not boolean.
    pub fn and(&self, other: &Expr) -> Expr {
        Expr::try_bool_op(BinOp::And, self, other).expect("ill-sorted conjunction")
    }

    /// Boolean disjunction.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not boolean.
    pub fn or(&self, other: &Expr) -> Expr {
        Expr::try_bool_op(BinOp::Or, self, other).expect("ill-sorted disjunction")
    }

    /// Boolean exclusive or.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not boolean.
    pub fn xor(&self, other: &Expr) -> Expr {
        Expr::try_bool_op(BinOp::Xor, self, other).expect("ill-sorted xor")
    }

    /// Boolean implication.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not boolean.
    pub fn implies(&self, other: &Expr) -> Expr {
        Expr::try_bool_op(BinOp::Implies, self, other).expect("ill-sorted implication")
    }

    /// Wrapping addition.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not integers of the same sort.
    pub fn add(&self, other: &Expr) -> Expr {
        Expr::try_arith_op(BinOp::Add, self, other).expect("ill-sorted addition")
    }

    /// Wrapping subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not integers of the same sort.
    pub fn sub(&self, other: &Expr) -> Expr {
        Expr::try_arith_op(BinOp::Sub, self, other).expect("ill-sorted subtraction")
    }

    /// Wrapping multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not integers of the same sort.
    pub fn mul(&self, other: &Expr) -> Expr {
        Expr::try_arith_op(BinOp::Mul, self, other).expect("ill-sorted multiplication")
    }

    /// Equality.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different sorts.
    pub fn eq(&self, other: &Expr) -> Expr {
        Expr::try_cmp_op(BinOp::Eq, self, other).expect("ill-sorted equality")
    }

    /// Disequality.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different sorts.
    pub fn ne(&self, other: &Expr) -> Expr {
        Expr::try_cmp_op(BinOp::Ne, self, other).expect("ill-sorted disequality")
    }

    /// Strictly-less-than comparison.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not comparable.
    pub fn lt(&self, other: &Expr) -> Expr {
        Expr::try_cmp_op(BinOp::Lt, self, other).expect("ill-sorted comparison")
    }

    /// Less-than-or-equal comparison.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not comparable.
    pub fn le(&self, other: &Expr) -> Expr {
        Expr::try_cmp_op(BinOp::Le, self, other).expect("ill-sorted comparison")
    }

    /// Strictly-greater-than comparison.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not comparable.
    pub fn gt(&self, other: &Expr) -> Expr {
        Expr::try_cmp_op(BinOp::Gt, self, other).expect("ill-sorted comparison")
    }

    /// Greater-than-or-equal comparison.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not comparable.
    pub fn ge(&self, other: &Expr) -> Expr {
        Expr::try_cmp_op(BinOp::Ge, self, other).expect("ill-sorted comparison")
    }

    /// If-then-else.
    ///
    /// # Panics
    ///
    /// Panics if the condition is not boolean or the branches differ in sort.
    pub fn ite(&self, then: &Expr, els: &Expr) -> Expr {
        Expr::try_ite(self, then, els).expect("ill-sorted if-then-else")
    }

    /// Conjunction of an arbitrary number of boolean expressions.
    ///
    /// The empty conjunction is `true`.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not boolean.
    pub fn and_all<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::true_(),
            Some(first) => it.fold(first, |acc, e| acc.and(&e)),
        }
    }

    /// Disjunction of an arbitrary number of boolean expressions.
    ///
    /// The empty disjunction is `false`.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not boolean.
    pub fn or_all<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::false_(),
            Some(first) => it.fold(first, |acc, e| acc.or(&e)),
        }
    }

    // ------------------------------------------------------------------
    // Evaluation and traversal
    // ------------------------------------------------------------------

    /// Evaluates the expression under a valuation.
    ///
    /// Arithmetic wraps around according to the expression's sort, mirroring
    /// the fixed-width semantics used by the bit-blaster.
    ///
    /// # Panics
    ///
    /// Panics if the valuation does not cover a referenced variable or if a
    /// variable's stored value does not match the sort it is used with (both
    /// indicate that the expression and valuation come from different
    /// [`crate::VarSet`]s).
    pub fn eval(&self, valuation: &Valuation) -> Value {
        match self.kind() {
            ExprKind::Const(v) => *v,
            ExprKind::Var(id) => valuation.value(*id),
            ExprKind::Unary(op, a) => {
                let av = a.eval(valuation);
                match op {
                    UnOp::Not => Value::Bool(!av.as_bool().expect("`!` applied to non-bool")),
                    UnOp::Neg => {
                        let v = av.as_int().expect("unary `-` applied to non-int");
                        Value::Int(self.sort().wrap(-v))
                    }
                }
            }
            ExprKind::Binary(op, a, b) => {
                let av = a.eval(valuation);
                let bv = b.eval(valuation);
                match op {
                    BinOp::And => Value::Bool(
                        av.as_bool().expect("bool operand") && bv.as_bool().expect("bool operand"),
                    ),
                    BinOp::Or => Value::Bool(
                        av.as_bool().expect("bool operand") || bv.as_bool().expect("bool operand"),
                    ),
                    BinOp::Xor => Value::Bool(
                        av.as_bool().expect("bool operand") ^ bv.as_bool().expect("bool operand"),
                    ),
                    BinOp::Implies => Value::Bool(
                        !av.as_bool().expect("bool operand") || bv.as_bool().expect("bool operand"),
                    ),
                    BinOp::Add => Value::Int(self.sort().wrap(
                        av.as_int().expect("int operand") + bv.as_int().expect("int operand"),
                    )),
                    BinOp::Sub => Value::Int(self.sort().wrap(
                        av.as_int().expect("int operand") - bv.as_int().expect("int operand"),
                    )),
                    BinOp::Mul => Value::Int(
                        self.sort().wrap(
                            av.as_int()
                                .expect("int operand")
                                .wrapping_mul(bv.as_int().expect("int operand")),
                        ),
                    ),
                    BinOp::Eq => Value::Bool(av == bv),
                    BinOp::Ne => Value::Bool(av != bv),
                    BinOp::Lt => Value::Bool(av.to_i64() < bv.to_i64()),
                    BinOp::Le => Value::Bool(av.to_i64() <= bv.to_i64()),
                    BinOp::Gt => Value::Bool(av.to_i64() > bv.to_i64()),
                    BinOp::Ge => Value::Bool(av.to_i64() >= bv.to_i64()),
                }
            }
            ExprKind::Ite(c, t, e) => {
                if c.eval(valuation).as_bool().expect("bool condition") {
                    t.eval(valuation)
                } else {
                    e.eval(valuation)
                }
            }
        }
    }

    /// Evaluates a boolean expression under a valuation.
    ///
    /// # Panics
    ///
    /// Panics if the expression is not boolean (see [`Expr::eval`] for the
    /// other panic conditions).
    pub fn eval_bool(&self, valuation: &Valuation) -> bool {
        self.eval(valuation)
            .as_bool()
            .expect("eval_bool called on a non-boolean expression")
    }

    /// The set of variables referenced by this expression.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self.kind() {
            ExprKind::Const(_) => {}
            ExprKind::Var(id) => {
                out.insert(*id);
            }
            ExprKind::Unary(_, a) => a.collect_vars(out),
            ExprKind::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            ExprKind::Ite(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }

    /// Replaces variable references according to `map`, leaving unmapped
    /// variables untouched.
    ///
    /// Substituted expressions must have the same sort as the variable they
    /// replace; this is asserted.
    pub fn substitute(&self, map: &HashMap<VarId, Expr>) -> Expr {
        match self.kind() {
            ExprKind::Const(_) => self.clone(),
            ExprKind::Var(id) => match map.get(id) {
                Some(repl) => {
                    assert!(
                        repl.sort().compatible(self.sort()),
                        "substitution for {id} changes sort from {} to {}",
                        self.sort(),
                        repl.sort()
                    );
                    repl.clone()
                }
                None => self.clone(),
            },
            ExprKind::Unary(op, a) => {
                Expr::new(ExprKind::Unary(*op, a.substitute(map)), self.sort().clone())
            }
            ExprKind::Binary(op, a, b) => Expr::new(
                ExprKind::Binary(*op, a.substitute(map), b.substitute(map)),
                self.sort().clone(),
            ),
            ExprKind::Ite(c, t, e) => Expr::new(
                ExprKind::Ite(c.substitute(map), t.substitute(map), e.substitute(map)),
                self.sort().clone(),
            ),
        }
    }

    /// Number of nodes in the expression *tree* (counting shared nodes once
    /// per occurrence). Used as a crude size measure in tests and reports.
    ///
    /// The count is precomputed bottom-up at interning time from the
    /// children's cached counts, so reading it is O(1) even on heavily shared
    /// DAGs — the naive recursion it replaces re-walked every shared subtree
    /// once per occurrence, which is exponential time on expressions like a
    /// 60-deep `e = e + e` chain. On such inputs the tree count saturates at
    /// `usize::MAX`; use [`Expr::dag_size`] when the number of *distinct*
    /// nodes is the honest measure.
    pub fn node_count(&self) -> usize {
        usize::try_from(self.0.tree_size).unwrap_or(usize::MAX)
    }

    /// Number of **distinct** nodes in the expression DAG — the actual memory
    /// and traversal footprint, which is what should feed reports and work
    /// budgets (the tree-shaped [`Expr::node_count`] overstates shared
    /// expressions exponentially). O(distinct nodes).
    pub fn dag_size(&self) -> usize {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut stack: Vec<Expr> = vec![self.clone()];
        while let Some(e) = stack.pop() {
            if !seen.insert(e.0.id) {
                continue;
            }
            match e.kind() {
                ExprKind::Const(_) | ExprKind::Var(_) => {}
                ExprKind::Unary(_, a) => stack.push(a.clone()),
                ExprKind::Binary(_, a, b) => {
                    stack.push(a.clone());
                    stack.push(b.clone());
                }
                ExprKind::Ite(c, t, e) => {
                    stack.push(c.clone());
                    stack.push(t.clone());
                    stack.push(e.clone());
                }
            }
        }
        seen.len()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExprKind::Const(v) => match (self.sort(), v) {
                (Sort::Enum(e), Value::Enum(idx)) => match e.variants.get(*idx as usize) {
                    Some(name) => write!(f, "{name}"),
                    None => write!(f, "{v}"),
                },
                _ => write!(f, "{v}"),
            },
            ExprKind::Var(id) => write!(f, "{id}"),
            ExprKind::Unary(UnOp::Not, a) => write!(f, "!({a})"),
            ExprKind::Unary(UnOp::Neg, a) => write!(f, "-({a})"),
            ExprKind::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ExprKind::Ite(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarSet;

    fn setup() -> (VarSet, Valuation, Expr, Expr, Expr) {
        let mut vars = VarSet::new();
        let x = vars.declare("x", Sort::int(8)).unwrap();
        let y = vars.declare("y", Sort::int(8)).unwrap();
        let b = vars.declare("b", Sort::Bool).unwrap();
        let val = Valuation::zeroed(&vars);
        (
            vars,
            val,
            Expr::var(x, Sort::int(8)),
            Expr::var(y, Sort::int(8)),
            Expr::var(b, Sort::Bool),
        )
    }

    #[test]
    fn constants() {
        assert!(Expr::true_().is_true());
        assert!(Expr::false_().is_false());
        assert_eq!(Expr::int_val(5, 8).as_const(), Some(Value::Int(5)));
        assert_eq!(Expr::signed_int_val(-5, 8).as_const(), Some(Value::Int(-5)));
        assert!(Expr::constant(&Sort::int(4), Value::Int(20)).is_err());
        assert!(Expr::constant(&Sort::int(4), Value::Bool(true)).is_err());
    }

    #[test]
    fn enum_constants() {
        let mode = Sort::enumeration("Mode", ["Off", "On"]);
        let on = Expr::enum_val(&mode, "On");
        assert_eq!(on.as_const(), Some(Value::Enum(1)));
        assert_eq!(on.to_string(), "On");
    }

    #[test]
    #[should_panic(expected = "no variant named")]
    fn enum_constant_unknown_variant() {
        let mode = Sort::enumeration("Mode", ["Off", "On"]);
        let _ = Expr::enum_val(&mode, "Broken");
    }

    #[test]
    fn arithmetic_wraps() {
        let (_, val, x, _, _) = setup();
        let e = x.add(&Expr::int_val(255, 8)).add(&Expr::int_val(2, 8));
        // x = 0, so 0 + 255 + 2 wraps to 1 in u8.
        assert_eq!(e.eval(&val), Value::Int(1));
        let m = Expr::int_val(16, 8).mul(&Expr::int_val(16, 8));
        let zero = Valuation::from_values(&VarSet::new(), vec![]);
        assert_eq!(m.eval(&zero), Value::Int(0));
    }

    #[test]
    fn signed_arithmetic() {
        let e = Expr::signed_int_val(-3, 8).sub(&Expr::signed_int_val(126, 8));
        let empty_vars = VarSet::new();
        let val = Valuation::zeroed(&empty_vars);
        assert_eq!(e.eval(&val), Value::Int(127));
        let n = Expr::signed_int_val(-128, 8).neg();
        assert_eq!(n.eval(&val), Value::Int(-128));
    }

    #[test]
    fn boolean_operators() {
        let (_, mut val, _, _, b) = setup();
        let t = Expr::true_();
        assert!(t.and(&b.not()).eval_bool(&val));
        assert!(!t.and(&b).eval_bool(&val));
        assert!(t.or(&b).eval_bool(&val));
        assert!(b.implies(&Expr::false_()).eval_bool(&val));
        assert!(t.xor(&b).eval_bool(&val));
        val.set(crate::VarId::from_index(2), Value::Bool(true));
        assert!(!b.implies(&Expr::false_()).eval_bool(&val));
    }

    #[test]
    fn comparisons() {
        let (_, mut val, x, y, _) = setup();
        val.set(crate::VarId::from_index(0), Value::Int(4));
        val.set(crate::VarId::from_index(1), Value::Int(7));
        assert!(x.lt(&y).eval_bool(&val));
        assert!(x.le(&y).eval_bool(&val));
        assert!(!x.gt(&y).eval_bool(&val));
        assert!(!x.ge(&y).eval_bool(&val));
        assert!(x.ne(&y).eval_bool(&val));
        assert!(!x.eq(&y).eval_bool(&val));
        assert!(x.eq(&Expr::int_val(4, 8)).eval_bool(&val));
    }

    #[test]
    fn ite() {
        let (_, mut val, x, y, b) = setup();
        let e = b.ite(&x, &y);
        val.set(crate::VarId::from_index(0), Value::Int(10));
        val.set(crate::VarId::from_index(1), Value::Int(20));
        assert_eq!(e.eval(&val), Value::Int(20));
        val.set(crate::VarId::from_index(2), Value::Bool(true));
        assert_eq!(e.eval(&val), Value::Int(10));
    }

    #[test]
    fn sort_errors() {
        let (_, _, x, _, b) = setup();
        assert!(Expr::try_bool_op(BinOp::And, &x, &b).is_err());
        assert!(Expr::try_arith_op(BinOp::Add, &b, &b).is_err());
        assert!(Expr::try_cmp_op(BinOp::Eq, &x, &b).is_err());
        assert!(Expr::try_cmp_op(BinOp::Lt, &b, &b).is_err());
        assert!(Expr::try_ite(&x, &x, &x).is_err());
        assert!(Expr::try_ite(&b, &x, &b).is_err());
        let y9 = Expr::int_val(1, 9);
        assert!(Expr::try_arith_op(BinOp::Add, &x, &y9).is_err());
    }

    #[test]
    fn and_all_or_all() {
        let (_, val, _, _, b) = setup();
        assert!(Expr::and_all(std::iter::empty()).eval_bool(&val));
        assert!(!Expr::or_all(std::iter::empty()).eval_bool(&val));
        let conj = Expr::and_all([Expr::true_(), b.not(), Expr::true_()]);
        assert!(conj.eval_bool(&val));
        let disj = Expr::or_all([Expr::false_(), b.clone()]);
        assert!(!disj.eval_bool(&val));
    }

    #[test]
    fn free_vars_and_substitution() {
        let (_, val, x, y, b) = setup();
        let e = b.ite(&x.add(&y), &x);
        let fv = e.free_vars();
        assert_eq!(fv.len(), 3);

        let mut map = HashMap::new();
        map.insert(crate::VarId::from_index(1), Expr::int_val(9, 8));
        let e2 = e.substitute(&map);
        assert_eq!(e2.free_vars().len(), 2);
        let mut v = val.clone();
        v.set(crate::VarId::from_index(2), Value::Bool(true));
        v.set(crate::VarId::from_index(0), Value::Int(1));
        assert_eq!(e2.eval(&v), Value::Int(10));
    }

    #[test]
    #[should_panic(expected = "changes sort")]
    fn substitution_sort_checked() {
        let (_, _, x, _, _) = setup();
        let mut map = HashMap::new();
        map.insert(crate::VarId::from_index(0), Expr::true_());
        let _ = x.substitute(&map);
    }

    #[test]
    fn display_round_trips_visually() {
        let (_, _, x, y, b) = setup();
        let e = b.and(&x.gt(&y));
        assert_eq!(e.to_string(), "(x2 && (x0 > x1))");
        assert_eq!(x.add(&y).neg().to_string(), "-((x0 + x1))");
        assert_eq!(b.not().to_string(), "!(x2)");
        assert_eq!(b.ite(&x, &y).to_string(), "(if x2 then x0 else x1)");
    }

    #[test]
    fn node_count() {
        let (_, _, x, y, _) = setup();
        assert_eq!(x.node_count(), 1);
        assert_eq!(x.add(&y).node_count(), 3);
        assert_eq!(x.add(&y).eq(&x).node_count(), 5);
    }

    /// The regression the `dag_size` satellite pins: a 64-deep `e = e + e`
    /// doubling chain has 2^65 - 1 tree nodes. The old recursive
    /// `node_count` walked them all (practically hanging); now the tree
    /// count is a saturating O(1) read and `dag_size` reports the honest
    /// footprint.
    #[test]
    fn node_count_is_safe_on_exponentially_shared_dags() {
        let (_, _, x, _, _) = setup();
        let mut e = x;
        for _ in 0..64 {
            e = e.add(&e);
        }
        assert_eq!(e.node_count(), usize::MAX, "tree count saturates");
        assert_eq!(e.dag_size(), 65, "one variable + 64 adders");
    }

    #[test]
    fn dag_size_counts_distinct_nodes() {
        let (_, _, x, y, _) = setup();
        let sum = x.add(&y);
        // (x + y) == (x + y): 5 tree occurrences, 4 distinct nodes.
        let e = sum.eq(&sum);
        assert_eq!(e.node_count(), 7);
        assert_eq!(e.dag_size(), 4);
        assert_eq!(x.dag_size(), 1);
    }

    #[test]
    fn exprs_are_cheap_to_clone_and_hash() {
        use std::collections::HashSet;
        let (_, _, x, y, _) = setup();
        let e1 = x.add(&y);
        let e2 = e1.clone();
        let mut set = HashSet::new();
        set.insert(e1);
        assert!(set.contains(&e2));
    }

    #[test]
    fn equality_is_id_equality() {
        let (_, _, x, y, _) = setup();
        let a = x.add(&y).gt(&x);
        let b = x.add(&y).gt(&x);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.structural_cmp(&b), std::cmp::Ordering::Equal);
        let c = y.add(&x).gt(&x);
        assert_ne!(a, c);
        assert_ne!(a.id(), c.id());
        assert_ne!(a.structural_cmp(&c), std::cmp::Ordering::Equal);
    }

    #[test]
    fn structural_cmp_is_a_deterministic_total_order() {
        let (_, _, x, y, b) = setup();
        let exprs = [
            Expr::true_(),
            x.clone(),
            y.clone(),
            b.not(),
            x.add(&y),
            x.lt(&y),
            b.ite(&x, &y).eq(&x),
        ];
        for a in &exprs {
            for c in &exprs {
                let ab = a.structural_cmp(c);
                assert_eq!(ab, c.structural_cmp(a).reverse(), "antisymmetry");
                assert_eq!(
                    ab == std::cmp::Ordering::Equal,
                    a == c,
                    "consistency with Eq"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsigned constant 300 does not fit the u8 sort")]
    fn int_val_panic_names_value_and_width() {
        let _ = Expr::int_val(300, 8);
    }

    #[test]
    #[should_panic(expected = "signed constant -129 does not fit the i8 sort (-128..=127)")]
    fn signed_int_val_panic_names_value_and_width() {
        let _ = Expr::signed_int_val(-129, 8);
    }

    #[test]
    #[should_panic(expected = "signed constant 128 does not fit the i8 sort")]
    fn signed_int_val_panic_fires_for_positive_overflow_too() {
        let _ = Expr::signed_int_val(128, 8);
    }
}
