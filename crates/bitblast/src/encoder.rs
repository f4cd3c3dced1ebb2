//! The Tseitin bit-blasting encoder.

use amle_expr::{BinOp, Expr, ExprId, ExprKind, Sort, UnOp, Valuation, Value, VarId, VarSet};
use amle_sat::{Lit, Solver};
use std::collections::HashMap;

/// A bit-vector operand: literals in LSB-first order plus a signedness flag
/// controlling how comparisons interpret the most significant bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    bits: Vec<Lit>,
    signed: bool,
}

impl Word {
    /// The bit literals, least significant first.
    pub fn bits(&self) -> &[Lit] {
        &self.bits
    }

    /// Width of the word in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Whether comparisons treat this word as two's complement.
    pub fn is_signed(&self) -> bool {
        self.signed
    }
}

/// Incremental word-level to CNF encoder over time frames.
///
/// The encoder owns the [`Solver`] its clauses go into. The k-induction
/// checker keeps one encoder per query shape alive across queries, so each
/// persistent session solves over everything it encoded before instead of
/// re-encoding from scratch at every query.
///
/// Boolean and word encodings are memoised per `(frame, expression)`, keyed
/// by the expression's interned [`ExprId`] — probing is a constant-time
/// integer lookup, and structurally identical expressions built at different
/// sites (the refinement loop rebuilds its predicates every iteration) hit
/// the same entry without a tree walk. Repeated queries over a persistent
/// encoder therefore reuse the Tseitin definitions they already emitted.
///
/// See the [crate documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct Encoder {
    vars: VarSet,
    solver: Solver,
    true_lit: Lit,
    frames: HashMap<(usize, u32), Word>,
    bool_cache: HashMap<(usize, ExprId), Lit>,
    word_cache: HashMap<(usize, ExprId), Word>,
}

impl Encoder {
    /// Creates an encoder for systems over the given variable table, writing
    /// into a fresh [`Solver`] whose first variable is the constant true.
    pub fn new(vars: &VarSet) -> Self {
        let mut solver = Solver::new();
        let true_lit = Lit::positive(solver.new_var());
        solver.add_clause([true_lit]);
        Encoder {
            vars: vars.clone(),
            solver,
            true_lit,
            frames: HashMap::new(),
            bool_cache: HashMap::new(),
            word_cache: HashMap::new(),
        }
    }

    /// The solver the encoder writes into.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutable access to the solver, to solve or to add clauses over the
    /// encoded literals.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// The literal that is constrained to be true in every model.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The literal that is constrained to be false in every model.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    fn fresh_lit(&mut self) -> Lit {
        Lit::positive(self.solver.new_var())
    }

    /// The bit-vector of variable `id` in time frame `frame`, allocating the
    /// bits (and any sort range constraints) on first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not declared in the encoder's variable table.
    pub fn word(&mut self, frame: usize, id: VarId) -> Word {
        let key = (frame, id.index() as u32);
        if let Some(w) = self.frames.get(&key) {
            return w.clone();
        }
        let sort = self.vars.sort(id).clone();
        let width = sort.bit_width() as usize;
        let bits: Vec<Lit> = (0..width).map(|_| self.fresh_lit()).collect();
        let signed = matches!(sort, Sort::Int { signed: true, .. });
        let word = Word { bits, signed };
        // Enumeration sorts with a non-power-of-two cardinality need the
        // out-of-range codes blocked.
        if let Sort::Enum(e) = &sort {
            let n = e.variants.len() as u64;
            for code in n..(1u64 << width) {
                let clause: Vec<Lit> = (0..width)
                    .map(|b| {
                        let bit = word.bits[b];
                        if code & (1 << b) != 0 {
                            !bit
                        } else {
                            bit
                        }
                    })
                    .collect();
                self.solver.add_clause(clause);
            }
        }
        self.frames.insert(key, word.clone());
        word
    }

    // ------------------------------------------------------------------
    // Gate-level helpers (Tseitin encodings)
    // ------------------------------------------------------------------

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() || b == self.false_lit() {
            return self.false_lit();
        }
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let out = self.fresh_lit();
        self.solver.add_clause([!out, a]);
        self.solver.add_clause([!out, b]);
        self.solver.add_clause([out, !a, !b]);
        out
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() {
            return b;
        }
        if b == self.false_lit() {
            return a;
        }
        if a == self.true_lit {
            return !b;
        }
        if b == self.true_lit {
            return !a;
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit;
        }
        let out = self.fresh_lit();
        self.solver.add_clause([!out, a, b]);
        self.solver.add_clause([!out, !a, !b]);
        self.solver.add_clause([out, !a, b]);
        self.solver.add_clause([out, a, !b]);
        out
    }

    fn mux_gate(&mut self, sel: Lit, then_lit: Lit, else_lit: Lit) -> Lit {
        if sel == self.true_lit {
            return then_lit;
        }
        if sel == self.false_lit() {
            return else_lit;
        }
        if then_lit == else_lit {
            return then_lit;
        }
        let out = self.fresh_lit();
        self.solver.add_clause([!sel, !then_lit, out]);
        self.solver.add_clause([!sel, then_lit, !out]);
        self.solver.add_clause([sel, !else_lit, out]);
        self.solver.add_clause([sel, else_lit, !out]);
        out
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let ab = self.and_gate(a, b);
        let axb_cin = self.and_gate(axb, cin);
        let cout = self.or_gate(ab, axb_cin);
        (sum, cout)
    }

    fn add_words(&mut self, a: &Word, b: &Word) -> Word {
        debug_assert_eq!(a.width(), b.width());
        let mut bits = Vec::with_capacity(a.width());
        let mut carry = self.false_lit();
        for i in 0..a.width() {
            let (sum, cout) = self.full_adder(a.bits[i], b.bits[i], carry);
            bits.push(sum);
            carry = cout;
        }
        Word {
            bits,
            signed: a.signed,
        }
    }

    fn negate_word(&mut self, a: &Word) -> Word {
        // Two's complement: ~a + 1.
        let inverted = Word {
            bits: a.bits.iter().map(|l| !*l).collect(),
            signed: a.signed,
        };
        let one = self.constant_word(1, a.width(), a.signed);
        self.add_words(&inverted, &one)
    }

    fn sub_words(&mut self, a: &Word, b: &Word) -> Word {
        let neg_b = self.negate_word(b);
        self.add_words(a, &neg_b)
    }

    fn mul_words(&mut self, a: &Word, b: &Word) -> Word {
        debug_assert_eq!(a.width(), b.width());
        let width = a.width();
        let mut acc = self.constant_word(0, width, a.signed);
        for i in 0..width {
            // Partial product: (a << i) AND-ed with b[i], truncated to width.
            let mut partial = Vec::with_capacity(width);
            for j in 0..width {
                if j < i {
                    partial.push(self.false_lit());
                } else {
                    partial.push(self.and_gate(a.bits[j - i], b.bits[i]));
                }
            }
            let partial = Word {
                bits: partial,
                signed: a.signed,
            };
            acc = self.add_words(&acc, &partial);
        }
        acc
    }

    fn constant_word(&mut self, value: i64, width: usize, signed: bool) -> Word {
        let bits = (0..width)
            .map(|b| {
                if (value >> b) & 1 != 0 {
                    self.true_lit
                } else {
                    self.false_lit()
                }
            })
            .collect();
        Word { bits, signed }
    }

    fn eq_words(&mut self, a: &Word, b: &Word) -> Lit {
        debug_assert_eq!(a.width(), b.width());
        let mut acc = self.true_lit;
        for i in 0..a.width() {
            let same = !self.xor_gate(a.bits[i], b.bits[i]);
            acc = self.and_gate(acc, same);
        }
        acc
    }

    fn less_than_words(&mut self, a: &Word, b: &Word, or_equal: bool) -> Lit {
        debug_assert_eq!(a.width(), b.width());
        // For signed comparison flip the MSB of both operands and compare
        // unsigned.
        let width = a.width();
        let (a_bits, b_bits): (Vec<Lit>, Vec<Lit>) = if a.signed && width > 0 {
            let mut ab = a.bits.clone();
            let mut bb = b.bits.clone();
            ab[width - 1] = !ab[width - 1];
            bb[width - 1] = !bb[width - 1];
            (ab, bb)
        } else {
            (a.bits.clone(), b.bits.clone())
        };
        // Lexicographic from MSB down: lt = OR_i (prefix_equal_i AND !a_i AND b_i)
        let mut result = if or_equal {
            self.true_lit
        } else {
            self.false_lit()
        };
        // Build from LSB upwards: result_i = (!a_i && b_i) || (equal_i && result_{i-1})
        // where result_{-1} = or_equal ? true (for <=) : false (for <).
        for i in 0..width {
            let a_lt_b = {
                let na = !a_bits[i];
                self.and_gate(na, b_bits[i])
            };
            let eq_i = !self.xor_gate(a_bits[i], b_bits[i]);
            let keep = self.and_gate(eq_i, result);
            result = self.or_gate(a_lt_b, keep);
        }
        result
    }

    fn mux_words(&mut self, sel: Lit, a: &Word, b: &Word) -> Word {
        debug_assert_eq!(a.width(), b.width());
        let bits = (0..a.width())
            .map(|i| self.mux_gate(sel, a.bits[i], b.bits[i]))
            .collect();
        Word {
            bits,
            signed: a.signed,
        }
    }

    // ------------------------------------------------------------------
    // Expression encoding
    // ------------------------------------------------------------------

    /// Encodes a boolean expression over frame `frame` and returns its output
    /// literal.
    ///
    /// # Panics
    ///
    /// Panics if the expression is not boolean or mentions variables outside
    /// the encoder's variable table.
    pub fn encode_bool(&mut self, frame: usize, expr: &Expr) -> Lit {
        assert!(
            expr.sort().is_bool(),
            "encode_bool on {} expression",
            expr.sort()
        );
        let key = (frame, expr.id());
        if let Some(&lit) = self.bool_cache.get(&key) {
            return lit;
        }
        let lit = self.encode_bool_uncached(frame, expr);
        self.bool_cache.insert(key, lit);
        lit
    }

    fn encode_bool_uncached(&mut self, frame: usize, expr: &Expr) -> Lit {
        match expr.kind() {
            ExprKind::Const(Value::Bool(b)) => {
                if *b {
                    self.true_lit
                } else {
                    self.false_lit()
                }
            }
            ExprKind::Const(_) => unreachable!("boolean constant with non-bool value"),
            ExprKind::Var(id) => self.word(frame, *id).bits[0],
            ExprKind::Unary(UnOp::Not, a) => {
                let al = self.encode_bool(frame, a);
                !al
            }
            ExprKind::Unary(UnOp::Neg, _) => unreachable!("boolean negation uses Not"),
            ExprKind::Binary(op, a, b) => match op {
                BinOp::And => {
                    let al = self.encode_bool(frame, a);
                    let bl = self.encode_bool(frame, b);
                    self.and_gate(al, bl)
                }
                BinOp::Or => {
                    let al = self.encode_bool(frame, a);
                    let bl = self.encode_bool(frame, b);
                    self.or_gate(al, bl)
                }
                BinOp::Xor => {
                    let al = self.encode_bool(frame, a);
                    let bl = self.encode_bool(frame, b);
                    self.xor_gate(al, bl)
                }
                BinOp::Implies => {
                    let al = self.encode_bool(frame, a);
                    let bl = self.encode_bool(frame, b);
                    self.or_gate(!al, bl)
                }
                BinOp::Eq | BinOp::Ne => {
                    let eq = if a.sort().is_bool() {
                        let al = self.encode_bool(frame, a);
                        let bl = self.encode_bool(frame, b);
                        !self.xor_gate(al, bl)
                    } else {
                        let aw = self.encode_word(frame, a);
                        let bw = self.encode_word(frame, b);
                        self.eq_words(&aw, &bw)
                    };
                    if matches!(op, BinOp::Eq) {
                        eq
                    } else {
                        !eq
                    }
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let aw = self.encode_word(frame, a);
                    let bw = self.encode_word(frame, b);
                    match op {
                        BinOp::Lt => self.less_than_words(&aw, &bw, false),
                        BinOp::Le => self.less_than_words(&aw, &bw, true),
                        BinOp::Gt => self.less_than_words(&bw, &aw, false),
                        BinOp::Ge => self.less_than_words(&bw, &aw, true),
                        _ => unreachable!(),
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    unreachable!("arithmetic operation with boolean sort")
                }
            },
            ExprKind::Ite(c, t, e) => {
                let cl = self.encode_bool(frame, c);
                let tl = self.encode_bool(frame, t);
                let el = self.encode_bool(frame, e);
                self.mux_gate(cl, tl, el)
            }
        }
    }

    /// Encodes an integer or enumeration expression over frame `frame` as a
    /// bit-vector [`Word`].
    ///
    /// # Panics
    ///
    /// Panics if the expression is boolean (use [`Encoder::encode_bool`]) or
    /// mentions variables outside the encoder's variable table.
    pub fn encode_word(&mut self, frame: usize, expr: &Expr) -> Word {
        assert!(
            !expr.sort().is_bool(),
            "encode_word on a boolean expression; use encode_bool"
        );
        let key = (frame, expr.id());
        if let Some(word) = self.word_cache.get(&key) {
            return word.clone();
        }
        let word = self.encode_word_uncached(frame, expr);
        self.word_cache.insert(key, word.clone());
        word
    }

    fn encode_word_uncached(&mut self, frame: usize, expr: &Expr) -> Word {
        let width = expr.sort().bit_width() as usize;
        let signed = matches!(expr.sort(), Sort::Int { signed: true, .. });
        match expr.kind() {
            ExprKind::Const(v) => {
                let raw = v.to_i64();
                self.constant_word(raw, width, signed)
            }
            ExprKind::Var(id) => self.word(frame, *id),
            ExprKind::Unary(UnOp::Neg, a) => {
                let aw = self.encode_word(frame, a);
                self.negate_word(&aw)
            }
            ExprKind::Unary(UnOp::Not, _) => unreachable!("boolean not with word sort"),
            ExprKind::Binary(op, a, b) => {
                let aw = self.encode_word(frame, a);
                let bw = self.encode_word(frame, b);
                match op {
                    BinOp::Add => self.add_words(&aw, &bw),
                    BinOp::Sub => self.sub_words(&aw, &bw),
                    BinOp::Mul => self.mul_words(&aw, &bw),
                    _ => unreachable!("predicate operation with word sort"),
                }
            }
            ExprKind::Ite(c, t, e) => {
                let cl = self.encode_bool(frame, c);
                let tw = self.encode_word(frame, t);
                let ew = self.encode_word(frame, e);
                self.mux_words(cl, &tw, &ew)
            }
        }
    }

    /// Asserts that a boolean expression holds in frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Encoder::encode_bool`].
    pub fn assert_expr(&mut self, frame: usize, expr: &Expr) {
        let lit = self.encode_bool(frame, expr);
        self.solver.add_clause([lit]);
    }

    /// Asserts that a boolean expression does **not** hold in frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Encoder::encode_bool`].
    pub fn assert_not_expr(&mut self, frame: usize, expr: &Expr) {
        let lit = self.encode_bool(frame, expr);
        self.solver.add_clause([!lit]);
    }

    /// Asserts that variable `target` in frame `target_frame` equals the
    /// expression `expr` evaluated over frame `source_frame`.
    ///
    /// This is the building block for unrolling a functional transition
    /// relation: `x@(t+1) = update_x(X@t)`.
    ///
    /// # Panics
    ///
    /// Panics if the expression's sort differs from the variable's sort.
    pub fn assert_var_equals_expr_across(
        &mut self,
        target_frame: usize,
        target: VarId,
        source_frame: usize,
        expr: &Expr,
    ) {
        let target_sort = self.vars.sort(target).clone();
        assert!(
            expr.sort().compatible(&target_sort),
            "update expression sort {} does not match variable sort {}",
            expr.sort(),
            target_sort
        );
        if target_sort.is_bool() {
            let target_lit = self.word(target_frame, target).bits[0];
            let expr_lit = self.encode_bool(source_frame, expr);
            self.solver.add_clause([!target_lit, expr_lit]);
            self.solver.add_clause([target_lit, !expr_lit]);
        } else {
            let target_word = self.word(target_frame, target);
            let expr_word = self.encode_word(source_frame, expr);
            for i in 0..target_word.width() {
                let t = target_word.bits[i];
                let e = expr_word.bits[i];
                self.solver.add_clause([!t, e]);
                self.solver.add_clause([t, !e]);
            }
        }
    }

    /// Asserts that a variable in a frame holds a specific concrete value.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the variable's sort.
    pub fn assert_var_value(&mut self, frame: usize, id: VarId, value: Value) {
        let sort = self.vars.sort(id).clone();
        assert!(value.fits(&sort), "value {value} does not fit {}", sort);
        let word = self.word(frame, id);
        let raw = value.to_i64();
        for (b, lit) in word.bits.iter().enumerate() {
            if (raw >> b) & 1 != 0 {
                self.solver.add_clause([*lit]);
            } else {
                self.solver.add_clause([!*lit]);
            }
        }
    }

    /// Reads the values of all variables of a frame out of a satisfying
    /// model.
    ///
    /// Variables whose bits were never allocated in that frame take their
    /// zero value.
    pub fn decode_frame(&self, model: &[bool], frame: usize) -> Valuation {
        let mut valuation = Valuation::zeroed(&self.vars);
        for (id, info) in self.vars.iter() {
            let key = (frame, id.index() as u32);
            if let Some(word) = self.frames.get(&key) {
                let mut raw: i64 = 0;
                for (b, lit) in word.bits.iter().enumerate() {
                    let bit_true =
                        model.get(lit.var().index()).copied().unwrap_or(false) == lit.is_positive();
                    if bit_true {
                        raw |= 1 << b;
                    }
                }
                valuation.set(id, Value::from_i64(&info.sort, raw));
            }
        }
        valuation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_sat::SolveResult;

    fn vars8() -> (VarSet, VarId, VarId, VarId) {
        let mut vars = VarSet::new();
        let x = vars.declare("x", Sort::int(8)).unwrap();
        let y = vars.declare("y", Sort::int(8)).unwrap();
        let b = vars.declare("b", Sort::Bool).unwrap();
        (vars, x, y, b)
    }

    fn solve_for(enc: &mut Encoder) -> (SolveResult, Vec<bool>) {
        let r = enc.solver_mut().solve();
        (r, enc.solver().model())
    }

    #[test]
    fn constant_queries() {
        let (vars, ..) = vars8();
        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &Expr::int_val(3, 8).lt(&Expr::int_val(5, 8)));
        assert_eq!(solve_for(&mut enc).0, SolveResult::Sat);

        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &Expr::int_val(7, 8).lt(&Expr::int_val(5, 8)));
        assert_eq!(solve_for(&mut enc).0, SolveResult::Unsat);
    }

    #[test]
    fn addition_wraps() {
        let (vars, x, ..) = vars8();
        let xe = Expr::var(x, Sort::int(8));
        let mut enc = Encoder::new(&vars);
        // x + 1 == 0 forces x == 255.
        enc.assert_expr(0, &xe.add(&Expr::int_val(1, 8)).eq(&Expr::int_val(0, 8)));
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(enc.decode_frame(&model, 0).value(x).to_i64(), 255);
    }

    #[test]
    fn subtraction_and_multiplication() {
        let (vars, x, y, _) = vars8();
        let xe = Expr::var(x, Sort::int(8));
        let ye = Expr::var(y, Sort::int(8));
        let mut enc = Encoder::new(&vars);
        // x - y == 3 and y == 250 forces x == 253.
        enc.assert_expr(0, &xe.sub(&ye).eq(&Expr::int_val(3, 8)));
        enc.assert_var_value(0, y, Value::Int(250));
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(enc.decode_frame(&model, 0).value(x).to_i64(), 253);

        let mut enc = Encoder::new(&vars);
        // x * 3 == 30 has the solution x = 10 (among wrap-around solutions).
        enc.assert_expr(0, &xe.mul(&Expr::int_val(3, 8)).eq(&Expr::int_val(30, 8)));
        enc.assert_expr(0, &xe.lt(&Expr::int_val(50, 8)));
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(enc.decode_frame(&model, 0).value(x).to_i64(), 10);
    }

    #[test]
    fn signed_comparison() {
        let mut vars = VarSet::new();
        let s = vars.declare("s", Sort::signed_int(8)).unwrap();
        let se = Expr::var(s, Sort::signed_int(8));
        let mut enc = Encoder::new(&vars);
        // s < -5 is satisfiable with a negative s.
        enc.assert_expr(0, &se.lt(&Expr::signed_int_val(-5, 8)));
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        assert!(enc.decode_frame(&model, 0).value(s).to_i64() < -5);

        let mut enc = Encoder::new(&vars);
        // s < -5 && s > 5 is unsatisfiable.
        enc.assert_expr(0, &se.lt(&Expr::signed_int_val(-5, 8)));
        enc.assert_expr(0, &se.gt(&Expr::signed_int_val(5, 8)));
        assert_eq!(solve_for(&mut enc).0, SolveResult::Unsat);
    }

    #[test]
    fn boolean_structure() {
        let (vars, _, _, b) = vars8();
        let be = Expr::var(b, Sort::Bool);
        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &be.or(&be.not()));
        assert_eq!(solve_for(&mut enc).0, SolveResult::Sat);

        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &be.and(&be.not()));
        assert_eq!(solve_for(&mut enc).0, SolveResult::Unsat);

        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &be.implies(&Expr::false_()));
        enc.assert_expr(0, &be);
        assert_eq!(solve_for(&mut enc).0, SolveResult::Unsat);
    }

    #[test]
    fn enum_range_blocked() {
        let mut vars = VarSet::new();
        let mode_sort = Sort::enumeration("Mode", ["A", "B", "C"]);
        let m = vars.declare("m", mode_sort.clone()).unwrap();
        let me = Expr::var(m, mode_sort.clone());
        // m != A, m != B, m != C is unsatisfiable because the 4th code (11)
        // is blocked by the range constraint.
        let mut enc = Encoder::new(&vars);
        for variant in ["A", "B", "C"] {
            enc.assert_expr(0, &me.ne(&Expr::enum_val(&mode_sort, variant)));
        }
        assert_eq!(solve_for(&mut enc).0, SolveResult::Unsat);

        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &me.ne(&Expr::enum_val(&mode_sort, "A")));
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        let v = enc.decode_frame(&model, 0).value(m).to_i64();
        assert!(v == 1 || v == 2);
    }

    #[test]
    fn cross_frame_transition() {
        let (vars, x, _, b) = vars8();
        let xe = Expr::var(x, Sort::int(8));
        let be = Expr::var(b, Sort::Bool);
        // x@1 = (b ? x+1 : x) evaluated over frame 0, with x@0 = 7, b@0 = true
        // forces x@1 = 8.
        let update = be.ite(&xe.add(&Expr::int_val(1, 8)), &xe);
        let mut enc = Encoder::new(&vars);
        enc.assert_var_value(0, x, Value::Int(7));
        enc.assert_var_value(0, b, Value::Bool(true));
        enc.assert_var_equals_expr_across(1, x, 0, &update);
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(enc.decode_frame(&model, 1).value(x).to_i64(), 8);
        assert_eq!(enc.decode_frame(&model, 0).value(x).to_i64(), 7);
    }

    #[test]
    fn assert_not_expr_blocks_models() {
        let (vars, x, ..) = vars8();
        let xe = Expr::var(x, Sort::int(8));
        let mut enc = Encoder::new(&vars);
        enc.assert_not_expr(0, &xe.lt(&Expr::int_val(255, 8)));
        let (r, model) = solve_for(&mut enc);
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(enc.decode_frame(&model, 0).value(x).to_i64(), 255);
    }

    #[test]
    fn ite_on_words() {
        let (vars, x, y, b) = vars8();
        let xe = Expr::var(x, Sort::int(8));
        let ye = Expr::var(y, Sort::int(8));
        let be = Expr::var(b, Sort::Bool);
        let mut enc = Encoder::new(&vars);
        enc.assert_var_value(0, x, Value::Int(10));
        enc.assert_var_value(0, y, Value::Int(20));
        enc.assert_var_value(0, b, Value::Bool(false));
        enc.assert_expr(0, &be.ite(&xe, &ye).eq(&Expr::int_val(20, 8)));
        assert_eq!(solve_for(&mut enc).0, SolveResult::Sat);
    }

    #[test]
    fn decode_defaults_unallocated_vars_to_zero() {
        let (vars, x, y, _) = vars8();
        let mut enc = Encoder::new(&vars);
        enc.assert_var_value(0, x, Value::Int(9));
        let (_, model) = solve_for(&mut enc);
        let frame = enc.decode_frame(&model, 0);
        assert_eq!(frame.value(x).to_i64(), 9);
        assert_eq!(frame.value(y).to_i64(), 0);
    }

    #[test]
    fn true_and_false_lits() {
        let (vars, ..) = vars8();
        let enc = Encoder::new(&vars);
        assert_eq!(enc.false_lit(), !enc.true_lit());
    }
}
