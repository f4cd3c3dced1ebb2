//! Property-based tests: the bit-blasted semantics must agree with the
//! word-level evaluator of `amle-expr` on random expressions and valuations.

use crate::Encoder;
use amle_expr::{Expr, Sort, Valuation, Value, VarId, VarSet};
use amle_sat::SolveResult;
use proptest::prelude::*;

const WIDTH: u32 = 5;

fn var_set() -> VarSet {
    let mut vars = VarSet::new();
    vars.declare("a", Sort::int(WIDTH)).unwrap();
    vars.declare("b", Sort::int(WIDTH)).unwrap();
    vars.declare("s", Sort::signed_int(WIDTH)).unwrap();
    vars.declare("p", Sort::Bool).unwrap();
    vars
}

fn arb_int_expr(depth: u32, signed: bool) -> BoxedStrategy<Expr> {
    let var_idx: usize = if signed { 2 } else { 0 };
    let sort = if signed {
        Sort::signed_int(WIDTH)
    } else {
        Sort::int(WIDTH)
    };
    if depth == 0 {
        let (lo, hi) = sort.value_range();
        let s2 = sort.clone();
        prop_oneof![
            (lo..=hi).prop_map(move |v| Expr::constant(&s2, Value::Int(v)).unwrap()),
            Just(Expr::var(VarId::from_index(var_idx), sort.clone())),
            Just(Expr::var(
                VarId::from_index(if signed { 2 } else { 1 }),
                sort
            )),
        ]
        .boxed()
    } else {
        let sub = arb_int_expr(depth - 1, signed);
        let subb = arb_bool_expr(depth - 1, signed);
        prop_oneof![
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.add(&b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.sub(&b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.mul(&b)),
            sub.clone().prop_map(|a| a.neg()),
            (subb, sub.clone(), sub.clone()).prop_map(|(c, a, b)| c.ite(&a, &b)),
            sub,
        ]
        .boxed()
    }
}

fn arb_bool_expr(depth: u32, signed: bool) -> BoxedStrategy<Expr> {
    if depth == 0 {
        prop_oneof![
            any::<bool>().prop_map(Expr::bool_const),
            Just(Expr::var(VarId::from_index(3), Sort::Bool)),
        ]
        .boxed()
    } else {
        let sub = arb_bool_expr(depth - 1, signed);
        let subi = arb_int_expr(depth - 1, signed);
        prop_oneof![
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.and(&b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.or(&b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.xor(&b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.implies(&b)),
            sub.clone().prop_map(|a| a.not()),
            (subi.clone(), subi.clone()).prop_map(|(a, b)| a.lt(&b)),
            (subi.clone(), subi.clone()).prop_map(|(a, b)| a.le(&b)),
            (subi.clone(), subi.clone()).prop_map(|(a, b)| a.gt(&b)),
            (subi.clone(), subi.clone()).prop_map(|(a, b)| a.ge(&b)),
            (subi.clone(), subi.clone()).prop_map(|(a, b)| a.eq(&b)),
            (subi.clone(), subi).prop_map(|(a, b)| a.ne(&b)),
            sub,
        ]
        .boxed()
    }
}

fn arb_valuation() -> impl Strategy<Value = Valuation> {
    let (ulo, uhi) = Sort::int(WIDTH).value_range();
    let (slo, shi) = Sort::signed_int(WIDTH).value_range();
    (ulo..=uhi, ulo..=uhi, slo..=shi, any::<bool>()).prop_map(|(a, b, s, p)| {
        let vars = var_set();
        let mut v = Valuation::zeroed(&vars);
        v.set(VarId::from_index(0), Value::Int(a));
        v.set(VarId::from_index(1), Value::Int(b));
        v.set(VarId::from_index(2), Value::Int(s));
        v.set(VarId::from_index(3), Value::Bool(p));
        v
    })
}

/// Encodes `expr`, pins all variables to the valuation, solves and compares
/// the decoded truth of `expr` against direct evaluation.
fn check_agreement(expr: &Expr, valuation: &Valuation) -> Result<(), TestCaseError> {
    let vars = var_set();
    let mut enc = Encoder::new(&vars);
    let lit = enc.encode_bool(0, expr);
    for (id, _) in vars.iter() {
        enc.assert_var_value(0, id, valuation.value(id));
    }
    prop_assert_eq!(enc.solver_mut().solve(), SolveResult::Sat);
    let model = enc.solver().model();
    let encoded_value = model[lit.var().index()] == lit.is_positive();
    prop_assert_eq!(encoded_value, expr.eval_bool(valuation));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unsigned_expressions_agree_with_eval(e in arb_bool_expr(3, false), v in arb_valuation()) {
        check_agreement(&e, &v)?;
    }

    #[test]
    fn signed_expressions_agree_with_eval(e in arb_bool_expr(3, true), v in arb_valuation()) {
        check_agreement(&e, &v)?;
    }

    #[test]
    fn satisfiable_iff_some_valuation_satisfies(e in arb_bool_expr(2, false)) {
        // Encode the expression with free variables; SAT result must agree
        // with a brute-force search over the (small) valuation space.
        let vars = var_set();
        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &e);
        let encoded_sat = enc.solver_mut().solve() == SolveResult::Sat;

        let (ulo, uhi) = Sort::int(WIDTH).value_range();
        let (slo, shi) = Sort::signed_int(WIDTH).value_range();
        let mut brute = false;
        'outer: for a in ulo..=uhi {
            for b in ulo..=uhi {
                for s in [slo, -1, 0, 1, shi] {
                    for p in [false, true] {
                        let mut v = Valuation::zeroed(&vars);
                        v.set(VarId::from_index(0), Value::Int(a));
                        v.set(VarId::from_index(1), Value::Int(b));
                        v.set(VarId::from_index(2), Value::Int(s));
                        v.set(VarId::from_index(3), Value::Bool(p));
                        if e.eval_bool(&v) {
                            brute = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        // The brute force only samples five values of the signed variable, so
        // it can miss satisfying assignments that the solver finds — but not
        // the other way round.
        if brute {
            prop_assert!(encoded_sat);
        }
        if !encoded_sat {
            prop_assert!(!brute);
        }
    }

    #[test]
    fn decoded_model_satisfies_expression(e in arb_bool_expr(3, false)) {
        let vars = var_set();
        let mut enc = Encoder::new(&vars);
        enc.assert_expr(0, &e);
        if enc.solver_mut().solve() == SolveResult::Sat {
            let valuation = enc.decode_frame(&enc.solver().model(), 0);
            prop_assert!(e.eval_bool(&valuation));
        }
    }
}
