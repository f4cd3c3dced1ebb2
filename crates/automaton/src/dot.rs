//! DOT (Graphviz) export of symbolic automata.

use crate::Nfa;
use amle_expr::{Expr, ExprKind, UnOp, VarSet};
use std::fmt::Write as _;

impl Nfa {
    /// Renders the automaton in Graphviz DOT syntax, using variable names
    /// from `vars` inside the guards.
    ///
    /// The output mirrors the style of Fig. 2 in the paper: circular nodes,
    /// initial states marked with an incoming arrow from a hidden point node,
    /// guards as edge labels.
    pub fn to_dot(&self, vars: &VarSet) -> String {
        let mut out = String::new();
        self.write_dot(&mut out, vars);
        out
    }

    /// Appends [`Nfa::to_dot`]'s rendering to `out`.
    pub fn write_dot(&self, out: &mut String, vars: &VarSet) {
        out.push_str("digraph abstraction {\n  rankdir=LR;\n  node [shape=circle];\n");
        for q in self.initial_states() {
            let _ = writeln!(out, "  __init_{} [shape=point, style=invis];", q.index());
            let _ = writeln!(out, "  __init_{} -> q{};", q.index(), q.index());
        }
        for q in self.states() {
            let _ = writeln!(out, "  q{} [label=\"q{}\"];", q.index(), q.index());
        }
        for t in self.transitions() {
            let _ = write!(out, "  q{} -> q{} [label=\"", t.from.index(), t.to.index());
            write_label(out, &t.guard, vars);
            out.push_str("\"];\n");
        }
        out.push_str("}\n");
    }
}

/// Renders an expression with variable names substituted for the `x<i>`
/// placeholders of the default [`std::fmt::Display`] implementation.
///
/// Used for printing guards and extracted invariants in reports.
pub fn display_expr(guard: &Expr, vars: &VarSet) -> String {
    let mut out = String::new();
    write_expr(&mut out, guard, vars);
    out
}

/// Appends the rendering of [`display_expr`] to `out`. DOT edge labels,
/// [`display_expr`] and the invariant lines of a run's fingerprint are all
/// written through it.
pub fn write_expr(out: &mut String, e: &Expr, vars: &VarSet) {
    match e.kind() {
        ExprKind::Const(_) => {
            let _ = write!(out, "{e}");
        }
        ExprKind::Var(id) => match vars.info(*id) {
            Some(info) => out.push_str(&info.name),
            None => {
                let _ = write!(out, "{id}");
            }
        },
        ExprKind::Unary(op, a) => {
            out.push_str(match op {
                UnOp::Not => "!(",
                UnOp::Neg => "-(",
            });
            write_expr(out, a, vars);
            out.push(')');
        }
        ExprKind::Binary(op, a, b) => {
            out.push('(');
            write_expr(out, a, vars);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(out, b, vars);
            out.push(')');
        }
        ExprKind::Ite(c, t, els) => {
            out.push_str("(if ");
            write_expr(out, c, vars);
            out.push_str(" then ");
            write_expr(out, t, vars);
            out.push_str(" else ");
            write_expr(out, els, vars);
            out.push(')');
        }
    }
}

/// Appends `guard` as the text of a quoted DOT label. Variable names are
/// free text (an AIGER symbol can be any string), so a quote or a backslash
/// in one is escaped, and the label's closing quote stays a quote.
fn write_label(out: &mut String, guard: &Expr, vars: &VarSet) {
    let start = out.len();
    write_expr(out, guard, vars);
    if out[start..].contains(['"', '\\']) {
        let label = out.split_off(start);
        for c in label.chars() {
            if matches!(c, '"' | '\\') {
                out.push('\\');
            }
            out.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Expr, Sort, VarSet};

    #[test]
    fn dot_output_contains_states_edges_and_names() {
        let mut vars = VarSet::new();
        let temp = vars.declare("inp_temp", Sort::int(8)).unwrap();
        let guard = Expr::var(temp, Sort::int(8)).gt(&Expr::int_val(75, 8));

        let mut nfa = Nfa::new();
        let q0 = nfa.add_state();
        let q1 = nfa.add_state();
        nfa.mark_initial(q0);
        nfa.add_transition(q0, q1, guard);

        let dot = nfa.to_dot(&vars);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("q0 -> q1"));
        assert!(dot.contains("inp_temp"));
        assert!(dot.contains("__init_0 -> q0"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn guard_rendering_uses_variable_names_and_variants() {
        let mut vars = VarSet::new();
        let mode_sort = Sort::enumeration("Mode", ["Off", "On"]);
        let mode = vars.declare("mode", mode_sort.clone()).unwrap();
        let b = vars.declare("flag", Sort::Bool).unwrap();
        let guard = Expr::var(mode, mode_sort.clone())
            .eq(&Expr::enum_val(&mode_sort, "On"))
            .and(&Expr::var(b, Sort::Bool).not());
        let text = display_expr(&guard, &vars);
        assert_eq!(text, "((mode == On) && !(flag))");
    }

    #[test]
    fn quotes_are_escaped() {
        // Variable names are free text: a quote inside a label, and a
        // backslash just before its closing quote (a bare variable whose
        // name ends in one), must both be escaped.
        let mut vars = VarSet::new();
        let quoted = vars.declare("say \"hi\"", Sort::Bool).unwrap();
        let trailing = vars.declare("dir\\", Sort::Bool).unwrap();
        let mut nfa = Nfa::new();
        let q0 = nfa.add_state();
        nfa.mark_initial(q0);
        nfa.add_transition(q0, q0, Expr::var(quoted, Sort::Bool));
        nfa.add_transition(q0, q0, Expr::var(trailing, Sort::Bool));
        let dot = nfa.to_dot(&vars);
        assert!(
            dot.contains("q0 -> q0 [label=\"say \\\"hi\\\"\"];\n"),
            "{dot}"
        );
        assert!(dot.contains("q0 -> q0 [label=\"dir\\\\\"];\n"), "{dot}");
        assert_eq!(
            display_expr(&Expr::var(trailing, Sort::Bool), &vars),
            "dir\\"
        );
    }
}
