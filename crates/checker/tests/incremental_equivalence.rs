//! Differential tests of the incremental checker sessions.
//!
//! The persistent, assumption-activated sessions must produce exactly the
//! verdicts of the original from-scratch re-encoding
//! ([`CheckerMode::FreshPerQuery`]) on every benchmark of the suite, and the
//! aggregated solver statistics must grow monotonically as queries are
//! issued at increasing k-induction bounds.

use amle_benchmarks::all_benchmarks;
use amle_checker::{CheckResult, CheckerMode, KInductionChecker, SpuriousResult};
use amle_expr::{Expr, Valuation, VarId};

/// State formulas to probe reachability with: the initial valuation plus
/// valuations observed along the benchmark's witness traces (all genuinely
/// reachable).
fn probe_formulas(
    checker: &KInductionChecker<'_>,
    observables: &[VarId],
    witnesses: &[amle_system::Trace],
    initial: &Valuation,
) -> Vec<Expr> {
    let mut formulas = vec![checker.state_formula(initial, observables)];
    for trace in witnesses.iter().take(3) {
        for obs in trace.observations().iter().take(3) {
            formulas.push(checker.state_formula(obs, observables));
        }
    }
    formulas.truncate(6);
    formulas
}

#[test]
fn incremental_and_fresh_sessions_agree_on_every_benchmark() {
    for benchmark in all_benchmarks() {
        let system = &benchmark.system;
        let observables = &benchmark.observables;
        let mut incremental = KInductionChecker::new(system);
        let mut fresh = KInductionChecker::with_mode(system, CheckerMode::FreshPerQuery);
        assert_eq!(incremental.mode(), CheckerMode::Incremental);
        assert_eq!(fresh.mode(), CheckerMode::FreshPerQuery);

        let initial = system.initial_valuation();
        let k = benchmark.k.clamp(1, 8);

        // Condition checks: truth, a tautology and a contradiction-shaped
        // conclusion, plus per-observable constancy claims (usually violated,
        // exercising the counterexample path).
        let mut conditions = vec![
            (Expr::true_(), Expr::true_()),
            (Expr::true_(), Expr::false_()),
        ];
        for id in observables.iter().take(2) {
            let sort = system.vars().sort(*id).clone();
            let var = Expr::var(*id, sort.clone());
            let value = Expr::constant(&sort, initial.value(*id)).unwrap();
            conditions.push((Expr::true_(), var.eq(&value)));
            conditions.push((var.eq(&value), var.eq(&value)));
        }

        for (assumption, conclusion) in &conditions {
            let a = incremental.check_condition(assumption, &[], conclusion);
            let b = fresh.check_condition(assumption, &[], conclusion);
            // Verdicts must agree; specific counterexample transitions may
            // legitimately differ, but both must be genuine transitions.
            assert_eq!(
                a.is_valid(),
                b.is_valid(),
                "condition verdict mismatch on {} for {:?} => {:?}",
                benchmark.name,
                assumption,
                conclusion
            );
            for result in [&a, &b] {
                if let CheckResult::Violated { from, to } = result {
                    assert!(
                        system.is_transition(from, to),
                        "spurious counterexample transition on {}",
                        benchmark.name
                    );
                }
            }
        }

        // Spurious checks over reachable/perturbed state formulas.
        for formula in probe_formulas(&incremental, observables, &benchmark.witnesses, &initial) {
            let a = incremental.check_spurious(&formula, k);
            let b = fresh.check_spurious(&formula, k);
            assert_eq!(
                a, b,
                "spurious verdict mismatch on {} (k = {})",
                benchmark.name, k
            );
            // Witness-trace states are genuinely reachable; k-induction is a
            // sound unreachability proof, so it must never call them
            // spurious.
            assert_ne!(
                a,
                SpuriousResult::Spurious,
                "reachable state proved spurious on {}",
                benchmark.name
            );
        }
    }
}

#[test]
fn solver_stats_grow_monotonically_across_bounds() {
    let benchmark = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "HomeClimateControlCooler")
        .expect("suite includes the cooler");
    let system = &benchmark.system;
    let mut checker = KInductionChecker::new(system);
    let initial = system.initial_valuation();
    let formula = checker.state_formula(&initial, &benchmark.observables);

    let mut last = checker.stats();
    for k in 1..=6 {
        let _ = checker.check_spurious(&formula, k);
        let stats = checker.stats();
        assert!(stats.solver.solve_calls > last.solver.solve_calls);
        assert!(stats.solver.decisions >= last.solver.decisions);
        assert!(stats.solver.propagations >= last.solver.propagations);
        assert!(stats.solver.conflicts >= last.solver.conflicts);
        assert!(stats.solver.solve_time >= last.solver.solve_time);
        assert!(stats.sat_queries > last.sat_queries);
        last = stats;
    }
    assert_eq!(last.spurious_checks, 6);
}
