//! Suite-wide sanity tests: every benchmark must be internally consistent
//! and usable by the learning pipeline.

use crate::{
    all_benchmarks, benchmark_by_name, benchmark_names, circuit_benchmarks, full_suite,
    splice_stress_benchmarks, stress_suite, synthetic_benchmarks, trace_from_schedule, Benchmark,
    DEFAULT_SEED,
};
use amle_core::{ActiveLearner, ActiveLearnerConfig};
use amle_expr::Sort;
use amle_learner::HistoryLearner;
use amle_system::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

#[test]
fn suite_is_non_trivial_and_names_are_unique() {
    let table1 = all_benchmarks();
    assert!(
        table1.len() >= 15,
        "Table I has only {} benchmarks",
        table1.len()
    );
    let suite = full_suite();
    assert!(
        suite.len() >= table1.len() + 8,
        "full suite has only {} benchmarks",
        suite.len()
    );
    let names: HashSet<&str> = suite.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names.len(), suite.len(), "duplicate benchmark names");
}

#[test]
fn lookup_by_name() {
    let catalogue: Vec<Benchmark> = stress_suite()
        .into_iter()
        .chain(circuit_benchmarks())
        .collect();
    let names: Vec<&str> = catalogue.iter().map(|b| b.name.as_str()).collect();
    // Every suite keeps its order and count.
    assert_eq!(
        names,
        [
            "HomeClimateControlCooler",
            "BangBangControlHeater",
            "AutomaticTransmission",
            "RedundantSensorPair",
            "SecuritySystemAlarm",
            "YoYoControlOfSatellite",
            "VarSizeSizeBasedProcessing",
            "CountEvents",
            "TemporalLogicScheduler",
            "LadderLogicScheduler",
            "MooreTrafficLight",
            "IntersectionOfTwo1wayStreets",
            "SuperstepWithSuperStep",
            "MealyVendingMachine",
            "SequenceRecognition",
            "ServerQueueingSystem",
            "CdPlayerModeManager",
            "LaunchAbortModeLogic",
            "FrameSyncController",
            "SynthCounterW3I1",
            "SynthCounterW4I2",
            "SynthGrayW2",
            "SynthGrayW3",
            "SynthModArithW4M5",
            "SynthModArithW5M9",
            "SynthGatedToggleT2",
            "SynthGatedToggleT3",
            "SynthSpliceStormD8",
            "SynthSpliceStormD12",
            "CircuitCounter3",
            "CircuitShift4",
            "CircuitTrafficLight",
            "CircuitLfsr3",
            "CircuitCoiDemo",
        ]
    );
    assert_eq!(names, benchmark_names().collect::<Vec<_>>());
    let suite_names =
        |suite: Vec<Benchmark>| -> Vec<String> { suite.into_iter().map(|b| b.name).collect() };
    assert_eq!(suite_names(all_benchmarks()), names[..19]);
    assert_eq!(suite_names(full_suite()), names[..27]);
    assert_eq!(suite_names(circuit_benchmarks()), names[29..]);
    let generated = synthetic_benchmarks(DEFAULT_SEED)
        .into_iter()
        .chain(splice_stress_benchmarks(DEFAULT_SEED));
    for (listed, generated) in catalogue[19..29].iter().zip(generated) {
        assert_eq!(listed.name, generated.name);
        assert_eq!(listed.witnesses, generated.witnesses, "{}", listed.name);
    }

    // Each name builds a benchmark equal to its suite entry.
    let declarations = |b: &Benchmark| -> Vec<(String, Sort)> {
        b.system
            .vars()
            .iter()
            .map(|(_, info)| (info.name.clone(), info.sort.clone()))
            .collect()
    };
    for listed in &catalogue {
        let found = benchmark_by_name(&listed.name)
            .unwrap_or_else(|| panic!("`{}` is not found by name", listed.name));
        assert_eq!(found.name, listed.name);
        assert_eq!(
            declarations(&found),
            declarations(listed),
            "{}",
            listed.name
        );
        assert_eq!(found.observables, listed.observables, "{}", listed.name);
        assert_eq!(found.k, listed.k, "{}", listed.name);
        assert_eq!(
            found.reference_transitions, listed.reference_transitions,
            "{}",
            listed.name
        );
        assert_eq!(found.witnesses, listed.witnesses, "{}", listed.name);
    }
    assert!(benchmark_by_name("DoesNotExist").is_none());
}

#[test]
fn short_schedule_row_is_a_proper_error() {
    // Regression: a schedule row shorter than the input-variable list used to
    // be zipped away silently (and a longer one ignored); both are now
    // reported as a named error instead of feeding the simulator stale
    // inputs.
    let b = benchmark_by_name("SynthGatedToggleT2").unwrap();
    let err = trace_from_schedule(&b.system, &[vec![1, 1, 1], vec![1]]).unwrap_err();
    assert_eq!(err.row, 1);
    assert_eq!(err.got, 1);
    assert_eq!(err.expected, 3);
    assert!(err.system.contains("SynthGatedToggle"));
    assert!(err.to_string().contains("row 1"));
    let err = trace_from_schedule(&b.system, &[vec![1, 1, 1, 1]]).unwrap_err();
    assert_eq!((err.row, err.got), (0, 4));
    // A well-formed schedule still replays.
    assert!(trace_from_schedule(&b.system, &[vec![1, 1, 0], vec![1, 0, 1]]).is_ok());
}

#[test]
fn every_benchmark_is_well_formed() {
    for b in full_suite() {
        assert!(!b.observables.is_empty(), "{}: no observables", b.name);
        assert!(b.k > 0, "{}: k must be positive", b.name);
        assert_eq!(
            b.reference_transitions,
            b.witnesses.len(),
            "{}: one witness per reference transition",
            b.name
        );
        for id in &b.observables {
            assert!(
                b.system.vars().info(*id).is_some(),
                "{}: bad observable",
                b.name
            );
        }
        assert_eq!(b.num_observables(), b.observables.len());
    }
}

#[test]
fn every_witness_is_an_execution_trace() {
    for b in full_suite() {
        for (i, w) in b.witnesses.iter().enumerate() {
            assert!(!w.is_empty(), "{}: witness {i} is empty", b.name);
            assert!(
                b.system.is_execution_trace(w),
                "{}: witness {i} is not an execution trace",
                b.name
            );
        }
    }
}

#[test]
fn every_system_simulates() {
    for b in full_suite() {
        let sim = Simulator::new(&b.system);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = sim.random_trace(25, &mut rng);
        assert!(
            b.system.is_execution_trace(&trace),
            "{}: bad random trace",
            b.name
        );
    }
}

#[test]
fn score_d_is_one_for_a_converged_cooler_model() {
    let b = benchmark_by_name("HomeClimateControlCooler").unwrap();
    let config = ActiveLearnerConfig {
        observables: Some(b.observables.clone()),
        initial_traces: 15,
        trace_length: 15,
        k: b.k,
        max_iterations: 15,
        ..Default::default()
    };
    let mut learner = ActiveLearner::new(&b.system, HistoryLearner::default(), config);
    let report = learner.run().unwrap();
    assert!(report.converged);
    assert_eq!(b.score_d(&report.abstraction), 1.0);
}

#[test]
fn score_d_penalises_an_empty_model() {
    let b = benchmark_by_name("MealyVendingMachine").unwrap();
    let empty = amle_automaton::Nfa::new();
    assert_eq!(b.score_d(&empty), 0.0);
}
