//! The circuit benchmark family: the embedded gate-level fixtures of
//! `amle-circuit`, compiled to systems and registered behind
//! `suite --circuits`.
//!
//! Each fixture is parsed, reduced to the cone of influence of its outputs,
//! and compiled; the benchmark observes the compiled output variables. The
//! pre-reduction [`NetlistStats`] are kept available through
//! [`circuit_stats_for`] so the bench tables and `suite --json` can report
//! how much logic the COI pass dropped (the `coi_demo` fixture exists to
//! make that number nonzero).
//!
//! The family is *not* part of [`crate::full_suite`]: the quick-suite
//! fingerprint is pinned in CI and adding benchmarks would shift it. The
//! suite binary appends this family explicitly when `--circuits` is given,
//! and pins the circuit fingerprint separately.

use crate::suite::{single_input, witness, Benchmark};
use amle_circuit::{coi_stats, compile, fixture, reduce_to_coi, Fixture, NetlistStats, FIXTURES};

/// The suite name of a fixture's benchmark, or `None` for unknown fixtures.
pub fn circuit_benchmark_name(fixture_name: &str) -> Option<&'static str> {
    match fixture_name {
        "counter3" => Some("CircuitCounter3"),
        "shift4" => Some("CircuitShift4"),
        "traffic" => Some("CircuitTrafficLight"),
        "lfsr3" => Some("CircuitLfsr3"),
        "coi_demo" => Some("CircuitCoiDemo"),
        _ => None,
    }
}

/// Netlist statistics (gates/latches in and out of the cone of influence)
/// for a circuit benchmark, by *benchmark* name. `None` for non-circuit
/// benchmarks — callers use that to leave the stats columns out.
pub fn circuit_stats_for(benchmark_name: &str) -> Option<NetlistStats> {
    let fixture = FIXTURES
        .iter()
        .find(|f| circuit_benchmark_name(f.name) == Some(benchmark_name))?;
    let netlist = fixture.parse().expect("embedded fixture parses");
    Some(coi_stats(&netlist))
}

fn build(fixture: &Fixture) -> Benchmark {
    let netlist = fixture.parse().expect("embedded fixture parses");
    let (reduced, _) = reduce_to_coi(&netlist);
    let compiled = compile(&reduced).expect("embedded fixture compiles");
    let observables = compiled.observables();
    let system = compiled.system;
    let name = circuit_benchmark_name(fixture.name)
        .unwrap_or_else(|| panic!("fixture `{}` has no benchmark name", fixture.name));
    // Witness schedules: representative runs of each circuit (a full
    // characteristic cycle, an idle hold, and a mixed drive), mirroring the
    // synthetic families' witness style.
    let (k, schedules): (usize, Vec<Vec<Vec<i64>>>) = match fixture.name {
        "counter3" => (
            3,
            vec![
                single_input(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]), // wraps past 7
                single_input(&[0, 0, 0]),
                single_input(&[1, 1, 0, 1, 0, 0, 1]),
            ],
        ),
        "shift4" => (
            4,
            vec![
                single_input(&[1, 0, 0, 0, 0, 0]), // a pulse shifting through
                single_input(&[1, 1, 1, 1, 1, 1]),
                single_input(&[1, 0, 1, 0, 1, 0]),
            ],
        ),
        "traffic" => (
            2,
            vec![
                single_input(&[1, 1, 1, 1]), // one full light cycle
                single_input(&[0, 0, 0]),
                single_input(&[1, 0, 1, 0, 1, 1]),
            ],
        ),
        "lfsr3" => (
            3,
            vec![
                single_input(&[1, 1, 1, 1, 1, 1, 1, 1]), // period-7 orbit
                single_input(&[0, 0, 0]),
                single_input(&[1, 1, 0, 0, 1, 1, 1]),
            ],
        ),
        "coi_demo" => (
            2,
            vec![
                vec![vec![1, 0]; 4], // toggle runs; probe quiet
                vec![vec![0, 0]; 3],
                vec![vec![1, 1], vec![0, 1], vec![1, 0]], // probe must not matter
            ],
        ),
        other => panic!("fixture `{other}` has no witness schedules"),
    };
    let witnesses = schedules
        .iter()
        .map(|s| witness(&system, s))
        .collect::<Vec<_>>();
    Benchmark {
        name: name.to_string(),
        system,
        observables,
        k,
        reference_transitions: witnesses.len(),
        witnesses,
    }
}

/// The benchmark of the named embedded fixture.
pub(crate) fn fixture_benchmark(fixture_name: &str) -> Benchmark {
    build(fixture(fixture_name).expect("the catalogue names embedded fixtures"))
}

/// Loads a gate-level circuit from a real `.aag` (ASCII AIGER) or `.bench`
/// (ISCAS) file on disk and builds a suite benchmark from it, through the
/// same pipeline as the embedded fixtures: parse → cone-of-influence
/// reduction → compile. Registered behind `suite --circuit-file <path>`.
///
/// Unlike the embedded fixtures, nothing is known about a file circuit's
/// input protocol, so the witness schedules are generic: a sustained
/// all-ones drive, an idle all-zeros hold, and a per-input alternating mix
/// — enough to seed the learner with representative runs without claiming
/// protocol coverage. The benchmark is named `CircuitFile_<stem>` (stem
/// sanitised to `[A-Za-z0-9_]`), and the k-induction bound follows the
/// fixture convention of tracking the latch count (clamped to 2..=5).
///
/// All failure modes — unreadable file, unrecognised extension, parse or
/// compile error — come back as display-ready strings for the CLI.
pub fn circuit_benchmark_from_file(path: &std::path::Path) -> Result<Benchmark, String> {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    let parser: fn(&[u8], String) -> Result<amle_circuit::Netlist, amle_circuit::ParseError> =
        match path.extension().and_then(|e| e.to_str()) {
            Some("aag") => amle_circuit::parse_aag,
            Some("bench") => amle_circuit::parse_bench,
            other => {
                return Err(format!(
                    "{}: unsupported extension {} (expected .aag or .bench)",
                    path.display(),
                    other.map_or("<none>".to_string(), |e| format!("`.{e}`"))
                ))
            }
        };
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let netlist =
        parser(&bytes, stem.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    let (reduced, _) = reduce_to_coi(&netlist);
    let compiled = compile(&reduced).map_err(|e| format!("{}: {e}", path.display()))?;
    let observables = compiled.observables();
    if observables.is_empty() {
        return Err(format!(
            "{}: circuit has no observable outputs after COI reduction",
            path.display()
        ));
    }
    let system = compiled.system;
    let clean: String = stem
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let inputs = system.input_vars().len();
    let schedules: Vec<Vec<Vec<i64>>> = vec![
        vec![vec![1; inputs]; 8],
        vec![vec![0; inputs]; 4],
        (0..8usize)
            .map(|t| (0..inputs).map(|i| ((t + i) % 2) as i64).collect())
            .collect(),
    ];
    let witnesses = schedules
        .iter()
        .map(|s| witness(&system, s))
        .collect::<Vec<_>>();
    let k = system.state_vars().len().clamp(2, 5);
    Ok(Benchmark {
        name: format!("CircuitFile_{clean}"),
        system,
        observables,
        k,
        reference_transitions: witnesses.len(),
        witnesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_benchmarks;
    use amle_expr::Value;

    #[test]
    fn every_fixture_becomes_a_benchmark_with_valid_witnesses() {
        let benchmarks = circuit_benchmarks();
        assert_eq!(benchmarks.len(), FIXTURES.len());
        for b in &benchmarks {
            assert!(b.name.starts_with("Circuit"), "{}", b.name);
            assert!(!b.observables.is_empty(), "{}", b.name);
            assert_eq!(b.reference_transitions, b.witnesses.len(), "{}", b.name);
            for (i, w) in b.witnesses.iter().enumerate() {
                assert!(
                    b.system.is_execution_trace(w),
                    "{} witness {i} is not an execution trace",
                    b.name
                );
            }
        }
    }

    #[test]
    fn benchmark_construction_is_deterministic() {
        let a = circuit_benchmarks();
        let b = circuit_benchmarks();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.observables, y.observables);
            assert_eq!(x.witnesses, y.witnesses);
        }
    }

    #[test]
    fn counter3_counts() {
        let b = circuit_benchmarks()
            .into_iter()
            .find(|b| b.name == "CircuitCounter3")
            .unwrap();
        let en = b.system.input_vars()[0];
        let bits: Vec<_> = b.system.state_vars().to_vec();
        let mut v = b.system.initial_valuation();
        v.set(en, Value::Bool(true));
        let value = |v: &amle_expr::Valuation| -> i64 {
            bits.iter()
                .enumerate()
                .map(|(i, id)| match v.value(*id) {
                    Value::Bool(true) => 1 << i,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(value(&v), 0);
        for expected in 1..=9 {
            v = b.system.step(&v, &[(en, Value::Bool(true))]);
            assert_eq!(value(&v), expected % 8, "after {expected} ticks");
        }
    }

    #[test]
    fn traffic_cycles_green_yellow_red() {
        let b = circuit_benchmarks()
            .into_iter()
            .find(|b| b.name == "CircuitTrafficLight")
            .unwrap();
        let adv = b.system.input_vars()[0];
        // Observables are the registered green/yellow/red state variables,
        // lagging the encoded state by one clock.
        let [green, yellow, red]: [amle_expr::VarId; 3] = b.observables.clone().try_into().unwrap();
        let mut v = b.system.initial_valuation();
        v.set(adv, Value::Bool(true));
        let light = |v: &amle_expr::Valuation| {
            (
                v.value(green) == Value::Bool(true),
                v.value(yellow) == Value::Bool(true),
                v.value(red) == Value::Bool(true),
            )
        };
        assert_eq!(light(&v), (true, false, false));
        // With adv held high the registered outputs replay the cycle one
        // step late: green, green (lag), yellow, red, green, ...
        let expected = [
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, false, false),
            (false, true, false),
        ];
        for (i, want) in expected.into_iter().enumerate() {
            v = b.system.step(&v, &[(adv, Value::Bool(true))]);
            assert_eq!(light(&v), want, "step {i}");
        }
    }

    #[test]
    fn coi_demo_stats_show_dropped_logic() {
        let stats = circuit_stats_for("CircuitCoiDemo").unwrap();
        assert_eq!(stats.gates_dropped(), 2);
        assert_eq!(stats.latches_dropped(), 3);
        assert_eq!(stats.inputs, 2);
        // And the compiled benchmark really is the reduced system.
        let b = circuit_benchmarks()
            .into_iter()
            .find(|b| b.name == "CircuitCoiDemo")
            .unwrap();
        assert_eq!(b.system.state_vars().len(), 1);
        assert_eq!(b.system.input_vars().len(), 2);
    }

    #[test]
    fn stats_are_none_for_non_circuit_benchmarks() {
        assert!(circuit_stats_for("SynthCounter_b3_i1").is_none());
        assert!(circuit_stats_for("nope").is_none());
    }

    #[test]
    fn file_loaded_circuit_becomes_a_benchmark_with_valid_witnesses() {
        // Round-trip an embedded fixture through a real on-disk file, as
        // `suite --circuit-file` would see it.
        let fixture = fixture("counter3").unwrap();
        let dir = std::env::temp_dir().join("amle-circuit-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("my-counter.aag");
        std::fs::write(&path, fixture.text).unwrap();

        let b = circuit_benchmark_from_file(&path).unwrap();
        assert_eq!(b.name, "CircuitFile_my_counter");
        assert!(!b.observables.is_empty());
        assert_eq!(b.reference_transitions, b.witnesses.len());
        for (i, w) in b.witnesses.iter().enumerate() {
            assert!(
                b.system.is_execution_trace(w),
                "witness {i} is not an execution trace"
            );
        }
        // Same netlist as the embedded benchmark, so the compiled shapes
        // must agree even though witnesses and k are generic.
        let embedded = circuit_benchmarks()
            .into_iter()
            .find(|b| b.name == "CircuitCounter3")
            .unwrap();
        assert_eq!(
            b.system.state_vars().len(),
            embedded.system.state_vars().len()
        );
        assert_eq!(
            b.system.input_vars().len(),
            embedded.system.input_vars().len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_loader_rejects_unknown_extensions_and_missing_files() {
        let err = circuit_benchmark_from_file(std::path::Path::new("nope.v")).unwrap_err();
        assert!(err.contains("unsupported extension"), "{err}");
        let err = circuit_benchmark_from_file(std::path::Path::new("/definitely/missing.aag"))
            .unwrap_err();
        assert!(err.contains("missing.aag"), "{err}");
    }
}
