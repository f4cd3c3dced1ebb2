//! The benchmark record type and the suite registry.

use crate::circuits::fixture_benchmark;
use crate::controllers::{
    automatic_transmission, bang_bang_heater, home_climate_control, redundant_sensor_pair,
    security_system, size_based_processing, yoyo_control,
};
use crate::protocols::{
    cd_player_mode_manager, frame_sync_controller, launch_abort_mode_logic, sequence_recognition,
    server_queue, vending_machine,
};
use crate::schedulers::{
    count_events, intersection, ladder_logic_scheduler, moore_traffic_light, superstep,
    temporal_logic_scheduler,
};
use crate::synth::{default_splice_storm, default_synthetic, DEFAULT_SPECS};
use amle_automaton::Nfa;
use amle_expr::{Value, VarId};
use amle_system::{System, Trace};
use std::error::Error;
use std::fmt;

/// One benchmark of the evaluation suite.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name (mirrors the Table I naming scheme; synthetic
    /// benchmarks use a `Synth…` prefix with their parameters).
    pub name: String,
    /// The system under learning.
    pub system: System,
    /// The observable variables `X` for this benchmark.
    pub observables: Vec<VarId>,
    /// Per-benchmark k-induction bound (the `k` column of Table I).
    pub k: usize,
    /// Number of transitions of the reference (ground-truth) state machine.
    pub reference_transitions: usize,
    /// Witness traces, one per reference transition; used for the score `d`.
    pub witnesses: Vec<Trace>,
}

impl Benchmark {
    /// The paper's accuracy score `d`: the fraction of reference-machine
    /// transitions whose witness trace is admitted by the learned
    /// abstraction.
    pub fn score_d(&self, learned: &Nfa) -> f64 {
        learned.acceptance_ratio(&self.witnesses)
    }

    /// Number of observable variables (the `|X|` column of Table I).
    pub fn num_observables(&self) -> usize {
        self.observables.len()
    }
}

/// Error raised when an input schedule does not match the system it is meant
/// to drive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Name of the system the schedule was replayed on.
    pub system: String,
    /// Index of the offending schedule row.
    pub row: usize,
    /// Number of values supplied in that row.
    pub got: usize,
    /// Number of declared input variables.
    pub expected: usize,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule row {} for system `{}` has {} values but the system declares {} input variables",
            self.row, self.system, self.got, self.expected
        )
    }
}

impl Error for ScheduleError {}

/// Helper used by the benchmark definitions: runs the system from its initial
/// valuation under an explicit input schedule and records the resulting
/// trace. Each schedule entry gives the raw values of the input variables (in
/// declaration order) for one step.
///
/// # Errors
///
/// Returns a [`ScheduleError`] naming the system and the offending row when a
/// schedule row does not supply exactly one value per declared input
/// variable. (Silently zipping a short row against the input list would feed
/// the simulator stale input values — a miswritten witness would then
/// disagree with the reference machine it is supposed to pin down.)
pub fn trace_from_schedule(system: &System, schedule: &[Vec<i64>]) -> Result<Trace, ScheduleError> {
    let inputs = system.input_vars().to_vec();
    for (row_index, row) in schedule.iter().enumerate() {
        if row.len() != inputs.len() {
            return Err(ScheduleError {
                system: system.name().to_string(),
                row: row_index,
                got: row.len(),
                expected: inputs.len(),
            });
        }
    }
    let assign = |row: &Vec<i64>| -> Vec<(VarId, Value)> {
        inputs
            .iter()
            .zip(row.iter())
            .map(|(id, raw)| (*id, Value::from_i64(system.vars().sort(*id), *raw)))
            .collect()
    };
    let mut current = system.initial_valuation();
    if let Some(first) = schedule.first() {
        for (id, value) in assign(first) {
            current.set(id, value);
        }
    }
    let mut observations = Vec::new();
    for row in schedule.iter().skip(1) {
        current = system.step(&current, &assign(row));
        observations.push(current.clone());
    }
    Ok(Trace::new(observations))
}

/// Helper: a schedule-driven witness trace for a statically defined
/// benchmark.
///
/// # Panics
///
/// Panics (naming the benchmark system) when the schedule is malformed; the
/// static Table I definitions are validated by the suite tests, so this is a
/// definition-time assertion rather than a runtime hazard.
pub(crate) fn witness(system: &System, schedule: &[Vec<i64>]) -> Trace {
    match trace_from_schedule(system, schedule) {
        Ok(trace) => trace,
        Err(e) => panic!("bad witness schedule: {e}"),
    }
}

/// Convenience for building per-step schedules where the benchmark has a
/// single input variable.
pub(crate) fn single_input(values: &[i64]) -> Vec<Vec<i64>> {
    values.iter().map(|v| vec![*v]).collect()
}

/// A catalogue entry: a benchmark's name and the function that builds it.
type Entry = (&'static str, fn() -> Benchmark);

/// Every named benchmark, in suite order: Table I (the first [`TABLE_I`]
/// entries), the default synthetic families (up to [`FULL_SUITE`]), the
/// splicing-stress family (up to [`STRESS_SUITE`]) and the circuit family,
/// in fixture order. A lookup by name builds only the one benchmark; each
/// name is the name its constructor gives the benchmark.
const CATALOGUE: [Entry; 34] = [
    ("HomeClimateControlCooler", home_climate_control),
    ("BangBangControlHeater", bang_bang_heater),
    ("AutomaticTransmission", automatic_transmission),
    ("RedundantSensorPair", redundant_sensor_pair),
    ("SecuritySystemAlarm", security_system),
    ("YoYoControlOfSatellite", yoyo_control),
    ("VarSizeSizeBasedProcessing", size_based_processing),
    ("CountEvents", count_events),
    ("TemporalLogicScheduler", temporal_logic_scheduler),
    ("LadderLogicScheduler", ladder_logic_scheduler),
    ("MooreTrafficLight", moore_traffic_light),
    ("IntersectionOfTwo1wayStreets", intersection),
    ("SuperstepWithSuperStep", superstep),
    ("MealyVendingMachine", vending_machine),
    ("SequenceRecognition", sequence_recognition),
    ("ServerQueueingSystem", server_queue),
    ("CdPlayerModeManager", cd_player_mode_manager),
    ("LaunchAbortModeLogic", launch_abort_mode_logic),
    ("FrameSyncController", frame_sync_controller),
    ("SynthCounterW3I1", || default_synthetic(0)),
    ("SynthCounterW4I2", || default_synthetic(1)),
    ("SynthGrayW2", || default_synthetic(2)),
    ("SynthGrayW3", || default_synthetic(3)),
    ("SynthModArithW4M5", || default_synthetic(4)),
    ("SynthModArithW5M9", || default_synthetic(5)),
    ("SynthGatedToggleT2", || default_synthetic(6)),
    ("SynthGatedToggleT3", || default_synthetic(7)),
    ("SynthSpliceStormD8", || default_splice_storm(8)),
    ("SynthSpliceStormD12", || default_splice_storm(12)),
    ("CircuitCounter3", || fixture_benchmark("counter3")),
    ("CircuitShift4", || fixture_benchmark("shift4")),
    ("CircuitTrafficLight", || fixture_benchmark("traffic")),
    ("CircuitLfsr3", || fixture_benchmark("lfsr3")),
    ("CircuitCoiDemo", || fixture_benchmark("coi_demo")),
];

/// Catalogue entries of Table I.
const TABLE_I: usize = 19;
/// Catalogue entries of [`full_suite`].
const FULL_SUITE: usize = TABLE_I + DEFAULT_SPECS.len();
/// Catalogue entries of [`stress_suite`]; the circuit family follows.
const STRESS_SUITE: usize = FULL_SUITE + 2;

fn build(entries: &[Entry]) -> Vec<Benchmark> {
    entries.iter().map(|(_, build)| build()).collect()
}

/// All Table I benchmarks, in a stable order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    build(&CATALOGUE[..TABLE_I])
}

/// The full evaluation suite: Table I plus the default synthetic families
/// (see [`crate::synthetic_benchmarks`]), in a stable order.
pub fn full_suite() -> Vec<Benchmark> {
    build(&CATALOGUE[..FULL_SUITE])
}

/// The stress suite: [`full_suite`] plus the splicing-stress family
/// ([`crate::splice_stress_benchmarks`]), in a stable order. Kept separate
/// so that default suite fingerprints stay comparable across releases.
pub fn stress_suite() -> Vec<Benchmark> {
    build(&CATALOGUE[..STRESS_SUITE])
}

/// The circuit benchmark family, one entry per embedded fixture, in fixture
/// order.
pub fn circuit_benchmarks() -> Vec<Benchmark> {
    build(&CATALOGUE[STRESS_SUITE..])
}

/// The names of every benchmark [`benchmark_by_name`] finds: the stress
/// suite's, then the circuit family's. Builds nothing.
pub fn benchmark_names() -> impl Iterator<Item = &'static str> {
    CATALOGUE.iter().map(|(name, _)| *name)
}

/// Looks a benchmark up by name, across Table I, the default synthetic
/// families, the splicing-stress family and the circuit family, and builds
/// only that one.
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    CATALOGUE
        .iter()
        .find(|(entry, _)| *entry == name)
        .map(|(_, build)| build())
}
