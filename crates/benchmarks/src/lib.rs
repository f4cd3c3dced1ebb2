//! # amle-benchmarks
//!
//! A suite of Stateflow-style benchmark systems standing in for the paper's
//! evaluation set (the MATLAB Simulink Stateflow examples compiled to C with
//! Embedded Coder, which are proprietary and unavailable here).
//!
//! Each [`Benchmark`] bundles:
//!
//! * an executable/analyzable [`amle_system::System`] modelled after one of
//!   the Table I benchmark families (threshold controllers, temporal-logic
//!   schedulers, counters, mode managers, vending machines, traffic lights,
//!   queueing systems, …);
//! * the observable variables and the k-induction bound `k` used by the
//!   active learning run (the paper supplies `k` per benchmark);
//! * a set of **ground-truth witness traces**, one per transition of the
//!   reference state machine, used to compute the accuracy score `d` of
//!   Table I: `d` is the fraction of reference transitions whose witness
//!   trace is admitted by the learned abstraction.
//!
//! The systems interact with the learning pipeline exactly the way the
//! paper's C implementations do — through random-input trace generation and
//! through symbolic transition-relation queries — so the substitution
//! preserves the behaviour the algorithm depends on (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuits;
mod controllers;
mod protocols;
mod schedulers;
mod suite;
mod synth;

pub use circuits::{circuit_benchmark_from_file, circuit_benchmark_name, circuit_stats_for};
pub use controllers::home_climate_control_system;
pub use suite::{
    all_benchmarks, benchmark_by_name, benchmark_names, circuit_benchmarks, full_suite,
    stress_suite, trace_from_schedule, Benchmark, ScheduleError,
};
pub use synth::{
    splice_stress_benchmarks, synthetic_benchmarks, synthetic_system, SynthFamily, SynthKind,
    SynthSpec, DEFAULT_SEED,
};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
