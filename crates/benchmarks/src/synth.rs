//! Seeded synthetic benchmark families.
//!
//! Table I fixes the evaluation to a handful of hand-modelled Stateflow
//! systems; the synthetic families below open the suite up to whole
//! *parameter spaces* of systems — configurable bit-widths, input counts and
//! seed-derived constants — the way "Learning Concise Models from Long
//! Execution Traces" applies the same pipeline across many generated
//! workloads. Every instance ships with derived witness traces (one per
//! reference-machine transition), so the accuracy score `d` is defined for
//! synthetic benchmarks exactly as for Table I.
//!
//! Generation is fully deterministic: the same [`SynthSpec`] and seed always
//! produce byte-identical systems and witnesses, which keeps the differential
//! tests of the parallel engine meaningful on synthetic workloads.

use crate::suite::{single_input, witness, Benchmark};
use amle_expr::{Expr, Sort, Value, VarId};
use amle_system::{System, SystemBuilder};

/// The seed used for the synthetic half of [`crate::full_suite`].
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The specs of [`SynthFamily::default_suite`]: two instances of each family
/// at different widths. At [`DEFAULT_SEED`] they are the synthetic half of
/// [`crate::full_suite`].
pub(crate) const DEFAULT_SPECS: [SynthSpec; 8] = [
    SynthSpec {
        kind: SynthKind::Counter,
        bits: 3,
        inputs: 1,
    },
    SynthSpec {
        kind: SynthKind::Counter,
        bits: 4,
        inputs: 2,
    },
    SynthSpec {
        kind: SynthKind::GrayCode,
        bits: 2,
        inputs: 1,
    },
    SynthSpec {
        kind: SynthKind::GrayCode,
        bits: 3,
        inputs: 1,
    },
    SynthSpec {
        kind: SynthKind::ModularArith,
        bits: 4,
        inputs: 1,
    },
    SynthSpec {
        kind: SynthKind::ModularArith,
        bits: 5,
        inputs: 1,
    },
    SynthSpec {
        kind: SynthKind::GatedToggle,
        bits: 1,
        inputs: 2,
    },
    SynthSpec {
        kind: SynthKind::GatedToggle,
        bits: 1,
        inputs: 3,
    },
];

/// The synthetic system families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthKind {
    /// Saturating up-counter guarded by a conjunction of enable inputs.
    Counter,
    /// Gray-code cycler driven by an advance input.
    GrayCode,
    /// Modular accumulator adding a bounded input increment.
    ModularArith,
    /// A bank of toggle bits behind a master gate input.
    GatedToggle,
    /// A deep boolean stage pipeline built to stress counterexample-trace
    /// splicing: random traces only witness the shallow stages, so the
    /// refinement loop keeps producing valid (or inconclusive)
    /// counterexamples for many iterations, splicing each onto every
    /// qualifying trace prefix. Used to measure that per-iteration word
    /// encoding work grows at most linearly (see `stress_suite`).
    SpliceStorm,
}

/// Parameters of one synthetic benchmark instance.
///
/// `bits` is the state bit-width and `inputs` the number of boolean control
/// inputs; each family clamps them to its supported range (documented on
/// [`SynthFamily::benchmark`]), so arbitrary values — e.g. from a property
/// test — are always safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthSpec {
    /// Which family to instantiate.
    pub kind: SynthKind,
    /// State bit-width.
    pub bits: u32,
    /// Number of boolean control inputs.
    pub inputs: usize,
}

/// A seeded generator of synthetic benchmarks.
///
/// The seed feeds a splitmix64 stream that derives the per-instance constants
/// (saturation limits, moduli, increment bounds), so one seed describes a
/// whole reproducible family of systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthFamily {
    seed: u64,
}

/// One splitmix64 step — a tiny, dependency-free deterministic PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `lo..=hi` drawn from the stream.
fn draw(state: &mut u64, lo: i64, hi: i64) -> i64 {
    debug_assert!(lo <= hi);
    lo + (splitmix(state) % (hi - lo + 1) as u64) as i64
}

impl SynthFamily {
    /// Creates a generator for the given seed.
    pub fn new(seed: u64) -> Self {
        SynthFamily { seed }
    }

    /// The seed of this family.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Instantiates one benchmark.
    ///
    /// Parameter clamping per family:
    ///
    /// * `Counter`: `bits` in 2..=8, `inputs` (enable lines) in 1..=4;
    /// * `GrayCode`: `bits` in 2..=3 (the cycle is encoded explicitly);
    /// * `ModularArith`: `bits` in 3..=8, `inputs` ignored;
    /// * `GatedToggle`: `inputs` (toggle lines) in 1..=4, `bits` ignored;
    /// * `SpliceStorm`: `bits` (pipeline depth) in 4..=16, `inputs` ignored.
    pub fn benchmark(&self, spec: SynthSpec) -> Benchmark {
        // Clamp first: the constant stream must be derived from the
        // *effective* parameters, so that any two specs clamping to the same
        // instance produce the same system (names identify benchmarks).
        let (bits, inputs) = match spec.kind {
            SynthKind::Counter => (spec.bits.clamp(2, 8), spec.inputs.clamp(1, 4)),
            SynthKind::GrayCode => (spec.bits.clamp(2, 3), 1),
            SynthKind::ModularArith => (spec.bits.clamp(3, 8), 1),
            SynthKind::GatedToggle => (1, spec.inputs.clamp(1, 4)),
            SynthKind::SpliceStorm => (spec.bits.clamp(4, 16), 1),
        };
        // Per-instance constant stream so different specs of the same family
        // get different constants.
        let mut stream = self
            .seed
            .wrapping_add((bits as u64) << 32)
            .wrapping_add(inputs as u64)
            .wrapping_add(match spec.kind {
                SynthKind::Counter => 1,
                SynthKind::GrayCode => 2,
                SynthKind::ModularArith => 3,
                SynthKind::GatedToggle => 4,
                SynthKind::SpliceStorm => 5,
            });
        match spec.kind {
            SynthKind::Counter => self.counter(bits, inputs, &mut stream),
            SynthKind::GrayCode => self.gray_code(bits),
            SynthKind::ModularArith => self.modular_arith(bits, &mut stream),
            SynthKind::GatedToggle => self.gated_toggle(inputs),
            SynthKind::SpliceStorm => self.splice_storm(bits),
        }
    }

    /// The default synthetic slice of the full suite: two instances of each
    /// family at different widths, in the order [`crate::full_suite`] lists
    /// them at [`DEFAULT_SEED`].
    pub fn default_suite(&self) -> Vec<Benchmark> {
        DEFAULT_SPECS
            .into_iter()
            .map(|spec| self.benchmark(spec))
            .collect()
    }

    /// Saturating counter: `c` counts up to a seed-derived limit while every
    /// enable input is high; `full` observes saturation.
    fn counter(&self, bits: u32, enables: usize, stream: &mut u64) -> Benchmark {
        let limit = draw(stream, 1 << (bits - 1), (1 << bits) - 1);
        let name = format!("SynthCounterW{bits}I{enables}");
        let mut b = SystemBuilder::new();
        b.name(name.clone());
        let ens: Vec<VarId> = (0..enables)
            .map(|i| b.input(format!("en{i}"), Sort::Bool).unwrap())
            .collect();
        let c = b.state("c", Sort::int(bits), Value::Int(0)).unwrap();
        let full = b.state("full", Sort::Bool, Value::Bool(false)).unwrap();
        let enable = ens
            .iter()
            .fold(Expr::true_(), |acc, id| acc.and(&b.var(*id)));
        let ce = b.var(c);
        let bumped = ce
            .lt(&Expr::int_val(limit, bits))
            .ite(&ce.add(&Expr::int_val(1, bits)), &ce);
        let next = enable.ite(&bumped, &ce);
        b.update(c, next.clone()).unwrap();
        b.update(full, next.ge(&Expr::int_val(limit, bits)))
            .unwrap();
        let system = b.build().unwrap();
        let observables = system.all_vars();

        let all_on = vec![1i64; enables];
        let mut idle_row = vec![1i64; enables];
        idle_row[0] = 0;
        let run = |rows: usize, row: &[i64]| -> Vec<Vec<i64>> {
            (0..rows).map(|_| row.to_vec()).collect()
        };
        let witnesses = vec![
            // Increment from zero.
            witness(&system, &run(3, &all_on)),
            // Idle: one enable low holds the count.
            witness(&system, &run(3, &idle_row)),
            // Count through to saturation and sit on the limit.
            witness(&system, &run(limit as usize + 3, &all_on)),
        ];
        Benchmark {
            name,
            system,
            observables,
            k: (limit as usize + 2).clamp(4, 12),
            reference_transitions: 3,
            witnesses,
        }
    }

    /// Gray-code cycler: `g` steps through the reflected binary cycle while
    /// `advance` is high; `hi` observes the top half of the cycle.
    fn gray_code(&self, bits: u32) -> Benchmark {
        let cycle: Vec<i64> = match bits {
            2 => vec![0, 1, 3, 2],
            _ => vec![0, 1, 3, 2, 6, 7, 5, 4],
        };
        let name = format!("SynthGrayW{bits}");
        let mut b = SystemBuilder::new();
        b.name(name.clone());
        let advance = b.input("advance", Sort::Bool).unwrap();
        let g = b.state("g", Sort::int(bits), Value::Int(cycle[0])).unwrap();
        let hi = b.state("hi", Sort::Bool, Value::Bool(false)).unwrap();
        let ge = b.var(g);
        // Successor along the cycle, encoded as an ite chain over the codes.
        let mut succ = Expr::int_val(cycle[0], bits);
        for window in cycle.windows(2).rev() {
            succ = ge
                .eq(&Expr::int_val(window[0], bits))
                .ite(&Expr::int_val(window[1], bits), &succ);
        }
        let next = b.var(advance).ite(&succ, &ge);
        b.update(g, next.clone()).unwrap();
        b.update(hi, next.ge(&Expr::int_val(1 << (bits - 1), bits)))
            .unwrap();
        let system = b.build().unwrap();
        let observables = system.all_vars();
        let witnesses = vec![
            // A full advance cycle back to the initial code.
            witness(&system, &single_input(&vec![1; cycle.len() + 2])),
            // Idle.
            witness(&system, &single_input(&[0, 0, 0])),
        ];
        Benchmark {
            name,
            system,
            observables,
            k: (cycle.len() + 1).min(10),
            reference_transitions: 2,
            witnesses,
        }
    }

    /// Modular accumulator: `acc` adds a bounded input increment modulo a
    /// seed-derived modulus; `wrapped` observes reduction steps.
    fn modular_arith(&self, bits: u32, stream: &mut u64) -> Benchmark {
        // Keep headroom: acc < m and inc <= inc_max, with m + inc_max
        // representable in `bits`.
        let modulus = draw(stream, 3, (1 << (bits - 1)) - 1);
        let inc_max = draw(stream, 1, 2);
        let name = format!("SynthModArithW{bits}M{modulus}");
        let mut b = SystemBuilder::new();
        b.name(name.clone());
        let inc = b
            .input_in_range("inc", Sort::int(bits), 0, inc_max)
            .unwrap();
        let acc = b.state("acc", Sort::int(bits), Value::Int(0)).unwrap();
        let wrapped = b.state("wrapped", Sort::Bool, Value::Bool(false)).unwrap();
        let sum = b.var(acc).add(&b.var(inc));
        let over = sum.ge(&Expr::int_val(modulus, bits));
        let next = over.ite(&sum.sub(&Expr::int_val(modulus, bits)), &sum);
        b.update(acc, next).unwrap();
        b.update(wrapped, over).unwrap();
        let system = b.build().unwrap();
        let observables = system.all_vars();
        let wrap_steps = (modulus / inc_max) as usize + 2;
        let witnesses = vec![
            // Accumulate at the maximum increment until the sum reduces.
            witness(&system, &single_input(&vec![inc_max; wrap_steps])),
            // Zero increments hold the accumulator.
            witness(&system, &single_input(&[0, 0, 0])),
            // A single sub-modulus step.
            witness(&system, &single_input(&[inc_max, inc_max])),
        ];
        Benchmark {
            name,
            system,
            observables,
            k: 8,
            reference_transitions: 3,
            witnesses,
        }
    }

    /// Boolean stage pipeline: stage `s0` follows the `hold` input, stage
    /// `s_{i}` turns on one step after `s_{i-1}` while `hold` stays high, and
    /// every stage drops the moment `hold` goes low.
    ///
    /// Only the stage bits are observable; short random traces rarely hold
    /// the input long enough to light the deep stages, so the refinement
    /// loop discovers roughly one stage pattern per iteration through valid
    /// counterexamples — a steady splicing load for many iterations. Once
    /// every stage has been seen in both polarities the abstraction's cell
    /// structure is pinned, so incremental learners re-encode only the new
    /// traces from then on.
    fn splice_storm(&self, depth: u32) -> Benchmark {
        let depth = depth as usize;
        let name = format!("SynthSpliceStormD{depth}");
        let mut b = SystemBuilder::new();
        b.name(name.clone());
        let hold = b.input("hold", Sort::Bool).unwrap();
        let stages: Vec<VarId> = (0..depth)
            .map(|i| {
                b.state(format!("s{i}"), Sort::Bool, Value::Bool(false))
                    .unwrap()
            })
            .collect();
        let mut previous = Expr::true_();
        for stage in &stages {
            let next = b.var(hold).and(&previous);
            b.update(*stage, next).unwrap();
            previous = b.var(*stage);
        }
        let system = b.build().unwrap();
        let observables = stages.clone();
        // One witness per stage: hold long enough to light it. Plus one
        // release: the whole pipeline drops at once.
        let mut witnesses: Vec<_> = (0..depth)
            .map(|i| witness(&system, &single_input(&vec![1; i + 2])))
            .collect();
        witnesses.push(witness(&system, &single_input(&[1, 1, 1, 0, 0])));
        Benchmark {
            name,
            system,
            observables,
            k: 4,
            reference_transitions: depth + 1,
            witnesses,
        }
    }

    /// Gated toggle bank: each toggle input flips its bit while the master
    /// gate is high; `any` observes whether any bit is set.
    fn gated_toggle(&self, toggles: usize) -> Benchmark {
        let name = format!("SynthGatedToggleT{toggles}");
        let mut b = SystemBuilder::new();
        b.name(name.clone());
        let gate = b.input("gate", Sort::Bool).unwrap();
        let ts: Vec<VarId> = (0..toggles)
            .map(|i| b.input(format!("t{i}"), Sort::Bool).unwrap())
            .collect();
        let ss: Vec<VarId> = (0..toggles)
            .map(|i| {
                b.state(format!("s{i}"), Sort::Bool, Value::Bool(false))
                    .unwrap()
            })
            .collect();
        let any = b.state("any", Sort::Bool, Value::Bool(false)).unwrap();
        let mut next_any = Expr::false_();
        for (t, s) in ts.iter().zip(&ss) {
            let flip = b.var(gate).and(&b.var(*t));
            let next = flip.ite(&b.var(*s).not(), &b.var(*s));
            next_any = next_any.or(&next);
            b.update(*s, next).unwrap();
        }
        b.update(any, next_any).unwrap();
        let system = b.build().unwrap();
        let observables = system.all_vars();
        // Row layout: gate first, then the toggle inputs in order.
        let row = |gate_on: bool, active: Option<usize>| -> Vec<i64> {
            let mut r = vec![i64::from(gate_on)];
            r.extend((0..toggles).map(|i| i64::from(active == Some(i))));
            r
        };
        let mut witnesses: Vec<_> = (0..toggles)
            .map(|i| {
                witness(
                    &system,
                    &[row(true, Some(i)), row(true, Some(i)), row(true, Some(i))],
                )
            })
            .collect();
        // Gate low: toggling has no effect.
        witnesses.push(witness(
            &system,
            &[
                row(false, Some(0)),
                row(false, Some(0)),
                row(false, Some(0)),
            ],
        ));
        Benchmark {
            name,
            system,
            observables,
            k: 4,
            reference_transitions: toggles + 1,
            witnesses,
        }
    }
}

/// The default synthetic benchmarks for the given seed (two instances of each
/// family; see [`SynthFamily::default_suite`]).
pub fn synthetic_benchmarks(seed: u64) -> Vec<Benchmark> {
    SynthFamily::new(seed).default_suite()
}

/// The splicing-stress benchmarks: two depths of the non-converging
/// [`SynthKind::SpliceStorm`] pipeline. Kept out of [`crate::full_suite`] so
/// released suite fingerprints stay comparable; the suite runner adds them
/// with `--stress`.
pub fn splice_stress_benchmarks(seed: u64) -> Vec<Benchmark> {
    let family = SynthFamily::new(seed);
    [8, 12]
        .into_iter()
        .map(|depth| {
            family.benchmark(SynthSpec {
                kind: SynthKind::SpliceStorm,
                bits: depth,
                inputs: 1,
            })
        })
        .collect()
}

/// Entry `index` of [`DEFAULT_SPECS`] at [`DEFAULT_SEED`].
pub(crate) fn default_synthetic(index: usize) -> Benchmark {
    SynthFamily::new(DEFAULT_SEED).benchmark(DEFAULT_SPECS[index])
}

/// The splicing-stress pipeline of the given depth at [`DEFAULT_SEED`].
pub(crate) fn default_splice_storm(depth: u32) -> Benchmark {
    SynthFamily::new(DEFAULT_SEED).benchmark(SynthSpec {
        kind: SynthKind::SpliceStorm,
        bits: depth,
        inputs: 1,
    })
}

/// Convenience: generate one synthetic system directly (e.g. for tests that
/// need a [`System`] without the benchmark wrapper).
pub fn synthetic_system(seed: u64, spec: SynthSpec) -> System {
    SynthFamily::new(seed).benchmark(spec).system
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_benchmarks(7);
        let b = synthetic_benchmarks(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.witnesses, y.witnesses);
            assert_eq!(x.system.init_expr(), y.system.init_expr());
        }
    }

    #[test]
    fn default_suite_has_eight_unique_benchmarks() {
        let suite = synthetic_benchmarks(DEFAULT_SEED);
        assert_eq!(suite.len(), 8);
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn seeds_change_derived_constants() {
        let spec = SynthSpec {
            kind: SynthKind::Counter,
            bits: 5,
            inputs: 1,
        };
        // Different seeds must eventually derive different saturation limits
        // (the limit is embedded in the update expression).
        let baseline = synthetic_system(0, spec);
        let differs = (1..20).any(|seed| {
            let sys = synthetic_system(seed, spec);
            sys.update(sys.vars().lookup("c").unwrap())
                != baseline.update(baseline.vars().lookup("c").unwrap())
        });
        assert!(differs, "seed does not influence the counter limit");
    }

    #[test]
    fn specs_clamping_to_the_same_instance_are_identical() {
        // The constant stream is derived from the *clamped* parameters, so a
        // wildly out-of-range spec and its in-range equivalent are the same
        // benchmark, not two different systems sharing a name.
        let family = SynthFamily::new(3);
        let a = family.benchmark(SynthSpec {
            kind: SynthKind::Counter,
            bits: 20,
            inputs: 1,
        });
        let b = family.benchmark(SynthSpec {
            kind: SynthKind::Counter,
            bits: 8,
            inputs: 1,
        });
        assert_eq!(a.name, b.name);
        let c = |bench: &Benchmark| bench.system.vars().lookup("c").unwrap();
        assert_eq!(a.system.update(c(&a)), b.system.update(c(&b)));
        assert_eq!(a.witnesses, b.witnesses);
    }

    #[test]
    fn splice_storm_pipeline_behaves_as_documented() {
        let suite = splice_stress_benchmarks(DEFAULT_SEED);
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name, "SynthSpliceStormD8");
        assert_eq!(suite[1].name, "SynthSpliceStormD12");
        for benchmark in &suite {
            // Only the stage bits are observable.
            assert_eq!(
                benchmark.observables.len(),
                benchmark.system.all_vars().len() - 1
            );
            // The deepest witness lights the last stage; releasing the hold
            // input clears the whole pipeline in one step.
            for w in &benchmark.witnesses {
                assert!(benchmark.system.is_execution_trace(w));
            }
            let deepest = &benchmark.witnesses[benchmark.observables.len() - 1];
            let last = benchmark.observables[benchmark.observables.len() - 1];
            let end = deepest.observations().last().unwrap();
            assert_eq!(end.value(last), Value::Bool(true));
            let release = benchmark.witnesses.last().unwrap();
            let end = release.observations().last().unwrap();
            for stage in &benchmark.observables {
                assert_eq!(end.value(*stage), Value::Bool(false));
            }
        }
    }

    #[test]
    fn out_of_range_parameters_are_clamped() {
        let b = SynthFamily::new(1).benchmark(SynthSpec {
            kind: SynthKind::GrayCode,
            bits: 60,
            inputs: 9,
        });
        assert_eq!(b.name, "SynthGrayW3");
        let b = SynthFamily::new(1).benchmark(SynthSpec {
            kind: SynthKind::GatedToggle,
            bits: 0,
            inputs: 0,
        });
        assert_eq!(b.name, "SynthGatedToggleT1");
    }
}
