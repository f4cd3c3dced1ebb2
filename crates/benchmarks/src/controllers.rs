//! Threshold-, mode- and sensor-controller benchmarks (the
//! HomeClimateControl / BangBangControl / RedundantSensorPair /
//! SecuritySystem / YoYoControl families of Table I).

use crate::suite::{single_input, witness, Benchmark};
use amle_expr::{Expr, Sort, Value};
use amle_system::SystemBuilder;

fn bool_sched(values: &[&[i64]]) -> Vec<Vec<i64>> {
    values.iter().map(|row| row.to_vec()).collect()
}

/// Fig. 2: the Home Climate-Control Cooler. The mode follows a temperature
/// threshold.
pub(crate) fn home_climate_control() -> Benchmark {
    let mut b = SystemBuilder::new();
    b.name("HomeClimateControlCooler");
    let temp = b.input_in_range("inp_temp", Sort::int(8), 0, 120).unwrap();
    let on = b.state("s_on", Sort::Bool, Value::Bool(false)).unwrap();
    b.update(on, b.var(temp).gt(&Expr::int_val(75, 8))).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        // off --hot--> on, on --hot--> on, on --cold--> off, off --cold--> off
        witness(&system, &single_input(&[20, 90, 95])),
        witness(&system, &single_input(&[90, 95, 99])),
        witness(&system, &single_input(&[90, 95, 20])),
        witness(&system, &single_input(&[20, 30, 40])),
    ];
    Benchmark {
        name: "HomeClimateControlCooler".to_string(),
        system,
        observables,
        k: 10,
        reference_transitions: 4,
        witnesses,
    }
}

/// Bang-bang temperature controller with a heater-on dwell counter
/// (the BangBangControlUsingTemporalLogic / Heater row).
pub(crate) fn bang_bang_heater() -> Benchmark {
    let mut b = SystemBuilder::new();
    b.name("BangBangControlHeater");
    let temp = b.input_in_range("temp", Sort::int(8), 0, 100).unwrap();
    let heat = b.state("heat", Sort::Bool, Value::Bool(false)).unwrap();
    let dwell = b.state("dwell", Sort::int(6), Value::Int(0)).unwrap();
    let cold = b.var(temp).lt(&Expr::int_val(40, 8));
    let warm = b.var(temp).gt(&Expr::int_val(60, 8));
    // The heater switches on when cold, and only switches off once warm and
    // the minimum dwell of 6 steps has elapsed.
    let dwell_e = b.var(dwell);
    let dwell_done = dwell_e.ge(&Expr::int_val(6, 6));
    let next_heat = b.var(heat).ite(&warm.and(&dwell_done).not(), &cold);
    let next_dwell = b.var(heat).ite(
        &dwell_done.ite(&dwell_e, &dwell_e.add(&Expr::int_val(1, 6))),
        &Expr::int_val(0, 6),
    );
    b.update(heat, next_heat).unwrap();
    b.update(dwell, next_dwell).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("temp").unwrap(),
        system.vars().lookup("heat").unwrap(),
    ];
    let long_heat = {
        let mut values = vec![20];
        values.extend(std::iter::repeat_n(50, 8));
        values.push(80);
        values.push(80);
        single_input(&values)
    };
    let witnesses = vec![
        witness(&system, &single_input(&[80, 30, 30])), // off -> on when cold
        witness(&system, &single_input(&[80, 70, 65])), // stays off when warm
        witness(&system, &long_heat),                   // on until dwell elapses, then off
        witness(&system, &single_input(&[30, 30, 50, 50])), // stays on while dwell short
    ];
    Benchmark {
        name: "BangBangControlHeater".to_string(),
        system,
        observables,
        k: 16,
        reference_transitions: 4,
        witnesses,
    }
}

/// Automatic transmission gear logic driven by speed thresholds
/// (the AutomaticTransmissionUsingDurationOperator row).
pub(crate) fn automatic_transmission() -> Benchmark {
    let gear_sort = Sort::enumeration("Gear", ["First", "Second", "Third"]);
    let mut b = SystemBuilder::new();
    b.name("AutomaticTransmission");
    let speed = b.input_in_range("speed", Sort::int(8), 0, 140).unwrap();
    let gear = b.state_enum("gear", gear_sort.clone(), "First").unwrap();
    let ge = b.var(gear);
    let first = b.enum_const(gear, "First");
    let second = b.enum_const(gear, "Second");
    let third = b.enum_const(gear, "Third");
    let fast = b.var(speed).gt(&Expr::int_val(80, 8));
    let medium = b.var(speed).gt(&Expr::int_val(40, 8));
    // Shift up when above the threshold of the current gear, down when below.
    let from_first = medium.ite(&second, &first);
    let from_second = fast.ite(&third, &medium.ite(&second, &first));
    let from_third = fast.ite(&third, &second);
    let next = ge
        .eq(&first)
        .ite(&from_first, &ge.eq(&second).ite(&from_second, &from_third));
    b.update(gear, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &single_input(&[10, 60, 60])), // 1 -> 2
        witness(&system, &single_input(&[10, 60, 90, 100])), // 2 -> 3
        witness(&system, &single_input(&[10, 60, 90, 60])), // 3 -> 2
        witness(&system, &single_input(&[10, 60, 20, 10])), // 2 -> 1
        witness(&system, &single_input(&[10, 20, 30])), // stay in 1
        witness(&system, &single_input(&[10, 60, 90, 120])), // stay in 3
    ];
    Benchmark {
        name: "AutomaticTransmission".to_string(),
        system,
        observables,
        k: 12,
        reference_transitions: 6,
        witnesses,
    }
}

/// Redundant sensor pair: use sensor A unless it fails, fall back to B, and
/// report total failure when both fail.
pub(crate) fn redundant_sensor_pair() -> Benchmark {
    let mode_sort = Sort::enumeration("Active", ["UseA", "UseB", "Failed"]);
    let mut b = SystemBuilder::new();
    b.name("RedundantSensorPair");
    let a_ok = b.input("a_ok", Sort::Bool).unwrap();
    let b_ok = b.input("b_ok", Sort::Bool).unwrap();
    let mode = b.state_enum("active", mode_sort.clone(), "UseA").unwrap();
    let use_a = b.enum_const(mode, "UseA");
    let use_b = b.enum_const(mode, "UseB");
    let failed = b.enum_const(mode, "Failed");
    let me = b.var(mode);
    let from_a = b.var(a_ok).ite(&use_a, &b.var(b_ok).ite(&use_b, &failed));
    let from_b = b.var(b_ok).ite(&use_b, &failed);
    let next = me
        .eq(&use_a)
        .ite(&from_a, &me.eq(&use_b).ite(&from_b, &failed));
    b.update(mode, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &bool_sched(&[&[1, 1], &[1, 1], &[1, 1]])), // stay UseA
        witness(&system, &bool_sched(&[&[1, 1], &[0, 1], &[0, 1]])), // A fails -> UseB
        witness(&system, &bool_sched(&[&[1, 1], &[0, 1], &[0, 0]])), // then B fails -> Failed
        witness(&system, &bool_sched(&[&[1, 1], &[0, 0], &[0, 0]])), // both fail -> Failed
        witness(&system, &bool_sched(&[&[1, 1], &[0, 1], &[1, 1], &[1, 1]])), // UseB is latched
    ];
    Benchmark {
        name: "RedundantSensorPair".to_string(),
        system,
        observables,
        k: 8,
        reference_transitions: 5,
        witnesses,
    }
}

/// Security system alarm: arming switch plus door/motion sensors.
pub(crate) fn security_system() -> Benchmark {
    let mode_sort = Sort::enumeration("Alarm", ["Disarmed", "Armed", "Sounding"]);
    let mut b = SystemBuilder::new();
    b.name("SecuritySystemAlarm");
    let arm = b.input("arm", Sort::Bool).unwrap();
    let door = b.input("door", Sort::Bool).unwrap();
    let mode = b
        .state_enum("alarm", mode_sort.clone(), "Disarmed")
        .unwrap();
    let disarmed = b.enum_const(mode, "Disarmed");
    let armed = b.enum_const(mode, "Armed");
    let sounding = b.enum_const(mode, "Sounding");
    let me = b.var(mode);
    let from_disarmed = b.var(arm).ite(&armed, &disarmed);
    let from_armed = b
        .var(arm)
        .not()
        .ite(&disarmed, &b.var(door).ite(&sounding, &armed));
    let from_sounding = b.var(arm).ite(&sounding, &disarmed);
    let next = me.eq(&disarmed).ite(
        &from_disarmed,
        &me.eq(&armed).ite(&from_armed, &from_sounding),
    );
    b.update(mode, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &bool_sched(&[&[0, 0], &[1, 0], &[1, 0]])), // disarmed -> armed
        witness(&system, &bool_sched(&[&[0, 0], &[1, 0], &[1, 1]])), // armed -> sounding
        witness(&system, &bool_sched(&[&[0, 0], &[1, 0], &[0, 0]])), // armed -> disarmed
        witness(&system, &bool_sched(&[&[0, 0], &[1, 0], &[1, 1], &[0, 0]])), // sounding -> disarmed
        witness(&system, &bool_sched(&[&[0, 0], &[1, 0], &[1, 1], &[1, 0]])), // sounding latches
        witness(&system, &bool_sched(&[&[0, 0], &[0, 1], &[0, 0]])), // disarmed ignores door
    ];
    Benchmark {
        name: "SecuritySystemAlarm".to_string(),
        system,
        observables,
        k: 10,
        reference_transitions: 6,
        witnesses,
    }
}

/// Yo-yo satellite reel control: the reel alternates between reeling out and
/// reeling in, driven by a rope-length counter.
pub(crate) fn yoyo_control() -> Benchmark {
    let mode_sort = Sort::enumeration("Reel", ["Out", "In"]);
    let mut b = SystemBuilder::new();
    b.name("YoYoControlOfSatellite");
    let run = b.input("run", Sort::Bool).unwrap();
    let mode = b.state_enum("reel", mode_sort.clone(), "Out").unwrap();
    let len = b.state("len", Sort::int(5), Value::Int(0)).unwrap();
    let out = b.enum_const(mode, "Out");
    let inward = b.enum_const(mode, "In");
    let le = b.var(len);
    let at_max = le.ge(&Expr::int_val(10, 5));
    let at_min = le.le(&Expr::int_val(0, 5));
    let me = b.var(mode);
    let next_mode = me
        .eq(&out)
        .ite(&at_max.ite(&inward, &out), &at_min.ite(&out, &inward));
    let moved = me
        .eq(&out)
        .ite(&le.add(&Expr::int_val(1, 5)), &le.sub(&Expr::int_val(1, 5)));
    let clamped = moved
        .gt(&Expr::int_val(10, 5))
        .ite(&Expr::int_val(10, 5), &moved);
    let next_len = b.var(run).ite(&clamped, &le);
    b.update(mode, b.var(run).ite(&next_mode, &me)).unwrap();
    b.update(len, next_len).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("reel").unwrap(),
        system.vars().lookup("run").unwrap(),
    ];
    let long_run = single_input(&std::iter::repeat_n(1, 26).collect::<Vec<_>>());
    let witnesses = vec![
        witness(&system, &single_input(&[1, 1, 1])), // reeling out continues
        witness(&system, &long_run.clone()),         // out -> in -> out full cycle
        witness(&system, &single_input(&[0, 0, 0])), // idle keeps the mode
    ];
    Benchmark {
        name: "YoYoControlOfSatellite".to_string(),
        system,
        observables,
        k: 24,
        reference_transitions: 3,
        witnesses,
    }
}

/// Size-based processing: a mode selector that follows an input size class
/// (the VarSize / SizeBasedProcessing row).
pub(crate) fn size_based_processing() -> Benchmark {
    let mode_sort = Sort::enumeration("Path", ["Small", "Medium", "Large"]);
    let mut b = SystemBuilder::new();
    b.name("VarSizeSizeBasedProcessing");
    let size = b.input_in_range("size", Sort::int(7), 0, 100).unwrap();
    let path = b.state_enum("path", mode_sort.clone(), "Small").unwrap();
    let small = b.enum_const(path, "Small");
    let medium = b.enum_const(path, "Medium");
    let large = b.enum_const(path, "Large");
    let big = b.var(size).gt(&Expr::int_val(66, 7));
    let mid = b.var(size).gt(&Expr::int_val(33, 7));
    b.update(path, big.ite(&large, &mid.ite(&medium, &small)))
        .unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &single_input(&[10, 20, 25])), // stay small
        witness(&system, &single_input(&[10, 50, 55])), // small -> medium
        witness(&system, &single_input(&[10, 50, 90])), // medium -> large
        witness(&system, &single_input(&[10, 90, 10])), // large -> small
        witness(&system, &single_input(&[10, 90, 50])), // large -> medium
        witness(&system, &single_input(&[10, 50, 10])), // medium -> small
    ];
    Benchmark {
        name: "VarSizeSizeBasedProcessing".to_string(),
        system,
        observables,
        k: 8,
        reference_transitions: 6,
        witnesses,
    }
}
