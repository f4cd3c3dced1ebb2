//! Counter-, timer- and scheduler-style benchmarks (the CountEvents,
//! TemporalLogicScheduler, LadderLogicScheduler, MooreTrafficLight,
//! Superstep and SchedulingSimulinkAlgorithms families of Table I).

use crate::suite::{single_input, witness, Benchmark};
use amle_expr::{Expr, Sort, Value};
use amle_system::SystemBuilder;

/// Counts events up to a limit and raises a `full` flag (CountEvents).
pub(crate) fn count_events() -> Benchmark {
    let mut b = SystemBuilder::new();
    b.name("CountEvents");
    let ev = b.input("ev", Sort::Bool).unwrap();
    let c = b.state("c", Sort::int(5), Value::Int(0)).unwrap();
    let full = b.state("full", Sort::Bool, Value::Bool(false)).unwrap();
    let ce = b.var(c);
    let bumped = ce
        .lt(&Expr::int_val(10, 5))
        .ite(&ce.add(&Expr::int_val(1, 5)), &ce);
    let next = b.var(ev).ite(&bumped, &ce);
    b.update(c, next.clone()).unwrap();
    b.update(full, next.ge(&Expr::int_val(10, 5))).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("ev").unwrap(),
        system.vars().lookup("full").unwrap(),
    ];
    let fill = single_input(&std::iter::repeat_n(1, 13).collect::<Vec<_>>());
    let witnesses = vec![
        witness(&system, &single_input(&[1, 1, 1])), // counting, not yet full
        witness(&system, &fill),                     // reaches full and stays
        witness(&system, &single_input(&[0, 0, 0])), // idle
    ];
    Benchmark {
        name: "CountEvents".to_string(),
        system,
        observables,
        k: 20,
        reference_transitions: 3,
        witnesses,
    }
}

/// A periodic scheduler: a free-running counter triggers a task every 8 ticks
/// (TemporalLogicScheduler).
pub(crate) fn temporal_logic_scheduler() -> Benchmark {
    let mut b = SystemBuilder::new();
    b.name("TemporalLogicScheduler");
    let tick = b.input("tick", Sort::Bool).unwrap();
    let phase = b.state("phase", Sort::int(4), Value::Int(0)).unwrap();
    let fire = b.state("fire", Sort::Bool, Value::Bool(false)).unwrap();
    let pe = b.var(phase);
    let wrapped = pe
        .ge(&Expr::int_val(7, 4))
        .ite(&Expr::int_val(0, 4), &pe.add(&Expr::int_val(1, 4)));
    let next_phase = b.var(tick).ite(&wrapped, &pe);
    b.update(phase, next_phase.clone()).unwrap();
    b.update(fire, next_phase.eq(&Expr::int_val(0, 4)).and(&b.var(tick)))
        .unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("tick").unwrap(),
        system.vars().lookup("fire").unwrap(),
    ];
    let cycle = single_input(&std::iter::repeat_n(1, 18).collect::<Vec<_>>());
    let witnesses = vec![
        witness(&system, &cycle), // fires twice across two periods
        witness(&system, &single_input(&[1, 1, 1])), // not firing mid-period
        witness(&system, &single_input(&[0, 0, 0])), // idle
    ];
    Benchmark {
        name: "TemporalLogicScheduler".to_string(),
        system,
        observables,
        k: 18,
        reference_transitions: 3,
        witnesses,
    }
}

/// Ladder-logic style scheduler: three rungs executed in order, one per step
/// (LadderLogicScheduler / SchedulingSimulinkAlgorithmsUsingStateflow).
pub(crate) fn ladder_logic_scheduler() -> Benchmark {
    let rung_sort = Sort::enumeration("Rung", ["R1", "R2", "R3"]);
    let mut b = SystemBuilder::new();
    b.name("LadderLogicScheduler");
    let run = b.input("run", Sort::Bool).unwrap();
    let rung = b.state_enum("rung", rung_sort.clone(), "R1").unwrap();
    let r1 = b.enum_const(rung, "R1");
    let r2 = b.enum_const(rung, "R2");
    let r3 = b.enum_const(rung, "R3");
    let re = b.var(rung);
    let advance = re.eq(&r1).ite(&r2, &re.eq(&r2).ite(&r3, &r1));
    b.update(rung, b.var(run).ite(&advance, &re)).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &single_input(&[1, 1])),       // R1 -> R2
        witness(&system, &single_input(&[1, 1, 1])),    // R2 -> R3
        witness(&system, &single_input(&[1, 1, 1, 1])), // R3 -> R1
        witness(&system, &single_input(&[0, 0])),       // hold
    ];
    Benchmark {
        name: "LadderLogicScheduler".to_string(),
        system,
        observables,
        k: 10,
        reference_transitions: 4,
        witnesses,
    }
}

/// A Moore-style traffic light with per-phase timers (MooreTrafficLight).
pub(crate) fn moore_traffic_light() -> Benchmark {
    let light_sort = Sort::enumeration("Light", ["Red", "Green", "Yellow"]);
    let mut b = SystemBuilder::new();
    b.name("MooreTrafficLight");
    let en = b.input("en", Sort::Bool).unwrap();
    let light = b.state_enum("light", light_sort.clone(), "Red").unwrap();
    let timer = b.state("timer", Sort::int(4), Value::Int(0)).unwrap();
    let red = b.enum_const(light, "Red");
    let green = b.enum_const(light, "Green");
    let yellow = b.enum_const(light, "Yellow");
    let le = b.var(light);
    let te = b.var(timer);
    // Dwell times: red 4, green 4, yellow 2.
    let limit = le
        .eq(&yellow)
        .ite(&Expr::int_val(2, 4), &Expr::int_val(4, 4));
    let expired = te.add(&Expr::int_val(1, 4)).ge(&limit);
    let next_light = expired.ite(
        &le.eq(&red).ite(&green, &le.eq(&green).ite(&yellow, &red)),
        &le,
    );
    let next_timer = expired.ite(&Expr::int_val(0, 4), &te.add(&Expr::int_val(1, 4)));
    b.update(light, b.var(en).ite(&next_light, &le)).unwrap();
    b.update(timer, b.var(en).ite(&next_timer, &te)).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("en").unwrap(),
        system.vars().lookup("light").unwrap(),
    ];
    let full_cycle = single_input(&std::iter::repeat_n(1, 14).collect::<Vec<_>>());
    let witnesses = vec![
        witness(&system, &full_cycle), // red -> green -> yellow -> red
        witness(&system, &single_input(&[1, 1, 1])), // staying red while the timer runs
        witness(&system, &single_input(&[0, 0, 0])), // disabled
    ];
    Benchmark {
        name: "MooreTrafficLight".to_string(),
        system,
        observables,
        k: 14,
        reference_transitions: 3,
        witnesses,
    }
}

/// Two one-way streets alternating green (ModelingAnIntersectionOfTwo1wayStreets).
pub(crate) fn intersection() -> Benchmark {
    let phase_sort = Sort::enumeration("Phase", ["NorthGreen", "EastGreen"]);
    let mut b = SystemBuilder::new();
    b.name("IntersectionOfTwo1wayStreets");
    let tick = b.input("tick", Sort::Bool).unwrap();
    let phase = b
        .state_enum("phase", phase_sort.clone(), "NorthGreen")
        .unwrap();
    let hold = b.state("hold", Sort::int(4), Value::Int(0)).unwrap();
    let north = b.enum_const(phase, "NorthGreen");
    let east = b.enum_const(phase, "EastGreen");
    let he = b.var(hold);
    let expired = he.ge(&Expr::int_val(5, 4));
    let pe = b.var(phase);
    let next_phase = expired.ite(&pe.eq(&north).ite(&east, &north), &pe);
    let next_hold = expired.ite(&Expr::int_val(0, 4), &he.add(&Expr::int_val(1, 4)));
    b.update(phase, b.var(tick).ite(&next_phase, &pe)).unwrap();
    b.update(hold, b.var(tick).ite(&next_hold, &he)).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("tick").unwrap(),
        system.vars().lookup("phase").unwrap(),
    ];
    let two_switches = single_input(&std::iter::repeat_n(1, 14).collect::<Vec<_>>());
    let witnesses = vec![
        witness(&system, &two_switches),             // north -> east -> north
        witness(&system, &single_input(&[1, 1, 1])), // holding north
        witness(&system, &single_input(&[0, 0])),    // idle
    ];
    Benchmark {
        name: "IntersectionOfTwo1wayStreets".to_string(),
        system,
        observables,
        k: 14,
        reference_transitions: 3,
        witnesses,
    }
}

/// A super-step counter that advances by two per tick until a limit
/// (Superstep with super step semantics).
pub(crate) fn superstep() -> Benchmark {
    let mut b = SystemBuilder::new();
    b.name("SuperstepWithSuperStep");
    let tick = b.input("tick", Sort::Bool).unwrap();
    let c = b.state("c", Sort::int(5), Value::Int(0)).unwrap();
    let done = b.state("done", Sort::Bool, Value::Bool(false)).unwrap();
    let ce = b.var(c);
    let advanced = ce
        .lt(&Expr::int_val(8, 5))
        .ite(&ce.add(&Expr::int_val(2, 5)), &ce);
    let next = b.var(tick).ite(&advanced, &ce);
    b.update(c, next.clone()).unwrap();
    b.update(done, next.ge(&Expr::int_val(8, 5))).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("tick").unwrap(),
        system.vars().lookup("done").unwrap(),
    ];
    let finish = single_input(&std::iter::repeat_n(1, 7).collect::<Vec<_>>());
    let witnesses = vec![
        witness(&system, &single_input(&[1, 1, 1])), // advancing, not done
        witness(&system, &finish),                   // reaches done and stays
        witness(&system, &single_input(&[0, 0])),    // idle
    ];
    Benchmark {
        name: "SuperstepWithSuperStep".to_string(),
        system,
        observables,
        k: 12,
        reference_transitions: 3,
        witnesses,
    }
}
