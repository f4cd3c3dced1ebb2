//! Protocol- and machine-style benchmarks (the MealyVendingMachine,
//! SequenceRecognition, ServerQueueingSystem, CdPlayer ModeManager,
//! LaunchAbortSystem and frame-synchroniser families of Table I).

use crate::suite::{single_input, witness, Benchmark};
use amle_expr::{Expr, Sort, Value};
use amle_system::SystemBuilder;

fn sched(rows: &[&[i64]]) -> Vec<Vec<i64>> {
    rows.iter().map(|r| r.to_vec()).collect()
}

/// Mealy vending machine: accepts 5c/10c coins, dispenses at 15c.
pub(crate) fn vending_machine() -> Benchmark {
    let coin_sort = Sort::enumeration("Coin", ["None", "Nickel", "Dime"]);
    let mut b = SystemBuilder::new();
    b.name("MealyVendingMachine");
    let coin = b.input("coin", coin_sort.clone()).unwrap();
    let credit = b.state("credit", Sort::int(5), Value::Int(0)).unwrap();
    let vend = b.state("vend", Sort::Bool, Value::Bool(false)).unwrap();
    let ce = b.var(credit);
    let nickel = b.var(coin).eq(&Expr::enum_val(&coin_sort, "Nickel"));
    let dime = b.var(coin).eq(&Expr::enum_val(&coin_sort, "Dime"));
    let added = nickel.ite(
        &ce.add(&Expr::int_val(5, 5)),
        &dime.ite(&ce.add(&Expr::int_val(10, 5)), &ce),
    );
    let will_vend = added.ge(&Expr::int_val(15, 5));
    let next_credit = will_vend.ite(&Expr::int_val(0, 5), &added);
    b.update(credit, next_credit).unwrap();
    b.update(vend, will_vend).unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("coin").unwrap(),
        system.vars().lookup("vend").unwrap(),
    ];
    let witnesses = vec![
        witness(&system, &single_input(&[0, 1, 1, 1, 0])), // three nickels vend
        witness(&system, &single_input(&[0, 2, 1, 0])),    // dime + nickel vend
        witness(&system, &single_input(&[0, 2, 2, 0])),    // two dimes vend
        witness(&system, &single_input(&[0, 1, 1, 0])),    // not enough credit yet
    ];
    Benchmark {
        name: "MealyVendingMachine".to_string(),
        system,
        observables,
        k: 10,
        reference_transitions: 4,
        witnesses,
    }
}

/// Recognises the input sequence 1-0-1 (SequenceRecognitionUsingMealyAndMooreChart).
pub(crate) fn sequence_recognition() -> Benchmark {
    let stage_sort = Sort::enumeration("Stage", ["S0", "S1", "S10", "Hit"]);
    let mut b = SystemBuilder::new();
    b.name("SequenceRecognition");
    let bit = b.input("bit", Sort::Bool).unwrap();
    let stage = b.state_enum("stage", stage_sort.clone(), "S0").unwrap();
    let s0 = b.enum_const(stage, "S0");
    let s1 = b.enum_const(stage, "S1");
    let s10 = b.enum_const(stage, "S10");
    let hit = b.enum_const(stage, "Hit");
    let se = b.var(stage);
    let one = b.var(bit);
    let from_s0 = one.ite(&s1, &s0);
    let from_s1 = one.ite(&s1, &s10);
    let from_s10 = one.ite(&hit, &s0);
    let from_hit = one.ite(&s1, &s10);
    let next = se.eq(&s0).ite(
        &from_s0,
        &se.eq(&s1)
            .ite(&from_s1, &se.eq(&s10).ite(&from_s10, &from_hit)),
    );
    b.update(stage, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &single_input(&[0, 1, 0, 1])), // full 1-0-1 recognition
        witness(&system, &single_input(&[0, 1, 1, 0])), // repeated ones then zero
        witness(&system, &single_input(&[0, 0, 0])),    // idle zeros
        witness(&system, &single_input(&[0, 1, 0, 0])), // broken pattern back to S0
        witness(&system, &single_input(&[0, 1, 0, 1, 0, 1])), // overlap after a hit
    ];
    Benchmark {
        name: "SequenceRecognition".to_string(),
        system,
        observables,
        k: 10,
        reference_transitions: 5,
        witnesses,
    }
}

/// A single-server queue with bounded length (ServerQueueingSystem).
pub(crate) fn server_queue() -> Benchmark {
    let mut b = SystemBuilder::new();
    b.name("ServerQueueingSystem");
    let arrive = b.input("arrive", Sort::Bool).unwrap();
    let serve = b.input("serve", Sort::Bool).unwrap();
    let len = b.state("len", Sort::int(4), Value::Int(0)).unwrap();
    let busy = b.state("busy", Sort::Bool, Value::Bool(false)).unwrap();
    let le = b.var(len);
    let after_arrival = b
        .var(arrive)
        .and(&le.lt(&Expr::int_val(8, 4)))
        .ite(&le.add(&Expr::int_val(1, 4)), &le);
    let after_service = b
        .var(serve)
        .and(&after_arrival.gt(&Expr::int_val(0, 4)))
        .ite(&after_arrival.sub(&Expr::int_val(1, 4)), &after_arrival);
    b.update(len, after_service.clone()).unwrap();
    b.update(busy, after_service.gt(&Expr::int_val(0, 4)))
        .unwrap();
    let system = b.build().unwrap();
    let observables = vec![
        system.vars().lookup("arrive").unwrap(),
        system.vars().lookup("busy").unwrap(),
    ];
    let witnesses = vec![
        witness(&system, &sched(&[&[0, 0], &[1, 0], &[1, 0]])), // queue builds, busy
        witness(&system, &sched(&[&[0, 0], &[1, 0], &[0, 1], &[0, 1]])), // drains to idle
        witness(&system, &sched(&[&[0, 0], &[0, 0], &[0, 0]])), // stays idle
        witness(&system, &sched(&[&[0, 0], &[1, 1], &[1, 1]])), // arrival and service overlap
    ];
    Benchmark {
        name: "ServerQueueingSystem".to_string(),
        system,
        observables,
        k: 18,
        reference_transitions: 4,
        witnesses,
    }
}

/// CD player / radio mode manager (ModelingACdPlayerRadio, ModeManager chart).
pub(crate) fn cd_player_mode_manager() -> Benchmark {
    let mode_sort = Sort::enumeration("Mode", ["Standby", "Radio", "Cd"]);
    let mut b = SystemBuilder::new();
    b.name("CdPlayerModeManager");
    let power = b.input("power", Sort::Bool).unwrap();
    let disc = b.input("disc", Sort::Bool).unwrap();
    let mode = b.state_enum("mode", mode_sort.clone(), "Standby").unwrap();
    let standby = b.enum_const(mode, "Standby");
    let radio = b.enum_const(mode, "Radio");
    let cd = b.enum_const(mode, "Cd");
    let me = b.var(mode);
    let powered_target = b.var(disc).ite(&cd, &radio);
    let next = b.var(power).ite(&powered_target, &standby);
    let _ = me;
    b.update(mode, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &sched(&[&[0, 0], &[1, 0], &[1, 0]])), // standby -> radio
        witness(&system, &sched(&[&[0, 0], &[1, 0], &[1, 1]])), // radio -> cd on insert
        witness(&system, &sched(&[&[0, 0], &[1, 1], &[1, 0]])), // cd -> radio on eject
        witness(&system, &sched(&[&[0, 0], &[1, 1], &[0, 1]])), // cd -> standby on power off
        witness(&system, &sched(&[&[0, 0], &[0, 0], &[0, 0]])), // stays in standby
    ];
    Benchmark {
        name: "CdPlayerModeManager".to_string(),
        system,
        observables,
        k: 8,
        reference_transitions: 5,
        witnesses,
    }
}

/// Launch-abort mode logic: nominal flight, abort trigger, then staged abort
/// (ModelingALaunchAbortSystem / ModeLogic).
pub(crate) fn launch_abort_mode_logic() -> Benchmark {
    let mode_sort = Sort::enumeration("Mode", ["Nominal", "LowAbort", "HighAbort", "Safed"]);
    let mut b = SystemBuilder::new();
    b.name("LaunchAbortModeLogic");
    let abort = b.input("abort", Sort::Bool).unwrap();
    let high_alt = b.input("high_alt", Sort::Bool).unwrap();
    let mode = b.state_enum("mode", mode_sort.clone(), "Nominal").unwrap();
    let nominal = b.enum_const(mode, "Nominal");
    let low = b.enum_const(mode, "LowAbort");
    let high = b.enum_const(mode, "HighAbort");
    let safed = b.enum_const(mode, "Safed");
    let me = b.var(mode);
    let from_nominal = b
        .var(abort)
        .ite(&b.var(high_alt).ite(&high, &low), &nominal);
    // Any abort mode proceeds to the safed state on the next step.
    let next = me
        .eq(&nominal)
        .ite(&from_nominal, &me.eq(&safed).ite(&safed, &safed));
    b.update(mode, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &sched(&[&[0, 0], &[0, 0], &[0, 0]])), // nominal flight
        witness(&system, &sched(&[&[0, 0], &[1, 0], &[0, 0]])), // low abort then safed
        witness(&system, &sched(&[&[0, 0], &[1, 1], &[0, 0]])), // high abort then safed
        witness(&system, &sched(&[&[0, 0], &[1, 0], &[0, 0], &[0, 0]])), // safed is terminal
    ];
    Benchmark {
        name: "LaunchAbortModeLogic".to_string(),
        system,
        observables,
        k: 8,
        reference_transitions: 4,
        witnesses,
    }
}

/// A frame synchroniser: hunts for a sync marker, locks after two consecutive
/// markers and drops lock after two consecutive misses (FrameSyncController).
pub(crate) fn frame_sync_controller() -> Benchmark {
    let state_sort = Sort::enumeration("Sync", ["Hunt", "PreLock", "Lock", "PreHunt"]);
    let mut b = SystemBuilder::new();
    b.name("FrameSyncController");
    let marker = b.input("marker", Sort::Bool).unwrap();
    let sync = b.state_enum("sync", state_sort.clone(), "Hunt").unwrap();
    let hunt = b.enum_const(sync, "Hunt");
    let prelock = b.enum_const(sync, "PreLock");
    let lock = b.enum_const(sync, "Lock");
    let prehunt = b.enum_const(sync, "PreHunt");
    let se = b.var(sync);
    let m = b.var(marker);
    let from_hunt = m.ite(&prelock, &hunt);
    let from_prelock = m.ite(&lock, &hunt);
    let from_lock = m.ite(&lock, &prehunt);
    let from_prehunt = m.ite(&lock, &hunt);
    let next = se.eq(&hunt).ite(
        &from_hunt,
        &se.eq(&prelock)
            .ite(&from_prelock, &se.eq(&lock).ite(&from_lock, &from_prehunt)),
    );
    b.update(sync, next).unwrap();
    let system = b.build().unwrap();
    let observables = system.all_vars();
    let witnesses = vec![
        witness(&system, &single_input(&[0, 1, 1, 1])), // hunt -> prelock -> lock
        witness(&system, &single_input(&[0, 1, 0, 0])), // prelock falls back to hunt
        witness(&system, &single_input(&[0, 1, 1, 0, 1])), // lock survives a single miss
        witness(&system, &single_input(&[0, 1, 1, 0, 0])), // two misses drop the lock
        witness(&system, &single_input(&[0, 0, 0])),    // hunting on silence
    ];
    Benchmark {
        name: "FrameSyncController".to_string(),
        system,
        observables,
        k: 12,
        reference_transitions: 5,
        witnesses,
    }
}
