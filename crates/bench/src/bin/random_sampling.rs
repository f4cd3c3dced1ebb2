//! Reproduces the "Random Sampling" columns of Table I (Section IV-C): learn
//! a model passively from a large random-input budget and measure its degree
//! of completeness with the same condition checks the active algorithm uses.
//!
//! ```text
//! random_sampling [<budget>]
//! ```
//!
//! The budget is the number of random inputs per benchmark, a positive
//! integer; it defaults to 20 000 (a scaled-down stand-in for the paper's
//! 10^6). Any other argument prints the usage and exits with status 2.

use amle_bench::{format_random_table, run_random_sampling, RandomRow};
use amle_benchmarks::all_benchmarks;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: random_sampling [<budget>]\n\
         \x20 <budget>: random inputs per benchmark, a positive integer (default 20000)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = match args.as_slice() {
        [] => 20_000,
        [raw] => match raw.parse::<usize>() {
            Ok(budget) if budget > 0 => budget,
            _ => return usage(),
        },
        _ => return usage(),
    };
    let mut rows: Vec<RandomRow> = Vec::new();
    for benchmark in all_benchmarks() {
        eprintln!("running {} ...", benchmark.name);
        rows.push(run_random_sampling(&benchmark, budget));
    }
    println!("Table I — Random Sampling (budget = {budget} inputs per benchmark)");
    println!("{}", format_random_table(&rows));
    let incomplete = rows.iter().filter(|r| r.report.alpha < 1.0).count();
    println!(
        "summary: {}/{} benchmarks have alpha < 1 under random sampling",
        incomplete,
        rows.len()
    );
    ExitCode::SUCCESS
}
