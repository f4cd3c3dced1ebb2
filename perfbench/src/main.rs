//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <table1-paper|quick-suite|daemon-sessions>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints as the
//! last line of standard output one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` they are its per-layer metrics, and
//! the run's spans are written under `out/`. See README.md for the
//! workloads and what each metric means.

mod daemon;
mod layers;
mod measure;
mod suite;

use amle_serve::json::{parse_json, Json};
use std::process::ExitCode;

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <table1-paper|quick-suite|daemon-sessions> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => options.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    if !(options.seconds.is_finite() && options.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number\n{}",
            usage()
        ));
    }
    Ok(options)
}

/// The metric names and units `BENCHMARK.json` declares for this mode; the
/// run must report exactly these.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    doc.get(section)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path} lacks `{section}`"))?
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{path}: malformed `{section}` entry"))
        })
        .collect()
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run() -> Result<Outcome, String> {
    let options = parse_options()?;
    let declared = declared_metrics(options.trace)?;
    let (seed, seconds, trace) = (options.seed, options.seconds, options.trace);
    let outcome = match options.workload.as_str() {
        "table1-paper" => suite::run(suite::Shape::Paper, &options.workload, seed, seconds, trace)?,
        "quick-suite" => suite::run(suite::Shape::Quick, &options.workload, seed, seconds, trace)?,
        "daemon-sessions" => daemon::run(&options.workload, seed, seconds, trace)?,
        other => return Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let mut reported: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect();
    let mut declared = declared;
    reported.sort();
    declared.sort();
    if reported != declared {
        return Err(format!(
            "reported metrics {reported:?} differ from BENCHMARK.json {declared:?}"
        ));
    }
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    if outcome.attempted == 0 {
        return Err("no operation was attempted".to_string());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return daemon::serve();
    }
    match run() {
        Ok(outcome) => {
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
