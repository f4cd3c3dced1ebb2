//! `perf-diff` — compares two `suite --json` documents.
//!
//! ```text
//! perf-diff <baseline.json> <candidate.json> [--threshold <ratio>] [--fail-on-regression]
//! ```
//!
//! Prints per-benchmark wall-time / solver-time / solve-call / cache-hit /
//! propagations-per-conflict deltas and a regression summary. Both
//! documents must be schema 5, the one `suite --json` writes. By default
//! the exit code is 0
//! regardless of findings, so CI can run it as a non-blocking report step;
//! `--fail-on-regression` exits 1 when a regression (or a fingerprint
//! divergence) is flagged.
//!
//! `--threshold` is the tolerated relative wall-time increase (default 0.2,
//! i.e. 20%); increases under an absolute floor are never flagged, so
//! microsecond-scale benchmarks don't alarm on scheduler noise. Solver-call
//! and cache-hit drift is flagged at any magnitude — those counters are
//! deterministic for a fixed suite configuration.
//!
//! ```text
//! perf-diff --trend <a.json> <b.json> [<c.json>...]
//! ```
//!
//! Trend mode takes two or more run documents in chronological order and
//! emits a long-format CSV trajectory on stdout — one row per benchmark per
//! run (wall time, solver time, solve calls, cache hits, fingerprint
//! digest), plus a `__suite__` series for suite-level wall time — instead
//! of a pairwise diff. Exit code is always 0 unless an input fails to
//! parse.

use amle_bench::perf::{diff_runs, format_diff, format_trend, parse_suite_run};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf-diff <baseline.json> <candidate.json> [--threshold <ratio>] [--fail-on-regression]\n       perf-diff --trend <a.json> <b.json> [<c.json>...]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.2f64;
    let mut fail_on_regression = false;
    let mut trend = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trend" => trend = true,
            "--threshold" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return usage();
                };
                match value.parse::<f64>() {
                    Ok(t) if t >= 0.0 => threshold = t,
                    _ => {
                        eprintln!("perf-diff: invalid threshold {value:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--fail-on-regression" => fail_on_regression = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("perf-diff: unknown flag {other}");
                return usage();
            }
            path => paths.push(path),
        }
        i += 1;
    }
    let read = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_suite_run(&text).map_err(|e| format!("{path}: {e}"))
    };

    if trend {
        if paths.len() < 2 {
            return usage();
        }
        let mut runs = Vec::with_capacity(paths.len());
        for path in &paths {
            match read(path) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("perf-diff: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        print!("{}", format_trend(&runs));
        return ExitCode::SUCCESS;
    }

    let [base_path, new_path] = paths.as_slice() else {
        return usage();
    };
    let (base, new) = match (read(base_path), read(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf-diff: {e}");
            return ExitCode::from(2);
        }
    };
    if base.engine != new.engine {
        eprintln!(
            "perf-diff: warning: comparing engine {:?} against {:?}",
            base.engine, new.engine
        );
    }

    let diff = diff_runs(&base, &new, threshold);
    print!("{}", format_diff(&base, &new, &diff));
    if fail_on_regression && diff.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
