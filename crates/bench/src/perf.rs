//! Perf comparison of two `suite --json` documents.
//!
//! The suite builds its document as one [`amle_serve::json::Json`] value (see
//! [`crate::suite_json`]); this module is its matching consumer — the
//! per-benchmark delta computation behind the `perf-diff` binary, reading
//! documents with the same module's parser (one JSON reader and writer for
//! the daemon wire protocol and the suite artefacts, not two drifting
//! copies). It reads schema 5, the only schema `suite --json` writes, in any
//! layout (the compact line `suite` writes, or a pretty-printed document
//! such as an artefact from an older build), and rejects every other schema.
//!
//! A *regression* is flagged per benchmark:
//!
//! * wall time above the relative threshold **and** a small absolute floor
//!   (tiny benchmarks fluctuate by microseconds — a pure ratio would cry
//!   wolf on every run);
//! * any increase in `solve_calls` or decrease in `cache_hits` — both are
//!   deterministic under a fixed suite configuration, so any drift is a
//!   behavioural change, not noise;
//! * a changed per-benchmark fingerprint digest, which means the two runs
//!   are not semantically comparable at all.

use std::collections::BTreeMap;

use amle_serve::json::{parse_json, Json};

/// The per-benchmark measurements `perf-diff` compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPerf {
    /// Benchmark name.
    pub name: String,
    /// Wall time of the benchmark run in seconds.
    pub time_s: f64,
    /// Seconds spent inside the SAT backend.
    pub solver_time_s: f64,
    /// SAT solve calls.
    pub solve_calls: u64,
    /// Verdict-cache hits.
    pub cache_hits: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Semantic fingerprint digest of the run.
    pub fingerprint_digest: String,
}

/// A parsed `suite --json` document, reduced to what `perf-diff` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRun {
    /// Document schema version (always 5).
    pub schema: u64,
    /// Oracle engine the suite ran with.
    pub engine: String,
    /// Total suite wall time in seconds.
    pub wall_time_s: f64,
    /// Digest of the concatenated semantic fingerprint.
    pub fingerprint_digest: String,
    /// Per-benchmark measurements, in run order.
    pub benchmarks: Vec<BenchPerf>,
}

fn field_f64(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn field_u64(obj: &Json, key: &str) -> u64 {
    field_f64(obj, key) as u64
}

fn field_str(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// Parses a `suite --json` document into a [`SuiteRun`].
pub fn parse_suite_run(text: &str) -> Result<SuiteRun, String> {
    let doc = parse_json(text)?;
    let schema = field_u64(&doc, "schema");
    if schema != 5 {
        return Err(format!("unsupported suite schema {schema}"));
    }
    let benchmarks = match doc.get("benchmarks") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|b| BenchPerf {
                name: field_str(b, "name"),
                time_s: field_f64(b, "time_s"),
                solver_time_s: field_f64(b, "solver_time_s"),
                solve_calls: field_u64(b, "solve_calls"),
                cache_hits: field_u64(b, "cache_hits"),
                conflicts: field_u64(b, "conflicts"),
                propagations: field_u64(b, "propagations"),
                fingerprint_digest: field_str(b, "fingerprint_digest"),
            })
            .collect(),
        _ => return Err("missing \"benchmarks\" array".to_string()),
    };
    Ok(SuiteRun {
        schema,
        engine: field_str(&doc, "engine"),
        wall_time_s: field_f64(&doc, "wall_time_s"),
        fingerprint_digest: field_str(&doc, "fingerprint_digest"),
        benchmarks,
    })
}

/// One benchmark's delta between a baseline and a candidate run.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Benchmark name.
    pub name: String,
    /// Baseline measurements.
    pub base: BenchPerf,
    /// Candidate measurements.
    pub new: BenchPerf,
    /// Human-readable regression descriptions; empty when clean.
    pub regressions: Vec<String>,
}

impl BenchDelta {
    /// Relative wall-time change (`+0.25` = 25% slower).
    pub fn time_ratio(&self) -> f64 {
        if self.base.time_s <= 0.0 {
            0.0
        } else {
            self.new.time_s / self.base.time_s - 1.0
        }
    }
}

/// The full comparison of two suite runs.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Per-benchmark deltas for benchmarks present in both runs.
    pub deltas: Vec<BenchDelta>,
    /// Benchmarks present in only one of the runs.
    pub unmatched: Vec<String>,
    /// Whether the two runs' suite-level fingerprint digests agree.
    pub fingerprints_match: bool,
}

impl PerfDiff {
    /// Whether any benchmark regressed (or the fingerprints diverged).
    pub fn has_regressions(&self) -> bool {
        !self.fingerprints_match || self.deltas.iter().any(|d| !d.regressions.is_empty())
    }
}

/// Wall-time changes below this absolute floor are never flagged, whatever
/// the ratio: sub-10ms benchmarks jitter by integer factors run to run.
pub const TIME_FLOOR_S: f64 = 0.05;

/// Compares two parsed suite runs. `threshold` is the relative wall-time
/// increase tolerated before flagging (e.g. `0.2` = 20%).
pub fn diff_runs(base: &SuiteRun, new: &SuiteRun, threshold: f64) -> PerfDiff {
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    let base_by_name: BTreeMap<&str, &BenchPerf> = base
        .benchmarks
        .iter()
        .map(|b| (b.name.as_str(), b))
        .collect();
    let new_names: BTreeMap<&str, ()> = new
        .benchmarks
        .iter()
        .map(|b| (b.name.as_str(), ()))
        .collect();
    for b in &base.benchmarks {
        if !new_names.contains_key(b.name.as_str()) {
            unmatched.push(b.name.clone());
        }
    }
    for candidate in &new.benchmarks {
        let Some(&baseline) = base_by_name.get(candidate.name.as_str()) else {
            unmatched.push(candidate.name.clone());
            continue;
        };
        let mut regressions = Vec::new();
        let dt = candidate.time_s - baseline.time_s;
        if baseline.time_s > 0.0 && dt > TIME_FLOOR_S && dt / baseline.time_s > threshold {
            regressions.push(format!(
                "wall time +{:.0}% ({:.3}s -> {:.3}s)",
                100.0 * dt / baseline.time_s,
                baseline.time_s,
                candidate.time_s
            ));
        }
        if candidate.solve_calls > baseline.solve_calls {
            regressions.push(format!(
                "solve calls {} -> {}",
                baseline.solve_calls, candidate.solve_calls
            ));
        }
        if candidate.cache_hits < baseline.cache_hits {
            regressions.push(format!(
                "cache hits {} -> {}",
                baseline.cache_hits, candidate.cache_hits
            ));
        }
        if candidate.fingerprint_digest != baseline.fingerprint_digest {
            regressions.push("fingerprint digest changed".to_string());
        }
        deltas.push(BenchDelta {
            name: candidate.name.clone(),
            base: baseline.clone(),
            new: candidate.clone(),
            regressions,
        });
    }
    PerfDiff {
        deltas,
        unmatched,
        fingerprints_match: base.fingerprint_digest == new.fingerprint_digest,
    }
}

/// Renders the comparison as a fixed-width report: per-benchmark wall-time /
/// solver-time / solve-call / cache-hit / propagations-per-conflict deltas,
/// then a regression summary.
pub fn format_diff(base: &SuiteRun, new: &SuiteRun, diff: &PerfDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "suite wall time: {:.3}s -> {:.3}s   fingerprints: {}",
        base.wall_time_s,
        new.wall_time_s,
        if diff.fingerprints_match {
            "MATCH"
        } else {
            "DIVERGED"
        }
    );
    let _ = writeln!(
        out,
        "{:<34} {:>9} {:>9} {:>7} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "Benchmark",
        "T(s)old",
        "T(s)new",
        "dT%",
        "Tsat old",
        "Tsat new",
        "solves",
        "hits",
        "prop/cf"
    );
    for d in &diff.deltas {
        let prop_cf = |b: &BenchPerf| {
            if b.conflicts == 0 {
                None
            } else {
                Some(b.propagations as f64 / b.conflicts as f64)
            }
        };
        let ppc = match (prop_cf(&d.base), prop_cf(&d.new)) {
            (Some(a), Some(b)) => format!("{a:.0}->{b:.0}"),
            _ => "-".to_string(),
        };
        let solves = if d.new.solve_calls == d.base.solve_calls {
            format!("{}", d.new.solve_calls)
        } else {
            format!("{}!", d.new.solve_calls)
        };
        let hits = if d.new.cache_hits == d.base.cache_hits {
            format!("{}", d.new.cache_hits)
        } else {
            format!("{}!", d.new.cache_hits)
        };
        let _ = writeln!(
            out,
            "{:<34} {:>9.3} {:>9.3} {:>+6.1}% {:>9.3} {:>9.3} {:>8} {:>8} {:>9}",
            d.name,
            d.base.time_s,
            d.new.time_s,
            100.0 * d.time_ratio(),
            d.base.solver_time_s,
            d.new.solver_time_s,
            solves,
            hits,
            ppc
        );
    }
    for name in &diff.unmatched {
        let _ = writeln!(out, "{name:<34} present in only one run");
    }
    let flagged: Vec<&BenchDelta> = diff
        .deltas
        .iter()
        .filter(|d| !d.regressions.is_empty())
        .collect();
    if flagged.is_empty() && diff.fingerprints_match {
        let _ = writeln!(out, "\nno regressions flagged");
    } else {
        let _ = writeln!(out, "\nREGRESSIONS:");
        if !diff.fingerprints_match {
            let _ = writeln!(out, "  suite fingerprint digest diverged");
        }
        for d in flagged {
            for r in &d.regressions {
                let _ = writeln!(out, "  {}: {}", d.name, r);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time: f64, calls: u64, hits: u64, fp: &str) -> String {
        format!(
            "{{\n  \"schema\": 5,\n  \"engine\": \"kinduction\",\n  \
             \"wall_time_s\": {time},\n  \"fingerprint_digest\": \"{fp}\",\n  \
             \"benchmarks\": [\n    {{\"name\": \"A\", \"time_s\": {time}, \
             \"solve_calls\": {calls}, \"solver_time_s\": 0.5, \
             \"cache_hits\": {hits}, \"fingerprint_digest\": \"{fp}-a\", \
             \"decisions\": 10, \"propagations\": 600, \"conflicts\": 20, \
             \"minimized_lits\": 4, \"mean_lbd\": 2.5}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn parses_all_supported_schemas() {
        let run = parse_suite_run(&sample(1.0, 100, 7, "abc")).unwrap();
        assert_eq!(run.schema, 5);
        assert_eq!(run.benchmarks[0].conflicts, 20);
        assert_eq!(run.benchmarks[0].propagations, 600);
        // Older schemas are rejected too, not half-read.
        assert!(parse_suite_run("{\"schema\": 4, \"benchmarks\": []}").is_err());
        assert!(parse_suite_run("{\"schema\": 6, \"benchmarks\": []}").is_err());
    }

    #[test]
    fn identical_runs_are_clean() {
        let run = parse_suite_run(&sample(1.0, 100, 7, "abc")).unwrap();
        let diff = diff_runs(&run, &run, 0.2);
        assert!(!diff.has_regressions());
        assert!(diff.fingerprints_match);
        let rendered = format_diff(&run, &run, &diff);
        assert!(rendered.contains("no regressions flagged"));
        assert!(rendered.contains("MATCH"));
    }

    #[test]
    fn wall_time_regression_respects_threshold_and_floor() {
        let base = parse_suite_run(&sample(1.0, 100, 7, "abc")).unwrap();
        // +30% over a 20% threshold and above the absolute floor: flagged.
        let slow = parse_suite_run(&sample(1.3, 100, 7, "abc")).unwrap();
        assert!(diff_runs(&base, &slow, 0.2).has_regressions());
        // +30% but within the threshold at 40%: clean.
        assert!(!diff_runs(&base, &slow, 0.4).has_regressions());
        // Huge ratio on a microscopic benchmark: under the floor, clean.
        let tiny_base = parse_suite_run(&sample(0.001, 100, 7, "abc")).unwrap();
        let tiny_slow = parse_suite_run(&sample(0.004, 100, 7, "abc")).unwrap();
        assert!(!diff_runs(&tiny_base, &tiny_slow, 0.2).has_regressions());
    }

    #[test]
    fn deterministic_counter_drift_is_always_flagged() {
        let base = parse_suite_run(&sample(1.0, 100, 7, "abc")).unwrap();
        let more_calls = parse_suite_run(&sample(1.0, 101, 7, "abc")).unwrap();
        let diff = diff_runs(&base, &more_calls, 0.2);
        assert!(diff.has_regressions());
        assert!(diff.deltas[0].regressions[0].contains("solve calls"));
        let fewer_hits = parse_suite_run(&sample(1.0, 100, 6, "abc")).unwrap();
        assert!(diff_runs(&base, &fewer_hits, 0.2).has_regressions());
        // Fewer solve calls / more hits are improvements, not regressions.
        let better = parse_suite_run(&sample(1.0, 90, 9, "abc")).unwrap();
        assert!(!diff_runs(&base, &better, 0.2).has_regressions());
    }

    #[test]
    fn fingerprint_divergence_is_a_regression() {
        let base = parse_suite_run(&sample(1.0, 100, 7, "abc")).unwrap();
        let other = parse_suite_run(&sample(1.0, 100, 7, "xyz")).unwrap();
        let diff = diff_runs(&base, &other, 0.2);
        assert!(!diff.fingerprints_match);
        assert!(diff.has_regressions());
        let rendered = format_diff(&base, &other, &diff);
        assert!(rendered.contains("DIVERGED"));
    }

    #[test]
    fn unmatched_benchmarks_are_reported_not_flagged() {
        let base = parse_suite_run(&sample(1.0, 100, 7, "abc")).unwrap();
        let mut renamed = base.clone();
        renamed.benchmarks[0].name = "B".to_string();
        let diff = diff_runs(&base, &renamed, 0.2);
        assert_eq!(diff.unmatched.len(), 2, "A and B both unmatched");
        assert!(!diff.has_regressions());
    }
}
