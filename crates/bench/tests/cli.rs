//! Command-line handling of the bench tools: a bad argument prints the
//! usage and exits with status 2 before any benchmark runs.

use std::process::Command;

#[test]
fn random_sampling_rejects_a_zero_or_unparsable_budget() {
    for arg in ["0", "abc"] {
        let output = Command::new(env!("CARGO_BIN_EXE_random_sampling"))
            .arg(arg)
            .output()
            .expect("random_sampling starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "budget `{arg}`: {stderr}");
        assert!(
            stderr.contains("usage: random_sampling [<budget>]"),
            "budget `{arg}` printed no usage line: {stderr}"
        );
        assert!(output.stdout.is_empty(), "budget `{arg}` ran benchmarks");
    }
}

#[test]
fn suite_rejects_zero_counts() {
    for flag in ["--workers", "--condition-workers", "--repeat"] {
        let output = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(["--quick", "--only", "HomeClimate", flag, "0"])
            .output()
            .expect("suite starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(
            stderr.contains("usage: suite [--workers N]"),
            "{flag} 0 printed no usage line: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag} 0 ran benchmarks");
    }
}

#[test]
fn serve_client_rejects_empty_load_shapes_before_connecting() {
    // Nothing listens on port 1, so a client that got as far as connecting
    // would retry for 10 s and then fail with status 1.
    for (flag, value) in [
        ("--sessions", "0"),
        ("--batches", "0"),
        ("--traces", "0"),
        ("--workers", "0"),
        ("--length", "1"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_serve-client"))
            .args(["--addr", "127.0.0.1:1", flag, value])
            .output()
            .expect("serve-client starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains("usage: serve-client [--addr ADDR]"),
            "{flag} {value} printed no usage line: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag} {value} ran sessions");
    }
}
