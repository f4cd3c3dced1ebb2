//! The `amle-served` binary end to end: it binds, announces its address,
//! serves, and exits 0 once a `shutdown` has drained it; a bad command line
//! prints the usage and exits 2.

use amle_serve::json::{obj, Json};
use amle_serve::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A daemon process, killed and reaped if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_daemon_serves_and_exits_cleanly_after_shutdown() {
    let child = Command::new(env!("CARGO_BIN_EXE_amle-served"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("amle-served starts");
    let mut daemon = Daemon(child);
    // Every read is bounded, so a daemon that never answers fails the test
    // instead of hanging it.
    let stdout = daemon.0.stdout.take().expect("stdout is piped");
    let (banner_tx, banner_rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut banner = String::new();
        let _ = BufReader::new(stdout).read_line(&mut banner);
        let _ = banner_tx.send(banner);
    });
    let banner = banner_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a banner line within 30 s");
    reader.join().expect("the banner reader");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));

    let mut client = Client::connect(addr).expect("connect to amle-served");
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set a read timeout");
    let pong = client.send(&obj([("op", "ping".into())])).expect("a pong");
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
    let ack = client
        .send(&obj([("op", "shutdown".into())]))
        .expect("a shutdown acknowledgement");
    assert_eq!(ack.get("shutting_down"), Some(&Json::Bool(true)));

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll amle-served") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "amle-served did not exit within 30 s of its shutdown acknowledgement"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(0));
}

#[test]
fn listen_without_an_address_prints_the_usage_and_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_amle-served"))
        .arg("--listen")
        .output()
        .expect("amle-served starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("usage: amle-served [--listen ADDR]"),
        "no usage line: {stderr}"
    );
    assert!(output.stdout.is_empty(), "it bound an address: {stderr}");
}
