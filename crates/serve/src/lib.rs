//! # amle-serve
//!
//! Learning-as-a-service: a resident daemon that keeps active-learning
//! sessions warm across trace deliveries, instead of paying the batch
//! loop's cold start (system build, oracle construction, verdict-cache
//! warm-up) on every invocation.
//!
//! The daemon listens on TCP and speaks newline-delimited JSON (see
//! [`server`] for the protocol and threading model). Every line it sends —
//! replies, refusals, acknowledgements and subscriber events — and every
//! request line [`Client`] sends goes through [`write_line`], which writes
//! the line and its newline in one write. Each session wraps an
//! [`amle_core::Session`] — the incremental seam over the paper's Fig. 1
//! refinement loop — in an actor thread with a bounded command queue:
//!
//! * **session reuse** — the interned trace store, the warm condition
//!   oracle and the cross-iteration verdict cache persist across requests;
//! * **backpressure** — a full session queue rejects new work with a
//!   retriable error; the accept loop is never blocked by a refinement;
//! * **deadlines** — every request carries a timeout; a slow command
//!   returns a retriable deadline error instead of hanging the connection;
//! * **snapshot/restore** — a session's log of `ingest` and `refine`
//!   requests serializes to a JSON file, and a fresh process replays it
//!   through the same handler that answers live requests, into the
//!   byte-identical state, witnessed by the store digest and the semantic
//!   fingerprint;
//! * **model streaming** — subscribed connections receive the refreshed
//!   model (DOT + fingerprint) after every refinement.
//!
//! The [`json`] module is the workspace's shared hand-rolled JSON
//! reader/writer (promoted from the bench crate, whose suite documents it
//! also writes and reads).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod json;
pub mod server;
pub mod session_actor;

pub use client::{trace_batch, Client};
pub use server::Server;
pub use session_actor::{SessionSpec, DEFAULT_QUEUE_CAPACITY, DEFAULT_REQUEST_TIMEOUT_MS};

use json::{obj, Json};
use std::io::Write;

/// Writes `message` as one protocol line: the rendered JSON and its `\n`
/// leave in a single `write_all`. A line split over two writes would wait
/// for the peer's delayed ACK before its second part is sent (Nagle's
/// algorithm), about 44 ms per request on Linux loopback.
pub fn write_line(out: &mut impl Write, message: &Json) -> std::io::Result<()> {
    let mut line = message.render();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// The protocol's error reply. A retriable error (a full queue, an expired
/// deadline, the connection cap) may succeed if the client sends the same
/// request again later.
fn error_response(message: impl Into<String>, retriable: bool) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(message.into())),
        ("retriable", Json::Bool(retriable)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_line_is_one_write() {
        let mut out = CountingWriter::default();
        let lines = [
            obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
            error_response("request lacks an `op` field", false),
            obj([
                ("event", Json::from("refinement")),
                ("dot", Json::from("a\nb")),
            ]),
        ];
        for (written, line) in lines.iter().enumerate() {
            write_line(&mut out, line).unwrap();
            assert_eq!(out.writes, written + 1, "{}", line.render());
        }
        let text = String::from_utf8(out.bytes).unwrap();
        let rendered: Vec<String> = lines.iter().map(Json::render).collect();
        assert_eq!(text, rendered.join("\n") + "\n");
    }
}
