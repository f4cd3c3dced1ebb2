//! # amle-serve
//!
//! Learning-as-a-service: a resident daemon that keeps active-learning
//! sessions warm across trace deliveries, instead of paying the batch
//! loop's cold start (system build, oracle construction, verdict-cache
//! warm-up) on every invocation.
//!
//! The daemon listens on TCP and speaks newline-delimited JSON (see
//! [`server`] for the protocol and threading model). Each session wraps an
//! [`amle_core::Session`] — the incremental seam over the paper's Fig. 1
//! refinement loop — in an actor thread with a bounded command queue:
//!
//! * **session reuse** — the interned trace store, the warm condition
//!   oracle and the cross-iteration verdict cache persist across requests;
//! * **backpressure** — a full session queue rejects new work with a
//!   retriable error; the accept loop is never blocked by a refinement;
//! * **deadlines** — every request carries a timeout; a slow command
//!   returns a retriable deadline error instead of hanging the connection;
//! * **snapshot/restore** — a session's event log (trace batches and
//!   refinement markers) serializes to a JSON file and replays in a fresh
//!   process into the byte-identical state, witnessed by the store digest
//!   and the semantic fingerprint;
//! * **model streaming** — subscribed connections receive the refreshed
//!   model (DOT + fingerprint) after every refinement.
//!
//! The [`json`] module is the workspace's shared hand-rolled JSON
//! reader/writer (promoted from the bench crate, whose suite documents it
//! also writes and reads).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod server;
pub mod session_actor;

pub use server::Server;
pub use session_actor::{SessionSpec, DEFAULT_QUEUE_CAPACITY, DEFAULT_REQUEST_TIMEOUT_MS};
