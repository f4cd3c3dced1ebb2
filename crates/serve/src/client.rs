//! The protocol client: one connection to the daemon, one request line out
//! and one reply line in.
//!
//! `serve-client`, the daemon tests and any other Rust caller talk to the
//! daemon through [`Client`], and build `ingest` batches with
//! [`trace_batch`]. Requests are plain [`Json`] objects with an `"op"`
//! field, e.g. `obj([("op", "stats".into()), ("session", "s".into())])`.

use crate::json::{parse_json, Json};
use crate::write_line;
use amle_system::{wire, Trace};
use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to the daemon at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(TcpStream::connect(addr)?),
        })
    }

    /// Sends `request` as one line (see [`write_line`]) and reads the reply.
    pub fn send(&mut self, request: &Json) -> io::Result<Json> {
        write_line(self.reader.get_mut(), request)?;
        self.read_line()
    }

    /// Reads the next line: a reply, or a line the daemon sent unasked (a
    /// subscriber's refinement event, the connection-cap refusal). A closed
    /// connection reads as `UnexpectedEof` and a line that is not JSON as
    /// `InvalidData`.
    pub fn read_line(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            ));
        }
        parse_json(line.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad line {line:?}: {e}"),
            )
        })
    }

    /// The connection's socket, for read timeouts and raw writes.
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }
}

/// Encodes traces as an `ingest` request's `traces` field: one row matrix
/// per trace, one integer column per system variable (see
/// [`amle_system::wire`]).
pub fn trace_batch<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Json {
    traces
        .into_iter()
        .map(|trace| -> Json {
            wire::trace_to_rows(trace)
                .into_iter()
                .map(|row| -> Json { row.into_iter().map(Json::from).collect() })
                .collect()
        })
        .collect()
}
