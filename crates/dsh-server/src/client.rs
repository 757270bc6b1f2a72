//! A minimal blocking client: one connection, strict request/response.
//!
//! Used by the `benchmark/` harness and the protocol tests. Not part of
//! the serving path — it runs in the caller's process.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{
    decode_response, encode_bodyless, encode_info, encode_insert_batch, encode_query,
    encode_query_batch, encode_remove_batch, read_frame, write_frame, FrameIn, Opcode, Response,
    ServerInfo, Status, WireElem, WireQueryResult,
};

fn bad_reply(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// A reply the caller did not expect, surfaced as an error value (the
/// client never panics on server output).
fn unexpected(resp: Response) -> std::io::Error {
    match resp {
        Response::Error {
            status, message, ..
        } => bad_reply(&format!(
            "server rejected the request (status {}): {message}",
            status as u8
        )),
        other => bad_reply(&format!("unexpected response variant: {other:?}")),
    }
}

/// One blocking connection to a `dsh-server`.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Connect, giving up after `timeout`.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send a raw request payload and decode the response. Public so
    /// tests can send deliberately malformed payloads.
    pub fn call(&mut self, payload: &[u8]) -> std::io::Result<Response> {
        write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    /// Write raw bytes (not necessarily a whole frame) — for tests that
    /// violate the framing on purpose.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read one response frame.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        match read_frame(&mut self.stream, &mut self.buf)? {
            None => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Some(FrameIn::TooLarge(len)) => {
                Err(bad_reply(&format!("server sent a {len}-byte frame")))
            }
            Some(FrameIn::Payload) => {
                decode_response(&self.buf).ok_or_else(|| bad_reply("response did not decode"))
            }
        }
    }

    /// `Info` round trip.
    pub fn info(&mut self) -> std::io::Result<ServerInfo> {
        match self.call(&encode_info())? {
            Response::Info(info) => Ok(info),
            other => Err(unexpected(other)),
        }
    }

    /// `InsertBatch` round trip: flat row-major rows of shape
    /// `row_elems`; returns the epoch and assigned ids.
    pub fn insert_batch<E: WireElem>(
        &mut self,
        row_elems: usize,
        rows: &[E],
    ) -> std::io::Result<(u64, Vec<u64>)> {
        match self.call(&encode_insert_batch(row_elems, rows))? {
            Response::Inserted { epoch, ids } => Ok((epoch, ids)),
            other => Err(unexpected(other)),
        }
    }

    /// `RemoveBatch` round trip; returns the epoch and per-id liveness.
    pub fn remove_batch(&mut self, ids: &[u64]) -> std::io::Result<(u64, Vec<bool>)> {
        match self.call(&encode_remove_batch(ids))? {
            Response::Removed { epoch, removed } => Ok((epoch, removed)),
            other => Err(unexpected(other)),
        }
    }

    /// `Query` round trip.
    pub fn query<E: WireElem>(
        &mut self,
        row: &[E],
        limit: Option<usize>,
    ) -> std::io::Result<WireQueryResult> {
        match self.call(&encode_query(row, limit))? {
            Response::Query(result) => Ok(result),
            other => Err(unexpected(other)),
        }
    }

    /// `QueryBatch` round trip (one snapshot server-side).
    pub fn query_batch<E: WireElem>(
        &mut self,
        row_elems: usize,
        rows: &[E],
        limit: Option<usize>,
    ) -> std::io::Result<Vec<WireQueryResult>> {
        match self.call(&encode_query_batch(row_elems, rows, limit))? {
            Response::QueryBatch(results) => Ok(results),
            other => Err(unexpected(other)),
        }
    }

    /// `Seal` round trip; returns the epoch after sealing.
    pub fn seal(&mut self) -> std::io::Result<u64> {
        self.bodyless(Opcode::Seal)
    }

    /// `Compact` round trip; returns the epoch after compaction.
    pub fn compact(&mut self) -> std::io::Result<u64> {
        self.bodyless(Opcode::Compact)
    }

    /// `Shutdown` round trip; the server stops accepting and drains.
    pub fn shutdown(&mut self) -> std::io::Result<u64> {
        self.bodyless(Opcode::Shutdown)
    }

    fn bodyless(&mut self, op: Opcode) -> std::io::Result<u64> {
        match self.call(&encode_bodyless(op))? {
            Response::Done { op: echoed, epoch } if echoed == op => Ok(epoch),
            other => Err(unexpected(other)),
        }
    }

    /// Send a request expected to be rejected; returns the error status
    /// and message. Errors if the server accepted it.
    pub fn call_expecting_error(&mut self, payload: &[u8]) -> std::io::Result<(Status, String)> {
        match self.call(payload)? {
            Response::Error {
                status, message, ..
            } => Ok((status, message)),
            other => Err(bad_reply(&format!(
                "expected an error response, got: {other:?}"
            ))),
        }
    }
}
