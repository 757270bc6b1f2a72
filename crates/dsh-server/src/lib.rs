//! TCP serving layer for the sharded index.
//!
//! Three pieces:
//!
//! * [`protocol`] — the length-prefixed binary wire format: checked,
//!   panic-free encode/decode for every request and response;
//! * [`server`] — the serving loop: a thread-per-connection accept loop
//!   (no async runtime) over a live [`dsh_index::ShardedIndex`], with
//!   wait-free snapshot queries and group-commit writes;
//! * [`client`] — a minimal blocking client for load generation and
//!   tests.
//!
//! The serving invariants — one snapshot per query request, one epoch
//! per wire write batch, error responses (never panics, never partial
//! application) for every malformed or rejected request — are
//! documented on [`server`] and enforced end-to-end by the wire tests
//! and by `dsh-lint`'s serving-path rule ([`protocol`] and [`server`]
//! are `[serving]` roots).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{Opcode, Request, Response, ServerInfo, Status, WireElem, WireQueryResult};
pub use server::{serve, spawn, ServerConfig, ServerHandle};
