//! The serving loop: a thread-per-connection TCP server over a live
//! [`ShardedIndex`].
//!
//! # Concurrency model
//!
//! No async runtime — an accept loop on a nonblocking listener hands
//! each connection to a scoped OS thread ([`std::thread::scope`]), so
//! every connection handler borrows the shared state directly and the
//! server cannot outlive (or leak) its index.
//!
//! * **Queries never block on writers.** Each `Query`/`QueryBatch`
//!   request takes one wait-free [`ReaderHandle::snapshot`] and answers
//!   entirely from it; the response carries the snapshot's epoch. A
//!   `QueryBatch` is answered by a single snapshot, so its results are
//!   mutually consistent.
//! * **Writes are group commits.** Each `InsertBatch`/`RemoveBatch`
//!   request is staged into one [`dsh_index::WriteBatch`] and applied under the
//!   writer mutex as one [`ShardedIndex::apply_batch`] call — exactly
//!   one epoch per wire batch, none when the batch changed nothing. A
//!   rejected batch (unknown id, capacity) publishes nothing and leaves
//!   the index bit-identical.
//! * **Nothing on this path panics.** Malformed, truncated, or
//!   oversized frames get an error response and a connection teardown;
//!   semantic rejections get an error response on a connection that
//!   stays usable; a client disconnecting mid-write is a clean handler
//!   exit. The writer mutex recovers from poisoning (the index's
//!   publication protocol guarantees the cell always holds a
//!   fully-formed state). `dsh-lint` proves panic-freedom transitively
//!   from this file's public functions (a `[serving]` root).
//!
//! # Shutdown
//!
//! A `Shutdown` request and [`ServerHandle::stop`] set the same flag —
//! the one the caller hands to [`serve`]. The accept loop polls it
//! between accepts; connection handlers poll it between reads (socket
//! read timeouts double as the poll tick), so the scope drains and
//! [`serve`] returns even while clients stay connected.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use dsh_core::points::{AsRow, PointStore};
use dsh_index::shard::ReaderHandle;
use dsh_index::{BatchError, QueryScratch, ShardedIndex, WriteOutcome};

use crate::protocol::{
    decode_request, encode_done, encode_error, encode_info_response, encode_inserted,
    encode_query_batch_response, encode_query_response, encode_removed, write_frame, Opcode,
    Request, ServerInfo, Status, WireElem, WireQueryResult, MAX_FRAME,
};

/// What [`serve`] needs to know about the index it serves.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Elements per point row; every wire row must match. Must be
    /// nonzero.
    pub row_elems: usize,
}

impl ServerConfig {
    /// The configuration for a `row_elems`-shaped index.
    pub fn new(row_elems: usize) -> Self {
        ServerConfig { row_elems }
    }
}

/// Socket read timeout: the tick at which idle connection handlers
/// re-check the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Sleep between accept polls when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// How long one socket write may make no progress before its connection
/// is torn down. A handler blocked in a write cannot poll the shutdown
/// flag, so without this bound a client that stops reading would pin its
/// handler thread — and with it `ServerHandle::stop` — forever.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(2);

struct Shared<'a, S: PointStore> {
    index: Mutex<ShardedIndex<S>>,
    reader: ReaderHandle<S>,
    row_elems: usize,
    /// The caller's flag: set externally or by a wire `Shutdown`.
    shutdown: &'a AtomicBool,
}

/// Run the serving loop on `listener` until a `Shutdown` request
/// arrives or `shutdown` is set externally. Blocks the calling thread;
/// connection handlers run on scoped threads inside. Returns the index
/// in its final state.
pub fn serve<E, S>(
    listener: &TcpListener,
    index: ShardedIndex<S>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<ShardedIndex<S>>
where
    E: WireElem,
    S: PointStore<Row = [E]>,
    [E]: AsRow<Row = [E]>,
{
    if config.row_elems == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "row_elems must be nonzero",
        ));
    }
    listener.set_nonblocking(true)?;
    let shared = Shared {
        reader: index.reader_handle(),
        index: Mutex::new(index),
        row_elems: config.row_elems,
        shutdown,
    };
    std::thread::scope(|scope| {
        loop {
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = &shared;
                    scope.spawn(move || {
                        // A connection dying (io error, teardown-class
                        // protocol violation) takes down its handler
                        // thread only, never the server.
                        let _ = handle_connection(stream, shared);
                    });
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    // Accept failures (fd pressure, transient network
                    // errors) must not kill the serving loop.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    });
    let index = shared
        .index
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    Ok(index)
}

/// A server running on a background OS thread; see [`spawn`].
pub struct ServerHandle<S: PointStore> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<ShardedIndex<S>>>,
}

impl<S: PointStore> ServerHandle<S> {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown and wait for the serving loop to drain; returns
    /// the index in its final state.
    pub fn stop(self) -> std::io::Result<ShardedIndex<S>> {
        self.shutdown.store(true, Ordering::Release);
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }

    /// Wait for the serving loop to exit on its own (a wire `Shutdown`
    /// request); returns the index in its final state.
    pub fn join(self) -> std::io::Result<ShardedIndex<S>> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and run
/// [`serve`] on a background thread.
pub fn spawn<E, S>(
    addr: &str,
    index: ShardedIndex<S>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle<S>>
where
    E: WireElem,
    S: PointStore<Row = [E]> + 'static,
    [E]: AsRow<Row = [E]>,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("dsh-serve".to_string())
        .spawn(move || serve(&listener, index, &config, &flag))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        thread,
    })
}

enum ConnRead {
    Frame,
    Closed,
    TooLarge(u32),
    Shutdown,
}

/// Read one frame, polling the shutdown flag on every read-timeout
/// tick. A peer close between frames is [`ConnRead::Closed`]; a close
/// mid-frame is an `UnexpectedEof` error (the handler tears down).
fn read_frame_polling(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<ConnRead> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        if shutdown.load(Ordering::Acquire) {
            return Ok(ConnRead::Shutdown);
        }
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(ConnRead::Closed)
                } else {
                    Err(std::io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Ok(ConnRead::TooLarge(len));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Acquire) {
            return Ok(ConnRead::Shutdown);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ConnRead::Frame)
}

fn handle_connection<E, S>(mut stream: TcpStream, shared: &Shared<'_, S>) -> std::io::Result<()>
where
    E: WireElem,
    S: PointStore<Row = [E]>,
    [E]: AsRow<Row = [E]>,
{
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT))?;
    let mut buf = Vec::new();
    // Every query on this connection reuses one scratch, whatever
    // snapshot answers it: each query grows it to its snapshot's id
    // space, so writes in between cannot leave it stale.
    let mut scratch = QueryScratch::default();
    loop {
        match read_frame_polling(&mut stream, &mut buf, shared.shutdown)? {
            ConnRead::Closed | ConnRead::Shutdown => return Ok(()),
            ConnRead::TooLarge(len) => {
                // The prefix itself is untrusted, so the payload was
                // never read — respond, then tear down: the stream
                // position is unrecoverable.
                let msg = format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte ceiling");
                let payload = encode_error(Status::FrameTooLarge, None, &msg);
                write_frame(&mut stream, &payload)?;
                return Ok(());
            }
            ConnRead::Frame => {}
        }
        let (payload, last) = match decode_request::<E>(&buf, shared.row_elems) {
            Ok(request) => handle_request(shared, request, &mut scratch),
            Err(err) => {
                let status = err.status();
                let op = buf.first().copied().and_then(Opcode::from_u8);
                (
                    encode_error(status, op, &err.to_string()),
                    status.tears_down(),
                )
            }
        };
        write_frame(&mut stream, &payload)?;
        if last {
            return Ok(());
        }
    }
}

/// Answer one decoded request, querying with the connection's
/// `scratch`. Returns the response payload and whether the connection
/// must close afterwards.
fn handle_request<E, S>(
    shared: &Shared<'_, S>,
    request: Request<E>,
    scratch: &mut QueryScratch,
) -> (Vec<u8>, bool)
where
    E: WireElem,
    S: PointStore<Row = [E]>,
    [E]: AsRow<Row = [E]>,
{
    match request {
        Request::Info => {
            let snap = shared.reader.snapshot();
            let info = ServerInfo {
                row_elems: shared.row_elems as u32,
                num_shards: snap.num_shards() as u32,
                repetitions: snap.repetitions() as u32,
                len: snap.len() as u64,
                id_bound: snap.id_bound() as u64,
                epoch: snap.epoch(),
            };
            (encode_info_response(&info), false)
        }
        Request::InsertBatch { count: _, rows } => {
            let mut index = lock_writer(shared);
            let mut batch = index.new_batch();
            for row in rows.chunks(shared.row_elems) {
                batch.insert(row);
            }
            match index.apply_batch(&batch) {
                Ok(outcomes) => {
                    let ids: Vec<u64> = outcomes
                        .iter()
                        .filter_map(|o| match o {
                            WriteOutcome::Inserted(id) => Some(*id as u64),
                            WriteOutcome::Removed(_) => None,
                        })
                        .collect();
                    (encode_inserted(index.epoch(), &ids), false)
                }
                Err(err) => (batch_error_response(Opcode::InsertBatch, &err), false),
            }
        }
        Request::RemoveBatch { ids } => {
            let mut index = lock_writer(shared);
            let mut batch = index.new_batch();
            for &id in &ids {
                // An id beyond the host's usize is certainly beyond the
                // id bound; stage the bound itself so validation rejects
                // the batch with `UnknownId` instead of panicking here.
                let id = usize::try_from(id).unwrap_or(index.id_bound());
                batch.remove(id);
            }
            match index.apply_batch(&batch) {
                Ok(outcomes) => {
                    let removed: Vec<bool> = outcomes
                        .iter()
                        .filter_map(|o| match o {
                            WriteOutcome::Removed(r) => Some(*r),
                            WriteOutcome::Inserted(_) => None,
                        })
                        .collect();
                    (encode_removed(index.epoch(), &removed), false)
                }
                Err(err) => (batch_error_response(Opcode::RemoveBatch, &err), false),
            }
        }
        Request::Query { row, limit } => {
            let snap = shared.reader.snapshot();
            let (ids, stats) = snap.candidates_with(&row[..], limit, scratch);
            let result = WireQueryResult {
                epoch: snap.epoch(),
                stats: stats_to_wire(&stats),
                ids: ids.iter().map(|&id| id as u64).collect(),
            };
            (encode_query_response(&result), false)
        }
        Request::QueryBatch {
            count: _,
            rows,
            limit,
        } => {
            // One snapshot answers the whole batch: results are mutually
            // consistent and carry one epoch.
            let snap = shared.reader.snapshot();
            let epoch = snap.epoch();
            let results: Vec<WireQueryResult> = rows
                .chunks(shared.row_elems)
                .map(|row| {
                    let (ids, stats) = snap.candidates_with(row, limit, scratch);
                    WireQueryResult {
                        epoch,
                        stats: stats_to_wire(&stats),
                        ids: ids.iter().map(|&id| id as u64).collect(),
                    }
                })
                .collect();
            (encode_query_batch_response(&results), false)
        }
        Request::Seal => {
            let mut index = lock_writer(shared);
            index.seal();
            (encode_done(Opcode::Seal, index.epoch()), false)
        }
        Request::Compact => {
            let mut index = lock_writer(shared);
            index.compact();
            (encode_done(Opcode::Compact, index.epoch()), false)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            let epoch = shared.reader.snapshot().epoch();
            (encode_done(Opcode::Shutdown, epoch), true)
        }
    }
}

/// Lock the writer mutex, recovering from poisoning: a `ShardedIndex`
/// write that panics unwinds through its uncommitted transaction, which
/// publishes nothing and leaves the index exactly as it was (see
/// `WriteTxn` in `dsh-index/src/shard.rs`; the one store into the
/// publication cell is `ReaderHandle`'s, with its own poisoning policy),
/// so a panicked earlier writer must not wedge the write path forever.
fn lock_writer<'a, S: PointStore>(
    shared: &'a Shared<'_, S>,
) -> std::sync::MutexGuard<'a, ShardedIndex<S>> {
    shared.index.lock().unwrap_or_else(PoisonError::into_inner)
}

fn stats_to_wire(stats: &dsh_index::QueryStats) -> [u64; 5] {
    [
        stats.tables_probed as u64,
        stats.candidates_retrieved as u64,
        stats.distinct_candidates as u64,
        stats.duplicates as u64,
        stats.distance_computations as u64,
    ]
}

fn batch_error_response(op: Opcode, err: &BatchError) -> Vec<u8> {
    let status = match err {
        BatchError::UnknownId { .. } => Status::UnknownId,
        BatchError::CapacityExceeded { .. } => Status::Capacity,
    };
    encode_error(status, Some(op), &err.to_string())
}
