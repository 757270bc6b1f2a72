//! End-to-end wire tests: a real server on an ephemeral loopback port,
//! real sockets, and an in-process replica index for answer parity.
//!
//! The replica is built with the same family, seed, and shard count as
//! the served index and driven through the same logical operations, so
//! every wire answer (ids **and** full query stats) must match it bit
//! for bit — the serving layer adds transport, not semantics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dsh_core::points::{BitStore, BitVector};
use dsh_hamming::BitSampling;
use dsh_index::{ShardedIndex, WriteOutcome};
use dsh_math::rng::seeded;
use dsh_server::protocol::{
    encode_bodyless, encode_insert_batch, encode_query, encode_query_batch, put_u32, write_frame,
    Opcode, Status, MAX_BATCH_OPS, MAX_FRAME,
};
use dsh_server::server::{spawn, ServerConfig, ServerHandle};
use dsh_server::Client;

const DIM: usize = 64; // one u64 block per row on the wire

fn build_index(seed: u64, l: usize, shards: usize) -> ShardedIndex<BitStore> {
    ShardedIndex::build(
        &BitSampling::new(DIM),
        BitStore::with_dim(DIM),
        l,
        shards,
        &mut seeded(seed),
    )
}

fn spawn_server(seed: u64, l: usize, shards: usize) -> ServerHandle<BitStore> {
    spawn(
        "127.0.0.1:0",
        build_index(seed, l, shards),
        ServerConfig::new(1),
    )
    .unwrap()
}

fn random_rows(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let v = BitVector::random(&mut rng, DIM);
            v.as_blocks()[0]
        })
        .collect()
}

#[test]
fn wire_answers_match_an_in_process_replica() {
    let server = spawn_server(0xA11CE, 8, 4);
    let mut client = Client::connect(server.addr()).unwrap();

    let info = client.info().unwrap();
    assert_eq!(info.row_elems, 1);
    assert_eq!(info.num_shards, 4);
    assert_eq!(info.repetitions, 8);
    assert_eq!((info.len, info.id_bound, info.epoch), (0, 0, 0));

    let mut replica = build_index(0xA11CE, 8, 4);
    let rows = random_rows(7, 40);

    // Queries answer identically to the replica: ids and all five stats,
    // with and without a retrieval limit, across seal and compact.
    let queries = random_rows(1234, 12);
    let check_parity = |client: &mut Client, replica: &ShardedIndex<BitStore>| {
        for q in queries.chunks(1) {
            for limit in [None, Some(5)] {
                let wire = client.query(q, limit).unwrap();
                let (ids, stats) = replica.candidates(q, limit);
                let want: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
                assert_eq!(wire.ids, want);
                assert_eq!(
                    wire.stats,
                    [
                        stats.tables_probed as u64,
                        stats.candidates_retrieved as u64,
                        stats.distinct_candidates as u64,
                        stats.duplicates as u64,
                        stats.distance_computations as u64,
                    ]
                );
                assert_eq!(wire.epoch, replica.epoch());
            }
        }
    };

    // A second connection queries the same rows before and after each
    // insert batch the first one commits: its connection's one scratch,
    // sized by its earlier queries, must answer the grown index exactly.
    let mut reader = Client::connect(server.addr()).unwrap();
    check_parity(&mut reader, &replica);
    // One wire batch = one group commit = one epoch.
    for (epoch, range) in [(1, 0..24), (2, 24..40)] {
        let (got, ids) = client.insert_batch(1, &rows[range.clone()]).unwrap();
        assert_eq!(got, epoch);
        assert_eq!(ids, range.clone().map(|i| i as u64).collect::<Vec<u64>>());
        // Mirror the wire batch as the same group commit, so the
        // replica's epoch trajectory matches too.
        let mut batch = replica.new_batch();
        for row in rows[range].chunks(1) {
            batch.insert(row);
        }
        replica.apply_batch(&batch).unwrap();
        check_parity(&mut reader, &replica);
    }

    let (epoch, removed) = client.remove_batch(&[3, 3, 17]).unwrap();
    assert_eq!(epoch, 3);
    assert_eq!(removed, vec![true, false, true]);
    let mut batch = replica.new_batch();
    for id in [3, 3, 17] {
        batch.remove(id);
    }
    let outcomes = replica.apply_batch(&batch).unwrap();
    assert_eq!(
        outcomes,
        vec![
            WriteOutcome::Removed(true),
            WriteOutcome::Removed(false),
            WriteOutcome::Removed(true),
        ]
    );

    check_parity(&mut client, &replica);

    assert_eq!(client.seal().unwrap(), 4);
    replica.seal();
    check_parity(&mut client, &replica);

    assert_eq!(client.compact().unwrap(), 5);
    replica.compact();
    check_parity(&mut client, &replica);

    // QueryBatch: one snapshot, same answers as query-at-a-time.
    let batched = client.query_batch(1, &queries, Some(7)).unwrap();
    assert_eq!(batched.len(), 12);
    for (q, wire) in queries.chunks(1).zip(&batched) {
        let (ids, _) = replica.candidates(q, Some(7));
        let want: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
        assert_eq!(wire.ids, want);
        assert_eq!(wire.epoch, replica.epoch());
    }

    // The index handed back at shutdown is the final served state.
    client.shutdown().unwrap();
    let served = server.join().unwrap();
    assert_eq!(served.epoch(), replica.epoch());
    assert_eq!(served.len(), replica.len());
    assert_eq!(served.id_bound(), replica.id_bound());
}

#[test]
fn semantic_rejections_keep_the_connection_and_index_intact() {
    let server = spawn_server(0xBEE, 4, 2);
    let mut client = Client::connect(server.addr()).unwrap();
    let rows = random_rows(2, 4);
    client.insert_batch(1, &rows).unwrap();

    // Unknown id: rejected whole — the valid removes in the same batch
    // must not be applied, and no epoch is published.
    let err = client.remove_batch(&[0, 99]).unwrap_err();
    assert!(err.to_string().contains("status 4"), "{err}");
    // Same connection keeps working; id 0 is still live (no partial
    // application), so removing it now reports true.
    let (epoch, removed) = client.remove_batch(&[0]).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(removed, vec![true]);

    // An id beyond u32 (and usize on any host) is a clean UnknownId too.
    let err = client.remove_batch(&[u64::MAX]).unwrap_err();
    assert!(err.to_string().contains("status 4"), "{err}");

    // Over-the-ceiling batch counts are rejected before decoding rows.
    let mut payload = vec![Opcode::RemoveBatch as u8];
    put_u32(&mut payload, MAX_BATCH_OPS + 1);
    let (status, msg) = client.call_expecting_error(&payload).unwrap();
    assert_eq!(status, Status::BatchTooLarge);
    assert!(msg.contains("ceiling"), "{msg}");

    // Still serving on the same connection after all three rejections.
    let info = client.info().unwrap();
    assert_eq!(info.len, 3);
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn protocol_violations_answer_then_tear_down() {
    let server = spawn_server(0xD0C, 4, 2);

    // Unknown opcode.
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, msg) = client.call_expecting_error(&[0xEE]).unwrap();
    assert_eq!(status, Status::UnknownOpcode);
    assert!(msg.contains("0xee"), "{msg}");
    assert!(client.info().is_err(), "connection must be torn down");

    // Malformed body: an insert batch whose rows are truncated.
    let mut client = Client::connect(server.addr()).unwrap();
    let full = encode_insert_batch(1, &random_rows(5, 3));
    let (status, msg) = client
        .call_expecting_error(&full[..full.len() - 4])
        .unwrap();
    assert_eq!(status, Status::Malformed);
    assert!(msg.contains("truncated"), "{msg}");
    assert!(client.info().is_err());

    // Row shape mismatch (client built for a different dimension).
    let mut client = Client::connect(server.addr()).unwrap();
    let wrong = encode_query(&[1u64, 2u64][..], None);
    let (status, msg) = client.call_expecting_error(&wrong).unwrap();
    assert_eq!(status, Status::Malformed);
    assert!(msg.contains("shape"), "{msg}");

    // Oversized length prefix: rejected from the header alone.
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    match client.read_response().unwrap() {
        dsh_server::Response::Error { status, .. } => {
            assert_eq!(status, Status::FrameTooLarge);
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert!(client.info().is_err());

    // After every teardown the server still accepts fresh connections.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.info().unwrap().epoch, 0);
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn mid_write_disconnects_never_wedge_the_server() {
    let server = spawn_server(0x5EED, 4, 2);

    // Drop a connection halfway through a frame header...
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(&[0x10, 0x00]).unwrap();
    drop(client);
    // ...and halfway through a payload.
    let mut client = Client::connect(server.addr()).unwrap();
    let payload = encode_insert_batch(1, &random_rows(3, 4));
    let frame_len = (payload.len() as u32).to_le_bytes();
    client.send_raw(&frame_len).unwrap();
    client.send_raw(&payload[..5]).unwrap();
    drop(client);

    // The server must still answer — and the aborted insert must not
    // have been applied.
    let mut client = Client::connect(server.addr()).unwrap();
    let info = client.info().unwrap();
    assert_eq!((info.len, info.epoch), (0, 0));
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn no_op_wire_batches_publish_no_epoch() {
    let server = spawn_server(0x11, 4, 2);
    let mut client = Client::connect(server.addr()).unwrap();

    let (epoch, ids) = client.insert_batch::<u64>(1, &[]).unwrap();
    assert_eq!((epoch, ids.len()), (0, 0));
    let rows = random_rows(1, 2);
    client.insert_batch(1, &rows).unwrap();
    client.remove_batch(&[0]).unwrap();
    // A pure double-remove changes nothing: same epoch as before.
    let (epoch, removed) = client.remove_batch(&[0]).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(removed, vec![false]);

    client.shutdown().unwrap();
    let served = server.join().unwrap();
    assert_eq!(served.epoch(), 2);
}

/// The serving-path soak: concurrent wire clients query while a wire
/// writer inserts, removes, seals, and compacts. Every response's
/// `(epoch, ids)` pair is checked afterwards against an in-process
/// replay of the write log truncated at that epoch — the wire answer
/// must equal what the index held at the epoch it claims to have
/// answered at (the `SoakOp` discipline of `tests/shard_concurrency.rs`,
/// extended over TCP).
#[test]
fn concurrent_clients_vs_writer_soak() {
    const L: usize = 6;
    const SHARDS: usize = 3;
    const SEED: u64 = 0x50AC;
    const BATCHES: usize = 30;
    const READERS: usize = 3;

    #[derive(Clone)]
    enum WireOp {
        Insert(Vec<u64>), // flat rows
        Remove(Vec<u64>),
        Seal,
        Compact,
    }

    // Scripted write log. Every batch is effectual (each publishes one
    // epoch) so `epoch == number of applied log entries`.
    let mut rng = seeded(SEED ^ 1);
    let mut log: Vec<WireOp> = Vec::new();
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for i in 0..BATCHES {
        match i % 5 {
            3 if !live.is_empty() => {
                // Removes of known-live ids (always effectual).
                let k = 1 + i % 3;
                let victims: Vec<u64> = (0..k)
                    .map(|_| live.remove(rng.random_range(0..live.len())))
                    .collect();
                log.push(WireOp::Remove(victims));
            }
            4 if i % 2 == 0 => log.push(WireOp::Seal),
            4 => log.push(WireOp::Compact),
            _ => {
                let n = 4 + i % 5;
                let rows = random_rows(SEED ^ (i as u64 + 2), n);
                live.extend(next_id..next_id + n as u64);
                next_id += n as u64;
                log.push(WireOp::Insert(rows));
            }
        }
    }
    // Seal/compact publish an epoch only when something changed; keep
    // the script honest by construction: they always follow inserts.

    let server = spawn_server(SEED, L, SHARDS);
    let addr = server.addr();
    let query_row = random_rows(SEED ^ 0xFFFF, 1);
    let done = AtomicBool::new(false);

    // (epoch, ids) observations from every reader.
    let observations: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let done = &done;
                let query_row = &query_row;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut seen: Vec<(u64, Vec<u64>)> = Vec::new();
                    let mut last_epoch = 0;
                    while !done.load(Ordering::Acquire) {
                        let r = client.query(&query_row[..], None).unwrap();
                        // Snapshots are published in order: epochs seen
                        // by one connection never go backwards.
                        assert!(r.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = r.epoch;
                        seen.push((r.epoch, r.ids));
                    }
                    seen
                })
            })
            .collect();

        let mut writer = Client::connect(addr).unwrap();
        for (i, op) in log.iter().enumerate() {
            let expect = (i + 1) as u64;
            let epoch = match op {
                WireOp::Insert(rows) => writer.insert_batch(1, rows).unwrap().0,
                WireOp::Remove(ids) => writer.remove_batch(ids).unwrap().0,
                WireOp::Seal => writer.seal().unwrap(),
                WireOp::Compact => writer.compact().unwrap(),
            };
            assert_eq!(epoch, expect, "log entry {i} published unexpectedly");
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::Release);
        let mut all = Vec::new();
        for r in readers {
            all.extend(r.join().unwrap());
        }
        writer.shutdown().unwrap();
        all
    });
    server.join().unwrap();

    // Replay: the expected answer at every epoch.
    let mut replica = build_index(SEED, L, SHARDS);
    let mut expected: Vec<Vec<u64>> = Vec::with_capacity(log.len() + 1);
    let ids_at = |idx: &ShardedIndex<BitStore>| -> Vec<u64> {
        idx.candidates(&query_row[..], None)
            .0
            .iter()
            .map(|&i| i as u64)
            .collect()
    };
    expected.push(ids_at(&replica));
    for op in &log {
        match op {
            WireOp::Insert(rows) => {
                let mut batch = replica.new_batch();
                for row in rows.chunks(1) {
                    batch.insert(row);
                }
                let outcomes = replica.apply_batch(&batch).unwrap();
                assert!(outcomes
                    .iter()
                    .all(|o| matches!(o, WriteOutcome::Inserted(_))));
            }
            WireOp::Remove(ids) => {
                let mut batch = replica.new_batch();
                for &id in ids {
                    batch.remove(id as usize);
                }
                replica.apply_batch(&batch).unwrap();
            }
            WireOp::Seal => replica.seal(),
            WireOp::Compact => replica.compact(),
        }
        expected.push(ids_at(&replica));
    }
    assert_eq!(replica.epoch(), log.len() as u64);

    assert!(
        observations.len() >= READERS,
        "soak produced no observations"
    );
    let mut checked_epochs = std::collections::BTreeSet::new();
    for (epoch, ids) in &observations {
        let want = &expected[*epoch as usize];
        assert_eq!(
            ids, want,
            "wire answer at epoch {epoch} diverged from replay"
        );
        checked_epochs.insert(*epoch);
    }
    // The soak must actually have raced reads against writes: answers
    // from more than one epoch, including at least one mid-stream.
    assert!(
        checked_epochs.len() > 1,
        "every observation saw the same epoch; soak raced nothing"
    );
}

#[test]
fn shutdown_request_drains_other_connections() {
    let server = spawn_server(0xF00, 4, 2);
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    a.insert_batch(1, &random_rows(9, 3)).unwrap();
    b.shutdown().unwrap();
    let served = server.join().unwrap();
    assert_eq!(served.len(), 3);
    // The other connection is closed (or errors) rather than hanging.
    let result = a.info();
    assert!(
        result.is_err(),
        "connection a survived shutdown: {result:?}"
    );
    // Shutdown requests encoded but never answered would hang forever;
    // reaching this line is the real assertion.
    let _ = encode_bodyless(Opcode::Shutdown);
}

/// `ServerHandle::stop` must drain connection handlers too: with an idle
/// client still connected, the handler notices the flag on its next
/// read-timeout tick, the scope joins, and the index comes back intact.
#[test]
fn stop_returns_while_an_idle_client_stays_connected() {
    let server = spawn_server(0x570B, 4, 2);
    let mut idle = Client::connect(server.addr()).unwrap();
    idle.insert_batch(1, &random_rows(10, 3)).unwrap();
    // `stop` runs on its own thread so that a wedged drain fails this
    // test instead of hanging the suite.
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.stop()));
    let served = stopped
        .recv_timeout(Duration::from_secs(2))
        .expect("stop() did not return while a client was connected")
        .unwrap();
    assert_eq!(served.len(), 3);
    assert_eq!(served.epoch(), 1);
    let result = idle.info();
    assert!(result.is_err(), "connection survived stop(): {result:?}");
}

/// ... and so must a client that stopped reading: it pipelines
/// `QueryBatch` requests whose responses (about 8 MB each) outgrow the
/// socket buffers and never reads one, so its handler blocks in a write,
/// where it cannot see the shutdown flag. The write's stall timeout must
/// tear that connection down; meanwhile the server keeps serving others.
#[test]
fn stop_returns_while_a_client_that_stopped_reading_stays_connected() {
    let server = spawn_server(0x570C, 1, 2);
    let mut flood = Client::connect(server.addr()).unwrap();
    // 2 000 copies of one row: querying it returns all of them.
    let row = random_rows(11, 1)[0];
    flood.insert_batch(1, &vec![row; 2000]).unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_query_batch(1, &vec![row; 512], None)).unwrap();
    for _ in 0..4 {
        flood.send_raw(&frame).unwrap();
    }
    let info = Client::connect(server.addr()).unwrap().info().unwrap();
    assert_eq!(info.len, 2000);
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.stop()));
    let served = stopped
        .recv_timeout(Duration::from_secs(20))
        .expect("stop() did not return while a client had stopped reading")
        .unwrap();
    assert_eq!(served.len(), 2000);
}
