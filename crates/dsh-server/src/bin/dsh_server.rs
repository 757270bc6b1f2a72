//! `dsh-server` — serve a Hamming ([`BitSampling`]) sharded index over
//! TCP.
//!
//! ```text
//! dsh-server [--addr 127.0.0.1:7465] [--dim 64] [--l 8] [--shards 4] [--seed 42]
//! ```
//!
//! The index starts empty; clients populate it over the wire. All
//! parameters that shape the index (dimension, repetitions, shard
//! count, RNG seed) are fixed at startup — a client replaying the same
//! build parameters in-process reproduces the served index bit for bit,
//! which is how `benchmark/` checks answer parity.

use std::process::ExitCode;

use dsh_core::points::BitStore;
use dsh_hamming::BitSampling;
use dsh_index::ShardedIndex;
use dsh_math::rng::seeded;
use dsh_server::server::{serve, ServerConfig};

struct Args {
    addr: String,
    dim: usize,
    l: usize,
    shards: usize,
    seed: u64,
}

fn usage() -> &'static str {
    "usage: dsh-server [--addr HOST:PORT] [--dim D] [--l L] [--shards N] [--seed S]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7465".to_string(),
        dim: 64,
        l: 8,
        shards: 4,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = take("--addr")?,
            "--dim" => args.dim = parse_num(&take("--dim")?, "--dim")?,
            "--l" => args.l = parse_num(&take("--l")?, "--l")?,
            "--shards" => args.shards = parse_num(&take("--shards")?, "--shards")?,
            "--seed" => args.seed = parse_num(&take("--seed")?, "--seed")?,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.dim == 0 || args.l == 0 || args.shards == 0 {
        return Err("--dim, --l, and --shards must be nonzero".to_string());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{name}: could not parse {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = seeded(args.seed);
    let index = ShardedIndex::build(
        &BitSampling::new(args.dim),
        BitStore::with_dim(args.dim),
        args.l,
        args.shards,
        &mut rng,
    );
    let row_elems = args.dim.div_ceil(64);
    let listener = match std::net::TcpListener::bind(&args.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!(
            "dsh-server: serving dim={} l={} shards={} seed={} on {addr}",
            args.dim, args.l, args.shards, args.seed
        ),
        Err(_) => eprintln!("dsh-server: serving on {}", args.addr),
    }
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    match serve(&listener, index, &ServerConfig::new(row_elems), &shutdown) {
        Ok(_index) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}
