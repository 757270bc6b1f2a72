//! The `dsh` benchmark harness; see `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//!   once and ends its output with the one-line JSON result (the form the
//!   gate's driver uses);
//! * without `--workload`, the suite: every workload in its own process,
//!   `benchmark/out/results.json`, and the `--smoke` / `--aa N` modes.

mod json;
mod lib_annulus;
mod lib_range;
mod lib_trace;
mod report;
mod suite;
mod trace;
mod wire;
mod wire_ann;
mod wire_churn;
mod wire_trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// Every timed phase runs at least this many windows of equal op count,
/// however short `--seconds` is; the checkpoint facts (checksum, index
/// shape) are taken when the last of them closes, so they do not depend
/// on how fast the machine is.
pub const MIN_WINDOWS: usize = 5;

/// `peak_rss_mb` is `VmHWM` when this many windows have closed. One, not
/// [`MIN_WINDOWS`]: on the wire workloads the set-up peak repeats to
/// 0.1 % (443.4-443.7 MB over six seeds), while what later cycles add on
/// top depends on whether the two shards' compactions happen to overlap
/// and on what the allocator's per-thread arenas retain (405-533 MB after
/// five windows, same seeds) - timing, not the code under test.
pub const RSS_WINDOWS: usize = 1;

pub const WORKLOADS: &[&str] = &[
    "wire-ann-hamming",
    "wire-churn-hamming",
    "lib-annulus-sphere",
    "lib-range-hamming",
];

/// Settings of one run of one workload.
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase (it ends at the next window boundary).
    pub seconds: f64,
    /// Divides data sizes; 1 except under `--smoke`.
    pub scale: usize,
    /// How many times set-up is run and timed; the median is reported.
    pub setup_reps: usize,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// `0..n` in seeded random order: which id each generated row gets.
pub fn shuffled_ids(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.random_range(0..=i));
    }
    ids
}

/// Driver threads / batch workers: one per available CPU.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run_workload(name: &str, traced: bool, opts: &Opts) -> Result<Report, String> {
    match (name, traced) {
        ("wire-ann-hamming", false) => wire_ann::run(opts),
        ("wire-churn-hamming", false) => wire_churn::run(opts),
        ("lib-annulus-sphere", false) => lib_annulus::run(opts),
        ("lib-range-hamming", false) => lib_range::run(opts),
        ("wire-ann-hamming", true) => wire_trace::run(opts, wire_trace::Workload::Ann),
        ("wire-churn-hamming", true) => wire_trace::run(opts, wire_trace::Workload::Churn),
        ("lib-annulus-sphere", true) => lib_trace::run_annulus(opts),
        ("lib-range-hamming", true) => lib_trace::run_range(opts),
        _ => Err(format!(
            "unknown workload {name}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Parsed command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub aa: Option<usize>,
    pub scale: usize,
    pub setup_reps: usize,
    pub out_dir: PathBuf,
    /// Path of `BENCHMARK.json`.
    pub contract: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        aa: None,
        scale: 1,
        setup_reps: 2,
        out_dir: PathBuf::from("benchmark/out"),
        contract: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => cli.seed = parse(&value("a number")?)?,
            "--seconds" => cli.seconds = parse(&value("a number")?)?,
            "--scale" => cli.scale = parse(&value("a number")?)?,
            "--setup-reps" => cli.setup_reps = parse(&value("a number")?)?,
            "--aa" => cli.aa = Some(parse(&value("a count")?)?),
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--contract" => cli.contract = PathBuf::from(value("a path")?),
            "--smoke" => cli.smoke = true,
            // The driver passes `--trace 0|1`; by hand a bare `--trace`
            // switches the traced pass on.
            "--trace" => {
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds <= 0.0 || cli.scale == 0 || cli.setup_reps == 0 {
        return Err("--seconds, --scale and --setup-reps must be positive".to_string());
    }
    Ok(cli)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dsh-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = &cli.workload else {
        return suite::run(&cli);
    };
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        setup_reps: cli.setup_reps,
        out_dir: cli.out_dir.clone(),
    };
    let schema = if cli.trace { PER_LAYER } else { END_TO_END };
    let rendered = run_workload(workload, cli.trace, &opts)
        .and_then(|report| Ok((report.render(workload, schema)?, report.correct)));
    match rendered {
        Ok((text, correct)) => {
            print!("{text}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        // A harness or I/O failure: no result line.
        Err(e) => {
            eprintln!("dsh-benchmark: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}
