//! CLI for the workspace linter:
//! `cargo run -p dsh-lint -- check [--root PATH] [--format text|github]`.
//!
//! Reads `dsh-lint.toml` from the root (empty config when absent; exit 2
//! when it parses badly or names a module that does not exist).
//!
//! Formats:
//! * `text` (default) — one `<file>:<line>: <lint-id> <message>` per
//!   line, then a one-line files/functions/edges/allows stats summary;
//! * `github` — GitHub Actions `::error file=...,line=...,title=<lint-id>::`
//!   annotations, then the stats summary.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage / IO / config error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

enum Format {
    Text,
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let Some(cmd) = iter.next() else {
        return usage("missing subcommand");
    };
    if cmd != "check" {
        return usage(&format!("unknown subcommand `{cmd}`"));
    }
    // Default root: the workspace this binary lives in, so `cargo run -p
    // dsh-lint -- check` works from any directory.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut format = Format::Text;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root requires a path"),
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("github") => format = Format::Github,
                Some(other) => return usage(&format!("unknown format `{other}`")),
                None => return usage("--format requires text|github"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let started = Instant::now();
    let cfg = match dsh_lint::load_config(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("dsh-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match dsh_lint::check_workspace(&root, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dsh-lint: error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    let s = report.stats;
    let stats_line = format!(
        "dsh-lint: {} finding(s) · {} files · {} functions · {} call edges · {} allow(s) · {elapsed_ms} ms",
        s.findings, s.files, s.functions, s.edges, s.allows
    );

    match format {
        Format::Text => {
            if report.findings.is_empty() {
                println!("dsh-lint: clean");
            }
            for f in &report.findings {
                println!("{f}");
            }
            println!("{stats_line}");
        }
        Format::Github => {
            for f in &report.findings {
                println!(
                    "::error file={},line={},title={}::{}",
                    f.file,
                    f.line,
                    f.lint,
                    f.message.replace(['\n', '\r'], " ")
                );
            }
            println!("{stats_line}");
        }
    }

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("dsh-lint: {err}");
    eprintln!("usage: dsh-lint check [--root PATH] [--format text|github]");
    ExitCode::from(2)
}
