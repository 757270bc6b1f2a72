//! `dsh-lint` — repo-specific static analysis for the dsh workspace.
//!
//! A pure-`std`, zero-dependency lint pass (no `syn`, no registry crates —
//! the build environment is offline) built from a hand-rolled Rust lexer
//! ([`lexer`]), a brace/function-scope parser ([`scope`]), a
//! whole-workspace symbol resolver ([`resolve`]), and a call graph
//! ([`graph`]). The headline lints are interprocedural: panic-freedom and
//! hot-path allocation-freedom are *reachability* properties proven over
//! the workspace as one program, not per-file token scans.
//!
//! | id | lint | escape hatch |
//! |----|------|--------------|
//! | L1 | no serving entry point reaches a panic site (`unwrap`/`expect`/`panic!`/`assert!`-family) on any call path, workspace-wide | `// lint: allow(panic) — <reason>` at the site |
//! | L2 | nothing reachable from a `// lint: hot` marker allocates; markers on already-hot functions are redundant | `allow(alloc)` at the site, `allow(hot)` on the marker |
//! | C1 | a macro the resolver cannot see through is reachable from a serving entry or hot root ("cannot prove") | `allow(opaque)` |
//! | M1 | malformed `lint:` marker | fix the marker |
//! | M2 | a `lint: allow(...)` that suppresses no finding | remove it |
//!
//! Module sets live in `dsh-lint.toml` at the workspace root (see
//! [`config`]); a configured path that does not exist fails the run
//! loudly. Run with `cargo run -p dsh-lint -- check [--format
//! text|github]`; text output is one finding per line:
//! `<file>:<line>: <lint-id> <message>`. Exit 0 = clean, 1 = findings,
//! 2 = usage/config error.

#![forbid(unsafe_code)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod resolve;
pub mod scope;

pub use config::{Config, ConfigError};

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding. Renders as `<file>:<line>: <lint> <message>`; an
/// interprocedural finding's message carries its call chain.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, lint: &'static str, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            lint,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Workspace-size counters for the stats line.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub files: usize,
    pub functions: usize,
    pub edges: usize,
    /// `// lint: allow(..)` escape hatches outside test code.
    pub allows: usize,
    pub findings: usize,
}

/// A full lint run: sorted findings plus workspace stats.
pub struct Report {
    pub findings: Vec<Finding>,
    pub stats: Stats,
}

/// Lint a set of in-memory `(rel_path, source)` files as one workspace.
pub fn check_sources(sources: &[(String, String)], cfg: &Config) -> Report {
    let ws = resolve::Workspace::build(sources);
    let (mut findings, edges) = lints::run(&ws, cfg);
    findings.sort();
    findings.dedup();
    let stats = Stats {
        files: ws.files.len(),
        functions: ws.fns.len(),
        edges,
        allows: ws.files.iter().map(|f| f.live_allows().count()).sum(),
        findings: findings.len(),
    };
    Report { findings, stats }
}

/// Lint one file's source text in isolation. `rel_path` selects which
/// lints apply (serving-path membership, crate-root checks) — pass
/// repo-relative paths with forward slashes.
pub fn check_file_source(rel_path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    check_sources(&[(rel_path.to_string(), source.to_string())], cfg).findings
}

/// Load `dsh-lint.toml` from `root` (falling back to [`Config::empty`]
/// when absent) and fail loudly — `InvalidData` — on parse errors or
/// configured module paths that do not exist under `root`.
pub fn load_config(root: &Path) -> io::Result<Config> {
    let path = root.join("dsh-lint.toml");
    if !path.is_file() {
        return Ok(Config::empty());
    }
    let text = fs::read_to_string(&path)?;
    let cfg = Config::from_toml(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    cfg.validate_paths(root)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(cfg)
}

/// Walk a workspace root and lint every `.rs` file under `src/`,
/// `crates/`, `tests/`, and `examples/`, skipping `target/`, `vendor/`
/// (API-subset shims, out of scope), and lint fixture corpora. Findings
/// come back sorted by (file, line).
pub fn check_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut files = BTreeSet::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for path in files {
        let rel = rel_path(root, &path);
        let source = fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    Ok(check_sources(&sources, cfg))
}

fn walk(dir: &Path, out: &mut BTreeSet<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.insert(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_is_machine_readable() {
        let f = Finding::new("crates/x/src/lib.rs", 12, "L1", "boom".to_string());
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:12: L1 boom");
    }

    #[test]
    fn rel_path_uses_forward_slashes() {
        let root = Path::new("/a/b");
        let p = Path::new("/a/b/crates/x/src/lib.rs");
        assert_eq!(rel_path(root, p), "crates/x/src/lib.rs");
    }
}
