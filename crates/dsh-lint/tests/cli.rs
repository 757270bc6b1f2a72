//! End-to-end exit-code contract of the `dsh-lint` binary — the thing CI
//! actually gates on: 0 = clean, 1 = findings (one `file:line: LINT
//! message` per stdout line), 2 = usage/config error. The fixture tests
//! pin each lint's behaviour at the library level; this pins the CLI
//! wrapper, the output formats, and the wall-clock budget on the real
//! workspace.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

/// A throwaway workspace root under the target temp dir, deleted on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str, lib_rs: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dsh-lint-cli-{}-{tag}", std::process::id()));
        let src = dir.join("src");
        fs::create_dir_all(&src).expect("creating temp workspace");
        fs::write(src.join("lib.rs"), lib_rs).expect("writing temp lib.rs");
        TempRoot(dir)
    }

    fn with_config(tag: &str, lib_rs: &str, toml: &str) -> Self {
        let root = Self::new(tag, lib_rs);
        fs::write(root.0.join("dsh-lint.toml"), toml).expect("writing temp dsh-lint.toml");
        root
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsh-lint"))
        .args(args)
        .output()
        .expect("running dsh-lint binary")
}

#[test]
fn clean_workspace_exits_zero_with_stats() {
    let root = TempRoot::new(
        "clean",
        "#![forbid(unsafe_code)]\n\npub fn id(x: u64) -> u64 {\n    x\n}\n",
    );
    let out = run(&["check", "--root", root.0.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("dsh-lint: clean\n"),
        "stdout: {stdout:?}"
    );
    assert!(
        stdout.contains("0 finding(s) · 1 files · 1 functions · 0 call edges"),
        "stdout: {stdout:?}"
    );
}

#[test]
fn violating_workspace_exits_one_with_machine_readable_line() {
    // A `lint:` comment that is neither `hot` nor an `allow` — an M1 finding.
    let root = TempRoot::new(
        "bad",
        "// lint: warm\npub fn id(x: u64) -> u64 {\n    x\n}\n",
    );
    let out = run(&["check", "--root", root.0.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("src/lib.rs:1: M1 malformed `lint:` marker"),
        "stdout: {stdout:?}"
    );
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[] as &[&str],
        &["frobnicate"],
        &["check", "--root"],
        &["check", "--frobnicate"],
        &["check", "--format", "yaml"],
        &["check", "--format", "json"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

#[test]
fn config_naming_a_ghost_module_exits_two_loudly() {
    // A dsh-lint.toml pointing at a module that does not exist must fail
    // the run (exit 2, message on stderr naming the ghost) — silently
    // linting nothing would let a rename evaporate coverage.
    let root = TempRoot::with_config(
        "ghost",
        "#![forbid(unsafe_code)]\npub fn id(x: u64) -> u64 {\n    x\n}\n",
        "[serving]\nroots = [\"src/ghost.rs\"]\n",
    );
    let out = run(&["check", "--root", root.0.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stdout: {:?}", out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("src/ghost.rs"), "stderr: {stderr:?}");
}

#[test]
fn malformed_config_exits_two() {
    let root = TempRoot::with_config(
        "badtoml",
        "#![forbid(unsafe_code)]\n",
        "[serving]\nrutes = [\"src/lib.rs\"]\n",
    );
    let out = run(&["check", "--root", root.0.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rutes"), "stderr: {stderr:?}");
}

#[test]
fn text_format_prints_the_call_chain() {
    // A panic reachable from a serving entry point: the finding lands on
    // the panic site and its message names the path that reaches it.
    let root = TempRoot::with_config(
        "chain",
        "#![forbid(unsafe_code)]\n\
         pub fn serve(x: Option<u64>) -> u64 {\n    helper(x)\n}\n\
         fn helper(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n",
        "[serving]\nroots = [\"src/lib.rs\"]\n",
    );
    let out = run(&["check", "--root", root.0.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("src/lib.rs:6: L1 "), "stdout: {stdout:?}");
    assert!(
        stdout.contains("path: lib.rs:serve → lib.rs:helper"),
        "stdout: {stdout:?}"
    );
}

#[test]
fn github_format_emits_error_annotations() {
    let root = TempRoot::new(
        "gh",
        "// lint: warm\npub fn id(x: u64) -> u64 {\n    x\n}\n",
    );
    let out = run(&[
        "check",
        "--root",
        root.0.to_str().unwrap(),
        "--format",
        "github",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=src/lib.rs,line=1,title=M1::malformed"),
        "stdout: {stdout:?}"
    );
    assert!(stdout.contains("call edges"), "stdout: {stdout:?}");
}

#[test]
fn real_workspace_is_clean_and_fast() {
    // The acceptance budget: a full whole-workspace interprocedural check
    // must finish well under 5 seconds (it runs on every CI push and as a
    // pre-commit habit). The binary is built by the test harness, so this
    // measures the check itself, not compilation.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let started = Instant::now();
    let out = run(&["check", "--root", root.to_str().unwrap()]);
    let elapsed = started.elapsed();
    assert_eq!(
        out.status.code(),
        Some(0),
        "real workspace has findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "whole-workspace check took {elapsed:?}, budget is 5 s"
    );
}
