//! Fixture-driven self-tests: each known-bad fixture must produce exactly
//! the expected findings (lint id + line), each known-good fixture none.
//! Single-file fixtures are lexed/linted as text and never compile; the
//! `ws_*` directories are miniature multi-crate workspaces (each with its
//! own `dsh-lint.toml`) that exercise the interprocedural layer through
//! the same `load_config` + `check_workspace` path the CLI uses. The real
//! workspace walk skips `fixtures/` directories.

use dsh_lint::{check_file_source, Config, Finding, Report};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Aim the lints at a fixture by giving it a serving-path file name; the
/// config is the real repo default, so fixtures exercise exactly the
/// production configuration.
fn lint(name: &str, as_path: &str) -> Vec<Finding> {
    check_file_source(as_path, &fixture(name), &Config::repo_default())
}

/// Lint a `ws_*` mini-workspace rooted at its fixture directory, loading
/// its own `dsh-lint.toml` exactly as the CLI would.
fn lint_ws(name: &str) -> Report {
    let root = PathBuf::from(format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR")));
    let cfg = dsh_lint::load_config(&root)
        .unwrap_or_else(|e| panic!("loading {name}/dsh-lint.toml: {e}"));
    dsh_lint::check_workspace(&root, &cfg).unwrap_or_else(|e| panic!("walking {name}: {e}"))
}

const SERVING: &str = "crates/dsh-index/src/table.rs";

fn ids_and_lines(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.lint, f.line)).collect()
}

/// The call chain an interprocedural finding prints (`(path: a → b)`,
/// `(hot via a → b)`), one label per hop.
fn chain(f: &Finding) -> Vec<&str> {
    let m = &f.message;
    let at = m
        .find("path: ")
        .map(|i| i + "path: ".len())
        .or_else(|| m.find("via ").map(|i| i + "via ".len()))
        .unwrap_or_else(|| panic!("no chain in {m:?}"));
    m[at..]
        .split(')')
        .next()
        .unwrap_or_default()
        .split(" → ")
        .collect()
}

#[test]
fn l1_bad_flags_every_panic_shape() {
    let f = lint("l1_bad.rs", SERVING);
    assert_eq!(
        ids_and_lines(&f),
        vec![("L1", 7), ("L1", 8), ("L1", 10), ("L1", 12), ("L1", 14)],
        "{f:#?}"
    );
}

#[test]
fn l1_good_is_clean() {
    let f = lint("l1_good.rs", SERVING);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn l2_bad_flags_every_allocation_shape() {
    let f = lint("l2_bad.rs", SERVING);
    let expected: Vec<(&str, u32)> = (7..=14)
        .map(|l| ("L2", l))
        .chain([("L2", 18)]) // dangling marker
        .collect();
    assert_eq!(ids_and_lines(&f), expected, "{f:#?}");
}

#[test]
fn l2_good_is_clean() {
    let f = lint("l2_good.rs", SERVING);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn l2_markers_work_outside_serving_modules() {
    // Hot kernels are checked wherever the marker appears (dsh-core's
    // distance kernels are not serving-path files).
    let f = lint("l2_bad.rs", "crates/dsh-core/src/points.rs");
    assert!(f.iter().all(|x| x.lint == "L2"), "{f:#?}");
    assert_eq!(f.len(), 9, "{f:#?}");
}

#[test]
fn tricky_tokens_produce_no_findings() {
    let f = lint("tricky_tokens.rs", SERVING);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn findings_render_machine_readable_lines() {
    let f = lint("l1_bad.rs", SERVING);
    let first = f.first().expect("l1_bad has findings").to_string();
    assert!(
        first.starts_with("crates/dsh-index/src/table.rs:7: L1 "),
        "{first}"
    );
}

// -- interprocedural mini-workspace fixtures ------------------------------

#[test]
fn ws_panic_reach_reports_the_cross_crate_chain() {
    let r = lint_ws("ws_panic_reach");
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.lint, "L1");
    assert_eq!(f.file, "crates/back/src/back.rs", "{f:#?}");
    assert_eq!(
        chain(f),
        vec!["front.rs:query", "back.rs:decode", "back.rs:inner"],
        "{f:#?}"
    );
}

#[test]
fn ws_transitive_alloc_flags_two_hops_below_the_marker() {
    let r = lint_ws("ws_transitive_alloc");
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.lint, "L2");
    assert_eq!(
        chain(f),
        vec!["kern.rs:kernel", "kern.rs:mid", "kern.rs:leaf"],
        "{f:#?}"
    );
}

#[test]
fn ws_recursion_terminates_and_chains_through_the_cycle() {
    let r = lint_ws("ws_recursion");
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.lint, "L1");
    let path = chain(f);
    assert_eq!(path.first(), Some(&"cy.rs:serve"), "{f:#?}");
    assert_eq!(path.last(), Some(&"cy.rs:boom"), "{f:#?}");
    // The chain is an acyclic path, not an unrolled cycle.
    let mut sorted = path.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), path.len(), "chain repeats a node: {f:#?}");
}

#[test]
fn ws_trait_fallback_fans_out_to_the_panicking_impl() {
    let r = lint_ws("ws_trait_fallback");
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.lint, "L1");
    let path = chain(f);
    assert_eq!(path.first(), Some(&"m.rs:serve"), "{f:#?}");
    assert_eq!(path.last(), Some(&"m.rs:eval"), "{f:#?}");
}

#[test]
fn ws_shadowed_method_does_not_pull_in_the_free_fn() {
    let r = lint_ws("ws_shadowed");
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}
