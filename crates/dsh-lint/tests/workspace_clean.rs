//! Meta-test: the workspace itself must be lint-clean. This is the same
//! check CI runs via `cargo run -p dsh-lint -- check`, kept as a test so
//! plain `cargo test` catches a regression (a stray unwrap reachable from
//! the serving path, an allocation under a hot marker) without the extra
//! CI job.

use std::path::Path;

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_findings() {
    let root = repo_root();
    let cfg = dsh_lint::load_config(&root).expect("dsh-lint.toml must load");
    let report = dsh_lint::check_workspace(&root, &cfg).expect("walking the workspace");
    assert!(
        report.findings.is_empty(),
        "workspace is not lint-clean:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_call_graph_is_nontrivial() {
    // The interprocedural layer must actually see the workspace: if the
    // resolver regressed to finding no functions or no edges, every
    // reachability lint would pass vacuously. Pin a coarse lower bound.
    let root = repo_root();
    let cfg = dsh_lint::load_config(&root).expect("dsh-lint.toml must load");
    let report = dsh_lint::check_workspace(&root, &cfg).expect("walking the workspace");
    assert!(
        report.stats.functions > 300,
        "suspiciously few functions: {}",
        report.stats.functions
    );
    assert!(
        report.stats.edges > 1000,
        "suspiciously few call edges: {}",
        report.stats.edges
    );
}

#[test]
fn escape_hatches_only_go_down() {
    // Every `// lint: allow(..)` outside test code is a place the lint
    // takes a reason on trust. The ceiling is the count today, so a new
    // hatch needs a visible bump here; lower it when one goes.
    const MAX_ALLOWS: usize = 9;
    let root = repo_root();
    let cfg = dsh_lint::load_config(&root).expect("dsh-lint.toml must load");
    let report = dsh_lint::check_workspace(&root, &cfg).expect("walking the workspace");
    assert!(
        report.stats.allows <= MAX_ALLOWS,
        "{} `lint: allow` markers, at most {MAX_ALLOWS} allowed",
        report.stats.allows
    );
}

#[test]
fn configured_modules_exist_where_the_config_points() {
    // Guard against silent rot: if a serving-path module is renamed, the
    // lint would silently stop covering it. `load_config` fails loudly on
    // any configured path that no longer exists — so loading the real
    // config IS the rename guard.
    let root = repo_root();
    let cfg = dsh_lint::load_config(&root)
        .expect("dsh-lint.toml names a module that no longer exists; update dsh-lint.toml");
    assert!(
        !cfg.serving_roots.is_empty(),
        "repo config must declare serving roots"
    );
}
