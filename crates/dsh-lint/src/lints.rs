//! The lint passes, v2: interprocedural where it counts.
//!
//! Lint ids:
//!
//! * **L1** — transitive panic-freedom: no serving entry point (public
//!   function of a configured serving root) may *reach* a panic site
//!   (`unwrap`/`expect`, `panic!`/`assert!`-family) anywhere in the
//!   workspace, on any call path. Findings report the full call chain. Escape:
//!   `// lint: allow(panic) — <reason>` at the site.
//! * **L2** — transitive no-alloc hot kernels: `// lint: hot` marks a
//!   root; allocation shapes (`vec!`, `.collect()`, `Vec::new`, ...) in
//!   anything it reaches are findings, with the chain. A marker on a
//!   function already reachable from another marker is itself a finding
//!   (redundant — the property is inherited). Escapes: `allow(alloc)`
//!   at the site, `allow(hot)` on the marker.
//! * **C1** — cannot-prove: an unknown macro invocation reachable from a
//!   serving entry or hot root. Macro bodies are opaque to the resolver,
//!   so the lint refuses to claim panic/alloc-freedom past one. Escape:
//!   `allow(opaque)`.
//! * **M1** — malformed `lint:` marker.
//! * **M2** — dead allow: a `// lint: allow(...)` that suppressed no
//!   finding this run (outside test code) is itself a finding.
//!
//! Unsafe hygiene is the toolchain's job, not a lint's: every crate
//! root carries `#![forbid(unsafe_code)]` (`deny` in `dsh-core`, whose
//! kernel module opts back in), backed by `[workspace.lints.rust]
//! unsafe_code = "deny"`, and CI runs clippy with
//! `-D clippy::undocumented_unsafe_blocks`.
//!
//! `debug_assert!` is deliberately *not* flagged by L1: the debug asserts
//! are the dynamic complement to this static pass and compile out of
//! release serving builds.

use crate::config::Config;
use crate::graph::{Graph, Reach};
use crate::resolve::{Facts, FnId, Site, Workspace};
use crate::Finding;
use std::collections::HashSet;

/// Run every pass over a resolved workspace. Returns the findings plus
/// the call-graph edge count (for the stats line).
pub fn run(ws: &Workspace, cfg: &Config) -> (Vec<Finding>, usize) {
    let graph = Graph::build(ws);
    let mut ctx = Ctx {
        ws,
        out: Vec::new(),
        used: HashSet::new(),
    };

    let entry_roots = ctx.entry_roots(cfg);
    let hot_roots = ctx.hot_roots();
    let entry_reach = graph.reach(&entry_roots);
    let hot_ids: Vec<FnId> = hot_roots.iter().map(|h| h.target).collect();
    let hot_reach = graph.reach(&hot_ids);
    let combined: Vec<FnId> = entry_roots.iter().chain(hot_ids.iter()).copied().collect();
    let combined_reach = graph.reach(&combined);

    ctx.l1_panic_reach(&entry_reach);
    ctx.l2_alloc_reach(&hot_reach);
    ctx.l2_redundant_markers(&graph, &hot_roots);
    ctx.c1_opaque(&combined_reach);
    ctx.m1_malformed_markers();
    ctx.m2_dead_allows();

    let edges = graph.edge_count();
    (ctx.out, edges)
}

/// A bound `// lint: hot` marker.
struct HotRoot {
    file: usize,
    marker_line: u32,
    target: FnId,
}

struct Ctx<'a> {
    ws: &'a Workspace,
    out: Vec<Finding>,
    /// `(file, marker line, lint id)` of every allow that suppressed a
    /// finding — the complement feeds M2.
    used: HashSet<(usize, u32, String)>,
}

impl<'a> Ctx<'a> {
    /// Whether lint `name` is allowed at `line` of `file`; records the
    /// consumed marker for M2.
    fn allowed(&mut self, file: usize, name: &str, line: u32) -> bool {
        let Some(at) = self.ws.files[file].scope.allowed_at(name, line) else {
            return false;
        };
        self.used.insert((file, at, name.to_string()));
        true
    }

    fn push(&mut self, file: usize, line: u32, lint: &'static str, message: String) {
        let rel = &self.ws.files[file].rel;
        self.out.push(Finding::new(rel, line, lint, message));
    }

    // -- roots -------------------------------------------------------------

    /// Public functions of the serving-root files.
    fn entry_roots(&self, cfg: &Config) -> Vec<FnId> {
        let serving = |file: usize| {
            let rel = &self.ws.files[file].rel;
            cfg.serving_roots.iter().any(|s| rel.ends_with(s.as_str()))
        };
        (0..self.ws.fns.len())
            .filter(|&id| {
                let info = &self.ws.fns[id];
                info.func.is_pub && info.func.body.is_some() && serving(info.file)
            })
            .collect()
    }

    /// Bound `// lint: hot` markers; dangling / bodiless markers become
    /// findings here.
    fn hot_roots(&mut self) -> Vec<HotRoot> {
        let mut roots = Vec::new();
        for (fi, file) in self.ws.files.iter().enumerate() {
            if file.is_test_path {
                continue;
            }
            for &(marker_line, bound) in &file.scope.hot_markers {
                let func =
                    bound.and_then(|idx| file.scope.functions.iter().find(|f| f.fn_idx == idx));
                let Some(f) = func else {
                    self.push(
                        fi,
                        marker_line,
                        "L2",
                        "dangling `// lint: hot` marker: no function definition follows"
                            .to_string(),
                    );
                    continue;
                };
                if f.is_test {
                    continue;
                }
                if f.body.is_none() {
                    self.push(
                        fi,
                        marker_line,
                        "L2",
                        format!("`// lint: hot` marker on bodiless declaration `{}`", f.name),
                    );
                    continue;
                }
                if let Some(id) = self.ws.fn_at(fi, f.fn_idx) {
                    roots.push(HotRoot {
                        file: fi,
                        marker_line,
                        target: id,
                    });
                }
            }
        }
        roots
    }

    // -- graph lints -------------------------------------------------------

    /// Report every `sites` entry of every function `reach` visited that
    /// no `allow(<allow>)` covers; `message(what, qual, chain)` words it.
    fn reached_sites(
        &mut self,
        reach: &Reach,
        sites: fn(&Facts) -> &[Site],
        allow: &str,
        lint: &'static str,
        message: impl Fn(&str, &str, &str) -> String,
    ) {
        let ws = self.ws;
        for id in (0..ws.fns.len()).filter(|&id| reach.visited[id]) {
            let fi = ws.fns[id].file;
            for site in sites(&ws.facts[id]) {
                if self.allowed(fi, allow, site.line) {
                    continue;
                }
                let chain = reach.chain_display(ws, id);
                self.push(
                    fi,
                    site.line,
                    lint,
                    message(&site.what, &ws.fns[id].qual(), &chain),
                );
            }
        }
    }

    fn l1_panic_reach(&mut self, reach: &Reach) {
        self.reached_sites(reach, |f| &f.panics, "panic", "L1", |what, _, chain| {
            format!(
                "{what} reachable from a serving entry (path: {chain}); make it infallible or annotate `// lint: allow(panic) — <reason>`"
            )
        });
    }

    fn l2_alloc_reach(&mut self, reach: &Reach) {
        self.reached_sites(reach, |f| &f.allocs, "alloc", "L2", |what, qual, chain| {
            format!(
                "{what} in hot code `{qual}` (hot via {chain}); hoist the allocation to the caller or annotate `// lint: allow(alloc) — <reason>`"
            )
        });
    }

    /// Greedy redundant-marker elimination: a marker whose function is
    /// already reachable from the remaining markers adds nothing — flag
    /// it. Iterated in (file, line) order with the coverage invariant
    /// maintained at every step, so cycles of markers keep exactly the
    /// representatives needed.
    fn l2_redundant_markers(&mut self, graph: &Graph, hot_roots: &[HotRoot]) {
        let mut order: Vec<usize> = (0..hot_roots.len()).collect();
        order.sort_by_key(|&i| (hot_roots[i].file, hot_roots[i].marker_line));
        let mut active: Vec<bool> = vec![true; hot_roots.len()];
        for &i in &order {
            let others: Vec<FnId> = (0..hot_roots.len())
                .filter(|&j| j != i && active[j])
                .map(|j| hot_roots[j].target)
                .collect();
            let r = graph.reach(&others);
            let h = &hot_roots[i];
            if r.visited.get(h.target).copied().unwrap_or(false) {
                active[i] = false;
                if self.allowed(h.file, "hot", h.marker_line) {
                    continue;
                }
                let qual = self.ws.fns[h.target].qual();
                let via = r.chain_display(self.ws, h.target);
                self.push(
                    h.file,
                    h.marker_line,
                    "L2",
                    format!(
                        "redundant `// lint: hot` marker on `{qual}` — already hot via {via}; remove the marker (or annotate `// lint: allow(hot) — <reason>`)"
                    ),
                );
            }
        }
    }

    fn c1_opaque(&mut self, reach: &Reach) {
        self.reached_sites(reach, |f| &f.opaques, "opaque", "C1", |what, _, chain| {
            format!(
                "cannot prove panic/alloc-freedom past unknown macro {what} (reachable via {chain}); expand it or annotate `// lint: allow(opaque) — <reason>`"
            )
        });
    }

    // -- M1 ----------------------------------------------------------------

    fn m1_malformed_markers(&mut self) {
        for fi in 0..self.ws.files.len() {
            for (line, raw) in self.ws.files[fi].scope.malformed_markers.clone() {
                self.push(
                    fi,
                    line,
                    "M1",
                    format!(
                        "malformed `lint:` marker {raw:?}; expected `lint: hot` or `lint: allow(<id>) — <reason>`"
                    ),
                );
            }
        }
    }

    // -- M2 ----------------------------------------------------------------

    /// Dead allows: an escape hatch that suppressed nothing this run.
    /// Runs last; allows inside test regions or test-path files are
    /// exempt (the lints they would suppress never fire there).
    fn m2_dead_allows(&mut self) {
        let ws = self.ws;
        for (fi, file) in ws.files.iter().enumerate() {
            for (line, lint) in file.live_allows() {
                if !self.used.contains(&(fi, line, lint.to_string())) {
                    self.push(
                        fi,
                        line,
                        "M2",
                        format!(
                            "dead `// lint: allow({lint})` — it suppresses no finding; remove the stale escape hatch"
                        ),
                    );
                }
            }
        }
    }
}
