//! The lint passes, v2: interprocedural where it counts.
//!
//! Lint ids:
//!
//! * **L1** — transitive panic-freedom: no serving entry point (public
//!   function of a configured serving root, or a configured
//!   `entry_points` name) may *reach* a panic site (`unwrap`/`expect`,
//!   `panic!`/`assert!`-family) anywhere in the workspace, on any call
//!   path. Findings report the full call chain. Escape:
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
use crate::resolve::{FnId, Workspace};
use crate::scope::Marker;
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
    /// Whether lint `name` is allowed at `line` of `file` (marker on the
    /// same line or the line above); records the consumption for M2.
    fn allowed(&mut self, file: usize, name: &str, line: u32) -> bool {
        let scope = &self.ws.files[file].scope;
        for l in [line, line.saturating_sub(1)] {
            let hit = scope.allows.get(&l).is_some_and(|ms| {
                ms.iter()
                    .any(|m| matches!(m, Marker::Allow { lint, .. } if lint == name))
            });
            if hit {
                self.used.insert((file, l, name.to_string()));
                return true;
            }
        }
        false
    }

    fn push(&mut self, file: usize, line: u32, lint: &'static str, site: String, message: String) {
        self.push_chain(file, line, lint, site, message, Vec::new());
    }

    fn push_chain(
        &mut self,
        file: usize,
        line: u32,
        lint: &'static str,
        site: String,
        message: String,
        chain: Vec<String>,
    ) {
        self.out.push(Finding {
            file: self.ws.files[file].rel.clone(),
            line,
            lint,
            site,
            message,
            chain,
        });
    }

    /// The call chain to `id` as display labels (`shard.rs:query`, ...).
    fn chain_of(&self, reach: &Reach, id: FnId) -> Vec<String> {
        reach
            .chain(id)
            .iter()
            .map(|&f| self.ws.chain_label(f))
            .collect()
    }

    // -- roots -------------------------------------------------------------

    /// Public functions of the serving-root files, plus configured
    /// `entry_points` names.
    fn entry_roots(&mut self, cfg: &Config) -> Vec<FnId> {
        let mut roots = Vec::new();
        let serving_files: Vec<usize> = self
            .ws
            .files
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                cfg.serving_roots
                    .iter()
                    .any(|s| f.rel.ends_with(s.as_str()))
            })
            .map(|(i, _)| i)
            .collect();
        for (id, info) in self.ws.fns.iter().enumerate() {
            if serving_files.contains(&info.file) && info.func.is_pub && info.func.body.is_some() {
                roots.push(id);
            }
        }
        for name in &cfg.entry_points {
            let matched: Vec<FnId> = self
                .ws
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.qual() == *name || f.func.name == *name)
                .map(|(id, _)| id)
                .collect();
            if matched.is_empty() {
                self.out.push(Finding {
                    file: "dsh-lint.toml".to_string(),
                    line: 1,
                    lint: "L1",
                    site: format!("entry:{name}"),
                    message: format!(
                        "configured entry point `{name}` matches no workspace function"
                    ),
                    chain: Vec::new(),
                });
            }
            roots.extend(matched);
        }
        roots
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
                        "dangling-hot".to_string(),
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
                        format!("bodiless-hot:{}", f.name),
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

    fn l1_panic_reach(&mut self, reach: &Reach) {
        for id in 0..self.ws.fns.len() {
            if !reach.visited[id] {
                continue;
            }
            let fi = self.ws.fns[id].file;
            let sites: Vec<(u32, String)> = self.ws.facts[id]
                .panics
                .iter()
                .map(|s| (s.line, s.what.clone()))
                .collect();
            for (line, what) in sites {
                if self.allowed(fi, "panic", line) {
                    continue;
                }
                let chain_v = self.chain_of(reach, id);
                let chain = chain_v.join(" → ");
                self.push_chain(
                    fi,
                    line,
                    "L1",
                    format!("panic:{what}:{chain}"),
                    format!(
                        "{what} reachable from a serving entry (path: {chain}); make it infallible or annotate `// lint: allow(panic) — <reason>`"
                    ),
                    chain_v,
                );
            }
        }
    }

    fn l2_alloc_reach(&mut self, reach: &Reach) {
        for id in 0..self.ws.fns.len() {
            if !reach.visited[id] {
                continue;
            }
            let fi = self.ws.fns[id].file;
            let qual = self.ws.fns[id].qual();
            let sites: Vec<(u32, String)> = self.ws.facts[id]
                .allocs
                .iter()
                .map(|s| (s.line, s.what.clone()))
                .collect();
            for (line, what) in sites {
                if self.allowed(fi, "alloc", line) {
                    continue;
                }
                let chain_v = self.chain_of(reach, id);
                let chain = chain_v.join(" → ");
                self.push_chain(
                    fi,
                    line,
                    "L2",
                    format!("alloc:{what}:{chain}"),
                    format!(
                        "{what} in hot code `{qual}` (hot via {chain}); hoist the allocation to the caller or annotate `// lint: allow(alloc) — <reason>`"
                    ),
                    chain_v,
                );
            }
        }
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
                let chain_v = self.chain_of(&r, h.target);
                let via = chain_v.join(" → ");
                self.push_chain(
                    h.file,
                    h.marker_line,
                    "L2",
                    format!("redundant-hot:{qual}"),
                    format!(
                        "redundant `// lint: hot` marker on `{qual}` — already hot via {via}; remove the marker (or annotate `// lint: allow(hot) — <reason>`)"
                    ),
                    chain_v,
                );
            }
        }
    }

    fn c1_opaque(&mut self, reach: &Reach) {
        for id in 0..self.ws.fns.len() {
            if !reach.visited[id] {
                continue;
            }
            let fi = self.ws.fns[id].file;
            let qual = self.ws.fns[id].qual();
            let sites: Vec<(u32, String)> = self.ws.facts[id]
                .opaques
                .iter()
                .map(|s| (s.line, s.what.clone()))
                .collect();
            for (line, what) in sites {
                if self.allowed(fi, "opaque", line) {
                    continue;
                }
                let chain_v = self.chain_of(reach, id);
                let chain = chain_v.join(" → ");
                self.push_chain(
                    fi,
                    line,
                    "C1",
                    format!("opaque:{what}:{qual}"),
                    format!(
                        "cannot prove panic/alloc-freedom past unknown macro {what} (reachable via {chain}); expand it or annotate `// lint: allow(opaque) — <reason>`"
                    ),
                    chain_v,
                );
            }
        }
    }

    // -- M1 ----------------------------------------------------------------

    fn m1_malformed_markers(&mut self) {
        for fi in 0..self.ws.files.len() {
            for (line, raw) in self.ws.files[fi].scope.malformed_markers.clone() {
                self.push(
                    fi,
                    line,
                    "M1",
                    format!("malformed:{raw}"),
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
        let mut dead: Vec<(usize, u32, String)> = Vec::new();
        for (fi, file) in self.ws.files.iter().enumerate() {
            if file.is_test_path {
                continue;
            }
            for (&line, markers) in &file.scope.allows {
                if file
                    .scope
                    .marker_in_test
                    .get(&line)
                    .copied()
                    .unwrap_or(false)
                {
                    continue;
                }
                for m in markers {
                    if let Marker::Allow { lint, .. } = m {
                        if !self.used.contains(&(fi, line, lint.clone())) {
                            dead.push((fi, line, lint.clone()));
                        }
                    }
                }
            }
        }
        for (fi, line, lint) in dead {
            self.push(
                fi,
                line,
                "M2",
                format!("dead-allow:{lint}"),
                format!(
                    "dead `// lint: allow({lint})` — it suppresses no finding; remove the stale escape hatch"
                ),
            );
        }
    }
}
