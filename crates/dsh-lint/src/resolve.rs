//! Whole-workspace symbol resolution: from per-file token streams to a
//! symbol table and per-function facts (calls, panic sites, allocation
//! sites, opaque macros) that [`crate::graph`] turns into reachability.
//!
//! ## Resolution model
//!
//! The resolver is heuristic and deliberately *conservative in the
//! direction of more edges* where it matters for the serving-path lints:
//!
//! * `self.method()` resolves through the enclosing impl's self type;
//! * `self.field.method()` resolves through a struct-field type table
//!   built from every `struct` definition in the workspace, with
//!   transparent wrappers (`Arc`/`Rc`/`Box`) stripped — so
//!   `Arc<dyn PointHasher<P>>` dispatches to every workspace
//!   implementation of `PointHasher` (conservative trait fan-out);
//! * `let x: T` / `let x = T::new(..)` / parameter types feed a local
//!   variable-type map, one type per name per function (the last `let`
//!   wins; a `let` that cannot be typed clears the name);
//! * receivers that resolve to std types, primitives, slices, or
//!   literals are cut off (no edge): `.len()`/`.push()` on a `Vec` field
//!   never links to a workspace function that happens to share the name.
//!   A std constructor that returns its own type — `StdType::new(..)`,
//!   `std::…::Type::with_capacity(..)` — types both a `let` bound to it
//!   and a receiver that is such a call, except for `Arc`, `Rc`, `Box`,
//!   `Cow` and `ManuallyDrop`, whose methods reach the inner type;
//! * receivers we cannot type at all fall back to *every* workspace
//!   method of that name (trait/dyn-dispatch fallback);
//! * free calls resolve same-file first (shadowing), then to all free
//!   functions of that name anywhere in the workspace; `Type::assoc()`
//!   paths resolve through the type table, and `Trait::method()` through
//!   the trait table; paths rooted at `std`/`core`/`alloc` are external;
//! * `Type::method` mentioned *without* a call (a function reference
//!   passed to `map`, say) still contributes an edge;
//! * macro bodies are walked like ordinary code, and any macro that is
//!   not on the known-benign list is additionally recorded as an opaque
//!   site — the lints report "cannot prove" (C1) when one is reachable.
//!
//! What it does not do: no type inference across function returns, no
//! generic instantiation, no macro expansion. Those show up either as
//! the conservative name fallback or as C1 findings, never as silence.

use crate::lexer::{Token, TokenKind};
use crate::scope::{FileScope, Function, Marker};
use std::collections::{BTreeSet, HashMap};

/// Index into [`Workspace::fns`].
pub type FnId = usize;

/// Transparent smart-pointer wrappers stripped when typing a receiver.
const WRAPPERS: [&str; 3] = ["Arc", "Rc", "Box"];

/// Std / external container types: a receiver of one of these never
/// links to a workspace function (methods on them are std methods).
const STD_TYPES: [&str; 40] = [
    "Vec",
    "String",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "VecDeque",
    "BinaryHeap",
    "Option",
    "Result",
    "Arc",
    "Rc",
    "Box",
    "RwLock",
    "Mutex",
    "RefCell",
    "Cell",
    "Condvar",
    "AtomicUsize",
    "AtomicU64",
    "AtomicU32",
    "AtomicBool",
    "AtomicPtr",
    "Ordering",
    "Instant",
    "Duration",
    "PathBuf",
    "Path",
    "OsString",
    "Cow",
    "Wrapping",
    "Reverse",
    "Range",
    "PhantomData",
    "ManuallyDrop",
    "MaybeUninit",
    "JoinHandle",
    "Sender",
    "Receiver",
    "RandomState",
];

/// Std types that dereference to their contents: a call returning one
/// is never typed [`Ty::Std`], since methods on it reach the inner type.
const DEREF_TYPES: [&str; 5] = ["Arc", "Rc", "Box", "Cow", "ManuallyDrop"];

/// Constructors that return their own type: `StdType::new(..)` is a
/// std value, and so is `std::…::Type::new(..)`.
const SELF_CTORS: [&str; 3] = ["new", "with_capacity", "default"];

/// Macros that panic: their invocation is a panic site (L1').
pub const PANIC_MACROS: [&str; 7] = [
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Macros that allocate: their invocation is an allocation site (L2').
pub const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Macros known not to hide panics or allocations relevant to the hot
/// path (`debug_assert*` compiles out of release builds by policy).
/// Anything not listed here, in [`PANIC_MACROS`], or in [`ALLOC_MACROS`]
/// is treated as opaque — a C1 "cannot prove" site.
const BENIGN_MACROS: [&str; 16] = [
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
    "write",
    "writeln",
    "println",
    "eprintln",
    "print",
    "eprint",
    "format_args",
    "cfg",
    "concat",
    "env",
    "include_str",
    "stringify",
];

/// Methods that panic (L1' sites); never call edges.
pub const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Methods that allocate (L2' sites); never call edges.
pub const ALLOC_METHODS: [&str; 5] = ["to_vec", "collect", "clone", "to_string", "to_owned"];

/// Path-form constructors that allocate: `Vec::new(`, `Box::new(`, ...
pub const ALLOC_TYPES: [&str; 5] = ["Vec", "Box", "String", "HashMap", "BTreeMap"];
pub const ALLOC_CTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

const KEYWORDS: [&str; 30] = [
    "if", "while", "match", "for", "loop", "return", "let", "in", "as", "move", "ref", "break",
    "continue", "else", "fn", "impl", "use", "pub", "mod", "where", "unsafe", "dyn", "await",
    "const", "static", "type", "enum", "struct", "trait", "box",
];

/// The resolver's notion of a receiver/field/variable type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// A named nominal type (workspace, or external-but-named).
    Concrete(String),
    /// A trait object or `impl Trait` — dispatches to every workspace
    /// implementation of the trait.
    TraitObj(String),
    /// Primitive / slice / tuple / std container: never a workspace
    /// receiver, cuts the edge search off.
    Std,
    /// Untypeable: conservative name fallback applies.
    Unknown,
}

/// One lexed-and-parsed source file plus its non-comment token view.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    pub scope: FileScope,
    /// True for `tests/` / `benches/` / `examples/` sources: exempt from
    /// the serving-path lints and excluded from the symbol table.
    pub is_test_path: bool,
    /// Indexes of non-comment tokens, in order.
    pub view: Vec<usize>,
}

impl SourceFile {
    /// The last path component (`shard.rs`), used in call-chain display.
    pub fn short(&self) -> &str {
        self.rel.rsplit('/').next().unwrap_or(&self.rel)
    }

    /// `(line, lint)` of every `allow` marker outside test code: the
    /// escape hatches M2 audits and the stats line counts.
    pub fn live_allows(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        let scope = &self.scope;
        scope
            .allows
            .iter()
            .filter(move |(l, _)| !self.is_test_path && scope.marker_in_test.get(l) != Some(&true))
            .flat_map(|(&l, ms)| {
                ms.iter().filter_map(move |m| match m {
                    Marker::Allow { lint, .. } => Some((l, lint.as_str())),
                    _ => None,
                })
            })
    }
}

/// One function known to the workspace symbol table.
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The scope-parser view of the function (cloned).
    pub func: Function,
}

impl FnInfo {
    /// `Type::name` when inside an impl, plain `name` otherwise.
    pub fn qual(&self) -> String {
        match &self.func.self_type {
            Some(t) => format!("{t}::{}", self.func.name),
            None => match &self.func.trait_name {
                Some(tr) => format!("{tr}::{}", self.func.name),
                None => self.func.name.clone(),
            },
        }
    }
}

/// A panic / allocation / opaque-macro site inside a function body.
pub struct Site {
    pub line: u32,
    /// Human-readable shape, e.g. "`.unwrap()`" or "`assert_eq!`".
    pub what: String,
}

/// Everything extracted from one function body.
#[derive(Default)]
pub struct Facts {
    /// Resolved workspace callees (sorted, deduplicated).
    pub calls: Vec<FnId>,
    pub panics: Vec<Site>,
    pub allocs: Vec<Site>,
    pub opaques: Vec<Site>,
}

/// The whole workspace: files, functions, symbol tables, and per-function
/// facts. Built once per lint run by [`Workspace::build`].
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnInfo>,
    /// Parallel to [`Workspace::fns`].
    pub facts: Vec<Facts>,
    methods_by_type: HashMap<(String, String), Vec<FnId>>,
    trait_methods: HashMap<(String, String), Vec<FnId>>,
    methods_by_name: HashMap<String, Vec<FnId>>,
    free_by_name: HashMap<String, Vec<FnId>>,
    free_in_file: HashMap<(usize, String), FnId>,
    field_types: HashMap<(String, String), Ty>,
    aliases: HashMap<String, Ty>,
    known_types: BTreeSet<String>,
    known_traits: BTreeSet<String>,
    traits_of_type: HashMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Parse and resolve a set of `(rel_path, source)` files.
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| {
                let scope = FileScope::parse(src);
                let view = scope
                    .tokens
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.kind != TokenKind::Comment)
                    .map(|(i, _)| i)
                    .collect();
                SourceFile {
                    rel: rel.clone(),
                    is_test_path: is_test_path(rel),
                    scope,
                    view,
                }
            })
            .collect();

        let mut ws = Workspace {
            files,
            fns: Vec::new(),
            facts: Vec::new(),
            methods_by_type: HashMap::new(),
            trait_methods: HashMap::new(),
            methods_by_name: HashMap::new(),
            free_by_name: HashMap::new(),
            free_in_file: HashMap::new(),
            field_types: HashMap::new(),
            aliases: HashMap::new(),
            known_types: BTreeSet::new(),
            known_traits: BTreeSet::new(),
            traits_of_type: HashMap::new(),
        };
        ws.scan_types();
        ws.register_fns();
        ws.extract_facts();
        ws
    }

    /// The function whose `fn` keyword sits at raw token index `fn_idx`
    /// of file `file`, if it was registered.
    pub fn fn_at(&self, file: usize, fn_idx: usize) -> Option<FnId> {
        self.fns
            .iter()
            .position(|f| f.file == file && f.func.fn_idx == fn_idx)
    }

    /// `shard.rs:query`-style display name for call chains.
    pub fn chain_label(&self, id: FnId) -> String {
        format!(
            "{}:{}",
            self.files[self.fns[id].file].short(),
            self.fns[id].func.name
        )
    }

    // -- pass 1: nominal types, traits, struct fields, aliases ------------

    fn scan_types(&mut self) {
        let mut field_types = HashMap::new();
        let mut aliases = HashMap::new();
        let mut known_types = BTreeSet::new();
        let mut known_traits = BTreeSet::new();
        for file in &self.files {
            if file.is_test_path {
                continue;
            }
            let v = &file.view;
            let toks = &file.scope.tokens;
            for (k, &i) in v.iter().enumerate() {
                let t = &toks[i];
                if t.kind != TokenKind::Ident || t.raw {
                    continue;
                }
                match t.text.as_str() {
                    "struct" | "enum" | "union" => {
                        if let Some(name) = ident_at(toks, v, k + 1) {
                            known_types.insert(name.to_string());
                            if t.text == "struct" {
                                scan_struct_fields(toks, v, k + 1, &mut field_types);
                            }
                        }
                    }
                    "trait" => {
                        if let Some(name) = ident_at(toks, v, k + 1) {
                            known_traits.insert(name.to_string());
                        }
                    }
                    "type" => {
                        // `type Name<...> = <ty>;` — record the alias target.
                        if let (Some(name), Some(eq)) = (
                            ident_at(toks, v, k + 1),
                            v[k + 1..].iter().position(|&j| toks[j].is_punct('=')),
                        ) {
                            let start = k + 1 + eq + 1;
                            let end = v[start..]
                                .iter()
                                .position(|&j| {
                                    toks[j].kind == TokenKind::Punct && toks[j].text == ";"
                                })
                                .map_or(v.len(), |p| start + p);
                            let ts: Vec<&Token> = v[start..end].iter().map(|&j| &toks[j]).collect();
                            aliases.insert(name.to_string(), parse_ty(&ts));
                        }
                    }
                    _ => {}
                }
            }
        }
        self.field_types = field_types;
        self.aliases = aliases;
        self.known_types = known_types;
        self.known_traits = known_traits;
    }

    // -- pass 2: function registration ------------------------------------

    fn register_fns(&mut self) {
        for fi in 0..self.files.len() {
            if self.files[fi].is_test_path {
                continue;
            }
            let funcs: Vec<Function> = self.files[fi].scope.functions.clone();
            for f in funcs {
                if f.is_test {
                    continue;
                }
                let id = self.fns.len();
                let name = f.name.clone();
                if let Some(st) = &f.self_type {
                    self.known_types.insert(st.clone());
                    self.methods_by_type
                        .entry((st.clone(), name.clone()))
                        .or_default()
                        .push(id);
                    self.methods_by_name
                        .entry(name.clone())
                        .or_default()
                        .push(id);
                    if let Some(tr) = &f.trait_name {
                        self.known_traits.insert(tr.clone());
                        self.trait_methods
                            .entry((tr.clone(), name.clone()))
                            .or_default()
                            .push(id);
                        self.traits_of_type
                            .entry(st.clone())
                            .or_default()
                            .insert(tr.clone());
                    }
                } else if let Some(tr) = &f.trait_name {
                    // A method declared in a `trait` block; only default
                    // bodies are callable targets, but register the name
                    // either way so dyn fallback stays conservative.
                    self.known_traits.insert(tr.clone());
                    if f.body.is_some() {
                        self.trait_methods
                            .entry((tr.clone(), name.clone()))
                            .or_default()
                            .push(id);
                        self.methods_by_name
                            .entry(name.clone())
                            .or_default()
                            .push(id);
                    }
                } else {
                    self.free_in_file.entry((fi, name.clone())).or_insert(id);
                    self.free_by_name.entry(name.clone()).or_default().push(id);
                }
                self.fns.push(FnInfo { file: fi, func: f });
            }
        }
    }

    // -- pass 3: per-function fact extraction ------------------------------

    fn extract_facts(&mut self) {
        let mut all = Vec::with_capacity(self.fns.len());
        for id in 0..self.fns.len() {
            all.push(self.facts_of(id));
        }
        self.facts = all;
    }

    fn facts_of(&self, id: FnId) -> Facts {
        let info = &self.fns[id];
        let file = &self.files[info.file];
        let Some((open, close)) = info.func.body else {
            return Facts::default();
        };
        // Positions (into file.view) of the body's tokens, excluding
        // nested fn items (they get their own facts) and test regions.
        let nested: Vec<(usize, usize)> = file
            .scope
            .functions
            .iter()
            .filter(|g| g.fn_idx > open && g.fn_idx < close)
            .map(|g| (g.fn_idx, g.body.map_or(g.fn_idx, |(_, c)| c)))
            .collect();
        let body: Vec<usize> = (0..file.view.len())
            .filter(|&k| {
                let i = file.view[k];
                i > open
                    && i < close
                    && !file.scope.in_test[i]
                    && !nested.iter().any(|&(a, b)| i >= a && i <= b)
            })
            .collect();

        let vars = self.var_types(info, file, &body);
        let mut facts = Facts::default();
        let mut calls: BTreeSet<FnId> = BTreeSet::new();
        let toks = &file.scope.tokens;
        let t = |k: usize| &toks[file.view[k]];

        for (bp, &k) in body.iter().enumerate() {
            let tok = t(k);
            // Macro invocation: `name!(` / `name![` / `name!{`.
            if tok.kind == TokenKind::Ident
                && !tok.raw
                && body.get(bp + 1).is_some_and(|&n| t(n).is_punct('!'))
                && body.get(bp + 2).is_some_and(|&n| {
                    matches!(
                        t(n).kind,
                        TokenKind::OpenParen | TokenKind::OpenBracket | TokenKind::OpenBrace
                    )
                })
            {
                let name = tok.text.as_str();
                if PANIC_MACROS.contains(&name) {
                    facts.panics.push(Site {
                        line: tok.line,
                        what: format!("`{name}!`"),
                    });
                } else if ALLOC_MACROS.contains(&name) {
                    facts.allocs.push(Site {
                        line: tok.line,
                        what: format!("`{name}!`"),
                    });
                } else if !BENIGN_MACROS.contains(&name) {
                    facts.opaques.push(Site {
                        line: tok.line,
                        what: format!("`{name}!`"),
                    });
                }
                continue;
            }
            // Method call: `.name(`.
            if tok.is_punct('.') {
                let (Some(&m), Some(&p)) = (body.get(bp + 1), body.get(bp + 2)) else {
                    continue;
                };
                if t(m).kind != TokenKind::Ident || t(m).raw || t(p).kind != TokenKind::OpenParen {
                    continue;
                }
                let name = t(m).text.as_str();
                if PANIC_METHODS.contains(&name) {
                    facts.panics.push(Site {
                        line: t(m).line,
                        what: format!("`.{name}()`"),
                    });
                } else if ALLOC_METHODS.contains(&name) {
                    facts.allocs.push(Site {
                        line: t(m).line,
                        what: format!("`.{name}()`"),
                    });
                } else {
                    let recv = self.receiver_ty(info, file, &body, bp, &vars);
                    calls.extend(self.resolve_method(&recv, name));
                }
                continue;
            }
            // Path-qualified mention: `A::B::name` (call or fn reference).
            if tok.kind == TokenKind::Ident && !tok.raw && is_path_sep(toks, &file.view, &body, bp)
            {
                // `name` is the last segment iff the next token is not `::`.
                let next_is_sep = body
                    .get(bp + 2)
                    .is_some_and(|&n2| t(body[bp + 1]).is_punct(':') && t(n2).is_punct(':'));
                if next_is_sep {
                    continue;
                }
                let name = tok.text.as_str();
                let segments = path_segments(toks, &file.view, &body, bp);
                // Path-form allocation ctor: `Vec::new(` etc.
                let called = body
                    .get(bp + 1)
                    .is_some_and(|&n| t(n).kind == TokenKind::OpenParen);
                if called
                    && segments.len() == 1
                    && ALLOC_TYPES.contains(&segments[0].as_str())
                    && ALLOC_CTORS.contains(&name)
                {
                    facts.allocs.push(Site {
                        line: tok.line,
                        what: format!("`{}::{name}()`", segments[0]),
                    });
                    continue;
                }
                calls.extend(self.resolve_path(info, &segments, name));
                continue;
            }
            // Free call: `name(` not preceded by `.` or `::` or `fn`.
            if tok.kind == TokenKind::Ident
                && !tok.raw
                && body
                    .get(bp + 1)
                    .is_some_and(|&n| t(n).kind == TokenKind::OpenParen)
                && !KEYWORDS.contains(&tok.text.as_str())
                && tok
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            {
                let prev_blocks = bp > 0 && {
                    let pv = t(body[bp - 1]);
                    pv.is_punct('.') || pv.is_punct(':') || pv.is_ident("fn")
                };
                if !prev_blocks {
                    calls.extend(self.resolve_free(info.file, &tok.text));
                }
            }
        }

        facts.calls = calls.into_iter().collect();
        facts
    }

    /// Parameter and `let`-binding types for one function body.
    fn var_types(&self, info: &FnInfo, file: &SourceFile, body: &[usize]) -> HashMap<String, Ty> {
        let toks = &file.scope.tokens;
        let t = |k: usize| &toks[file.view[k]];
        let mut vars: HashMap<String, Ty> = HashMap::new();

        // Parameters: `name: Type` segments at paren depth 1.
        if let Some(open_raw) = info.func.args_open {
            if let Some(open) = file.view.iter().position(|&i| i == open_raw) {
                let mut depth = 0i32;
                let mut k = open;
                let mut seg: Vec<usize> = Vec::new();
                let mut segments: Vec<Vec<usize>> = Vec::new();
                loop {
                    let tok = t(k);
                    match tok.kind {
                        TokenKind::OpenParen | TokenKind::OpenBracket | TokenKind::OpenBrace => {
                            depth += 1;
                            if depth > 1 {
                                seg.push(k);
                            }
                        }
                        TokenKind::CloseParen | TokenKind::CloseBracket | TokenKind::CloseBrace => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                            seg.push(k);
                        }
                        TokenKind::Punct if tok.text == "," && depth == 1 => {
                            segments.push(std::mem::take(&mut seg));
                        }
                        _ => {
                            if depth >= 1 && k != open {
                                seg.push(k);
                            }
                        }
                    }
                    k += 1;
                    if k >= file.view.len() {
                        break;
                    }
                }
                if !seg.is_empty() {
                    segments.push(seg);
                }
                for seg in segments {
                    // `mut name : TYPE...` — skip receivers and patterns.
                    let mut s = 0;
                    if seg.first().is_some_and(|&k| t(k).is_ident("mut")) {
                        s = 1;
                    }
                    let Some(&nk) = seg.get(s) else { continue };
                    if t(nk).kind != TokenKind::Ident || t(nk).is_ident("self") {
                        continue;
                    }
                    if !seg.get(s + 1).is_some_and(|&k| t(k).is_punct(':')) {
                        continue;
                    }
                    let ts: Vec<&Token> = seg[s + 2..].iter().map(|&k| t(k)).collect();
                    vars.insert(t(nk).text.clone(), parse_ty(&ts));
                }
            }
        }

        // `let [mut] name [: TY] = ...` bindings.
        for (bp, &k) in body.iter().enumerate() {
            if !t(k).is_ident("let") || t(k).raw {
                continue;
            }
            let mut p = bp + 1;
            if body.get(p).is_some_and(|&k| t(k).is_ident("mut")) {
                p += 1;
            }
            let Some(&nk) = body.get(p) else { continue };
            let Some(&after) = body.get(p + 1) else {
                continue;
            };
            if t(nk).kind != TokenKind::Ident || !(t(after).is_punct(':') || t(after).is_punct('='))
            {
                // A pattern: whatever it binds shadows the names it reuses.
                let pattern = body[p..].iter().take_while(|&&j| !t(j).is_punct('='));
                for &j in pattern.take_while(|&&j| !t(j).is_punct(';')) {
                    vars.remove(&t(j).text);
                }
                continue;
            }
            let name = t(nk).text.clone();
            if t(after).is_punct(':') {
                // Annotated: type runs to `=` or `;` at depth 0.
                let mut ts: Vec<&Token> = Vec::new();
                for &j in &body[p + 2..] {
                    let tok = t(j);
                    if tok.is_punct('=') || (tok.kind == TokenKind::Punct && tok.text == ";") {
                        break;
                    }
                    ts.push(tok);
                }
                vars.insert(name, parse_ty(&ts));
            } else {
                // `= StdType::new(..);` / `= Type::ctor(` / `= Type {` /
                // `= Type(`; anything else clears an earlier binding.
                let init = p + 2;
                let semi = (init..body.len()).find(|&q| t(body[q]).is_punct(';'));
                let std_ctor = semi
                    .is_some_and(|q| q > init && std_ctor_start(file, body, q - 1) == Some(init));
                let vt = body.get(init).map(|&j| t(j));
                let ctorish = vt.is_some_and(|vt| {
                    vt.kind == TokenKind::Ident
                        && vt.text.starts_with(|c: char| c.is_ascii_uppercase())
                        && !STD_TYPES.contains(&vt.text.as_str())
                        && body.get(init + 1).is_some_and(|&j| {
                            let f = t(j);
                            f.is_punct(':')
                                || matches!(f.kind, TokenKind::OpenBrace | TokenKind::OpenParen)
                        })
                });
                match vt {
                    _ if std_ctor => vars.insert(name, Ty::Std),
                    Some(vt) if ctorish => vars.insert(name, Ty::Concrete(vt.text.clone())),
                    _ => vars.remove(&name),
                };
            }
        }
        vars
    }

    /// Type of the receiver chain ending at the `.` at body position `bp`.
    fn receiver_ty(
        &self,
        info: &FnInfo,
        file: &SourceFile,
        body: &[usize],
        bp: usize,
        vars: &HashMap<String, Ty>,
    ) -> Ty {
        let toks = &file.scope.tokens;
        let t = |k: usize| &toks[file.view[k]];
        if bp == 0 {
            return Ty::Unknown;
        }
        let b = t(body[bp - 1]);
        match b.kind {
            TokenKind::Literal => Ty::Std,
            TokenKind::CloseParen if std_ctor_start(file, body, bp - 1).is_some() => Ty::Std,
            TokenKind::Ident if b.is_ident("self") => self_ty(&info.func),
            TokenKind::Ident => {
                let prev_dot = bp >= 2 && t(body[bp - 2]).is_punct('.');
                if prev_dot {
                    // `<base>.field.m(` — type the base, then the field.
                    let base = if bp >= 3 && t(body[bp - 3]).is_ident("self") {
                        self_ty(&info.func)
                    } else if bp >= 3
                        && t(body[bp - 3]).kind == TokenKind::Ident
                        && (bp < 4 || !t(body[bp - 4]).is_punct('.'))
                    {
                        vars.get(&t(body[bp - 3]).text)
                            .cloned()
                            .unwrap_or(Ty::Unknown)
                    } else {
                        Ty::Unknown
                    };
                    if let Ty::Concrete(bt) = &base {
                        let key = (self.canon(bt), b.text.clone());
                        return self.field_types.get(&key).cloned().unwrap_or(Ty::Unknown);
                    }
                    return Ty::Unknown;
                }
                let prev_path =
                    bp >= 3 && t(body[bp - 2]).is_punct(':') && t(body[bp - 3]).is_punct(':');
                if prev_path {
                    return Ty::Unknown; // `path::CONST.m()`
                }
                vars.get(&b.text).cloned().unwrap_or(Ty::Unknown)
            }
            _ => Ty::Unknown,
        }
    }

    /// Canonical type name through `type` aliases.
    fn canon(&self, name: &str) -> String {
        match self.aliases.get(name) {
            Some(Ty::Concrete(target)) if target != name => self.canon(target),
            _ => name.to_string(),
        }
    }

    /// Resolve a method call by receiver type.
    fn resolve_method(&self, recv: &Ty, name: &str) -> Vec<FnId> {
        match recv {
            Ty::Std => Vec::new(),
            Ty::TraitObj(tr) => {
                if let Some(v) = self.trait_methods.get(&(tr.clone(), name.to_string())) {
                    v.clone()
                } else if self.known_traits.contains(tr) {
                    // Workspace trait, but the method belongs to a
                    // supertrait or blanket impl we didn't attribute —
                    // stay conservative.
                    self.fallback(name)
                } else {
                    Vec::new() // std trait (Iterator, Fn, ...)
                }
            }
            Ty::Concrete(raw_name) => {
                let tname = self.canon(raw_name);
                if let Some(alias_ty) = self.aliases.get(raw_name) {
                    if !matches!(alias_ty, Ty::Concrete(_)) {
                        return self.resolve_method(&alias_ty.clone(), name);
                    }
                }
                if let Some(v) = self.methods_by_type.get(&(tname.clone(), name.to_string())) {
                    return v.clone();
                }
                if self.known_types.contains(&tname) {
                    // Known workspace type: maybe a default trait method.
                    let mut out = BTreeSet::new();
                    if let Some(trs) = self.traits_of_type.get(&tname) {
                        for tr in trs {
                            if let Some(v) = self.trait_methods.get(&(tr.clone(), name.to_string()))
                            {
                                out.extend(v.iter().copied());
                            }
                        }
                    }
                    return out.into_iter().collect();
                }
                if STD_TYPES.contains(&tname.as_str()) || is_primitive(&tname) {
                    return Vec::new();
                }
                if is_generic_name(&tname) {
                    return self.fallback(name);
                }
                // A named type the workspace never defines: external.
                Vec::new()
            }
            Ty::Unknown => self.fallback(name),
        }
    }

    /// Conservative dyn-dispatch fallback: every workspace method of
    /// this name.
    fn fallback(&self, name: &str) -> Vec<FnId> {
        self.methods_by_name.get(name).cloned().unwrap_or_default()
    }

    /// Resolve `segments::name` (assoc fn, trait method, module-qualified
    /// free fn).
    fn resolve_path(&self, info: &FnInfo, segments: &[String], name: &str) -> Vec<FnId> {
        let Some(first) = segments.first() else {
            return Vec::new();
        };
        if matches!(first.as_str(), "std" | "core" | "alloc") {
            return Vec::new();
        }
        let q = segments.last().map(String::as_str).unwrap_or_default();
        if q == "Self" {
            return self.resolve_method(&self_ty(&info.func), name);
        }
        let starts_upper = q.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if starts_upper {
            if self.known_traits.contains(q) {
                return self
                    .trait_methods
                    .get(&(q.to_string(), name.to_string()))
                    .cloned()
                    .unwrap_or_default();
            }
            return self.resolve_method(&Ty::Concrete(q.to_string()), name);
        }
        // Module-qualified free function: `crate::points::dot(...)`.
        self.free_by_name.get(name).cloned().unwrap_or_default()
    }

    /// Resolve a bare free-function call: same file shadows the world.
    fn resolve_free(&self, file: usize, name: &str) -> Vec<FnId> {
        if let Some(&id) = self.free_in_file.get(&(file, name.to_string())) {
            return vec![id];
        }
        self.free_by_name.get(name).cloned().unwrap_or_default()
    }
}

/// If body position `close` is the `)` of a call to a std
/// constructor that returns its own type — `StdType::new(..)` or
/// `std::…::Type::with_capacity(..)`, never a [`DEREF_TYPES`] one —
/// the body position where that call's path starts.
fn std_ctor_start(file: &SourceFile, body: &[usize], close: usize) -> Option<usize> {
    let toks = &file.scope.tokens;
    let t = |k: usize| &toks[file.view[k]];
    if t(body[close]).kind != TokenKind::CloseParen {
        return None;
    }
    let mut depth = 0usize;
    let mut open = close;
    loop {
        match t(body[open]).kind {
            TokenKind::CloseParen => depth += 1,
            TokenKind::OpenParen => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            break;
        }
        open = open.checked_sub(1)?;
    }
    let ctor = open.checked_sub(1)?;
    if !SELF_CTORS.contains(&t(body[ctor]).text.as_str()) {
        return None;
    }
    let segments = path_segments(toks, &file.view, body, ctor);
    let (first, ty) = (segments.first()?.as_str(), segments.last()?.as_str());
    let std_path = matches!(first, "std" | "core" | "alloc") && segments.len() > 1;
    let std_type = segments.len() == 1 && STD_TYPES.contains(&ty);
    ((std_path || std_type) && !DEREF_TYPES.contains(&ty)).then(|| ctor - 3 * segments.len())
}

/// The type `self` has inside function `f`.
fn self_ty(f: &Function) -> Ty {
    if let Some(t) = &f.self_type {
        Ty::Concrete(t.clone())
    } else if let Some(tr) = &f.trait_name {
        Ty::TraitObj(tr.clone())
    } else {
        Ty::Unknown
    }
}

/// Whether the token at body position `bp` is part of a `::` path (i.e.
/// the two preceding view tokens are `:` `:`).
fn is_path_sep(toks: &[Token], view: &[usize], body: &[usize], bp: usize) -> bool {
    bp >= 2 && toks[view[body[bp - 1]]].is_punct(':') && toks[view[body[bp - 2]]].is_punct(':')
}

/// Collect the `::`-separated segments before body position `bp`
/// (which holds the final path segment), innermost-last.
fn path_segments(toks: &[Token], view: &[usize], body: &[usize], bp: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut p = bp;
    while p >= 3
        && toks[view[body[p - 1]]].is_punct(':')
        && toks[view[body[p - 2]]].is_punct(':')
        && toks[view[body[p - 3]]].kind == TokenKind::Ident
    {
        segs.push(toks[view[body[p - 3]]].text.clone());
        p -= 3;
    }
    segs.reverse();
    segs
}

fn ident_at<'a>(toks: &'a [Token], view: &[usize], k: usize) -> Option<&'a str> {
    view.get(k)
        .map(|&i| &toks[i])
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Record `field -> Ty` for a `struct Name { ... }` whose name sits at
/// view position `name_k`.
fn scan_struct_fields(
    toks: &[Token],
    view: &[usize],
    name_k: usize,
    out: &mut HashMap<(String, String), Ty>,
) {
    let Some(struct_name) = ident_at(toks, view, name_k) else {
        return;
    };
    // Walk to the body `{` at angle depth 0; `;` or `(` means unit/tuple.
    let mut k = name_k + 1;
    let mut angle = 0i32;
    let open = loop {
        let Some(&i) = view.get(k) else { return };
        let t = &toks[i];
        match t.kind {
            TokenKind::OpenBrace if angle == 0 => break k,
            TokenKind::OpenParen if angle == 0 => return,
            TokenKind::Punct if t.text == ";" && angle == 0 => return,
            TokenKind::Punct if t.text == "<" => angle += 1,
            // `->` in a where-clause fn type must not underflow.
            TokenKind::Punct
                if t.text == ">"
                    && !view
                        .get(k.wrapping_sub(1))
                        .is_some_and(|&j| toks[j].is_punct('-')) =>
            {
                angle -= 1;
            }
            _ => {}
        }
        k += 1;
    };
    // Split top-level comma segments between the braces.
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut seg: Vec<usize> = Vec::new();
    let mut segments: Vec<Vec<usize>> = Vec::new();
    let mut k = open;
    while let Some(&i) = view.get(k) {
        let t = &toks[i];
        match t.kind {
            TokenKind::OpenBrace | TokenKind::OpenParen | TokenKind::OpenBracket => {
                depth += 1;
                if depth > 1 {
                    seg.push(k);
                }
            }
            TokenKind::CloseBrace | TokenKind::CloseParen | TokenKind::CloseBracket => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                seg.push(k);
            }
            TokenKind::Punct if t.text == "<" && depth == 1 => {
                angle += 1;
                seg.push(k);
            }
            TokenKind::Punct if t.text == ">" && depth == 1 => {
                if !view
                    .get(k.wrapping_sub(1))
                    .is_some_and(|&j| toks[j].is_punct('-'))
                {
                    angle -= 1;
                }
                seg.push(k);
            }
            TokenKind::Punct if t.text == "," && depth == 1 && angle == 0 => {
                segments.push(std::mem::take(&mut seg));
            }
            _ => {
                if depth >= 1 {
                    seg.push(k);
                }
            }
        }
        k += 1;
    }
    if !seg.is_empty() {
        segments.push(seg);
    }
    for seg in segments {
        // Strip `#[...]` attributes and `pub` / `pub(...)` qualifiers.
        let mut s = 0;
        while s < seg.len() {
            let t = &toks[view[seg[s]]];
            if t.is_punct('#') {
                // Skip to the matching `]`.
                let mut d = 0i32;
                while s < seg.len() {
                    match toks[view[seg[s]]].kind {
                        TokenKind::OpenBracket => d += 1,
                        TokenKind::CloseBracket => {
                            d -= 1;
                            if d == 0 {
                                s += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    s += 1;
                }
                continue;
            }
            if t.is_ident("pub") {
                s += 1;
                if seg
                    .get(s)
                    .is_some_and(|&k| toks[view[k]].kind == TokenKind::OpenParen)
                {
                    let mut d = 0i32;
                    while s < seg.len() {
                        match toks[view[seg[s]]].kind {
                            TokenKind::OpenParen => d += 1,
                            TokenKind::CloseParen => {
                                d -= 1;
                                if d == 0 {
                                    s += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        s += 1;
                    }
                }
                continue;
            }
            break;
        }
        let Some(&nk) = seg.get(s) else { continue };
        let name_tok = &toks[view[nk]];
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        if !seg.get(s + 1).is_some_and(|&k| toks[view[k]].is_punct(':')) {
            continue;
        }
        let ts: Vec<&Token> = seg[s + 2..].iter().map(|&k| &toks[view[k]]).collect();
        out.insert(
            (struct_name.to_string(), name_tok.text.clone()),
            parse_ty(&ts),
        );
    }
}

/// Parse a type from its code tokens: strip references / lifetimes /
/// `mut` / transparent wrappers, recognize `dyn Trait` / `impl Trait`,
/// classify primitives, slices, tuples, and std containers as [`Ty::Std`].
pub fn parse_ty(ts: &[&Token]) -> Ty {
    let mut i = 0;
    loop {
        let Some(t) = ts.get(i) else {
            return Ty::Unknown;
        };
        if t.is_punct('&')
            || t.is_punct('*')
            || t.kind == TokenKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("const")
        {
            i += 1;
            continue;
        }
        if matches!(t.kind, TokenKind::OpenBracket | TokenKind::OpenParen) {
            return Ty::Std; // slice / array / tuple
        }
        if t.is_ident("dyn") || t.is_ident("impl") {
            return match ts.get(i + 1) {
                Some(n) if n.kind == TokenKind::Ident => Ty::TraitObj(n.text.clone()),
                _ => Ty::Unknown,
            };
        }
        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();
            if WRAPPERS.contains(&name) && ts.get(i + 1).is_some_and(|n| n.is_punct('<')) {
                i += 2; // unwrap `Arc<...>` to the inner type
                continue;
            }
            if is_primitive(name) {
                return Ty::Std;
            }
            if STD_TYPES.contains(&name) {
                return Ty::Std;
            }
            return Ty::Concrete(name.to_string());
        }
        return Ty::Unknown;
    }
}

fn is_primitive(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
            | "str"
    )
}

/// A one-or-two-uppercase-letter name reads as a generic parameter: the
/// conservative name fallback applies instead of the external cutoff.
fn is_generic_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 2
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
}

/// Integration-test / bench / example sources: exempt from serving-path
/// lints and excluded from the symbol table.
pub fn is_test_path(rel: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| (r.to_string(), s.to_string()))
            .collect();
        Workspace::build(&owned)
    }

    fn id_of(w: &Workspace, name: &str) -> FnId {
        w.fns
            .iter()
            .position(|f| f.func.name == name)
            .unwrap_or_else(|| panic!("fn {name} not registered"))
    }

    #[test]
    fn self_method_calls_resolve_within_impl() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n  fn a(&self) { self.b(); }\n  fn b(&self) {}\n}\n",
        )]);
        let (a, b) = (id_of(&w, "a"), id_of(&w, "b"));
        assert_eq!(w.facts[a].calls, vec![b]);
    }

    #[test]
    fn field_type_resolves_cross_type_methods() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Inner;\nimpl Inner { pub fn go(&self) {} }\n\
             struct Outer { inner: Inner }\n\
             impl Outer { fn run(&self) { self.inner.go(); } }\n",
        )]);
        let (run, go) = (id_of(&w, "run"), id_of(&w, "go"));
        assert_eq!(w.facts[run].calls, vec![go]);
    }

    #[test]
    fn arc_dyn_field_dispatches_to_every_trait_impl() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "use std::sync::Arc;\n\
             trait Hasher { fn hash(&self) -> u64; }\n\
             struct A;\nimpl Hasher for A { fn hash(&self) -> u64 { 1 } }\n\
             struct B;\nimpl Hasher for B { fn hash(&self) -> u64 { 2 } }\n\
             struct Table { h: Arc<dyn Hasher> }\n\
             impl Table { fn probe(&self) -> u64 { self.h.hash() } }\n",
        )]);
        let probe = id_of(&w, "probe");
        assert_eq!(w.facts[probe].calls.len(), 2, "both impls are candidates");
    }

    #[test]
    fn std_receivers_are_cut_off() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S { buf: Vec<u32> }\n\
             impl S {\n  fn len(&self) -> usize { 0 }\n  fn touch(&mut self, xs: &[u32]) { self.buf.push(1); let _ = xs.len(); }\n}\n",
        )]);
        let touch = id_of(&w, "touch");
        assert!(
            w.facts[touch].calls.is_empty(),
            "Vec::push / slice len must not link to workspace fns"
        );
    }

    #[test]
    fn std_constructed_receivers_are_cut_off() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S { pub fn push(&self) {} pub fn name(&self) {} }\n\
             fn local() { let mut out = Vec::with_capacity(4); out.push(1); }\n\
             fn chained() { let _ = std::thread::Builder::new().name(n); }\n",
        )]);
        assert!(w.facts[id_of(&w, "local")].calls.is_empty());
        assert!(w.facts[id_of(&w, "chained")].calls.is_empty());
    }

    #[test]
    fn std_typing_stops_where_it_would_cut_a_real_edge() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Foo;\nimpl Foo { pub fn go(&self) {} pub fn push(&self) {} }\n\
             fn deref() { let a = Arc::new(Foo); a.go(); }\n\
             fn shadowed() { let x = Vec::new(); let x = make(); x.push(1); }\n\
             fn free_std_fn(y: u8) { std::mem::take(&mut y).go(); }\n",
        )]);
        let (go, push) = (id_of(&w, "go"), id_of(&w, "push"));
        assert_eq!(w.facts[id_of(&w, "deref")].calls, vec![go]);
        assert_eq!(w.facts[id_of(&w, "shadowed")].calls, vec![push]);
        assert_eq!(w.facts[id_of(&w, "free_std_fn")].calls, vec![go]);
    }

    #[test]
    fn free_call_shadowing_prefers_same_file() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn helper() {}\npub fn go() { helper(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() { panic!(\"other\"); }\n",
            ),
        ]);
        let go = id_of(&w, "go");
        let local = w
            .fns
            .iter()
            .position(|f| f.func.name == "helper" && w.files[f.file].rel.contains("/a/"))
            .unwrap();
        assert_eq!(w.facts[go].calls, vec![local]);
    }

    #[test]
    fn unknown_receiver_falls_back_to_all_methods_of_name() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S { pub fn visit(&self) {} }\n\
             fn drive(xs: Thing) { xs.frob().visit(); }\n",
        )]);
        let drive = id_of(&w, "drive");
        let visit = id_of(&w, "visit");
        assert!(w.facts[drive].calls.contains(&visit));
    }

    #[test]
    fn panic_and_alloc_sites_are_recorded() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn f(x: Option<u32>) -> u32 {\n  let v = vec![1];\n  assert!(v.len() == 1);\n  x.unwrap()\n}\n",
        )]);
        let f = id_of(&w, "f");
        assert_eq!(w.facts[f].panics.len(), 2); // assert! + .unwrap()
        assert_eq!(w.facts[f].allocs.len(), 1); // vec!
        assert!(w.facts[f].opaques.is_empty());
    }

    #[test]
    fn unknown_macros_are_opaque() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn f() { mystery!(1, 2); debug_assert!(true); }\n",
        )]);
        let f = id_of(&w, "f");
        assert_eq!(w.facts[f].opaques.len(), 1);
        assert!(w.facts[f].panics.is_empty());
    }

    #[test]
    fn test_code_contributes_nothing() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { super::live(); panic!(\"x\"); }\n}\n",
        )]);
        assert_eq!(w.fns.len(), 1, "test fn is not registered");
        assert!(w.facts[0].panics.is_empty());
    }

    #[test]
    fn type_alias_canonicalizes_receivers() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Real;\nimpl Real { pub fn go(&self) {} }\ntype Alias = Real;\n\
             fn f(x: Alias) { x.go(); }\n",
        )]);
        let f = id_of(&w, "f");
        let go = id_of(&w, "go");
        assert_eq!(w.facts[f].calls, vec![go]);
    }

    #[test]
    fn fn_reference_paths_contribute_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n  fn prefix_of(x: u64) -> u64 { x }\n  fn all(&self, xs: &[u64]) -> Vec<u64> { xs.iter().map(|&x| Self::prefix_of(x)).collect() }\n}\n",
        )]);
        let all = id_of(&w, "all");
        let pre = id_of(&w, "prefix_of");
        assert!(w.facts[all].calls.contains(&pre));
    }
}
