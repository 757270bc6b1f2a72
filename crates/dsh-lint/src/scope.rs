//! A lightweight brace/function-scope parser over the lexed token stream.
//!
//! Recovers exactly the structure the lint passes need — no expression
//! parsing, no types:
//!
//! * matched brace pairs (robust against braces in strings/chars, which
//!   the lexer already hides inside literal tokens);
//! * function items: name, body token range, `pub`-ness, and the
//!   enclosing `impl` block's self-type name;
//! * test regions: `#[cfg(test)]` modules, modules named `tests`, and
//!   `#[test]` functions — lint findings are never raised inside them;
//! * `// lint:` marker comments, parsed and bound to source lines and to
//!   the function definition that follows them.

use crate::lexer::{Token, TokenKind};
use std::collections::HashMap;

/// One function item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Self-type name of the enclosing inherent `impl` block (`None` for
    /// free functions and for functions inside trait `impl ... for` blocks).
    pub impl_type: Option<String>,
    /// Self-type name of the enclosing `impl` block, inherent *or* trait
    /// (`impl Trait for T` yields `T` here) — the receiver type the call
    /// resolver attributes `self.method()` calls to.
    pub self_type: Option<String>,
    /// Name of the trait when inside `impl Trait for T` or a `trait Name`
    /// declaration block.
    pub trait_name: Option<String>,
    /// True when the enclosing impl is a trait impl (`impl Trait for T`).
    pub is_trait_impl: bool,
    pub is_pub: bool,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token index of the parameter list's `(`, when found.
    pub args_open: Option<usize>,
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
    /// Token indexes of the body's `{` and matching `}` (None for
    /// bodiless trait-method declarations).
    pub body: Option<(usize, usize)>,
    /// True when the function is test code (`#[test]`, or inside a
    /// `#[cfg(test)]` / `mod tests` region).
    pub is_test: bool,
}

/// A parsed `// lint: ...` marker comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    /// `// lint: hot` — the next function is a no-alloc hot kernel.
    Hot,
    /// `// lint: allow(<lint>) — <reason>`.
    Allow { lint: String, reason: String },
    /// A comment that says `lint:` but parses as neither of the above.
    Malformed { raw: String },
}

/// The structure of one source file.
pub struct FileScope {
    pub tokens: Vec<Token>,
    pub functions: Vec<Function>,
    /// Per-token: true when the token sits inside a test region.
    pub in_test: Vec<bool>,
    /// OpenBrace token index -> matching CloseBrace token index.
    pub brace_match: HashMap<usize, usize>,
    /// Source line -> allow markers active on that line.
    pub allows: HashMap<u32, Vec<Marker>>,
    /// `(comment line, bound fn token index or None)` for each hot marker.
    pub hot_markers: Vec<(u32, Option<usize>)>,
    /// Malformed `lint:` comments: `(line, raw text)`.
    pub malformed_markers: Vec<(u32, String)>,
    /// Marker-comment line -> true when that comment sits inside a test
    /// region (test-local markers are exempt from the dead-allow lint).
    pub marker_in_test: HashMap<u32, bool>,
}

impl FileScope {
    /// Lex and parse one file.
    pub fn parse(src: &str) -> Self {
        let tokens = crate::lexer::lex(src);
        let brace_match = match_braces(&tokens);
        let functions = collect_functions(&tokens, &brace_match);
        let in_test = mark_test_regions(&tokens, &functions, &brace_match);
        let functions = functions
            .into_iter()
            .map(|mut f| {
                f.is_test = f.is_test || in_test[f.fn_idx];
                f
            })
            .collect();
        let (allows, hot_markers, malformed_markers, marker_in_test) =
            collect_markers(&tokens, &in_test);
        FileScope {
            tokens,
            functions,
            in_test,
            brace_match,
            allows,
            hot_markers,
            malformed_markers,
            marker_in_test,
        }
    }

    /// The line of the `allow(<name>)` marker covering `line` (on the
    /// same line or the line directly above), if any.
    pub fn allowed_at(&self, name: &str, line: u32) -> Option<u32> {
        [line, line.saturating_sub(1)].into_iter().find(|l| {
            self.allows.get(l).is_some_and(|ms| {
                ms.iter()
                    .any(|m| matches!(m, Marker::Allow { lint, .. } if lint == name))
            })
        })
    }
}

/// Match `{` / `}` pairs across the whole stream. Tolerates unbalanced
/// input: stray closers are ignored, unclosed openers match the final
/// token index.
fn match_braces(tokens: &[Token]) -> HashMap<usize, usize> {
    let mut stack = Vec::new();
    let mut map = HashMap::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::OpenBrace => stack.push(i),
            TokenKind::CloseBrace => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                }
            }
            _ => {}
        }
    }
    let end = tokens.len().saturating_sub(1);
    for open in stack {
        map.insert(open, end);
    }
    map
}

fn next_code(tokens: &[Token], mut i: usize) -> Option<usize> {
    while i < tokens.len() {
        if tokens[i].kind != TokenKind::Comment {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn prev_code(tokens: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| tokens[j].kind != TokenKind::Comment)
}

/// Flattened text of the `#[...]` attributes directly above item token
/// `idx` (doc comments and qualifiers like `pub` are skipped over).
fn item_attrs(tokens: &[Token], idx: usize) -> Vec<String> {
    let mut attrs = Vec::new();
    let mut i = idx;
    while let Some(j) = prev_code(tokens, i) {
        let t = &tokens[j];
        let qualifier = t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "pub"
                    | "const"
                    | "unsafe"
                    | "async"
                    | "extern"
                    | "crate"
                    | "in"
                    | "super"
                    | "self"
                    | "default"
            );
        if qualifier || (t.kind == TokenKind::Literal && t.text.starts_with('"')) {
            i = j;
            continue;
        }
        if t.kind == TokenKind::CloseParen {
            // pub(crate): hop over the paren group.
            let mut depth = 1;
            let mut k = j;
            while depth > 0 {
                let Some(p) = prev_code(tokens, k) else { break };
                match tokens[p].kind {
                    TokenKind::CloseParen => depth += 1,
                    TokenKind::OpenParen => depth -= 1,
                    _ => {}
                }
                k = p;
            }
            i = k;
            continue;
        }
        if t.kind == TokenKind::CloseBracket {
            // An attribute: hop back to the matching `[`, flatten.
            let mut depth = 1;
            let mut k = j;
            let mut body = Vec::new();
            while depth > 0 {
                let Some(p) = prev_code(tokens, k) else { break };
                match tokens[p].kind {
                    TokenKind::CloseBracket => depth += 1,
                    TokenKind::OpenBracket => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    body.push(tokens[p].text.clone());
                }
                k = p;
            }
            // Inner attributes (`#![...]`) have a `!` before the `[`;
            // either way the token before is `#` (possibly via `!`).
            let mut h = prev_code(tokens, k);
            if h.is_some_and(|p| tokens[p].is_punct('!')) {
                h = prev_code(tokens, h.unwrap_or(0));
            }
            if h.is_some_and(|p| tokens[p].is_punct('#')) {
                body.reverse();
                attrs.push(body.concat());
                i = h.unwrap_or(0);
                continue;
            }
            break;
        }
        break;
    }
    attrs
}

/// Whether item token `idx` carries a `pub` qualifier.
fn item_is_pub(tokens: &[Token], idx: usize) -> bool {
    let mut i = idx;
    loop {
        let Some(j) = prev_code(tokens, i) else {
            return false;
        };
        let t = &tokens[j];
        if t.is_ident("pub") {
            return true;
        }
        if t.kind == TokenKind::CloseParen {
            // pub(crate) / pub(in path): hop over the paren group.
            let mut depth = 1;
            let mut k = j;
            while depth > 0 {
                let Some(p) = prev_code(tokens, k) else {
                    return false;
                };
                match tokens[p].kind {
                    TokenKind::CloseParen => depth += 1,
                    TokenKind::OpenParen => depth -= 1,
                    _ => {}
                }
                k = p;
            }
            i = k;
            continue;
        }
        let skippable = (t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern"))
            || (t.kind == TokenKind::Literal && t.text.starts_with('"'));
        if !skippable {
            return false;
        }
        i = j;
    }
}

/// One enclosing impl or trait block, for attributing functions to types.
struct ImplCtx {
    /// The self type: `T` for both `impl T` and `impl Trait for T`
    /// (`None` for `trait Name` declaration blocks).
    type_name: Option<String>,
    /// The trait: `Trait` for `impl Trait for T` and for `trait Trait`
    /// declaration blocks.
    trait_name: Option<String>,
    is_trait_impl: bool,
    close: usize,
}

fn collect_functions(tokens: &[Token], brace_match: &HashMap<usize, usize>) -> Vec<Function> {
    let mut fns = Vec::new();
    let mut impls: Vec<ImplCtx> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        impls.retain(|ctx| i <= ctx.close);
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || t.raw {
            i += 1;
            continue;
        }
        if t.text == "impl" {
            if let Some((ctx, body_open)) = parse_impl_header(tokens, i, brace_match) {
                impls.push(ctx);
                i = body_open + 1;
                continue;
            }
        }
        if t.text == "trait" {
            if let Some((ctx, body_open)) = parse_trait_header(tokens, i, brace_match) {
                impls.push(ctx);
                i = body_open + 1;
                continue;
            }
        }
        if t.text == "fn" {
            // `fn` directly followed by `(` is a fn-pointer type, not an item.
            let Some(name_idx) = next_code(tokens, i + 1) else {
                break;
            };
            if tokens[name_idx].kind == TokenKind::Ident {
                let (body, args_open) = find_fn_body(tokens, name_idx + 1, brace_match);
                let attrs = item_attrs(tokens, i);
                let innermost = impls.last();
                fns.push(Function {
                    name: tokens[name_idx].text.clone(),
                    impl_type: innermost.and_then(|c| {
                        if c.is_trait_impl {
                            None
                        } else {
                            c.type_name.clone()
                        }
                    }),
                    self_type: innermost.and_then(|c| c.type_name.clone()),
                    trait_name: innermost.and_then(|c| c.trait_name.clone()),
                    is_trait_impl: innermost.is_some_and(|c| c.is_trait_impl),
                    is_pub: item_is_pub(tokens, i),
                    fn_idx: i,
                    args_open,
                    line: t.line,
                    body,
                    is_test: attrs.iter().any(|a| a == "test"),
                });
                // Continue scanning *inside* the body too (nested fns and
                // the impl bookkeeping both want a linear walk).
                i = name_idx + 1;
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// Parse a `trait Name ... {` header starting at the `trait` keyword;
/// returns the block context plus the index of the body `{`.
fn parse_trait_header(
    tokens: &[Token],
    trait_idx: usize,
    brace_match: &HashMap<usize, usize>,
) -> Option<(ImplCtx, usize)> {
    let name_idx = next_code(tokens, trait_idx + 1)?;
    if tokens[name_idx].kind != TokenKind::Ident {
        return None;
    }
    // Walk to the body `{` (skipping generics, supertrait bounds, and
    // `where` clauses; angle depth keeps `Bound<{ N }>`-free code honest).
    let mut angle_depth = 0usize;
    let mut i = next_code(tokens, name_idx + 1)?;
    loop {
        let t = &tokens[i];
        if t.kind == TokenKind::OpenBrace && angle_depth == 0 {
            break;
        }
        if t.kind == TokenKind::Punct && t.text == ";" && angle_depth == 0 {
            return None; // trait alias, no body
        }
        if t.is_punct('<') {
            angle_depth += 1;
        } else if t.is_punct('>') {
            angle_depth = angle_depth.saturating_sub(1);
        }
        i = next_code(tokens, i + 1)?;
    }
    let close = *brace_match.get(&i)?;
    Some((
        ImplCtx {
            type_name: None,
            trait_name: Some(tokens[name_idx].text.clone()),
            is_trait_impl: false,
            close,
        },
        i,
    ))
}

/// Parse an `impl` header starting at token `impl_idx`; returns the impl
/// context plus the index of the body `{`.
fn parse_impl_header(
    tokens: &[Token],
    impl_idx: usize,
    brace_match: &HashMap<usize, usize>,
) -> Option<(ImplCtx, usize)> {
    let mut i = next_code(tokens, impl_idx + 1)?;
    // Skip the generic parameter list if present.
    if tokens[i].is_punct('<') {
        let mut depth = 1;
        while depth > 0 {
            i = next_code(tokens, i + 1)?;
            if tokens[i].is_punct('<') {
                depth += 1;
            } else if tokens[i].is_punct('>') {
                depth -= 1;
            }
        }
        i = next_code(tokens, i + 1)?;
    }
    // Walk to the body `{`, remembering the first identifier after the
    // generics (the type, or the trait for `impl Trait for Type`).
    let mut first_ident: Option<String> = None;
    let mut after_for_ident: Option<String> = None;
    let mut seen_for = false;
    let mut angle_depth = 0usize;
    loop {
        let t = &tokens[i];
        if t.kind == TokenKind::OpenBrace && angle_depth == 0 {
            break;
        }
        if t.is_punct('<') {
            angle_depth += 1;
        } else if t.is_punct('>') {
            angle_depth = angle_depth.saturating_sub(1);
        } else if t.is_ident("for") && angle_depth == 0 {
            seen_for = true;
        } else if t.kind == TokenKind::Ident && angle_depth == 0 && !t.is_ident("where") {
            if seen_for {
                if after_for_ident.is_none() {
                    after_for_ident = Some(t.text.clone());
                }
            } else if first_ident.is_none() {
                first_ident = Some(t.text.clone());
            }
        }
        i = next_code(tokens, i + 1)?;
    }
    let close = *brace_match.get(&i)?;
    Some((
        ImplCtx {
            type_name: if seen_for {
                after_for_ident
            } else {
                first_ident.clone()
            },
            trait_name: if seen_for { first_ident } else { None },
            is_trait_impl: seen_for,
            close,
        },
        i,
    ))
}

/// Find a function's body braces: scan from just past the name, tracking
/// paren/bracket nesting; the body is the first `{` at nesting depth 0
/// outside a generic list, and a `;` at depth 0 means a bodiless
/// declaration. Also returns the OpenParen index of the parameter list.
fn find_fn_body(
    tokens: &[Token],
    mut i: usize,
    brace_match: &HashMap<usize, usize>,
) -> (Option<(usize, usize)>, Option<usize>) {
    let mut depth = 0usize;
    let mut args_open = None;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::OpenParen | TokenKind::OpenBracket => {
                if args_open.is_none() && t.kind == TokenKind::OpenParen {
                    args_open = Some(i);
                }
                depth += 1;
            }
            TokenKind::CloseParen | TokenKind::CloseBracket => depth = depth.saturating_sub(1),
            TokenKind::OpenBrace if depth == 0 => {
                let close = brace_match.get(&i).copied().unwrap_or(tokens.len() - 1);
                return (Some((i, close)), args_open);
            }
            TokenKind::Punct if t.text == ";" && depth == 0 => return (None, args_open),
            _ => {}
        }
        i += 1;
    }
    (None, args_open)
}

/// Mark every token inside a test region: `#[cfg(test)]` modules, `mod
/// tests`, and `#[test]` function bodies.
fn mark_test_regions(
    tokens: &[Token],
    functions: &[Function],
    brace_match: &HashMap<usize, usize>,
) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut mark = |from: usize, to: usize| {
        for slot in in_test.iter_mut().take(to + 1).skip(from) {
            *slot = true;
        }
    };
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("mod") && !t.raw {
            let Some(name_idx) = next_code(tokens, i + 1) else {
                continue;
            };
            let Some(brace_idx) = next_code(tokens, name_idx + 1) else {
                continue;
            };
            if tokens[brace_idx].kind != TokenKind::OpenBrace {
                continue;
            }
            let attrs = item_attrs(tokens, i);
            let is_test_mod = tokens[name_idx].is_ident("tests")
                || attrs.iter().any(|a| a.replace(' ', "") == "cfg(test)");
            if is_test_mod {
                let close = brace_match
                    .get(&brace_idx)
                    .copied()
                    .unwrap_or(tokens.len() - 1);
                mark(i, close);
            }
        }
    }
    for f in functions {
        if f.is_test {
            if let Some((open, close)) = f.body {
                mark(open.min(f.fn_idx), close);
            }
        }
    }
    in_test
}

/// Normalize a comment's text: strip `//`, `/*`, `*/`, `!`, leading `*`s
/// and whitespace.
fn comment_body(text: &str) -> &str {
    let t = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start_matches('*');
    t.trim_end_matches('/').trim_end_matches('*').trim()
}

type Markers = (
    HashMap<u32, Vec<Marker>>,
    Vec<(u32, Option<usize>)>,
    Vec<(u32, String)>,
    HashMap<u32, bool>,
);

/// Scan comments for `lint:` markers.
fn collect_markers(tokens: &[Token], in_test: &[bool]) -> Markers {
    let mut allows: HashMap<u32, Vec<Marker>> = HashMap::new();
    let mut hots = Vec::new();
    let mut malformed = Vec::new();
    let mut marker_in_test: HashMap<u32, bool> = HashMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let body = comment_body(&t.text);
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        marker_in_test.insert(t.line, in_test.get(i).copied().unwrap_or(false));
        match parse_marker(rest) {
            Some(Marker::Hot) => {
                let bound =
                    (i + 1..tokens.len()).find(|&j| tokens[j].is_ident("fn") && !tokens[j].raw);
                hots.push((t.line, bound));
            }
            Some(m @ Marker::Allow { .. }) => allows.entry(t.line).or_default().push(m),
            _ => malformed.push((t.line, t.text.clone())),
        }
    }
    (allows, hots, malformed, marker_in_test)
}

/// Parse the text after `lint:`. Grammar:
/// `hot` | `allow(<lint-id>) <sep> <non-empty reason>` where `<sep>` is
/// `—`, `–`, `-`, or `:`.
fn parse_marker(rest: &str) -> Option<Marker> {
    if rest == "hot" {
        return Some(Marker::Hot);
    }
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    if lint.is_empty() || !lint.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
        return None;
    }
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':'])
        .trim();
    if reason.is_empty() {
        return None;
    }
    Some(Marker::Allow {
        lint,
        reason: reason.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileScope {
        FileScope::parse(src)
    }

    #[test]
    fn finds_functions_with_receivers() {
        let s = parse(
            "struct X;\n\
             impl X {\n\
                 pub fn a(&self) {}\n\
                 pub fn b(&mut self, y: u32) -> u32 { y }\n\
                 fn c(self) {}\n\
                 pub(crate) fn d() {}\n\
             }\n\
             fn free<'a>(x: &'a str) -> &'a str { x }\n",
        );
        let by_name: Vec<(String, bool, Option<String>)> = s
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.is_pub, f.impl_type.clone()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("a".into(), true, Some("X".into())),
                ("b".into(), true, Some("X".into())),
                ("c".into(), false, Some("X".into())),
                ("d".into(), true, Some("X".into())),
                ("free".into(), false, None),
            ]
        );
    }

    #[test]
    fn trait_impls_are_distinguished() {
        let s = parse(
            "impl<S: Clone> Backend for Sharded<S> {\n\
                 fn go(&mut self) {}\n\
             }\n\
             impl<S: Clone> Sharded<S> {\n\
                 pub fn own(&mut self) {}\n\
             }\n",
        );
        assert!(s.functions[0].is_trait_impl);
        assert_eq!(s.functions[0].impl_type, None);
        assert!(!s.functions[1].is_trait_impl);
        assert_eq!(s.functions[1].impl_type, Some("Sharded".into()));
    }

    #[test]
    fn cfg_test_mod_and_test_fns_are_marked() {
        let s = parse(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { y.unwrap(); }\n\
             }\n",
        );
        assert!(!s.functions[0].is_test);
        assert!(s.functions[1].is_test);
        // Tokens inside the mod are flagged.
        let unwrap_idxs: Vec<usize> = s
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwrap_idxs.len(), 2);
        assert!(!s.in_test[unwrap_idxs[0]]);
        assert!(s.in_test[unwrap_idxs[1]]);
    }

    #[test]
    fn mod_named_tests_without_attr_is_test_region() {
        let s = parse("mod tests { fn t() { x.unwrap(); } }");
        assert!(s.functions[0].is_test);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let s = parse("type F = fn(u32) -> u32;\nfn real() {}");
        assert_eq!(s.functions.len(), 1);
        assert_eq!(s.functions[0].name, "real");
    }

    #[test]
    fn markers_parse_and_bind() {
        let s = parse(
            "// lint: hot\n\
             fn kernel(a: &[f64]) -> f64 { 0.0 }\n\
             fn other() {\n\
                 // lint: allow(panic) — contract: caller must pass a valid id\n\
                 assert!(true);\n\
             }\n\
             // lint: allow(panic)\n\
             fn missing_reason() {}\n",
        );
        assert_eq!(s.hot_markers.len(), 1);
        let bound = s.hot_markers[0].1.expect("hot marker must bind");
        assert!(s.tokens[bound].is_ident("fn"));
        assert_eq!(s.allowed_at("panic", 5), Some(4));
        assert_eq!(s.allowed_at("alloc", 5), None);
        // allow without a reason is malformed.
        assert_eq!(s.malformed_markers.len(), 1);
    }

    #[test]
    fn where_clause_and_return_impl_do_not_confuse_body() {
        let s = parse(
            "pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ where Self: Sized {\n\
                 (0..9).filter(|_| true)\n\
             }",
        );
        assert_eq!(s.functions.len(), 1);
        assert!(s.functions[0].body.is_some());
    }
}
