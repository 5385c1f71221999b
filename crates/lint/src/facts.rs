//! Per-file fact extraction for the semantic rules (A1–A4).
//!
//! Facts are deliberately *config-independent*: everything here is derived
//! from one file's tokens alone (same content ⇒ same facts, whatever
//! `lint.toml` says). Policy — which roots matter, which paths are exempt —
//! is applied later by the rule engine over the whole-workspace
//! [`crate::graph`], so `--check-config` can re-evaluate it under edited
//! configs without re-lexing.
//!
//! Per function we record:
//! * **calls** — free-path and method calls, with just enough receiver
//!   shape (`self`, local binding, field access) for the graph's
//!   receiver-type heuristic;
//! * **allocation sites** — the A1 ban list (`Vec::new`, `vec!`,
//!   `.to_vec()`, `.clone()`, `.collect()`, `Box::new`, `format!`,
//!   `String::new/from`, `.to_string()`, `.to_owned()`,
//!   `Vec::with_capacity`);
//! * **panic sites** — the A2 ban list (`unwrap`/`expect`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!`; the `assert!` family is
//!   *allowed* — dimension asserts are call-site contract checks, and
//!   `debug_assert!` compiles out of release serving builds);
//! * **index sites** with a local guardedness verdict (an `assert!`,
//!   `for`-header or `if`/`while` condition in the same body mentioning the
//!   indexed name);
//! * **float `+=` folds** inside `for` loops, with the iterated
//!   expression's root and adapter chain for A3's order classification;
//! * **local binding types** (params, `let` ascriptions, `Type::new`
//!   inference) for receiver and iterator classification.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, Tok, TokKind};
use crate::parser::ParsedFile;

/// How a method call's receiver was written.
#[derive(Debug, Clone, PartialEq)]
pub enum Recv {
    /// `self.method(..)`
    SelfRecv,
    /// `binding.method(..)` — a plain local name.
    Ident(String),
    /// `….field.method(..)` — last field name in an access chain
    /// (includes `self.field.method(..)`).
    Field(String),
    /// Anything else (call results, literals, parenthesized exprs).
    Other,
}

/// One call site.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// `a::b::c(..)` — path segments as written (length 1 for `foo(..)`).
    Free(Vec<String>),
    /// `recv.name(..)`
    Method { recv: Recv, name: String },
}

#[derive(Debug, Clone)]
pub struct CallFact {
    pub line: u32,
    pub callee: Callee,
}

/// One banned-construct site (allocation or panic), with the construct
/// spelled the way the diagnostic should print it.
#[derive(Debug, Clone)]
pub struct SiteFact {
    pub line: u32,
    pub what: String,
}

/// One `recv[sub]` subscript site.
#[derive(Debug, Clone)]
pub struct IndexFact {
    pub line: u32,
    pub recv: String,
    /// A guard in the same body mentions the indexed name (and the
    /// subscript name, when the subscript is not a literal).
    pub guarded: bool,
}

/// The root of an iterated expression in a `for` loop.
#[derive(Debug, Clone, PartialEq)]
pub enum IterRoot {
    /// `for x in 0..n` / `a..=b` — ranges iterate in order by construction.
    Range,
    /// `for x in binding…` — classify via the binding's harvested type.
    Ident(String),
    /// `for x in self.field…` / `….field…` — classify via the field map.
    Field(String),
    /// `for x in path::to::fn_call(..)…` — classify via the callee's
    /// return type through the call graph.
    Call(Vec<String>),
    /// Unclassifiable root (literals, complex expressions).
    Other,
}

/// One float `+=` fold inside a `for` loop.
#[derive(Debug, Clone)]
pub struct FoldFact {
    /// Line of the `+=`.
    pub line: u32,
    /// Line of the `for` keyword (waivers may sit on either).
    pub loop_line: u32,
    /// Accumulator name, for the diagnostic.
    pub acc: String,
    pub root: IterRoot,
    /// Method names invoked along the iterated expression's adapter chain,
    /// in order (`["iter", "zip"]` for `xs.iter().zip(&ys)`).
    pub chain: Vec<String>,
}

/// Everything rule-relevant about one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub calls: Vec<CallFact>,
    pub allocs: Vec<SiteFact>,
    pub panics: Vec<SiteFact>,
    pub indexes: Vec<IndexFact>,
    pub folds: Vec<FoldFact>,
    /// Local binding name → type text (params, `let` ascriptions,
    /// `Type::new(..)` / `Type { .. }` inference).
    pub bindings: BTreeMap<String, String>,
}

/// Facts for one file: per-fn facts parallel to `ParsedFile::fns`.
#[derive(Debug, Default)]
pub struct FileFacts {
    pub fns: Vec<FnFacts>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "loop", "return", "break", "continue", "in", "let",
    "mut", "ref", "move", "as", "where", "unsafe", "async", "await", "fn", "impl", "dyn",
];

/// Alloc-constructor paths for A1 (`Type::method` pairs).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Alloc-method names for A1.
const ALLOC_METHODS: &[&str] = &["to_vec", "clone", "collect", "to_string", "to_owned"];

/// Alloc-macro names for A1.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panic-method names for A2.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Panic-macro names for A2.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Guard-macro names whose arguments establish index guardedness.
const GUARD_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Extracts facts for every function in `parsed`.
pub fn extract(lexed: &Lexed, parsed: &ParsedFile) -> FileFacts {
    let mut out = FileFacts::default();
    for f in &parsed.fns {
        let mut ff = FnFacts::default();
        for p in &f.params {
            ff.bindings.insert(p.name.clone(), p.ty.clone());
        }
        if let Some((lo, hi)) = f.body {
            let body = &lexed.tokens[lo..hi];
            harvest_lets(body, &mut ff.bindings);
            let guards = harvest_guards(body);
            scan_body(body, &guards, parsed, &mut ff);
        }
        out.fns.push(ff);
    }
    out
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
}

/// `let [mut] name [: TY] = …` binding harvest (including `let … else`).
fn harvest_lets(body: &[Tok], bindings: &mut BTreeMap<String, String>) {
    let mut i = 0;
    while i < body.len() {
        if ident_at(body, i) != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if ident_at(body, j) == Some("mut") {
            j += 1;
        }
        let Some(name) = ident_at(body, j) else {
            i = j;
            continue;
        };
        if KEYWORDS.contains(&name) || name.chars().next().is_some_and(|c| c.is_uppercase()) {
            // `let Some(x) = …`, `let Some(TailModel::Voting(v)) = …` — destructure
            // patterns fall back to the field map at resolution time.
            i = j;
            continue;
        }
        let name = name.to_string();
        j += 1;
        if is_punct(body, j, ':') && !is_punct(body, j + 1, ':') {
            // ascription: type runs to `=` or `;` at depth 0
            j += 1;
            let mut depth = 0usize;
            let mut ty = String::new();
            while j < body.len() {
                match body[j].text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" if depth > 0 => depth -= 1,
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&body[j].text);
                j += 1;
            }
            bindings.insert(name, ty);
        } else if is_punct(body, j, '=') {
            // init inference: `= Type::new(..)` / `= Type { .. }` /
            // `= vec![..]` / float literal
            j += 1;
            if is_punct(body, j, '&') {
                j += 1;
            }
            if let Some(first) = ident_at(body, j) {
                let cap = first.chars().next().is_some_and(|c| c.is_uppercase());
                if first == "vec" && is_punct(body, j + 1, '!') {
                    bindings.entry(name).or_insert_with(|| "Vec".to_string());
                } else if cap && (is_punct(body, j + 1, ':') || is_punct(body, j + 1, '{')) {
                    bindings.entry(name).or_insert_with(|| first.to_string());
                }
            } else if let Some(t) = body.get(j) {
                if t.kind == TokKind::Number && is_float_literal(&t.text) {
                    bindings.entry(name).or_insert_with(|| "f64".to_string());
                }
            }
        }
        i = j;
    }
}

fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || (text.contains(['e', 'E']) && !text.contains('x'))
}

/// Identifier sets mentioned by guards in this body: `assert!` family
/// arguments, `for` headers, `if`/`while` conditions.
fn harvest_guards(body: &[Tok]) -> Vec<Vec<String>> {
    let mut guards = Vec::new();
    let mut i = 0;
    while i < body.len() {
        match ident_at(body, i) {
            Some(m) if GUARD_MACROS.contains(&m) && is_punct(body, i + 1, '!') => {
                // args: balanced group after `!`
                let mut j = i + 2;
                let mut depth = 0usize;
                let mut ids = Vec::new();
                while j < body.len() {
                    match body[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if body[j].kind == TokKind::Ident {
                                ids.push(body[j].text.clone());
                            }
                        }
                    }
                    j += 1;
                }
                guards.push(ids);
                i = j;
            }
            Some(k) if k == "for" || k == "if" || k == "while" => {
                // header/condition: tokens to the `{` at depth 0
                let mut j = i + 1;
                let mut depth = 0usize;
                let mut ids = Vec::new();
                while j < body.len() {
                    match body[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" if depth > 0 => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {
                            if body[j].kind == TokKind::Ident {
                                ids.push(body[j].text.clone());
                            }
                        }
                    }
                    j += 1;
                }
                guards.push(ids);
                i = j;
            }
            _ => i += 1,
        }
    }
    guards
}

/// One pass over a body: calls, allocs, panics, indexes, folds.
fn scan_body(body: &[Tok], guards: &[Vec<String>], parsed: &ParsedFile, ff: &mut FnFacts) {
    let mut i = 0;
    while i < body.len() {
        let Some(t) = body.get(i) else { break };
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let line = t.line;

        // ---- macros: `name!(…)` -------------------------------------
        if is_punct(body, i + 1, '!') && !is_punct(body, i + 2, '=') {
            if PANIC_MACROS.contains(&name) {
                ff.panics.push(SiteFact {
                    line,
                    what: format!("{}!", name),
                });
            }
            if ALLOC_MACROS.contains(&name) {
                ff.allocs.push(SiteFact {
                    line,
                    what: format!("{}!", name),
                });
            }
            i += 2;
            continue;
        }

        // ---- `for` loops: float-fold analysis -----------------------
        if name == "for" {
            if let Some(fold_end) = scan_for_loop(body, i, ff) {
                // Calls inside the header and body still need recording;
                // only advance past the `for` keyword itself.
                let _ = fold_end;
            }
            i += 1;
            continue;
        }

        if KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }

        // ---- subscript: `name[…]` -----------------------------------
        if is_punct(body, i + 1, '[') && !prev_is_expr_end(body, i) {
            let (sub_ident, sub_literal, sub_end) = subscript_info(body, i + 1);
            // `xs[..]` full-range and `name` in type position are filtered
            // by `sub_end` / slicing detection inside subscript_info.
            if let Some((recv, is_index)) = (sub_end > i + 2).then_some((name, true)) {
                if is_index && !sub_literal.1 {
                    let guarded = guards.iter().any(|g| {
                        g.iter().any(|id| id == recv)
                            && (sub_literal.0
                                || sub_ident
                                    .as_ref()
                                    .is_none_or(|s| g.iter().any(|id| id == s)))
                    });
                    ff.indexes.push(IndexFact {
                        line,
                        recv: recv.to_string(),
                        guarded,
                    });
                }
            }
            i += 1;
            continue;
        }

        // ---- method calls: `.name(` / `.name::<…>(` -----------------
        if i > 0 && is_punct(body, i - 1, '.') {
            let is_call = is_punct(body, i + 1, '(')
                || (is_punct(body, i + 1, ':')
                    && is_punct(body, i + 2, ':')
                    && is_punct(body, i + 3, '<'));
            if is_call {
                let recv = receiver_of(body, i - 1);
                if ALLOC_METHODS.contains(&name) {
                    ff.allocs.push(SiteFact {
                        line,
                        what: format!(".{}()", name),
                    });
                }
                if PANIC_METHODS.contains(&name) {
                    ff.panics.push(SiteFact {
                        line,
                        what: format!(".{}()", name),
                    });
                }
                ff.calls.push(CallFact {
                    line,
                    callee: Callee::Method {
                        recv,
                        name: name.to_string(),
                    },
                });
            }
            i += 1;
            continue;
        }

        // ---- free / path calls: `a::b::c(` --------------------------
        if is_punct(body, i + 1, ':') && is_punct(body, i + 2, ':') {
            // Collect the full path from here; only record if it ends in a
            // call or is a function passed as an argument. (Walking forward
            // from the first segment keeps `a::b::c(` from also matching at
            // `c`.)
            if i > 1 && is_punct(body, i - 1, ':') && is_punct(body, i - 2, ':') {
                i += 1; // mid-path segment; handled from the path head
                continue;
            }
            let mut segs = vec![name.to_string()];
            let mut j = i + 1;
            while is_punct(body, j, ':') && is_punct(body, j + 1, ':') {
                if let Some(seg) = ident_at(body, j + 2) {
                    segs.push(seg.to_string());
                    j += 3;
                } else if is_punct(body, j + 2, '<') {
                    // turbofish: `path::<T>(…)` — call of the path so far
                    break;
                } else {
                    break;
                }
            }
            let is_call = is_punct(body, j, '(')
                || (is_punct(body, j, ':')
                    && is_punct(body, j + 1, ':')
                    && is_punct(body, j + 2, '<'));
            // `.map(Kind::decode)`, `unwrap_or_else(Workspace::new)`: the
            // callee calls the path, so it is an edge too. A lowercase last
            // segment keeps type names, variants and consts out.
            let is_fn_arg = i > 0
                && (is_punct(body, i - 1, '(') || is_punct(body, i - 1, ','))
                && (is_punct(body, j, ')') || is_punct(body, j, ','))
                && segs
                    .last()
                    .is_some_and(|s| s.starts_with(|c: char| c.is_ascii_lowercase()));
            if (is_call || is_fn_arg) && segs.len() >= 2 {
                if let [ty, m] = &segs[segs.len() - 2..] {
                    if ALLOC_PATHS.iter().any(|(t, mm)| t == ty && mm == m) {
                        ff.allocs.push(SiteFact {
                            line,
                            what: format!("{}::{}", ty, m),
                        });
                    }
                }
                ff.calls.push(CallFact {
                    line,
                    callee: Callee::Free(segs),
                });
            }
            i = j.max(i + 1);
            continue;
        }

        // ---- bare calls: `foo(` -------------------------------------
        if is_punct(body, i + 1, '(') {
            let declared_here = i > 0 && ident_at(body, i - 1) == Some("fn");
            if !declared_here {
                // Skip locally-declared closure invocations? A closure call
                // looks identical; the graph simply fails to resolve it.
                ff.calls.push(CallFact {
                    line,
                    callee: Callee::Free(vec![name.to_string()]),
                });
                // Bare alloc constructors don't exist (Vec::new is a path);
                // nothing more to record.
            }
            i += 1;
            continue;
        }

        let _ = parsed;
        i += 1;
    }
}

/// True when the token before `i` ends an expression (so `name[` at `i` is
/// actually `…)name[`? — no: this guards against `].name[` chains where the
/// subscript receiver is not the simple `name`).
fn prev_is_expr_end(body: &[Tok], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = &body[i - 1];
    // `.field[` chains: receiver is the chain, still attribute the index to
    // the field name — so a preceding `.` does NOT disqualify.
    p.kind == TokKind::Punct && matches!(p.text.as_str(), ")" | "]")
}

/// Examines a subscript starting at `open` (the `[`): returns the first
/// identifier inside, whether it is (empty-or-literal, slicing), and the
/// index of the closing `]`.
fn subscript_info(body: &[Tok], open: usize) -> (Option<String>, (bool, bool), usize) {
    let mut depth = 0usize;
    let mut j = open;
    let mut first_ident = None;
    let mut all_literal = true;
    let mut slicing = false;
    while j < body.len() {
        match body[j].text.as_str() {
            "[" | "(" | "{" => depth += 1,
            "]" | ")" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                let t = &body[j];
                if t.kind == TokKind::Ident && first_ident.is_none() {
                    first_ident = Some(t.text.clone());
                }
                if t.kind != TokKind::Number && !(t.kind == TokKind::Punct) {
                    all_literal = false;
                }
                if depth == 1
                    && t.kind == TokKind::Punct
                    && t.text == "."
                    && is_punct(body, j + 1, '.')
                {
                    slicing = true;
                }
            }
        }
        j += 1;
    }
    if first_ident.is_some() {
        all_literal = false;
    }
    (first_ident, (all_literal, slicing), j)
}

/// Classifies a method call's receiver from the `.` at `dot`.
fn receiver_of(body: &[Tok], dot: usize) -> Recv {
    if dot == 0 {
        return Recv::Other;
    }
    let r = &body[dot - 1];
    match r.kind {
        TokKind::Ident => {
            if r.text == "self" {
                Recv::SelfRecv
            } else if dot >= 2 && is_punct(body, dot - 2, '.') {
                Recv::Field(r.text.clone())
            } else if dot >= 2 && is_punct(body, dot - 2, ']') {
                Recv::Other
            } else {
                Recv::Ident(r.text.clone())
            }
        }
        TokKind::Punct if r.text == ")" || r.text == "]" => Recv::Other,
        _ => Recv::Other,
    }
}

/// Parses a `for` loop header at `i` (the `for` keyword) and records float
/// `+=` folds in its body. Returns the body's end index when parsed.
fn scan_for_loop(body: &[Tok], i: usize, ff: &mut FnFacts) -> Option<usize> {
    let loop_line = body[i].line;
    // pattern: tokens to `in` at depth 0
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < body.len() {
        match body[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" if depth > 0 => depth -= 1,
            "in" if depth == 0 && body[j].kind == TokKind::Ident => break,
            "{" if depth == 0 => return None, // not a for-in we understand
            _ => {}
        }
        j += 1;
    }
    if j >= body.len() {
        return None;
    }
    // iterated expression: tokens to `{` at depth 0
    let iter_lo = j + 1;
    let mut k = iter_lo;
    let mut depth = 0usize;
    while k < body.len() {
        match body[k].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" if depth > 0 => depth -= 1,
            "{" if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    if k >= body.len() {
        return None;
    }
    let iter_toks = &body[iter_lo..k];
    // loop body: balanced braces from k
    let body_lo = k;
    let mut depth = 0usize;
    let mut end = k;
    while end < body.len() {
        match body[end].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        end += 1;
    }
    let loop_body = &body[body_lo..=end.min(body.len() - 1)];
    // find `acc += …` at any depth within the loop body
    let mut m = 1;
    while m + 1 < loop_body.len() {
        if is_punct(loop_body, m, '+') && is_punct(loop_body, m + 1, '=') {
            if let Some(acc) = acc_root(loop_body, m) {
                let (root, chain) = classify_iter(iter_toks);
                ff.folds.push(FoldFact {
                    line: loop_body[m].line,
                    loop_line,
                    acc,
                    root,
                    chain,
                });
            }
        }
        m += 1;
    }
    Some(end)
}

/// Walks back from a `+=` at `plus` to the accumulator's root name:
/// `sum +=`, `acc[i] +=`, `self.loss +=`, `grads.b[i] +=`.
fn acc_root(body: &[Tok], plus: usize) -> Option<String> {
    let mut j = plus;
    // skip back over one `[…]` subscript
    if j >= 1 && is_punct(body, j - 1, ']') {
        let mut depth = 0usize;
        while j > 0 {
            j -= 1;
            match body[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let name = ident_at(body, j.checked_sub(1)?)?;
    Some(name.to_string())
}

/// Splits an iterated expression into its root and adapter-chain method
/// names: `&xs` → `(Ident(xs), [])`; `xs.iter().zip(&ys)` →
/// `(Ident(xs), [iter, zip])`; `self.rows.values()` →
/// `(Field(rows), [values])`; `0..n` → `(Range, [])`; `make(n)` →
/// `(Call([make]), [])`.
pub fn classify_iter(toks: &[Tok]) -> (IterRoot, Vec<String>) {
    let mut toks = toks;
    // strip leading `&`/`&mut` and fully-enclosing parens
    while let Some(t) = toks.first() {
        if (t.kind == TokKind::Punct && t.text == "&")
            || (t.kind == TokKind::Ident && t.text == "mut")
        {
            toks = &toks[1..];
        } else if t.kind == TokKind::Punct && t.text == "(" && encloses(toks) {
            toks = &toks[1..toks.len() - 1];
        } else {
            break;
        }
    }
    if toks.is_empty() {
        return (IterRoot::Other, Vec::new());
    }
    // range? a `..` at depth 0
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" if depth > 0 => depth -= 1,
            "." if depth == 0 && toks.get(j + 1).is_some_and(|n| n.text == ".") => {
                return (IterRoot::Range, Vec::new());
            }
            _ => {}
        }
    }
    // root
    let first = &toks[0];
    let (mut root, mut j) = if first.kind == TokKind::Ident {
        if first.text == "self"
            && toks.get(1).is_some_and(|t| t.text == ".")
            && toks.get(2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            (IterRoot::Field(toks[2].text.clone()), 3usize)
        } else {
            // path? `a::b::f(`
            let mut segs = vec![first.text.clone()];
            let mut k = 1usize;
            while toks.get(k).is_some_and(|t| t.text == ":")
                && toks.get(k + 1).is_some_and(|t| t.text == ":")
                && toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                segs.push(toks[k + 2].text.clone());
                k += 3;
            }
            if toks.get(k).is_some_and(|t| t.text == "(") {
                (IterRoot::Call(segs), k)
            } else {
                (IterRoot::Ident(first.text.clone()), 1usize)
            }
        }
    } else {
        (IterRoot::Other, 0usize)
    };
    // skip the call's argument group if root is a call
    if matches!(root, IterRoot::Call(_)) {
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // adapter chain: `.name(…)` and `.field` hops
    let mut chain = Vec::new();
    let mut depth = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => {
                depth += 1;
                j += 1;
            }
            ")" | "]" => {
                depth = depth.saturating_sub(1);
                j += 1;
            }
            "." if depth == 0 => {
                if let Some(name) = ident_at(toks, j + 1) {
                    let is_call = toks.get(j + 2).is_some_and(|t| t.text == "(")
                        || (toks.get(j + 2).is_some_and(|t| t.text == ":")
                            && toks.get(j + 3).is_some_and(|t| t.text == ":"));
                    if is_call {
                        chain.push(name.to_string());
                    } else {
                        // field hop: re-root on the deepest field
                        root = IterRoot::Field(name.to_string());
                        chain.clear();
                    }
                    j += 2;
                } else {
                    j += 1;
                }
            }
            _ => {
                j += 1;
            }
        }
    }
    (root, chain)
}

fn encloses(toks: &[Tok]) -> bool {
    if toks.last().map(|t| t.text.as_str()) != Some(")") {
        return false;
    }
    let mut depth = 0isize;
    for (j, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j == toks.len() - 1;
                }
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn facts_of(src: &str) -> (ParsedFile, FileFacts) {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let facts = extract(&lexed, &parsed);
        (parsed, facts)
    }

    #[test]
    fn calls_free_path_and_method() {
        let (_, f) = facts_of(
            "fn a(xs: &[f32]) { helper(); ml::par::par_map(xs, id); \
             self.step(); buf.push(1); self.gap.finish(); Vec::new(); \
             xs.iter().map(Kind::decode).map(Kind::Raw); }",
        );
        let calls = &f.fns[0].calls;
        let has = |c: &Callee| calls.iter().any(|cf| &cf.callee == c);
        assert!(has(&Callee::Free(vec!["helper".into()])));
        assert!(has(&Callee::Free(vec!["Kind".into(), "decode".into()])));
        assert!(!has(&Callee::Free(vec!["Kind".into(), "Raw".into()])));
        assert!(has(&Callee::Free(vec![
            "ml".into(),
            "par".into(),
            "par_map".into()
        ])));
        assert!(has(&Callee::Method {
            recv: Recv::SelfRecv,
            name: "step".into()
        }));
        assert!(has(&Callee::Method {
            recv: Recv::Ident("buf".into()),
            name: "push".into()
        }));
        assert!(has(&Callee::Method {
            recv: Recv::Field("gap".into()),
            name: "finish".into()
        }));
    }

    #[test]
    fn alloc_sites_cover_the_a1_ban_list() {
        let (_, f) = facts_of(
            "fn a() { let v = Vec::new(); let b = Box::new(0); \
             let s = format!(\"x\"); let t = xs.to_vec(); \
             let c: Vec<u8> = it.collect(); let w = vec![0; 4]; \
             let n = o.unwrap_or_else(String::new); }",
        );
        let whats: Vec<&str> = f.fns[0].allocs.iter().map(|s| s.what.as_str()).collect();
        for want in [
            "Vec::new",
            "Box::new",
            "String::new",
            "format!",
            ".to_vec()",
            ".collect()",
            "vec!",
        ] {
            assert!(whats.contains(&want), "missing {want} in {whats:?}");
        }
    }

    #[test]
    fn collect_turbofish_is_still_an_alloc() {
        let (_, f) = facts_of("fn a() { let v = it.collect::<Vec<_>>(); }");
        assert!(f.fns[0].allocs.iter().any(|s| s.what == ".collect()"));
    }

    #[test]
    fn panic_sites_ban_unwrap_expect_and_macros_but_not_asserts() {
        let (_, f) = facts_of(
            "fn a() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); \
             unreachable!(); assert!(n > 0); debug_assert_eq!(a, b); \
             z.unwrap_or(0); z.unwrap_or_else(|| 0); }",
        );
        let whats: Vec<&str> = f.fns[0].panics.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(
            whats,
            vec![".unwrap()", ".expect()", "panic!", "unreachable!"]
        );
    }

    #[test]
    fn index_guardedness_sees_asserts_and_for_headers() {
        let (_, f) = facts_of(
            "fn guarded(xs: &[f32], n: usize) { assert!(n < xs.len()); let v = xs[n]; }\n\
             fn looped(xs: &[f32]) { for i in 0..xs.len() { let v = xs[i]; } }\n\
             fn naked(xs: &[f32], n: usize) { let v = xs[n]; }",
        );
        assert!(f.fns[0].indexes[0].guarded, "assert! guards");
        assert!(f.fns[1].indexes[0].guarded, "for-header guards");
        assert!(!f.fns[2].indexes[0].guarded, "no guard in body");
    }

    #[test]
    fn float_folds_classify_roots_and_chains() {
        let (_, f) = facts_of(
            "fn a(xs: &[f32], m: &HashMap<u32, f32>) -> f32 {\n\
                 let mut sum = 0.0;\n\
                 for &x in xs { sum += x; }\n\
                 for i in 0..4 { sum += xs[i]; }\n\
                 for v in m.values() { sum += v; }\n\
                 for r in make_rows() { sum += r; }\n\
                 sum\n\
             }",
        );
        let folds = &f.fns[0].folds;
        assert_eq!(folds.len(), 4);
        assert_eq!(folds[0].root, IterRoot::Ident("xs".into()));
        assert!(folds[0].chain.is_empty());
        assert_eq!(folds[1].root, IterRoot::Range);
        assert_eq!(folds[2].root, IterRoot::Ident("m".into()));
        assert_eq!(folds[2].chain, vec!["values".to_string()]);
        assert_eq!(folds[3].root, IterRoot::Call(vec!["make_rows".into()]));
    }

    #[test]
    fn bindings_from_params_lets_and_inference() {
        let (_, f) = facts_of(
            "fn a(xs: &[f32], n: usize) { let mut acc: Vec<f32> = Vec::new(); \
             let pool = ScratchPool::new(4); let s = 0.5; }",
        );
        let b = &f.fns[0].bindings;
        assert_eq!(b.get("xs").unwrap(), "& [ f32 ]");
        assert_eq!(b.get("n").unwrap(), "usize");
        assert!(b.get("acc").unwrap().starts_with("Vec"));
        assert_eq!(b.get("pool").unwrap(), "ScratchPool");
        assert_eq!(b.get("s").unwrap(), "f64", "float-literal init inferred");
    }
}
