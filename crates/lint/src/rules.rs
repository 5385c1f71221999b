//! The determinism & simulator-invariant rule set (D1–D8).
//!
//! Every rule is a token-stream heuristic, not a type check — `leaky-lint`
//! has no inference, so each rule is tuned to the workspace's idioms and
//! errs toward *documented* false negatives over noisy false positives.
//! What each rule protects:
//!
//! * **D1 `wallclock`** — `Instant`/`SystemTime` outside the bench/example
//!   allowlist. A wall-clock read inside the simulators or the attack
//!   pipeline would couple traces to host scheduling.
//! * **D2 `hash-iteration`** — iteration over `HashMap`/`HashSet` in the
//!   simulator/pipeline crates. Hash iteration order is seeded per-process;
//!   anything derived from it breaks bitwise reproducibility. Waivable with
//!   `// lint: sorted` when a sort or BTree collection provably follows.
//! * **D3 `parallelism`** — `thread::spawn`/`scope`/`Builder`, `.spawn(`,
//!   `rayon` outside `ml::par` / `ml::par::pool`. All concurrency must
//!   flow through the persistent deterministic pool so results stay
//!   thread-count invariant.
//! * **D4 `unseeded-rng`** — `thread_rng`/`from_entropy`/`OsRng`: entropy
//!   that is not derived from a recorded seed.
//! * **D5 `unsafe-safety`** — `unsafe` is only legal in allowlisted files
//!   and must carry a `// SAFETY:` comment within the three lines above.
//! * **D6 `debug-key`** — `{:?}` format strings in cache-key modules.
//!   `Debug` output is not a stability contract; keys derived from it
//!   rot silently across compiler/library versions.
//! * **D7 `float-sum`** — bare f32/f64 `.sum()` in a statement that also
//!   touches `par_map` results, outside the blessed reduction helpers.
//!   Float addition is non-associative; only a serial fold in a fixed
//!   order is reproducible.
//! * **D8 `arch-confinement`** — `core::arch`/`std::arch`,
//!   `is_x86_feature_detected!` and `_mm*`/`__m*` intrinsic identifiers
//!   outside the allowlisted SIMD module. Scattered intrinsics make the
//!   bitwise f32 contract unauditable; every explicit-lane kernel must
//!   live behind `ml::simd`'s dispatch-and-fallback pairing so the
//!   SIMD-off path stays provably equivalent.
//!
//! Any finding can be suppressed line-locally with `// lint: allow(Dn)`
//! (same line or the line above); D2 additionally honours the semantic
//! waiver `// lint: sorted`.

use std::collections::BTreeSet;

use crate::config::{Config, RuleConfig};
use crate::diag::Diagnostic;
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// One rule's identity and implementation.
pub struct RuleDef {
    pub id: &'static str,
    pub name: &'static str,
    /// What the rule protects and how to fix or waive a finding
    /// (`--explain Dn`).
    pub explain: &'static str,
    check: fn(&FileCtx<'_>, &mut Vec<Finding>),
}

/// All token rules, in report order. The semantic rules (A1–A4) live in
/// [`crate::arules::SEM_RULES`]; `--explain` covers both tables.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        id: "D1",
        name: "wallclock",
        explain: "Wall-clock types (`Instant`, `SystemTime`) outside the bench/example \
                  allowlist couple traces to host scheduling. Simulated time must come \
                  from the engine. Fix: move timing into crates/bench or an example; \
                  waive a single line with `// lint: allow(D1)` plus a justification.",
        check: d1_wallclock,
    },
    RuleDef {
        id: "D2",
        name: "hash-iteration",
        explain: "Iterating a HashMap/HashSet observes per-process hash order; anything \
                  derived from it breaks bitwise reproducibility. Fix: use a BTree \
                  collection or sort first; waive with `// lint: sorted` when a sort \
                  provably follows. Rule A3 deepens this check for float accumulations.",
        check: d2_hash_iteration,
    },
    RuleDef {
        id: "D3",
        name: "parallelism",
        explain: "`thread::spawn`/`scope`/`Builder`, `.spawn(` and `rayon` outside \
                  `ml::par` bypass the deterministic worker pool, so results stop being \
                  thread-count invariant. Fix: route the fan-out through \
                  `ml::par::par_map`.",
        check: d3_parallelism,
    },
    RuleDef {
        id: "D4",
        name: "unseeded-rng",
        explain: "`thread_rng`/`from_entropy`/`OsRng` draw entropy a trace cannot \
                  replay. Fix: derive every RNG from a recorded seed \
                  (`StdRng::seed_from_u64`).",
        check: d4_unseeded_rng,
    },
    RuleDef {
        id: "D5",
        name: "unsafe-safety",
        explain: "`unsafe` is only legal in allowlisted files (lint.toml \
                  `rules.D5.allow`) and must carry a `// SAFETY:` comment within the \
                  three lines above. The allowlist is audited by `--check-config`: an \
                  entry whose files contain no `unsafe` at all is a stale-config error.",
        check: d5_unsafe_safety,
    },
    RuleDef {
        id: "D6",
        name: "debug-key",
        explain: "`{:?}` format strings in cache-key modules derive key material from \
                  `Debug` output, which is not stable across compiler/library versions. \
                  Fix: hash canonical fields instead.",
        check: d6_debug_key,
    },
    RuleDef {
        id: "D7",
        name: "float-sum",
        explain: "Bare f32/f64 `.sum()` in a statement touching `par_map` results: \
                  float addition is non-associative, so only a serial fold in a fixed \
                  order is reproducible. Fix: fold serially in input order via a blessed \
                  reduction helper. Rule A3 generalizes this to `+=` folds whose \
                  iteration order is not provably fixed.",
        check: d7_float_sum,
    },
    RuleDef {
        id: "D8",
        name: "arch-confinement",
        explain: "`core::arch`/`std::arch`, `is_x86_feature_detected!` and `_mm*`/`__m*` \
                  intrinsics outside `ml::simd` make the bitwise f32 contract \
                  unauditable. Fix: wrap the kernel in `ml::simd` with a dispatch check \
                  and scalar fallback.",
        check: d8_arch_confinement,
    },
];

struct Finding {
    line: u32,
    message: String,
}

struct FileCtx<'a> {
    path: &'a str,
    lexed: &'a Lexed,
    rule: &'a RuleConfig,
}

impl FileCtx<'_> {
    fn toks(&self) -> &[Tok] {
        &self.lexed.tokens
    }

    fn ident(&self, i: usize) -> Option<&str> {
        let t = self.toks().get(i)?;
        (t.kind == TokKind::Ident).then_some(t.text.as_str())
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks()
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }

    /// True if tokens at `i..` spell `base :: member`.
    fn is_path_call(&self, i: usize, base: &str, member: &str) -> bool {
        self.ident(i) == Some(base)
            && self.is_punct(i + 1, ':')
            && self.is_punct(i + 2, ':')
            && self.ident(i + 3) == Some(member)
    }

    /// True if tokens at `i..` spell `. member`.
    fn is_method(&self, i: usize, member: &str) -> bool {
        self.is_punct(i, '.') && self.ident(i + 1) == Some(member)
    }
}

/// The line-local waiver table, extracted from comments once per file so
/// report-time filtering works without re-lexing.
#[derive(Debug, Clone, Default)]
pub struct Waivers {
    /// `(comment line, rule id)` for each `// lint: allow(<rule>)`.
    pub allows: Vec<(u32, String)>,
    /// Lines of `// lint: sorted` comments (A3's semantic waiver).
    pub sorted: Vec<u32>,
}

impl Waivers {
    /// Extracts every waiver comment from a lexed file.
    pub fn harvest(lexed: &Lexed) -> Waivers {
        let mut w = Waivers::default();
        for c in &lexed.comments {
            let mut rest = c.text.as_str();
            while let Some(at) = rest.find("lint: allow(") {
                rest = &rest[at + "lint: allow(".len()..];
                if let Some(end) = rest.find(')') {
                    w.allows.push((c.line, rest[..end].trim().to_string()));
                    rest = &rest[end..];
                } else {
                    break;
                }
            }
            if c.text.contains("lint: sorted") {
                w.sorted.push(c.line);
            }
        }
        w
    }

    /// True when `// lint: allow(<rule>)` sits on `line` or the line above
    /// — the same window as [`Lexed::comment_above_contains`] with 1.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        let lo = line.saturating_sub(1);
        self.allows
            .iter()
            .any(|(l, r)| *l >= lo && *l <= line && r == rule)
    }

    /// True when `// lint: sorted` sits on `line` or the line above.
    pub fn sorted_at(&self, line: u32) -> bool {
        let lo = line.saturating_sub(1);
        self.sorted.iter().any(|l| *l >= lo && *l <= line)
    }
}

/// One config-free finding: an index into [`RULES`], a line, a message.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: usize,
    pub line: u32,
    pub message: String,
}

/// Everything the token rules can say about a file *before* policy:
/// findings for D1–D4/D6–D8, and the raw `unsafe` site list for D5 (whose
/// message depends on the config's allowlist). A pure function of the
/// file's tokens.
#[derive(Debug, Clone, Default)]
pub struct RawAnalysis {
    pub findings: Vec<RawFinding>,
    /// `(line, has SAFETY comment within 3 lines above)` per `unsafe`.
    pub unsafe_sites: Vec<(u32, bool)>,
}

/// Runs every token rule on one lexed file, config-free.
pub fn raw_check(lexed: &Lexed) -> RawAnalysis {
    let default_rc = RuleConfig::default();
    let mut out = RawAnalysis::default();
    for (ri, rule) in RULES.iter().enumerate() {
        if rule.id == "D5" {
            continue; // handled below: its message depends on the allowlist
        }
        let ctx = FileCtx {
            path: "",
            lexed,
            rule: &default_rc,
        };
        let mut findings = Vec::new();
        (rule.check)(&ctx, &mut findings);
        out.findings
            .extend(findings.into_iter().map(|f| RawFinding {
                rule: ri,
                line: f.line,
                message: f.message,
            }));
    }
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            let has_safety = lexed.comment_above_contains(t.line, 3, "SAFETY:");
            out.unsafe_sites.push((t.line, has_safety));
        }
    }
    out
}

/// Applies policy (severity, path scoping, waivers) to a raw analysis.
pub fn report(
    path: &str,
    raw: &RawAnalysis,
    waivers: &Waivers,
    config: &Config,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &raw.findings {
        let rule = &RULES[f.rule];
        let rc = config.rule(rule.id);
        if !rc.applies_to(path) {
            continue;
        }
        if waivers.allowed(f.line, rule.id) {
            continue;
        }
        diags.push(Diagnostic {
            rule: rule.id,
            name: rule.name,
            severity: rc.severity.expect("applies implies enabled"),
            path: path.to_string(),
            line: f.line,
            message: f.message.clone(),
        });
    }
    // D5 interprets `allow` itself ("unsafe is permitted here, with a
    // SAFETY comment") — for every other rule `allow` is an exemption.
    let rc = config.rule("D5");
    let d5_applies = rc.severity.is_some()
        && (rc.paths.is_empty() || rc.paths.iter().any(|p| path.starts_with(p.as_str())));
    if d5_applies {
        let allowed_here = rc.allow.iter().any(|p| path.starts_with(p.as_str()));
        let severity = rc.severity.expect("checked above");
        for &(line, has_safety) in &raw.unsafe_sites {
            if waivers.allowed(line, "D5") {
                continue;
            }
            let message = if !allowed_here {
                "`unsafe` outside the allowlist (lint.toml `rules.D5.allow`); \
                 this workspace pins unsafe to the deterministic pool internals"
                    .to_string()
            } else if !has_safety {
                "`unsafe` without a `// SAFETY:` comment in the three lines above".to_string()
            } else {
                continue;
            };
            diags.push(Diagnostic {
                rule: "D5",
                name: "unsafe-safety",
                severity,
                path: path.to_string(),
                line,
                message,
            });
        }
    }
    diags
}

/// Runs every applicable rule on one file.
pub fn check_file(path: &str, src: &str, config: &Config) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let raw = raw_check(&lexed);
    let waivers = Waivers::harvest(&lexed);
    report(path, &raw, &waivers, config)
}

// ---------------------------------------------------------------------------
// D1: wall-clock reads
// ---------------------------------------------------------------------------

fn d1_wallclock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks().iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            // Allow the *type* to appear in `use` renames? No — any mention
            // in a restricted file is a finding; the fix is to move timing
            // into crates/bench or an example.
            let _ = i;
            out.push(Finding {
                line: t.line,
                message: format!(
                    "wall-clock type `{}` outside the bench/example allowlist; \
                     simulated time must come from the engine, not the host",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D2: HashMap/HashSet iteration
// ---------------------------------------------------------------------------

/// Methods whose results observe hash order.
const ORDER_LEAKING: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Finds names bound (via `let`, `static`, struct fields or fn params) to a
/// type mentioning any of `type_names` anywhere in the file. Scope-free by
/// design: a false *merge* across functions only widens the net.
fn bindings_of_types(ctx: &FileCtx<'_>, type_names: &[&str]) -> BTreeSet<String> {
    let toks = ctx.toks();
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !type_names.contains(&t.text.as_str()) {
            continue;
        }
        // Walk backwards to the statement boundary looking for `let [mut] X`
        // or the nearest `X :` (field, param, or static declaration).
        let mut j = i;
        let mut candidate: Option<String> = None;
        while j > 0 {
            j -= 1;
            let tok = &toks[j];
            if tok.kind == TokKind::Punct && matches!(tok.text.as_str(), ";" | "{" | "}") {
                break;
            }
            if i - j > 48 {
                break; // bounded lookbehind
            }
            if tok.kind == TokKind::Ident {
                match tok.text.as_str() {
                    "let" | "static" => {
                        let mut k = j + 1;
                        if ctx.ident(k) == Some("mut") {
                            k += 1;
                        }
                        if let Some(name) = ctx.ident(k) {
                            candidate = Some(name.to_string());
                        }
                        break;
                    }
                    _ if ctx.is_punct(j + 1, ':') && !ctx.is_punct(j + 2, ':') => {
                        // `name: HashMap<..>` — field/param/static type
                        // ascription (a lone `:`, not a `::` path).
                        candidate.get_or_insert_with(|| tok.text.clone());
                    }
                    _ => {}
                }
            }
        }
        if let Some(name) = candidate {
            names.insert(name);
        }
    }
    names
}

fn d2_hash_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let hashed = bindings_of_types(ctx, &["HashMap", "HashSet"]);
    if hashed.is_empty() {
        return;
    }
    let toks = ctx.toks();
    let waived = |line: u32| ctx.lexed.comment_above_contains(line, 1, "lint: sorted");

    for i in 0..toks.len() {
        // `name.order_leaking_method(`
        if let Some(name) = ctx.ident(i) {
            if hashed.contains(name) {
                for m in ORDER_LEAKING {
                    if ctx.is_method(i + 1, m) && ctx.is_punct(i + 3, '(') {
                        let line = toks[i].line;
                        if !waived(line) {
                            out.push(Finding {
                                line,
                                message: format!(
                                    "`{}.{}()` observes hash order on a HashMap/HashSet \
                                     binding; use a BTree collection or sort first \
                                     (waive with `// lint: sorted` if one already follows)",
                                    name, m
                                ),
                            });
                        }
                    }
                }
            }
        }
        // `for pat in [&|mut]* name`
        if ctx.ident(i) == Some("for") {
            let mut j = i + 1;
            let limit = (i + 24).min(toks.len());
            while j < limit && ctx.ident(j) != Some("in") {
                j += 1;
            }
            if j >= limit {
                continue;
            }
            let mut k = j + 1;
            while ctx.is_punct(k, '&') || ctx.is_punct(k, '*') || ctx.ident(k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = ctx.ident(k) {
                // `name(`, `name.`, `name::` are calls/projections, handled
                // (or deliberately not) above; a bare binding ends the expr.
                let next_is_projection = ctx.is_punct(k + 1, '(')
                    || ctx.is_punct(k + 1, '.')
                    || ctx.is_punct(k + 1, ':');
                if hashed.contains(name) && !next_is_projection {
                    let line = toks[k].line;
                    if !waived(line) && !waived(toks[i].line) {
                        out.push(Finding {
                            line,
                            message: format!(
                                "`for … in {}` iterates a HashMap/HashSet in hash order; \
                                 use a BTree collection or sort first \
                                 (waive with `// lint: sorted` if order is re-established)",
                                name
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// D3: ad-hoc parallelism
// ---------------------------------------------------------------------------

fn d3_parallelism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks();
    for i in 0..toks.len() {
        for member in ["spawn", "scope", "Builder"] {
            if ctx.is_path_call(i, "thread", member) {
                out.push(Finding {
                    line: toks[i].line,
                    message: format!(
                        "`thread::{}` outside `ml::par::pool`; all parallelism must go \
                         through the persistent deterministic worker pool",
                        member
                    ),
                });
            }
        }
        if ctx.ident(i) == Some("rayon") {
            out.push(Finding {
                line: toks[i].line,
                message: "`rayon` is banned; use `ml::par::par_map` (thread-count invariant)"
                    .into(),
            });
        }
        if ctx.is_method(i, "spawn") && ctx.is_punct(i + 2, '(') {
            out.push(Finding {
                line: toks[i + 1].line,
                message: "`.spawn(…)` outside `ml::par::pool`; all parallelism must go \
                          through the persistent deterministic worker pool"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D4: unseeded RNG
// ---------------------------------------------------------------------------

fn d4_unseeded_rng(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in ctx.toks() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "ThreadRng" | "from_entropy" | "from_os_rng" | "OsRng"
        ) {
            out.push(Finding {
                line: t.line,
                message: format!(
                    "`{}` draws entropy the trace cannot replay; derive every RNG from a \
                     recorded seed (`StdRng::seed_from_u64`)",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D5: unsafe blocks
// ---------------------------------------------------------------------------

fn d5_unsafe_safety(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let allowed_here = ctx
        .rule
        .allow
        .iter()
        .any(|p| ctx.path.starts_with(p.as_str()));
    for t in ctx.toks() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !allowed_here {
            out.push(Finding {
                line: t.line,
                message: "`unsafe` outside the allowlist (lint.toml `rules.D5.allow`); \
                          this workspace pins unsafe to the deterministic pool internals"
                    .into(),
            });
        } else if !ctx.lexed.comment_above_contains(t.line, 3, "SAFETY:") {
            out.push(Finding {
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment in the three lines above".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D6: Debug formatting as key material
// ---------------------------------------------------------------------------

fn d6_debug_key(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in ctx.toks() {
        if t.kind == TokKind::Str && (t.text.contains("{:?}") || t.text.contains("{:#?}")) {
            out.push(Finding {
                line: t.line,
                message: "`{:?}` format string in a cache-key module; `Debug` output is \
                          not stable across versions — hash canonical fields instead"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D7: bare float sums over par_map results
// ---------------------------------------------------------------------------

fn d7_float_sum(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks();
    let par_bindings = {
        // `let parts = …par_map(…)…;` — reuse the binding scanner with the
        // function name standing in for a type name.
        bindings_of_types(ctx, &["par_map"])
    };

    // Statement windows: split on `;` only. Braces are deliberately *not*
    // boundaries so `par_map(…, |x| { … }).iter().sum()` stays one window;
    // the cost is that brace-only tail expressions merge into the next
    // statement, which widens the net slightly.
    let mut start = 0usize;
    let mut windows: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Punct && toks[i].text == ";" {
            windows.push((start, i));
            start = i + 1;
        }
    }
    windows.push((start, toks.len()));

    for (lo, hi) in windows {
        let w = &toks[lo..hi];
        let touches_par = w.iter().any(|t| {
            t.kind == TokKind::Ident && (t.text == "par_map" || par_bindings.contains(&t.text))
        });
        if !touches_par {
            continue;
        }
        let mentions_float = w
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"));
        for i in lo..hi {
            if !ctx.is_method(i, "sum") {
                continue;
            }
            let line = toks[i + 1].line;
            // `.sum::<T>()` — inspect the turbofish type.
            let flagged = if ctx.is_punct(i + 2, ':') && ctx.is_punct(i + 3, ':') {
                matches!(ctx.ident(i + 5), Some("f32") | Some("f64"))
            } else {
                // plain `.sum()` — only flag when floats are in play.
                mentions_float
            };
            if flagged {
                out.push(Finding {
                    line,
                    message: "bare float `.sum()` over `par_map` results; float addition \
                              is non-associative — fold serially in input order via a \
                              blessed reduction helper"
                        .into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// D8: CPU-arch intrinsics outside the SIMD module
// ---------------------------------------------------------------------------

fn d8_arch_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text.as_str();
        if text == "is_x86_feature_detected" {
            out.push(Finding {
                line: t.line,
                message: "`is_x86_feature_detected!` outside the SIMD module; CPU-feature \
                          dispatch must live in `ml::simd` next to its scalar fallback"
                    .into(),
            });
            continue;
        }
        if (text == "core" || text == "std") && ctx.is_path_call(i, text, "arch") {
            out.push(Finding {
                line: t.line,
                message: format!(
                    "`{}::arch` outside the SIMD module; explicit-lane kernels are confined \
                     to `ml::simd` so the bitwise f32 contract stays auditable",
                    text
                ),
            });
            continue;
        }
        if text.starts_with("_mm") || text.starts_with("__m") {
            out.push(Finding {
                line: t.line,
                message: format!(
                    "intrinsic identifier `{}` outside the SIMD module; wrap it in an \
                     `ml::simd` kernel with a dispatch check and scalar fallback",
                    text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Severity;

    /// A config that applies every rule to every path at `error`, with D5
    /// unsafe permitted under `allowed/`.
    fn everywhere() -> Config {
        let mut c = Config {
            include: vec![],
            exclude: vec![],
            rules: Default::default(),
        };
        c.rules.insert(
            "D5".into(),
            RuleConfig {
                severity: Some(Severity::Error),
                paths: vec![],
                allow: vec!["allowed/".into()],
                ..Default::default()
            },
        );
        c.rules.insert(
            "D6".into(),
            RuleConfig {
                severity: Some(Severity::Error),
                paths: vec!["cachekey/".into()],
                allow: vec![],
                ..Default::default()
            },
        );
        c
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = check_file(path, src, &everywhere())
            .into_iter()
            .map(|d| d.rule)
            .collect();
        ids.dedup();
        ids
    }

    #[test]
    fn d2_tracks_bindings_and_waivers() {
        let bad = "let mut m: HashMap<u32, f64> = HashMap::new();\n\
                   for (k, v) in &m { body(k, v); }\n";
        assert_eq!(rules_hit("x.rs", bad), vec!["D2"]);

        let waived = "let mut m: HashMap<u32, f64> = HashMap::new();\n\
                      // lint: sorted\n\
                      let mut pairs: Vec<_> = m.iter().collect();\n\
                      pairs.sort();\n";
        assert!(rules_hit("x.rs", waived).is_empty());
    }

    #[test]
    fn d2_ignores_lookups_and_vec_iteration() {
        let good = "let m: HashMap<u32, f64> = HashMap::new();\n\
                    let hit = m.get(&3).cloned();\n\
                    let v: Vec<u32> = vec![];\n\
                    for x in &v { body(x); }\n";
        assert!(rules_hit("x.rs", good).is_empty());
    }

    #[test]
    fn d5_allowlist_and_safety_comment() {
        let no_comment = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        assert_eq!(rules_hit("other.rs", no_comment), vec!["D5"]);
        assert_eq!(rules_hit("allowed/par.rs", no_comment), vec!["D5"]);
        let with_comment =
            "// SAFETY: index is bounds-checked by the caller.\nfn f() { unsafe { g() } }";
        assert!(rules_hit("allowed/par.rs", with_comment).is_empty());
        // The comment does not rescue a non-allowlisted file.
        assert_eq!(rules_hit("other.rs", with_comment), vec!["D5"]);
    }

    #[test]
    fn d7_turbofish_and_context() {
        let bad = "let total: f32 = par_map(&xs, |_, x| x.cost()).iter().sum();";
        assert_eq!(rules_hit("x.rs", bad), vec!["D7"]);
        let bad_tf = "let t = par_map(&xs, work).iter().sum::<f64>();";
        assert_eq!(rules_hit("x.rs", bad_tf), vec!["D7"]);
        let good_usize = "let t = par_map(&xs, work).iter().sum::<usize>();";
        assert!(rules_hit("x.rs", good_usize).is_empty());
        let good_serial = "let parts = par_map(&xs, work);\n\
                           let mut total = 0.0f32;\n\
                           for p in &parts { total += p; }\n";
        assert!(rules_hit("x.rs", good_serial).is_empty());
    }

    #[test]
    fn d6_only_fires_in_key_modules() {
        let src = "let key = format!(\"model={:?}\", model);";
        assert_eq!(rules_hit("cachekey/cache.rs", src), vec!["D6"]);
        assert!(rules_hit("elsewhere/debug.rs", src).is_empty());
    }

    #[test]
    fn generic_allow_waiver_suppresses_any_rule() {
        let src = "// lint: allow(D4)\nlet r = thread_rng();";
        assert!(rules_hit("x.rs", src).is_empty());
        let unwaived = "let r = thread_rng();";
        assert_eq!(rules_hit("x.rs", unwaived), vec!["D4"]);
    }

    #[test]
    fn d8_catches_arch_paths_macros_and_intrinsics() {
        assert_eq!(
            rules_hit("x.rs", "let ok = is_x86_feature_detected!(\"avx2\");"),
            vec!["D8"]
        );
        assert_eq!(
            rules_hit("x.rs", "use core::arch::x86_64::_mm256_add_ps;"),
            vec!["D8"]
        );
        assert_eq!(
            rules_hit("x.rs", "fn f(v: __m256i) { _mm256_setzero_si256(); }"),
            vec!["D8"]
        );
        // `std::arch` spelled as a path fires too; unrelated idents do not.
        assert_eq!(
            rules_hit("x.rs", "let m = std::arch::breakpoint;"),
            vec!["D8"]
        );
        assert!(rules_hit("x.rs", "let arch = \"x86_64\"; let march = arch;").is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_never_fire() {
        let src = "// Instant, SystemTime, thread_rng, unsafe, rayon\n\
                   let s = \"thread::spawn {:?} from_entropy\";\n";
        assert!(rules_hit("x.rs", src).is_empty());
    }
}
