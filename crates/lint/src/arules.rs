//! The inter-procedural rule families (A1–A4).
//!
//! These rules consume the per-file facts ([`crate::facts`]) joined through
//! the workspace call graph ([`crate::graph`]); policy (roots, scoping,
//! severities) comes from `lint.toml`. Reachability semantics: a site in
//! function `f` fires when `f` is reachable from a configured root over
//! resolved call edges, test code excluded. The diagnostic names the root
//! so the reader can see *why* the function is hot/serving.
//!
//! * **A1 `hot-path-allocation`** — no allocation (`Vec::new`, `vec!`,
//!   `.to_vec()`, `.clone()`, `.collect()`, `Box::new`, format-alloc)
//!   reachable from the configured hot-path roots (the `_into` kernels and
//!   the training epoch loop). Steady-state training/extraction reuses
//!   workspaces; an allocation on this path is either a leak of that
//!   contract or needs a written waiver.
//! * **A2 `panic-free-serving`** — no `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!` reachable from the serving
//!   roots (`run_fleet`, the `AttackStream` round, the batch
//!   `Moscons::extract`). The fleet degrades
//!   instead of aborting. The `assert!` family is allowed: dimension
//!   asserts are call-site contract checks and `debug_assert!` compiles out
//!   of release serving builds. Unguarded indexing is additionally checked,
//!   but only in the serving modules themselves (`index_paths`) — ml
//!   kernels index by loop bounds by construction (documented non-goal).
//! * **A3 `float-reduction-order`** — f32/f64 `+=` folds inside `for`
//!   loops whose iteration order is not provably fixed. Slices, arrays,
//!   `Vec`, ranges and BTree collections pass; hash collections, map
//!   `keys()`/`values()` not provably BTree, and opaque call/adapter
//!   sources must either be fixed or carry `// lint: sorted`. Subsumes and
//!   deepens D7 (which only sees `.sum()` near `par_map`).
//! * **A4 `threshold-confinement`** — every `MIN_PARALLEL_*` work-size
//!   gate lives in `ml::par::thresholds` (the blessed path from the
//!   config's `allow`, *and* the parser-verified enclosing module must be
//!   named `thresholds`). Scattered gates are impossible to audit or
//!   retune together.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::facts::{Callee, FoldFact, IterRoot};
use crate::graph::{module_path, FileUnit, Graph};
use crate::rules::Waivers;

/// One semantic rule's identity, for `--explain`.
pub struct SemRuleDef {
    pub id: &'static str,
    pub name: &'static str,
    pub explain: &'static str,
}

/// All semantic rules, in report order.
pub const SEM_RULES: &[SemRuleDef] = &[
    SemRuleDef {
        id: "A1",
        name: "hot-path-allocation",
        explain: "An allocation (`Vec::new`, `vec!`, `.to_vec()`, `.clone()`, \
                  `.collect()`, `Box::new`, `format!`, `String::new/from`, \
                  `.to_string()`, `.to_owned()`, `Vec::with_capacity`) is reachable \
                  from a hot-path root (lint.toml `rules.A1.roots`: the `_into` \
                  kernels and the training epoch loop). The steady-state hot loops \
                  reuse pre-sized workspaces; fix by hoisting the allocation into a \
                  workspace/pool acquire, or waive the line with `// lint: allow(A1)` \
                  plus a written justification (e.g. pool warm-up on first acquire).",
    },
    SemRuleDef {
        id: "A2",
        name: "panic-free-serving",
        explain: "A panic site (`unwrap`, `expect`, `panic!`, `unreachable!`, `todo!`, \
                  `unimplemented!`) — or, inside the serving modules listed in \
                  `rules.A2.index_paths`, an unguarded `x[i]` — is reachable from a \
                  serving root (`run_fleet`, the `AttackStream` round). The fleet \
                  degrades instead of aborting: fix with `let … else { continue }` \
                  defensive degradation or a `debug_assert!`; the `assert!` family is \
                  allowed (call-site contract checks). Waive with `// lint: allow(A2)` \
                  plus a justification when the invariant is locally provable.",
    },
    SemRuleDef {
        id: "A3",
        name: "float-reduction-order",
        explain: "A float `+=` fold iterates a source whose order is not provably \
                  fixed. Float addition is non-associative, so any order change is a \
                  bitwise result change. Slices, arrays, `Vec`, ranges and BTree \
                  collections pass; HashMap/HashSet iteration, `keys()`/`values()` on \
                  a map not provably BTree, and opaque call/adapter sources fail. Fix \
                  by folding over an order-fixed container, or waive with \
                  `// lint: sorted` when order is re-established upstream.",
    },
    SemRuleDef {
        id: "A4",
        name: "threshold-confinement",
        explain: "A `MIN_PARALLEL_*` work-size gate is declared outside \
                  `ml::par::thresholds`. All fan-out gates live in that one audited \
                  module (with tuning provenance and unit tests) so they can be \
                  retuned together; re-export from the historical path if call sites \
                  want a local name.",
    },
];

/// Explain text for any rule id (`D*` or `A*`), if known.
pub fn explain(id: &str) -> Option<(&'static str, &'static str)> {
    if let Some(r) = crate::rules::RULES.iter().find(|r| r.id == id) {
        return Some((r.name, r.explain));
    }
    SEM_RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| (r.name, r.explain))
}

/// Adapter methods that preserve their source's iteration order.
const ORDER_PRESERVING: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "enumerate",
    "zip",
    "rev",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "chain",
    "take",
    "skip",
    "step_by",
    "chunks",
    "chunks_mut",
    "chunks_exact",
    "chunks_exact_mut",
    "windows",
    "copied",
    "cloned",
    "by_ref",
    "take_while",
    "skip_while",
    "as_slice",
    "as_ref",
    "as_bytes",
    "split_at",
    "split_first",
    "split_last",
    "lines",
    "bytes",
    "chars",
    "to_vec",
    "drain",
    "get",
    "split_whitespace",
];

/// Map accessors that observe the map's iteration order.
const MAP_ORDER: &[&str] = &["keys", "values", "values_mut", "into_keys", "into_values"];

/// Container mentions that prove a fixed iteration order.
const FIXED_CONTAINERS: &[&str] = &[
    "Vec", "VecDeque", "[", "BTreeMap", "BTreeSet", "Range", "Matrix", "Chunks", "Windows",
    "slice", "array", "String", "str",
];

fn mentions_any(ty: &str, names: &[&str]) -> bool {
    ty.split_whitespace().any(|w| names.contains(&w))
        || names.iter().any(|n| *n == "[" && ty.contains('['))
}

fn is_fixed_container(ty: &str) -> bool {
    mentions_any(ty, FIXED_CONTAINERS)
}

fn is_hashed(ty: &str) -> bool {
    mentions_any(ty, &["HashMap", "HashSet"])
}

/// Runs A1–A4 over the analyzed workspace.
pub fn check(
    units: &[FileUnit],
    waivers: &[Waivers],
    graph: &Graph,
    crate_dirs: &BTreeMap<String, String>,
    config: &Config,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // node lookup by (file, fn) for per-fn rules
    let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        node_of.insert((node.file, node.fn_idx), n);
    }

    check_reachability_rule(
        "A1",
        "hot-path-allocation",
        units,
        waivers,
        graph,
        config,
        &mut diags,
        |facts| &facts.allocs,
        |what, id, root| {
            format!(
                "allocation `{}` on the hot path: `{}` is reachable from root `{}`; \
                 the steady-state loops reuse workspaces — hoist the allocation or \
                 waive with a written justification",
                what, id, root
            )
        },
    );

    check_reachability_rule(
        "A2",
        "panic-free-serving",
        units,
        waivers,
        graph,
        config,
        &mut diags,
        |facts| &facts.panics,
        |what, id, root| {
            format!(
                "panic site `{}` on the serving path: `{}` is reachable from root \
                 `{}`; the fleet degrades instead of aborting — use defensive \
                 degradation (`let … else`) or `debug_assert!`",
                what, id, root
            )
        },
    );

    // A2's indexing check, confined to the serving modules.
    let rc2 = config.rule("A2");
    if let (Some(severity), false) = (rc2.severity, rc2.roots.is_empty()) {
        let roots: Vec<usize> = rc2
            .roots
            .iter()
            .flat_map(|p| graph.match_pattern(p))
            .collect();
        let reach = graph.reachable_from(&roots);
        for (n, node) in graph.nodes.iter().enumerate() {
            let Some(root) = reach[n] else { continue };
            let unit = &units[node.file];
            if !rc2
                .index_paths
                .iter()
                .any(|p| unit.rel.starts_with(p.as_str()))
            {
                continue;
            }
            if !rc2.applies_to(&unit.rel) {
                continue;
            }
            for idx in &unit.facts.fns[node.fn_idx].indexes {
                if idx.guarded || waivers[node.file].allowed(idx.line, "A2") {
                    continue;
                }
                diags.push(Diagnostic {
                    rule: "A2",
                    name: "panic-free-serving",
                    severity,
                    path: unit.rel.clone(),
                    line: idx.line,
                    message: format!(
                        "unguarded index `{}[…]` in `{}` (reachable from `{}`); a \
                         malformed session must degrade, not abort — guard with an \
                         assert/bounds check or use `get`",
                        idx.recv, node.id, graph.nodes[root].id
                    ),
                });
            }
        }
    }

    check_a3(
        units, waivers, graph, &node_of, crate_dirs, config, &mut diags,
    );
    check_a4(units, waivers, crate_dirs, config, &mut diags);

    crate::diag::sort(&mut diags);
    diags
}

/// Shared driver for A1/A2: ban `site_list` in everything reachable from
/// the rule's roots.
#[allow(clippy::too_many_arguments)]
fn check_reachability_rule(
    id: &'static str,
    name: &'static str,
    units: &[FileUnit],
    waivers: &[Waivers],
    graph: &Graph,
    config: &Config,
    diags: &mut Vec<Diagnostic>,
    site_list: fn(&crate::facts::FnFacts) -> &Vec<crate::facts::SiteFact>,
    message: fn(&str, &str, &str) -> String,
) {
    let rc = config.rule(id);
    let Some(severity) = rc.severity else { return };
    if rc.roots.is_empty() {
        return;
    }
    let roots: Vec<usize> = rc
        .roots
        .iter()
        .flat_map(|p| graph.match_pattern(p))
        .collect();
    let reach = graph.reachable_from(&roots);
    for (n, node) in graph.nodes.iter().enumerate() {
        let Some(root) = reach[n] else { continue };
        let unit = &units[node.file];
        if !rc.applies_to(&unit.rel) {
            continue;
        }
        for site in site_list(&unit.facts.fns[node.fn_idx]) {
            if waivers[node.file].allowed(site.line, id) {
                continue;
            }
            diags.push(Diagnostic {
                rule: id,
                name,
                severity,
                path: unit.rel.clone(),
                line: site.line,
                message: message(&site.what, &node.id, &graph.nodes[root].id),
            });
        }
    }
}

/// A3: float `+=` folds over sources whose order is not provably fixed.
#[allow(clippy::too_many_arguments)]
fn check_a3(
    units: &[FileUnit],
    waivers: &[Waivers],
    graph: &Graph,
    node_of: &BTreeMap<(usize, usize), usize>,
    crate_dirs: &BTreeMap<String, String>,
    config: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    let rc = config.rule("A3");
    let Some(severity) = rc.severity else { return };
    for (fi, unit) in units.iter().enumerate() {
        if !rc.applies_to(&unit.rel) {
            continue;
        }
        let base = module_path(&unit.rel, crate_dirs);
        for (fj, f) in unit.parsed.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut module = base.clone();
            module.extend(f.module.iter().cloned());
            let facts = &unit.facts.fns[fj];
            for fold in &facts.folds {
                // Only folds whose accumulator is provably float.
                let acc_ty = facts
                    .bindings
                    .get(&fold.acc)
                    .cloned()
                    .or_else(|| graph.field_roots(&fold.acc).map(join_roots));
                let is_float = acc_ty
                    .as_deref()
                    .is_some_and(|t| mentions_any(t, &["f32", "f64"]));
                if !is_float {
                    continue;
                }
                if waivers[fi].sorted_at(fold.line)
                    || waivers[fi].sorted_at(fold.loop_line)
                    || waivers[fi].allowed(fold.line, "A3")
                    || waivers[fi].allowed(fold.loop_line, "A3")
                {
                    continue;
                }
                let node = node_of.get(&(fi, fj)).map(|&n| &graph.nodes[n]);
                if let Some(problem) = classify_fold(unit, node, &module, graph, facts, fold) {
                    diags.push(Diagnostic {
                        rule: "A3",
                        name: "float-reduction-order",
                        severity,
                        path: unit.rel.clone(),
                        line: fold.line,
                        message: format!(
                            "float fold `{} += …` over {}; float addition is \
                             non-associative — iterate an order-fixed container or \
                             waive with `// lint: sorted`",
                            fold.acc, problem
                        ),
                    });
                }
            }
        }
    }
}

fn join_roots(roots: &std::collections::BTreeSet<String>) -> String {
    roots.iter().cloned().collect::<Vec<_>>().join(" ")
}

/// Returns a problem description when the fold's source order is not
/// provably fixed; `None` when the fold passes.
fn classify_fold(
    unit: &FileUnit,
    node: Option<&crate::graph::FnNode>,
    module: &[String],
    graph: &Graph,
    facts: &crate::facts::FnFacts,
    fold: &FoldFact,
) -> Option<String> {
    // Source type text, when the root is a binding/field/call.
    let src_ty: Option<String> = match &fold.root {
        IterRoot::Range => return None,
        IterRoot::Ident(x) => facts
            .bindings
            .get(x)
            .cloned()
            .or_else(|| graph.field_roots(x).map(join_roots)),
        IterRoot::Field(f) => graph.field_roots(f).map(join_roots),
        IterRoot::Call(segs) => {
            let node = node?;
            let use_map: BTreeMap<&str, &[String]> = unit
                .parsed
                .uses
                .iter()
                .map(|u| (u.alias.as_str(), u.path.as_slice()))
                .collect();
            match graph.ret_of_call(node, module, &use_map, facts, &Callee::Free(segs.clone())) {
                Some(ret) if is_fixed_container(&ret) => Some(ret),
                Some(ret) => {
                    return Some(format!(
                        "the result of `{}()` (returns `{}`, order not provably fixed)",
                        segs.join("::"),
                        ret
                    ))
                }
                None => {
                    return Some(format!(
                        "the result of `{}()` (unresolved callee — order unknown)",
                        segs.join("::")
                    ))
                }
            }
        }
        IterRoot::Other => None,
    };

    if let Some(ty) = &src_ty {
        if is_hashed(ty) {
            return Some(format!(
                "a HashMap/HashSet source (`{}`) — iteration order depends on hash state",
                ty
            ));
        }
    }

    for m in &fold.chain {
        if MAP_ORDER.contains(&m.as_str()) {
            let btree_proven = src_ty
                .as_deref()
                .is_some_and(|t| mentions_any(t, &["BTreeMap", "BTreeSet"]));
            if !btree_proven {
                return Some(format!(
                    "`.{}()` on a map whose type is not provably BTree-ordered",
                    m
                ));
            }
            continue;
        }
        if ORDER_PRESERVING.contains(&m.as_str()) {
            continue;
        }
        // Unknown adapter: a unique workspace method with a fixed-container
        // return type passes; anything else is unprovable.
        let rets = graph.method_rets(m);
        match rets.as_slice() {
            [one] if is_fixed_container(one) => continue,
            _ => {
                return Some(format!(
                    "adapter `.{}()` whose iteration order cannot be proven",
                    m
                ))
            }
        }
    }
    None
}

/// A4: `MIN_PARALLEL_*` gates must live in `ml::par::thresholds`.
fn check_a4(
    units: &[FileUnit],
    waivers: &[Waivers],
    crate_dirs: &BTreeMap<String, String>,
    config: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    let rc = config.rule("A4");
    let Some(severity) = rc.severity else { return };
    for (fi, unit) in units.iter().enumerate() {
        let blessed_path = rc.allow.iter().any(|p| unit.rel.starts_with(p.as_str()));
        let file_mod = module_path(&unit.rel, crate_dirs);
        let file_is_thresholds = file_mod.last().is_some_and(|m| m == "thresholds");
        for c in &unit.parsed.consts {
            if !c.name.starts_with("MIN_PARALLEL_") {
                continue;
            }
            let inline_thresholds = c.module.last().is_some_and(|m| m == "thresholds");
            if blessed_path && (file_is_thresholds || inline_thresholds) {
                continue;
            }
            if waivers[fi].allowed(c.line, "A4") {
                continue;
            }
            diags.push(Diagnostic {
                rule: "A4",
                name: "threshold-confinement",
                severity,
                path: unit.rel.clone(),
                line: c.line,
                message: format!(
                    "work-size gate `{}` declared outside `ml::par::thresholds`; all \
                     `MIN_PARALLEL_*` gates live in the audited thresholds module — \
                     move it there and re-export if call sites want a local path",
                    c.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules::Waivers;

    fn analyze(rel: &str, src: &str) -> (FileUnit, Waivers) {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let facts = extract(&lexed, &parsed);
        let w = Waivers::harvest(&lexed);
        (
            FileUnit {
                rel: rel.to_string(),
                parsed,
                facts,
            },
            w,
        )
    }

    fn dirs() -> BTreeMap<String, String> {
        [("crates/ml".to_string(), "ml".to_string())]
            .into_iter()
            .collect()
    }

    fn run_rules(files: Vec<(FileUnit, Waivers)>, toml: &str) -> Vec<String> {
        let config = Config::parse(toml).expect("config");
        let (units, waivers): (Vec<_>, Vec<_>) = files.into_iter().unzip();
        let graph = Graph::build(&units, &dirs());
        check(&units, &waivers, &graph, &dirs(), &config)
            .into_iter()
            .map(|d| format!("{}:{} {}", d.rule, d.line, d.message))
            .collect()
    }

    #[test]
    fn a1_fires_transitively_and_honours_waivers() {
        let src = "pub fn gemm_into(c: &mut [f32]) { helper(c); }\n\
                   fn helper(c: &mut [f32]) { let v = c.to_vec(); keep(v); }\n\
                   fn cold() { let v: Vec<f32> = Vec::new(); keep2(v); }\n";
        let out = run_rules(
            vec![analyze("crates/ml/src/matrix.rs", src)],
            "[rules.A1]\nseverity = \"error\"\nroots = [\"ml::*_into\"]\n",
        );
        assert_eq!(out.len(), 1, "only the reachable alloc fires: {out:?}");
        assert!(out[0].starts_with("A1:2"));
        assert!(out[0].contains("ml::matrix::gemm_into"));

        let waived = "pub fn gemm_into(c: &mut [f32]) { helper(c); }\n\
                      // pool warm-up only. lint: allow(A1)\n\
                      fn helper(c: &mut [f32]) { let v = c.to_vec(); keep(v); }\n";
        let out = run_rules(
            vec![analyze("crates/ml/src/matrix.rs", waived)],
            "[rules.A1]\nseverity = \"error\"\nroots = [\"ml::*_into\"]\n",
        );
        // the waiver comment is on the line above the alloc line
        assert!(out.is_empty(), "waived alloc must not fire: {out:?}");
    }

    #[test]
    fn a2_bans_panics_but_not_asserts_and_checks_serving_indexing() {
        let src = "pub fn run_fleet(n: usize) { assert!(n > 0); step(n); }\n\
                   fn step(n: usize) { let x: Option<u32> = probe(n); let v = x.unwrap(); keep(v); }\n";
        let out = run_rules(
            vec![analyze("crates/ml/src/fleet.rs", src)],
            "[rules.A2]\nseverity = \"error\"\nroots = [\"ml::fleet::run_fleet\"]\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains(".unwrap()"));

        let idx = "pub fn run_fleet(xs: &[f32], n: usize) { let v = xs[n]; keep(v); }\n";
        let out = run_rules(
            vec![analyze("crates/ml/src/fleet.rs", idx)],
            "[rules.A2]\nseverity = \"error\"\nroots = [\"ml::fleet::run_fleet\"]\n\
             index_paths = [\"crates/ml/src/fleet.rs\"]\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("unguarded index"));
    }

    #[test]
    fn a3_passes_fixed_sources_flags_hash_and_opaque() {
        let src = "\
            fn fixed(xs: &[f32]) -> f32 { let mut s = 0.0; for &x in xs { s += x; } s }\n\
            fn hashy(m: &HashMap<u32, f32>) -> f32 { let mut s = 0.0; for (_, v) in m.iter() { s += v; } s }\n\
            fn mapvals(m: &BTreeMap<u32, f32>) -> f32 { let mut s = 0.0; for v in m.values() { s += v; } s }\n\
            fn opaque() -> f32 { let mut s = 0.0; for v in mystery_source() { s += v; } s }\n\
            fn waived() -> f32 { let mut s = 0.0;\n\
                // upstream sort. lint: sorted\n\
                for v in mystery_source() { s += v; } s }\n";
        let out = run_rules(
            vec![analyze("crates/ml/src/x.rs", src)],
            "[rules.A3]\nseverity = \"error\"\n",
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].contains("HashMap"), "{out:?}");
        assert!(out[1].contains("mystery_source"), "{out:?}");
    }

    #[test]
    fn a4_confines_gates_to_the_thresholds_module() {
        let bad = "pub const MIN_PARALLEL_ROWS: usize = 64;\n";
        let good = "pub const MIN_PARALLEL_ROWS: usize = 64;\n";
        let toml = "[rules.A4]\nseverity = \"error\"\n\
                    allow = [\"crates/ml/src/par/thresholds.rs\"]\n";
        let out = run_rules(vec![analyze("crates/ml/src/seq.rs", bad)], toml);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("MIN_PARALLEL_ROWS"));
        let out = run_rules(vec![analyze("crates/ml/src/par/thresholds.rs", good)], toml);
        assert!(out.is_empty(), "blessed module is clean: {out:?}");
    }

    #[test]
    fn explain_covers_both_rule_tables() {
        assert!(explain("D2").is_some());
        assert!(explain("A1").is_some());
        assert!(explain("A4").is_some());
        assert!(explain("Z9").is_none());
    }
}
