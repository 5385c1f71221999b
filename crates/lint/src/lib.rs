//! # `lint` — the `leaky-lint` static analysis pass
//!
//! The workspace's reproduction contract is *bitwise determinism*: the same
//! seeds must produce the same traces, features, models and
//! `AttackReport`s on any machine, at any thread count, with the cache off
//! or warm. The runtime tests (`tests/determinism.rs`) sample a handful of
//! configurations; this crate enforces the invariants they rely on
//! *statically*, across every `.rs` file in the tree, on every CI run.
//!
//! Two rule families:
//!
//! - **D1–D8** ([`rules`]): token-level rules on one file at a time —
//!   wall-clock in kernels, hash-order iteration, unseeded RNG, undocumented
//!   `unsafe`, and friends.
//! - **A1–A4** ([`arules`]): semantic rules over the workspace call graph —
//!   hot-path allocation, panic-free serving, float reduction order, and
//!   threshold confinement. These parse every file into an item skeleton
//!   ([`parser`]), extract per-function facts ([`facts`]), stitch a
//!   workspace call graph ([`graph`]), and check reachability from
//!   configured roots.
//!
//! Every run analyses every file from scratch (lex → parse → facts → token
//! findings), then builds the call graph and applies policy. Severities and
//! path scoping live in the checked-in `lint.toml` at the workspace root;
//! the lexer is a hand-rolled token scanner (no `syn` — the workspace
//! builds offline against std-only stand-ins). Run it as:
//!
//! ```text
//! cargo run -p lint                  # human-readable report
//! cargo run -p lint -- --json        # machine-readable, for the CI jq gate
//! cargo run -p lint -- --sarif       # SARIF 2.1.0 for code scanning
//! cargo run -p lint -- --explain A1  # what a rule means and why
//! cargo run -p lint -- --check-config  # audit lint.toml for stale entries
//! ```
//!
//! Exit status: `0` clean (warnings allowed), `1` at least one
//! error-severity finding, `2` usage or I/O failure.

#![forbid(unsafe_code)]

pub mod arules;
pub mod config;
pub mod diag;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

use config::Config;
use diag::Diagnostic;
use graph::{FileUnit, Graph};
use rules::{RawAnalysis, Waivers};

/// Counters from one run, surfaced in `--json` output.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunStats {
    /// Files lexed and parsed this run.
    pub files_analyzed: usize,
    /// Call sites the graph could not resolve to a workspace function or
    /// plausibly attribute to std (see `graph::Graph::unresolved`).
    pub unresolved_calls: usize,
    /// Non-test functions indexed into the call graph.
    pub fns_indexed: usize,
}

/// Diagnostics plus run counters.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub diags: Vec<Diagnostic>,
    pub stats: RunStats,
}

/// Everything the linter derives from the files under `root`, before any
/// `lint.toml` policy: per file (in walk order) the item skeleton and
/// facts, the config-free token findings and the waiver table, plus the
/// call graph stitched from them. Each per-file part is a pure function of
/// that file's bytes, so [`check_config`] can re-apply policy under edited
/// configs without re-lexing.
struct FileAnalysis {
    crate_dirs: BTreeMap<String, String>,
    units: Vec<FileUnit>,
    raws: Vec<RawAnalysis>,
    waivers: Vec<Waivers>,
    graph: Graph,
}

impl FileAnalysis {
    /// Lexes, parses and extracts facts from every configured file.
    fn of(root: &Path, config: &Config) -> std::io::Result<FileAnalysis> {
        let mut units = Vec::new();
        let mut raws = Vec::new();
        let mut waivers = Vec::new();
        for rel in walk::rust_files(root, config)? {
            let src = std::fs::read_to_string(root.join(&rel))?;
            let lexed = lexer::lex(&src);
            let parsed = parser::parse(&lexed);
            let facts = facts::extract(&lexed, &parsed);
            raws.push(rules::raw_check(&lexed));
            waivers.push(Waivers::harvest(&lexed));
            units.push(FileUnit { rel, parsed, facts });
        }
        let crate_dirs = discover_crates(root);
        let graph = Graph::build(&units, &crate_dirs);
        Ok(FileAnalysis {
            crate_dirs,
            units,
            raws,
            waivers,
            graph,
        })
    }

    /// Applies `config`: token findings per file, then the A-rules over the
    /// call graph, in canonical report order.
    fn diagnostics(&self, config: &Config) -> Vec<Diagnostic> {
        let mut diags: Vec<Diagnostic> = self
            .units
            .iter()
            .zip(&self.raws)
            .zip(&self.waivers)
            .flat_map(|((u, raw), w)| rules::report(&u.rel, raw, w, config))
            .collect();
        diags.extend(arules::check(
            &self.units,
            &self.waivers,
            &self.graph,
            &self.crate_dirs,
            config,
        ));
        diag::sort(&mut diags);
        diags
    }
}

/// Lints every configured file under `root`: token rules per file, then
/// the semantic A-rules over the workspace call graph.
pub fn run(root: &Path, config: &Config) -> std::io::Result<RunOutput> {
    let analysis = FileAnalysis::of(root, config)?;
    Ok(RunOutput {
        diags: analysis.diagnostics(config),
        stats: RunStats {
            files_analyzed: analysis.units.len(),
            unresolved_calls: analysis.graph.unresolved.len(),
            fns_indexed: analysis.graph.nodes.len(),
        },
    })
}

/// Maps workspace member directories (`crates/core`) to package names
/// (`moscons`) by scanning each member's `Cargo.toml` for its first
/// `name = "…"` line. Falls back to the directory name; files outside any
/// member land in a synthetic `workspace` crate.
pub fn discover_crates(root: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return out;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Some(dir_name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let manifest = dir.join("Cargo.toml");
        let name = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|src| {
                src.lines().find_map(|l| {
                    let l = l.trim();
                    let rest = l.strip_prefix("name")?.trim_start().strip_prefix('=')?;
                    let rest = rest.trim();
                    let rest = rest.strip_prefix('"')?;
                    Some(rest[..rest.find('"')?].to_string())
                })
            })
            .unwrap_or_else(|| dir_name.clone());
        if manifest.exists() {
            out.insert(format!("crates/{dir_name}"), name);
        }
    }
    out
}

/// Audits `lint.toml` for stale allowlist entries: an `allow` path that
/// prefixes zero walked files, or whose removal changes no diagnostic
/// (it suppresses nothing — for D5, no `unsafe` left under it; for A4, no
/// gate lives there). Returns human-readable problems, empty when clean.
///
/// The files are analysed once; only the policy passes re-run per
/// candidate entry.
pub fn check_config(root: &Path, config: &Config) -> std::io::Result<Vec<String>> {
    let analysis = FileAnalysis::of(root, config)?;
    let baseline = analysis.diagnostics(config);

    let mut problems = Vec::new();
    for (id, rc) in &config.rules {
        for entry in &rc.allow {
            if !analysis
                .units
                .iter()
                .any(|u| u.rel.starts_with(entry.as_str()))
            {
                problems.push(format!(
                    "rules.{id}.allow entry `{entry}` matches zero linted files"
                ));
                continue;
            }
            let mut cfg2 = config.clone();
            if let Some(rc2) = cfg2.rules.get_mut(id) {
                rc2.allow.retain(|e| e != entry);
            }
            if analysis.diagnostics(&cfg2) == baseline {
                problems.push(format!(
                    "rules.{id}.allow entry `{entry}` suppresses zero findings (stale)"
                ));
            }
        }
    }
    Ok(problems)
}

/// Loads `lint.toml` from `root`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {}", path.display(), e))?;
    Config::parse(&src).map_err(|e| format!("{}: {}", path.display(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_crates_maps_this_workspace() {
        // The lint crate's own manifest dir is crates/lint, two up is root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let map = discover_crates(&root);
        assert_eq!(map.get("crates/lint").map(String::as_str), Some("lint"));
        assert!(map.contains_key("crates/ml"));
        assert!(map.contains_key("crates/core"));
    }
}
