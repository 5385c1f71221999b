//! Self-tests for `leaky-lint`: every rule fires on its `bad/` fixture and
//! stays silent on its `good/` twin, the CLI exit codes match, and — the
//! meta-test the whole PR rides on — the live workspace is clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use lint::config::{Config, Severity};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn load(config_name: &str) -> Config {
    let src = std::fs::read_to_string(fixtures_root().join(config_name)).expect("fixture config");
    Config::parse(&src).expect("fixture config parses")
}

/// Every D-rule must fire at least once on the bad corpus, and each bad
/// fixture must trip exactly the rule it is named for.
#[test]
fn every_rule_fires_on_its_bad_fixture() {
    let diags = lint::run(&fixtures_root(), &load("lint-bad.toml"))
        .expect("lint runs")
        .diags;
    let fired: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
    let all: BTreeSet<&str> = lint::rules::RULES
        .iter()
        .map(|r| r.id)
        .chain(lint::arules::SEM_RULES.iter().map(|r| r.id))
        .collect();
    assert_eq!(fired, all, "rules that never fired are untested");

    for d in &diags {
        let file = d.path.rsplit('/').next().unwrap();
        let expected_prefix = d.rule.to_lowercase(); // "d2" from "D2"
        assert!(
            file.starts_with(&expected_prefix),
            "{} fired on {} — cross-contaminated fixture (message: {})",
            d.rule,
            d.path,
            d.message
        );
        assert_eq!(d.severity, Severity::Error);
    }
}

/// The good corpus — including the `// lint: sorted` waiver and the
/// SAFETY-comment-in-allowlisted-file case — produces no findings at all.
#[test]
fn good_fixtures_are_clean() {
    let diags = lint::run(&fixtures_root(), &load("lint-good.toml"))
        .expect("lint runs")
        .diags;
    assert!(
        diags.is_empty(),
        "good fixtures flagged: {:#?}",
        diags
            .iter()
            .map(|d| format!("{} {}:{} {}", d.rule, d.path, d.line, d.message))
            .collect::<Vec<_>>()
    );
}

/// The CLI contract CI relies on: non-zero + populated JSON on bad input,
/// zero + empty diagnostics on good input.
#[test]
fn cli_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_leaky-lint");
    let root = fixtures_root();

    let bad = Command::new(bin)
        .args(["--json", "--root"])
        .arg(&root)
        .arg("--config")
        .arg(root.join("lint-bad.toml"))
        .output()
        .expect("spawn leaky-lint");
    assert_eq!(bad.status.code(), Some(1), "bad corpus must exit 1");
    let json = String::from_utf8(bad.stdout).expect("utf8");
    assert!(
        json.contains("\"rule\":\"D1\""),
        "json lists findings: {}",
        json
    );
    assert!(!json.contains("\"errors\":0"), "error count is non-zero");

    let good = Command::new(bin)
        .args(["--json", "--root"])
        .arg(&root)
        .arg("--config")
        .arg(root.join("lint-good.toml"))
        .output()
        .expect("spawn leaky-lint");
    assert_eq!(good.status.code(), Some(0), "good corpus must exit 0");
    let json = String::from_utf8(good.stdout).expect("utf8");
    assert!(json.contains("\"diagnostics\":[]"), "no findings: {}", json);
    assert!(json.contains("\"errors\":0"));
}

/// Meta-test: the live workspace is clean under the checked-in lint.toml.
/// This is the same invocation the CI `lint` job gates on.
#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let config = lint::load_config(&root).expect("workspace lint.toml parses");
    let diags = lint::run(&root, &config).expect("lint runs").diags;
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{} {}:{} {}", d.rule, d.path, d.line, d.message))
        .collect();
    assert!(
        errors.is_empty(),
        "workspace has determinism-invariant violations:\n{}",
        errors.join("\n")
    );
}

/// The workspace config keeps all seven rules enabled at error severity —
/// a config edit that silently disables a rule fails here, not in review.
#[test]
fn workspace_config_enables_all_rules() {
    let config = lint::load_config(&workspace_root()).expect("workspace lint.toml parses");
    let ids = lint::rules::RULES
        .iter()
        .map(|r| (r.id, r.name))
        .chain(lint::arules::SEM_RULES.iter().map(|r| (r.id, r.name)));
    for (id, name) in ids {
        assert_eq!(
            config.rule(id).severity,
            Some(Severity::Error),
            "rule {} ({}) must stay at error severity",
            id,
            name
        );
    }
}

/// SARIF output on the bad corpus: the 2.1.0 shape GitHub code-scanning
/// ingests — schema pointer, tool driver with rule metadata, results with
/// ruleId/level/physicalLocation.
#[test]
fn cli_sarif_shape() {
    let bin = env!("CARGO_BIN_EXE_leaky-lint");
    let root = fixtures_root();
    let out = Command::new(bin)
        .args(["--sarif", "--root"])
        .arg(&root)
        .arg("--config")
        .arg(root.join("lint-bad.toml"))
        .output()
        .expect("spawn leaky-lint");
    assert_eq!(out.status.code(), Some(1), "bad corpus still exits 1");
    let sarif = String::from_utf8(out.stdout).expect("utf8");
    for needle in [
        "sarif-schema-2.1.0",
        "\"version\": \"2.1.0\"",
        "\"driver\"",
        "\"ruleId\"",
        "\"level\"",
        "\"artifactLocation\"",
        "\"startLine\"",
    ] {
        assert!(
            sarif.contains(needle),
            "SARIF missing {}: {}",
            needle,
            sarif
        );
    }
    // Every rule family that fired in JSON shows up as a SARIF result too.
    for id in ["A1", "A2", "A3", "A4", "D1"] {
        assert!(
            sarif.contains(&format!("\"ruleId\": \"{}\"", id)),
            "no SARIF result for {}",
            id
        );
    }
}

/// `--explain` prints the rationale for token and semantic rules alike, and
/// exits 2 on an unknown id.
#[test]
fn cli_explain() {
    let bin = env!("CARGO_BIN_EXE_leaky-lint");
    for (id, needle) in [("D1", "wall-clock"), ("A3", "non-associative")] {
        let out = Command::new(bin)
            .args(["--explain", id])
            .output()
            .expect("spawn leaky-lint");
        assert_eq!(out.status.code(), Some(0), "--explain {} exits 0", id);
        let text = String::from_utf8(out.stdout).expect("utf8").to_lowercase();
        assert!(
            text.contains(needle),
            "--explain {} mentions {}",
            id,
            needle
        );
    }
    let out = Command::new(bin)
        .args(["--explain", "Z9"])
        .output()
        .expect("spawn leaky-lint");
    assert_eq!(out.status.code(), Some(2), "unknown rule id exits 2");
}

/// Linting is read-only: a run over a tree leaves that tree's file list
/// exactly as it found it.
#[test]
fn cli_writes_nothing_under_the_root() {
    let dir = std::env::temp_dir().join(format!("leaky-lint-readonly-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("bad")).expect("create temp tree");
    std::fs::copy(
        fixtures_root().join("bad/d1_wallclock.rs"),
        dir.join("bad/d1_wallclock.rs"),
    )
    .expect("copy fixture");
    std::fs::write(dir.join("lint.toml"), "[paths]\ninclude = [\"bad\"]\n").expect("write config");

    fn list(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                list(&path, out);
            }
            out.push(path);
        }
    }
    let mut before = Vec::new();
    list(&dir, &mut before);
    before.sort();

    let out = Command::new(env!("CARGO_BIN_EXE_leaky-lint"))
        .args(["--json", "--root"])
        .arg(&dir)
        .arg("--config")
        .arg(dir.join("lint.toml"))
        .output()
        .expect("spawn leaky-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "the copied D1 fixture still fires"
    );

    let mut after = Vec::new();
    list(&dir, &mut after);
    after.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(before, after, "leaky-lint wrote under its root");
}

/// `--check-config` names both kinds of stale entry, in config order: one
/// that matches a linted file but suppresses nothing, and one that matches
/// no file at all.
#[test]
fn check_config_reports_stale_entries() {
    let root = fixtures_root();
    let mut config = load("lint-good.toml");
    assert_eq!(
        lint::check_config(&root, &config).expect("check runs"),
        Vec::<String>::new(),
        "the good fixture config is clean"
    );
    config
        .rules
        .get_mut("D8")
        .expect("lint-good.toml configures D8")
        .allow
        .extend([
            "good/d2_btree.rs".to_string(),
            "good/missing.rs".to_string(),
        ]);
    assert_eq!(
        lint::check_config(&root, &config).expect("check runs"),
        vec![
            "rules.D8.allow entry `good/d2_btree.rs` suppresses zero findings (stale)".to_string(),
            "rules.D8.allow entry `good/missing.rs` matches zero linted files".to_string(),
        ]
    );
}

/// The checked-in workspace config carries no stale allowlist entries —
/// the same gate `--check-config` enforces in CI.
#[test]
fn workspace_config_has_no_stale_allows() {
    let root = workspace_root();
    let config = lint::load_config(&root).expect("workspace lint.toml parses");
    let problems = lint::check_config(&root, &config).expect("check runs");
    assert!(
        problems.is_empty(),
        "stale allowlist entries:\n{}",
        problems.join("\n")
    );
}

/// Property: the parser-side waiver lookup (`ParsedFile::waived`) and the
/// lexer-side table (`rules::Waivers`) agree on every (line, rule) pair of
/// a randomized source file — same comment forms, same one-line window.
#[test]
fn waiver_lookups_round_trip() {
    use lint::lexer::lex;
    use lint::parser::ParsedFile;
    use lint::rules::Waivers;

    let rules = ["A1", "A2", "A3", "A4", "D2", "D7"];
    let line_gen = testkit::gen::choice(vec![
        "fn f() { let v = xs[i]; }".to_string(),
        "let mut acc: f32 = 0.0;".to_string(),
        "// plain comment".to_string(),
        "// lint: allow(A1)".to_string(),
        "// lint: allow(A2)".to_string(),
        "// lint: allow(D2)".to_string(),
        "// cold-init scratch, one per session. lint: allow(A1)".to_string(),
        "let x = y.unwrap(); // lint: allow(A2)".to_string(),
        "// lint: sorted".to_string(),
        "// lint: allow(A3) lint: allow(A4)".to_string(),
        String::new(),
    ]);
    let src_gen = testkit::gen::vec_of(line_gen, 1, 24).map(|lines| lines.join("\n"));
    testkit::prop::check("waiver_lookups_round_trip", &src_gen, |src| {
        let lexed = lex(src);
        let table = Waivers::harvest(&lexed);
        let n_lines = src.lines().count() as u32 + 2;
        for line in 1..=n_lines {
            for rule in rules {
                let via_parser = ParsedFile::waived(&lexed, line, rule);
                let via_table = table.allowed(line, rule);
                if via_parser != via_table {
                    return Err(format!(
                        "line {} rule {}: parser={} table={}",
                        line, rule, via_parser, via_table
                    ));
                }
            }
        }
        Ok(())
    });
}
