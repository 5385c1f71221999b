//! Diagnostics and the two output formats (human-readable, `--json`).
//!
//! JSON is emitted by hand — the schema is four flat string/number fields
//! per finding, and keeping the linter dependency-free means its output
//! can never be corrupted by a bug in the serialization layer it is
//! supposed to be policing.

use crate::config::Severity;

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule id, e.g. `D2`.
    pub rule: &'static str,
    /// Short rule name, e.g. `hash-iteration`.
    pub name: &'static str,
    pub severity: Severity,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// Sorts diagnostics into the canonical (path, line, rule) report order —
/// the linter's own output must be deterministic.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Renders the human-readable report.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}: [{}/{}] {}:{}: {}\n",
            d.severity, d.rule, d.name, d.path, d.line, d.message
        ));
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "leaky-lint: {} error{}, {} warning{}\n",
        errors,
        if errors == 1 { "" } else { "s" },
        warnings,
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

/// Renders the `--json` report:
/// `{"diagnostics":[{"rule","name","severity","path","line","message"}...],
///   "errors":N,"warnings":N}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"name\":{},\"severity\":{},\"path\":{},\"line\":{},\"message\":{}}}",
            json_str(d.rule),
            json_str(d.name),
            json_str(&d.severity.to_string()),
            json_str(&d.path),
            d.line,
            json_str(&d.message),
        ));
    }
    out.push_str(&format!(
        "],\"errors\":{},\"warnings\":{}}}",
        errors, warnings
    ));
    out
}

/// [`render_json`] plus a trailing `"stats"` object. The `diagnostics` /
/// `errors` / `warnings` keys keep their exact shape — CI's
/// `jq -e '.errors == 0'` gate must not notice the difference.
pub fn render_json_full(diags: &[Diagnostic], stats: &crate::RunStats) -> String {
    let base = render_json(diags);
    format!(
        "{},\"stats\":{{\"files_analyzed\":{},\"unresolved_calls\":{},\"fns_indexed\":{}}}}}",
        &base[..base.len() - 1],
        stats.files_analyzed,
        stats.unresolved_calls,
        stats.fns_indexed,
    )
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, path: &str, line: u32, sev: Severity) -> Diagnostic {
        Diagnostic {
            rule,
            name: "test",
            severity: sev,
            path: path.into(),
            line,
            message: format!("finding at {}:{}", path, line),
        }
    }

    #[test]
    fn sort_is_by_path_line_rule() {
        let mut diags = vec![
            d("D2", "b.rs", 4, Severity::Error),
            d("D1", "b.rs", 4, Severity::Warn),
            d("D5", "a.rs", 9, Severity::Error),
        ];
        sort(&mut diags);
        let order: Vec<(&str, u32, &str)> = diags
            .iter()
            .map(|x| (x.path.as_str(), x.line, x.rule))
            .collect();
        assert_eq!(
            order,
            vec![("a.rs", 9, "D5"), ("b.rs", 4, "D1"), ("b.rs", 4, "D2")]
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            rule: "D6",
            name: "debug-key",
            severity: Severity::Error,
            path: "crates/core/src/cache.rs".into(),
            line: 3,
            message: "`{:?}` with \"quotes\"\nand newline".into(),
        }];
        let json = render_json(&diags);
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.ends_with("\"errors\":1,\"warnings\":0}"));
    }

    #[test]
    fn human_summary_counts() {
        let diags = vec![
            d("D1", "a.rs", 1, Severity::Error),
            d("D2", "a.rs", 2, Severity::Warn),
        ];
        let text = render_human(&diags);
        assert!(text.contains("1 error, 1 warning"));
    }
}
