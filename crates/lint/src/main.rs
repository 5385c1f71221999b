//! `leaky-lint` CLI. See the crate docs ([`lint`]) for the rule set.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use lint::config::Severity;

struct Args {
    json: bool,
    explain: Option<String>,
    check_config: bool,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
}

const USAGE: &str = "\
leaky-lint — determinism & simulator-invariant static analysis

USAGE:
    leaky-lint [--json] [--root <dir>] [--config <lint.toml>]
    leaky-lint --explain <rule>
    leaky-lint --check-config [--root <dir>] [--config <lint.toml>]

OPTIONS:
    --json             machine-readable output (diagnostics + counts + run stats)
    --explain <rule>   print what a rule (D1..D8, A1..A4) means and how to fix it
    --check-config     audit lint.toml for stale allowlist entries and roots that
                       match no function; exit 1 if any
    --root <dir>       workspace root to lint (default: nearest dir with lint.toml,
                       else the workspace this binary was built from)
    --config <path>    config file (default: <root>/lint.toml)
    -h, --help         this text

EXIT STATUS:
    0  clean (warnings allowed)     1  error findings     2  usage/I/O failure
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        explain: None,
        check_config: false,
        root: None,
        config: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id argument")?)
            }
            "--check-config" => args.check_config = true,
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                ))
            }
            "--config" => {
                args.config = Some(PathBuf::from(
                    it.next().ok_or("--config needs a file argument")?,
                ))
            }
            "-h" | "--help" => {
                print!("{}", USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{}`", other)),
        }
    }
    Ok(args)
}

/// Nearest ancestor of the current directory containing `lint.toml`, falling
/// back to the workspace this binary was compiled in (so `cargo run -p lint`
/// works from any subdirectory of a checkout).
fn find_root() -> PathBuf {
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            if dir.join("lint.toml").is_file() {
                return dir;
            }
            if !dir.pop() {
                break;
            }
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leaky-lint: {}\n\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    };

    if let Some(id) = &args.explain {
        return match lint::arules::explain(id) {
            Some((name, text)) => {
                println!("{} ({})\n\n{}", id, name, text);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "leaky-lint: unknown rule `{}` (expected D1..D8 or A1..A4)",
                    id
                );
                ExitCode::from(2)
            }
        };
    }

    let root = args.root.clone().unwrap_or_else(find_root);
    let config = match &args.config {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {}", path.display(), e))
            .and_then(|src| {
                lint::config::Config::parse(&src).map_err(|e| format!("{}: {}", path.display(), e))
            }),
        None => lint::load_config(&root),
    };
    let config = match config {
        Ok(c) => c,
        Err(e) => {
            eprintln!("leaky-lint: {}", e);
            return ExitCode::from(2);
        }
    };

    if args.check_config {
        return match lint::check_config(&root, &config) {
            Ok(problems) if problems.is_empty() => {
                println!("leaky-lint: config clean (no stale allowlist entries or dead roots)");
                ExitCode::SUCCESS
            }
            Ok(problems) => {
                for p in &problems {
                    println!("leaky-lint: {}", p);
                }
                println!("leaky-lint: {} stale config entries", problems.len());
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("leaky-lint: {}", e);
                ExitCode::from(2)
            }
        };
    }

    let out = match lint::run(&root, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("leaky-lint: {}", e);
            return ExitCode::from(2);
        }
    };
    if args.json {
        println!("{}", lint::diag::render_json_full(&out.diags, &out.stats));
    } else {
        print!("{}", lint::diag::render_human(&out.diags));
    }
    let errors = out.diags.iter().any(|d| d.severity == Severity::Error);
    if errors {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
