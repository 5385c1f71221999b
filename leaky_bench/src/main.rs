//! `leaky_bench` — one benchmark for the MoSConS attack pipeline.
//!
//! ```text
//! leaky_bench run --workload <profile|attack|rescore|fleet> [--seed N]
//!                 [--seconds S] [--trace 0|1] [--out DIR]
//! leaky_bench compare <dirA> <dirB>
//! ```
//!
//! `run` prints every metric by name with its unit, checks the program's
//! outputs, writes a JSON result (and, traced, a Chrome trace) under `DIR`
//! (default `target/leaky-bench`), and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero when
//! a check fails. `compare` reads two directories of results. The metric
//! names, units and bounds are those of the repository's `BENCHMARK.json`.

mod compare;
mod procfs;
mod replica;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use serde_json::Value;

use run::{Metric, Options, Outcome};

/// The benchmark's definition: metric names, units and bounds.
const SPEC: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let v = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            v[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| MetricSpec {
                    name: m["name"].as_str().expect("name").to_string(),
                    unit: m["unit"].as_str().expect("unit").to_string(),
                    higher_is_better: m["better"] == "higher",
                    bound: m["bound"].as_f64(),
                })
                .collect()
        };
        Spec {
            run_seconds: v["run_seconds"].as_f64().expect("run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

const USAGE: &str = "usage: leaky_bench run --workload <profile|attack|rescore|fleet> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     leaky_bench compare <dirA> <dirB>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..], &spec) {
            Ok((opts, out)) => run_main(&opts, &out, &spec),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some("compare") if args.len() == 3 => {
            compare::main(&spec, Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_run(args: &[String], spec: &Spec) -> Result<(Options, PathBuf), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec.run_seconds;
    let mut trace = false;
    let mut out = PathBuf::from("target/leaky-bench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((Options::new(&workload, seed, seconds, trace), out))
}

/// The library reads `LEAKY_*` knobs (threads, SIMD, pool, cache, stream
/// chunk); any of them would measure something other than the default
/// program.
fn leaky_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LEAKY_"))
        .collect()
}

fn run_main(opts: &Options, out: &Path, spec: &Spec) -> i32 {
    let knobs = leaky_env();
    if !knobs.is_empty() {
        eprintln!(
            "leaky_bench measures the default program; unset {}",
            knobs.join(", ")
        );
        return 2;
    }
    let mut outcome = match run::run(opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("leaky_bench: {e}");
            return 2;
        }
    };
    let mismatches = spec_mismatches(spec, opts.trace, &outcome.metrics);
    outcome.errors.extend(mismatches);
    let h = &outcome.header;
    println!(
        "leaky_bench {}: seed {}, {} s, trace {}; cores {}, pool_threads {}, simd {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, h.cores, h.pool_threads, h.simd
    );
    for (what, n) in &outcome.samples {
        println!("  samples {what:<28} {n}");
    }
    println!("  outputs_digest {:016x}", outcome.digest);
    println!("  deterministic:");
    for line in render(&outcome.deterministic) {
        println!("{line}");
    }
    println!("  gated:");
    for line in render(&outcome.metrics) {
        println!("{line}");
    }
    println!("  not gated:");
    for line in render(&outcome.info) {
        println!("{line}");
    }
    for e in &outcome.errors {
        println!("  CHECK FAILED: {e}");
    }
    if let Err(e) = write_files(opts, out, &outcome) {
        eprintln!(
            "leaky_bench: cannot write results under {}: {e}",
            out.display()
        );
        return 2;
    }
    println!("{}", summary(&outcome));
    if outcome.errors.is_empty() {
        0
    } else {
        1
    }
}

/// One line per metric: name, value with all its digits, unit.
pub fn render(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| format!("  {:<40} {} {}", m.name, m.value, m.unit))
        .collect()
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Number(m.value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output.
fn summary(o: &Outcome) -> String {
    let v = Value::Object(vec![
        ("correct".to_string(), Value::Bool(o.errors.is_empty())),
        ("attempted".to_string(), Value::Number(o.attempted as f64)),
        ("failed".to_string(), Value::Number(o.failed as f64)),
        ("metrics".to_string(), metrics_value(&o.metrics)),
    ]);
    v.to_string()
}

fn write_files(opts: &Options, out: &Path, o: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let num = |x: f64| Value::Number(x);
    let deterministic = std::iter::once((
        "outputs_digest".to_string(),
        Value::String(format!("{:016x}", o.digest)),
    ))
    .chain(
        o.deterministic
            .iter()
            .map(|m| (m.name.clone(), num(m.value))),
    )
    .collect();
    let result = Value::Object(vec![
        ("workload".to_string(), Value::String(opts.workload.clone())),
        ("seed".to_string(), num(opts.seed as f64)),
        ("seconds".to_string(), num(opts.seconds)),
        ("trace".to_string(), Value::Bool(opts.trace)),
        (
            "header".to_string(),
            Value::Object(vec![
                ("cores".to_string(), num(o.header.cores as f64)),
                (
                    "pool_threads".to_string(),
                    num(o.header.pool_threads as f64),
                ),
                ("simd".to_string(), Value::Bool(o.header.simd)),
                ("seed".to_string(), num(o.header.seed as f64)),
            ]),
        ),
        ("correct".to_string(), Value::Bool(o.errors.is_empty())),
        ("attempted".to_string(), num(o.attempted as f64)),
        ("failed".to_string(), num(o.failed as f64)),
        (
            "samples".to_string(),
            Value::Object(
                o.samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), num(*n as f64)))
                    .collect(),
            ),
        ),
        ("deterministic".to_string(), Value::Object(deterministic)),
        ("metrics".to_string(), metrics_value(&o.metrics)),
        ("info".to_string(), metrics_value(&o.info)),
        (
            "setup_s".to_string(),
            Value::Array(o.setup_s.iter().copied().map(num).collect()),
        ),
        (
            "op_ms".to_string(),
            Value::Array(
                o.op_ms
                    .iter()
                    .map(|ms| ms.map_or(Value::Null, num))
                    .collect(),
            ),
        ),
        (
            "errors".to_string(),
            Value::Array(o.errors.iter().cloned().map(Value::String).collect()),
        ),
    ]);
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let kind = if opts.trace { "trace" } else { "run" };
    let path = out.join(format!(
        "{}-s{}-{kind}-{stamp}.json",
        opts.workload, opts.seed
    ));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&result).expect("serializes"),
    )?;
    println!("  result -> {}", path.display());
    if opts.trace {
        let path = out.join(format!("{}.trace.json", opts.workload));
        std::fs::write(&path, spans::chrome_trace(&o.spans))?;
        println!("  trace  -> {}", path.display());
    }
    Ok(())
}

/// The run must produce exactly the metrics the definition lists for its
/// mode, with the listed units. Off Linux the process probe has no
/// readings, so its metrics may be absent.
fn spec_mismatches(spec: &Spec, trace: bool, metrics: &[Metric]) -> Vec<String> {
    let listed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut errors = Vec::new();
    for m in listed {
        match metrics.iter().find(|x| x.name == m.name) {
            Some(x) if x.unit != m.unit => errors.push(format!(
                "metric {} has unit {}, BENCHMARK.json says {}",
                m.name, x.unit, m.unit
            )),
            None if cfg!(target_os = "linux") => {
                errors.push(format!("metric {} was not measured", m.name))
            }
            _ => {}
        }
    }
    for x in metrics {
        if !listed.iter().any(|m| m.name == x.name) {
            errors.push(format!("metric {} is not in BENCHMARK.json", x.name));
        }
    }
    errors
}

#[cfg(test)]
mod tests;
