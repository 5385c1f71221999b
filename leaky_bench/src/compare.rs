//! `leaky_bench compare <dirA> <dirB>`: two sets of result files, side by
//! side. For each (workload, mode, metric) it prints each side's quartiles
//! and a verdict under the metric's `BENCHMARK.json` bound:
//!
//! * `same` — B's median is within the bound of A's;
//! * `better` / `worse` — beyond the bound, in the metric's direction;
//! * `unresolved` — a side's quartile spread is wider than the bound, and
//!   not every run of B beats (or loses to) every run of A;
//! * `-` — the metric has no bound (per-layer metrics).
//!
//! Deterministic results (the output digest and accuracies) must match
//! exactly between every pair of runs with the same seed.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::stats::quartiles;
use crate::Spec;

/// Runs each side needs per group before a verdict means anything.
const MIN_RUNS: usize = 5;

struct RunResult {
    file: String,
    seed: u64,
    metrics: Vec<(String, f64)>,
    deterministic: Vec<(String, Value)>,
}

type Groups = BTreeMap<(String, bool), Vec<RunResult>>;

fn load(dir: &Path) -> Result<Groups, String> {
    let mut groups = Groups::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let v = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
        let (Some(workload), Some(trace), Some(seed)) = (
            v["workload"].as_str(),
            v["trace"].as_bool(),
            v["seed"].as_u64(),
        ) else {
            return Err(format!("{name}: not a leaky_bench result"));
        };
        let fields = |key: &str| match &v[key] {
            Value::Object(f) => f.clone(),
            _ => Vec::new(),
        };
        groups
            .entry((workload.to_string(), trace))
            .or_default()
            .push(RunResult {
                file: name.to_string(),
                seed,
                metrics: fields("metrics")
                    .into_iter()
                    .filter_map(|(k, m)| Some((k, m["value"].as_f64()?)))
                    .collect(),
                deterministic: fields("deterministic"),
            });
    }
    Ok(groups)
}

fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: Option<f64>) -> &'static str {
    let (Some((a1, am, a3)), Some((b1, bm, b3)), Some(bound)) = (quartiles(a), quartiles(b), bound)
    else {
        return "-";
    };
    // Oriented so that positive means "B is worse".
    let worse_by = |x: f64, base: f64| {
        let d = if higher_is_better { base - x } else { x - base };
        if base == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                d.signum() * f64::INFINITY
            }
        } else {
            d / base.abs()
        }
    };
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    if spread(a1, a3, am).max(spread(b1, b3, bm)) > bound {
        let beats = |x: f64, y: f64| worse_by(x, y) < 0.0;
        if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
            return "better";
        }
        if a.iter().all(|&y| b.iter().all(|&x| beats(y, x))) {
            return "worse";
        }
        return "unresolved";
    }
    let d = worse_by(bm, am);
    if d > bound {
        "worse"
    } else if d < -bound {
        "better"
    } else {
        "same"
    }
}

/// Every deterministic field must read the same in every run of a seed.
fn deterministic_mismatches(runs: &[&RunResult]) -> Vec<String> {
    let mut first: BTreeMap<(u64, &str), (&str, &Value)> = BTreeMap::new();
    let mut out = Vec::new();
    for r in runs {
        for (k, v) in &r.deterministic {
            match first.get(&(r.seed, k.as_str())) {
                Some((file, v0)) if *v0 != v => out.push(format!(
                    "seed {}: {k} is {v0} in {file} but {v} in {}",
                    r.seed, r.file
                )),
                Some(_) => {}
                None => {
                    first.insert((r.seed, k.as_str()), (r.file.as_str(), v));
                }
            }
        }
    }
    out
}

pub fn main(spec: &Spec, dir_a: &Path, dir_b: &Path) -> i32 {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("leaky_bench compare: {e}");
            return 2;
        }
    };
    let mut failed = false;
    let mut compared = 0;
    for (key, runs_a) in &a {
        let Some(runs_b) = b.get(key) else { continue };
        let (workload, trace) = key;
        let mode = if *trace { "traced" } else { "untraced" };
        if runs_a.len() < MIN_RUNS || runs_b.len() < MIN_RUNS {
            eprintln!(
                "leaky_bench compare: {workload} ({mode}) has {} and {} runs; needs {MIN_RUNS} per side",
                runs_a.len(),
                runs_b.len()
            );
            return 2;
        }
        compared += 1;
        println!(
            "\n{workload} ({mode}): A {} runs, B {} runs",
            runs_a.len(),
            runs_b.len()
        );
        let all: Vec<&RunResult> = runs_a.iter().chain(runs_b).collect();
        for m in deterministic_mismatches(&all) {
            println!("  MISMATCH {m}");
            failed = true;
        }
        let mut names: Vec<&str> = Vec::new();
        for r in &all {
            for (name, _) in &r.metrics {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
        }
        println!(
            "  {:<40} {:>36} {:>36}  verdict",
            "metric", "A q1 / median / q3", "B q1 / median / q3"
        );
        for name in names {
            let values = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1))
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            let m = spec.metric(name);
            let v = verdict(
                &va,
                &vb,
                m.is_some_and(|m| m.higher_is_better),
                m.and_then(|m| m.bound),
            );
            failed |= matches!(v, "worse" | "unresolved");
            let fmt = |v: &[f64]| match quartiles(v) {
                Some((q1, med, q3)) => format!("{q1:.4} / {med:.4} / {q3:.4}"),
                None => "n/a".to_string(),
            };
            println!("  {name:<40} {:>36} {:>36}  {v}", fmt(&va), fmt(&vb));
        }
    }
    if compared == 0 {
        eprintln!("leaky_bench compare: no workload has results on both sides");
        return 2;
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [101.0, 102.0, 100.0, 101.5, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &same, false, Some(0.1)), "same");
        assert_eq!(verdict(&a, &slower, false, Some(0.1)), "worse");
        assert_eq!(verdict(&slower, &a, false, Some(0.1)), "better");
        // Higher is better: the larger values win.
        assert_eq!(verdict(&a, &slower, true, Some(0.1)), "better");
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&a, &noisy, false, Some(0.1)), "unresolved");
        assert_eq!(verdict(&a, &same, false, None), "-");
    }
}
