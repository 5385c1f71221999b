//! Property-based tests for the attack pipeline's pure stages.

use std::fmt::Debug;

use dnn_sim::OpClass;
use moscons::dataset::{counter_features, filter_valid_iterations};
use moscons::opseq::{
    collapse, forward_boundary, parse_forward_layers_zoo, RecoveredGraph, RecoveredKind, Skip,
};
use moscons::report::lcs_pairs;
use moscons::stream::SegmentSplitter;
use moscons::syntax::{correct_graph, SyntaxConfig};
use testkit::gen::{bool_with, choice, f32_in, u64_in, usize_in, vec_of, zip2, Gen};
use testkit::prop::holds;
use testkit::Config;

/// Runs `prop` over 128 cases — these stages are cheap, so twice the
/// testkit default — and panics with the replayable report on failure.
fn check<T: Clone + Debug + 'static>(
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let cfg = Config {
        cases: 128,
        ..Config::from_env()
    };
    if let Err(failure) = testkit::check_with(name, &cfg, gen, prop) {
        panic!("{}", failure.report());
    }
}

fn classes() -> Gen<Vec<OpClass>> {
    let class = choice(vec![
        OpClass::Conv,
        OpClass::MatMul,
        OpClass::BiasAdd,
        OpClass::Relu,
        OpClass::Tanh,
        OpClass::Sigmoid,
        OpClass::Pool,
        OpClass::Optimizer,
        OpClass::Nop,
    ]);
    vec_of(class, 0, 199)
}

#[test]
fn split_segments_are_sorted_disjoint_and_busy_bounded() {
    let cases = zip2(vec_of(bool_with(0.5), 0, 299), usize_in(1, 7));
    check("split_segments", &cases, |(nops, th)| {
        let segs = SegmentSplitter::segments(nops.iter().copied(), *th);
        let mut prev_end = 0usize;
        for s in &segs {
            holds(s.start >= prev_end, "segments overlap or unsorted")?;
            holds(s.end <= nops.len(), "segment past the end")?;
            holds(s.start < s.end, "empty segment")?;
            // Segments start and end on busy samples.
            holds(!nops[s.start], "segment starts on a NOP")?;
            holds(!nops[s.end - 1], "segment ends on a NOP")?;
            // No NOP run of >= th inside a segment.
            let mut run = 0usize;
            for i in s.clone() {
                if nops[i] {
                    run += 1;
                    holds(run < *th, "long NOP run inside a segment")?;
                } else {
                    run = 0;
                }
            }
            prev_end = s.end;
        }
        // Splitting drops only NOPs: every busy sample lies in a segment.
        let busy_in_segments: usize = segs
            .iter()
            .map(|s| nops[s.clone()].iter().filter(|&&n| !n).count())
            .sum();
        let busy_total = nops.iter().filter(|&&n| !n).count();
        holds(
            busy_in_segments == busy_total,
            format!("{busy_in_segments} of {busy_total} busy samples in segments"),
        )
    });
}

#[test]
fn filter_keeps_only_banded_segments() {
    check(
        "filter_banded_segments",
        &vec_of(usize_in(1, 199), 1, 19),
        |lens| {
            let mut segs = Vec::new();
            let mut start = 0usize;
            for l in lens {
                segs.push(start..start + l);
                start += l;
            }
            let kept = filter_valid_iterations(segs.clone(), 0.8, 1.2);
            let mut sorted = lens.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2] as f64;
            let in_band = |s: &std::ops::Range<usize>| {
                let l = s.len() as f64;
                l >= 0.8 * median && l <= 1.2 * median
            };
            holds(kept.iter().all(in_band), "kept an out-of-band segment")?;
            // Everything in-band is kept.
            let expected = segs.iter().filter(|s| in_band(s)).count();
            holds(
                kept.len() == expected,
                format!("kept {} of {expected} in-band segments", kept.len()),
            )
        },
    );
}

#[test]
fn collapse_runs_partition_the_busy_samples() {
    check("collapse_partition", &classes(), |classes| {
        let runs = collapse(classes);
        let mut covered = vec![false; classes.len()];
        let mut prev_end: Option<usize> = None;
        for r in &runs {
            holds(r.start <= r.end, "inverted run")?;
            holds(r.end < classes.len(), "run past the end")?;
            holds(r.class != OpClass::Nop, "NOP run")?;
            if let Some(pe) = prev_end {
                holds(r.start > pe, "runs out of order")?;
            }
            prev_end = Some(r.end);
            // Run endpoints carry the run's class.
            holds(
                classes[r.start] == r.class && classes[r.end] == r.class,
                "run endpoint of another class",
            )?;
            covered[r.start..=r.end].fill(true);
        }
        // Every non-NOP sample is inside some run.
        match (0..classes.len()).find(|&i| classes[i] != OpClass::Nop && !covered[i]) {
            Some(i) => Err(format!("busy sample {i} uncovered")),
            None => Ok(()),
        }
    });
}

#[test]
fn forward_boundary_is_a_valid_index_and_parse_is_sane() {
    check("boundary_and_parse", &classes(), |classes| {
        let boundary = forward_boundary(classes);
        holds(boundary <= classes.len(), "boundary past the end")?;
        let runs = collapse(classes);
        let layers = parse_forward_layers_zoo(&runs, boundary).layers;
        // Layers never exceed the run count and their sample anchors are
        // within the boundary region (anchors may trail into the last run).
        holds(layers.len() <= runs.len(), "more layers than runs")?;
        holds(
            layers.iter().all(|l| l.last_sample < classes.len().max(1)),
            "layer anchor past the end",
        )
    });
}

#[test]
fn syntax_correction_spares_skip_branches_and_keeps_its_rules() {
    // The zoo alphabet: the classic classes, then `Add`, `Softmax`,
    // `LayerNorm` and `Depthwise`, so the parse yields skip edges.
    let zoo_classes = vec_of(choice(OpClass::ALL.to_vec()), 0, 199);
    check("correct_graph", &zoo_classes, |classes| {
        let mut before = parse_forward_layers_zoo(&collapse(classes), forward_boundary(classes));
        // Tag each layer with its index; the corrector never reads the tag.
        for (i, l) in before.layers.iter_mut().enumerate() {
            l.last_sample = i;
        }
        let mut after = before.clone();
        let edits = correct_graph(&mut after, &SyntaxConfig::default());
        let covered =
            |g: &RecoveredGraph, i: usize| g.skips.iter().any(|s| s.from <= i && i <= s.to);

        // Protected layers survive, and every edge covers the same layers.
        let origin: Vec<usize> = after.layers.iter().map(|l| l.last_sample).collect();
        holds(
            origin.windows(2).all(|w| w[0] < w[1]),
            "survivors reordered",
        )?;
        if let Some(i) =
            (0..before.layers.len()).find(|&i| covered(&before, i) && !origin.contains(&i))
        {
            return Err(format!("protected layer {i} dropped"));
        }
        holds(
            after.skips.len() == before.skips.len(),
            "skip edge count changed",
        )?;
        let branch = |g: &RecoveredGraph, s: &Skip| {
            g.layers
                .get(s.from..=s.to)
                .map(|ls| ls.iter().map(|l| l.kind).collect::<Vec<_>>())
        };
        for (b, a) in before.skips.iter().zip(&after.skips) {
            holds(
                branch(&after, a).is_some() && branch(&after, a) == branch(&before, b),
                format!("skip {b:?} remapped to {a:?} covers other layers"),
            )?;
        }

        // No unprotected conv after the dense head, and no unprotected pool
        // without a conv since the last dense or attention layer.
        let mut head = false;
        let mut conv_since_head = false;
        for (j, l) in after.layers.iter().enumerate() {
            let spared = covered(&after, j);
            match l.kind {
                RecoveredKind::Dense | RecoveredKind::Attention => {
                    head = true;
                    conv_since_head = false;
                }
                RecoveredKind::Conv | RecoveredKind::Separable => {
                    holds(spared || !head, format!("conv {j} after the dense head"))?;
                    conv_since_head = true;
                }
                RecoveredKind::Pool => {
                    holds(spared || conv_since_head, format!("orphan pool {j}"))?;
                }
            }
        }

        let dropped = before.layers.len() - after.layers.len();
        holds(
            edits >= dropped,
            format!("{edits} edits for {dropped} dropped layers"),
        )
    });
}

#[test]
fn lcs_is_symmetric_in_length_and_bounded() {
    let seq = || vec_of(u64_in(0, 3), 0, 39);
    check("lcs_symmetric", &zip2(seq(), seq()), |(a, b)| {
        let ab = lcs_pairs(a, b, |x, y| x == y);
        let ba = lcs_pairs(b, a, |x, y| x == y);
        holds(ab.len() == ba.len(), "asymmetric LCS length")?;
        holds(ab.len() <= a.len().min(b.len()), "LCS longer than an input")?;
        // Pairs are strictly increasing in both coordinates and match.
        holds(
            ab.windows(2).all(|w| w[1].0 > w[0].0 && w[1].1 > w[0].1),
            "pairs not strictly increasing",
        )?;
        holds(ab.iter().all(|&(i, j)| a[i] == b[j]), "mismatched pair")
    });
}

#[test]
fn counter_features_are_finite_and_width_stable() {
    check(
        "counter_features",
        &vec_of(f32_in(0.0, 1e9), 10, 10),
        |raw| {
            let f = counter_features(raw);
            holds(
                f.len() == moscons::dataset::FEATURE_WIDTH,
                "feature width changed",
            )?;
            holds(f.iter().all(|v| v.is_finite()), "non-finite feature")?;
            // Log features are monotone in the raw counters.
            let mut bigger = raw.clone();
            bigger[2] *= 2.0;
            bigger[2] += 1.0;
            let f2 = counter_features(&bigger);
            holds(f2[2] > f[2], "log feature not monotone")
        },
    );
}
