//! Ablation bench (DESIGN.md call-outs): how much each pipeline stage
//! contributes. Compares, on ZFNet:
//!
//! * fusing: none (single iteration) vs plain majority vote vs LSTM voting;
//! * syntax correction: off vs on;
//!
//! reporting AccuracyL / AccuracyHP for each combination.

use bench::{pct, train_moscons, Scale};
use moscons::opseq::{collapse, forward_boundary, parse_forward_layers_zoo};
use moscons::syntax::{correct_graph, SyntaxConfig};
use moscons::{score_structure, LabeledTrace};

fn main() {
    let scale = Scale::from_env();
    eprintln!("training MoSConS on the profiling suite...");
    let moscons = train_moscons(scale);
    let model = dnn_sim::zoo::zfnet();
    let session = scale.session(model.clone());
    let (extraction, raw) = moscons.attack(&session, 31337);
    let _ = LabeledTrace::from_raw(&raw, "zfnet");

    let variants: [(&str, &[dnn_sim::OpClass]); 3] = [
        ("single iteration", &extraction.pre_voting_classes),
        ("majority vote", &extraction.majority_classes),
        ("LSTM voting", &extraction.fused_classes),
    ];
    println!("\n=== Ablation — fusing strategy x syntax correction (ZFNet) ===");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "fusing", "L (raw)", "HP (raw)", "L (+syn)", "HP (+syn)"
    );
    for (name, classes) in variants {
        let runs = collapse(classes);
        let boundary = forward_boundary(classes);
        let base = parse_forward_layers_zoo(&runs, boundary);

        // Hyper-parameters from the already-extracted layers where sample
        // positions coincide; this ablation focuses on the class stream, so
        // reuse the extraction's HP assignments by position.
        let assign_hp = |layers: &mut [moscons::RecoveredLayer]| {
            for l in layers.iter_mut() {
                if let Some(src) = extraction
                    .layers
                    .iter()
                    .find(|e| e.kind == l.kind && e.last_sample.abs_diff(l.last_sample) <= 3)
                {
                    l.filters = src.filters;
                    l.filter_size = src.filter_size;
                    l.stride = src.stride;
                    l.units = src.units;
                    if l.activation.is_none() {
                        l.activation = src.activation;
                    }
                }
            }
        };

        let mut raw = base.clone();
        assign_hp(&mut raw.layers);
        let raw_score = score_structure(&model, &raw.layers, extraction.optimizer);

        let mut corrected = base;
        assign_hp(&mut corrected.layers);
        correct_graph(&mut corrected, &SyntaxConfig::default());
        let syn_score = score_structure(&model, &corrected.layers, extraction.optimizer);

        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10}",
            name,
            pct(raw_score.layers),
            pct(raw_score.hyper_params),
            pct(syn_score.layers),
            pct(syn_score.hyper_params)
        );
    }
    println!("\nexpected shape: fusing and syntax correction each help or are neutral;");
    println!("the paper motivates both stages (§IV-B voting, §IV-D syntax).");
}
