//! The paper's headline scenario, stage by stage (Figure 4): profile the
//! Table V zoo, then steal VGG16's structure, printing each pipeline stage's
//! intermediate product — iteration splitting (1), long-op recognition (2-3),
//! hyper-parameters (4-5), voting (6-7), collapsing + syntax correction (8-9).
//!
//! Run with `cargo run --release --example extract_vgg16`
//! (set `LEAKY_SCALE=quick` for a fast smoke run).

use leaky_dnn::prelude::*;

fn main() {
    let scale = bench::Scale::from_env();

    // --- profiling phase: Table V zoo + hyper-parameter sweep variants ---
    let sessions = bench::profiling_suite(scale);
    println!(
        "profiling {} models (this trains Mgap, Mlong, Mop, Vlong, Vop, Mhp)...",
        sessions.len()
    );
    let t0 = std::time::Instant::now();
    let moscons = Moscons::profile(&sessions, AttackConfig::default());
    println!("done in {:?}", t0.elapsed());

    // --- attack phase: VGG16 ---
    let victim = scale.session(zoo::vgg16());
    let victim_model = victim.model();
    println!(
        "\nattacking {} (batch {}, {}px)...",
        victim_model.name, scale.batch_cnn, scale.image
    );
    let (ex, _raw) = moscons.attack(&victim, 1616);

    println!(
        "\n[1] iteration splitting (Mgap): {} valid iterations",
        ex.iterations.len()
    );
    for (i, r) in ex.iterations.iter().enumerate().take(5) {
        println!(
            "     iteration {}: samples {}..{} ({} samples)",
            i,
            r.start,
            r.end,
            r.len()
        );
    }
    let letters = |cs: &[OpClass]| cs.iter().map(|c| c.letter()).collect::<String>();
    let n = ex.pre_voting_classes.len().min(100);
    println!(
        "\n[2-3] op recognition (Mlong + Mop), first {} samples of the base iteration:",
        n
    );
    println!("     pre-voting: {}", letters(&ex.pre_voting_classes[..n]));
    println!(
        "\n[6-7] after LSTM voting over {} iterations:",
        moscons.config().voting_iterations
    );
    println!(
        "     voted     : {}",
        letters(&ex.fused_classes[..n.min(ex.fused_classes.len())])
    );
    println!(
        "\n[8-9] collapse + forward parse + Mhp + syntax correction ({} edits):",
        ex.syntax_edits
    );
    println!("     recovered : {}", ex.structure);
    println!("     truth     : {}", victim_model.structure_string());

    let score = score_structure(victim_model, &ex.layers, ex.optimizer);
    println!(
        "\nAccuracyL = {:.1}% (paper: 95.2%)   AccuracyHP = {:.1}% (paper: 82.8%)",
        100.0 * score.layers,
        100.0 * score.hyper_params
    );
}
