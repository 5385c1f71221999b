//! Shared quick-scale pipeline harness for the integration tests: profile a
//! few random models, attack a small fixed victim, return the flattened
//! report. Scaled down far enough to run in tier-1 CI while still exercising
//! every pipeline stage.

// Each test binary compiles its own copy of this module and none uses every
// helper, so per-binary dead-code analysis would flag whichever subset that
// binary skips.
#![allow(dead_code)]

use dnn_sim::{
    zoo, Activation, InputSpec, Layer, Model, Optimizer, TrainingConfig, TrainingSession,
};
use gpu_sim::{FaultPlan, GpuConfig};
use moscons::attack::{AttackConfig, Moscons};
use moscons::{random_profiling_models, random_zoo_profiling_models, AttackReport, OpVocab};

pub fn input() -> InputSpec {
    InputSpec::Image {
        height: 64,
        width: 64,
        channels: 3,
    }
}

/// Profiles and attacks at smoke scale, returning the flattened report.
/// `attack_seed` feeds the attack-phase collection; `faults` is installed in
/// the simulated GPU for profiling and attack alike ([`FaultPlan::none`] is
/// the clean path).
pub fn quick_pipeline(attack_seed: u64, faults: FaultPlan) -> AttackReport {
    // 4 is the `LstmTrainConfig` default — this wrapper pins it so the
    // golden reports cannot drift if that default ever changes.
    quick_pipeline_batched(attack_seed, faults, 4)
}

/// [`quick_pipeline`] with an explicit minibatch size for every LSTM stage.
/// Large values force multi-sequence buckets through `ml::seq`'s packed
/// batch-training path, which the determinism tests pin across worker
/// counts.
pub fn quick_pipeline_batched(
    attack_seed: u64,
    faults: FaultPlan,
    batch_size: usize,
) -> AttackReport {
    let (moscons, victim) = quick_attack_setup(faults, batch_size);
    let (extraction, _raw) = moscons.attack(&victim, attack_seed);
    extraction.report()
}

/// The profiled attacker plus the fixed smoke-scale victim, without running
/// the attack — for tests that want to attack the same pair more than once.
pub fn quick_attack_setup(faults: FaultPlan, batch_size: usize) -> (Moscons, TrainingSession) {
    let profiled: Vec<TrainingSession> = random_profiling_models(3, input(), 19)
        .into_iter()
        .map(|m| TrainingSession::new(m, TrainingConfig::new(48, 4)))
        .collect();
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 4;
    config.op_lstm.hidden = 24;
    config.op_lstm.batch_size = batch_size;
    config.voting_lstm.epochs = 4;
    config.voting_lstm.batch_size = batch_size;
    config.hp_lstm.epochs = 3;
    config.hp_lstm.hidden = 24;
    config.hp_lstm.batch_size = batch_size;
    config.voting_iterations = 3;
    config.gpu = GpuConfig::gtx_1080_ti().with_faults(faults);
    let moscons = Moscons::profile(&profiled, config);

    let victim_model = Model::new(
        "victim",
        input(),
        vec![
            Layer::dense(2048, Activation::Relu),
            Layer::dense(512, Activation::Relu),
        ],
        Optimizer::Gd,
    );
    let victim = TrainingSession::new(victim_model, TrainingConfig::new(48, 4));
    (moscons, victim)
}

/// The quick-scale zoo attacker: profiled on the zoo corpus (residual,
/// separable and attention shapes) under [`OpVocab::Zoo`], with the same
/// smoke-scale LSTM knobs as [`quick_attack_setup`].
pub fn zoo_attack_setup(faults: FaultPlan) -> Moscons {
    let profiled: Vec<TrainingSession> = random_zoo_profiling_models(6, input(), 19)
        .into_iter()
        .map(|m| TrainingSession::new(m, TrainingConfig::new(48, 4)))
        .collect();
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 8;
    config.op_lstm.hidden = 32;
    config.voting_lstm.epochs = 6;
    config.hp_lstm.epochs = 3;
    config.hp_lstm.hidden = 24;
    config.voting_iterations = 3;
    config.vocab = OpVocab::Zoo;
    config.gpu = GpuConfig::gtx_1080_ti().with_faults(faults);
    Moscons::profile(&profiled, config)
}

/// The conformance victim of a zoo family, at smoke scale: the family's
/// model rescaled to the quick test input, with the `inference` family
/// running under forward-only execution.
pub fn zoo_victim(family: &str) -> TrainingSession {
    let model = zoo::family_model(family)
        .unwrap_or_else(|| panic!("unknown zoo family {family:?}"))
        .with_input(input());
    let config = if family == "inference" {
        TrainingConfig::inference(48, 4)
    } else {
        TrainingConfig::new(48, 4)
    };
    TrainingSession::new(model, config)
}
