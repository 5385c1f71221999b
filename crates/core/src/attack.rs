//! End-to-end MoSConS orchestration (Figure 4).
//!
//! **Profiling phase**: the adversary trains several models of her own on
//! the shared GPU, collects spy traces, labels them against the TensorFlow
//! timeline, and trains `Mgap`, `Mlong`, `Mop`, `Vlong`, `Vop` and the five
//! `Mhp` heads.
//!
//! **Attack phase**: she waits for the victim's training to start, runs the
//! spy + slow-down kernels, splits the sample stream into iterations with
//! `Mgap`, classifies ops per iteration, votes across iterations, collapses
//! and parses the OpSeq into layers, attaches hyper-parameters, and applies
//! DNN-syntax correction.

use dnn_sim::{OpClass, Optimizer, TrainingSession};
use gpu_sim::GpuConfig;
use ml::MinMaxScaler;
use serde::{Deserialize, Serialize};

use crate::dataset::{fit_scaler, with_lookahead, LabeledTrace};
use crate::gap::{GapConfig, GapModel};
use crate::hyperparams::{HpKind, HpModel};
use crate::long_ops::{LongClass, LongOpModel, LstmTrainConfig};
use crate::opseq::{
    collapse, forward_boundary, merge_predictions, parse_forward_layers_zoo, structure_string,
    RecoveredKind, RecoveredLayer,
};
use crate::other_ops::{OpVocab, OtherClass, OtherOpModel};
use crate::syntax::{correct_graph, SyntaxConfig};
use crate::trace::{collect_trace, CollectionConfig, RawTrace};
use crate::voting::{VotingExample, VotingModel};

/// Full attack configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Spy/slow-down/sampling configuration.
    pub collection: CollectionConfig,
    /// Iteration-splitting parameters.
    pub gap: GapConfig,
    /// `Mlong`/`Mop` training configuration.
    pub op_lstm: LstmTrainConfig,
    /// `Vlong`/`Vop` training configuration.
    pub voting_lstm: LstmTrainConfig,
    /// `Mhp` training configuration (paper: LSTM-128).
    pub hp_lstm: LstmTrainConfig,
    /// Iterations fused by voting (paper §V-B: 5).
    pub voting_iterations: usize,
    /// Syntax correction; [`SyntaxConfig`] has no fields, so every rule
    /// runs.
    pub syntax: SyntaxConfig,
    /// Simulated GPU.
    pub gpu: GpuConfig,
    /// `Mop` label space ([`OpVocab::Classic`] in [`AttackConfig::default`]).
    pub vocab: OpVocab,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            collection: CollectionConfig::paper(),
            gap: GapConfig::default(),
            op_lstm: LstmTrainConfig::default(),
            voting_lstm: LstmTrainConfig {
                hidden: 24,
                epochs: 24,
                ..LstmTrainConfig::default()
            },
            hp_lstm: LstmTrainConfig {
                hidden: 40,
                epochs: 24,
                ..LstmTrainConfig::default()
            },
            voting_iterations: 5,
            syntax: SyntaxConfig::default(),
            gpu: GpuConfig::gtx_1080_ti(),
            vocab: OpVocab::default(),
        }
    }
}

// The extraction fan-out gate lives with every other work-size gate in
// `ml::par::thresholds` (leaky-lint rule A4 keeps it that way). The
// `Mlong`/`Mop` group predictions no longer need a gate at all: they run as
// packed batches whose GEMM row blocks parallelize under the module's own
// `MIN_PARALLEL_GEMM_FLOPS`.
use ml::par::thresholds::MIN_PARALLEL_EXTRACT_ROWS;

/// A trained MoSConS instance.
#[derive(Debug)]
pub struct Moscons {
    config: AttackConfig,
    scaler: MinMaxScaler,
    gap: GapModel,
    m_long: LongOpModel,
    m_op: OtherOpModel,
    v_long: VotingModel,
    v_op: VotingModel,
    /// One `Mhp` head per kind, in [`HpKind::ALL`] order.
    hp: [HpModel; HpKind::ALL.len()],
}

/// The product of one extraction.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// Recovered layers after syntax correction.
    pub layers: Vec<RecoveredLayer>,
    /// Recovered optimizer.
    pub optimizer: Option<Optimizer>,
    /// Structure string in Table IX format.
    pub structure: String,
    /// Valid iteration ranges found by `Mgap`.
    pub iterations: Vec<std::ops::Range<usize>>,
    /// Fused per-sample classes on the base iteration's timeline.
    pub fused_classes: Vec<OpClass>,
    /// Pre-voting per-sample classes of the base iteration.
    pub pre_voting_classes: Vec<OpClass>,
    /// Plain per-position majority vote across the group (the non-learned
    /// baseline, for the voting ablation).
    pub majority_classes: Vec<OpClass>,
    /// Number of syntax edits applied.
    pub syntax_edits: usize,
}

impl Extraction {
    /// Flattens this extraction into a comparable, serializable
    /// [`crate::report::AttackReport`].
    pub fn report(&self) -> crate::report::AttackReport {
        crate::report::AttackReport::from_extraction(self)
    }
}

impl Moscons {
    /// Profiles the given training sessions (the adversary's own models) and
    /// trains the full inference stack.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty or any profiling run produces fewer
    /// than `voting_iterations` valid iterations.
    pub fn profile(sessions: &[TrainingSession], config: AttackConfig) -> Self {
        assert!(!sessions.is_empty(), "profiling needs at least one model");
        // Collect + label every profiling model. Each session's trace is
        // seeded independently, so the fan-out over the worker pool returns
        // the same traces as the serial loop.
        let traces: Vec<LabeledTrace> = ml::par::par_map(sessions, |i, session| {
            let raw = collect_trace(
                session,
                &config
                    .collection
                    .with_seed(config.collection.seed ^ (i as u64 * 7919)),
                &config.gpu,
            );
            LabeledTrace::from_raw(&raw, session.model().name.clone())
        });
        let trace_refs: Vec<&LabeledTrace> = traces.iter().collect();
        let scaler = fit_scaler(&trace_refs);
        let gap = GapModel::train(&trace_refs, &scaler, config.gap);

        // Ground-truth iteration ranges (profiling phase has the timeline).
        let ranges: Vec<Vec<std::ops::Range<usize>>> = traces
            .iter()
            .map(|t| t.split_iterations_ground_truth(config.gap.th_gap))
            .collect();

        let op_data: Vec<(&LabeledTrace, &[std::ops::Range<usize>])> = traces
            .iter()
            .zip(&ranges)
            .map(|(t, r)| (t, r.as_slice()))
            .collect();
        // The two op classifiers train on disjoint state, concurrently when
        // workers are available.
        let (m_long, m_op) = ml::par::join(
            || LongOpModel::train(&op_data, &scaler, &config.op_lstm),
            || OtherOpModel::train(&op_data, &scaler, &config.op_lstm, config.vocab),
        );

        // Voting training data: per trace, sliding groups of n iterations.
        let n = config.voting_iterations;
        let mut long_examples = Vec::new();
        let mut op_examples = Vec::new();
        for (trace, trace_ranges) in traces.iter().zip(&ranges) {
            // Each range is prepared once for both op models, and each model
            // classifies all ranges as one packed batch — equal-length
            // iterations share fused GEMMs, bitwise identical to looping over
            // iterations (see
            // [`ml::seq::SequenceClassifier::predict_proba_batch`]).
            let prepared: Vec<Vec<Vec<f32>>> = trace_ranges
                .iter()
                .map(|r| trace.prepared(r.clone(), &scaler))
                .collect();
            let refs: Vec<&[Vec<f32>]> = prepared.iter().map(Vec::as_slice).collect();
            let preds_long = m_long.classifier().predict_batch(&refs);
            let preds_op = m_op.classifier().predict_batch(&refs);
            for g in 0..trace_ranges.len().saturating_sub(n - 1) {
                let base = &trace_ranges[g];
                let truth_long: Vec<usize> = trace.samples[base.clone()]
                    .iter()
                    .map(|s| LongClass::of(s.class).index())
                    .collect();
                long_examples.push(VotingExample::new(
                    preds_long[g..g + n].to_vec(),
                    truth_long,
                ));
                let mut truth_op = Vec::with_capacity(base.len());
                let mut mask_op = Vec::with_capacity(base.len());
                for s in &trace.samples[base.clone()] {
                    match OtherClass::of(s.class) {
                        Some(c) => {
                            truth_op.push(c.index());
                            mask_op.push(true);
                        }
                        None => {
                            truth_op.push(0);
                            mask_op.push(false);
                        }
                    }
                }
                op_examples.push(VotingExample::with_mask(
                    preds_op[g..g + n].to_vec(),
                    truth_op,
                    mask_op,
                ));
            }
        }
        assert!(
            !long_examples.is_empty(),
            "profiling runs must contain at least {} iterations each",
            n
        );
        // Hyper-parameter training data.
        let hp_data: Vec<(&LabeledTrace, &dnn_sim::Model, &[std::ops::Range<usize>])> = traces
            .iter()
            .zip(sessions)
            .zip(&ranges)
            .map(|((t, s), r)| (t, s.model(), r.as_slice()))
            .collect();

        // `Vlong`, `Vop` and the five `Mhp` heads are mutually independent
        // models, so all seven train as one coarse fan-out over the worker
        // pool — one model per task, the granularity at which there is
        // enough work to amortize a dispatch. Every individual training is
        // bitwise thread-count invariant and `par_map` returns results in
        // task order, so the fan-out is bitwise identical to the serial
        // sequence. The five `Mhp` heads go first: they are the oversized
        // tasks of the seven (wider LSTM over full iteration sequences vs.
        // the voting models' short label windows), and `par_map`'s dynamic
        // pickup hands out tasks in list order — scheduling the heavy ones
        // first keeps the tail of the fan-out from serializing behind one
        // straggler Mhp head that was picked up last.
        #[derive(Clone, Copy)]
        enum TailTask {
            VotingLong,
            VotingOp,
            Hp(HpKind),
        }
        enum TailModel {
            Voting(VotingModel),
            Hp(HpModel),
        }
        let tasks: Vec<TailTask> = HpKind::ALL
            .into_iter()
            .map(TailTask::Hp)
            .chain([TailTask::VotingLong, TailTask::VotingOp])
            .collect();
        let mut tail = ml::par::par_map(&tasks, |_, &task| match task {
            TailTask::VotingLong => TailModel::Voting(VotingModel::train(
                &long_examples,
                4,
                n,
                &config.voting_lstm,
            )),
            TailTask::VotingOp => TailModel::Voting(VotingModel::train(
                &op_examples,
                config.vocab.other_classes(),
                n,
                &config.voting_lstm,
            )),
            TailTask::Hp(kind) => {
                TailModel::Hp(HpModel::train(kind, &hp_data, &scaler, &config.hp_lstm))
            }
        })
        .into_iter();
        let hp: Vec<HpModel> = tail
            .by_ref()
            .take(HpKind::ALL.len())
            .map(|t| match t {
                TailModel::Hp(h) => h,
                TailModel::Voting(_) => unreachable!("tasks 0..5 train Mhp heads"),
            })
            .collect();
        let Ok(hp) = <[HpModel; HpKind::ALL.len()]>::try_from(hp) else {
            unreachable!("tasks 0..5 train one Mhp head per HpKind")
        };
        let Some(TailModel::Voting(v_long)) = tail.next() else {
            unreachable!("task 5 trains Vlong")
        };
        let Some(TailModel::Voting(v_op)) = tail.next() else {
            unreachable!("task 6 trains Vop")
        };

        Moscons {
            config,
            scaler,
            gap,
            m_long,
            m_op,
            v_long,
            v_op,
            hp,
        }
    }

    /// The configuration this instance was trained with.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// The trained gap model (exposed for the Table VI bench).
    pub fn gap_model(&self) -> &GapModel {
        &self.gap
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// The trained `Mlong` model.
    pub fn long_model(&self) -> &LongOpModel {
        &self.m_long
    }

    /// The trained `Mop` model.
    pub fn op_model(&self) -> &OtherOpModel {
        &self.m_op
    }

    /// The trained `Mhp` head for one hyper-parameter kind.
    pub fn hp_model(&self, kind: HpKind) -> &HpModel {
        &self.hp[kind.index()]
    }

    /// The trained `Vlong` voting model.
    pub fn voting_long(&self) -> &VotingModel {
        &self.v_long
    }

    /// The trained `Vop` voting model.
    pub fn voting_op(&self) -> &VotingModel {
        &self.v_op
    }

    /// Runs the full extraction on a victim's sample stream.
    ///
    /// `features` is the attack-time CUPTI sample stream, already passed
    /// through [`crate::dataset::counter_features`] (as [`Moscons::attack`]
    /// does), in time order.
    pub fn extract(&self, features: &[Vec<f32>]) -> Extraction {
        let scaled = self.scaler.transform(features);
        let iterations = self.gap.split_scaled(&scaled);
        if iterations.is_empty() {
            return Self::empty_extraction(iterations);
        }
        let n = self.config.voting_iterations.min(iterations.len());

        // The voting group's prepared rows, built once for `Mlong`, `Mop`
        // and the five `Mhp` heads. Each op model classifies the group as
        // one packed batch: equal-length iterations share fused GEMMs, and
        // the GEMM row blocks fan out over the worker pool on their own when
        // the batch carries enough FLOPs (see [`ml::matrix`]). Bitwise
        // identical to classifying each iteration separately.
        let prepared: Vec<Vec<Vec<f32>>> = iterations[..n]
            .iter()
            .map(|r| with_lookahead(&scaled[r.clone()]))
            .collect();
        let refs: Vec<&[Vec<f32>]> = prepared.iter().map(Vec::as_slice).collect();
        let preds_long = self.m_long.classifier().predict_batch(&refs);
        let preds_op = self.m_op.classifier().predict_batch(&refs);

        self.assemble_extraction(iterations, &preds_long, &preds_op, &prepared[0])
    }

    /// The empty-stream extraction (`Mgap` found no valid iterations).
    pub(crate) fn empty_extraction(iterations: Vec<std::ops::Range<usize>>) -> Extraction {
        Extraction {
            layers: Vec::new(),
            optimizer: None,
            structure: structure_string(&[], None),
            iterations,
            fused_classes: Vec::new(),
            pre_voting_classes: Vec::new(),
            majority_classes: Vec::new(),
            syntax_edits: 0,
        }
    }

    /// Assembles the final [`Extraction`] from the voting group's op labels
    /// and the base iteration's prepared rows: the five `Mhp` heads over
    /// those rows, voting fusion, OpSeq collapse/parse, hyper-parameter
    /// attachment, optimizer vote and syntax correction.
    ///
    /// This is the back half of [`Moscons::extract`], shared verbatim with
    /// the streaming engine ([`crate::stream::AttackStream`]). It reads
    /// `Mlong`/`Mop` labels and the base iteration's rows, nothing else, so
    /// the streaming-vs-batch golden proof reduces to equal labels and
    /// equal base rows.
    ///
    /// `iterations` are the valid iteration ranges, `preds_long`/`preds_op`
    /// the per-iteration label sequences of the first
    /// `voting_iterations.min(len)` of them, and `base_rows` the prepared
    /// rows (scaled, with lookahead) of the base (first) iteration, one per
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is non-empty but the label groups are empty
    /// or inconsistent with it.
    pub(crate) fn assemble_extraction(
        &self,
        iterations: Vec<std::ops::Range<usize>>,
        preds_long: &[Vec<usize>],
        preds_op: &[Vec<usize>],
        base_rows: &[Vec<f32>],
    ) -> Extraction {
        if iterations.is_empty() {
            return Self::empty_extraction(iterations);
        }
        let base_len = iterations[0].len();
        assert_eq!(preds_long.len(), preds_op.len(), "one group per model");
        debug_assert_eq!(base_rows.len(), base_len, "one row per base sample");

        // The five `Mhp` heads over the base iteration's rows, one output
        // per head in `HpKind::ALL` order; `hp` decodes one head's label.
        let hp_preds: Vec<Vec<usize>> = ml::par::par_map_if_work(
            base_rows.len(),
            MIN_PARALLEL_EXTRACT_ROWS,
            &self.hp,
            |_, h| h.classifier().predict(base_rows),
        );
        let hp = |kind: HpKind, pos: usize| kind.decode(hp_preds[kind.index()][pos]);

        // Voting on the base timeline.
        let fused_long: Vec<LongClass> = self
            .v_long
            .fuse(preds_long)
            .into_iter()
            .map(LongClass::from_index)
            .collect();
        let fused_op: Vec<OtherClass> = self
            .v_op
            .fuse(preds_op)
            .into_iter()
            .map(OtherClass::from_index)
            .collect();
        let fused = merge_predictions(&fused_long, &fused_op);

        let majority = merge_predictions(
            &crate::voting::majority_vote(preds_long, 4)
                .into_iter()
                .map(LongClass::from_index)
                .collect::<Vec<_>>(),
            &crate::voting::majority_vote(preds_op, self.config.vocab.other_classes())
                .into_iter()
                .map(OtherClass::from_index)
                .collect::<Vec<_>>(),
        );

        let pre_voting = merge_predictions(
            &preds_long[0]
                .iter()
                .map(|&i| LongClass::from_index(i))
                .collect::<Vec<_>>(),
            &preds_op[0]
                .iter()
                .map(|&i| OtherClass::from_index(i))
                .collect::<Vec<_>>(),
        );

        // Collapse + parse the forward prefix (boundary-bounded, lenient).
        // One grammar for both vocabularies: the classic `Mop` alphabet
        // never emits a zoo class, so classic traces parse to a skip-free
        // chain of conv, dense and pooling layers.
        let runs = collapse(&fused);
        let boundary = forward_boundary(&fused);
        let mut graph = parse_forward_layers_zoo(&runs, boundary);

        // Hyper-parameters at each layer's last forward sample.
        for layer in graph.layers.iter_mut() {
            let pos = layer.last_sample.min(base_len.saturating_sub(1));
            match layer.kind {
                RecoveredKind::Conv | RecoveredKind::Separable => {
                    layer.filters = Some(hp(HpKind::Filters, pos));
                    layer.filter_size = Some(hp(HpKind::FilterSize, pos));
                    layer.stride = Some(hp(HpKind::Stride, pos));
                }
                RecoveredKind::Dense | RecoveredKind::Attention => {
                    layer.units = Some(hp(HpKind::Neurons, pos));
                }
                RecoveredKind::Pool => {}
            }
        }

        // Optimizer: majority of the Mhp optimizer head over the samples the
        // op models attribute to the optimizer tail.
        let optimizer = {
            let opt_positions: Vec<usize> = fused
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == OpClass::Optimizer)
                .map(|(i, _)| i.min(base_len.saturating_sub(1)))
                .collect();
            let positions: Vec<usize> = if opt_positions.is_empty() {
                // Fallback: the last 10% of the iteration.
                let start = base_len.saturating_sub(base_len / 10 + 1);
                (start..base_len).collect()
            } else {
                opt_positions
            };
            let mut counts = [0usize; 3];
            for &p in &positions {
                counts[hp(HpKind::Optimizer, p).min(2)] += 1;
            }
            // Last maximum wins, matching Iterator::max_by_key's tie rule,
            // without an Option to unwrap on the serving path.
            let mut best = 0usize;
            for i in 1..3 {
                if counts[i] >= counts[best] {
                    best = i;
                }
            }
            (counts[best] > 0).then(|| HpKind::class_optimizer(best))
        };

        let syntax_edits = correct_graph(&mut graph, &self.config.syntax);
        let structure = structure_string(&graph.layers, optimizer);

        Extraction {
            layers: graph.layers,
            optimizer,
            structure,
            iterations,
            fused_classes: fused,
            pre_voting_classes: pre_voting,
            majority_classes: majority,
            syntax_edits,
        }
    }

    /// Convenience: collect a victim trace and extract in one call.
    pub fn attack(&self, victim: &TrainingSession, seed: u64) -> (Extraction, RawTrace) {
        self.attack_on(victim, seed, &self.config.gpu)
    }

    /// [`Moscons::attack`] against an explicit GPU configuration — the knob
    /// for noise and fault-sensitivity studies: profile once on clean
    /// hardware, then attack the same victim under increasingly hostile
    /// [`gpu_sim::FaultPlan`]s without retraining anything.
    pub fn attack_on(
        &self,
        victim: &TrainingSession,
        seed: u64,
        gpu: &gpu_sim::GpuConfig,
    ) -> (Extraction, RawTrace) {
        let raw = collect_trace(victim, &self.config.collection.with_seed(seed), gpu);
        let features = crate::cache::counter_feature_matrix(&raw);
        (self.extract(&features), raw)
    }
}
