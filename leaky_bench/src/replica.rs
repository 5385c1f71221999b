//! The library's composite entry points rebuilt from their public parts, so
//! the traced run can time every layer from the benchmark's own code:
//!
//! * [`collect`] — `collect_trace`: cache key and lookup around a spy
//!   session driven at the `gpu_sim` / `cupti_sim` level ([`Spy`]);
//! * [`profile`] — `Moscons::profile`, with its `par_map` / `join` fan-outs;
//! * [`extract`] — `Moscons::extract`, including the back half the library
//!   keeps private (voting, parsing, hyper-parameters, correction);
//! * [`fleet`] — `run_fleet`'s lockstep rounds (f32, `Stall`).
//!
//! Each is checked against the library call it mirrors on every traced op,
//! so a drift here is a failed run, never a silently different workload.

use std::collections::VecDeque;
use std::ops::Range;

use cupti_sim::{session_fingerprint, table_iv_groups, CuptiSample, CuptiSession, CuptiStream};
use dnn_sim::{OpClass, TrainingSession};
use gpu_sim::{ContextId, Gpu, GpuConfig, KernelRecord, SchedulerMode};
use ml::par::thresholds::MIN_PARALLEL_EXTRACT_ROWS;
use ml::MinMaxScaler;
use moscons::dataset::fit_scaler;
use moscons::opseq::{collapse, merge_predictions, structure_string};
use moscons::voting::VotingExample;
use moscons::{
    correct_graph, forward_boundary, majority_vote, parse_forward_layers_lenient,
    parse_forward_layers_zoo, AttackConfig, AttackReport, AttackStream, CollectionConfig,
    Extraction, FleetConfig, GapModel, HpKind, HpModel, LabeledTrace, LongClass, LongOpModel,
    Moscons, OpVocab, OtherClass, OtherOpModel, OverflowPolicy, RawTrace, RecoveredGraph,
    RecoveredKind, SessionSpec, VotingModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::{Count, Tracer};

/// Engine events per poll, as `collect_trace` drives its session.
const COLLECT_POLL_STEPS: usize = 1024;

/// `collect_trace` and `SpySession` fold this into the collection seed to
/// seed the simulated GPU.
const GPU_SEED_MIX: u64 = 0x5119;

/// A spy session wired exactly like `moscons::trace::SpySession`.
pub struct Spy {
    gpu: Gpu,
    victim: ContextId,
    stream: Option<CuptiStream>,
    poll_period_us: f64,
    per_iter: usize,
    done: bool,
}

/// What a finished [`Spy`] hands back.
pub struct SpyTail {
    pub samples: Vec<CuptiSample>,
    pub victim_log: Vec<KernelRecord>,
    pub mean_iteration_us: f64,
}

impl Spy {
    pub fn start(
        session: &TrainingSession,
        collection: &CollectionConfig,
        gpu_config: &GpuConfig,
        t: &Tracer,
    ) -> Spy {
        t.span("moscons.trace.poll", || {
            let vm = moscons::trace::spy_vm();
            let mut gpu = Gpu::new(
                gpu_config.clone().with_seed(collection.seed ^ GPU_SEED_MIX),
                SchedulerMode::TimeSliced,
            );
            let victim = gpu.add_context("victim");
            let sampler = gpu.add_context("spy_sampler");
            gpu.monitor(sampler);
            collection.slowdown.launch(&mut gpu);
            let cupti =
                CuptiSession::open(&vm, sampler, table_iv_groups(), collection.poll_period_us)
                    .expect("CUPTI accessible after driver downgrade");
            let kernel = collection
                .spy_kernel
                .kernel(cupti.replay_factor(), gpu.config());
            gpu.set_auto_repeat(sampler, kernel);
            gpu.set_launch_retry(sampler, moscons::sampler_retry_policy());
            let mut rng = StdRng::seed_from_u64(collection.seed);
            session.enqueue(&mut gpu, victim, &mut rng);
            let faults = gpu.config().faults;
            Spy {
                gpu,
                victim,
                stream: Some(CuptiStream::open(cupti, 0.0, faults)),
                poll_period_us: collection.poll_period_us,
                per_iter: session.ops().len(),
                done: false,
            }
        })
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// `SpySession::poll`: a batch of engine steps, then the CUPTI drain.
    pub fn poll(&mut self, max_steps: usize, t: &Tracer) -> Vec<CuptiSample> {
        t.span("moscons.trace.poll", || {
            if self.done {
                return Vec::new();
            }
            let sim_start = self.gpu.now_us();
            let steps = t.span("gpu_sim.step", || {
                let mut steps = 0usize;
                while steps < max_steps {
                    if self.gpu.has_pending_work() && self.gpu.step_once() {
                        steps += 1;
                    } else {
                        let tail = self.gpu.now_us() + 2.0 * self.poll_period_us;
                        self.gpu.run_until(tail);
                        self.done = true;
                        break;
                    }
                }
                steps
            });
            t.add(Count::GpuEvents, steps as u64);
            t.add(
                Count::SimNs,
                ((self.gpu.now_us() - sim_start) * 1e3).round() as u64,
            );
            t.span("cupti_sim.push", || {
                let slices = self.gpu.drain_counter_slices();
                t.add(Count::CuptiSlices, slices.len() as u64);
                let now = self.gpu.now_us();
                let samples = self
                    .stream
                    .as_mut()
                    .expect("stream alive until finish")
                    .push(&slices, now);
                t.add(Count::CuptiSamples, samples.len() as u64);
                samples
            })
        })
    }

    /// `SpySession::finish`: flush the held-back windows.
    pub fn finish(mut self, t: &Tracer) -> SpyTail {
        t.span("moscons.trace.poll", || {
            assert!(self.done, "drive the session with poll() until done");
            let end = self.gpu.now_us();
            let (kernels, samples) = t.span("cupti_sim.push", || {
                let (kernels, slices) = self.gpu.take_logs();
                t.add(Count::CuptiSlices, slices.len() as u64);
                let mut stream = self.stream.take().expect("finish consumes the stream");
                let mut samples = stream.push(&slices, end);
                samples.extend(stream.finish(end));
                t.add(Count::CuptiSamples, samples.len() as u64);
                (kernels, samples)
            });
            let victim_log: Vec<KernelRecord> = kernels
                .into_iter()
                .filter(|r| r.ctx == self.victim)
                .collect();
            let per_iter = self.per_iter.max(1);
            let iters = victim_log.len() / per_iter;
            let mean_iteration_us = if iters > 0 {
                (0..iters)
                    .map(|i| {
                        victim_log[(i + 1) * per_iter - 1].end_us
                            - victim_log[i * per_iter].start_us
                    })
                    .sum::<f64>()
                    / iters as f64
            } else {
                0.0
            };
            SpyTail {
                samples,
                victim_log,
                mean_iteration_us,
            }
        })
    }
}

/// `collect_trace`: the content-addressed cache around a full spy session.
pub fn collect(
    session: &TrainingSession,
    collection: &CollectionConfig,
    gpu_config: &GpuConfig,
    t: &Tracer,
) -> RawTrace {
    let key = t.span("moscons.cache.key", || {
        let effective_gpu = gpu_config.clone().with_seed(collection.seed ^ GPU_SEED_MIX);
        let fingerprint = session_fingerprint(&table_iv_groups(), collection.poll_period_us, 1.0);
        moscons::cache::trace_key(session, collection, &effective_gpu, &fingerprint)
    });
    let mut missed = false;
    let raw = t.span("moscons.cache.lookup", || {
        moscons::cache::trace_for(key, || {
            missed = true;
            let mut spy = Spy::start(session, collection, gpu_config, t);
            let mut samples = Vec::new();
            while !spy.is_done() {
                samples.extend(spy.poll(COLLECT_POLL_STEPS, t));
            }
            let tail = spy.finish(t);
            samples.extend(tail.samples);
            RawTrace {
                samples,
                victim_log: tail.victim_log,
                collection: *collection,
                mean_iteration_us: tail.mean_iteration_us,
            }
        })
    });
    t.add(
        if missed {
            Count::CacheMisses
        } else {
            Count::CacheHits
        },
        1,
    );
    raw
}

/// Borrowed view of a trained attack stack, from a [`Moscons`] or from
/// [`profile`].
pub struct Models<'a> {
    pub config: &'a AttackConfig,
    pub scaler: &'a MinMaxScaler,
    pub gap: &'a GapModel,
    pub long: &'a LongOpModel,
    pub op: &'a OtherOpModel,
    pub v_long: &'a VotingModel,
    pub v_op: &'a VotingModel,
    /// One head per [`HpKind::ALL`] entry, in that order.
    pub hp: Vec<&'a HpModel>,
}

impl<'a> Models<'a> {
    pub fn of(m: &'a Moscons) -> Self {
        Models {
            config: m.config(),
            scaler: m.scaler(),
            gap: m.gap_model(),
            long: m.long_model(),
            op: m.op_model(),
            v_long: m.voting_long(),
            v_op: m.voting_op(),
            hp: HpKind::ALL.iter().map(|&k| m.hp_model(k)).collect(),
        }
    }
}

/// The models [`profile`] trains.
pub struct Profiled {
    config: AttackConfig,
    scaler: MinMaxScaler,
    gap: GapModel,
    long: LongOpModel,
    op: OtherOpModel,
    v_long: VotingModel,
    v_op: VotingModel,
    hp: Vec<HpModel>,
}

impl Profiled {
    pub fn models(&self) -> Models<'_> {
        Models {
            config: &self.config,
            scaler: &self.scaler,
            gap: &self.gap,
            long: &self.long,
            op: &self.op,
            v_long: &self.v_long,
            v_op: &self.v_op,
            hp: self.hp.iter().collect(),
        }
    }
}

/// `Moscons::profile`.
pub fn profile(sessions: &[TrainingSession], config: &AttackConfig, t: &Tracer) -> Profiled {
    assert!(!sessions.is_empty(), "profiling needs at least one model");
    let traces: Vec<LabeledTrace> = t.fan_out(|parent| {
        ml::par::par_map(sessions, |i, session| {
            t.within(parent, || {
                let collection = config
                    .collection
                    .with_seed(config.collection.seed ^ (i as u64 * 7919));
                let raw = collect(session, &collection, &config.gpu, t);
                t.span("moscons.dataset.label", || {
                    LabeledTrace::from_raw(&raw, session.model().name.clone())
                })
            })
        })
    });
    let refs: Vec<&LabeledTrace> = traces.iter().collect();
    let scaler = t.span("moscons.dataset.scaler", || fit_scaler(&refs));
    t.add(
        Count::GapTrainRows,
        traces.iter().map(|tr| tr.samples.len() as u64).sum(),
    );
    let gap = t.span("moscons.gap.train", || {
        GapModel::train(&refs, &scaler, config.gap)
    });
    let ranges: Vec<Vec<Range<usize>>> = t.span("moscons.dataset.label", || {
        traces
            .iter()
            .map(|tr| tr.split_iterations_ground_truth(config.gap.th_gap))
            .collect()
    });
    let op_data: Vec<(&LabeledTrace, &[Range<usize>])> = traces
        .iter()
        .zip(&ranges)
        .map(|(tr, r)| (tr, r.as_slice()))
        .collect();
    let (long, op) = t.fan_out(|parent| {
        ml::par::join(
            || {
                t.within(parent, || {
                    t.span("moscons.long_ops.train", || {
                        LongOpModel::train(&op_data, &scaler, &config.op_lstm)
                    })
                })
            },
            || {
                t.within(parent, || {
                    t.span("moscons.other_ops.train", || {
                        OtherOpModel::train(&op_data, &scaler, &config.op_lstm, config.vocab)
                    })
                })
            },
        )
    });

    let n = config.voting_iterations;
    let mut long_examples = Vec::new();
    let mut op_examples = Vec::new();
    for (trace, trace_ranges) in traces.iter().zip(&ranges) {
        let range_feats: Vec<Vec<Vec<f32>>> = t.span("moscons.dataset.label", || {
            trace_ranges
                .iter()
                .map(|r| {
                    trace.samples[r.clone()]
                        .iter()
                        .map(|s| s.features.clone())
                        .collect()
                })
                .collect()
        });
        let feat_refs: Vec<&[Vec<f32>]> = range_feats.iter().map(|f| f.as_slice()).collect();
        let rows: u64 = feat_refs.iter().map(|f| f.len() as u64).sum();
        t.add(Count::PredictRows, 2 * rows);
        let preds_long: Vec<Vec<usize>> = t.span("moscons.long_ops.predict", || {
            long.predict_batch(&feat_refs, &scaler)
                .into_iter()
                .map(|seq| seq.into_iter().map(LongClass::index).collect())
                .collect()
        });
        let preds_op: Vec<Vec<usize>> = t.span("moscons.other_ops.predict", || {
            op.predict_batch(&feat_refs, &scaler)
                .into_iter()
                .map(|seq| seq.into_iter().map(OtherClass::index).collect())
                .collect()
        });
        t.span("moscons.dataset.label", || {
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
                let (truth_op, mask_op): (Vec<usize>, Vec<bool>) = trace.samples[base.clone()]
                    .iter()
                    .map(|s| match OtherClass::of(s.class) {
                        Some(c) => (c.index(), true),
                        None => (0, false),
                    })
                    .unzip();
                op_examples.push(VotingExample::with_mask(
                    preds_op[g..g + n].to_vec(),
                    truth_op,
                    mask_op,
                ));
            }
        });
    }
    assert!(
        !long_examples.is_empty(),
        "profiling runs must contain at least {n} iterations each"
    );
    let hp_data: Vec<(&LabeledTrace, &dnn_sim::Model, &[Range<usize>])> = traces
        .iter()
        .zip(sessions)
        .zip(&ranges)
        .map(|((tr, s), r)| (tr, s.model(), r.as_slice()))
        .collect();
    let iterations: u64 = ranges.iter().map(|r| r.len() as u64).sum();
    t.add(
        Count::TrainSequences,
        (2 + HpKind::ALL.len() as u64) * iterations
            + (long_examples.len() + op_examples.len()) as u64,
    );

    // The same seven-task tail as the library, heavy Mhp heads first.
    #[derive(Clone, Copy)]
    enum Task {
        VotingLong,
        VotingOp,
        Hp(HpKind),
    }
    enum Trained {
        Voting(VotingModel),
        Hp(HpModel),
    }
    let tasks: Vec<Task> = HpKind::ALL
        .into_iter()
        .map(Task::Hp)
        .chain([Task::VotingLong, Task::VotingOp])
        .collect();
    let tail = t.fan_out(|parent| {
        ml::par::par_map(&tasks, |_, &task| {
            t.within(parent, || match task {
                Task::VotingLong => Trained::Voting(t.span("moscons.voting.train", || {
                    VotingModel::train(&long_examples, 4, n, &config.voting_lstm)
                })),
                Task::VotingOp => Trained::Voting(t.span("moscons.voting.train", || {
                    VotingModel::train(
                        &op_examples,
                        config.vocab.other_classes(),
                        n,
                        &config.voting_lstm,
                    )
                })),
                Task::Hp(kind) => Trained::Hp(t.span("moscons.hyperparams.train", || {
                    HpModel::train(kind, &hp_data, &scaler, &config.hp_lstm)
                })),
            })
        })
    });
    let mut hp = Vec::new();
    let mut voting = Vec::new();
    for trained in tail {
        match trained {
            Trained::Hp(h) => hp.push(h),
            Trained::Voting(v) => voting.push(v),
        }
    }
    let v_op = voting.pop().expect("Vop trained");
    let v_long = voting.pop().expect("Vlong trained");
    Profiled {
        config: config.clone(),
        scaler,
        gap,
        long,
        op,
        v_long,
        v_op,
        hp,
    }
}

fn empty_extraction(iterations: Vec<Range<usize>>) -> Extraction {
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

/// `Moscons::extract` on a feature matrix (time-ordered
/// `counter_features` rows).
pub fn extract(m: &Models, features: &[Vec<f32>], t: &Tracer) -> Extraction {
    let iterations = t.span("moscons.gap.split", || {
        m.gap.split_iterations(features, m.scaler)
    });
    t.add(Count::GapIterations, iterations.len() as u64);
    if iterations.is_empty() {
        return empty_extraction(iterations);
    }
    let n = m.config.voting_iterations.min(iterations.len());
    let group_feats: Vec<&[Vec<f32>]> = iterations[..n]
        .iter()
        .map(|r| &features[r.clone()])
        .collect();
    let base_feats = &features[iterations[0].clone()];
    let group_rows: u64 = group_feats.iter().map(|f| f.len() as u64).sum();
    t.add(
        Count::PredictRows,
        2 * group_rows + (HpKind::ALL.len() as u64 + 2) * base_feats.len() as u64,
    );
    let preds_long: Vec<Vec<usize>> = t.span("moscons.long_ops.predict", || {
        m.long
            .predict_batch(&group_feats, m.scaler)
            .into_iter()
            .map(|seq| seq.into_iter().map(LongClass::index).collect())
            .collect()
    });
    let preds_op: Vec<Vec<usize>> = t.span("moscons.other_ops.predict", || {
        m.op.predict_batch(&group_feats, m.scaler)
            .into_iter()
            .map(|seq| seq.into_iter().map(OtherClass::index).collect())
            .collect()
    });
    let hp_preds: Vec<Vec<usize>> = t.fan_out(|parent| {
        ml::par::par_map_if_work(
            base_feats.len(),
            MIN_PARALLEL_EXTRACT_ROWS,
            &m.hp,
            |_, h| {
                t.within(parent, || {
                    t.span("moscons.hyperparams.predict", || {
                        h.predict(base_feats, m.scaler)
                    })
                })
            },
        )
    });
    assemble(m, iterations, &preds_long, &preds_op, &hp_preds, t)
}

/// The library's private `assemble_extraction`: voting, OpSeq parsing,
/// hyper-parameter attachment, optimizer vote and syntax correction.
fn assemble(
    m: &Models,
    iterations: Vec<Range<usize>>,
    preds_long: &[Vec<usize>],
    preds_op: &[Vec<usize>],
    hp_preds: &[Vec<usize>],
    t: &Tracer,
) -> Extraction {
    let base_len = iterations[0].len();
    let vocab = m.config.vocab;
    let (fused, majority, pre_voting) = t.span("moscons.voting.fuse", || {
        let long: Vec<LongClass> = m
            .v_long
            .fuse(preds_long)
            .into_iter()
            .map(LongClass::from_index)
            .collect();
        let op: Vec<OtherClass> = m
            .v_op
            .fuse(preds_op)
            .into_iter()
            .map(OtherClass::from_index)
            .collect();
        let majority = merge_predictions(
            &majority_vote(preds_long, 4)
                .into_iter()
                .map(LongClass::from_index)
                .collect::<Vec<_>>(),
            &majority_vote(preds_op, vocab.other_classes())
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
        (merge_predictions(&long, &op), majority, pre_voting)
    });

    let (mut graph, optimizer) = t.span("moscons.opseq.parse", || {
        let runs = collapse(&fused);
        let boundary = forward_boundary(&fused);
        let mut graph = match vocab {
            OpVocab::Classic => {
                RecoveredGraph::linear(parse_forward_layers_lenient(&runs, boundary))
            }
            OpVocab::Zoo => parse_forward_layers_zoo(&runs, boundary),
        };
        for layer in graph.layers.iter_mut() {
            let pos = layer.last_sample.min(base_len.saturating_sub(1));
            match layer.kind {
                RecoveredKind::Conv | RecoveredKind::Separable => {
                    layer.filters = Some(HpKind::Filters.decode(hp_preds[0][pos]));
                    layer.filter_size = Some(HpKind::FilterSize.decode(hp_preds[1][pos]));
                    layer.stride = Some(HpKind::Stride.decode(hp_preds[3][pos]));
                }
                RecoveredKind::Dense | RecoveredKind::Attention => {
                    layer.units = Some(HpKind::Neurons.decode(hp_preds[2][pos]));
                }
                RecoveredKind::Pool => {}
            }
        }
        let opt_positions: Vec<usize> = fused
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == OpClass::Optimizer)
            .map(|(i, _)| i.min(base_len.saturating_sub(1)))
            .collect();
        let positions: Vec<usize> = if opt_positions.is_empty() {
            (base_len.saturating_sub(base_len / 10 + 1)..base_len).collect()
        } else {
            opt_positions
        };
        let mut counts = [0usize; 3];
        for &p in &positions {
            counts[hp_preds[4][p].min(2)] += 1;
        }
        let mut best = 0usize;
        for i in 1..3 {
            if counts[i] >= counts[best] {
                best = i;
            }
        }
        let optimizer = (counts[best] > 0).then(|| HpKind::class_optimizer(best));
        (graph, optimizer)
    });

    let (syntax_edits, structure) = t.span("moscons.syntax.correct", || {
        let edits = correct_graph(&mut graph, &m.config.syntax);
        (edits, structure_string(&graph.layers, optimizer))
    });
    t.add(Count::SyntaxEdits, syntax_edits as u64);
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

/// One session of [`fleet`], mirroring `run_fleet`'s per-session state.
struct Session<'a> {
    spy: Option<Spy>,
    queue: VecDeque<Vec<f32>>,
    stream: Option<AttackStream<'a>>,
    latencies: Vec<usize>,
    extraction: Option<Extraction>,
}

impl Session<'_> {
    fn finalized(&self) -> bool {
        self.extraction.is_some()
    }

    fn poll_round(&mut self, config: &FleetConfig, t: &Tracer) -> Vec<CuptiSample> {
        if self.queue.len() >= config.queue_capacity {
            return Vec::new();
        }
        let Some(spy) = self.spy.as_mut() else {
            return Vec::new();
        };
        if !spy.is_done() {
            return spy.poll(config.poll_steps, t);
        }
        match self.spy.take() {
            Some(spy) => spy.finish(t).samples,
            None => Vec::new(),
        }
    }

    fn drain(&mut self, config: &FleetConfig, t: &Tracer) {
        if self.finalized() {
            return;
        }
        let stream = self.stream.as_mut().expect("stream alive until finalize");
        for _ in 0..config.drain_per_round {
            let Some(row) = self.queue.pop_front() else {
                break;
            };
            let now = stream.samples_pushed();
            let labels = t.span("moscons.stream.push", || stream.push(&row));
            t.add(Count::StreamRows, 1);
            t.add(Count::StreamLabels, labels.len() as u64);
            self.latencies
                .extend(labels.iter().map(|label| now - label.sample));
        }
        if self.spy.is_none() && self.queue.is_empty() {
            let stream = self.stream.take().expect("finalize once");
            let now = stream.samples_pushed().saturating_sub(1);
            let outcome = t.span("moscons.stream.finish", || stream.finish());
            t.add(Count::StreamLabels, outcome.labels.len() as u64);
            self.latencies
                .extend(outcome.labels.iter().map(|label| now - label.sample));
            self.extraction = Some(outcome.extraction);
        }
    }
}

/// What [`fleet`] and `run_fleet` are compared on.
pub struct FleetRun {
    pub reports: Vec<AttackReport>,
    pub latencies: Vec<Vec<usize>>,
    pub rounds: usize,
}

impl FleetRun {
    pub fn of(outcome: &moscons::FleetOutcome) -> Self {
        FleetRun {
            reports: outcome
                .sessions
                .iter()
                .map(|s| s.extraction.report())
                .collect(),
            latencies: outcome
                .sessions
                .iter()
                .map(|s| s.label_latencies.clone())
                .collect(),
            rounds: outcome.rounds,
        }
    }
}

/// `run_fleet` at f32 under [`OverflowPolicy::Stall`]: lockstep poll,
/// ingest and classify rounds over per-session spy sessions.
pub fn fleet(
    moscons: &Moscons,
    specs: &[SessionSpec],
    config: &FleetConfig,
    t: &Tracer,
) -> FleetRun {
    assert_eq!(
        config.overflow,
        OverflowPolicy::Stall,
        "replicated for Stall"
    );
    let mut states: Vec<Session> = specs
        .iter()
        .map(|spec| {
            let collection = moscons.config().collection.with_seed(spec.seed);
            Session {
                spy: Some(Spy::start(&spec.victim, &collection, &spec.gpu, t)),
                queue: VecDeque::new(),
                stream: Some(AttackStream::new(moscons)),
                latencies: Vec::new(),
                extraction: None,
            }
        })
        .collect();
    let mut rounds = 0usize;
    while states.iter().any(|s| !s.finalized()) {
        rounds += 1;
        let polled = t.fan_out(|parent| {
            ml::par::par_map_mut(&mut states, |_, st| {
                t.within(parent, || st.poll_round(config, t))
            })
        });
        for (st, samples) in states.iter_mut().zip(polled) {
            t.span("moscons.dataset.features", || {
                st.queue.extend(
                    samples
                        .iter()
                        .map(|s| moscons::dataset::counter_features(&s.to_features())),
                );
            });
            t.max(Count::QueueHighWater, st.queue.len() as u64);
        }
        t.fan_out(|parent| {
            ml::par::par_map_mut(&mut states, |_, st| {
                t.within(parent, || st.drain(config, t))
            })
        });
    }
    t.add(Count::FleetRounds, rounds as u64);
    FleetRun {
        reports: states
            .iter()
            .map(|s| s.extraction.as_ref().expect("finalized").report())
            .collect(),
        latencies: states.into_iter().map(|s| s.latencies).collect(),
        rounds,
    }
}
