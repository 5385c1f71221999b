//! Per-timestep sequence classifier: stacked LSTM layers, a dense head and a
//! (weighted, maskable) softmax cross-entropy loss — the shape shared by all
//! five inference models in the paper's Table III.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::activation::argmax;
use crate::data::SeqExample;
use crate::dense::{Dense, DenseGrads};
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into, uniform_weights};
use crate::lstm::{LstmGrads, LstmLayer};
use crate::matrix::Matrix;
use crate::optim::{clip_global_norm, Adam, Optimizer};
use crate::workspace::{BatchWorkspace, BatchWorkspacePool, Workspace, WorkspacePool};

// All work-size gates live in one audited module (leaky-lint rule A4);
// re-exported here so the historical `ml::seq::MIN_PARALLEL_FIT_SEQS` path
// keeps working.
pub use crate::par::thresholds::MIN_PARALLEL_FIT_SEQS;

/// Training/topology configuration for a [`SequenceClassifier`].
#[derive(Debug, Clone)]
pub struct SeqClassifierConfig {
    /// Feature width per timestep.
    pub input_size: usize,
    /// Hidden sizes of the stacked LSTM layers (Table III uses `[256]` for
    /// Mlong/Mop/Vlong/Vop and `[128]` for Mhp).
    pub hidden_sizes: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs over the full dataset.
    pub epochs: usize,
    /// Global-norm gradient clip.
    pub clip_norm: f32,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
    /// Per-class loss weights; `None` = uniform.
    pub class_weights: Option<Vec<f32>>,
    /// Examples per Adam step. Per-example BPTT within a batch runs on the
    /// worker pool and the batch-mean gradient takes one optimizer step.
    /// `1` (the default) reproduces the classic per-example schedule
    /// exactly; larger batches trade schedule for step stability and
    /// parallel speedup. The result is identical for any thread count.
    pub batch_size: usize,
}

impl SeqClassifierConfig {
    /// A reasonable default for a given problem shape.
    pub fn new(input_size: usize, hidden: usize, classes: usize) -> Self {
        SeqClassifierConfig {
            input_size,
            hidden_sizes: vec![hidden],
            classes,
            learning_rate: 0.01,
            epochs: 12,
            clip_norm: 5.0,
            seed: 0x5eed,
            class_weights: None,
            batch_size: 1,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean loss over unmasked timesteps.
    pub mean_loss: f32,
    /// Accuracy over unmasked timesteps.
    pub accuracy: f64,
}

/// An LSTM sequence classifier producing one class per timestep.
///
/// # Examples
///
/// ```
/// use ml::seq::{SeqClassifierConfig, SequenceClassifier};
/// use ml::data::SeqExample;
///
/// // Learn "label = which half of the 2-dim input is hot".
/// let mut cfg = SeqClassifierConfig::new(2, 8, 2);
/// cfg.epochs = 30;
/// let data: Vec<SeqExample> = (0..8)
///     .map(|i| {
///         let lab = i % 2;
///         let mut f = vec![0.0, 0.0];
///         f[lab] = 1.0;
///         SeqExample::new(vec![f; 5], vec![lab; 5])
///     })
///     .collect();
/// let mut clf = SequenceClassifier::new(cfg);
/// clf.fit(&data);
/// let pred = clf.predict(&data[0].features);
/// assert_eq!(pred, data[0].labels);
/// ```
#[derive(Debug, Clone)]
pub struct SequenceClassifier {
    config: SeqClassifierConfig,
    layers: Vec<LstmLayer>,
    head: Dense,
    history: Vec<EpochStats>,
}

/// Gradients and loss statistics from one example's forward/backward pass.
struct ExamplePass {
    layer_grads: Vec<crate::lstm::LstmGrads>,
    head_grads: crate::dense::DenseGrads,
    /// Loss per unmasked timestep, in timestep order.
    losses: Vec<f32>,
    correct: usize,
}

/// Per-parameter Adam states for one [`SequenceClassifier::fit`] run,
/// grouped so the epoch loop can borrow them apart from the model.
struct FitOptimizers {
    wx: Vec<Adam>,
    wh: Vec<Adam>,
    b: Vec<Adam>,
    hw: Adam,
    hb: Adam,
}

/// Reused gradient accumulators and bucketing scratch for
/// [`SequenceClassifier::fit_epoch`]; allocated once per `fit` call and
/// threaded through every epoch.
struct FitScratch {
    acc_layers: Vec<LstmGrads>,
    acc_head: DenseGrads,
    len_pos: Vec<(usize, usize)>,
    bucket_spans: Vec<(usize, usize)>,
    slots: Vec<Option<Workspace>>,
}

impl SequenceClassifier {
    /// Builds an untrained classifier from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no hidden layers or zero classes.
    pub fn new(config: SeqClassifierConfig) -> Self {
        assert!(
            !config.hidden_sizes.is_empty(),
            "need at least one LSTM layer"
        );
        assert!(config.classes >= 2, "need at least two classes");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::new();
        let mut in_size = config.input_size;
        for &h in &config.hidden_sizes {
            layers.push(LstmLayer::new(in_size, h, &mut rng));
            in_size = h;
        }
        let head = Dense::new(in_size, config.classes, &mut rng);
        SequenceClassifier {
            config,
            layers,
            head,
            history: Vec::new(),
        }
    }

    /// The configuration this classifier was built with.
    pub fn config(&self) -> &SeqClassifierConfig {
        &self.config
    }

    /// The trained LSTM stack (crate-internal: the [`crate::quant`]
    /// post-training pass reads the weights to build its int8 twin).
    pub(crate) fn layers(&self) -> &[LstmLayer] {
        &self.layers
    }

    /// The trained classification head (crate-internal, see
    /// [`SequenceClassifier::layers`]).
    pub(crate) fn head(&self) -> &Dense {
        &self.head
    }

    /// Per-epoch loss/accuracy recorded by the last `fit` call.
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(LstmLayer::param_count)
            .sum::<usize>()
            + self.head.param_count()
    }

    fn features_to_matrix(features: &[Vec<f32>]) -> Matrix {
        assert!(!features.is_empty(), "empty sequence");
        let mut m = Matrix::zeros(features.len(), features[0].len());
        for (t, f) in features.iter().enumerate() {
            m.set_row(t, f);
        }
        m
    }

    /// Full forward + backward pass for one packed bucket of equal-length
    /// examples against frozen parameters.
    ///
    /// The bucket's sequences are laid out batch-major in `bws` (row
    /// `t * B + b` holds sequence `b`'s timestep `t`), so every timestep of
    /// the forward recurrence, the head, and the BPTT carry runs as one
    /// fused GEMM over the whole bucket instead of `B` per-sequence matvec
    /// loops. Each example's losses and gradients come back in its own
    /// pooled [`Workspace`] (tagged with its batch position), bitwise
    /// identical to running that example through the per-sequence pass
    /// alone: packed GEMM rows are independent and keep the ascending-`k`
    /// per-element chains, and parameter gradients are accumulated from
    /// per-example matrices extracted out of the packed tensors through the
    /// exact same code path ([`LstmLayer::param_grads_into`] /
    /// [`Dense::param_grads_into`]) the per-sequence backward uses.
    #[allow(clippy::too_many_arguments)]
    fn bucket_pass_into(
        layers: &[LstmLayer],
        head: &Dense,
        data: &[SeqExample],
        inputs: &[Matrix],
        bucket: &[(usize, usize)],
        batch: &[usize],
        weights: &[f32],
        bws: &mut BatchWorkspace,
        pool: &WorkspacePool,
    ) -> Vec<(usize, Workspace)> {
        debug_assert_eq!(bws.layer_count(), layers.len());
        let b_n = bucket.len();
        let t_len = bucket[0].0;
        debug_assert!(bucket.iter().all(|&(len, _)| len == t_len));

        // Pack features batch-major.
        bws.xs.resize_zeroed(t_len * b_n, layers[0].input_size());
        for (bi, &(_, pos)) in bucket.iter().enumerate() {
            let xs = &inputs[batch[pos]];
            for t in 0..t_len {
                bws.xs.set_row(t * b_n + bi, xs.row(t));
            }
        }

        // Forward through the LSTM stack; each layer reads the previous
        // layer's packed hidden states directly.
        for (li, layer) in layers.iter().enumerate() {
            let (done, rest) = bws.caches.split_at_mut(li);
            let input = if li == 0 { &bws.xs } else { &done[li - 1].h };
            layer.forward_batch_into(input, b_n, &mut rest[0], &mut bws.scratch);
        }
        let last_h = &bws.caches[layers.len() - 1].h;
        head.forward_into(last_h, &mut bws.logits);

        // Loss + dlogits per example, `t` ascending within each example so
        // the per-example loss vectors match the per-sequence pass exactly.
        bws.dlogits
            .resize_zeroed(bws.logits.rows(), bws.logits.cols());
        // Bookkeeping of pool-acquired workspaces (≤ batch_size pairs); the
        // workspaces inside are reused, only this thin index is per-bucket.
        // lint: allow(A1)
        let mut passes: Vec<(usize, Workspace)> = Vec::with_capacity(b_n);
        for (bi, &(_, pos)) in bucket.iter().enumerate() {
            let ex = &data[batch[pos]];
            let mut ws = pool.acquire();
            ws.losses.clear();
            ws.correct = 0;
            for t in 0..t_len {
                let r = t * b_n + bi;
                let loss = softmax_cross_entropy_into(
                    bws.logits.row(r),
                    ex.labels[t],
                    weights,
                    !ex.mask[t],
                    bws.dlogits.row_mut(r),
                    &mut ws.probs,
                );
                if ex.mask[t] {
                    ws.losses.push(loss);
                    if argmax(&ws.probs) == ex.labels[t] {
                        ws.correct += 1;
                    }
                }
            }
            passes.push((pos, ws));
        }

        // Head backward: the input gradient is one packed row-independent
        // GEMM; parameter gradients accumulate per example from extracted
        // matrices (their `t`-ascending order is per example, which packed
        // rows would interleave).
        bws.dlogits.matmul_into(&head.w, &mut bws.dh);
        for (bi, (_, ws)) in passes.iter_mut().enumerate() {
            extract_example_rows(&bws.dlogits, b_n, bi, &mut bws.da_ex);
            extract_example_rows(&bws.caches[layers.len() - 1].h, b_n, bi, &mut bws.h_ex);
            head.param_grads_into(&bws.h_ex, &bws.da_ex, &mut ws.head_grads);
        }

        // Backward down the stack; `dh`/`dx` swap roles exactly as in the
        // per-sequence pass.
        for (li, layer) in layers.iter().enumerate().rev() {
            layer.backward_batch_into(
                &bws.caches[li],
                b_n,
                &bws.dh,
                &mut bws.da_packed,
                &mut bws.dx,
                &mut bws.scratch,
            );
            for (bi, (_, ws)) in passes.iter_mut().enumerate() {
                extract_example_rows(&bws.da_packed, b_n, bi, &mut bws.da_ex);
                if li == 0 {
                    extract_example_rows(&bws.xs, b_n, bi, &mut bws.x_ex);
                } else {
                    extract_example_rows(&bws.caches[li - 1].h, b_n, bi, &mut bws.x_ex);
                }
                extract_example_rows(&bws.caches[li].h, b_n, bi, &mut bws.h_ex);
                layer.param_grads_into(
                    &bws.da_ex,
                    &bws.x_ex,
                    &bws.h_ex,
                    &mut ws.layer_grads[li],
                    &mut ws.scratch,
                );
            }
            std::mem::swap(&mut bws.dh, &mut bws.dx);
        }
        passes
    }

    /// Reference full forward + backward pass for one example, allocating
    /// every intermediate. Kept as the ground truth
    /// [`SequenceClassifier::bucket_pass_into`] (and therefore
    /// [`SequenceClassifier::fit`]) must match bitwise via
    /// [`SequenceClassifier::fit_reference`].
    fn example_pass(
        layers: &[LstmLayer],
        head: &Dense,
        ex: &SeqExample,
        weights: &[f32],
    ) -> ExamplePass {
        let xs = Self::features_to_matrix(&ex.features);

        // Forward through the LSTM stack.
        let mut caches = Vec::with_capacity(layers.len());
        let mut cur = xs;
        for layer in layers {
            let cache = layer.forward(&cur);
            cur = cache.h.clone();
            caches.push(cache);
        }
        let logits = head.forward(&cur);

        // Loss + dlogits per timestep.
        let mut losses = Vec::new();
        let mut correct = 0usize;
        let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
        for t in 0..logits.rows() {
            let eval = softmax_cross_entropy(logits.row(t), ex.labels[t], weights, !ex.mask[t]);
            if ex.mask[t] {
                losses.push(eval.loss);
                if argmax(&eval.probs) == ex.labels[t] {
                    correct += 1;
                }
            }
            dlogits.set_row(t, &eval.dlogits);
        }

        // Backward.
        let (head_grads, mut dh) = head.backward(&cur, &dlogits);
        let mut layer_grads = Vec::with_capacity(layers.len());
        for (layer, cache) in layers.iter().zip(caches.iter()).rev() {
            let (grads, dx) = layer.backward(cache, &dh);
            dh = dx;
            layer_grads.push(grads);
        }
        layer_grads.reverse();

        ExamplePass {
            layer_grads,
            head_grads,
            losses,
            correct,
        }
    }

    /// Trains with Adam, shuffling sequences each epoch. Returns the stats of
    /// the final epoch.
    ///
    /// The epoch loop is allocation-free in steady state: per-example
    /// buffers live in pooled [`Workspace`]s, gradient accumulators persist
    /// across batches, and example feature matrices are materialized once up
    /// front. The result is bitwise identical to
    /// [`SequenceClassifier::fit_reference`] at any thread count
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or feature widths mismatch the config.
    pub fn fit(&mut self, data: &[SeqExample]) -> EpochStats {
        assert!(!data.is_empty(), "fit called with no data");
        for ex in data {
            assert_eq!(ex.width(), self.config.input_size, "feature width mismatch");
            assert!(
                ex.labels.iter().all(|&l| l < self.config.classes),
                "label out of range"
            );
        }
        let weights = self
            .config
            .class_weights
            .clone()
            .unwrap_or_else(|| uniform_weights(self.config.classes));
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e3779b97f4a7c15);
        let mut order: Vec<usize> = (0..data.len()).collect();
        // Feature matrices are re-read every epoch but never change:
        // materialize them once instead of per pass.
        let inputs: Vec<Matrix> = data
            .iter()
            .map(|ex| Self::features_to_matrix(&ex.features))
            .collect();

        let opt_wx: Vec<Adam> = self
            .layers
            .iter()
            .map(|l| Adam::new(l.wx.len(), self.config.learning_rate))
            .collect();
        let opt_wh: Vec<Adam> = self
            .layers
            .iter()
            .map(|l| Adam::new(l.wh.len(), self.config.learning_rate))
            .collect();
        let opt_b: Vec<Adam> = self
            .layers
            .iter()
            .map(|l| Adam::new(l.b.len(), self.config.learning_rate))
            .collect();
        let opt_hw = Adam::new(self.head.w.len(), self.config.learning_rate);
        let opt_hb = Adam::new(self.head.b.len(), self.config.learning_rate);

        let pool = WorkspacePool::new(self.layers.len());
        let batch_pool = BatchWorkspacePool::new(self.layers.len());
        let acc_layers: Vec<LstmGrads> = self.layers.iter().map(|_| LstmGrads::empty()).collect();
        let acc_head = DenseGrads::empty();
        // Reusable bucketing scratch: (length, position-in-batch) pairs and
        // the half-open spans of equal-length runs after the stable sort.
        let len_pos: Vec<(usize, usize)> = Vec::new();
        let bucket_spans: Vec<(usize, usize)> = Vec::new();
        let slots: Vec<Option<Workspace>> = Vec::new();

        self.history.clear();
        let batch_size = self.config.batch_size.max(1);
        let mut opts = FitOptimizers {
            wx: opt_wx,
            wh: opt_wh,
            b: opt_b,
            hw: opt_hw,
            hb: opt_hb,
        };
        let mut scratch = FitScratch {
            acc_layers,
            acc_head,
            len_pos,
            bucket_spans,
            slots,
        };
        let mut last = EpochStats {
            mean_loss: 0.0,
            accuracy: 0.0,
        };
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            last = self.fit_epoch(
                data,
                &inputs,
                &weights,
                &order,
                batch_size,
                &pool,
                &batch_pool,
                &mut opts,
                &mut scratch,
            );
            self.history.push(last);
        }
        last
    }

    /// One epoch of [`SequenceClassifier::fit`]'s batched training loop
    /// over a pre-shuffled `order`. Extracted so the steady-state training
    /// loop is a call-graph root for the A1 hot-path-allocation rule
    /// (lint.toml `rules.A1.roots`): everything reachable from here must
    /// reuse the pools and accumulators threaded in — a fresh allocation
    /// per batch is a regression the linter catches.
    #[allow(clippy::too_many_arguments)]
    fn fit_epoch(
        &mut self,
        data: &[SeqExample],
        inputs: &[Matrix],
        weights: &[f32],
        order: &[usize],
        batch_size: usize,
        pool: &WorkspacePool,
        batch_pool: &BatchWorkspacePool,
        opts: &mut FitOptimizers,
        scratch: &mut FitScratch,
    ) -> EpochStats {
        let FitScratch {
            acc_layers,
            acc_head,
            len_pos,
            bucket_spans,
            slots,
        } = scratch;
        let FitOptimizers {
            wx: opt_wx,
            wh: opt_wh,
            b: opt_b,
            hw: opt_hw,
            hb: opt_hb,
        } = opts;
        {
            let mut loss_sum = 0.0f64;
            let mut loss_count = 0usize;
            let mut correct = 0usize;
            for batch in order.chunks(batch_size) {
                // Bucket the batch by exact sequence length: each bucket
                // runs as one packed pass (one fused GEMM per timestep over
                // the whole bucket). The sort is stable, so batch order is
                // preserved within every bucket; results carry their batch
                // position and are scattered back below, so bucket
                // composition cannot affect the reduction order. Buckets
                // only fan out over the worker pool when the batch is big
                // enough to pay for the dispatch.
                len_pos.clear();
                len_pos.extend(
                    batch
                        .iter()
                        .enumerate()
                        .map(|(pos, &idx)| (inputs[idx].rows(), pos)),
                );
                len_pos.sort_by_key(|&(len, _)| len);
                bucket_spans.clear();
                let mut start = 0;
                for end in 1..=len_pos.len() {
                    if end == len_pos.len() || len_pos[end].0 != len_pos[start].0 {
                        bucket_spans.push((start, end));
                        start = end;
                    }
                }
                let layers = &self.layers;
                let head = &self.head;
                let (pool_ref, batch_pool_ref) = (pool, batch_pool);
                let (inputs_ref, weights_ref) = (inputs, weights);
                let len_pos_ref: &[(usize, usize)] = len_pos;
                let bucket_results = crate::par::par_map_if_work(
                    batch.len(),
                    MIN_PARALLEL_FIT_SEQS,
                    bucket_spans,
                    |_, &(s, e)| {
                        let mut bws = batch_pool_ref.acquire();
                        let passes = Self::bucket_pass_into(
                            layers,
                            head,
                            data,
                            inputs_ref,
                            &len_pos_ref[s..e],
                            batch,
                            weights_ref,
                            &mut bws,
                            pool_ref,
                        );
                        batch_pool_ref.release(bws);
                        passes
                    },
                );
                slots.clear();
                slots.resize_with(batch.len(), || None);
                for bucket in bucket_results {
                    for (pos, ws) in bucket {
                        slots[pos] = Some(ws);
                    }
                }

                // Fixed-order reduce over batch positions: the first pass's
                // gradients are copied into the persistent accumulators
                // (bitwise identical to seeding the sum with them, unlike
                // adding onto zeros) and the remaining passes added in batch
                // order — the same order as before bucketing, whatever the
                // bucket layout was.
                let mut results = slots
                    .iter_mut()
                    .map(|slot| slot.take().expect("every batch position filled"));
                let first = results.next().expect("chunks yields non-empty batches");
                for (acc, g) in acc_layers.iter_mut().zip(first.layer_grads.iter()) {
                    acc.wx.copy_from(&g.wx);
                    acc.wh.copy_from(&g.wh);
                    acc.b.clear();
                    acc.b.extend_from_slice(&g.b);
                }
                acc_head.w.copy_from(&first.head_grads.w);
                acc_head.b.clear();
                acc_head.b.extend_from_slice(&first.head_grads.b);
                for &l in &first.losses {
                    loss_sum += l as f64;
                }
                loss_count += first.losses.len();
                correct += first.correct;
                pool.release(first);
                for pass in results {
                    for (acc, g) in acc_layers.iter_mut().zip(pass.layer_grads.iter()) {
                        acc.wx.add_assign(&g.wx);
                        acc.wh.add_assign(&g.wh);
                        for (a, &b) in acc.b.iter_mut().zip(g.b.iter()) {
                            *a += b;
                        }
                    }
                    acc_head.w.add_assign(&pass.head_grads.w);
                    for (a, &b) in acc_head.b.iter_mut().zip(pass.head_grads.b.iter()) {
                        *a += b;
                    }
                    for &l in &pass.losses {
                        loss_sum += l as f64;
                    }
                    loss_count += pass.losses.len();
                    correct += pass.correct;
                    pool.release(pass);
                }

                // Average, clip and apply one optimizer step per batch.
                {
                    // 3*layers+2 pointers into the persistent accumulators;
                    // holds `&mut` so it cannot outlive the batch or be
                    // pooled. lint: allow(A1)
                    let mut bufs: Vec<&mut [f32]> = Vec::new();
                    for g in acc_layers.iter_mut() {
                        bufs.push(g.wx.as_mut_slice());
                        bufs.push(g.wh.as_mut_slice());
                        bufs.push(&mut g.b);
                    }
                    bufs.push(acc_head.w.as_mut_slice());
                    bufs.push(&mut acc_head.b);
                    if batch.len() > 1 {
                        let inv = 1.0 / batch.len() as f32;
                        for buf in bufs.iter_mut() {
                            for v in buf.iter_mut() {
                                *v *= inv;
                            }
                        }
                    }
                    clip_global_norm(&mut bufs, self.config.clip_norm);
                }
                for (i, g) in acc_layers.iter().enumerate() {
                    opt_wx[i].step(self.layers[i].wx.as_mut_slice(), g.wx.as_slice());
                    opt_wh[i].step(self.layers[i].wh.as_mut_slice(), g.wh.as_slice());
                    opt_b[i].step(&mut self.layers[i].b, &g.b);
                }
                opt_hw.step(self.head.w.as_mut_slice(), acc_head.w.as_slice());
                opt_hb.step(&mut self.head.b, &acc_head.b);
            }
            EpochStats {
                mean_loss: if loss_count > 0 {
                    (loss_sum / loss_count as f64) as f32
                } else {
                    0.0
                },
                accuracy: if loss_count > 0 {
                    correct as f64 / loss_count as f64
                } else {
                    0.0
                },
            }
        }
    }

    /// Pre-workspace reference training loop: allocates every intermediate
    /// per example, exactly as `fit` did before the allocation-free rework.
    /// Kept as the ground truth [`SequenceClassifier::fit`] must match
    /// bitwise (property-tested in this crate and in the repo's determinism
    /// suite).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or feature widths mismatch the config.
    pub fn fit_reference(&mut self, data: &[SeqExample]) -> EpochStats {
        assert!(!data.is_empty(), "fit called with no data");
        for ex in data {
            assert_eq!(ex.width(), self.config.input_size, "feature width mismatch");
            assert!(
                ex.labels.iter().all(|&l| l < self.config.classes),
                "label out of range"
            );
        }
        let weights = self
            .config
            .class_weights
            .clone()
            .unwrap_or_else(|| uniform_weights(self.config.classes));
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e3779b97f4a7c15);
        let mut order: Vec<usize> = (0..data.len()).collect();

        let mut opt_wx: Vec<Adam> = self
            .layers
            .iter()
            .map(|l| Adam::new(l.wx.len(), self.config.learning_rate))
            .collect();
        let mut opt_wh: Vec<Adam> = self
            .layers
            .iter()
            .map(|l| Adam::new(l.wh.len(), self.config.learning_rate))
            .collect();
        let mut opt_b: Vec<Adam> = self
            .layers
            .iter()
            .map(|l| Adam::new(l.b.len(), self.config.learning_rate))
            .collect();
        let mut opt_hw = Adam::new(self.head.w.len(), self.config.learning_rate);
        let mut opt_hb = Adam::new(self.head.b.len(), self.config.learning_rate);

        self.history.clear();
        let batch_size = self.config.batch_size.max(1);
        let mut last = EpochStats {
            mean_loss: 0.0,
            accuracy: 0.0,
        };
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut loss_count = 0usize;
            let mut correct = 0usize;
            for batch in order.chunks(batch_size) {
                let layers = &self.layers;
                let head = &self.head;
                let results = crate::par::par_map(batch, |_, &idx| {
                    Self::example_pass(layers, head, &data[idx], &weights)
                });

                // Fixed-order reduce: sum gradients and loss stats in batch
                // order, then average the gradients.
                let mut results = results.into_iter();
                let first = results.next().expect("chunks yields non-empty batches");
                let (mut layer_grads, mut head_grads) = (first.layer_grads, first.head_grads);
                for &l in &first.losses {
                    loss_sum += l as f64;
                }
                loss_count += first.losses.len();
                correct += first.correct;
                for pass in results {
                    for (acc, g) in layer_grads.iter_mut().zip(pass.layer_grads.iter()) {
                        acc.wx.add_assign(&g.wx);
                        acc.wh.add_assign(&g.wh);
                        for (a, &b) in acc.b.iter_mut().zip(g.b.iter()) {
                            *a += b;
                        }
                    }
                    head_grads.w.add_assign(&pass.head_grads.w);
                    for (a, &b) in head_grads.b.iter_mut().zip(pass.head_grads.b.iter()) {
                        *a += b;
                    }
                    for &l in &pass.losses {
                        loss_sum += l as f64;
                    }
                    loss_count += pass.losses.len();
                    correct += pass.correct;
                }

                // Average, clip and apply one optimizer step per batch.
                {
                    let mut bufs: Vec<&mut [f32]> = Vec::new();
                    for g in layer_grads.iter_mut() {
                        bufs.push(g.wx.as_mut_slice());
                        bufs.push(g.wh.as_mut_slice());
                        bufs.push(&mut g.b);
                    }
                    bufs.push(head_grads.w.as_mut_slice());
                    bufs.push(&mut head_grads.b);
                    if batch.len() > 1 {
                        let inv = 1.0 / batch.len() as f32;
                        for buf in bufs.iter_mut() {
                            for v in buf.iter_mut() {
                                *v *= inv;
                            }
                        }
                    }
                    clip_global_norm(&mut bufs, self.config.clip_norm);
                }
                for (i, g) in layer_grads.iter().enumerate() {
                    opt_wx[i].step(self.layers[i].wx.as_mut_slice(), g.wx.as_slice());
                    opt_wh[i].step(self.layers[i].wh.as_mut_slice(), g.wh.as_slice());
                    opt_b[i].step(&mut self.layers[i].b, &g.b);
                }
                opt_hw.step(self.head.w.as_mut_slice(), head_grads.w.as_slice());
                opt_hb.step(&mut self.head.b, &head_grads.b);
            }
            last = EpochStats {
                mean_loss: if loss_count > 0 {
                    (loss_sum / loss_count as f64) as f32
                } else {
                    0.0
                },
                accuracy: if loss_count > 0 {
                    correct as f64 / loss_count as f64
                } else {
                    0.0
                },
            };
            self.history.push(last);
        }
        last
    }

    /// Predicts the per-timestep class probabilities for one sequence. An
    /// empty sequence yields an empty prediction — length-0 iterations do
    /// occur in faulted traces and must not abort the whole attack.
    ///
    /// Routes through [`SequenceClassifier::predict_proba_batch`] with a
    /// single-sequence bucket; bitwise identical to
    /// [`SequenceClassifier::predict_proba_naive`] (property-tested).
    pub fn predict_proba(&self, features: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.predict_proba_batch(&[features])
            .pop()
            .expect("one result per input sequence")
    }

    /// Fully scalar per-sequence inference: walks [`LstmLayer::forward_naive`]
    /// — per-gate horizontal dot products, no fused GEMM, no batching —
    /// through the stack. This is the serving benchmark's "f32-scalar"
    /// baseline (the per-label cost before any of the batching/tiling/SIMD
    /// work), and the inference oracle: [`SequenceClassifier::predict_proba`]
    /// and [`SequenceClassifier::predict_proba_batch`] must agree with it
    /// bitwise, because the fused paths preserve per-element summation
    /// order (property-tested).
    pub fn predict_proba_naive(&self, features: &[Vec<f32>]) -> Vec<Vec<f32>> {
        if features.is_empty() {
            return Vec::new();
        }
        assert_eq!(
            features[0].len(),
            self.config.input_size,
            "feature width mismatch"
        );
        let mut cur = Self::features_to_matrix(features);
        for layer in &self.layers {
            cur = layer.forward_naive(&cur).h;
        }
        let mut probs = Vec::with_capacity(cur.rows());
        for t in 0..cur.rows() {
            let logits = self.head.forward_one(cur.row(t));
            probs.push(crate::activation::softmax(&logits));
        }
        probs
    }

    /// Per-timestep labels via the fully scalar walk (argmax of
    /// [`SequenceClassifier::predict_proba_naive`]).
    pub fn predict_naive(&self, features: &[Vec<f32>]) -> Vec<usize> {
        self.predict_proba_naive(features)
            .iter()
            .map(|p| argmax(p))
            .collect()
    }

    /// Predicts per-timestep class probabilities for many sequences at once.
    ///
    /// Sequences are bucketed by exact length (a `BTreeMap`, so bucket order
    /// is deterministic) and each bucket runs the packed batched forward —
    /// one fused GEMM per timestep across the bucket — instead of one
    /// recurrence per sequence. Results come back in input order, each
    /// bitwise identical to [`SequenceClassifier::predict_proba_naive`]
    /// on that sequence alone: packed GEMM rows are independent, so bucket
    /// composition cannot change any sequence's values. Empty sequences
    /// yield empty predictions.
    pub fn predict_proba_batch(&self, seqs: &[&[Vec<f32>]]) -> Vec<Vec<Vec<f32>>> {
        let mut results: Vec<Vec<Vec<f32>>> = vec![Vec::new(); seqs.len()];
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, seq) in seqs.iter().enumerate() {
            if seq.is_empty() {
                continue;
            }
            assert_eq!(
                seq[0].len(),
                self.config.input_size,
                "feature width mismatch"
            );
            buckets.entry(seq.len()).or_default().push(i);
        }
        let mut bws = BatchWorkspace::new(self.layers.len());
        for (&t_len, idxs) in &buckets {
            let b_n = idxs.len();
            bws.xs.resize_zeroed(t_len * b_n, self.config.input_size);
            for (bi, &i) in idxs.iter().enumerate() {
                for (t, row) in seqs[i].iter().enumerate() {
                    bws.xs.set_row(t * b_n + bi, row);
                }
            }
            for (li, layer) in self.layers.iter().enumerate() {
                let (done, rest) = bws.caches.split_at_mut(li);
                let input = if li == 0 { &bws.xs } else { &done[li - 1].h };
                layer.forward_batch_into(input, b_n, &mut rest[0], &mut bws.scratch);
            }
            self.head
                .forward_into(&bws.caches[self.layers.len() - 1].h, &mut bws.logits);
            for (bi, &i) in idxs.iter().enumerate() {
                results[i] = (0..t_len)
                    .map(|t| crate::activation::softmax(bws.logits.row(t * b_n + bi)))
                    .collect();
            }
        }
        results
    }

    /// Predicts per-timestep class labels for many sequences at once (the
    /// batched counterpart of [`SequenceClassifier::predict`]).
    pub fn predict_batch(&self, seqs: &[&[Vec<f32>]]) -> Vec<Vec<usize>> {
        self.predict_proba_batch(seqs)
            .iter()
            .map(|probs| probs.iter().map(|p| argmax(p)).collect())
            .collect()
    }

    /// Predicts the per-timestep class labels for one sequence.
    pub fn predict(&self, features: &[Vec<f32>]) -> Vec<usize> {
        self.predict_proba(features)
            .iter()
            .map(|p| argmax(p))
            .collect()
    }

    /// A fresh (all-zero) carry state for one streamed sequence — the state
    /// every sequence implicitly starts from in the batch paths.
    pub fn stream_state(&self) -> StreamState {
        StreamState {
            h: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.hidden_size()])
                .collect(),
            c: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.hidden_size()])
                .collect(),
        }
    }

    /// Stateful streaming inference over many independent streams at once:
    /// `chunks[i]` is the next span of stream `i`'s feature rows and
    /// `states[i]` its `(h, c)` carry, updated in place.
    ///
    /// Equal-length chunks are bucketed exactly like
    /// [`SequenceClassifier::predict_proba_batch`] buckets whole sequences
    /// (a `BTreeMap`, deterministic order) and share fused packed GEMMs
    /// across streams. Because packed GEMM rows are independent and the
    /// recurrence arithmetic is identical whether the previous state came
    /// from the carry or from the preceding timestep of the same call,
    /// concatenating a stream's chunk outputs is **bitwise identical** to
    /// one [`SequenceClassifier::predict_proba`] call on the whole sequence
    /// — for any chunking, and regardless of which other streams share the
    /// call (property-tested). Empty chunks yield empty outputs and leave
    /// their carry untouched.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` and `states` disagree in length, a chunk's feature
    /// width mismatches the classifier, or a carry state has the wrong
    /// shape.
    pub fn predict_proba_stream_chunks(
        &self,
        chunks: &[&[Vec<f32>]],
        states: &mut [StreamState],
    ) -> Vec<Vec<Vec<f32>>> {
        assert_eq!(chunks.len(), states.len(), "one carry state per stream");
        let mut results: Vec<Vec<Vec<f32>>> = vec![Vec::new(); chunks.len()];
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, chunk) in chunks.iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            assert_eq!(
                chunk[0].len(),
                self.config.input_size,
                "feature width mismatch"
            );
            assert_eq!(
                states[i].h.len(),
                self.layers.len(),
                "carry state layer count mismatch"
            );
            buckets.entry(chunk.len()).or_default().push(i);
        }
        let mut bws = BatchWorkspace::new(self.layers.len());
        let mut h0 = Matrix::zeros(1, 1);
        let mut c0 = Matrix::zeros(1, 1);
        for (&t_len, idxs) in &buckets {
            let b_n = idxs.len();
            bws.xs.resize_zeroed(t_len * b_n, self.config.input_size);
            for (bi, &i) in idxs.iter().enumerate() {
                for (t, row) in chunks[i].iter().enumerate() {
                    bws.xs.set_row(t * b_n + bi, row);
                }
            }
            for (li, layer) in self.layers.iter().enumerate() {
                let h_size = layer.hidden_size();
                h0.resize_zeroed(b_n, h_size);
                c0.resize_zeroed(b_n, h_size);
                for (bi, &i) in idxs.iter().enumerate() {
                    assert_eq!(states[i].h[li].len(), h_size, "carry state width mismatch");
                    h0.row_mut(bi).copy_from_slice(&states[i].h[li]);
                    c0.row_mut(bi).copy_from_slice(&states[i].c[li]);
                }
                let (done, rest) = bws.caches.split_at_mut(li);
                let input = if li == 0 { &bws.xs } else { &done[li - 1].h };
                layer.forward_batch_stateful_into(
                    input,
                    b_n,
                    Some((&mut h0, &mut c0)),
                    &mut rest[0],
                    &mut bws.scratch,
                );
                for (bi, &i) in idxs.iter().enumerate() {
                    states[i].h[li].copy_from_slice(h0.row(bi));
                    states[i].c[li].copy_from_slice(c0.row(bi));
                }
            }
            self.head
                .forward_into(&bws.caches[self.layers.len() - 1].h, &mut bws.logits);
            for (bi, &i) in idxs.iter().enumerate() {
                results[i] = (0..t_len)
                    .map(|t| crate::activation::softmax(bws.logits.row(t * b_n + bi)))
                    .collect();
            }
        }
        results
    }

    /// Label form of [`SequenceClassifier::predict_proba_stream_chunks`]:
    /// the same softmax + first-max argmax sequence as
    /// [`SequenceClassifier::predict_batch`], so streamed labels can never
    /// diverge from batch labels on a near-tie.
    pub fn predict_stream_chunks(
        &self,
        chunks: &[&[Vec<f32>]],
        states: &mut [StreamState],
    ) -> Vec<Vec<usize>> {
        self.predict_proba_stream_chunks(chunks, states)
            .iter()
            .map(|probs| probs.iter().map(|p| argmax(p)).collect())
            .collect()
    }

    /// Single-stream convenience for
    /// [`SequenceClassifier::predict_proba_stream_chunks`].
    pub fn predict_proba_stream_chunk(
        &self,
        chunk: &[Vec<f32>],
        state: &mut StreamState,
    ) -> Vec<Vec<f32>> {
        self.predict_proba_stream_chunks(&[chunk], std::slice::from_mut(state))
            .pop()
            .expect("one result per stream")
    }
}

/// Per-stream `(h, c)` carry for chunked stateful inference: one hidden and
/// one cell vector per stacked LSTM layer. Obtained from
/// [`SequenceClassifier::stream_state`]; passing it back to the streaming
/// predict calls advances it in place. A fresh state is all zeros — exactly
/// where the batch paths start every sequence — so chunked and whole-sequence
/// inference agree bitwise from the first timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    h: Vec<Vec<f32>>,
    c: Vec<Vec<f32>>,
}

impl StreamState {
    /// Resets the carry to the all-zero start-of-sequence state, reusing the
    /// allocations.
    pub fn reset(&mut self) {
        for v in self.h.iter_mut().chain(self.c.iter_mut()) {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
    }
}

/// Copies sequence `bi`'s rows (`t * batch + bi`, `t` ascending) out of a
/// batch-major packed matrix into `out` (T x cols).
fn extract_example_rows(packed: &Matrix, batch: usize, bi: usize, out: &mut Matrix) {
    let t_len = packed.rows() / batch;
    out.resize_zeroed(t_len, packed.cols());
    for t in 0..t_len {
        out.set_row(t, packed.row(t * batch + bi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic task: class = quadrant of the (noisy) 2-d input.
    fn quadrant_dataset(n: usize, t: usize, seed: u64) -> Vec<SeqExample> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut features = Vec::with_capacity(t);
                let mut labels = Vec::with_capacity(t);
                for _ in 0..t {
                    let lab = rng.gen_range(0..4usize);
                    let (sx, sy) = match lab {
                        0 => (1.0, 1.0),
                        1 => (-1.0, 1.0),
                        2 => (-1.0, -1.0),
                        _ => (1.0, -1.0),
                    };
                    features.push(vec![
                        sx + rng.gen_range(-0.2f32..0.2),
                        sy + rng.gen_range(-0.2f32..0.2),
                    ]);
                    labels.push(lab);
                }
                SeqExample::new(features, labels)
            })
            .collect()
    }

    #[test]
    fn learns_separable_per_timestep_task() {
        let mut cfg = SeqClassifierConfig::new(2, 12, 4);
        cfg.epochs = 25;
        cfg.seed = 11;
        let data = quadrant_dataset(16, 8, 3);
        let mut clf = SequenceClassifier::new(cfg);
        let stats = clf.fit(&data);
        assert!(stats.accuracy > 0.9, "train accuracy too low: {:?}", stats);
        // Generalizes to fresh sequences from the same distribution.
        let test = quadrant_dataset(4, 8, 999);
        let mut correct = 0;
        let mut total = 0;
        for ex in &test {
            let pred = clf.predict(&ex.features);
            for (p, &l) in pred.iter().zip(&ex.labels) {
                total += 1;
                if *p == l {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.85,
            "{}/{}",
            correct,
            total
        );
    }

    #[test]
    fn uses_context_for_ambiguous_timesteps() {
        // The label of every timestep equals the label carried by the first
        // timestep's one-hot; later inputs are zero. Solving this requires
        // memory, which a per-timestep (memoryless) classifier cannot have.
        let mut data = Vec::new();
        for lab in 0..2usize {
            for _ in 0..6 {
                let mut features = vec![vec![0.0, 0.0]; 6];
                features[0][lab] = 1.0;
                data.push(SeqExample::new(features, vec![lab; 6]));
            }
        }
        let mut cfg = SeqClassifierConfig::new(2, 10, 2);
        cfg.epochs = 60;
        cfg.seed = 21;
        let mut clf = SequenceClassifier::new(cfg);
        let stats = clf.fit(&data);
        assert!(
            stats.accuracy > 0.95,
            "LSTM failed to carry context: {:?}",
            stats
        );
    }

    #[test]
    fn masked_timesteps_do_not_drive_learning() {
        // Two classes with identical features; class-1 labels only ever
        // appear masked, so the model should keep predicting class 0.
        let mut data = Vec::new();
        for _ in 0..8 {
            let features = vec![vec![1.0]; 4];
            data.push(SeqExample::with_mask(
                features.clone(),
                vec![0, 1, 0, 1],
                vec![true, false, true, false],
            ));
        }
        let mut cfg = SeqClassifierConfig::new(1, 6, 2);
        cfg.epochs = 30;
        let mut clf = SequenceClassifier::new(cfg);
        let stats = clf.fit(&data);
        assert!(stats.accuracy > 0.95, "{:?}", stats);
        let pred = clf.predict(&data[0].features);
        assert!(pred.iter().all(|&p| p == 0), "{:?}", pred);
    }

    #[test]
    fn minibatch_training_learns_separable_task() {
        let mut cfg = SeqClassifierConfig::new(2, 12, 4);
        cfg.epochs = 25;
        cfg.seed = 11;
        cfg.batch_size = 4;
        let data = quadrant_dataset(16, 8, 3);
        let mut clf = SequenceClassifier::new(cfg);
        let stats = clf.fit(&data);
        assert!(
            stats.accuracy > 0.9,
            "batched train accuracy too low: {:?}",
            stats
        );
    }

    #[test]
    fn fit_is_bitwise_thread_count_invariant() {
        let data = quadrant_dataset(10, 6, 13);
        for batch_size in [1usize, 4] {
            let mut cfg = SeqClassifierConfig::new(2, 8, 4);
            cfg.epochs = 4;
            cfg.batch_size = batch_size;
            let run = |threads: usize| {
                let cfg = cfg.clone();
                let data = &data;
                crate::par::with_threads(threads, move || {
                    let mut clf = SequenceClassifier::new(cfg);
                    clf.fit(data);
                    clf
                })
            };
            let one = run(1);
            let eight = run(8);
            assert_eq!(
                one.history(),
                eight.history(),
                "history differs (batch {})",
                batch_size
            );
            for (a, b) in one.layers.iter().zip(&eight.layers) {
                assert_eq!(a.wx, b.wx, "wx differs (batch {})", batch_size);
                assert_eq!(a.wh, b.wh, "wh differs (batch {})", batch_size);
                assert_eq!(a.b, b.b, "b differs (batch {})", batch_size);
            }
            assert_eq!(
                one.head.w, eight.head.w,
                "head differs (batch {})",
                batch_size
            );
            assert_eq!(
                one.head.b, eight.head.b,
                "head bias differs (batch {})",
                batch_size
            );
        }
    }

    #[test]
    fn fit_matches_allocating_reference_bitwise() {
        // `batch_size = 1` (single-example minibatches) and `t_len = 1`
        // (single-timestep sequences) sit at the generator floors, so every
        // counterexample shrinks toward the classic per-example schedule.
        let shapes = testkit::gen::zip3(
            testkit::gen::usize_in(1, 5), // batch_size
            testkit::gen::usize_in(1, 8), // thread count
            testkit::gen::usize_in(1, 5), // timesteps per sequence
        );
        testkit::check(
            "seq_fit_pooled_vs_reference",
            &shapes,
            |&(batch_size, threads, t_len)| {
                let data = quadrant_dataset(6, t_len, 13);
                let mut cfg = SeqClassifierConfig::new(2, 6, 4);
                cfg.epochs = 3;
                cfg.batch_size = batch_size;
                let (pooled, reference) = crate::par::with_threads(threads, || {
                    let mut a = SequenceClassifier::new(cfg.clone());
                    a.fit(&data);
                    let mut b = SequenceClassifier::new(cfg.clone());
                    b.fit_reference(&data);
                    (a, b)
                });
                testkit::prop::holds(pooled.history() == reference.history(), "history differs")?;
                for (a, b) in pooled.layers.iter().zip(&reference.layers) {
                    testkit::prop::holds(a.wx == b.wx, "wx differs")?;
                    testkit::prop::holds(a.wh == b.wh, "wh differs")?;
                    testkit::prop::holds(a.b == b.b, "b differs")?;
                }
                testkit::prop::holds(pooled.head.w == reference.head.w, "head w differs")?;
                testkit::prop::holds(pooled.head.b == reference.head.b, "head b differs")
            },
        );
    }

    #[test]
    fn packed_batch_predict_matches_unpacked_reference_bitwise() {
        use rand::Rng;
        let mut cfg = SeqClassifierConfig::new(3, 7, 4);
        cfg.epochs = 2;
        cfg.seed = 0xbead;
        let train: Vec<SeqExample> = (0..6)
            .map(|i| {
                let lab = i % 4;
                SeqExample::new(vec![vec![lab as f32, 1.0, -0.5]; 4], vec![lab; 4])
            })
            .collect();
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&train);
        // Ragged length multisets: len-0 and len-1 sequences, duplicate
        // lengths (bucket sizes > 1) and lengths straddling small-bucket
        // boundaries all occur; the whole batch must agree with the
        // per-sequence reference bit for bit.
        let lens =
            testkit::gen::vec_of(testkit::gen::choice(vec![0usize, 1, 2, 3, 5, 8, 9]), 1, 10);
        testkit::check("seq_packed_predict_vs_reference", &lens, |lens| {
            let mut rng = StdRng::seed_from_u64(
                0x9acc_ee01
                    ^ lens
                        .iter()
                        .fold(7u64, |a, &l| a.wrapping_mul(31) + l as u64),
            );
            let seqs: Vec<Vec<Vec<f32>>> = lens
                .iter()
                .map(|&l| {
                    (0..l)
                        .map(|_| (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                        .collect()
                })
                .collect();
            let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
            let packed = clf.predict_proba_batch(&refs);
            for (i, seq) in seqs.iter().enumerate() {
                let solo = clf.predict_proba_naive(seq);
                testkit::prop::holds(
                    packed[i] == solo,
                    format!("sequence {i} (len {}) differs from reference", seq.len()),
                )?;
                testkit::prop::holds(
                    clf.predict_proba(seq) == solo,
                    format!("predict_proba for sequence {i} differs from reference"),
                )?;
            }
            let labels = clf.predict_batch(&refs);
            for (i, seq) in seqs.iter().enumerate() {
                testkit::prop::holds(
                    labels[i] == clf.predict(seq),
                    format!("predict_batch labels differ for sequence {i}"),
                )?;
            }
            Ok(())
        });
    }

    #[test]
    fn stream_chunked_inference_matches_whole_sequence_bitwise() {
        use rand::Rng;
        // Two stacked layers so the carry covers the multi-layer path.
        let mut cfg = SeqClassifierConfig::new(2, 12, 4);
        cfg.hidden_sizes = vec![12, 8];
        cfg.epochs = 2;
        cfg.seed = 0x57_ea;
        let data = quadrant_dataset(8, 6, 41);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&data);
        // Any chunking of a sequence — including 1-row chunks and interior
        // empty chunks — must reproduce the whole-sequence output bitwise.
        let seeds = testkit::gen::vec_of(testkit::gen::u64_in(0, u64::MAX), 1, 6);
        testkit::check("seq_stream_chunking_vs_whole", &seeds, |seeds| {
            for &seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let t_len = rng.gen_range(1..=14usize);
                let seq: Vec<Vec<f32>> = (0..t_len)
                    .map(|_| (0..2).map(|_| rng.gen_range(-1.5f32..1.5)).collect())
                    .collect();
                let whole = clf.predict_proba(&seq);
                let mut state = clf.stream_state();
                let mut streamed: Vec<Vec<f32>> = Vec::new();
                let mut at = 0usize;
                while at < t_len {
                    if rng.gen_bool(0.2) {
                        // Interleave empty chunks: no output, carry untouched.
                        let before = state.clone();
                        let out = clf.predict_proba_stream_chunk(&[], &mut state);
                        testkit::prop::holds(out.is_empty(), "empty chunk must be empty")?;
                        testkit::prop::holds(state == before, "empty chunk moved the carry")?;
                    }
                    let take = rng.gen_range(1..=4usize).min(t_len - at);
                    streamed
                        .extend(clf.predict_proba_stream_chunk(&seq[at..at + take], &mut state));
                    at += take;
                }
                testkit::prop::holds(
                    streamed == whole,
                    format!("chunked stream diverged from whole sequence (seed {seed:#x})"),
                )?;
                // The label path must be the argmax of the proba path.
                state.reset();
                let labels = clf.predict_stream_chunks(&[&seq], std::slice::from_mut(&mut state));
                testkit::prop::holds(
                    labels[0] == clf.predict(&seq),
                    "streamed labels diverged from batch labels",
                )?;
            }
            Ok(())
        });
    }

    #[test]
    fn cross_stream_batched_chunks_match_isolated_streams_bitwise() {
        use rand::Rng;
        let mut cfg = SeqClassifierConfig::new(2, 10, 4);
        cfg.epochs = 2;
        cfg.seed = 0xf1ee;
        let data = quadrant_dataset(8, 5, 43);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&data);
        // Several streams of different lengths advance in lockstep through
        // one batched call per round; each must match the same stream
        // advanced alone, chunk for chunk, bit for bit.
        let mut rng = StdRng::seed_from_u64(0x0ba7_c4ed);
        let streams: Vec<Vec<Vec<f32>>> = [11usize, 4, 7, 1, 11]
            .iter()
            .map(|&t| {
                (0..t)
                    .map(|_| (0..2).map(|_| rng.gen_range(-1.5f32..1.5)).collect())
                    .collect()
            })
            .collect();
        let chunk_sizes = [3usize, 2, 4, 1, 3];
        let mut joint_states: Vec<StreamState> =
            streams.iter().map(|_| clf.stream_state()).collect();
        let mut joint_out: Vec<Vec<Vec<f32>>> = vec![Vec::new(); streams.len()];
        let mut offsets = vec![0usize; streams.len()];
        while offsets.iter().zip(&streams).any(|(&o, s)| o < s.len()) {
            let chunks: Vec<&[Vec<f32>]> = streams
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let end = (offsets[i] + chunk_sizes[i]).min(s.len());
                    &s[offsets[i]..end]
                })
                .collect();
            let round = clf.predict_proba_stream_chunks(&chunks, &mut joint_states);
            for (i, out) in round.into_iter().enumerate() {
                offsets[i] += chunks[i].len();
                joint_out[i].extend(out);
            }
        }
        for (i, seq) in streams.iter().enumerate() {
            // Isolated replay of the same chunking.
            let mut state = clf.stream_state();
            let mut solo: Vec<Vec<f32>> = Vec::new();
            let mut at = 0usize;
            while at < seq.len() {
                let end = (at + chunk_sizes[i]).min(seq.len());
                solo.extend(clf.predict_proba_stream_chunk(&seq[at..end], &mut state));
                at = end;
            }
            assert_eq!(
                joint_out[i], solo,
                "stream {i} diverged between batched and isolated runs"
            );
            assert_eq!(
                joint_out[i],
                clf.predict_proba(seq),
                "stream {i} diverged from whole-sequence inference"
            );
            assert_eq!(joint_states[i], state, "stream {i} carry state diverged");
        }
    }

    #[test]
    fn fit_gates_parallelism_but_large_batches_stay_invariant() {
        // A batch larger than MIN_PARALLEL_FIT_SEQS actually fans out; the
        // result must still be bitwise identical to the serial run.
        let data = quadrant_dataset(MIN_PARALLEL_FIT_SEQS + 8, 5, 23);
        let mut cfg = SeqClassifierConfig::new(2, 6, 4);
        cfg.epochs = 2;
        cfg.batch_size = MIN_PARALLEL_FIT_SEQS + 8;
        let run = |threads: usize| {
            let cfg = cfg.clone();
            let data = &data;
            crate::par::with_threads(threads, move || {
                let mut clf = SequenceClassifier::new(cfg);
                clf.fit(data);
                clf
            })
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.history(), eight.history());
        for (a, b) in one.layers.iter().zip(&eight.layers) {
            assert_eq!(a.wx, b.wx);
            assert_eq!(a.wh, b.wh);
            assert_eq!(a.b, b.b);
        }
        assert_eq!(one.head.w, eight.head.w);
        assert_eq!(one.head.b, eight.head.b);
    }

    #[test]
    fn predict_handles_empty_and_single_step_sequences() {
        let mut cfg = SeqClassifierConfig::new(2, 6, 4);
        cfg.epochs = 2;
        let data = quadrant_dataset(4, 3, 5);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&data);
        // Length-0: an empty prediction, not a panic (faulted traces can
        // produce empty iterations).
        assert!(clf.predict_proba(&[]).is_empty());
        assert!(clf.predict(&[]).is_empty());
        // Length-1: exactly one per-timestep distribution, consistent with
        // `predict`, for any feature row.
        let row = testkit::gen::vec_of(testkit::gen::f32_in(-1.0, 1.0), 2, 2);
        testkit::check("seq_predict_len1", &row, |row| {
            let p = clf.predict_proba(std::slice::from_ref(row));
            testkit::prop::holds(p.len() == 1, "len-1 sequence must give one prediction")?;
            let sum: f32 = p[0].iter().sum();
            testkit::prop::holds((sum - 1.0).abs() < 1e-4, "probabilities must sum to 1")?;
            testkit::prop::holds(
                clf.predict(std::slice::from_ref(row)) == vec![argmax(&p[0])],
                "predict must be the argmax of predict_proba",
            )
        });
    }

    #[test]
    fn history_is_recorded_per_epoch() {
        let mut cfg = SeqClassifierConfig::new(2, 4, 4);
        cfg.epochs = 3;
        let data = quadrant_dataset(4, 4, 7);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&data);
        assert_eq!(clf.history().len(), 3);
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut cfg = SeqClassifierConfig::new(2, 12, 4);
        cfg.epochs = 15;
        let data = quadrant_dataset(12, 8, 5);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&data);
        let first = clf.history().first().unwrap().mean_loss;
        let last = clf.history().last().unwrap().mean_loss;
        assert!(
            last < first * 0.7,
            "loss did not decrease: {} -> {}",
            first,
            last
        );
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_validates_width() {
        let cfg = SeqClassifierConfig::new(3, 4, 2);
        let clf = SequenceClassifier::new(cfg);
        let _ = clf.predict(&[vec![0.0; 2]]);
    }

    #[test]
    fn param_count_is_positive_and_consistent() {
        let cfg = SeqClassifierConfig::new(10, 16, 4);
        let clf = SequenceClassifier::new(cfg);
        // wx: 64*10, wh: 64*16, b: 64, head: 4*16+4
        assert_eq!(clf.param_count(), 64 * 10 + 64 * 16 + 64 + 4 * 16 + 4);
    }
}
