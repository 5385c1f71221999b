//! A from-scratch LSTM layer with full backpropagation-through-time.
//!
//! This is the building block behind the paper's five inference models
//! (Table III: `Mlong`/`Mop`/`Vlong`/`Vop` use LSTM-256, `Mhp` uses LSTM-128).
//! Gate layout in the packed weight matrices is `[input, forget, cell, output]`.

use rand::rngs::StdRng;

use crate::activation::{sigmoid, sigmoid_deriv_from_output, tanh_deriv_from_output};
use crate::matrix::{dot, Matrix};

/// One LSTM layer: packed gate weights for inputs (`wx`: 4H×I), recurrent
/// state (`wh`: 4H×H) and biases (`b`: 4H).
#[derive(Debug, Clone)]
pub struct LstmLayer {
    input_size: usize,
    hidden_size: usize,
    /// Input weights, 4H x I.
    pub wx: Matrix,
    /// Recurrent weights, 4H x H.
    pub wh: Matrix,
    /// Gate biases, length 4H.
    pub b: Vec<f32>,
}

/// Per-timestep activations cached by a forward pass
/// ([`LstmLayer::forward_batch_into`], or [`LstmLayer::forward_naive`] for
/// one sequence), consumed by the matching backward pass
/// ([`LstmLayer::backward_batch_into`] / [`LstmLayer::backward_naive`]).
#[derive(Debug, Clone)]
pub struct LstmCache {
    /// Gate activations per timestep: i, f, g, o each T x H.
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    /// Cell states per timestep (T x H).
    c: Matrix,
    /// `tanh` of each cell state (T x H) — computed on the forward pass
    /// anyway (for `h = o * tanh(c)`), cached so backward never recomputes a
    /// transcendental.
    tc: Matrix,
    /// Hidden states per timestep (T x H).
    pub h: Matrix,
}

/// Gradients for one [`LstmLayer`], same shapes as the parameters.
#[derive(Debug, Clone)]
pub struct LstmGrads {
    /// d/d wx, 4H x I.
    pub wx: Matrix,
    /// d/d wh, 4H x H.
    pub wh: Matrix,
    /// d/d b, length 4H.
    pub b: Vec<f32>,
}

impl LstmCache {
    /// A placeholder cache ready to be shaped by
    /// [`LstmLayer::forward_batch_into`].
    pub fn empty() -> Self {
        LstmCache {
            i: Matrix::zeros(1, 1),
            f: Matrix::zeros(1, 1),
            g: Matrix::zeros(1, 1),
            o: Matrix::zeros(1, 1),
            c: Matrix::zeros(1, 1),
            tc: Matrix::zeros(1, 1),
            h: Matrix::zeros(1, 1),
        }
    }
}

impl LstmGrads {
    /// A placeholder gradient set ready to be shaped by
    /// [`LstmLayer::param_grads_into`].
    pub fn empty() -> Self {
        LstmGrads {
            wx: Matrix::zeros(1, 1),
            wh: Matrix::zeros(1, 1),
            // cold-init: shaped once by param_grads_into, then reused. lint: allow(A1)
            b: Vec::new(),
        }
    }
}

/// Reusable temporaries for the packed kernels
/// ([`LstmLayer::forward_batch_into`], [`LstmLayer::backward_batch_into`])
/// and [`LstmLayer::param_grads_into`]: every intermediate they need,
/// resized (never reallocated, once warm) per call. One scratch serves any
/// bucket size and sequence length because each pass fully overwrites what
/// it reads.
#[derive(Debug, Clone)]
pub struct LstmScratch {
    x_proj: Matrix,
    wxt: Matrix,
    wht: Matrix,
    pre: Vec<f32>,
    da_rev: Matrix,
    xs_rev: Matrix,
    da_tail: Matrix,
    h_tail: Matrix,
    /// Batched-kernel state: previous hidden/cell states, one row per
    /// sequence in the bucket (B x H).
    h_prev_b: Matrix,
    c_prev_b: Matrix,
    /// Batched recurrent projection for one timestep (B x 4H).
    acc_b: Matrix,
    /// One timestep's gate deltas across the bucket (B x 4H).
    da_t: Matrix,
    /// Batched backward carries (B x H).
    dh_next_b: Matrix,
    dc_next_b: Matrix,
}

impl LstmScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        LstmScratch {
            x_proj: Matrix::zeros(1, 1),
            wxt: Matrix::zeros(1, 1),
            wht: Matrix::zeros(1, 1),
            // cold-init: grown on first use by the packed forward and reused
            // from then on (pool-slot construction).
            pre: Vec::new(), // lint: allow(A1)
            da_rev: Matrix::zeros(1, 1),
            xs_rev: Matrix::zeros(1, 1),
            da_tail: Matrix::zeros(1, 1),
            h_tail: Matrix::zeros(1, 1),
            h_prev_b: Matrix::zeros(1, 1),
            c_prev_b: Matrix::zeros(1, 1),
            acc_b: Matrix::zeros(1, 1),
            da_t: Matrix::zeros(1, 1),
            dh_next_b: Matrix::zeros(1, 1),
            dc_next_b: Matrix::zeros(1, 1),
        }
    }
}

impl Default for LstmScratch {
    fn default() -> Self {
        LstmScratch::new()
    }
}

/// Clears `v` and refills it with `n` zeros, keeping its allocation.
fn reset_zeroed(v: &mut Vec<f32>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

impl LstmLayer {
    /// Creates a layer with Xavier-initialized weights and forget-gate bias 1
    /// (the standard trick to preserve long-range memory early in training).
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut StdRng) -> Self {
        assert!(
            input_size > 0 && hidden_size > 0,
            "lstm sizes must be non-zero"
        );
        let mut b = vec![0.0; 4 * hidden_size];
        for v in b[hidden_size..2 * hidden_size].iter_mut() {
            *v = 1.0;
        }
        LstmLayer {
            input_size,
            hidden_size,
            wx: Matrix::xavier(4 * hidden_size, input_size, rng),
            wh: Matrix::xavier(4 * hidden_size, hidden_size, rng),
            b,
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len()
    }

    /// Reference forward pass over one sequence (`xs`: T x I, zero start
    /// state): per-timestep, per-gate dot products. Kept as the ground truth
    /// the packed [`LstmLayer::forward_batch_into`] must match bitwise for
    /// every sequence of a bucket (property-tested), and as the forward half
    /// of [`crate::seq::SequenceClassifier::fit_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != input_size`.
    pub fn forward_naive(&self, xs: &Matrix) -> LstmCache {
        assert_eq!(xs.cols(), self.input_size, "lstm input width mismatch");
        let t_len = xs.rows();
        let h_size = self.hidden_size;
        let mut cache = LstmCache {
            i: Matrix::zeros(t_len, h_size),
            f: Matrix::zeros(t_len, h_size),
            g: Matrix::zeros(t_len, h_size),
            o: Matrix::zeros(t_len, h_size),
            c: Matrix::zeros(t_len, h_size),
            tc: Matrix::zeros(t_len, h_size),
            h: Matrix::zeros(t_len, h_size),
        };
        let mut h_prev = vec![0.0f32; h_size];
        let mut c_prev = vec![0.0f32; h_size];
        let mut pre = vec![0.0f32; 4 * h_size];
        for t in 0..t_len {
            let x = xs.row(t);
            for (j, p) in pre.iter_mut().enumerate() {
                *p = dot(self.wx.row(j), x) + dot(self.wh.row(j), &h_prev) + self.b[j];
            }
            for k in 0..h_size {
                let i = sigmoid(pre[k]);
                let f = sigmoid(pre[h_size + k]);
                let g = pre[2 * h_size + k].tanh();
                let o = sigmoid(pre[3 * h_size + k]);
                let c = f * c_prev[k] + i * g;
                let tanh_c = c.tanh();
                let h = o * tanh_c;
                cache.i[(t, k)] = i;
                cache.f[(t, k)] = f;
                cache.g[(t, k)] = g;
                cache.o[(t, k)] = o;
                cache.c[(t, k)] = c;
                cache.tc[(t, k)] = tanh_c;
                cache.h[(t, k)] = h;
            }
            h_prev.copy_from_slice(cache.h.row(t));
            c_prev.copy_from_slice(cache.c.row(t));
        }
        cache
    }

    /// Accumulates the parameter gradients (`wx`, `wh`, `b`) for one
    /// sequence from its gate-delta matrix `da_mat` (T x 4H), its layer
    /// inputs `xs` (T x I) and its hidden states `h` (T x H).
    ///
    /// The packed backward leaves this to one call per example: parameter
    /// gradients must accumulate per example in descending-`t` order (the
    /// order of [`LstmLayer::backward_naive`]), which a packed-row GEMM over
    /// an interleaved bucket would not reproduce. `b` sums descending `t`
    /// directly, `wx` is a `t_matmul` over row-reversed copies (its
    /// ascending row scan is then the descending-`t` chain), and `wh` pairs
    /// the descending-`t` deltas for `t >= 1` with `h[t - 1]` the same way.
    pub fn param_grads_into(
        &self,
        da_mat: &Matrix,
        xs: &Matrix,
        h: &Matrix,
        grads: &mut LstmGrads,
        scratch: &mut LstmScratch,
    ) {
        let h_size = self.hidden_size;
        let t_len = da_mat.rows();
        let LstmScratch {
            da_rev,
            xs_rev,
            da_tail,
            h_tail,
            ..
        } = scratch;
        reset_zeroed(&mut grads.b, 4 * h_size);
        for t in (0..t_len).rev() {
            for (bj, &a) in grads.b.iter_mut().zip(da_mat.row(t)) {
                *bj += a;
            }
        }
        reversed_rows_into(da_mat, da_rev);
        reversed_rows_into(xs, xs_rev);
        da_rev.t_matmul_into(xs_rev, &mut grads.wx);
        if t_len > 1 {
            // Gate deltas for t = T-1..1 (descending) against h for t-1.
            da_tail.resize_zeroed(t_len - 1, 4 * h_size);
            h_tail.resize_zeroed(t_len - 1, h_size);
            for (r, t) in (1..t_len).rev().enumerate() {
                da_tail.set_row(r, da_rev.row(t_len - 1 - t));
                h_tail.set_row(r, h.row(t - 1));
            }
            da_tail.t_matmul_into(h_tail, &mut grads.wh);
        } else {
            grads.wh.resize_zeroed(4 * h_size, h_size);
        }
    }

    /// Runs the layer over `batch` equal-length sequences packed batch-major
    /// into `xs`: row `t * batch + b` holds sequence `b`'s timestep `t`.
    /// Every sequence starts from zero state; the cache fields come back in
    /// the same packed layout.
    ///
    /// Each timestep's recurrent term is one fused `(B x H) * (H x 4H)` GEMM
    /// over the whole bucket instead of `B` independent matvecs. GEMM rows
    /// are independent and accumulate ascending-`k` per element, so every
    /// sequence's rows are bitwise identical to running
    /// [`LstmLayer::forward_naive`] on that sequence alone (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != input_size`, `batch == 0`, or `xs.rows()` is
    /// not a multiple of `batch`.
    pub fn forward_batch_into(
        &self,
        xs: &Matrix,
        batch: usize,
        cache: &mut LstmCache,
        scratch: &mut LstmScratch,
    ) {
        self.forward_batch_stateful_into(xs, batch, None, cache, scratch);
    }

    /// [`LstmLayer::forward_batch_into`] with an explicit carry state: when
    /// `state` is `Some((h0, c0))` (each `B x H`, row `b` belonging to
    /// sequence `b`), the recurrence starts from those values instead of
    /// zero and the final hidden/cell states are written back into them.
    ///
    /// This is what lets streaming inference split one sequence into chunks:
    /// the per-timestep arithmetic is untouched, so running a sequence in
    /// chunks with the state carried between calls is bitwise identical to
    /// one whole-sequence call — the chunk boundary only decides *when* a
    /// timestep runs, never what it computes (property-tested in
    /// [`crate::seq`]). `state: None` is exactly the zero-state batch
    /// forward.
    pub fn forward_batch_stateful_into(
        &self,
        xs: &Matrix,
        batch: usize,
        state: Option<(&mut Matrix, &mut Matrix)>,
        cache: &mut LstmCache,
        scratch: &mut LstmScratch,
    ) {
        assert_eq!(xs.cols(), self.input_size, "lstm input width mismatch");
        assert!(batch > 0, "empty batch");
        assert_eq!(xs.rows() % batch, 0, "packed rows not a multiple of batch");
        let rows = xs.rows();
        let t_len = rows / batch;
        let h_size = self.hidden_size;
        cache.i.resize_zeroed(rows, h_size);
        cache.f.resize_zeroed(rows, h_size);
        cache.g.resize_zeroed(rows, h_size);
        cache.o.resize_zeroed(rows, h_size);
        cache.c.resize_zeroed(rows, h_size);
        cache.tc.resize_zeroed(rows, h_size);
        cache.h.resize_zeroed(rows, h_size);
        let LstmScratch {
            x_proj,
            wxt,
            wht,
            pre,
            h_prev_b,
            c_prev_b,
            acc_b,
            ..
        } = scratch;
        // (T*B) x 4H input projections for the whole bucket in one GEMM,
        // computed as xs * wx^T through the transposed copy: `matmul`'s
        // per-element `k` chain is the ascending dot of `forward_naive`, but
        // its inner loop runs over independent output columns, which
        // vectorizes. Each row depends only on its own input row.
        self.wx.transposed_into(wxt);
        xs.matmul_into(wxt, x_proj);
        self.wh.transposed_into(wht);
        h_prev_b.resize_zeroed(batch, h_size);
        c_prev_b.resize_zeroed(batch, h_size);
        if let Some((h0, c0)) = &state {
            assert_eq!(h0.rows(), batch, "carry state batch mismatch");
            assert_eq!(h0.cols(), h_size, "carry state width mismatch");
            assert_eq!(c0.rows(), batch, "carry state batch mismatch");
            assert_eq!(c0.cols(), h_size, "carry state width mismatch");
            h_prev_b.copy_from(h0);
            c_prev_b.copy_from(c0);
        }
        reset_zeroed(pre, 4 * h_size);
        for t in 0..t_len {
            // acc[b][j] = dot(h_prev[b], wht[.][j]), ascending k per element
            // — the same chain as `forward_naive`'s `dot(wh.row(j), h_prev)`
            // (f32 multiplication commutes bitwise).
            h_prev_b.matmul_into(wht, acc_b);
            for bi in 0..batch {
                let r = t * batch + bi;
                let xp = x_proj.row(r);
                let acc = acc_b.row(bi);
                for (((p, &x), &a), &b) in pre.iter_mut().zip(xp).zip(acc).zip(&self.b) {
                    *p = x + a + b;
                }
                let c_prev = c_prev_b.row(bi);
                let i_row = cache.i.row_mut(r);
                let f_row = cache.f.row_mut(r);
                let g_row = cache.g.row_mut(r);
                let o_row = cache.o.row_mut(r);
                let c_row = cache.c.row_mut(r);
                let tc_row = cache.tc.row_mut(r);
                let h_row = cache.h.row_mut(r);
                for k in 0..h_size {
                    let i = sigmoid(pre[k]);
                    let f = sigmoid(pre[h_size + k]);
                    let g = pre[2 * h_size + k].tanh();
                    let o = sigmoid(pre[3 * h_size + k]);
                    let c = f * c_prev[k] + i * g;
                    let tanh_c = c.tanh();
                    let h = o * tanh_c;
                    i_row[k] = i;
                    f_row[k] = f;
                    g_row[k] = g;
                    o_row[k] = o;
                    c_row[k] = c;
                    tc_row[k] = tanh_c;
                    h_row[k] = h;
                }
                h_prev_b.row_mut(bi).copy_from_slice(cache.h.row(r));
                c_prev_b.row_mut(bi).copy_from_slice(cache.c.row(r));
            }
        }
        if let Some((h0, c0)) = state {
            h0.copy_from(h_prev_b);
            c0.copy_from(c_prev_b);
        }
    }

    /// Batched BPTT over a packed bucket (layout as in
    /// [`LstmLayer::forward_batch_into`]). Writes the packed gate-delta
    /// matrix into `da_packed` ((T*B) x 4H).
    ///
    /// The hidden-state carry `dh_next = da_t * wh` runs as one
    /// `(B x 4H) * (4H x H)` GEMM per timestep; per element it sums
    /// ascending-`j` exactly like the serial loop, so every sequence's rows
    /// are bitwise identical to [`LstmLayer::backward_naive`] on that
    /// sequence alone (property-tested). Parameter gradients are *not*
    /// computed here — their descending-`t` per-example accumulation order
    /// cannot be reproduced by a packed GEMM; extract each example's
    /// matrices and call [`LstmLayer::param_grads_into`].
    pub fn backward_batch_into(
        &self,
        cache: &LstmCache,
        batch: usize,
        dh_out: &Matrix,
        da_packed: &mut Matrix,
        scratch: &mut LstmScratch,
    ) {
        let rows = cache.h.rows();
        assert!(batch > 0, "empty batch");
        assert_eq!(rows % batch, 0, "packed rows not a multiple of batch");
        let t_len = rows / batch;
        let h_size = self.hidden_size;
        assert_eq!(dh_out.rows(), rows, "dh_out packed row mismatch");
        assert_eq!(dh_out.cols(), h_size, "dh_out width mismatch");

        da_packed.resize_zeroed(rows, 4 * h_size);
        let LstmScratch {
            da_t,
            dh_next_b,
            dc_next_b,
            ..
        } = scratch;
        dh_next_b.resize_zeroed(batch, h_size);
        dc_next_b.resize_zeroed(batch, h_size);
        da_t.resize_zeroed(batch, 4 * h_size);
        for t in (0..t_len).rev() {
            for bi in 0..batch {
                let r = t * batch + bi;
                let i_row = cache.i.row(r);
                let f_row = cache.f.row(r);
                let g_row = cache.g.row(r);
                let o_row = cache.o.row(r);
                let tc_row = cache.tc.row(r);
                let dh_row = dh_out.row(r);
                let dh_next = dh_next_b.row(bi);
                let dc_next = dc_next_b.row_mut(bi);
                let da = da_packed.row_mut(r);
                for k in 0..h_size {
                    let i = i_row[k];
                    let f = f_row[k];
                    let g = g_row[k];
                    let o = o_row[k];
                    let c_prev = if t == 0 {
                        0.0
                    } else {
                        cache.c[((t - 1) * batch + bi, k)]
                    };
                    let tanh_c = tc_row[k];

                    let dh = dh_row[k] + dh_next[k];
                    let d_o = dh * tanh_c;
                    let dc = dh * o * tanh_deriv_from_output(tanh_c) + dc_next[k];
                    let d_i = dc * g;
                    let d_g = dc * i;
                    let d_f = dc * c_prev;
                    dc_next[k] = dc * f;

                    da[k] = d_i * sigmoid_deriv_from_output(i);
                    da[h_size + k] = d_f * sigmoid_deriv_from_output(f);
                    da[2 * h_size + k] = d_g * tanh_deriv_from_output(g);
                    da[3 * h_size + k] = d_o * sigmoid_deriv_from_output(o);
                }
            }
            // This timestep's gate deltas occupy contiguous packed rows
            // t*B..(t+1)*B; dh_next[b][k] = sum_j da[b][j] * wh[j][k],
            // ascending j per element — the serial carry's exact chain.
            da_t.as_mut_slice().copy_from_slice(
                &da_packed.as_slice()[t * batch * 4 * h_size..(t + 1) * batch * 4 * h_size],
            );
            da_t.matmul_into(&self.wh, dh_next_b);
        }
    }

    /// Reference BPTT over one sequence: the straightforward per-timestep
    /// accumulation loops. `cache` comes from [`LstmLayer::forward_naive`]
    /// over the inputs `xs` (T x I), and `dh_out` (T x H) is the upstream
    /// gradient on each timestep's hidden state; returns the parameter
    /// gradients. Kept as the ground truth
    /// [`LstmLayer::backward_batch_into`] plus
    /// [`LstmLayer::param_grads_into`] must match bitwise
    /// (property-tested), and as the backward half of
    /// [`crate::seq::SequenceClassifier::fit_reference`].
    pub fn backward_naive(&self, cache: &LstmCache, xs: &Matrix, dh_out: &Matrix) -> LstmGrads {
        let t_len = cache.h.rows();
        let h_size = self.hidden_size;
        assert_eq!(xs.rows(), t_len, "xs timestep mismatch");
        assert_eq!(dh_out.rows(), t_len, "dh_out timestep mismatch");
        assert_eq!(dh_out.cols(), h_size, "dh_out width mismatch");

        let mut grads = LstmGrads {
            wx: Matrix::zeros(4 * h_size, self.input_size),
            wh: Matrix::zeros(4 * h_size, h_size),
            b: vec![0.0; 4 * h_size],
        };
        let mut dh_next = vec![0.0f32; h_size];
        let mut dc_next = vec![0.0f32; h_size];
        let mut da = vec![0.0f32; 4 * h_size];

        for t in (0..t_len).rev() {
            for k in 0..h_size {
                let i = cache.i[(t, k)];
                let f = cache.f[(t, k)];
                let g = cache.g[(t, k)];
                let o = cache.o[(t, k)];
                let c = cache.c[(t, k)];
                let c_prev = if t == 0 { 0.0 } else { cache.c[(t - 1, k)] };
                let tanh_c = c.tanh();

                let dh = dh_out[(t, k)] + dh_next[k];
                let d_o = dh * tanh_c;
                let dc = dh * o * tanh_deriv_from_output(tanh_c) + dc_next[k];
                let d_i = dc * g;
                let d_g = dc * i;
                let d_f = dc * c_prev;
                dc_next[k] = dc * f;

                da[k] = d_i * sigmoid_deriv_from_output(i);
                da[h_size + k] = d_f * sigmoid_deriv_from_output(f);
                da[2 * h_size + k] = d_g * tanh_deriv_from_output(g);
                da[3 * h_size + k] = d_o * sigmoid_deriv_from_output(o);
            }

            let x = xs.row(t);
            let h_prev: &[f32] = if t == 0 { &[] } else { cache.h.row(t - 1) };
            dh_next.fill(0.0);
            for (j, &a) in da.iter().enumerate() {
                grads.b[j] += a;
                let wx_row = grads.wx.row_mut(j);
                for (w, &xv) in wx_row.iter_mut().zip(x.iter()) {
                    *w += a * xv;
                }
                if t > 0 {
                    let wh_row = grads.wh.row_mut(j);
                    for (w, &hv) in wh_row.iter_mut().zip(h_prev.iter()) {
                        *w += a * hv;
                    }
                }
                // dh_prev += wh[j]^T * a
                for (d, &w) in dh_next.iter_mut().zip(self.wh.row(j)) {
                    *d += a * w;
                }
            }
        }
        grads
    }
}

/// Writes `m` with the row order reversed into `out` (used to turn an
/// ascending GEMM row scan into a descending-`t` accumulation).
fn reversed_rows_into(m: &Matrix, out: &mut Matrix) {
    out.resize_zeroed(m.rows(), m.cols());
    for t in 0..m.rows() {
        out.set_row(t, m.row(m.rows() - 1 - t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_layer(seed: u64) -> LstmLayer {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmLayer::new(3, 4, &mut rng)
    }

    fn sample_input() -> Matrix {
        Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[0.1, 0.9, -0.2], &[-0.7, 0.4, 0.6]])
    }

    /// Scalar objective: sum of all hidden states. Its gradient wrt every
    /// parameter can be checked with central finite differences.
    fn objective(layer: &LstmLayer, xs: &Matrix) -> f32 {
        layer.forward_naive(xs).h.sum()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let layer = tiny_layer(42);
        let xs = sample_input();
        let cache = layer.forward_naive(&xs);
        assert_eq!(cache.h.rows(), 3);
        assert_eq!(cache.h.cols(), 4);
        // Hidden state is o * tanh(c), so |h| < 1 always.
        assert!(cache.h.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn forward_is_deterministic() {
        let layer = tiny_layer(42);
        let xs = sample_input();
        let a = layer.forward_naive(&xs);
        let b = layer.forward_naive(&xs);
        assert_eq!(a.h, b.h);
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        let layer = tiny_layer(7);
        let xs = sample_input();
        let cache = layer.forward_naive(&xs);
        let dh = Matrix::filled(3, 4, 1.0); // d(sum h)/dh = 1 everywhere
        let grads = layer.backward_naive(&cache, &xs, &dh);

        let eps = 1e-3f32;
        // Check a sample of wx entries.
        for &(r, c) in &[(0usize, 0usize), (5, 1), (11, 2), (15, 0)] {
            let mut lp = layer.clone();
            lp.wx[(r, c)] += eps;
            let mut lm = layer.clone();
            lm.wx[(r, c)] -= eps;
            let fd = (objective(&lp, &xs) - objective(&lm, &xs)) / (2.0 * eps);
            assert!(
                (grads.wx[(r, c)] - fd).abs() < 2e-2,
                "wx[{},{}]: analytic {} vs fd {}",
                r,
                c,
                grads.wx[(r, c)],
                fd
            );
        }
        // Check a sample of wh entries.
        for &(r, c) in &[(1usize, 1usize), (7, 3), (14, 2)] {
            let mut lp = layer.clone();
            lp.wh[(r, c)] += eps;
            let mut lm = layer.clone();
            lm.wh[(r, c)] -= eps;
            let fd = (objective(&lp, &xs) - objective(&lm, &xs)) / (2.0 * eps);
            assert!(
                (grads.wh[(r, c)] - fd).abs() < 2e-2,
                "wh[{},{}]: analytic {} vs fd {}",
                r,
                c,
                grads.wh[(r, c)],
                fd
            );
        }
        // Check biases.
        for j in [0usize, 6, 10, 15] {
            let mut lp = layer.clone();
            lp.b[j] += eps;
            let mut lm = layer.clone();
            lm.b[j] -= eps;
            let fd = (objective(&lp, &xs) - objective(&lm, &xs)) / (2.0 * eps);
            assert!(
                (grads.b[j] - fd).abs() < 2e-2,
                "b[{}]: analytic {} vs fd {}",
                j,
                grads.b[j],
                fd
            );
        }
    }

    /// Generator for LSTM problem shapes `(in_dim, hidden, t_len)` — `t_len`
    /// includes the single-step (`T = 1`) edge and sequences long enough to
    /// exercise the recurrence and BPTT accumulation loops.
    fn lstm_shape() -> testkit::Gen<(usize, usize, usize)> {
        testkit::gen::zip3(
            testkit::gen::usize_in(1, 8),
            testkit::gen::usize_in(1, 9),
            testkit::gen::usize_in(1, 40),
        )
    }

    /// Weights and inputs are a pure function of the shape, so a shrunk
    /// counterexample replays from the printed tuple alone.
    fn shape_rng(tag: u64, (i, h, t): (usize, usize, usize)) -> StdRng {
        StdRng::seed_from_u64(tag ^ ((i as u64) << 40 | (h as u64) << 20 | t as u64))
    }

    /// Packs equal-length sequences batch-major: row `t * B + b` holds
    /// sequence `b`'s timestep `t`.
    fn pack(seqs: &[Matrix]) -> Matrix {
        let batch = seqs.len();
        let t_len = seqs[0].rows();
        let mut packed = Matrix::zeros(t_len * batch, seqs[0].cols());
        for (b, m) in seqs.iter().enumerate() {
            for t in 0..t_len {
                packed.set_row(t * batch + b, m.row(t));
            }
        }
        packed
    }

    /// Sequence `b`'s rows, `t` ascending, out of a batch-major packed
    /// matrix.
    fn unpack(packed: &Matrix, batch: usize, b: usize) -> Matrix {
        let t_len = packed.rows() / batch;
        let mut out = Matrix::zeros(t_len, packed.cols());
        for t in 0..t_len {
            out.set_row(t, packed.row(t * batch + b));
        }
        out
    }

    /// Every buffer one packed training pass writes, so a test can run
    /// buckets through one shared set or through a fresh set each.
    struct PackedBuffers {
        cache: LstmCache,
        scratch: LstmScratch,
        da: Matrix,
        grads: LstmGrads,
    }

    impl PackedBuffers {
        fn new() -> Self {
            PackedBuffers {
                cache: LstmCache::empty(),
                scratch: LstmScratch::new(),
                da: Matrix::zeros(1, 1),
                grads: LstmGrads::empty(),
            }
        }

        /// Packed forward and backward over `batch` sequences (`xs` and
        /// `dh` packed batch-major), then each example's parameter
        /// gradients through `param_grads_into`, in batch order.
        fn run(
            &mut self,
            layer: &LstmLayer,
            xs: &Matrix,
            dh: &Matrix,
            batch: usize,
        ) -> Vec<LstmGrads> {
            layer.forward_batch_into(xs, batch, &mut self.cache, &mut self.scratch);
            layer.backward_batch_into(&self.cache, batch, dh, &mut self.da, &mut self.scratch);
            (0..batch)
                .map(|b| {
                    layer.param_grads_into(
                        &unpack(&self.da, batch, b),
                        &unpack(xs, batch, b),
                        &unpack(&self.cache.h, batch, b),
                        &mut self.grads,
                        &mut self.scratch,
                    );
                    self.grads.clone()
                })
                .collect()
        }
    }

    /// Packs `batch` distinct sequences batch-major and checks the packed
    /// kernels reproduce each sequence's naive forward/backward results
    /// bitwise: `h`, `c`, and the parameter gradients recovered
    /// through `param_grads_into`. `batch = 1` is the single-sequence case.
    #[test]
    fn batched_kernels_match_naive_bitwise() {
        // The worker count is part of the input: the packed kernels promise
        // the naive bit patterns at every pool size.
        let cases = testkit::gen::zip3(
            lstm_shape(),
            testkit::gen::usize_in(1, 6), // batch
            testkit::gen::usize_in(1, 4), // threads
        );
        testkit::check(
            "lstm_batched_vs_naive",
            &cases,
            |&((in_dim, hidden, t_len), batch, threads)| {
                let mut rng = shape_rng(0xba7c ^ ((batch as u64) << 60), (in_dim, hidden, t_len));
                let layer = LstmLayer::new(in_dim, hidden, &mut rng);
                let seqs: Vec<Matrix> = (0..batch)
                    .map(|_| Matrix::uniform(t_len, in_dim, 1.0, &mut rng))
                    .collect();
                let dhs: Vec<Matrix> = (0..batch)
                    .map(|_| Matrix::uniform(t_len, hidden, 1.0, &mut rng))
                    .collect();
                let mut packed = PackedBuffers::new();
                let grads = crate::par::with_threads(threads, || {
                    packed.run(&layer, &pack(&seqs), &pack(&dhs), batch)
                });

                for (b, ((xs, dh), g)) in seqs.iter().zip(&dhs).zip(&grads).enumerate() {
                    let naive = layer.forward_naive(xs);
                    let gn = layer.backward_naive(&naive, xs, dh);
                    testkit::prop::holds(
                        unpack(&packed.cache.h, batch, b) == naive.h,
                        format!("forward h differs (b={b})"),
                    )?;
                    testkit::prop::holds(
                        unpack(&packed.cache.c, batch, b) == naive.c,
                        format!("forward c differs (b={b})"),
                    )?;
                    testkit::prop::holds(g.wx == gn.wx, format!("wx grads differ (b={b})"))?;
                    testkit::prop::holds(g.wh == gn.wh, format!("wh grads differ (b={b})"))?;
                    testkit::prop::holds(g.b == gn.b, format!("b grads differ (b={b})"))?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn reused_cache_and_scratch_match_fresh_allocations_bitwise() {
        // Two (T, B) buckets run back-to-back through one set of buffers:
        // shrinking then growing either dimension exercises stale-capacity
        // reuse.
        let bucket =
            testkit::gen::zip2(testkit::gen::usize_in(1, 12), testkit::gen::usize_in(1, 4));
        let schedule = testkit::gen::zip2(bucket.clone(), bucket);
        testkit::check("lstm_buffer_reuse", &schedule, |&(first, second)| {
            let tag = [first.0, first.1, second.0, second.1]
                .iter()
                .fold(0u64, |acc, &d| acc * 16 + d as u64);
            let mut rng = StdRng::seed_from_u64(0x5c1a ^ tag);
            let layer = LstmLayer::new(5, 7, &mut rng);
            let mut reused = PackedBuffers::new();
            for (t_len, batch) in [first, second] {
                let xs = Matrix::uniform(t_len * batch, 5, 1.0, &mut rng);
                let dh = Matrix::uniform(t_len * batch, 7, 1.0, &mut rng);
                let grads = reused.run(&layer, &xs, &dh, batch);
                let mut fresh = PackedBuffers::new();
                let fresh_grads = fresh.run(&layer, &xs, &dh, batch);
                let at = format!("T={t_len}, B={batch}");
                testkit::prop::holds(
                    reused.cache.h == fresh.cache.h,
                    format!("h differs at {at}"),
                )?;
                testkit::prop::holds(
                    reused.cache.c == fresh.cache.c,
                    format!("c differs at {at}"),
                )?;
                testkit::prop::holds(reused.da == fresh.da, format!("da differs at {at}"))?;
                for (g, f) in grads.iter().zip(&fresh_grads) {
                    testkit::prop::holds(g.wx == f.wx, format!("wx differs at {at}"))?;
                    testkit::prop::holds(g.wh == f.wh, format!("wh differs at {at}"))?;
                    testkit::prop::holds(g.b == f.b, format!("b differs at {at}"))?;
                }
            }
            Ok(())
        });
    }

    #[test]
    fn memory_carries_information_forward() {
        // A distinctive first input must change the last hidden state.
        let layer = tiny_layer(3);
        let mut a = Matrix::zeros(5, 3);
        a.set_row(0, &[1.0, 1.0, 1.0]);
        let b = Matrix::zeros(5, 3);
        let ha = layer.forward_naive(&a);
        let hb = layer.forward_naive(&b);
        let last = ha.h.rows() - 1;
        let diff: f32 =
            ha.h.row(last)
                .iter()
                .zip(hb.h.row(last))
                .map(|(x, y)| (x - y).abs())
                .sum();
        assert!(
            diff > 1e-4,
            "first input had no effect on last state: {}",
            diff
        );
    }

    #[test]
    fn param_count_matches_shapes() {
        let layer = tiny_layer(0);
        assert_eq!(layer.param_count(), 16 * 3 + 16 * 4 + 16);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let layer = tiny_layer(0);
        let xs = Matrix::zeros(2, 5);
        let _ = layer.forward_naive(&xs);
    }
}
