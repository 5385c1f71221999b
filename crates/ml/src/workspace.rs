//! Reusable training workspaces.
//!
//! [`SequenceClassifier::fit`](crate::seq::SequenceClassifier::fit) used to
//! allocate every forward activation, gate buffer, gradient matrix and
//! softmax scratch vector afresh for every example of every epoch (~24 sites
//! in the LSTM alone). A [`Workspace`] owns one example's share of those
//! buffers and a [`BatchWorkspace`] one packed bucket's; the `_into` kernels
//! in [`matrix`](crate::matrix), [`lstm`](crate::lstm),
//! [`dense`](crate::dense) and [`loss`](crate::loss) resize-and-fill them in
//! place, so the steady-state epoch loop performs no heap allocation.
//!
//! The caller owns its workspaces: `fit` builds one `BatchWorkspace` and one
//! `Workspace` per batch position before its first epoch and threads them
//! through every batch on the calling thread. Every pass fully overwrites
//! whatever buffer state it later reads, so reusing a workspace across
//! batches and buckets of any size and length is bitwise identical to
//! starting from fresh buffers.

use crate::dense::DenseGrads;
use crate::lstm::{LstmCache, LstmGrads, LstmScratch};
use crate::matrix::Matrix;

/// Every per-example buffer of a packed training pass — the example's
/// parameter gradients, loss outputs and the temporaries that compute them —
/// preallocated and reusable across examples of any sequence length.
#[derive(Debug)]
pub struct Workspace {
    /// Temporaries for [`crate::lstm::LstmLayer::param_grads_into`].
    pub(crate) scratch: LstmScratch,
    /// LSTM parameter gradients (output of the pass).
    pub(crate) lstm_grads: LstmGrads,
    /// Head parameter gradients (output of the pass).
    pub(crate) head_grads: DenseGrads,
    /// Softmax probability scratch for one timestep.
    pub(crate) probs: Vec<f32>,
    /// Loss per unmasked timestep, in timestep order (output of the pass).
    pub(crate) losses: Vec<f32>,
    /// Correctly predicted unmasked timesteps (output of the pass).
    pub(crate) correct: usize,
}

impl Workspace {
    /// A cold workspace; every buffer grows on first use and is then reused.
    pub(crate) fn new() -> Self {
        Workspace {
            scratch: LstmScratch::new(),
            lstm_grads: LstmGrads::empty(),
            head_grads: DenseGrads::empty(),
            probs: Vec::new(),
            losses: Vec::new(),
            correct: 0,
        }
    }
}

/// Buffers for one packed bucket of equal-length sequences in the batched
/// training path: every tensor is batch-major, row `t * B + b` holding
/// sequence `b`'s timestep `t`. One batch workspace serves buckets of any
/// size and length because each pass fully overwrites what it reads, just
/// like [`Workspace`].
#[derive(Debug)]
pub struct BatchWorkspace {
    /// Packed input features, (T*B) x I.
    pub(crate) xs: Matrix,
    /// Packed LSTM forward cache.
    pub(crate) cache: LstmCache,
    /// Temporaries for the batched LSTM kernels.
    pub(crate) scratch: LstmScratch,
    /// Packed head logits, (T*B) x classes.
    pub(crate) logits: Matrix,
    /// Packed loss gradient on the logits, (T*B) x classes.
    pub(crate) dlogits: Matrix,
    /// Packed hidden-state gradient from the head, (T*B) x H.
    pub(crate) dh: Matrix,
    /// Packed LSTM gate deltas, (T*B) x 4H.
    pub(crate) da_packed: Matrix,
    /// Per-example extraction buffers (reused serially across the bucket):
    /// gate deltas (T x 4H), inputs (T x I) and hidden states (T x H) of
    /// the example whose parameter gradients are being accumulated.
    pub(crate) da_ex: Matrix,
    pub(crate) x_ex: Matrix,
    pub(crate) h_ex: Matrix,
}

impl BatchWorkspace {
    /// A cold batch workspace; every buffer grows on first use.
    pub(crate) fn new() -> Self {
        BatchWorkspace {
            xs: Matrix::zeros(1, 1),
            cache: LstmCache::empty(),
            scratch: LstmScratch::new(),
            logits: Matrix::zeros(1, 1),
            dlogits: Matrix::zeros(1, 1),
            dh: Matrix::zeros(1, 1),
            da_packed: Matrix::zeros(1, 1),
            da_ex: Matrix::zeros(1, 1),
            x_ex: Matrix::zeros(1, 1),
            h_ex: Matrix::zeros(1, 1),
        }
    }
}
