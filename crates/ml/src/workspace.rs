//! Reusable training workspaces.
//!
//! [`SequenceClassifier::fit`](crate::seq::SequenceClassifier::fit) used to
//! allocate every forward activation, gate buffer, gradient matrix and
//! softmax scratch vector afresh for every example of every epoch (~24 sites
//! in the LSTM alone). A [`Workspace`] owns all of those buffers; the `_into`
//! kernels in [`matrix`](crate::matrix), [`lstm`](crate::lstm),
//! [`dense`](crate::dense) and [`loss`](crate::loss) resize-and-fill them in
//! place, so the steady-state epoch loop performs no heap allocation.
//!
//! Workspaces are recycled through a [`WorkspacePool`] — a mutex-protected
//! free list — rather than thread-locals, because [`crate::par::par_map`]
//! dispatches to shared pool workers whose thread-local storage would
//! leak buffers across unrelated callers. Every pass fully overwrites whatever buffer
//! state it later reads, so results never depend on *which* workspace an
//! example happens to draw, keeping training bitwise thread-count invariant.

use std::sync::Mutex;

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
    /// Per-layer parameter gradients (outputs of the pass).
    pub(crate) layer_grads: Vec<LstmGrads>,
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
    /// A cold workspace for a stack of `layer_count` LSTM layers; every
    /// buffer grows on first use and is then reused.
    pub fn new(layer_count: usize) -> Self {
        Workspace {
            scratch: LstmScratch::new(),
            layer_grads: (0..layer_count).map(|_| LstmGrads::empty()).collect(),
            head_grads: DenseGrads::empty(),
            probs: Vec::new(),
            losses: Vec::new(),
            correct: 0,
        }
    }

    /// Number of LSTM layers this workspace is shaped for.
    pub fn layer_count(&self) -> usize {
        self.layer_grads.len()
    }
}

/// A free list of [`Workspace`]s shared by the training workers.
///
/// At most one workspace per in-flight example exists; once the pool is warm
/// no pass allocates. `acquire`/`release` take a mutex, but the critical
/// section is a `Vec` pop/push — nanoseconds against the milliseconds of a
/// BPTT pass.
#[derive(Debug)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
    layer_count: usize,
}

impl WorkspacePool {
    /// An empty pool for classifiers with `layer_count` LSTM layers.
    pub fn new(layer_count: usize) -> Self {
        WorkspacePool {
            free: Mutex::new(Vec::new()),
            layer_count,
        }
    }

    /// Pops a warm workspace, or builds a cold one when the pool is empty.
    pub fn acquire(&self) -> Workspace {
        let ws = self.free.lock().expect("workspace pool poisoned").pop();
        ws.unwrap_or_else(|| Workspace::new(self.layer_count))
    }

    /// Returns a workspace to the free list for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was shaped for a different layer count.
    pub fn release(&self, ws: Workspace) {
        assert_eq!(
            ws.layer_count(),
            self.layer_count,
            "workspace layer count mismatch"
        );
        self.free.lock().expect("workspace pool poisoned").push(ws);
    }

    /// Number of idle workspaces currently pooled.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
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
    /// Per-layer packed forward caches.
    pub(crate) caches: Vec<LstmCache>,
    /// Shared temporaries for the batched LSTM kernels.
    pub(crate) scratch: LstmScratch,
    /// Packed head logits, (T*B) x classes.
    pub(crate) logits: Matrix,
    /// Packed loss gradient on the logits, (T*B) x classes.
    pub(crate) dlogits: Matrix,
    /// Packed upstream hidden-state gradient walking down the stack.
    pub(crate) dh: Matrix,
    /// Packed input gradient produced by the current layer.
    pub(crate) dx: Matrix,
    /// Packed gate deltas of the current layer, (T*B) x 4H.
    pub(crate) da_packed: Matrix,
    /// Per-example extraction buffers (reused serially across the bucket):
    /// gate deltas (T x 4H), layer inputs (T x I) and hidden states (T x H)
    /// of the example whose parameter gradients are being accumulated.
    pub(crate) da_ex: Matrix,
    pub(crate) x_ex: Matrix,
    pub(crate) h_ex: Matrix,
}

impl BatchWorkspace {
    /// A cold batch workspace for a stack of `layer_count` LSTM layers.
    pub fn new(layer_count: usize) -> Self {
        BatchWorkspace {
            xs: Matrix::zeros(1, 1),
            caches: (0..layer_count).map(|_| LstmCache::empty()).collect(),
            scratch: LstmScratch::new(),
            logits: Matrix::zeros(1, 1),
            dlogits: Matrix::zeros(1, 1),
            dh: Matrix::zeros(1, 1),
            dx: Matrix::zeros(1, 1),
            da_packed: Matrix::zeros(1, 1),
            da_ex: Matrix::zeros(1, 1),
            x_ex: Matrix::zeros(1, 1),
            h_ex: Matrix::zeros(1, 1),
        }
    }

    /// Number of LSTM layers this workspace is shaped for.
    pub fn layer_count(&self) -> usize {
        self.caches.len()
    }
}

/// A free list of [`BatchWorkspace`]s shared by the bucket workers, same
/// recycling discipline as [`WorkspacePool`].
#[derive(Debug)]
pub struct BatchWorkspacePool {
    free: Mutex<Vec<BatchWorkspace>>,
    layer_count: usize,
}

impl BatchWorkspacePool {
    /// An empty pool for classifiers with `layer_count` LSTM layers.
    pub fn new(layer_count: usize) -> Self {
        BatchWorkspacePool {
            free: Mutex::new(Vec::new()),
            layer_count,
        }
    }

    /// Pops a warm batch workspace, or builds a cold one when the pool is
    /// empty.
    pub fn acquire(&self) -> BatchWorkspace {
        let ws = self
            .free
            .lock()
            .expect("batch workspace pool poisoned")
            .pop();
        ws.unwrap_or_else(|| BatchWorkspace::new(self.layer_count))
    }

    /// Returns a batch workspace to the free list for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was shaped for a different layer count.
    pub fn release(&self, ws: BatchWorkspace) {
        assert_eq!(
            ws.layer_count(),
            self.layer_count,
            "batch workspace layer count mismatch"
        );
        self.free
            .lock()
            .expect("batch workspace pool poisoned")
            .push(ws);
    }

    /// Number of idle batch workspaces currently pooled.
    pub fn idle(&self) -> usize {
        self.free
            .lock()
            .expect("batch workspace pool poisoned")
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_pool_recycles_workspaces() {
        let pool = BatchWorkspacePool::new(1);
        assert_eq!(pool.idle(), 0);
        let a = pool.acquire();
        assert_eq!(a.layer_count(), 1);
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let _b = pool.acquire();
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_recycles_workspaces() {
        let pool = WorkspacePool::new(2);
        assert_eq!(pool.idle(), 0);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(a.layer_count(), 2);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.acquire();
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn pool_rejects_foreign_workspace() {
        let pool = WorkspacePool::new(2);
        pool.release(Workspace::new(3));
    }
}
