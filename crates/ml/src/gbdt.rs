//! A LightGBM-style gradient boosting machine (binary logistic objective)
//! built on histogram [`RegressionTree`]s. This is the substrate behind the
//! paper's `Mgap` NOP/BUSY classifier (§IV-A uses LightGBM).

use crate::activation::sigmoid;
use crate::tree::{BinMapper, NodeArena, RegressionTree, TreeParams};

/// Configuration for [`GbdtBinaryClassifier`].
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub rounds: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// Histogram bin budget per feature.
    pub max_bins: usize,
    /// Weak-learner growth parameters.
    pub tree: TreeParams,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            rounds: 40,
            learning_rate: 0.2,
            max_bins: 64,
            tree: TreeParams::default(),
        }
    }
}

/// Binary logistic GBDT: predicts `P(label = 1)`.
///
/// # Examples
///
/// ```
/// use ml::gbdt::{GbdtBinaryClassifier, GbdtConfig};
///
/// let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
/// let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
/// let model = GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default());
/// assert!(model.predict_proba(&[80.0]) > 0.9);
/// assert!(model.predict_proba(&[10.0]) < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct GbdtBinaryClassifier {
    mapper: BinMapper,
    base_score: f32,
    trees: Vec<RegressionTree>,
    /// SoA flattening of `trees` — the inference path. Built once at the end
    /// of `fit`; bitwise equal to walking `trees` (pinned by a testkit
    /// property), just cache-friendly: `Mgap`/`Mhp` score every streamed
    /// window, so the ensemble walk sits on the serving hot path.
    arena: NodeArena,
    learning_rate: f32,
    train_log_loss: Vec<f64>,
}

impl GbdtBinaryClassifier {
    /// Trains on rows/labels.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or of mismatched length.
    pub fn fit(rows: &[Vec<f32>], labels: &[bool], config: &GbdtConfig) -> Self {
        assert!(!rows.is_empty(), "cannot fit GBDT on empty data");
        assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
        let mapper = BinMapper::fit(rows, config.max_bins);
        let binned: Vec<Vec<u16>> = crate::par::par_map(rows, |_, r| mapper.bin_row(r));

        let pos = labels.iter().filter(|&&l| l).count();
        let p = ((pos as f64 + 0.5) / (labels.len() as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p / (1.0 - p)).ln() as f32;

        let mut scores = vec![base_score; rows.len()];
        let mut trees = Vec::with_capacity(config.rounds);
        let mut train_log_loss = Vec::with_capacity(config.rounds);
        let indices: Vec<usize> = (0..rows.len()).collect();
        let mut grads = vec![0.0f32; rows.len()];
        let mut hess = vec![0.0f32; rows.len()];

        for _round in 0..config.rounds {
            let mut ll = 0.0f64;
            for i in 0..rows.len() {
                let prob = sigmoid(scores[i]);
                let y = if labels[i] { 1.0 } else { 0.0 };
                grads[i] = prob - y;
                hess[i] = (prob * (1.0 - prob)).max(1e-6);
                let p = (prob as f64).clamp(1e-9, 1.0 - 1e-9);
                ll -= if labels[i] { p.ln() } else { (1.0 - p).ln() };
            }
            train_log_loss.push(ll / rows.len() as f64);
            let tree = RegressionTree::fit(&binned, &mapper, &grads, &hess, &indices, &config.tree);
            // Per-round score refresh is embarrassingly parallel; results
            // come back in row order, so scores are thread-count invariant.
            let preds = crate::par::par_map(&binned, |_, row| tree.predict_binned(row));
            for (s, p) in scores.iter_mut().zip(preds) {
                *s += config.learning_rate * p;
            }
            trees.push(tree);
        }

        let mut arena = NodeArena::new();
        for tree in &trees {
            arena.push_tree(tree);
        }

        GbdtBinaryClassifier {
            mapper,
            base_score,
            trees,
            arena,
            learning_rate: config.learning_rate,
            train_log_loss,
        }
    }

    /// Raw additive score (logit), evaluated over the flattened node arena.
    /// Bitwise equal to [`Self::decision_function_reference`]: identical
    /// leaf values, descend rule, and accumulation order.
    pub fn decision_function(&self, row: &[f32]) -> f32 {
        let binned = self.mapper.bin_row(row);
        let mut score = self.base_score;
        for t in 0..self.arena.tree_count() {
            score += self.learning_rate * self.arena.predict_binned(t, &binned);
        }
        score
    }

    /// Reference logit via the pointer-walk trees — the oracle the arena
    /// path is property-tested against. Not used on serving paths.
    pub fn decision_function_reference(&self, row: &[f32]) -> f32 {
        let binned = self.mapper.bin_row(row);
        let mut score = self.base_score;
        for tree in &self.trees {
            score += self.learning_rate * tree.predict_binned(&binned);
        }
        score
    }

    /// `P(label = 1)` for one row.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        sigmoid(self.decision_function(row))
    }

    /// Hard prediction with threshold 0.5.
    pub fn predict(&self, row: &[f32]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Number of boosted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Mean training log-loss per round (monotone decrease is a health check).
    pub fn train_log_loss(&self) -> &[f64] {
        &self.train_log_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_threshold_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f32 = rng.gen_range(0.0..1.0);
            let y: f32 = rng.gen_range(0.0..1.0);
            rows.push(vec![x, y]);
            labels.push(x + 0.1 * y > 0.55);
        }
        (rows, labels)
    }

    #[test]
    fn learns_threshold_rule() {
        let (rows, labels) = noisy_threshold_data(400, 3);
        let model = GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default());
        let (test_rows, test_labels) = noisy_threshold_data(100, 77);
        let correct = test_rows
            .iter()
            .zip(&test_labels)
            .filter(|(r, &l)| model.predict(r) == l)
            .count();
        assert!(correct >= 95, "accuracy {}/100", correct);
    }

    #[test]
    fn log_loss_decreases() {
        let (rows, labels) = noisy_threshold_data(200, 5);
        let model = GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default());
        let ll = model.train_log_loss();
        assert!(
            ll.last().unwrap() < &(ll[0] * 0.5),
            "{:?}",
            (ll[0], ll.last())
        );
    }

    #[test]
    fn learns_nonlinear_xor() {
        // Noisy XOR of two half-planes: requires depth >= 2 interactions
        // (empirical sampling noise breaks the exact gain symmetry, as in
        // any real dataset).
        let mut rng = StdRng::seed_from_u64(11);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..600 {
            let x: f32 = rng.gen_range(0.0..1.0);
            let y: f32 = rng.gen_range(0.0..1.0);
            rows.push(vec![x, y]);
            labels.push((x > 0.5) ^ (y > 0.5));
        }
        let model = GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default());
        assert!(model.predict(&[0.9, 0.1]));
        assert!(model.predict(&[0.1, 0.9]));
        assert!(!model.predict(&[0.1, 0.1]));
        assert!(!model.predict(&[0.9, 0.9]));
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let labels = vec![true; 20];
        let model = GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default());
        assert!(model.predict(&[5.0]));
        assert!(model.predict_proba(&[5.0]) > 0.9);
    }

    #[test]
    fn edge_shapes_fit_and_predict_consistently() {
        // Degenerate datasets the splitter must survive: a single row, a
        // single feature, constant columns, and all-one-class labels —
        // shapes that show up when a faulted trace leaves almost no samples.
        let shapes = testkit::gen::zip3(
            testkit::gen::usize_in(1, 40), // rows
            testkit::gen::usize_in(1, 5),  // feature width
            testkit::gen::usize_in(0, 2),  // label rule: 0 = all false, 1 = all true, 2 = threshold
        );
        testkit::check("gbdt_edge_shapes", &shapes, |&(n, width, rule)| {
            let mut rng = StdRng::seed_from_u64(((n * 64 + width) * 4 + rule) as u64);
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..width).map(|_| rng.gen_range(0.0..1.0f32)).collect())
                .collect();
            let labels: Vec<bool> = rows
                .iter()
                .map(|r| match rule {
                    0 => false,
                    1 => true,
                    _ => r[0] > 0.5,
                })
                .collect();
            let model = crate::par::with_threads(1, || {
                GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default())
            });
            let other = crate::par::with_threads(4, || {
                GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default())
            });
            for r in &rows {
                let p = model.predict_proba(r);
                testkit::prop::holds(
                    p.is_finite() && (0.0..=1.0).contains(&p),
                    "proba out of range",
                )?;
                testkit::prop::holds(
                    model.decision_function(r) == other.decision_function(r),
                    "fit is not thread-count invariant on edge shapes",
                )?;
            }
            Ok(())
        });
    }

    #[test]
    fn arena_inference_matches_pointer_walk_reference() {
        // Property: the SoA arena logit is bitwise identical to the enum
        // pointer walk across dataset shapes, bin budgets, and round counts.
        let shapes = testkit::gen::zip3(
            testkit::gen::usize_in(2, 120), // rows
            testkit::gen::usize_in(1, 4),   // feature width
            testkit::gen::usize_in(1, 30),  // boosting rounds
        );
        testkit::check("gbdt_arena_vs_reference", &shapes, |&(n, width, rounds)| {
            let mut rng = StdRng::seed_from_u64(((n * 8 + width) * 64 + rounds) as u64);
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..width).map(|_| rng.gen_range(0.0..1.0f32)).collect())
                .collect();
            let labels: Vec<bool> = rows
                .iter()
                .map(|r| r[0] + 0.07 * r[width - 1] > 0.5)
                .collect();
            let cfg = GbdtConfig {
                rounds,
                max_bins: 8 + rounds,
                ..GbdtConfig::default()
            };
            let model = GbdtBinaryClassifier::fit(&rows, &labels, &cfg);
            for r in &rows {
                testkit::prop::holds(
                    model.decision_function(r).to_bits()
                        == model.decision_function_reference(r).to_bits(),
                    "arena logit diverged from pointer-walk reference",
                )?;
            }
            Ok(())
        });
    }

    #[test]
    fn training_is_thread_count_invariant() {
        let (rows, labels) = noisy_threshold_data(300, 9);
        let fit_with = |threads: usize| {
            crate::par::with_threads(threads, || {
                GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default())
            })
        };
        let one = fit_with(1);
        let eight = fit_with(8);
        assert_eq!(one.train_log_loss(), eight.train_log_loss());
        for r in &rows {
            assert_eq!(one.decision_function(r), eight.decision_function(r));
        }
    }

    #[test]
    fn tree_count_matches_rounds() {
        let (rows, labels) = noisy_threshold_data(50, 1);
        let cfg = GbdtConfig {
            rounds: 7,
            ..GbdtConfig::default()
        };
        let model = GbdtBinaryClassifier::fit(&rows, &labels, &cfg);
        assert_eq!(model.tree_count(), 7);
    }
}
