//! Pins the exact bits a trained `SequenceClassifier` produces.
//!
//! The goldens and the benchmark digests hash class labels, which survive
//! most changes to the arithmetic, and `fit` is checked bitwise only
//! against its oracle `fit_reference`, which a change to both would move in
//! step. This test hashes the loss history and the packed, streamed and
//! naive probabilities of four small trained classifiers, so reassociating
//! any float expression on the training or inference path (an Adam update,
//! a gradient sum) moves the digest. Like every golden it also pins the
//! platform's `expf` and `tanhf`.
//!
//! The body calls only API that predates the single-layer classifier, and
//! run on the last commit before it, it gives the same digest.

use ml::data::SeqExample;
use ml::seq::{SeqClassifierConfig, SequenceClassifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INPUT: usize = 3;
const HIDDEN: usize = 5;
const CLASSES: usize = 3;

/// The digest of [`probe_digest`], recorded on x86-64 Linux.
const TRAINED_BITS: u64 = 0xf850_df10_5494_0ac4;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn probs(&mut self, seqs: &[Vec<Vec<f32>>]) {
        for rows in seqs {
            self.bytes(&(rows.len() as u64).to_le_bytes());
            for v in rows.iter().flatten() {
                self.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Feature rows of ragged lengths `lens`, each row uniform in `[-1, 1)`.
fn rows(lens: &[usize], rng: &mut StdRng) -> Vec<Vec<Vec<f32>>> {
    lens.iter()
        .map(|&len| {
            (0..len)
                .map(|_| (0..INPUT).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect()
        })
        .collect()
}

/// Training sequences of ragged lengths (so one batch holds several
/// buckets): the label is the index of the largest feature, and every
/// third timestep is masked.
fn training_set(rng: &mut StdRng) -> Vec<SeqExample> {
    let lens = [4, 1, 6, 4, 3, 6, 2, 4, 5, 1, 3, 6];
    rows(&lens, rng)
        .into_iter()
        .enumerate()
        .map(|(s, features)| {
            let labels = features
                .iter()
                .map(|f| (0..INPUT).fold(0, |best, c| if f[c] > f[best] { c } else { best }))
                .collect();
            let mask = (0..features.len()).map(|t| (s + t) % 3 != 2).collect();
            SeqExample::with_mask(features, labels, mask)
        })
        .collect()
}

/// Trains four classifiers (`fit` at one and two workers and batch sizes 1,
/// 3 and 4, and `fit_reference`), all with class weights and masks, and
/// hashes each one's loss history and its packed, streamed and naive
/// probabilities on held-out sequences.
fn probe_digest() -> u64 {
    let mut rng = StdRng::seed_from_u64(0x7a1e_d0b5);
    let train = training_set(&mut rng);
    let held_out = rows(&[5, 0, 3, 5, 1, 7], &mut rng);
    let refs: Vec<&[Vec<f32>]> = held_out.iter().map(Vec::as_slice).collect();

    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    // (reference loop, workers, batch size)
    for (probe, &(reference, threads, batch_size)) in
        [(false, 1, 1), (false, 2, 3), (false, 2, 4), (true, 2, 3)]
            .iter()
            .enumerate()
    {
        let mut cfg = SeqClassifierConfig::new(INPUT, HIDDEN, CLASSES);
        cfg.epochs = 3;
        cfg.seed = 0x5eed + probe as u64;
        cfg.batch_size = batch_size;
        cfg.class_weights = Some(vec![0.5, 1.0, 2.0]);
        let clf = ml::par::with_threads(threads, || {
            let mut clf = SequenceClassifier::new(cfg);
            if reference {
                clf.fit_reference(&train);
            } else {
                clf.fit(&train);
            }
            clf
        });
        for stats in clf.history() {
            hash.bytes(&stats.mean_loss.to_bits().to_le_bytes());
            hash.bytes(&stats.accuracy.to_bits().to_le_bytes());
        }

        hash.probs(&clf.predict_proba_batch(&refs));

        // Every stream advances two rows per call, all streams in one call.
        let mut states: Vec<_> = refs.iter().map(|_| clf.stream_state()).collect();
        let mut streamed = vec![Vec::new(); refs.len()];
        for start in (0..7).step_by(2) {
            let chunks: Vec<&[Vec<f32>]> = refs
                .iter()
                .map(|s| &s[start.min(s.len())..(start + 2).min(s.len())])
                .collect();
            let out = clf.predict_proba_stream_chunks(&chunks, &mut states);
            for (acc, rows) in streamed.iter_mut().zip(out) {
                acc.extend(rows);
            }
        }
        hash.probs(&streamed);

        let naive: Vec<_> = refs.iter().map(|s| clf.predict_proba_naive(s)).collect();
        hash.probs(&naive);
    }
    hash.0
}

#[test]
fn trained_bits_match_the_recorded_digest() {
    let digest = probe_digest();
    assert_eq!(
        digest, TRAINED_BITS,
        "trained bits moved: digest {digest:#018x}, recorded {TRAINED_BITS:#018x}"
    );
}
