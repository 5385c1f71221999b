//! Property-based tests for the ML substrate's core invariants.
//!
//! The bitwise fast-path-vs-naive GEMM and LSTM properties live beside the
//! kernels, in `matrix.rs` and `lstm.rs`.

use ml::activation::{argmax, softmax};
use ml::gbdt::{GbdtBinaryClassifier, GbdtConfig};
use ml::loss::{inverse_frequency_weights, softmax_cross_entropy};
use ml::matrix::Matrix;
use ml::scale::MinMaxScaler;
use ml::tree::BinMapper;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use testkit::gen::{f32_in, u64_in, usize_in, vec_of, zip2, zip3, Gen};
use testkit::prop::holds;

fn finite_vec(len: usize) -> Gen<Vec<f32>> {
    vec_of(f32_in(-1e4, 1e4), len, len)
}

#[test]
fn softmax_is_a_distribution() {
    testkit::check(
        "softmax_distribution",
        &vec_of(f32_in(-50.0, 50.0), 1, 15),
        |logits| {
            let p = softmax(logits);
            let sum: f32 = p.iter().sum();
            holds((sum - 1.0).abs() < 1e-4, format!("sum {sum}"))?;
            holds(
                p.iter().all(|&v| (0.0..=1.0).contains(&v)),
                "probability out of [0, 1]",
            )?;
            // argmax of probabilities equals argmax of logits.
            holds(argmax(&p) == argmax(logits), "argmax moved")
        },
    );
}

#[test]
fn cross_entropy_gradient_sums_to_zero() {
    let cases = zip2(vec_of(f32_in(-10.0, 10.0), 2, 7), usize_in(0, 7));
    testkit::check("ce_gradient_sum", &cases, |(logits, target_raw)| {
        let target = target_raw % logits.len();
        let w = vec![1.0; logits.len()];
        let eval = softmax_cross_entropy(logits, target, &w, false);
        let g: f32 = eval.dlogits.iter().sum();
        // Softmax CE gradient components always sum to zero.
        holds(g.abs() < 1e-4, format!("gradient sum {g}"))?;
        holds(eval.loss >= 0.0, "negative loss")
    });
}

#[test]
fn inverse_frequency_weights_are_positive_and_mean_one() {
    testkit::check(
        "inverse_frequency_weights",
        &vec_of(usize_in(0, 4), 1, 199),
        |labels| {
            let w = inverse_frequency_weights(labels.iter().copied(), 5);
            holds(w.len() == 5, "weight count")?;
            holds(
                w.iter().all(|&x| x > 0.0 && x.is_finite()),
                "non-positive weight",
            )?;
            let mean: f32 = w.iter().sum::<f32>() / 5.0;
            holds((mean - 1.0).abs() < 1e-3, format!("mean {mean}"))
        },
    );
}

#[test]
fn matmul_distributes_over_addition() {
    let cases = zip3(finite_vec(6), finite_vec(6), finite_vec(6));
    testkit::check("matmul_distributes", &cases, |(a_data, b_data, c_data)| {
        let a = Matrix::from_rows(&[&a_data[..3], &a_data[3..]]);
        let b = Matrix::from_rows(&[&b_data[..2], &b_data[2..4], &b_data[4..]]);
        let c = Matrix::from_rows(&[&c_data[..2], &c_data[2..4], &c_data[4..]]);
        // a * (b + c) == a*b + a*c (within fp tolerance).
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        holds(
            lhs.as_slice()
                .iter()
                .zip(rhs.as_slice())
                .all(|(x, y)| (x - y).abs() <= 1e-2 * (1.0 + x.abs().max(y.abs()))),
            "a(b + c) != ab + ac",
        )
    });
}

#[test]
fn transpose_is_involutive() {
    testkit::check("transpose_involutive", &finite_vec(12), |data| {
        let m = Matrix::from_rows(&[&data[..4], &data[4..8], &data[8..]]);
        holds(
            m.transposed().transposed() == m,
            "transpose twice changed m",
        )
    });
}

#[test]
fn minmax_scaler_output_is_unit_bounded() {
    let cases = zip2(
        vec_of(vec_of(f32_in(-1e6, 1e6), 4, 4), 1, 39),
        vec_of(f32_in(-2e6, 2e6), 4, 4),
    );
    testkit::check("minmax_unit_bounded", &cases, |(rows, probe)| {
        let s = MinMaxScaler::fit(rows);
        let unit = |t: Vec<f32>| t.iter().all(|&v| (0.0..=1.0).contains(&v));
        holds(
            rows.iter().all(|r| unit(s.transform_row(r))),
            "fitted row escaped [0, 1]",
        )?;
        // Out-of-range probes clamp, never escape [0, 1].
        holds(unit(s.transform_row(probe)), "probe escaped [0, 1]")
    });
}

#[test]
fn bin_mapper_is_monotone_for_any_data() {
    testkit::check(
        "bin_mapper_monotone",
        &vec_of(f32_in(-1e5, 1e5), 2, 199),
        |vals| {
            let rows: Vec<Vec<f32>> = vals.iter().map(|&v| vec![v]).collect();
            let mapper = BinMapper::fit(&rows, 32);
            let mut sorted = vals.clone();
            sorted.sort_by(f32::total_cmp);
            let bins: Vec<u16> = sorted.iter().map(|&v| mapper.bin_value(0, v)).collect();
            holds(bins.windows(2).all(|w| w[0] <= w[1]), "bins not monotone")
        },
    );
}

#[test]
fn gbdt_probabilities_are_probabilities() {
    testkit::check("gbdt_probabilities", &u64_in(0, 999), |&seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let labels: Vec<bool> = rows.iter().map(|r| r[0] > 0.0).collect();
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            return Ok(()); // degenerate single-class draw
        }
        let cfg = GbdtConfig {
            rounds: 5,
            ..GbdtConfig::default()
        };
        let model = GbdtBinaryClassifier::fit(&rows, &labels, &cfg);
        for r in &rows {
            let p = model.predict_proba(r);
            holds((0.0..=1.0).contains(&p), format!("p = {p}"))?;
        }
        Ok(())
    });
}
