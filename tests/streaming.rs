//! Streaming attack engine: bitwise equivalence with the batch pipeline.
//!
//! The contract under test (see `DESIGN.md` §12): draining a
//! [`moscons::AttackStream`] over a trace — at **any** chunk size, including
//! one row at a time — reproduces the batch `Moscons::attack` extraction
//! bit for bit, while emitting per-sample op labels with bounded latency.
//! A `testkit` property extends the same claim to the incremental gap
//! splitter over arbitrary chunkings, a fault-plan regression pins the
//! NOP-bridge (isolated missing samples) at chunk boundaries, and the
//! raw-row predicts of `Mlong`, `Mop` and `Mhp` must reproduce the streamed
//! labels on every iteration.

mod common;

use std::sync::OnceLock;

use dnn_sim::{Activation, Layer, Model, Optimizer, TrainingConfig, TrainingSession};
use gpu_sim::{FaultPlan, GpuConfig};
use moscons::attack::{AttackConfig, Moscons};
use moscons::dataset::filter_valid_iterations;
use moscons::stream::{SegmentSplitter, SplitEvent};
use moscons::{
    random_profiling_models, AttackReport, AttackStream, GapStream, HpKind, LongClass, OtherClass,
    StreamLabel,
};

/// Clean-path fixture: attacker, per-sample feature rows of the victim's
/// trace, and the batch report the stream must reproduce.
struct Fixture {
    moscons: Moscons,
    features: Vec<Vec<f32>>,
    batch: AttackReport,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (moscons, victim) = common::quick_attack_setup(FaultPlan::none(), 4);
        let (extraction, raw) = moscons.attack(&victim, 99);
        let features = moscons::cache::counter_feature_matrix(&raw).to_vec();
        Fixture {
            moscons,
            features,
            batch: extraction.report(),
        }
    })
}

/// Drains `features` through an [`AttackStream`] at the given chunk size and
/// returns the final report plus every label's emission latency in samples.
fn stream_report(
    moscons: &Moscons,
    features: &[Vec<f32>],
    chunk_rows: usize,
) -> (AttackReport, Vec<usize>) {
    let mut stream = AttackStream::with_chunk_rows(moscons, chunk_rows);
    let mut latencies = Vec::new();
    for row in features {
        let now = stream.samples_pushed(); // index this row receives
        for label in stream.push(row) {
            latencies.push(now - label.sample);
        }
    }
    let total = stream.samples_pushed();
    let outcome = stream.finish();
    for label in &outcome.labels {
        latencies.push(total.saturating_sub(1) - label.sample);
    }
    (outcome.extraction.report(), latencies)
}

#[test]
fn streaming_drain_reproduces_batch_attack_bitwise() {
    let fx = fixture();
    let gap_cfg = fx.moscons.gap_model().config();
    for chunk_rows in [1usize, 7, 32] {
        let (report, latencies) = stream_report(&fx.moscons, &fx.features, chunk_rows);
        assert_eq!(
            report, fx.batch,
            "streamed extraction diverged from batch at chunk_rows={chunk_rows}"
        );
        assert!(
            !latencies.is_empty(),
            "no labels streamed at chunk_rows={chunk_rows}"
        );
        // Bounded latency: a label can be held back by at most one
        // unfilled classification chunk plus the splitter's lookback
        // (gap run + bridge) plus the one-row scaling lookahead.
        let bound = chunk_rows + gap_cfg.th_gap + gap_cfg.nop_bridge + 2;
        let worst = latencies.iter().copied().max().unwrap_or(0);
        assert!(
            worst <= bound,
            "label latency {worst} exceeds bound {bound} at chunk_rows={chunk_rows}"
        );
    }
    // Meaningful comparison requires a non-degenerate batch run.
    assert!(!fx.batch.iterations.is_empty(), "no iterations recovered");
    assert!(!fx.batch.fused_classes.is_empty(), "no fused classes");
    // The streams read each `Mhp` head by kind; every lookup must land on
    // the head trained for that kind.
    for kind in HpKind::ALL {
        assert_eq!(fx.moscons.hp_model(kind).kind(), kind);
    }
}

#[test]
fn raw_row_predicts_match_streamed_labels() {
    // `LongOpModel::predict_batch`, `OtherOpModel::predict_batch` and
    // `HpModel::predict` scale and prepare raw rows themselves; on every
    // iteration `Mgap` splits out, they must give the labels the stream
    // emitted for the same samples.
    let fx = fixture();
    let m = &fx.moscons;
    let mut stream = AttackStream::new(m);
    let mut streamed: Vec<Option<StreamLabel>> = vec![None; fx.features.len()];
    let mut labels: Vec<StreamLabel> = fx
        .features
        .iter()
        .flat_map(|row| stream.push(row))
        .collect();
    labels.extend(stream.finish().labels);
    for label in labels {
        let sample = label.sample;
        streamed[sample] = Some(label);
    }

    let iterations = m.gap_model().split_iterations(&fx.features, m.scaler());
    assert!(!iterations.is_empty(), "no iterations recovered");
    let rows: Vec<&[Vec<f32>]> = iterations.iter().map(|r| &fx.features[r.clone()]).collect();
    let long = m.long_model().predict_batch(&rows, m.scaler());
    let op = m.op_model().predict_batch(&rows, m.scaler());
    for (i, range) in iterations.iter().enumerate() {
        let labels: Vec<&StreamLabel> = range
            .clone()
            .map(|s| {
                streamed[s]
                    .as_ref()
                    .expect("every iteration sample is labelled")
            })
            .collect();
        let got_long: Vec<LongClass> = labels.iter().map(|l| l.long).collect();
        assert_eq!(long[i], got_long, "Mlong on iteration {range:?}");
        let got_op: Vec<OtherClass> = labels.iter().map(|l| l.op).collect();
        assert_eq!(op[i], got_op, "Mop on iteration {range:?}");
        for kind in HpKind::ALL {
            let got_hp: Vec<usize> = labels.iter().map(|l| l.hp[kind.index()]).collect();
            assert_eq!(
                m.hp_model(kind).predict(rows[i], m.scaler()),
                got_hp,
                "Mhp {kind:?} on iteration {range:?}"
            );
        }
    }
}

#[test]
fn gap_stream_is_chunking_invariant() {
    let fx = fixture();
    let gap = fx.moscons.gap_model();
    let scaler = fx.moscons.scaler();
    let cfg = gap.config();

    // Whole-trace references: the splitter over the model's own NOP flags,
    // and the event stream of a single uninterrupted streaming pass.
    let scaled: Vec<Vec<f32>> = fx
        .features
        .iter()
        .map(|f| scaler.transform_row(f))
        .collect();
    let is_nop: Vec<bool> = (0..scaled.len())
        .map(|i| {
            gap.predict_nop_scaled(
                (i > 0).then(|| scaled[i - 1].as_slice()),
                &scaled[i],
                scaled.get(i + 1).map(|v| v.as_slice()),
            )
        })
        .collect();
    let batch_segments = SegmentSplitter::segments(is_nop, cfg.th_gap, cfg.nop_bridge);

    let run_chunked = |chunk_lens: &[usize]| -> Vec<SplitEvent> {
        let mut stream = GapStream::new(gap, scaler);
        let mut events = Vec::new();
        let mut rows = fx.features.iter();
        // Feed the generated chunking, then whatever remains as one chunk;
        // events are drained (read) at every chunk boundary.
        for &len in chunk_lens {
            for row in rows.by_ref().take(len) {
                stream.push(row, &mut events);
            }
        }
        for row in rows {
            stream.push(row, &mut events);
        }
        stream.finish(&mut events);
        events
    };
    let whole = run_chunked(&[]);
    let whole_segments: Vec<std::ops::Range<usize>> = whole
        .iter()
        .filter_map(|e| match e {
            SplitEvent::Close(r) => Some(r.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        whole_segments, batch_segments,
        "streaming segments diverged from the batch splitter"
    );
    assert!(!batch_segments.is_empty(), "degenerate trace: no segments");
    assert_eq!(
        gap.split_iterations(&fx.features, scaler),
        filter_valid_iterations(whole_segments, cfg.r_min, cfg.r_max),
        "batch iterations diverged from the filtered streaming segments"
    );

    // ANY chunking — 1-sample chunks, arbitrary boundaries (mid-gap ones
    // included by construction) — yields the identical event stream.
    let chunkings = testkit::gen::vec_of(testkit::gen::usize_in(1, 9), 1, 48);
    testkit::check("gap_stream_chunking_invariance", &chunkings, |lens| {
        let got = run_chunked(lens);
        testkit::prop::holds(
            got == whole,
            format!(
                "event stream changed under chunking {:?}: {} events vs {}",
                lens,
                got.len(),
                whole.len()
            ),
        )
    });
}

#[test]
fn fault_bridge_streaming_matches_batch_at_chunk_boundaries() {
    // Isolated missing samples (poll-miss faults) read as 1-sample NOP
    // blips; `nop_bridge = 1` heals them in the batch splitter (PR 4). The
    // incremental splitter must apply the identical bridge even when the
    // blip, its flanks, or the bridged run straddle a chunk boundary.
    let faults = FaultPlan::uniform(0.15, 7);
    let profiled: Vec<TrainingSession> = random_profiling_models(3, common::input(), 19)
        .into_iter()
        .map(|m| TrainingSession::new(m, TrainingConfig::new(48, 4)))
        .collect();
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 4;
    config.op_lstm.hidden = 24;
    config.voting_lstm.epochs = 4;
    config.hp_lstm.epochs = 3;
    config.hp_lstm.hidden = 24;
    config.voting_iterations = 3;
    config.gap.nop_bridge = 1;
    config.gpu = GpuConfig::gtx_1080_ti().with_faults(faults);
    let moscons = Moscons::profile(&profiled, config);

    let victim_model = Model::new(
        "victim",
        common::input(),
        vec![
            Layer::dense(2048, Activation::Relu),
            Layer::dense(512, Activation::Relu),
        ],
        Optimizer::Gd,
    );
    let victim = TrainingSession::new(victim_model, TrainingConfig::new(48, 4));
    let (extraction, raw) = moscons.attack(&victim, 99);
    let batch = extraction.report();
    let features = moscons::cache::counter_feature_matrix(&raw).to_vec();
    assert!(!batch.iterations.is_empty(), "faulted run degenerated");

    for chunk_rows in [1usize, 5] {
        let (report, _) = stream_report(&moscons, &features, chunk_rows);
        assert_eq!(
            report, batch,
            "bridged faulted stream diverged from batch at chunk_rows={chunk_rows}"
        );
    }
}
