//! Streaming attack engine — bounded-latency extraction.
//!
//! The batch pipeline ([`crate::attack::Moscons::extract`]) needs the whole
//! CUPTI sample stream before it can emit a single label. This module turns
//! the same attack path into a stream processor: samples are pushed one at a
//! time (or in chunks, as a live [`crate::trace`] spy session drains them),
//! iteration gaps are detected incrementally with one sample of lookahead,
//! and the `Mlong`/`Mop`/`Mhp` LSTMs run *stateful* chunked inference
//! (carrying `(h, c)` across chunks, see
//! [`ml::seq::SequenceClassifier::predict_proba_stream_chunks`]) so op and
//! hyper-parameter labels come out while the victim is still training.
//!
//! The contract that makes this safe to ship is **bitwise batch parity**:
//! draining an [`AttackStream`] over a trace and calling
//! [`AttackStream::finish`] produces the exact [`crate::attack::Extraction`]
//! (and therefore the exact golden [`crate::report::AttackReport`]) that
//! [`crate::attack::Moscons::extract`] produces on the same rows. The chain
//! is:
//!
//! 1. per-sample NOP flags are the same GBDT over the same
//!    [`crate::gap`] context rows ([`GapModel::predict_nop_scaled`]);
//! 2. both paths split with one [`SegmentSplitter`]: the batch path pushes
//!    a whole flag sequence through [`SegmentSplitter::segments`], the
//!    stream pushes flags as they are decided (property-tested below
//!    against a whole-sequence oracle, over random streams and chunkings);
//! 3. every prepared row (MinMax scale + one-step lookahead) is one
//!    `dataset::lookahead_row`, whether [`crate::dataset::with_lookahead`]
//!    builds a whole iteration or the stream completes one row at a time;
//! 4. stateful chunked LSTM inference is bitwise identical to the packed
//!    batch path for any chunking (proven by `ml::seq` property tests);
//! 5. the back half (voting, OpSeq parse, `Mhp` attach, syntax correction)
//!    is literally shared code: [`crate::attack::Moscons`]'s
//!    `assemble_extraction`.
//!
//! Memory is bounded while streaming: the splitter holds back at most
//! `nop_bridge` busy samples plus `th_gap - 1` undecided NOPs, the gap
//! detector one sample of lookahead, and each open segment at most one
//! classification chunk of prepared rows ([`DEFAULT_STREAM_CHUNK`], or the
//! size given to [`AttackStream::with_chunk_rows`]). Only the per-segment
//! *label* sequences are retained to the end — they are what
//! [`AttackStream::finish`] feeds the shared assembly — so label latency is
//! bounded by `th_gap + nop_bridge + chunk + 2` samples.

use std::collections::VecDeque;
use std::ops::Range;

use ml::{MinMaxScaler, StreamState};

use crate::attack::{Extraction, Moscons};
use crate::dataset::{filter_valid_iterations, lookahead_row};
use crate::gap::GapModel;
use crate::hyperparams::HpKind;
use crate::long_ops::LongClass;
use crate::other_ops::OtherClass;

/// Rows per stateful classification chunk of [`AttackStream::new`].
/// Smaller chunks lower label latency, larger chunks amortize GEMM setup.
/// Any value yields bitwise-identical labels (chunking invariance is the
/// `ml::seq` streaming contract), so the size trades only latency against
/// throughput.
pub const DEFAULT_STREAM_CHUNK: usize = 32;

/// One incremental splitting decision, emitted by [`SegmentSplitter`].
///
/// Every pushed index resolves to exactly one [`SplitEvent::Assign`] or
/// [`SplitEvent::Discard`], in strictly increasing index order (decisions
/// for held-back samples are flushed before decisions for newer ones);
/// [`SplitEvent::Close`] fires after the last `Assign` of its range and
/// before any event of a later segment. Consumers can therefore drive a
/// FIFO of per-sample payloads with zero reordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitEvent {
    /// Sample `i` belongs to the currently open segment.
    Assign(usize),
    /// Sample `i` is gap filler between (or around) segments.
    Discard(usize),
    /// The segment covering this range is complete.
    Close(Range<usize>),
}

/// The `Mgap` splitter (§IV-A): feed per-sample NOP flags one at a time,
/// get [`SplitEvent`]s out. A segment closes before every run of at least
/// `th_gap` NOPs; leading and trailing NOPs fall outside every segment.
/// Interior BUSY runs of at most `bridge` samples, flanked by NOPs on both
/// sides, count as NOP: a missed host poll (see
/// `CuptiSession::collect_faulted`) plants such a busy-looking sample inside
/// a real gap, and without the bridge it would glue two iterations together.
/// `bridge == 0` disables it.
///
/// It is the only splitter: [`SegmentSplitter::segments`] runs it over a
/// whole flag sequence for the batch path, and the closed ranges are the
/// same for any chunking of the pushes.
///
/// Two pieces of bounded state make the incremental form possible:
///
/// * **bridge stage** — a BUSY run can only be flipped to NOP once it is
///   known to be interior (flanked by NOPs) and at most `bridge` long, so
///   up to `bridge` busy flags are held back until the next NOP arrives
///   (flip), the run outgrows the bridge (flush as busy), or the stream
///   ends (edge runs are never bridged);
/// * **segment stage** — a NOP run inside a segment is undecided until it
///   either reaches `th_gap` (close the segment *before* the run, discard
///   the run) or a BUSY sample claims it back into the segment, so up to
///   `th_gap - 1` NOP decisions are deferred.
#[derive(Debug, Clone)]
pub struct SegmentSplitter {
    th_gap: usize,
    bridge: usize,
    /// Index the next pushed flag will get.
    next: usize,
    /// Start of a held-back BUSY run still eligible for bridging.
    run_start: Option<usize>,
    /// Inside a BUSY run already ruled out for bridging (edge run, or
    /// longer than `bridge`): feed busy flags straight through.
    busy_passthrough: bool,
    /// Start of the open segment, if any.
    seg_start: Option<usize>,
    /// One past the last BUSY sample of the open segment (provisional end).
    seg_end: usize,
    /// Current NOP run length within the segment stage.
    nop_run: usize,
    finished: bool,
}

impl SegmentSplitter {
    /// A fresh splitter with the given gap threshold and busy-bridge width
    /// (see [`crate::gap::GapConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if `th_gap == 0`.
    pub fn new(th_gap: usize, bridge: usize) -> Self {
        assert!(th_gap > 0, "th_gap must be positive");
        SegmentSplitter {
            th_gap,
            bridge,
            next: 0,
            run_start: None,
            busy_passthrough: false,
            seg_start: None,
            seg_end: 0,
            nop_run: 0,
            finished: false,
        }
    }

    /// The segments of a whole flag sequence: pushes every flag, finishes,
    /// and keeps the [`SplitEvent::Close`] ranges.
    ///
    /// # Panics
    ///
    /// Panics if `th_gap == 0`.
    pub fn segments(
        flags: impl IntoIterator<Item = bool>,
        th_gap: usize,
        bridge: usize,
    ) -> Vec<Range<usize>> {
        let mut splitter = SegmentSplitter::new(th_gap, bridge);
        let mut events = Vec::new();
        for nop in flags {
            splitter.push(nop, &mut events);
        }
        splitter.finish(&mut events);
        events
            .into_iter()
            .filter_map(|e| match e {
                SplitEvent::Close(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Pushes the NOP flag of the next sample, appending any decisions it
    /// unlocks to `out`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`SegmentSplitter::finish`].
    pub fn push(&mut self, nop: bool, out: &mut Vec<SplitEvent>) {
        assert!(!self.finished, "push after finish");
        let i = self.next;
        self.next += 1;
        if self.bridge == 0 {
            self.feed(i, nop, out);
            return;
        }
        if nop {
            self.busy_passthrough = false;
            if let Some(s) = self.run_start.take() {
                // Interior BUSY run of at most `bridge` samples, now flanked
                // by NOP on both sides: flip it (the isolated-missing-sample
                // repair).
                for j in s..i {
                    self.feed(j, true, out);
                }
            }
            self.feed(i, true, out);
        } else if self.busy_passthrough {
            self.feed(i, false, out);
        } else if let Some(s) = self.run_start {
            if i - s + 1 > self.bridge {
                // Run outgrew the bridge: it can never be flipped, flush it.
                self.run_start = None;
                self.busy_passthrough = true;
                for j in s..=i {
                    self.feed(j, false, out);
                }
            }
        } else if i == 0 {
            // A run starting at the stream edge is never bridged.
            self.busy_passthrough = true;
            self.feed(i, false, out);
        } else {
            self.run_start = Some(i);
        }
    }

    /// Ends the stream: flushes the held-back BUSY run (edge runs are never
    /// bridged), closes the open segment, and discards trailing NOPs.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&mut self, out: &mut Vec<SplitEvent>) {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        if let Some(s) = self.run_start.take() {
            for j in s..self.next {
                self.feed(j, false, out);
            }
        }
        if let Some(start) = self.seg_start.take() {
            // Trailing NOPs (a run shorter than th_gap) stay outside the
            // segment.
            out.push(SplitEvent::Close(start..self.seg_end));
            for j in self.seg_end..self.next {
                out.push(SplitEvent::Discard(j));
            }
        }
    }

    /// Segment stage: consumes one (possibly bridged) flag.
    fn feed(&mut self, i: usize, nop: bool, out: &mut Vec<SplitEvent>) {
        if nop {
            self.nop_run += 1;
            match self.seg_start {
                // No open segment: gap filler, decided immediately.
                None => out.push(SplitEvent::Discard(i)),
                Some(start) => {
                    if self.nop_run == self.th_gap {
                        // The run that closes the segment: the segment ends
                        // at its last BUSY sample (`i + 1 - th_gap`).
                        let end = self.seg_end;
                        self.seg_start = None;
                        out.push(SplitEvent::Close(start..end));
                        for j in end..=i {
                            out.push(SplitEvent::Discard(j));
                        }
                    }
                    // Shorter runs stay deferred: a later BUSY sample may
                    // claim them back into the segment.
                }
            }
        } else {
            if self.seg_start.is_none() {
                self.seg_start = Some(i);
                self.seg_end = i;
            }
            // This BUSY sample and any deferred interior NOPs before it all
            // belong to the segment.
            for j in self.seg_end..=i {
                out.push(SplitEvent::Assign(j));
            }
            self.seg_end = i + 1;
            self.nop_run = 0;
        }
    }
}

/// Incremental `Mgap`: scaled sample rows in, [`SplitEvent`]s out, with one
/// sample of lookahead (the GBDT's context row needs the *next* sample, see
/// [`GapModel::predict_nop_scaled`]). Closed ranges are
/// [`GapModel::split_iterations`]'s pre-filter segments on the same rows,
/// for any chunking of the pushes.
#[derive(Debug)]
pub struct GapStream<'a> {
    gap: &'a GapModel,
    scaler: &'a MinMaxScaler,
    splitter: SegmentSplitter,
    /// Scaled row before `held` (the held row's `prev` context).
    prev: Option<Vec<f32>>,
    /// Most recent scaled row, awaiting its lookahead neighbour.
    held: Option<Vec<f32>>,
}

impl<'a> GapStream<'a> {
    /// A fresh gap stream over a trained model (splitting parameters come
    /// from [`GapModel::config`]).
    pub fn new(gap: &'a GapModel, scaler: &'a MinMaxScaler) -> Self {
        let cfg = gap.config();
        GapStream {
            gap,
            scaler,
            splitter: SegmentSplitter::new(cfg.th_gap, cfg.nop_bridge),
            prev: None,
            held: None,
        }
    }

    /// Pushes the next raw feature row (scaling it internally).
    pub fn push(&mut self, features: &[f32], out: &mut Vec<SplitEvent>) {
        self.push_scaled(self.scaler.transform_row(features), out);
    }

    /// Pushes the next already-scaled feature row.
    pub fn push_scaled(&mut self, scaled: Vec<f32>, out: &mut Vec<SplitEvent>) {
        if let Some(cur) = self.held.take() {
            let nop = self
                .gap
                .predict_nop_scaled(self.prev.as_deref(), &cur, Some(&scaled));
            self.splitter.push(nop, out);
            self.prev = Some(cur);
        }
        self.held = Some(scaled);
    }

    /// Ends the stream: the held row's lookahead is the stream edge (zeros),
    /// then the splitter flushes.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&mut self, out: &mut Vec<SplitEvent>) {
        if let Some(cur) = self.held.take() {
            let nop = self
                .gap
                .predict_nop_scaled(self.prev.as_deref(), &cur, None);
            self.splitter.push(nop, out);
            self.prev = Some(cur);
        }
        self.splitter.finish(out);
    }
}

/// One streamed per-sample label, emitted as soon as its classification
/// chunk completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLabel {
    /// Trace sample index the label describes.
    pub sample: usize,
    /// Ordinal of the segment (pre-validity-filter) the sample belongs to.
    pub segment: usize,
    /// `Mlong` label.
    pub long: LongClass,
    /// `Mop` label.
    pub op: OtherClass,
    /// The five `Mhp` head labels, in [`HpKind::ALL`] order.
    pub hp: [usize; HpKind::ALL.len()],
}

/// A fully classified segment, retained for the final assembly (labels
/// only — the feature rows are gone).
#[derive(Debug, Clone)]
pub struct ClosedSegment {
    /// Trace range the segment covers.
    pub range: Range<usize>,
    /// Per-sample `Mlong` label indices.
    pub preds_long: Vec<usize>,
    /// Per-sample `Mop` label indices.
    pub preds_op: Vec<usize>,
    /// Per-sample `Mhp` label indices, one stream per head in
    /// [`HpKind::ALL`] order.
    pub hp_preds: Vec<Vec<usize>>,
}

/// Everything [`AttackStream::finish`] returns: the labels unlocked by the
/// end of the stream plus the batch-parity extraction.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Labels emitted while flushing (chunk remainders and held-back rows).
    pub labels: Vec<StreamLabel>,
    /// The extraction — bitwise identical to
    /// [`crate::attack::Moscons::extract`] on the same rows.
    pub extraction: Extraction,
}

/// Per-open-segment streaming state: the `(h, c)` carries of all seven
/// LSTMs plus the label accumulators.
#[derive(Debug)]
struct OpenSegment {
    /// Trace index of the segment's first sample.
    start: usize,
    /// Rows already classified (labels emitted).
    classified: usize,
    /// Most recent assigned scaled row, awaiting its lookahead neighbour.
    last_scaled: Option<Vec<f32>>,
    /// Prepared (scaled + lookahead) rows awaiting classification.
    pending: Vec<Vec<f32>>,
    long_state: StreamState,
    op_state: StreamState,
    hp_states: Vec<StreamState>,
    preds_long: Vec<usize>,
    preds_op: Vec<usize>,
    hp_preds: Vec<Vec<usize>>,
}

impl OpenSegment {
    fn new(start: usize, moscons: &Moscons) -> Self {
        OpenSegment {
            start,
            classified: 0,
            last_scaled: None,
            pending: Vec::new(),
            long_state: moscons.long_model().classifier().stream_state(),
            op_state: moscons.op_model().classifier().stream_state(),
            hp_states: HpKind::ALL
                .iter()
                .map(|&k| moscons.hp_model(k).classifier().stream_state())
                .collect(),
            preds_long: Vec::new(),
            preds_op: Vec::new(),
            hp_preds: vec![Vec::new(); HpKind::ALL.len()],
        }
    }
}

/// The streaming attack path: push raw CUPTI feature rows as they arrive,
/// collect [`StreamLabel`]s with bounded latency, and get the batch-parity
/// [`Extraction`] at [`AttackStream::finish`].
#[derive(Debug)]
pub struct AttackStream<'a> {
    moscons: &'a Moscons,
    gap: GapStream<'a>,
    chunk_rows: usize,
    /// Index the next pushed row will get.
    next_index: usize,
    /// Scaled rows awaiting their Assign/Discard decision, in index order.
    fifo: VecDeque<(usize, Vec<f32>)>,
    open: Option<OpenSegment>,
    closed: Vec<ClosedSegment>,
    /// Scratch event buffer, reused across pushes.
    events: Vec<SplitEvent>,
}

impl<'a> AttackStream<'a> {
    /// A fresh stream over a trained [`Moscons`], classifying every
    /// [`DEFAULT_STREAM_CHUNK`] rows.
    pub fn new(moscons: &'a Moscons) -> Self {
        Self::with_chunk_rows(moscons, DEFAULT_STREAM_CHUNK)
    }

    /// A fresh stream with an explicit classification chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows == 0`.
    pub fn with_chunk_rows(moscons: &'a Moscons, chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        AttackStream {
            moscons,
            gap: GapStream::new(moscons.gap_model(), moscons.scaler()),
            chunk_rows,
            next_index: 0,
            fifo: VecDeque::new(),
            open: None,
            closed: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Number of raw rows pushed so far.
    pub fn samples_pushed(&self) -> usize {
        self.next_index
    }

    /// Segments closed so far (pre-validity-filter).
    pub fn segments_closed(&self) -> usize {
        self.closed.len()
    }

    /// Pushes the next raw feature row
    /// ([`crate::dataset::counter_features`] output, time order), returning
    /// any labels it unlocked.
    pub fn push(&mut self, features: &[f32]) -> Vec<StreamLabel> {
        let scaled = self.moscons.scaler().transform_row(features);
        self.fifo.push_back((self.next_index, scaled.clone()));
        self.next_index += 1;
        let mut events = std::mem::take(&mut self.events);
        self.gap.push_scaled(scaled, &mut events);
        let mut labels = Vec::new();
        self.drain_events(&events, &mut labels);
        events.clear();
        self.events = events;
        labels
    }

    /// Ends the stream: flushes every held-back decision and chunk
    /// remainder, then runs the shared batch assembly over the closed
    /// segments. The returned extraction is bitwise identical to
    /// [`Moscons::extract`] on the same rows.
    pub fn finish(mut self) -> StreamOutcome {
        let mut events = std::mem::take(&mut self.events);
        self.gap.finish(&mut events);
        let mut labels = Vec::new();
        self.drain_events(&events, &mut labels);
        debug_assert!(self.fifo.is_empty(), "every row is decided at finish");
        debug_assert!(self.open.is_none(), "finish closes the open segment");

        let moscons = self.moscons;
        let gap_cfg = moscons.gap_model().config();
        let ranges: Vec<Range<usize>> = self.closed.iter().map(|c| c.range.clone()).collect();
        let valid = filter_valid_iterations(ranges, gap_cfg.r_min, gap_cfg.r_max);
        if valid.is_empty() {
            return StreamOutcome {
                labels,
                extraction: Moscons::empty_extraction(valid),
            };
        }
        let n = moscons.config().voting_iterations.min(valid.len());
        // The valid ranges are an in-order subsequence of the closed ranges
        // (segments are disjoint and increasing): two-pointer match.
        let mut preds_long = Vec::with_capacity(n);
        let mut preds_op = Vec::with_capacity(n);
        let mut base: Option<&ClosedSegment> = None;
        let mut ci = 0usize;
        for r in valid.iter().take(n) {
            while self.closed[ci].range != *r {
                ci += 1;
            }
            let seg = &self.closed[ci];
            preds_long.push(seg.preds_long.clone());
            preds_op.push(seg.preds_op.clone());
            base.get_or_insert(seg);
            ci += 1;
        }
        let Some(base) = base else {
            // n >= 1 whenever valid is non-empty, so the loop above always
            // seeds `base`; degrade to an empty extraction if it ever
            // doesn't instead of aborting the serving path.
            debug_assert!(false, "n >= 1 when valid is non-empty");
            return StreamOutcome {
                labels,
                extraction: Moscons::empty_extraction(valid),
            };
        };
        let extraction = moscons.assemble_extraction(valid, &preds_long, &preds_op, &base.hp_preds);
        StreamOutcome { labels, extraction }
    }

    /// Applies a batch of splitting decisions to the row FIFO and the open
    /// segment, classifying full chunks as they accumulate.
    fn drain_events(&mut self, events: &[SplitEvent], labels: &mut Vec<StreamLabel>) {
        let moscons = self.moscons;
        let chunk_rows = self.chunk_rows;
        for ev in events {
            match ev {
                SplitEvent::Assign(i) => {
                    let Some((idx, row)) = self.fifo.pop_front() else {
                        // Decision without a buffered row: drop it rather
                        // than abort the stream.
                        debug_assert!(false, "assigned row is buffered");
                        continue;
                    };
                    debug_assert_eq!(idx, *i, "decisions arrive in push order");
                    let seg_id = self.closed.len();
                    let seg = self
                        .open
                        .get_or_insert_with(|| OpenSegment::new(*i, moscons));
                    if let Some(prev) = seg.last_scaled.take() {
                        // Prepared row j of the segment is scaled[j] ++
                        // scaled[j+1]: completing row j needs its successor.
                        seg.pending.push(lookahead_row(&prev, &row));
                    }
                    seg.last_scaled = Some(row);
                    if seg.pending.len() >= chunk_rows {
                        Self::classify_pending(moscons, seg, seg_id, labels);
                    }
                }
                SplitEvent::Discard(i) => {
                    let Some((idx, _)) = self.fifo.pop_front() else {
                        debug_assert!(false, "discarded row is buffered");
                        continue;
                    };
                    debug_assert_eq!(idx, *i, "decisions arrive in push order");
                }
                SplitEvent::Close(range) => {
                    let seg_id = self.closed.len();
                    let Some(mut seg) = self.open.take() else {
                        // Close without an open segment: nothing to label.
                        debug_assert!(false, "close implies an open segment");
                        continue;
                    };
                    let Some(last) = seg.last_scaled.take() else {
                        debug_assert!(false, "segments are non-empty");
                        continue;
                    };
                    // The segment's final row is its own lookahead.
                    seg.pending.push(lookahead_row(&last, &last));
                    Self::classify_pending(moscons, &mut seg, seg_id, labels);
                    debug_assert_eq!(
                        seg.preds_long.len(),
                        range.len(),
                        "one label per segment sample"
                    );
                    self.closed.push(ClosedSegment {
                        range: range.clone(),
                        preds_long: seg.preds_long,
                        preds_op: seg.preds_op,
                        hp_preds: seg.hp_preds,
                    });
                }
            }
        }
    }

    /// Runs all seven LSTMs over the segment's pending prepared rows,
    /// advancing their `(h, c)` carries and emitting one label per row.
    fn classify_pending(
        moscons: &Moscons,
        seg: &mut OpenSegment,
        seg_id: usize,
        labels: &mut Vec<StreamLabel>,
    ) {
        if seg.pending.is_empty() {
            return;
        }
        let n_rows = seg.pending.len();
        let chunk: &[Vec<f32>] = &seg.pending;
        let pl = moscons
            .long_model()
            .classifier()
            .predict_stream_chunks(&[chunk], std::slice::from_mut(&mut seg.long_state))
            .pop()
            .unwrap_or_default();
        let po = moscons
            .op_model()
            .classifier()
            .predict_stream_chunks(&[chunk], std::slice::from_mut(&mut seg.op_state))
            .pop()
            .unwrap_or_default();
        let ph: Vec<Vec<usize>> = HpKind::ALL
            .iter()
            .zip(seg.hp_states.iter_mut())
            .map(|(&k, state)| {
                moscons
                    .hp_model(k)
                    .classifier()
                    .predict_stream_chunks(&[chunk], std::slice::from_mut(state))
                    .pop()
                    .unwrap_or_default()
            })
            .collect();
        // One prediction per pending row from every head — checked up front
        // so a short prediction batch drops the chunk (degradation) instead
        // of panicking row by row below.
        if pl.len() != n_rows || po.len() != n_rows || ph.iter().any(|p| p.len() != n_rows) {
            debug_assert!(false, "one prediction per pending row");
            seg.pending.clear();
            return;
        }
        for (k, (&long_cls, &op_cls)) in pl.iter().zip(po.iter()).enumerate() {
            let mut hp = [0usize; HpKind::ALL.len()];
            for (slot, preds) in hp.iter_mut().zip(&ph) {
                *slot = preds.get(k).copied().unwrap_or_default();
            }
            labels.push(StreamLabel {
                sample: seg.start + seg.classified + k,
                segment: seg_id,
                long: LongClass::from_index(long_cls),
                op: OtherClass::from_index(op_cls),
                hp,
            });
        }
        seg.classified += n_rows;
        seg.preds_long.extend_from_slice(&pl);
        seg.preds_op.extend_from_slice(&po);
        for (acc, p) in seg.hp_preds.iter_mut().zip(&ph) {
            acc.extend_from_slice(p);
        }
        seg.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The whole-sequence splitter, kept as the oracle for
    /// [`SegmentSplitter`]: flip every interior BUSY run of at most `bridge`
    /// samples to NOP, then close a segment before every run of `th_gap`
    /// NOPs and trim the leading and trailing NOPs.
    fn reference_segments(is_nop: &[bool], th_gap: usize, bridge: usize) -> Vec<Range<usize>> {
        let mut bridged = is_nop.to_vec();
        let mut i = 0;
        while i < bridged.len() {
            if !bridged[i] {
                let start = i;
                while i < bridged.len() && !bridged[i] {
                    i += 1;
                }
                // Flanked on both sides by NOP (interior run) and short enough.
                let flanked = start > 0 && i < bridged.len();
                if flanked && i - start <= bridge {
                    for b in bridged.iter_mut().take(i).skip(start) {
                        *b = true;
                    }
                }
            } else {
                i += 1;
            }
        }
        let mut segments = Vec::new();
        let mut seg_start: Option<usize> = None;
        let mut nop_run = 0usize;
        for (i, &nop) in bridged.iter().enumerate() {
            if nop {
                nop_run += 1;
                if nop_run == th_gap {
                    // Close the current segment before this run.
                    if let Some(start) = seg_start.take() {
                        let end = i + 1 - th_gap;
                        if end > start {
                            segments.push(start..end);
                        }
                    }
                }
            } else {
                if seg_start.is_none() {
                    seg_start = Some(i);
                }
                nop_run = 0;
            }
        }
        if let Some(start) = seg_start {
            let mut end = bridged.len();
            // Trim trailing NOPs (a run shorter than th_gap may remain).
            while end > start && bridged[end - 1] {
                end -= 1;
            }
            if end > start {
                segments.push(start..end);
            }
        }
        segments
    }

    fn run_splitter(flags: &[bool], th_gap: usize, bridge: usize) -> Vec<SplitEvent> {
        let mut sp = SegmentSplitter::new(th_gap, bridge);
        let mut out = Vec::new();
        for &f in flags {
            sp.push(f, &mut out);
        }
        sp.finish(&mut out);
        out
    }

    fn segments_of(events: &[SplitEvent]) -> Vec<std::ops::Range<usize>> {
        events
            .iter()
            .filter_map(|e| match e {
                SplitEvent::Close(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn splitter_matches_batch_on_random_streams() {
        let mut rng = StdRng::seed_from_u64(0x51e9);
        for case in 0..500 {
            let len = rng.gen_range(0..=64);
            let density = rng.gen_range(0.1..0.9);
            let flags: Vec<bool> = (0..len).map(|_| rng.gen_bool(density)).collect();
            let th_gap = rng.gen_range(1..=8);
            let bridge = rng.gen_range(0..=3);
            let events = run_splitter(&flags, th_gap, bridge);
            let expect = reference_segments(&flags, th_gap, bridge);
            assert_eq!(
                segments_of(&events),
                expect,
                "case {case}: flags {flags:?} th_gap {th_gap} bridge {bridge}"
            );
            assert_eq!(
                SegmentSplitter::segments(flags.iter().copied(), th_gap, bridge),
                expect,
                "case {case}: segments() on flags {flags:?} th_gap {th_gap} bridge {bridge}"
            );

            // Every index resolves exactly once, in strictly increasing
            // order, and Assign/Discard agree with segment membership.
            let mut next = 0usize;
            let mut assigned = vec![false; len];
            for e in &events {
                match e {
                    SplitEvent::Assign(i) | SplitEvent::Discard(i) => {
                        assert_eq!(*i, next, "case {case}: out-of-order decision");
                        assigned[*i] = matches!(e, SplitEvent::Assign(_));
                        next += 1;
                    }
                    SplitEvent::Close(_) => {}
                }
            }
            assert_eq!(next, len, "case {case}: undecided samples");
            for (i, &a) in assigned.iter().enumerate() {
                let inside = expect.iter().any(|r| r.contains(&i));
                assert_eq!(a, inside, "case {case}: sample {i} membership");
            }
        }
    }

    #[test]
    fn splitter_close_follows_its_assigns() {
        let mut rng = StdRng::seed_from_u64(0xc105e);
        for _ in 0..200 {
            let len = rng.gen_range(1..=48);
            let flags: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            let events = run_splitter(&flags, rng.gen_range(1..=5), rng.gen_range(0..=2));
            let mut decided = 0usize;
            for e in &events {
                match e {
                    SplitEvent::Assign(_) | SplitEvent::Discard(_) => decided += 1,
                    SplitEvent::Close(r) => {
                        assert!(decided >= r.end, "close {r:?} fired before its last assign");
                    }
                }
            }
        }
    }

    #[test]
    fn segments_close_before_gap_runs_and_trim_edge_nops() {
        // B B N N N B B N B with th_gap = 3: the shorter NOP run stays
        // inside its segment, and the trailing busy sample is kept.
        let nop = [false, false, true, true, true, false, false, true, false];
        assert_eq!(SegmentSplitter::segments(nop, 3, 0), vec![0..2, 5..9]);
        // Leading and trailing NOPs fall outside every segment.
        let nop = [true, true, false, false, true, true];
        assert_eq!(SegmentSplitter::segments(nop, 2, 0), vec![2..4]);
        // All NOP: no segment.
        assert!(SegmentSplitter::segments([true; 10], 3, 0).is_empty());
    }

    #[test]
    fn segments_bridge_only_short_interior_busy_runs() {
        // A real gap of 6 NOPs with one busy-looking sample in the middle
        // (a missed poll merged a quiet window into its successor).
        let nop = [
            false, false, true, true, true, false, true, true, true, false, false,
        ];
        // Unbridged: the spurious sample cuts the gap in two 3-runs < TH_gap,
        // gluing the two iterations together.
        assert_eq!(SegmentSplitter::segments(nop, 6, 0), vec![0..11]);
        // Bridge = 1 restores the split.
        assert_eq!(SegmentSplitter::segments(nop, 6, 1), vec![0..2, 9..11]);
        // A 3-sample busy run survives bridge = 2.
        let nop = [true, false, false, false, true, true];
        assert_eq!(SegmentSplitter::segments(nop, 2, 2), vec![1..4]);
        // Edge busy runs (not flanked on both sides) are never bridged.
        let nop = [false, true, true, false];
        assert_eq!(SegmentSplitter::segments(nop, 2, 1), vec![0..1, 3..4]);
    }

    #[test]
    fn splitter_handles_degenerate_streams() {
        // Empty stream.
        assert!(run_splitter(&[], 3, 1).is_empty());
        // All NOP: every sample discarded, no segment.
        let ev = run_splitter(&[true; 10], 3, 1);
        assert_eq!(segments_of(&ev), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e, SplitEvent::Discard(_)))
                .count(),
            10
        );
        // All BUSY: one segment covering everything.
        let ev = run_splitter(&[false; 10], 3, 1);
        assert_eq!(segments_of(&ev), vec![0..10]);
    }
}
