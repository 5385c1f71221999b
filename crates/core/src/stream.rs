//! Streaming attack engine — bounded-latency extraction.
//!
//! The batch pipeline ([`crate::attack::Moscons::extract`]) needs the whole
//! CUPTI sample stream before it can emit a single label. This module turns
//! the same attack path into a stream processor: samples are pushed one at a
//! time (or in chunks, as a live [`crate::trace`] spy session drains them),
//! iteration gaps are detected incrementally with one sample of lookahead,
//! and the `Mlong`/`Mop` LSTMs run *stateful* chunked inference (carrying
//! `(h, c)` across chunks, see
//! [`ml::seq::SequenceClassifier::predict_proba_stream_chunks`]) so op
//! labels come out while the victim is still training. The `Mhp` heads read
//! one iteration only, the base of the voting group, so they run once, at
//! [`AttackStream::finish`].
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
//! 5. the back half (`Mhp` on the base iteration's rows, voting, OpSeq
//!    parse, syntax correction) is literally shared code:
//!    [`crate::attack::Moscons`]'s `assemble_extraction`.
//!
//! While streaming, the splitter holds back at most `th_gap - 1` undecided
//! NOPs, the gap detector one sample of lookahead, and each open segment at
//! most one classification chunk of unclassified rows
//! ([`DEFAULT_STREAM_CHUNK`], or the size given to
//! [`AttackStream::with_chunk_rows`]), so label latency is bounded by
//! `th_gap + chunk + 2` samples. Every segment's prepared rows and
//! `Mlong`/`Mop` labels are kept until [`AttackStream::finish`]: the base
//! segment is the first one that passes the median-length filter, and the
//! median is known only when the stream ends.

use std::collections::VecDeque;
use std::ops::Range;

use ml::{MinMaxScaler, StreamState};

use crate::attack::{Extraction, Moscons};
use crate::dataset::{filter_valid_iterations, lookahead_row};
use crate::gap::GapModel;
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
///
/// It is the only splitter: [`SegmentSplitter::segments`] runs it over a
/// whole flag sequence for the batch path, and the closed ranges are the
/// same for any chunking of the pushes.
///
/// A NOP run inside a segment is undecided until it either reaches `th_gap`
/// (close the segment *before* the run, discard the run) or a BUSY sample
/// claims it back into the segment, so up to `th_gap - 1` NOP decisions are
/// deferred.
#[derive(Debug, Clone)]
pub struct SegmentSplitter {
    th_gap: usize,
    /// Index the next pushed flag will get.
    next: usize,
    /// Start of the open segment, if any.
    seg_start: Option<usize>,
    /// One past the last BUSY sample of the open segment (provisional end).
    seg_end: usize,
    /// Current NOP run length.
    nop_run: usize,
    finished: bool,
}

impl SegmentSplitter {
    /// A fresh splitter with the given gap threshold (see
    /// [`crate::gap::GapConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if `th_gap == 0`.
    pub fn new(th_gap: usize) -> Self {
        assert!(th_gap > 0, "th_gap must be positive");
        SegmentSplitter {
            th_gap,
            next: 0,
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
    pub fn segments(flags: impl IntoIterator<Item = bool>, th_gap: usize) -> Vec<Range<usize>> {
        let mut splitter = SegmentSplitter::new(th_gap);
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

    /// Ends the stream: closes the open segment and discards trailing NOPs.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&mut self, out: &mut Vec<SplitEvent>) {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        if let Some(start) = self.seg_start.take() {
            // Trailing NOPs (a run shorter than th_gap) stay outside the
            // segment.
            out.push(SplitEvent::Close(start..self.seg_end));
            for j in self.seg_end..self.next {
                out.push(SplitEvent::Discard(j));
            }
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
        GapStream {
            gap,
            scaler,
            splitter: SegmentSplitter::new(gap.config().th_gap),
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
    /// `Mlong` label.
    pub long: LongClass,
    /// `Mop` label.
    pub op: OtherClass,
}

/// A fully classified segment, kept for the final assembly: its prepared
/// rows (the base segment's feed `Mhp`) and its `Mlong`/`Mop` labels.
#[derive(Debug)]
struct ClosedSegment {
    /// Trace range the segment covers.
    range: Range<usize>,
    /// Prepared (scaled + lookahead) rows, one per sample.
    rows: Vec<Vec<f32>>,
    /// Per-sample `Mlong` label indices.
    preds_long: Vec<usize>,
    /// Per-sample `Mop` label indices.
    preds_op: Vec<usize>,
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

/// Per-open-segment streaming state: the prepared rows, the `(h, c)`
/// carries of `Mlong` and `Mop`, and their labels.
#[derive(Debug)]
struct OpenSegment {
    /// Trace index of the segment's first sample.
    start: usize,
    /// Most recent assigned scaled row, awaiting its lookahead neighbour.
    last_scaled: Option<Vec<f32>>,
    /// Prepared (scaled + lookahead) rows; `rows[classified..]` await
    /// classification.
    rows: Vec<Vec<f32>>,
    /// Rows already classified (labels emitted).
    classified: usize,
    long_state: StreamState,
    op_state: StreamState,
    preds_long: Vec<usize>,
    preds_op: Vec<usize>,
}

impl OpenSegment {
    fn new(start: usize, moscons: &Moscons) -> Self {
        OpenSegment {
            start,
            last_scaled: None,
            rows: Vec::new(),
            classified: 0,
            long_state: moscons.long_model().classifier().stream_state(),
            op_state: moscons.op_model().classifier().stream_state(),
            preds_long: Vec::new(),
            preds_op: Vec::new(),
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
    /// remainder, filters the closed segments by length, and runs the
    /// shared batch assembly over the voting group, with `Mhp` on the base
    /// segment's rows. The returned extraction is bitwise identical to
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
        let n = moscons.config().voting_iterations.min(valid.len());
        // The valid ranges are an in-order subsequence of the closed
        // segments (segments are disjoint and increasing), so one forward
        // pass finds the voting group. Its first segment is the base.
        let mut closed = self.closed.into_iter();
        let mut preds_long = Vec::with_capacity(n);
        let mut preds_op = Vec::with_capacity(n);
        let mut base_rows = None;
        for r in valid.iter().take(n) {
            let Some(seg) = closed.find(|c| c.range == *r) else {
                debug_assert!(false, "every valid range is a closed segment");
                break;
            };
            preds_long.push(seg.preds_long);
            preds_op.push(seg.preds_op);
            base_rows.get_or_insert(seg.rows);
        }
        let Some(base_rows) = base_rows else {
            // No valid segment: nothing to assemble.
            return StreamOutcome {
                labels,
                extraction: Moscons::empty_extraction(valid),
            };
        };
        let extraction = moscons.assemble_extraction(valid, &preds_long, &preds_op, &base_rows);
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
                    let seg = self
                        .open
                        .get_or_insert_with(|| OpenSegment::new(*i, moscons));
                    if let Some(prev) = seg.last_scaled.take() {
                        // Prepared row j of the segment is scaled[j] ++
                        // scaled[j+1]: completing row j needs its successor.
                        seg.rows.push(lookahead_row(&prev, &row));
                    }
                    seg.last_scaled = Some(row);
                    if seg.rows.len() - seg.classified >= chunk_rows {
                        Self::classify_pending(moscons, seg, labels);
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
                    seg.rows.push(lookahead_row(&last, &last));
                    Self::classify_pending(moscons, &mut seg, labels);
                    debug_assert_eq!(
                        seg.preds_long.len(),
                        range.len(),
                        "one label per segment sample"
                    );
                    self.closed.push(ClosedSegment {
                        range: range.clone(),
                        rows: seg.rows,
                        preds_long: seg.preds_long,
                        preds_op: seg.preds_op,
                    });
                }
            }
        }
    }

    /// Runs `Mlong` and `Mop` over the segment's unclassified rows,
    /// advancing their `(h, c)` carries and emitting one label per row.
    fn classify_pending(moscons: &Moscons, seg: &mut OpenSegment, labels: &mut Vec<StreamLabel>) {
        let chunk = seg.rows.get(seg.classified..).unwrap_or_default();
        if chunk.is_empty() {
            return;
        }
        let n_rows = chunk.len();
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
        let first = seg.start + seg.classified;
        seg.classified += n_rows;
        // One prediction per row from both models — checked up front so a
        // short prediction batch drops the chunk's labels (degradation)
        // instead of mislabelling samples.
        if pl.len() != n_rows || po.len() != n_rows {
            debug_assert!(false, "one prediction per unclassified row");
            return;
        }
        for (k, (&long_cls, &op_cls)) in pl.iter().zip(po.iter()).enumerate() {
            labels.push(StreamLabel {
                sample: first + k,
                long: LongClass::from_index(long_cls),
                op: OtherClass::from_index(op_cls),
            });
        }
        seg.preds_long.extend_from_slice(&pl);
        seg.preds_op.extend_from_slice(&po);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The whole-sequence splitter, kept as the oracle for
    /// [`SegmentSplitter`]: close a segment before every run of `th_gap`
    /// NOPs and trim the leading and trailing NOPs.
    fn reference_segments(is_nop: &[bool], th_gap: usize) -> Vec<Range<usize>> {
        let mut segments = Vec::new();
        let mut seg_start: Option<usize> = None;
        let mut nop_run = 0usize;
        for (i, &nop) in is_nop.iter().enumerate() {
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
            let mut end = is_nop.len();
            // Trim trailing NOPs (a run shorter than th_gap may remain).
            while end > start && is_nop[end - 1] {
                end -= 1;
            }
            if end > start {
                segments.push(start..end);
            }
        }
        segments
    }

    fn run_splitter(flags: &[bool], th_gap: usize) -> Vec<SplitEvent> {
        let mut sp = SegmentSplitter::new(th_gap);
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
            let events = run_splitter(&flags, th_gap);
            let expect = reference_segments(&flags, th_gap);
            assert_eq!(
                segments_of(&events),
                expect,
                "case {case}: flags {flags:?} th_gap {th_gap}"
            );
            assert_eq!(
                SegmentSplitter::segments(flags.iter().copied(), th_gap),
                expect,
                "case {case}: segments() on flags {flags:?} th_gap {th_gap}"
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
            let events = run_splitter(&flags, rng.gen_range(1..=5));
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
        assert_eq!(SegmentSplitter::segments(nop, 3), vec![0..2, 5..9]);
        // Leading and trailing NOPs fall outside every segment.
        let nop = [true, true, false, false, true, true];
        assert_eq!(SegmentSplitter::segments(nop, 2), vec![2..4]);
        // All NOP: no segment.
        assert!(SegmentSplitter::segments([true; 10], 3).is_empty());
    }

    #[test]
    fn splitter_handles_degenerate_streams() {
        // Empty stream.
        assert!(run_splitter(&[], 3).is_empty());
        // All NOP: every sample discarded, no segment.
        let ev = run_splitter(&[true; 10], 3);
        assert_eq!(segments_of(&ev), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e, SplitEvent::Discard(_)))
                .count(),
            10
        );
        // All BUSY: one segment covering everything.
        let ev = run_splitter(&[false; 10], 3);
        assert_eq!(segments_of(&ev), vec![0..10]);
    }
}
