//! In-memory span and counter recorder for the traced run.
//!
//! A span is `{name, start, end, parent, op, thread}`. Spans opened on one
//! thread nest through a thread-local stack; work handed to `ml::par` pool
//! workers re-enters its caller's span with [`Tracer::within`], so spans on
//! workers attribute to the span that dispatched them. Spans are kept in
//! memory and written out once, when the run ends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub op: usize,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work counted at layer boundaries, alongside the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    GpuEvents,
    /// Simulated GPU time advanced, nanoseconds.
    SimNs,
    CuptiSlices,
    CuptiSamples,
    CacheHits,
    CacheMisses,
    GapTrainRows,
    TrainSequences,
    PredictRows,
    GapIterations,
    SyntaxEdits,
    StreamRows,
    StreamLabels,
    FleetRounds,
    /// A high-water mark: recorded with [`Tracer::max`], not summed.
    QueueHighWater,
}

const COUNTS: usize = Count::QueueHighWater as usize + 1;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Pops the thread's span stack when dropped, so a panicking op cannot leave
/// a stale parent behind.
struct Pop;

impl Drop for Pop {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
    }
}

fn push(id: u64) -> Pop {
    STACK.with(|s| s.borrow_mut().push(id));
    Pop
}

/// Records spans and counters; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    op: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    counts: [AtomicU64; COUNTS],
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            op: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Tags every span opened from now on with op `op`.
    pub fn begin_op(&self, op: usize) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` as if inside span `parent` (for closures run on pool
    /// workers, whose own span stack is empty).
    pub fn within<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        match parent {
            Some(id) if self.enabled => {
                let _pop = push(id);
                f()
            }
            _ => f(),
        }
    }

    /// Runs a pool fan-out inside an `ml.par.dispatch` span, passing the
    /// span's id for the workers to re-enter with [`Tracer::within`]. Its
    /// self time is what no task covers: dispatch, wake-up and hand-off.
    pub fn fan_out<R>(&self, f: impl FnOnce(Option<u64>) -> R) -> R {
        self.span("ml.par.dispatch", || f(self.current()))
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span
    /// on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        let start_ns = self.now_ns();
        let out = {
            let _pop = push(id);
            f()
        };
        let end_ns = self.now_ns();
        let span = Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            op: self.op.load(Ordering::Relaxed),
            thread: THREAD.with(|t| *t),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    pub fn add(&self, count: Count, n: u64) {
        if self.enabled {
            self.counts[count as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn max(&self, count: Count, n: u64) {
        if self.enabled {
            self.counts[count as usize].fetch_max(n, Ordering::Relaxed);
        }
    }

    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize].load(Ordering::Relaxed)
    }

    /// Every closed span so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (children may overlap when they ran on different workers).
/// Returned in the order of `spans`; negative only if a child escapes its
/// parent, which [`check_nesting`] reports.
pub fn self_times_ns(spans: &[Span]) -> Vec<i128> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            i128::from(s.duration_ns()) - i128::from(covered)
        })
        .collect()
}

/// Checks that every child lies within its parent's interval and op, and
/// that every parent was recorded.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!(
                "span {} ({}) has unknown parent {pid}",
                s.id, s.name
            ));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op {
            return Err(format!(
                "span {} ({}) escapes its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Renders spans in Chrome trace-event format (complete `X` events, times
/// in microseconds), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            parent,
            s.op,
        )
        .expect("write to string");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
