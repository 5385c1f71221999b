//! Content-addressed trace and feature memo.
//!
//! Collecting one profiling trace means simulating an entire training run —
//! tens of thousands of scheduler slices — yet the result is a pure function
//! of its inputs: the GPU configuration, the victim's model and training
//! loop, the spy/slow-down/sampling configuration and the CUPTI session
//! shape. This module memoizes [`crate::trace::collect_trace`] for the
//! lifetime of the process on a 64-bit key over exactly those inputs, and
//! memoizes the derived [`crate::dataset::counter_features`] matrices on the
//! content of the sample stream they came from.
//!
//! Because the simulator is deterministic, a hit is *bitwise* identical to
//! a fresh collection. Entries live only as long as the process, so none can
//! outlive the simulator and feature code that produced it. [`clear_memory`]
//! empties the memo for cold-start timings.
//!
//! Each lock guards one map `get`, `insert` or `clear`, and the entries are
//! immutable `Arc`s, so a map recovered from a poisoned lock is always
//! consistent: the memo keeps serving after a thread panicked while holding
//! it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dnn_sim::TrainingSession;
use gpu_sim::GpuConfig;
use serde::{Serialize, Value};

use crate::dataset::counter_features;
use crate::trace::{CollectionConfig, RawTrace};

// ---------------------------------------------------------------------------
// keys: FNV-1a over a canonical serialization
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64-bit hasher. FNV is not cryptographic; it is stable
/// across platforms and Rust versions (unlike `DefaultHasher`), which is what
/// a digest compared across machines and builds needs: `leaky_bench` hashes
/// every workload's outputs through it.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        KeyHasher {
            state: Self::OFFSET,
        }
    }

    /// Mixes raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Mixes a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `f64` by bit pattern (so `-0.0` and `0.0` differ, as do any
    /// two values the simulation could distinguish).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a serde value tree, canonically: every node is tagged so
    /// different shapes with equal leaves cannot collide.
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write_u64(0),
            Value::Bool(b) => {
                self.write_u64(1);
                self.write_u64(*b as u64);
            }
            Value::Number(n) => {
                self.write_u64(2);
                self.write_f64(*n);
            }
            Value::String(s) => {
                self.write_u64(3);
                self.write_str(s);
            }
            Value::Array(items) => {
                self.write_u64(4);
                self.write_u64(items.len() as u64);
                for item in items {
                    self.write_value(item);
                }
            }
            Value::Object(fields) => {
                self.write_u64(5);
                self.write_u64(fields.len() as u64);
                for (k, item) in fields {
                    self.write_str(k);
                    self.write_value(item);
                }
            }
        }
    }

    /// Mixes any serializable structure via its canonical value tree.
    pub fn write_serialize<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.write_value(&v.to_json_value());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

/// The content address of one collection run: every input that shapes the
/// resulting [`RawTrace`]. `gpu_config` must be the *effective* configuration
/// (after the collection seed is folded in, as `collect_trace` does).
pub fn trace_key(
    session: &TrainingSession,
    collection: &CollectionConfig,
    gpu_config: &GpuConfig,
    cupti_fingerprint: &str,
) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("leaky-dnn-trace");
    h.write_serialize(session.model());
    h.write_serialize(session.config());
    h.write_serialize(collection);
    h.write_serialize(gpu_config);
    h.write_str(cupti_fingerprint);
    // A value tree holds every number as an `f64`, which drops the low bits
    // of a seed at or above 2^53; mix the seeds exactly as well.
    h.write_u64(collection.seed);
    h.write_u64(gpu_config.seed);
    h.write_u64(gpu_config.faults.seed);
    h.finish()
}

// ---------------------------------------------------------------------------
// in-memory stores
// ---------------------------------------------------------------------------

fn trace_store() -> &'static Mutex<HashMap<u64, Arc<RawTrace>>> {
    static STORE: OnceLock<Mutex<HashMap<u64, Arc<RawTrace>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

type FeatureMatrix = Arc<Vec<Vec<f32>>>;

fn feature_store() -> &'static Mutex<HashMap<u64, FeatureMatrix>> {
    static STORE: OnceLock<Mutex<HashMap<u64, FeatureMatrix>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops every memoized trace and feature matrix (tests and long-lived
/// processes that want cold-start timings).
pub fn clear_memory() {
    trace_store()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    feature_store()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Returns the trace for `key`, collecting it with `collect` on a miss and
/// memoizing it for the rest of the process.
///
/// Concurrent misses on the same key may collect twice — the simulator is
/// deterministic, so both produce identical bytes and either may win the
/// insert.
pub fn trace_for(key: u64, collect: impl FnOnce() -> RawTrace) -> RawTrace {
    if let Some(hit) = trace_store()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned()
    {
        return (*hit).clone();
    }
    let trace = collect();
    trace_store()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, Arc::new(trace.clone()));
    trace
}

/// The feature matrix of a trace's sample stream ([`counter_features`] per
/// sample), memoized on the content of the samples. Two traces with
/// bitwise-equal sample streams (e.g. a cached and a fresh collection of the
/// same run) share one matrix.
pub fn counter_feature_matrix(raw: &RawTrace) -> FeatureMatrix {
    let mut h = KeyHasher::new();
    h.write_str("leaky-dnn-features");
    h.write_u64(raw.samples.len() as u64);
    for s in &raw.samples {
        h.write_f64(s.start_us);
        h.write_f64(s.end_us);
        for v in s.counters.as_array() {
            h.write_f64(v);
        }
    }
    let key = h.finish();
    if let Some(hit) = feature_store()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned()
    {
        return hit;
    }
    let matrix: FeatureMatrix = Arc::new(
        raw.samples
            .iter()
            .map(|s| counter_features(&s.to_features()))
            .collect(),
    );
    feature_store()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, Arc::clone(&matrix));
    matrix
}

/// Serializes the tests that clear or read the process-wide memo, so a
/// [`clear_memory`] on one test thread cannot land between another test's
/// lookups. A test that panics while holding it does not poison it for the
/// others.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::collect_trace;
    use dnn_sim::{TrainingConfig, TrainingSession};

    fn tiny_session() -> TrainingSession {
        TrainingSession::new(crate::trace::tests::tiny_model(), TrainingConfig::new(4, 2))
    }

    fn tiny_trace() -> RawTrace {
        let cfg = CollectionConfig {
            slowdown: crate::slowdown::SlowdownConfig { kernels: 2 },
            ..CollectionConfig::paper()
        };
        collect_trace(&tiny_session(), &cfg, &GpuConfig::gtx_1080_ti())
    }

    fn assert_traces_bitwise_equal(a: &RawTrace, b: &RawTrace) {
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
            for (u, v) in x.counters.as_array().iter().zip(y.counters.as_array()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        assert_eq!(a.victim_log, b.victim_log);
        assert_eq!(a.collection, b.collection);
        assert_eq!(a.mean_iteration_us.to_bits(), b.mean_iteration_us.to_bits());
    }

    #[test]
    fn memo_hit_never_runs_the_collector() {
        let _memo = test_lock();
        let trace = tiny_trace();
        let key = trace_key(
            &tiny_session(),
            &CollectionConfig::paper(),
            &GpuConfig::gtx_1080_ti(),
            "memo-hit-test",
        );
        let miss = trace_for(key, || trace.clone());
        let hit = trace_for(key, || panic!("a hit must not collect"));
        assert_traces_bitwise_equal(&miss, &trace);
        assert_traces_bitwise_equal(&hit, &miss);
    }

    #[test]
    fn memo_survives_a_poisoned_lock() {
        let _memo = test_lock();
        // A thread that panics while holding the store's guard poisons it.
        let poisoner = std::panic::catch_unwind(|| {
            let _guard = trace_store().lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning the trace memo");
        });
        assert!(poisoner.is_err());
        assert!(trace_store().is_poisoned());

        let trace = tiny_trace();
        let key = trace_key(
            &tiny_session(),
            &CollectionConfig::paper(),
            &GpuConfig::gtx_1080_ti(),
            "poisoned-memo-test",
        );
        let miss = trace_for(key, || trace.clone());
        let hit = trace_for(key, || panic!("a hit must not collect"));
        assert_traces_bitwise_equal(&miss, &trace);
        assert_traces_bitwise_equal(&hit, &trace);
        clear_memory();
    }

    #[test]
    fn key_changes_with_every_component() {
        let session = tiny_session();
        let collection = CollectionConfig::paper();
        let gpu = GpuConfig::gtx_1080_ti();
        let fp = "cupti-v1";
        let base = trace_key(&session, &collection, &gpu, fp);
        assert_eq!(
            base,
            trace_key(&session, &collection, &gpu, fp),
            "key must be stable"
        );

        let other_seed = collection.with_seed(collection.seed ^ 1);
        assert_ne!(base, trace_key(&session, &other_seed, &gpu, fp));

        // Seeds above 2^53 that differ only below an f64's mantissa.
        let (big, next) = (1u64 << 60, (1u64 << 60) + 1);
        let key = |c: &CollectionConfig, g: &GpuConfig| trace_key(&session, c, g, fp);
        let with_fault_seed = |seed| gpu.clone().with_faults(gpu.faults.with_seed(seed));
        assert_ne!(
            key(&collection.with_seed(big), &gpu),
            key(&collection.with_seed(next), &gpu)
        );
        assert_ne!(
            key(&collection, &gpu.clone().with_seed(big)),
            key(&collection, &gpu.clone().with_seed(next))
        );
        assert_ne!(
            key(&collection, &with_fault_seed(big)),
            key(&collection, &with_fault_seed(next))
        );

        let other_spy = CollectionConfig {
            spy_kernel: crate::spy::SpyKernelKind::MatMul,
            ..collection
        };
        assert_ne!(base, trace_key(&session, &other_spy, &gpu, fp));

        let mut other_gpu = gpu.clone();
        other_gpu.time_slice_us *= 2.0;
        assert_ne!(base, trace_key(&session, &collection, &other_gpu, fp));

        let other_model = TrainingSession::new(
            dnn_sim::zoo::tested_mlp(),
            dnn_sim::TrainingConfig::new(4, 2),
        );
        assert_ne!(base, trace_key(&other_model, &collection, &gpu, fp));

        let mut other_batch_cfg = session.config().clone();
        other_batch_cfg.batch += 1;
        let other_batch = TrainingSession::new(session.model().clone(), other_batch_cfg);
        assert_ne!(base, trace_key(&other_batch, &collection, &gpu, fp));

        assert_ne!(base, trace_key(&session, &collection, &gpu, "cupti-v2"));
    }

    #[test]
    fn feature_matrix_matches_direct_computation_and_is_shared() {
        let _memo = test_lock();
        let trace = tiny_trace();
        let direct: Vec<Vec<f32>> = trace
            .samples
            .iter()
            .map(|s| counter_features(&s.to_features()))
            .collect();
        let cached = counter_feature_matrix(&trace);
        assert_eq!(*cached, direct);
        // A bitwise-equal trace (e.g. a fresh collection of the same run)
        // shares the same matrix allocation.
        let again = counter_feature_matrix(&trace.clone());
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn fnv_vectors() {
        // Reference FNV-1a 64 digests, so the benchmark's output digests
        // stay comparable across builds.
        let digest = |s: &str| {
            let mut h = KeyHasher::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }
}
