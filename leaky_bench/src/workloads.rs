//! The four workloads: the inputs each generates from the seed, the one
//! library call it times per op, and the checks on that call's outputs.
//!
//! Every op runs the program as users run it: the default `ml::par` pool,
//! the default in-memory trace cache, no thread pinning. Load is a closed
//! loop with one caller; simulated time is decoupled from host time, so
//! there is no arrival schedule to keep.

use std::sync::Arc;
use std::time::Instant;

use dnn_sim::{zoo, InputSpec, Layer, Model, OpClass, TrainingConfig, TrainingSession};
use moscons::cache::{counter_feature_matrix, KeyHasher};
use moscons::report::overall_op_accuracy;
use moscons::{
    random_profiling_models, random_zoo_profiling_models, run_fleet, score_structure, AttackConfig,
    AttackReport, AttackStream, Extraction, FleetConfig, LabeledTrace, Moscons, OpVocab, RawTrace,
    SessionSpec,
};

use crate::procfs::{Probe, Usage};
use crate::replica::{self, FleetRun, Models};
use crate::spans::Tracer;

pub const NAMES: [&str; 4] = ["profile", "attack", "rescore", "fleet"];

/// Quick-scale shapes (64x64 images; batch 8 for CNNs, 32 for MLPs).
const IMAGE: usize = 64;
const PROFILING_ITERATIONS: usize = 6;
/// Long enough victim runs that simulation dominates an `attack` op.
const ATTACK_ITERATIONS: usize = 64;
const RESCORE_ITERATIONS: usize = 6;
const FLEET_ITERATIONS: usize = 12;
const ZOO_PROFILING_MODELS: usize = 3;

// Model shapes come from fixed pools and the seed draws every collection
// seed, i.e. everything the spy observes. Seed-drawn shapes would make the
// workload itself a random variable: drawn victims moved `attack`'s median
// op time by 23% (quartile spread over ten seeds), and one seed's draw
// held 250x more samples than another's.
/// The `pipeline_perf` profiling set.
const PROFILING_MODELS_SEED: u64 = 7;
const ZOO_PROFILING_MODELS_SEED: u64 = 19;
/// Four drawn victims of moderate size (700-1300 samples per 6 quick
/// iterations, like the Table IX models), two CNNs and two MLPs.
const VICTIM_POOL_SEED: u64 = 27;

// Independent streams of seed-derived values.
const COLLECTION: u64 = 2;
const ATTACKER: u64 = 3;
const CHECKS: u64 = 4;

/// SplitMix64 over `(seed, stream, i)`: a distinct, reproducible value per op.
pub fn mix(seed: u64, stream: u64, i: usize) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn input() -> InputSpec {
    InputSpec::Image {
        height: IMAGE,
        width: IMAGE,
        channels: 3,
    }
}

fn session(
    model: Model,
    config: fn(usize, usize) -> TrainingConfig,
    iterations: usize,
) -> TrainingSession {
    let model = model.with_input(input());
    let mlp = model
        .layers
        .iter()
        .all(|l| matches!(l, Layer::Dense { .. }));
    TrainingSession::new(model, config(if mlp { 32 } else { 8 }, iterations))
}

fn training(model: Model, iterations: usize) -> TrainingSession {
    session(model, TrainingConfig::new, iterations)
}

/// The `pipeline_perf` smoke budget: the point is relative stage cost, not
/// accuracy.
fn attack_config(seed: u64, vocab: OpVocab) -> AttackConfig {
    let mut config = AttackConfig {
        vocab,
        ..AttackConfig::default()
    };
    config.op_lstm.epochs = 6;
    config.op_lstm.hidden = 32;
    config.voting_lstm.epochs = 6;
    config.hp_lstm.epochs = 4;
    config.voting_iterations = 3;
    config.collection = config.collection.with_seed(seed);
    config
}

fn profiling_sessions() -> Vec<TrainingSession> {
    random_profiling_models(4, input(), PROFILING_MODELS_SEED)
        .into_iter()
        .map(|m| training(m, PROFILING_ITERATIONS))
        .collect()
}

fn table_ix() -> Vec<Model> {
    vec![zoo::tested_mlp(), zoo::zfnet(), zoo::vgg16()]
}

/// The Table IX victims, then four drawn ones. Seven victims, an odd
/// count: an op-time distribution cycling over an even number of victims
/// puts its median on the boundary between two victims' clusters, where it
/// flips with the op count.
fn victim_pool() -> Vec<Model> {
    let mut pool = table_ix();
    pool.extend(random_profiling_models(4, input(), VICTIM_POOL_SEED));
    pool
}

/// The Classic-vocabulary attacker every non-`profile` workload serves.
fn classic_attacker(seed: u64) -> Moscons {
    Moscons::profile(
        &profiling_sessions(),
        attack_config(mix(seed, ATTACKER, 0), OpVocab::Classic),
    )
}

/// One op's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpResult {
    /// Host wall time of the timed call.
    pub ms: f64,
    /// CUPTI samples the op processed.
    pub samples: u64,
    /// Digest of the op's outputs.
    pub fingerprint: u64,
    /// The op returned an extraction with no valid iteration.
    pub failed: bool,
}

/// Accuracy of one op against ground truth, means over its extractions.
#[derive(Debug, Clone, Copy)]
pub struct Score {
    pub op: f64,
    pub layer: f64,
    pub hp: f64,
}

/// What the measured phase learns besides timings.
#[derive(Debug, Default)]
pub struct Tally {
    pub scores: Vec<Score>,
    /// Streamed-label latencies, in samples.
    pub latencies: Vec<usize>,
    pub errors: Vec<String>,
    pub usage: Usage,
}

impl Tally {
    /// Times `f` on the host clock, accumulating process counters over the
    /// same span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (f64, R) {
        let before = Probe::read();
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some(b), Some(a)) = (before, Probe::read()) {
            self.usage.add(&b, &a);
        }
        (ms, out)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

pub trait Workload {
    /// Op `i` through the library's public entry point; only that call is
    /// timed. `score` asks for the op's accuracy in `tally`.
    fn op(&mut self, i: usize, score: bool, tally: &mut Tally) -> OpResult;
    /// Op `i` through the replicated decomposition of [`replica`], under a
    /// `bench.op` root span. Its fingerprint must equal [`Workload::op`]'s.
    fn traced_op(&mut self, i: usize, t: &Tracer) -> OpResult;
    /// Checks that need the whole measured phase.
    fn finish(&mut self, _tally: &mut Tally) {}
}

pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    // Spawn the pool's workers before anything is timed per op.
    ml::par::par_map(&[(); 64], |_, _| ());
    Some(match name {
        "profile" => Box::new(Profile::setup(seed)),
        "attack" => Box::new(Attack::setup(seed)),
        "rescore" => Box::new(Rescore::setup(seed)),
        "fleet" => Box::new(Fleet::setup(seed)),
        _ => return None,
    })
}

fn hash_raw(h: &mut KeyHasher, raw: &RawTrace) {
    h.write_u64(raw.samples.len() as u64);
    for s in &raw.samples {
        h.write_f64(s.start_us);
        h.write_f64(s.end_us);
        for v in s.counters.as_array() {
            h.write_f64(v);
        }
    }
    h.write_serialize(&raw.victim_log);
}

/// Op accuracy of an extraction against its ground-truth-labeled trace: the
/// ground-truth iteration aligned with the base iteration when one aligns,
/// otherwise the best-scoring one (the Table VII scoring of the bench
/// harness, copied so this benchmark owns it).
fn op_accuracy(e: &Extraction, labeled: &LabeledTrace, th_gap: usize) -> Option<f64> {
    let gt_iters = labeled.split_iterations_ground_truth(th_gap);
    let base = e.iterations.first()?;
    let score = |g: &std::ops::Range<usize>| {
        let truth: Vec<OpClass> = labeled.samples[g.clone()].iter().map(|s| s.class).collect();
        let n = truth.len().min(e.fused_classes.len());
        overall_op_accuracy(&e.fused_classes[..n], &truth[..n])
    };
    match gt_iters.iter().find(|g| g.start.abs_diff(base.start) < 12) {
        Some(g) => Some(score(g)),
        None => gt_iters.iter().map(score).reduce(f64::max),
    }
}

fn score(scores: &[(&Extraction, &Model, &LabeledTrace)], th_gap: usize) -> Score {
    let n = scores.len().max(1) as f64;
    let mut total = Score {
        op: 0.0,
        layer: 0.0,
        hp: 0.0,
    };
    for (e, model, labeled) in scores {
        let s = score_structure(model, &e.layers, e.optimizer);
        total.op += op_accuracy(e, labeled, th_gap).unwrap_or(0.0) / n;
        total.layer += s.layers / n;
        total.hp += s.hyper_params / n;
    }
    total
}

/// The streaming path must reproduce the batch extraction bitwise.
fn stream_matches(moscons: &Moscons, features: &[Vec<f32>], batch: &AttackReport) -> bool {
    let mut stream = AttackStream::new(moscons);
    for row in features {
        stream.push(row);
    }
    stream.finish().extraction.report() == *batch
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

/// A victim trace collected once, to score attackers on.
struct Check {
    model: Model,
    features: Arc<Vec<Vec<f32>>>,
    labeled: LabeledTrace,
}

/// `Moscons::profile` on the same four profiling models, with a fresh
/// collection seed per op, so every op misses the trace cache. Each trained
/// attacker is then scored, untimed, on the Table IX victims.
struct Profile {
    seed: u64,
    sessions: Vec<TrainingSession>,
    checks: Vec<Check>,
}

impl Profile {
    fn setup(seed: u64) -> Self {
        let config = attack_config(0, OpVocab::Classic);
        let checks = table_ix()
            .into_iter()
            .enumerate()
            .map(|(k, model)| {
                let victim = training(model.clone(), PROFILING_ITERATIONS);
                let raw = moscons::collect_trace(
                    &victim,
                    &config.collection.with_seed(mix(seed, CHECKS, k)),
                    &config.gpu,
                );
                Check {
                    model: victim.model().clone(),
                    features: counter_feature_matrix(&raw),
                    labeled: LabeledTrace::from_raw(&raw, model.name),
                }
            })
            .collect();
        moscons::cache::clear_memory();
        Profile {
            seed,
            sessions: profiling_sessions(),
            checks,
        }
    }

    fn config(&self, i: usize) -> AttackConfig {
        attack_config(mix(self.seed, COLLECTION, i), OpVocab::Classic)
    }

    /// The attacker's extractions on the check victims: their fingerprint,
    /// and whether any found no valid iteration.
    fn evaluate(
        &self,
        extract: impl Fn(&[Vec<f32>]) -> Extraction,
    ) -> (Vec<Extraction>, u64, bool) {
        let extractions: Vec<Extraction> =
            self.checks.iter().map(|c| extract(&c.features)).collect();
        let mut h = KeyHasher::new();
        for e in &extractions {
            h.write_serialize(&e.report());
        }
        let failed = extractions.iter().any(|e| e.iterations.is_empty());
        (extractions, h.finish(), failed)
    }
}

impl Workload for Profile {
    fn op(&mut self, i: usize, score_it: bool, tally: &mut Tally) -> OpResult {
        let config = self.config(i);
        let (ms, moscons) = tally.time(|| Moscons::profile(&self.sessions, config.clone()));
        // Still cached: count what was profiled before dropping it.
        let samples = self
            .sessions
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let collection = config
                    .collection
                    .with_seed(config.collection.seed ^ (k as u64 * 7919));
                moscons::collect_trace(s, &collection, &config.gpu)
                    .samples
                    .len() as u64
            })
            .sum();
        moscons::cache::clear_memory();
        let (extractions, fingerprint, failed) = self.evaluate(|f| moscons.extract(f));
        if i == 0 {
            tally.check(
                stream_matches(&moscons, &self.checks[0].features, &extractions[0].report()),
                || "profile op 0: streamed extraction differs from batch".to_string(),
            );
        }
        if score_it {
            let scored: Vec<_> = extractions
                .iter()
                .zip(&self.checks)
                .map(|(e, c)| (e, &c.model, &c.labeled))
                .collect();
            tally.scores.push(score(&scored, config.gap.th_gap));
        }
        OpResult {
            ms,
            samples,
            fingerprint,
            failed,
        }
    }

    fn traced_op(&mut self, i: usize, t: &Tracer) -> OpResult {
        let config = self.config(i);
        let start = Instant::now();
        let profiled = t.span("bench.op", || replica::profile(&self.sessions, &config, t));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        moscons::cache::clear_memory();
        // Sub-models must predict as the library's do: checked through the
        // replicated extraction on the same victims.
        let models = profiled.models();
        let (_, fingerprint, failed) =
            self.evaluate(|f| replica::extract(&models, f, &Tracer::off()));
        OpResult {
            ms,
            samples: 0,
            fingerprint,
            failed,
        }
    }
}

// ---------------------------------------------------------------------------
// attack
// ---------------------------------------------------------------------------

/// `Moscons::attack_on` on a fresh (victim, seed) per op, cycling over the
/// victim pool with a new collection seed every time. The cache is cleared
/// after each op, outside the timed span, so every op simulates and
/// exercises the cache's miss-and-insert path.
struct Attack {
    seed: u64,
    moscons: Moscons,
    pool: Vec<Model>,
}

impl Attack {
    fn setup(seed: u64) -> Self {
        Attack {
            seed,
            moscons: classic_attacker(seed),
            pool: victim_pool(),
        }
    }

    fn victim(&self, i: usize) -> (TrainingSession, u64) {
        let model = self.pool[i % self.pool.len()].clone();
        (
            training(model, ATTACK_ITERATIONS),
            mix(self.seed, COLLECTION, i),
        )
    }

    fn fingerprint(e: &Extraction, raw: &RawTrace) -> u64 {
        let mut h = KeyHasher::new();
        h.write_serialize(&e.report());
        hash_raw(&mut h, raw);
        h.finish()
    }
}

impl Workload for Attack {
    fn op(&mut self, i: usize, score_it: bool, tally: &mut Tally) -> OpResult {
        let (victim, seed) = self.victim(i);
        let gpu = &self.moscons.config().gpu;
        let (ms, (e, raw)) = tally.time(|| self.moscons.attack_on(&victim, seed, gpu));
        let fingerprint = Self::fingerprint(&e, &raw);
        if i == 0 {
            let (hit, hit_raw) = self.moscons.attack_on(&victim, seed, gpu);
            tally.check(Self::fingerprint(&hit, &hit_raw) == fingerprint, || {
                "attack op 0: cache hit differs from the miss that filled it".to_string()
            });
            tally.check(
                stream_matches(&self.moscons, &counter_feature_matrix(&raw), &e.report()),
                || "attack op 0: streamed extraction differs from batch".to_string(),
            );
        }
        moscons::cache::clear_memory();
        if score_it {
            let labeled = LabeledTrace::from_raw(&raw, victim.model().name.clone());
            let th_gap = self.moscons.config().gap.th_gap;
            tally
                .scores
                .push(score(&[(&e, victim.model(), &labeled)], th_gap));
        }
        OpResult {
            ms,
            samples: raw.samples.len() as u64,
            fingerprint,
            failed: e.iterations.is_empty(),
        }
    }

    fn traced_op(&mut self, i: usize, t: &Tracer) -> OpResult {
        let (victim, seed) = self.victim(i);
        let config = self.moscons.config();
        let models = Models::of(&self.moscons);
        let start = Instant::now();
        let (e, raw) = t.span("bench.op", || {
            let raw = replica::collect(&victim, &config.collection.with_seed(seed), &config.gpu, t);
            let features = t.span("moscons.cache.features", || counter_feature_matrix(&raw));
            (replica::extract(&models, &features, t), raw)
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        moscons::cache::clear_memory();
        OpResult {
            ms,
            samples: raw.samples.len() as u64,
            fingerprint: Self::fingerprint(&e, &raw),
            failed: e.iterations.is_empty(),
        }
    }
}

// ---------------------------------------------------------------------------
// rescore
// ---------------------------------------------------------------------------

struct Entry {
    victim: TrainingSession,
    seed: u64,
    zoo: bool,
    labeled: LabeledTrace,
    /// Fingerprint of the miss that filled the cache in setup.
    expected: u64,
}

/// `Moscons::attack_on` over a corpus collected in setup, so every op hits
/// the warm trace cache: the simulator is bypassed and extraction is the
/// op. The corpus mixes six pool victims under the Classic vocabulary with
/// the five zoo families under the Zoo one.
struct Rescore {
    classic: Moscons,
    zoo: Moscons,
    corpus: Vec<Entry>,
}

impl Rescore {
    fn setup(seed: u64) -> Self {
        let classic = classic_attacker(seed);
        let zoo_sessions: Vec<TrainingSession> =
            random_zoo_profiling_models(ZOO_PROFILING_MODELS, input(), ZOO_PROFILING_MODELS_SEED)
                .into_iter()
                .map(|m| training(m, PROFILING_ITERATIONS))
                .collect();
        let zoo = Moscons::profile(
            &zoo_sessions,
            attack_config(mix(seed, ATTACKER, 1), OpVocab::Zoo),
        );
        // Eleven entries, an odd count (see `victim_pool`).
        let mut victims: Vec<(TrainingSession, bool)> = victim_pool()
            .into_iter()
            .take(6)
            .map(|m| (training(m, RESCORE_ITERATIONS), false))
            .collect();
        victims.extend(zoo::FAMILIES.iter().map(|family| {
            let model = zoo::family_model(family).expect("a zoo family");
            let config = if *family == "inference" {
                TrainingConfig::inference
            } else {
                TrainingConfig::new
            };
            (session(model, config, RESCORE_ITERATIONS), true)
        }));
        let mut rescore = Rescore {
            classic,
            zoo,
            corpus: Vec::new(),
        };
        for (k, (victim, zoo)) in victims.into_iter().enumerate() {
            let seed = mix(seed, COLLECTION, k);
            let attacker = if zoo { &rescore.zoo } else { &rescore.classic };
            let (e, raw) = attacker.attack_on(&victim, seed, &attacker.config().gpu);
            let entry = Entry {
                expected: Attack::fingerprint(&e, &raw),
                labeled: LabeledTrace::from_raw(&raw, victim.model().name.clone()),
                victim,
                seed,
                zoo,
            };
            rescore.corpus.push(entry);
        }
        rescore
    }

    fn attacker(&self, entry: &Entry) -> &Moscons {
        if entry.zoo {
            &self.zoo
        } else {
            &self.classic
        }
    }
}

impl Workload for Rescore {
    fn op(&mut self, i: usize, score_it: bool, tally: &mut Tally) -> OpResult {
        let entry = &self.corpus[i % self.corpus.len()];
        let attacker = self.attacker(entry);
        let gpu = &attacker.config().gpu;
        let (ms, (e, raw)) = tally.time(|| attacker.attack_on(&entry.victim, entry.seed, gpu));
        let fingerprint = Attack::fingerprint(&e, &raw);
        tally.check(fingerprint == entry.expected, || {
            format!("rescore op {i}: cache hit differs from the setup miss")
        });
        if score_it {
            let th_gap = attacker.config().gap.th_gap;
            tally
                .scores
                .push(score(&[(&e, entry.victim.model(), &entry.labeled)], th_gap));
        }
        OpResult {
            ms,
            samples: raw.samples.len() as u64,
            fingerprint,
            failed: e.iterations.is_empty(),
        }
    }

    fn traced_op(&mut self, i: usize, t: &Tracer) -> OpResult {
        let entry = &self.corpus[i % self.corpus.len()];
        let attacker = self.attacker(entry);
        let config = attacker.config();
        let models = Models::of(attacker);
        let start = Instant::now();
        let (e, raw) = t.span("bench.op", || {
            let collection = config.collection.with_seed(entry.seed);
            let raw = replica::collect(&entry.victim, &collection, &config.gpu, t);
            let features = t.span("moscons.cache.features", || counter_feature_matrix(&raw));
            (replica::extract(&models, &features, t), raw)
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        OpResult {
            ms,
            samples: raw.samples.len() as u64,
            fingerprint: Attack::fingerprint(&e, &raw),
            failed: e.iterations.is_empty(),
        }
    }
}

// ---------------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------------

/// `run_fleet` (f32, `Stall`, default `FleetConfig`) over the first four
/// pool victims, with fresh collection seeds per op: per-row streaming
/// inference interleaved with spy polls and round dispatch over the pool.
struct Fleet {
    seed: u64,
    moscons: Moscons,
    victims: Vec<Model>,
    /// The latest op's sessions, checked against the batch attack at the end.
    last: Option<(usize, Vec<SessionSpec>, Vec<AttackReport>)>,
}

impl Fleet {
    fn setup(seed: u64) -> Self {
        Fleet {
            seed,
            moscons: classic_attacker(seed),
            victims: victim_pool().into_iter().take(4).collect(),
            last: None,
        }
    }

    fn specs(&self, i: usize) -> Vec<SessionSpec> {
        let n = self.victims.len();
        self.victims
            .iter()
            .enumerate()
            .map(|(k, m)| SessionSpec {
                victim: training(m.clone(), FLEET_ITERATIONS),
                seed: mix(self.seed, COLLECTION, i * n + k),
                gpu: self.moscons.config().gpu.clone(),
            })
            .collect()
    }

    fn fingerprint(run: &FleetRun) -> u64 {
        let mut h = KeyHasher::new();
        for (report, latencies) in run.reports.iter().zip(&run.latencies) {
            h.write_serialize(report);
            h.write_u64(latencies.len() as u64);
            for &l in latencies {
                h.write_u64(l as u64);
            }
        }
        h.write_u64(run.rounds as u64);
        h.finish()
    }

    /// Every session's streamed extraction must equal the batch attack on
    /// the same victim and seed. Returns the ground-truth scores.
    fn check_batch(
        &self,
        op: usize,
        specs: &[SessionSpec],
        reports: &[AttackReport],
        tally: &mut Tally,
    ) -> Score {
        let mut extractions = Vec::new();
        for (k, (spec, report)) in specs.iter().zip(reports).enumerate() {
            let (e, raw) = self.moscons.attack_on(&spec.victim, spec.seed, &spec.gpu);
            tally.check(e.report() == *report, || {
                format!("fleet op {op} session {k}: streamed extraction differs from attack_on")
            });
            let labeled = LabeledTrace::from_raw(&raw, spec.victim.model().name.clone());
            extractions.push((e, labeled));
        }
        moscons::cache::clear_memory();
        let scored: Vec<_> = extractions
            .iter()
            .zip(specs)
            .map(|((e, labeled), spec)| (e, spec.victim.model(), labeled))
            .collect();
        score(&scored, self.moscons.config().gap.th_gap)
    }
}

impl Workload for Fleet {
    fn op(&mut self, i: usize, score_it: bool, tally: &mut Tally) -> OpResult {
        let specs = self.specs(i);
        let config = FleetConfig::default();
        let (ms, outcome) = tally.time(|| run_fleet(&self.moscons, &specs, &config));
        let run = FleetRun::of(&outcome);
        // Ground truth needs the traces, so only the first op is scored.
        if i == 0 {
            let s = self.check_batch(0, &specs, &run.reports, tally);
            if score_it {
                tally.scores.push(s);
            }
        }
        if score_it {
            tally.latencies.extend(run.latencies.iter().flatten());
        }
        let result = OpResult {
            ms,
            samples: outcome
                .sessions
                .iter()
                .map(|s| s.samples_streamed as u64)
                .sum(),
            fingerprint: Self::fingerprint(&run),
            failed: run.reports.iter().any(|r| r.iterations.is_empty()),
        };
        self.last = Some((i, specs, run.reports));
        result
    }

    fn traced_op(&mut self, i: usize, t: &Tracer) -> OpResult {
        let specs = self.specs(i);
        let config = FleetConfig::default();
        let start = Instant::now();
        let run = t.span("bench.op", || {
            replica::fleet(&self.moscons, &specs, &config, t)
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        OpResult {
            ms,
            samples: 0,
            fingerprint: Self::fingerprint(&run),
            failed: run.reports.iter().any(|r| r.iterations.is_empty()),
        }
    }

    fn finish(&mut self, tally: &mut Tally) {
        if let Some((i, specs, reports)) = self.last.take() {
            self.check_batch(i, &specs, &reports, tally);
        }
    }
}
