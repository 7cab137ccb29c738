//! One pass of a workload's lifecycle, in rounds spread over the run:
//! set up, run the fixed refinement schedule, then crash an iteration
//! and resume; the last round serves open-loop traffic from its engine
//! before it crashes.
//! The system is driven only through its public API; every call into
//! a layer is timed from outside it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use knn_core::{EngineConfig, EngineError, IterationReport, KnnEngine, ScrubReport};
use knn_graph::{KnnGraph, UserId};
use knn_serve::{RefineHandle, ShardedRefineHandle};
use knn_shard::{ExchangeStats, HashRing, ShardRouter, ShardedEngine};
use knn_sim::{ItemId, Measure, ProfileStore, Similarity};
use knn_store::{
    DiskBackend, FaultBackend, FaultKind, FaultPlan, IoSnapshot, MemBackend, StorageBackend,
};

use crate::load::{self, Front, LoadOutcome};
use crate::spec::{Spec, Storage};
use crate::timing::{TimingBackend, TimingSnapshot, TimingStats};
use crate::trace::Tracer;
use crate::util::{median, ms, peak_rss_mb, Rng};

/// Users whose exact top-K is computed for the recall metric.
const RECALL_SAMPLE: usize = 2000;
/// Crashes injected (and resumes timed) per round.
const CRASHES: u64 = 2;
/// Rounds every pass runs, however short `--seconds`: enough for the
/// medians and for the cross-round digest check.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` the serve window takes; the rounds take the rest.
const SERVE_SHARE: f64 = 0.15;
/// Candidate pairs the kernel probe scores.
const KERNEL_PAIRS: usize = 16_000;

/// Either engine shape, driven through its public API.
enum Engine {
    Single(KnnEngine),
    Sharded(ShardedEngine),
}

impl Engine {
    fn run_iteration(&mut self) -> Result<(IterationReport, ExchangeStats), EngineError> {
        match self {
            Engine::Single(e) => Ok((e.run_iteration()?, ExchangeStats::default())),
            Engine::Sharded(e) => {
                let r = e.run_iteration()?;
                Ok((r.report, r.exchange))
            }
        }
    }

    fn graph(&self) -> &KnnGraph {
        match self {
            Engine::Single(e) => e.graph(),
            Engine::Sharded(e) => e.graph(),
        }
    }

    fn io(&self) -> IoSnapshot {
        match self {
            Engine::Single(e) => e.io_snapshot(),
            Engine::Sharded(e) => e.io_snapshot(),
        }
    }

    fn iteration(&self) -> u64 {
        match self {
            Engine::Single(e) => e.iteration(),
            Engine::Sharded(e) => e.iteration(),
        }
    }

    fn verify(&self) -> Result<ScrubReport, EngineError> {
        match self {
            Engine::Single(e) => e.verify(),
            Engine::Sharded(e) => e.verify(),
        }
    }

    fn export_profiles(&self) -> Result<ProfileStore, EngineError> {
        match self {
            Engine::Single(e) => e.export_profiles(),
            Engine::Sharded(e) => e.export_profiles(),
        }
    }
}

enum Handle {
    Single(RefineHandle),
    Sharded(ShardedRefineHandle),
}

impl Handle {
    fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        match self {
            Handle::Single(h) => h.wait_for_epoch(epoch, timeout),
            Handle::Sharded(h) => h.wait_for_epoch(epoch, timeout),
        }
    }

    fn stop(self) -> Result<Engine, String> {
        match self {
            Handle::Single(h) => h.stop().map(Engine::Single),
            Handle::Sharded(h) => h.stop().map(Engine::Sharded),
        }
        .map_err(|e| format!("stopping the service: {e}"))
    }
}

/// The storage one engine runs on: the raw backends (one per shard)
/// and, for disk, their directories.
struct Stores {
    raw: Vec<Arc<dyn StorageBackend>>,
    dirs: Vec<PathBuf>,
}

impl Stores {
    fn create(spec: &Spec, root: &Path, round: usize) -> Result<Self, String> {
        let mut raw: Vec<Arc<dyn StorageBackend>> = Vec::new();
        let mut dirs = Vec::new();
        for shard in 0..spec.shards {
            match spec.storage {
                Storage::Disk => {
                    let dir = root.join(format!("round{round}-shard{shard}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    raw.push(Arc::new(
                        DiskBackend::create(&dir).map_err(|e| format!("workdir: {e}"))?,
                    ));
                    dirs.push(dir);
                }
                Storage::Mem => raw.push(Arc::new(MemBackend::new())),
            }
        }
        Ok(Stores { raw, dirs })
    }

    /// Reopens the storage as a restarted process would: a fresh
    /// backend on each disk directory, the surviving buffers of each
    /// in-memory one.
    fn reopen(&self) -> Result<Vec<Arc<dyn StorageBackend>>, String> {
        if self.dirs.is_empty() {
            return Ok(self.raw.clone());
        }
        self.dirs
            .iter()
            .map(|d| {
                DiskBackend::create(d)
                    .map(|b| Arc::new(b) as Arc<dyn StorageBackend>)
                    .map_err(|e| format!("reopen: {e}"))
            })
            .collect()
    }

    fn destroy(&self) {
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

type Timing = Option<(Arc<TimingStats>, Arc<Tracer>)>;

/// The backends as the engine is handed them: each behind the timing
/// decorator in the traced run, bare otherwise.
fn wrap_all(backends: &[Arc<dyn StorageBackend>], timing: &Timing) -> Vec<Arc<dyn StorageBackend>> {
    backends
        .iter()
        .map(|b| match timing {
            Some((stats, tracer)) => Arc::new(TimingBackend::new(
                Arc::clone(b),
                Arc::clone(stats),
                Some(Arc::clone(tracer)),
            )) as Arc<dyn StorageBackend>,
            None => Arc::clone(b),
        })
        .collect()
}

/// Reopens the storage with a fault injector in front of shard 0 and
/// resumes an engine on it. The injector stays out of the measured
/// phases: it is not a transparent decorator (it reframes every write,
/// which skips the spill meter, and has no native copy).
fn restart_faulted(
    spec: &Spec,
    config: &EngineConfig,
    stores: &Stores,
    timing: &Timing,
) -> Result<(Engine, Arc<FaultBackend>), String> {
    let mut faulted = stores.reopen()?;
    let fault = Arc::new(FaultBackend::new(Arc::clone(&faulted[0])));
    faulted[0] = Arc::clone(&fault) as Arc<dyn StorageBackend>;
    let engine = resume(spec, config, wrap_all(&faulted, timing))
        .map_err(|e| format!("restart on the fault injector: {e}"))?;
    Ok((engine, fault))
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub g0_ms: Vec<f64>,
    pub layout_ms: Vec<f64>,
    pub refine_s: Vec<f64>,
    pub io_bytes: u64,
    pub recall: f64,
    pub digest: u64,
    /// Reports and exchange volume of the last round's schedule.
    pub reports: Vec<IterationReport>,
    pub exchange: Vec<ExchangeStats>,
    /// Measured wall time of each iteration of the last schedule.
    pub iter_wall: Vec<Duration>,
    pub store: TimingSnapshot,
    pub kernel_ns: f64,
    /// Peak resident memory once the last round's schedule has run.
    pub build_rss_mb: f64,
    pub spawn_ms: f64,
    pub load: LoadOutcome,
    pub refine_iters: u64,
    /// Restart after each crash: recovery plus `resume_on`, in both passes.
    pub resume_s: Vec<f64>,
    /// `resume_on` alone (after the direct recovery in the traced run).
    pub resume_call_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub iterations_attempted: u64,
    pub violations: Vec<String>,
}

/// Exact-score recall@K of `graph` on a seeded user sample: a listed
/// neighbour counts when its true score reaches the K-th best true
/// score (so ties at the boundary never count against the engine).
fn sampled_recall(graph: &KnnGraph, profiles: &ProfileStore, measure: Measure, seed: u64) -> f64 {
    let n = profiles.num_users();
    let k = graph.k();
    let mut rng = Rng::fork(seed, 21);
    let mut hits = 0usize;
    let mut total = 0usize;
    for _ in 0..RECALL_SAMPLE {
        let u = UserId::new(rng.below(n as u64) as u32);
        let pu = profiles.get(u);
        let mut scores: Vec<f32> = (0..n as u32)
            .filter(|&v| v != u.raw())
            .map(|v| measure.score(pu, profiles.get(UserId::new(v))))
            .collect();
        scores.sort_by(|a, b| b.total_cmp(a));
        let kth = scores[k.min(scores.len()) - 1];
        total += k;
        hits += graph
            .neighbors(u)
            .iter()
            .filter(|nb| nb.id != u && measure.score(pu, profiles.get(nb.id)) >= kth)
            .count();
    }
    hits as f64 / total as f64
}

/// Bit-exact fingerprint of a graph: every list, ids and score bits.
pub fn digest(graph: &KnnGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in 0..graph.num_vertices() as u32 {
        let list = graph.neighbors(UserId::new(v));
        mix(list.len() as u64);
        for nb in list {
            mix(nb.id.raw() as u64);
            mix(nb.sim.to_bits() as u64);
        }
    }
    h
}

/// Nanoseconds per `Similarity::score` over a seeded sample of the
/// workload's own candidate pairs (users × final neighbours), the
/// median of five timed sweeps.
fn kernel_ns(graph: &KnnGraph, profiles: &ProfileStore, measure: Measure, seed: u64) -> f64 {
    let n = graph.num_vertices();
    let mut rng = Rng::fork(seed, 22);
    let mut pairs = Vec::with_capacity(KERNEL_PAIRS);
    while pairs.len() < KERNEL_PAIRS {
        let u = UserId::new(rng.below(n as u64) as u32);
        for nb in graph.neighbors(u) {
            pairs.push((profiles.get(u), profiles.get(nb.id)));
        }
    }
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0f32;
            for (a, b) in &pairs {
                acc += measure.score(std::hint::black_box(a), std::hint::black_box(b));
            }
            std::hint::black_box(acc);
            t.elapsed().as_nanos() as f64 / pairs.len() as f64
        })
        .collect();
    median(&sweeps)
}

fn construct(
    spec: &Spec,
    config: &EngineConfig,
    graph: KnnGraph,
    profiles: ProfileStore,
    handed: Vec<Arc<dyn StorageBackend>>,
) -> Result<Engine, EngineError> {
    if spec.shards == 1 {
        let backend = handed.into_iter().next().expect("one backend");
        KnnEngine::with_initial_graph_on(config.clone(), graph, profiles, backend)
            .map(Engine::Single)
    } else {
        ShardedEngine::with_initial_graph_on(config.clone(), graph, profiles, handed)
            .map(Engine::Sharded)
    }
}

fn resume(
    spec: &Spec,
    config: &EngineConfig,
    handed: Vec<Arc<dyn StorageBackend>>,
) -> Result<Engine, EngineError> {
    if spec.shards == 1 {
        let backend = handed.into_iter().next().expect("one backend");
        KnnEngine::resume_on(config.clone(), backend).map(Engine::Single)
    } else {
        ShardedEngine::resume_on(config.clone(), handed).map(Engine::Sharded)
    }
}

/// Crashes an iteration at evenly spaced points of its storage
/// operations; after each crash the storage is reopened and the engine
/// resumed, and the resumed graph must be the last committed one and
/// `verify()` must come back clean.
///
/// With `known` (the operation count of the next iteration, and the
/// graph it starts from) the next iteration is the one crashed.
/// Without it, a probe iteration runs first to count them: it applies
/// the last of the updates the serve window accepted, each of which
/// must then be stored, and the iteration after it is crashed. Returns
/// the count.
fn crash_and_resume(
    spec: &Spec,
    config: &EngineConfig,
    seed: u64,
    stores: &Stores,
    timing: &Timing,
    known: Option<(u64, KnnGraph)>,
    out: &mut Pass,
) -> Result<u64, String> {
    let tracer = timing.as_ref().map(|(_, t)| t);
    let span = |name: &'static str, start: Instant, end: Instant| {
        if let Some(t) = tracer {
            t.span(name, 0, start, end);
        }
    };
    let (ops, committed) = match known {
        Some(k) => k,
        None => {
            let (mut engine, fault) = restart_faulted(spec, config, stores, timing)?;
            fault.set_plan(FaultPlan {
                fail_at: u64::MAX,
                kind: FaultKind::Crash,
                seed,
            });
            fault.arm();
            let probe = engine.run_iteration();
            fault.disarm();
            out.iterations_attempted += 1;
            probe.map_err(|e| format!("probe iteration: {e}"))?;

            let stored = engine.export_profiles().map_err(|e| e.to_string())?;
            let lost = out
                .load
                .accepted
                .iter()
                .filter(|(u, m)| stored.get(*u).get(ItemId::new(*m)).is_none())
                .count();
            if lost > 0 {
                out.violations
                    .push(format!("{lost} accepted update(s) missing from the engine"));
            }
            (fault.ops_observed(), engine.graph().clone())
        }
    };

    for cut in 1..=CRASHES {
        let (mut engine, fault) = restart_faulted(spec, config, stores, timing)?;
        fault.set_plan(FaultPlan {
            fail_at: ops * cut / (CRASHES + 1),
            kind: FaultKind::Crash,
            seed,
        });
        fault.arm();
        let killed = engine.run_iteration();
        fault.disarm();
        out.iterations_attempted += 1;
        if killed.is_ok() {
            out.violations
                .push(format!("injected crash {cut} did not fire"));
        }
        drop(engine);

        let reopened = stores.reopen()?;
        let mut recovery = Duration::ZERO;
        if tracer.is_some() {
            // The traced run recovers through a direct call first, so
            // the resume that follows finds storage already rolled
            // back. A sharded layout recovers through a router, which
            // converges every shard to the common committed generation.
            let shards = wrap_all(&reopened, timing);
            let target: Arc<dyn StorageBackend> = if spec.shards == 1 {
                Arc::clone(&shards[0])
            } else {
                Arc::new(ShardRouter::new(
                    shards,
                    Arc::new(HashRing::new(spec.shards)),
                ))
            };
            let t = Instant::now();
            knn_store::recover(target.as_ref()).map_err(|e| format!("recover: {e}"))?;
            let end = Instant::now();
            span("store.recover", t, end);
            recovery = end - t;
            out.recover_ms.push(ms(recovery));
        }
        let t = Instant::now();
        let resumed = resume(spec, config, wrap_all(&reopened, timing))
            .map_err(|e| format!("resume: {e}"))?;
        let end = Instant::now();
        span("core.resume_on", t, end);
        out.resume_s.push((recovery + (end - t)).as_secs_f64());
        out.resume_call_ms.push(ms(end - t));
        if resumed.graph() != &committed {
            out.violations.push(format!(
                "after crash {cut} the resumed graph differs from the last committed graph"
            ));
        }
        let t = Instant::now();
        let scrub = resumed.verify().map_err(|e| format!("verify: {e}"))?;
        let end = Instant::now();
        span("core.verify", t, end);
        out.verify_ms.push(ms(end - t));
        if !scrub.is_clean() {
            out.violations
                .push(format!("verify after crash {cut}: {scrub}"));
        }
    }
    Ok(ops)
}

/// Runs one pass: rounds of set-up, schedule and crash/resume until
/// their share of `seconds` is spent (at least `MIN_ROUNDS`), the last
/// round serving open-loop traffic between its schedule and its
/// crashes. `tracer` turns the traced run on: storage is timed, and
/// spans are recorded around every call.
pub fn pass(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    profiles: &ProfileStore,
    measure: Measure,
    workdir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<Pass, String> {
    let config = spec
        .engine_config(seed, measure)
        .map_err(|e| e.to_string())?;
    let timing = tracer
        .as_ref()
        .map(|t| (Arc::new(TimingStats::default()), Arc::clone(t)));
    let span = |name: &'static str, parent: u64, start: Instant, end: Instant| -> u64 {
        tracer
            .as_ref()
            .map_or(0, |t| t.span(name, parent, start, end))
    };
    let mut out = Pass::default();
    let rounds_until = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - SERVE_SHARE));
    let mut round_walls: Vec<f64> = Vec::new();
    // Storage operations of the iteration after the schedule, counted
    // in round 0; every later round starts that iteration from the
    // same graph (the digest check holds them to it).
    let mut next_ops = None;

    for round in 0.. {
        let round_start = Instant::now();
        // This round is the last when another one after it would end
        // past the rounds' share of the time.
        let typical = Duration::from_secs_f64(median(&round_walls).max(0.0));
        let last = round + 1 >= MIN_ROUNDS && round_start + typical * 2 > rounds_until;

        let input = profiles.clone();
        let stores = Stores::create(spec, workdir, round)?;
        let handed = wrap_all(&stores.raw, &timing);
        let t0 = Instant::now();
        let g0 = KnnEngine::initial_graph(&config, &input).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let mut engine = construct(spec, &config, g0, input, handed).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let setup = span("lifecycle.setup", 0, t0, t2);
        span("core.initial_graph", setup, t0, t1);
        span("core.with_initial_graph_on", setup, t1, t2);
        out.setup_s.push((t2 - t0).as_secs_f64());
        out.g0_ms.push(ms(t1 - t0));
        out.layout_ms.push(ms(t2 - t1));

        let schedule_id = tracer.as_ref().map_or(0, |t| t.next_id());
        let io_before = engine.io();
        let store_before = timing
            .as_ref()
            .map(|(s, _)| s.snapshot())
            .unwrap_or_default();
        let mut reports = Vec::new();
        let mut exchange = Vec::new();
        let mut walls = Vec::new();
        let started = Instant::now();
        for _ in 0..spec.schedule {
            let iter_id = tracer.as_ref().map_or(0, |t| t.begin_iteration());
            let t = Instant::now();
            let (report, ex) = engine.run_iteration().map_err(|e| e.to_string())?;
            let end = Instant::now();
            out.iterations_attempted += 1;
            if let Some(tr) = &tracer {
                tr.end_iteration(iter_id, schedule_id, t, end, &report.phase_durations);
            }
            walls.push(end - t);
            reports.push(report);
            exchange.push(ex);
        }
        let finished = Instant::now();
        if let Some(tr) = &tracer {
            tr.close(schedule_id, "lifecycle.schedule", 0, started, finished);
        }
        out.refine_s.push((finished - started).as_secs_f64());
        let io = engine.io() - io_before;
        let d = digest(engine.graph());
        if round == 0 {
            out.digest = d;
            out.io_bytes = io.bytes_total();
        } else {
            if d != out.digest {
                out.violations.push(format!(
                    "round {round} graph digest {d:016x} differs from round 0 ({:016x})",
                    out.digest
                ));
            }
            if io.bytes_total() != out.io_bytes {
                out.violations.push(format!(
                    "round {round} moved {} storage bytes, round 0 moved {}",
                    io.bytes_total(),
                    out.io_bytes
                ));
            }
        }
        out.reports = reports;
        out.exchange = exchange;
        out.iter_wall = walls;
        if let Some((s, _)) = &timing {
            out.store = s.snapshot().since(&store_before);
        }
        out.build_rss_mb = peak_rss_mb();

        if !last {
            let known = next_ops.map(|ops| (ops, engine.graph().clone()));
            drop(engine);
            let ops = crash_and_resume(spec, &config, seed, &stores, &timing, known, &mut out)?;
            next_ops.get_or_insert(ops);
            stores.destroy();
            round_walls.push(round_start.elapsed().as_secs_f64());
            continue;
        }

        let t = Instant::now();
        out.recall = sampled_recall(engine.graph(), profiles, measure, seed);
        span("check.recall", 0, t, Instant::now());
        let t = Instant::now();
        out.kernel_ns = kernel_ns(engine.graph(), profiles, measure, seed);
        span("sim.kernel_probe", 0, t, Instant::now());

        // Serve the built engine under open-loop traffic.
        let engine_iter = engine.iteration();
        let t = Instant::now();
        let (front, handle) = match engine {
            Engine::Single(e) => {
                let (svc, h) =
                    knn_serve::spawn(e, spec.refine_options()).map_err(|e| e.to_string())?;
                (Front::Single(svc), Handle::Single(h))
            }
            Engine::Sharded(e) => {
                let (svc, h) = knn_serve::spawn_sharded(e, spec.refine_options())
                    .map_err(|e| e.to_string())?;
                (Front::Sharded(svc), Handle::Sharded(h))
            }
        };
        let spawned = Instant::now();
        span("serve.spawn", 0, t, spawned);
        out.spawn_ms = ms(spawned - t);
        out.load = load::run(
            &front,
            &|e, t| handle.wait_for_epoch(e, t),
            spec,
            seed,
            seconds * SERVE_SHARE,
            profiles,
            tracer.as_ref(),
        );
        span("lifecycle.serve", 0, spawned, Instant::now());
        drop(front);
        let t = Instant::now();
        let engine = handle.stop()?;
        span("serve.stop", 0, t, Instant::now());
        out.refine_iters = engine.iteration() - engine_iter;
        out.violations.append(&mut out.load.violations);
        drop(engine);

        crash_and_resume(spec, &config, seed, &stores, &timing, None, &mut out)?;
        stores.destroy();
        break;
    }
    Ok(out)
}
