//! The iteration driver.

use std::sync::Arc;
use std::time::Instant;

use knn_cluster::{cluster_profiles, cluster_seeded_graph, ClusterAssignment};
use knn_graph::{EdgeAdditions, KnnGraph, Neighbor, UserId};
use knn_sim::{Profile, ProfileDelta, ProfileStore};
use knn_store::backend::{
    read_meta, read_pairs, read_scored_pairs, read_user_lists, write_meta, write_pairs,
    write_scored_pairs,
};
use knn_store::commit::{read_commit_state, write_commit, CommitState};
use knn_store::{
    CommitRecord, CommitTarget, CommitTxn, DiskBackend, IoSnapshot, MemBackend, RecoveryReport,
    RetryBackend, RetryPolicy, StorageBackend, StreamId, WorkingDir,
};

use crate::config::EngineConfig;
use crate::metrics::{ConvergenceOutcome, IterationReport};
use crate::partition::{objective, ClusterPartitioner, Partitioner, PartitionerKind, Partitioning};
use crate::phase1;
use crate::phase2;
use crate::phase4::{self, Phase4Options, Phase4Prune};
use crate::phase5::UpdateQueue;
use crate::traversal::simulate_schedule_ops;
use crate::EngineError;

// Metadata keys of the `Meta` stream.
const META_ITERATION: u32 = 1;
const META_NUM_USERS: u32 = 2;
const META_K: u32 = 3;
const META_NUM_PARTITIONS: u32 = 4;
const META_SEED: u32 = 5;
// Written only when the clustering pre-pass ran (so non-cluster runs
// keep the historical five-key metadata byte-for-byte).
const META_NUM_CLUSTERS: u32 = 6;
const META_CLUSTER_METHOD: u32 = 7;

/// The out-of-core KNN engine: owns a [`StorageBackend`], the current
/// KNN graph `G(t)`, and the update queue, and executes the five-phase
/// iteration loop.
///
/// Memory footprint with a [`DiskBackend`]: `G(t)` (`n × K` scored
/// edges) plus at most `cache_slots` partitions of profile/accumulator
/// state — the profile set itself lives on disk, exactly as in the
/// paper. With a [`MemBackend`] the same loop runs against RAM-resident
/// byte buffers: identical results, no filesystem in the hot path. See
/// the crate docs for a full example.
pub struct KnnEngine {
    config: EngineConfig,
    backend: Arc<dyn StorageBackend>,
    graph: KnnGraph,
    partitioning: Partitioning,
    queue: UpdateQueue,
    iteration: u64,
    reports: Vec<IterationReport>,
    /// The clustering pre-pass output, present iff
    /// [`EngineConfig::clustering_enabled`]; consumed by the cluster
    /// partitioner on every (re)partition and persisted for resume.
    clusters: Option<Arc<ClusterAssignment>>,
    /// Cross-iteration bookkeeping for phase-4 pair suppression;
    /// `None` when no prior iteration ran in this process (fresh
    /// engine, resume) or suppression is disabled — the next
    /// iteration then re-scores everything.
    prune: Option<PruneState>,
    /// Phase-2 override (see [`Phase2Provider`]); `None` runs the
    /// built-in single-backend pipeline.
    phase2_provider: Option<Box<dyn Phase2Provider>>,
    /// I/O meter override for the per-phase report brackets; `None`
    /// reads this engine's backend stats. A sharded driver installs a
    /// closure summing its shard meters so phase I/O deltas cover
    /// every backend the iteration touched.
    io_meter: Option<Arc<dyn Fn() -> IoSnapshot + Send + Sync>>,
    /// What crash recovery found when this engine was resumed with the
    /// commit protocol on; `None` for fresh engines and protocol-off
    /// resumes.
    recovery: Option<RecoveryReport>,
}

/// Pluggable phase-2 implementation. The engine driver calls this in
/// place of [`phase2::generate_tuples`] when installed via
/// [`KnnEngine::set_phase2_provider`] — the hook a sharded driver uses
/// to scan partitions on per-shard backends, exchange foreign buckets,
/// and merge at each bucket's owner, while phases 1/3/4/5 run
/// unchanged against the routing backend.
///
/// Implementations own their storage handles (the engine passes no
/// backend) and must uphold the determinism contract: for a given
/// partitioning and edge streams, the persisted tuple buckets and the
/// returned [`Phase2Output`](phase2::Phase2Output) must equal what the
/// built-in pipeline would produce.
pub trait Phase2Provider: Send {
    /// Runs phase 2 for the current iteration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] on I/O failure, like
    /// [`phase2::generate_tuples`].
    fn generate_tuples(
        &mut self,
        partitioning: &Partitioning,
        options: &phase2::Phase2Options,
        additions: Option<&EdgeAdditions>,
    ) -> Result<phase2::Phase2Output, EngineError>;
}

/// Outcome of [`KnnEngine::verify`]: how many invariants were checked
/// and every violation found, in check order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// Invariant checks performed (streams and cross-stream checks).
    pub streams_checked: u64,
    /// Human-readable findings; empty for a healthy store.
    pub issues: Vec<String>,
}

impl ScrubReport {
    /// `true` when every check passed.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scrub: {} checks, {} issue(s)",
            self.streams_checked,
            self.issues.len()
        )?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

/// What phase-4 suppression needs to know about the previous
/// iteration, maintained by [`KnnEngine::run_iteration`]:
struct PruneState {
    /// Users whose profile changed in the last phase 5 — every score
    /// involving them is stale.
    profile_dirty: Vec<bool>,
    /// Edges of `G(t)` absent from `G(t-1)` — a tuple generated only
    /// through such an edge was never evaluated before.
    additions: EdgeAdditions,
}

impl std::fmt::Debug for KnnEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnEngine")
            .field("iteration", &self.iteration)
            .field("num_users", &self.config.num_users())
            .field("k", &self.config.k())
            .field("num_partitions", &self.config.num_partitions())
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl KnnEngine {
    /// Creates a disk-backed engine with the random initial graph
    /// `G(0)` (NN-Descent-style: `K` random neighbors per user, derived
    /// from `config.seed()`).
    ///
    /// `profiles` is consumed: it is sharded into per-partition streams
    /// of the backend and dropped — from here on the profile set lives
    /// in storage. Convenience for
    /// [`new_on`](KnnEngine::new_on)`(config, profiles, DiskBackend::new(workdir))`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] if `profiles` does not
    /// cover exactly `config.num_users()` users, or a storage error.
    pub fn new(
        config: EngineConfig,
        profiles: ProfileStore,
        workdir: WorkingDir,
    ) -> Result<Self, EngineError> {
        Self::new_on(config, profiles, Arc::new(DiskBackend::new(workdir)))
    }

    /// Creates an engine on an arbitrary storage backend with the
    /// random initial graph `G(0)`.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::new`].
    pub fn new_on(
        config: EngineConfig,
        profiles: ProfileStore,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        let clusters = Self::compute_clusters(&config, &profiles)?;
        let initial = Self::initial_graph_with(&config, clusters.as_deref());
        Self::build_on(config, initial, profiles, clusters, backend)
    }

    /// Runs the clustering pre-pass when the configuration asks for one
    /// ([`EngineConfig::clustering_enabled`]), else `None`.
    fn compute_clusters(
        config: &EngineConfig,
        profiles: &ProfileStore,
    ) -> Result<Option<Arc<ClusterAssignment>>, EngineError> {
        if !config.clustering_enabled() {
            return Ok(None);
        }
        let assignment = cluster_profiles(
            profiles,
            config.cluster_method(),
            config.effective_num_clusters(),
            config.seed(),
        )?;
        Ok(Some(Arc::new(assignment)))
    }

    /// The initial graph `G(0)` for a config plus an optional cluster
    /// assignment: cluster-seeded when
    /// [`cluster_init`](EngineConfig::cluster_init) is on, else the
    /// classic uniform-random NN-Descent start.
    fn initial_graph_with(config: &EngineConfig, clusters: Option<&ClusterAssignment>) -> KnnGraph {
        match clusters {
            Some(assignment) if config.cluster_init() => {
                cluster_seeded_graph(assignment, config.k(), config.seed())
            }
            _ => KnnGraph::random_init(config.num_users(), config.k(), config.seed()),
        }
    }

    /// Computes the initial graph `G(0)` a fresh engine would start
    /// from: cluster-seeded when the config enables
    /// [`cluster_init`](EngineConfig::cluster_init) (running the
    /// clustering pre-pass), uniform random otherwise. For callers that
    /// build `G(0)` apart from the engine and hand it to
    /// [`with_initial_graph_on`](KnnEngine::with_initial_graph_on),
    /// which runs the pre-pass again; [`new_on`](KnnEngine::new_on)
    /// runs it once for both.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if the configured cluster count
    /// is invalid for `profiles`.
    pub fn initial_graph(
        config: &EngineConfig,
        profiles: &ProfileStore,
    ) -> Result<KnnGraph, EngineError> {
        let clusters = Self::compute_clusters(config, profiles)?;
        Ok(Self::initial_graph_with(config, clusters.as_deref()))
    }

    /// The partitioner instance for this engine: graph partitioners
    /// from the bare kind + seed; [`PartitionerKind::Cluster`] bound to
    /// the pre-pass assignment.
    fn make_partitioner(
        config: &EngineConfig,
        clusters: Option<&Arc<ClusterAssignment>>,
    ) -> Result<Box<dyn Partitioner>, EngineError> {
        if config.partitioner() == PartitionerKind::Cluster {
            let clusters = clusters.ok_or_else(|| {
                EngineError::config(
                    "PartitionerKind::Cluster requires the clustering pre-pass output \
                     (engine invariant violated)",
                )
            })?;
            Ok(Box::new(ClusterPartitioner::new(Arc::clone(clusters))))
        } else {
            Ok(config.partitioner().instantiate(config.seed()))
        }
    }

    /// Creates a fully in-memory engine ([`MemBackend`]) with the
    /// random initial graph `G(0)` — the fast path when the profile
    /// set fits in RAM. Same algorithm, same codec, same results as
    /// the disk engine.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::new`].
    pub fn in_memory(config: EngineConfig, profiles: ProfileStore) -> Result<Self, EngineError> {
        Self::new_on(config, profiles, Arc::new(MemBackend::new()))
    }

    /// Creates a disk-backed engine from an explicit initial graph
    /// (e.g. a warm start from a previous run).
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::new`], plus a mismatch error if the graph's
    /// vertex count or `K` bound disagrees with the configuration.
    pub fn with_initial_graph(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        workdir: WorkingDir,
    ) -> Result<Self, EngineError> {
        Self::with_initial_graph_on(config, graph, profiles, Arc::new(DiskBackend::new(workdir)))
    }

    /// Creates an engine from an explicit initial graph on an
    /// arbitrary storage backend.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::with_initial_graph`].
    pub fn with_initial_graph_on(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        let clusters = Self::compute_clusters(&config, &profiles)?;
        Self::build_on(config, graph, profiles, clusters, backend)
    }

    /// The shared constructor core: validates inputs, lays out the
    /// initial partitioning (cluster-aware when a pre-pass ran), shards
    /// the profiles, and persists the resumable state.
    fn build_on(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        clusters: Option<Arc<ClusterAssignment>>,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        // Every engine I/O path runs behind the bounded retry policy:
        // transient storage failures are absorbed deterministically
        // (seeded jitter), permanent ones propagate unchanged, and a
        // clean run is byte- and meter-identical to an unwrapped one.
        let backend: Arc<dyn StorageBackend> = Arc::new(RetryBackend::new(
            backend,
            RetryPolicy::from_seed(config.seed()),
        ));
        if graph.num_vertices() != config.num_users() {
            return Err(EngineError::input(format!(
                "graph has {} vertices, config expects {}",
                graph.num_vertices(),
                config.num_users()
            )));
        }
        if graph.k() != config.k() {
            return Err(EngineError::input(format!(
                "graph K={} but config K={}",
                graph.k(),
                config.k()
            )));
        }
        if profiles.num_users() != config.num_users() {
            return Err(EngineError::input(format!(
                "profile store has {} users, config expects {}",
                profiles.num_users(),
                config.num_users()
            )));
        }
        // Initial layout: partition G(0) with the configured
        // partitioner and shard the profiles accordingly.
        let partitioner = Self::make_partitioner(&config, clusters.as_ref())?;
        let partitioning = partitioner.partition(&graph.to_digraph(), config.num_partitions())?;
        phase1::reshard_profiles(
            backend.as_ref(),
            None,
            &partitioning,
            Some(&profiles),
            config.threads(),
        )?;
        // The cluster table never changes after the pre-pass: persist
        // it once here, not in per-iteration persist_state.
        if let Some(assignment) = &clusters {
            assignment.persist(backend.as_ref())?;
        }
        let queue = UpdateQueue::new(config.num_users());
        let engine = KnnEngine {
            config,
            backend,
            graph,
            partitioning,
            queue,
            iteration: 0,
            reports: Vec::new(),
            clusters,
            prune: None,
            phase2_provider: None,
            io_meter: None,
            recovery: None,
        };
        engine.persist_state(None)?;
        // Generation 0 is committed the moment the initial state is
        // durable, so a crash during iteration 0 rolls back here.
        if engine.config.commit_protocol() {
            write_commit(engine.backend.as_ref(), &CommitRecord::clean(0))?;
        }
        Ok(engine)
    }

    /// Reopens a disk-backed engine from a working directory previously
    /// populated by [`KnnEngine::new`] / [`KnnEngine::with_initial_graph`]
    /// — including directories written before the [`StorageBackend`]
    /// abstraction existed (the disk format is unchanged).
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::resume_on`].
    pub fn resume(config: EngineConfig, workdir: WorkingDir) -> Result<Self, EngineError> {
        Self::resume_on(config, Arc::new(DiskBackend::new(workdir)))
    }

    /// Reopens an engine from a backend previously populated by one of
    /// the constructors: the persisted KNN graph, partition assignment,
    /// profiles, and any still-queued updates are all recovered, and
    /// the iteration counter continues where the previous run stopped.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] if the stored metadata
    /// disagrees with `config` (different `n`, `K`, `m`, or seed) or a
    /// stored KNN slice is inconsistent (a user listed twice, or more
    /// than `K` neighbors for one user), and storage errors for missing
    /// or corrupt state streams.
    pub fn resume_on(
        config: EngineConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        let backend: Arc<dyn StorageBackend> = Arc::new(RetryBackend::new(
            backend,
            RetryPolicy::from_seed(config.seed()),
        ));
        // Crash recovery runs before a single byte of state is
        // trusted: a torn iteration rolls back to the last committed
        // generation, an interrupted log truncation is finished, torn
        // log tails are pruned, and orphaned scratch is deleted. A
        // legacy layout (no commit record) passes through untouched.
        let recovery = if config.commit_protocol() {
            Some(knn_store::recover(backend.as_ref())?)
        } else {
            None
        };
        let meta: std::collections::HashMap<u32, u64> =
            read_meta(backend.as_ref())?.into_iter().collect();
        let expect = |key: u32, name: &str, want: u64| -> Result<(), EngineError> {
            match meta.get(&key) {
                Some(&found) if found == want => Ok(()),
                Some(&found) => Err(EngineError::input(format!(
                    "stored {name} is {found}, config says {want}"
                ))),
                None => Err(EngineError::input(format!("metadata missing {name}"))),
            }
        };
        expect(META_NUM_USERS, "num_users", config.num_users() as u64)?;
        expect(META_K, "k", config.k() as u64)?;
        expect(
            META_NUM_PARTITIONS,
            "num_partitions",
            config.num_partitions() as u64,
        )?;
        expect(META_SEED, "seed", config.seed())?;
        let clusters = if config.clustering_enabled() {
            expect(
                META_NUM_CLUSTERS,
                "num_clusters",
                config.effective_num_clusters() as u64,
            )?;
            expect(
                META_CLUSTER_METHOD,
                "cluster_method",
                config.cluster_method().code(),
            )?;
            Some(Arc::new(ClusterAssignment::load(
                backend.as_ref(),
                config.num_users(),
                config.effective_num_clusters() as u32,
            )?))
        } else {
            None
        };
        let iteration = *meta
            .get(&META_ITERATION)
            .ok_or_else(|| EngineError::input("metadata missing iteration"))?;
        // After recovery the commit record and the metadata must name
        // the same generation — a disagreement means the directory was
        // modified outside the protocol.
        if let Some(generation) = recovery.as_ref().and_then(|r| r.committed_generation) {
            if generation != iteration {
                return Err(EngineError::input(format!(
                    "commit record names generation {generation}, \
                     stored metadata says iteration {iteration}"
                )));
            }
        }

        let assignment_rows = read_pairs(backend.as_ref(), StreamId::Assignment)?;
        let mut assignment = vec![0u32; config.num_users()];
        if assignment_rows.len() != config.num_users() {
            return Err(EngineError::input(format!(
                "assignment covers {} users, expected {}",
                assignment_rows.len(),
                config.num_users()
            )));
        }
        for (user, p) in assignment_rows {
            let slot = assignment.get_mut(user as usize).ok_or_else(|| {
                EngineError::input(format!("assignment row for unknown user {user}"))
            })?;
            *slot = p;
        }
        let partitioning = Partitioning::from_assignment(assignment, config.num_partitions())?;

        // Rebuild G(t) from the per-partition KNN slices. Slice rows
        // are untrusted input: a user may appear in at most one run of
        // rows across ALL slices, with at most K neighbors — anything
        // else is a corrupt or tampered slice, rejected loudly rather
        // than silently merged.
        let mut graph = KnnGraph::new(config.num_users(), config.k());
        let mut seen = vec![false; config.num_users()];
        let mut install = |p: u32, user: u32, list: Vec<Neighbor>| -> Result<(), EngineError> {
            let claimed = seen.get_mut(user as usize).ok_or_else(|| {
                EngineError::input(format!(
                    "KNN slice of partition {p} names unknown user {user}"
                ))
            })?;
            if std::mem::replace(claimed, true) {
                return Err(EngineError::input(format!(
                    "KNN slice of partition {p} names user {user} twice"
                )));
            }
            if list.len() > config.k() {
                return Err(EngineError::input(format!(
                    "KNN slice of partition {p} carries {} neighbors for user {user}, K={}",
                    list.len(),
                    config.k()
                )));
            }
            graph.set_neighbors(UserId::new(user), list)?;
            Ok(())
        };
        for p in 0..config.num_partitions() as u32 {
            let rows = read_scored_pairs(backend.as_ref(), StreamId::KnnSlice(p))?;
            let mut current: Option<(u32, Vec<Neighbor>)> = None;
            for (s, d, sim) in rows {
                match &mut current {
                    Some((user, list)) if *user == s => {
                        list.push(Neighbor {
                            id: UserId::new(d),
                            sim,
                        });
                    }
                    _ => {
                        if let Some((user, list)) = current.take() {
                            install(p, user, list)?;
                        }
                        current = Some((
                            s,
                            vec![Neighbor {
                                id: UserId::new(d),
                                sim,
                            }],
                        ));
                    }
                }
            }
            if let Some((user, list)) = current {
                install(p, user, list)?;
            }
        }

        let queue = UpdateQueue::new(config.num_users());
        Ok(KnnEngine {
            config,
            backend,
            graph,
            partitioning,
            queue,
            iteration,
            reports: Vec::new(),
            clusters,
            // A resumed engine has no in-process memory of the last
            // iteration's scoring, so the first iteration re-scores
            // everything (suppression resumes one iteration later).
            prune: None,
            phase2_provider: None,
            io_meter: None,
            recovery,
        })
    }

    /// Writes the resumable state: metadata, the partition assignment,
    /// and the current KNN graph sliced per partition. With a `txn`,
    /// every stream is staged (pre-image backed up) before its
    /// rewrite, so a crash mid-persist rolls back cleanly.
    fn persist_state(&self, mut txn: Option<&mut CommitTxn>) -> Result<(), EngineError> {
        let backend = self.backend.as_ref();
        if let Some(txn) = txn.as_deref_mut() {
            txn.backup(backend, CommitTarget::Meta)?;
            txn.backup(backend, CommitTarget::Assignment)?;
        }
        let mut meta = vec![
            (META_ITERATION, self.iteration),
            (META_NUM_USERS, self.config.num_users() as u64),
            (META_K, self.config.k() as u64),
            (META_NUM_PARTITIONS, self.config.num_partitions() as u64),
            (META_SEED, self.config.seed()),
        ];
        if let Some(clusters) = &self.clusters {
            meta.push((META_NUM_CLUSTERS, clusters.num_clusters() as u64));
            meta.push((META_CLUSTER_METHOD, self.config.cluster_method().code()));
        }
        write_meta(backend, &meta)?;
        let assignment_rows: Vec<(u32, u32)> = self
            .partitioning
            .assignment()
            .iter()
            .enumerate()
            .map(|(u, &p)| (u as u32, p))
            .collect();
        write_pairs(backend, StreamId::Assignment, &assignment_rows)?;
        for p in 0..self.partitioning.num_partitions() as u32 {
            if let Some(txn) = txn.as_deref_mut() {
                txn.backup(backend, CommitTarget::KnnSlice(p))?;
            }
            let mut rows: Vec<(u32, u32, f32)> = Vec::new();
            for &user in self.partitioning.users_of(p) {
                for nb in self.graph.neighbors(user) {
                    rows.push((user.raw(), nb.id.raw(), nb.sim));
                }
            }
            write_scored_pairs(backend, StreamId::KnnSlice(p), &rows)?;
        }
        Ok(())
    }

    /// The current KNN graph `G(t)`.
    pub fn graph(&self) -> &KnnGraph {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current iteration index `t`.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The current partition layout.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The clustering pre-pass output, when the configuration enabled
    /// one ([`EngineConfig::clustering_enabled`]).
    pub fn clusters(&self) -> Option<&Arc<ClusterAssignment>> {
        self.clusters.as_ref()
    }

    /// Reports of every completed iteration.
    pub fn reports(&self) -> &[IterationReport] {
        &self.reports
    }

    /// What crash recovery found and repaired when this engine was
    /// resumed with [`EngineConfig::commit_protocol`] on; `None` for
    /// fresh engines and protocol-off resumes. A clean shutdown
    /// resumes with a default report (nothing rolled back, nothing
    /// deleted).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Scrubs the persisted state: decodes every committed stream
    /// (CRC-verified by the backend), cross-checks the commit record,
    /// metadata, assignment, profile, and KNN-slice invariants against
    /// the configuration, and strictly decodes the update log. Read
    /// only — call it between iterations.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] only on outright I/O failure;
    /// consistency problems are findings in the returned report, not
    /// errors.
    pub fn verify(&self) -> Result<ScrubReport, EngineError> {
        use knn_store::StoreError;
        let backend = self.backend.as_ref();
        let mut report = ScrubReport::default();
        let check = |ok: bool, finding: String, report: &mut ScrubReport| {
            report.streams_checked += 1;
            if !ok {
                report.issues.push(finding);
            }
        };
        // Decode failures are findings (a scrub exists to surface
        // them); only genuine I/O failure aborts the scrub.
        fn soft<T>(
            result: Result<T, StoreError>,
            what: &str,
            report: &mut ScrubReport,
        ) -> Result<Option<T>, EngineError> {
            report.streams_checked += 1;
            match result {
                Ok(v) => Ok(Some(v)),
                Err(e @ (StoreError::Corrupt { .. } | StoreError::VersionMismatch { .. })) => {
                    report.issues.push(format!("{what}: {e}"));
                    Ok(None)
                }
                Err(e) => Err(e.into()),
            }
        }

        // The commit record, when present, must be intact, clean, and
        // name the current generation. Absent is fine: legacy layout
        // or protocol off.
        match read_commit_state(backend)? {
            CommitState::Absent => {}
            CommitState::Torn => {
                check(false, "commit record is torn".to_string(), &mut report);
            }
            CommitState::Valid(rec) => {
                check(
                    rec.generation == self.iteration,
                    format!(
                        "commit record names generation {}, engine is at iteration {}",
                        rec.generation, self.iteration
                    ),
                    &mut report,
                );
                check(
                    rec.log_consumed_len == 0,
                    format!(
                        "commit record carries {} consumed-log bytes at rest \
                         (truncation never completed)",
                        rec.log_consumed_len
                    ),
                    &mut report,
                );
            }
        }

        // Metadata must agree with the configuration.
        let meta: std::collections::HashMap<u32, u64> =
            soft(read_meta(backend), "metadata stream", &mut report)?
                .unwrap_or_default()
                .into_iter()
                .collect();
        for (key, name, want) in [
            (META_ITERATION, "iteration", self.iteration),
            (META_NUM_USERS, "num_users", self.config.num_users() as u64),
            (META_K, "k", self.config.k() as u64),
            (
                META_NUM_PARTITIONS,
                "num_partitions",
                self.config.num_partitions() as u64,
            ),
            (META_SEED, "seed", self.config.seed()),
        ] {
            check(
                meta.get(&key) == Some(&want),
                format!(
                    "metadata {name} is {:?}, expected {want}",
                    meta.get(&key).copied()
                ),
                &mut report,
            );
        }

        // The assignment must cover exactly the configured users with
        // in-range partitions — and match the in-memory layout.
        let assignment_rows = soft(
            read_pairs(backend, StreamId::Assignment),
            "assignment stream",
            &mut report,
        )?
        .unwrap_or_default();
        let n = self.config.num_users();
        let m = self.config.num_partitions() as u32;
        let mut assignment_ok = assignment_rows.len() == n;
        for &(user, p) in &assignment_rows {
            assignment_ok &= (user as usize) < n
                && p < m
                && self.partitioning.assignment().get(user as usize) == Some(&p);
        }
        check(
            assignment_ok,
            format!(
                "assignment stream disagrees with the engine layout \
                 ({} rows for n={n})",
                assignment_rows.len()
            ),
            &mut report,
        );

        // Every user's profile lives exactly once, in its assigned
        // partition.
        let mut profile_seen = vec![false; n];
        for p in 0..m {
            let Some(rows) = soft(
                read_user_lists(backend, StreamId::Profiles(p)),
                &format!("profile stream of partition {p}"),
                &mut report,
            )?
            else {
                continue;
            };
            let mut ok = true;
            for (user, _) in &rows {
                ok &= (*user as usize) < n
                    && self.partitioning.partition_of(UserId::new(*user)) == p
                    && !std::mem::replace(&mut profile_seen[*user as usize], true);
            }
            check(
                ok,
                format!("profile stream of partition {p} misplaces or repeats a user"),
                &mut report,
            );
        }
        check(
            profile_seen.iter().all(|&s| s),
            format!(
                "{} users have no stored profile",
                profile_seen.iter().filter(|&&s| !s).count()
            ),
            &mut report,
        );

        // KNN slices: each user at most once across all slices, in its
        // assigned partition, with at most K neighbors.
        let mut knn_seen = vec![0usize; n];
        for p in 0..m {
            let Some(rows) = soft(
                read_scored_pairs(backend, StreamId::KnnSlice(p)),
                &format!("KNN slice of partition {p}"),
                &mut report,
            )?
            else {
                continue;
            };
            let mut ok = true;
            for (s, _, _) in &rows {
                ok &= (*s as usize) < n && self.partitioning.partition_of(UserId::new(*s)) == p;
                if let Some(count) = knn_seen.get_mut(*s as usize) {
                    *count += 1;
                    ok &= *count <= self.config.k();
                }
            }
            check(
                ok,
                format!("KNN slice of partition {p} misplaces a user or overflows K"),
                &mut report,
            );
        }

        // The update log must decode strictly (a torn tail at rest is
        // a finding — recovery prunes those on resume).
        check(
            self.queue.pending(backend).is_ok(),
            "update log does not decode cleanly".to_string(),
            &mut report,
        );

        // Between iterations no staged backups, spill runs, or
        // exchange runs should survive — a leftover means an
        // interrupted commit or GC. Bucket streams legitimately rest
        // between iterations, so they are not leftovers.
        let leftovers = backend
            .list()?
            .into_iter()
            .filter(|s| {
                matches!(
                    s,
                    StreamId::Staged(..) | StreamId::TupleRun(..) | StreamId::ExchangeRun(..)
                )
            })
            .count();
        check(
            leftovers == 0,
            format!("{leftovers} staged/scratch streams survive at rest"),
            &mut report,
        );

        Ok(report)
    }

    /// Cumulative I/O counters (metered inside the storage backend),
    /// or whatever the installed [`io meter`](KnnEngine::set_io_meter)
    /// reports.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.io_now()
    }

    /// The I/O counters the per-phase report brackets observe.
    fn io_now(&self) -> IoSnapshot {
        match &self.io_meter {
            Some(meter) => meter(),
            None => self.backend.stats().snapshot(),
        }
    }

    /// Installs (or clears) a [`Phase2Provider`] overriding the
    /// built-in phase-2 pipeline on subsequent iterations.
    pub fn set_phase2_provider(&mut self, provider: Option<Box<dyn Phase2Provider>>) {
        self.phase2_provider = provider;
    }

    /// Installs (or clears) the I/O meter backing
    /// [`io_snapshot`](KnnEngine::io_snapshot) and the per-phase
    /// [`IterationReport`] I/O brackets. Use when iteration I/O lands
    /// on backends other than this engine's own (sharding).
    pub fn set_io_meter(&mut self, meter: Option<Arc<dyn Fn() -> IoSnapshot + Send + Sync>>) {
        self.io_meter = meter;
    }

    /// The storage backend this engine runs on.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The working directory, when the engine is disk-backed; `None`
    /// for in-memory (and future non-directory) backends.
    pub fn working_dir(&self) -> Option<&WorkingDir> {
        self.backend.working_dir()
    }

    /// Consumes the engine, returning its working directory (for
    /// cleanup or inspection).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not disk-backed — use
    /// [`working_dir`](KnnEngine::working_dir) /
    /// [`backend`](KnnEngine::backend) for backend-agnostic access.
    pub fn into_working_dir(self) -> WorkingDir {
        self.backend
            .working_dir()
            .expect("into_working_dir on a non-disk backend")
            .clone()
    }

    /// Queues a profile update; it becomes visible in `P(t+1)` after
    /// the current iteration's phase 5 (the paper's lazy queue `q`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidUpdate`] for out-of-range users or
    /// non-finite weights.
    pub fn queue_update(&mut self, delta: &ProfileDelta) -> Result<(), EngineError> {
        self.queue.queue(delta, self.backend.as_ref())
    }

    /// Reads one user's current stored profile (diagnostic helper).
    ///
    /// # Errors
    ///
    /// Returns a storage error or an unknown-user mismatch.
    pub fn profile_of(&self, user: UserId) -> Result<Profile, EngineError> {
        UpdateQueue::read_profile(user, &self.partitioning, self.backend.as_ref())
    }

    /// Materializes the entire stored profile set `P(t)` as an
    /// in-memory [`ProfileStore`] — the snapshot-extraction hook the
    /// serving layer uses to publish a consistent profile view after
    /// each iteration.
    ///
    /// Must only be called between iterations (the engine does not
    /// rewrite partition streams while no iteration is running); costs
    /// one sequential read of every partition's profile stream.
    ///
    /// # Errors
    ///
    /// Returns a storage error for missing or corrupt partition
    /// streams, or an input-mismatch error if a partition stream names
    /// a user outside the configured range.
    pub fn export_profiles(&self) -> Result<ProfileStore, EngineError> {
        let mut store = ProfileStore::new(self.config.num_users());
        for p in 0..self.partitioning.num_partitions() as u32 {
            let rows = read_user_lists(self.backend.as_ref(), StreamId::Profiles(p))?;
            for (user, row) in rows {
                if user as usize >= self.config.num_users() {
                    return Err(EngineError::input(format!(
                        "partition {p} profile stream names unknown user {user}"
                    )));
                }
                let profile = Profile::from_unsorted_pairs(row).map_err(|e| {
                    EngineError::input(format!("invalid stored profile for user {user}: {e}"))
                })?;
                store.set(UserId::new(user), profile);
            }
        }
        Ok(store)
    }

    /// Number of updates currently queued for phase 5.
    ///
    /// # Errors
    ///
    /// Returns a storage error if the update log cannot be read.
    pub fn pending_updates(&self) -> Result<usize, EngineError> {
        self.queue.pending(self.backend.as_ref())
    }

    /// Executes one full five-phase iteration, advancing `G(t)` to
    /// `G(t+1)` and `P(t)` to `P(t+1)`.
    ///
    /// Phases 1, 2, 4, and 5 run partition-parallel across the
    /// configured [`threads`](EngineConfig::threads) budget. The
    /// resulting graph, every persisted stream, and the deterministic
    /// fields of the [`IterationReport`] (everything except wall-clock
    /// durations) are identical at every thread count and on every
    /// backend — see the crate docs for the guarantee.
    ///
    /// # Errors
    ///
    /// Any phase's storage or validation error aborts the iteration;
    /// the engine's in-memory graph is only replaced on success.
    pub fn run_iteration(&mut self) -> Result<IterationReport, EngineError> {
        let mut durations = [std::time::Duration::ZERO; 5];
        let mut io = [IoSnapshot::default(); 5];
        let backend = Arc::clone(&self.backend);
        let backend = backend.as_ref();
        // The iteration's undo log: committed streams are staged
        // before their first in-place mutation, and the commit record
        // written at the end flips the visible generation atomically —
        // a crash anywhere in between rolls back on resume.
        let mut txn = self
            .config
            .commit_protocol()
            .then(|| CommitTxn::new(self.iteration));

        // Cross-iteration suppression inputs (see the crate docs'
        // scoring-pipeline section). `seed_ok[u]` means u's prior
        // top-K verdict is replayable: u's own profile and every
        // profile in u's current neighbor list unchanged since those
        // scores were computed, and the list fully scored.
        let prune_state = if self.config.prune_pairs() {
            self.prune.as_ref()
        } else {
            None
        };
        let seed_ok: Option<Vec<bool>> = prune_state.map(|st| {
            (0..self.config.num_users())
                .map(|u| {
                    let user = UserId::new(u as u32);
                    !st.profile_dirty[u]
                        && self.graph.fully_scored(user)
                        && self
                            .graph
                            .neighbors(user)
                            .iter()
                            .all(|nb| !st.profile_dirty[nb.id.index()])
                })
                .collect()
        });

        // Phase 1: partition G(t) and lay out edge/profile streams.
        let before = self.io_now();
        let t0 = Instant::now();
        if self.config.repartition_each_iteration() || self.iteration == 0 {
            let partitioner = Self::make_partitioner(&self.config, self.clusters.as_ref())?;
            let next =
                partitioner.partition(&self.graph.to_digraph(), self.config.num_partitions())?;
            if next != self.partitioning {
                // Resharding rewrites every profile stream in place —
                // stage them all first.
                if let Some(txn) = txn.as_mut() {
                    for p in 0..self.partitioning.num_partitions() as u32 {
                        txn.backup(backend, CommitTarget::Profiles(p))?;
                    }
                }
                phase1::reshard_profiles(
                    backend,
                    Some(&self.partitioning),
                    &next,
                    None,
                    self.config.threads(),
                )?;
                self.partitioning = next;
            }
        }
        let phase1_stats = phase1::write_partition_edges(
            &self.graph,
            &self.partitioning,
            backend,
            self.config.threads(),
            seed_ok.as_deref(),
        )?;
        let replication_cost =
            objective::replication_cost(&self.graph.to_digraph(), &self.partitioning);
        durations[0] = t0.elapsed();
        io[0] = self.io_now() - before;

        // Phase 2: tuple generation + dedup into pair buckets (tagged
        // with path age when suppression is active).
        let before = self.io_now();
        let t0 = Instant::now();
        let phase2_options = phase2::Phase2Options {
            spill_threshold: self.config.spill_threshold(),
            tuple_table_memory: self.config.tuple_table_memory(),
            threads: self.config.threads(),
            legacy_pipeline: self.config.legacy_tuple_pipeline(),
        };
        let additions = prune_state.map(|st| &st.additions);
        let phase2_out = match self.phase2_provider.as_mut() {
            Some(provider) => {
                provider.generate_tuples(&self.partitioning, &phase2_options, additions)?
            }
            None => {
                phase2::generate_tuples(&self.partitioning, backend, &phase2_options, additions)?
            }
        };
        durations[1] = t0.elapsed();
        io[1] = self.io_now() - before;
        // Partition locality of this iteration's tuple volume: the
        // diagonal of the PI graph counts tuples whose endpoints share
        // a partition.
        let intra_partition_tuples: u64 = (0..self.partitioning.num_partitions() as u32)
            .map(|p| phase2_out.pi.bucket_weight(p, p))
            .sum();

        // Phase 3: PI-graph traversal schedule.
        let before = self.io_now();
        let t0 = Instant::now();
        let schedule = self.config.heuristic().schedule(&phase2_out.pi);
        let predicted = simulate_schedule_ops(&schedule, self.config.cache_slots());
        durations[2] = t0.elapsed();
        io[2] = self.io_now() - before;

        // Phase 4: out-of-core similarity scoring and top-K harvest.
        let before = self.io_now();
        let t0 = Instant::now();
        let options = Phase4Options {
            k: self.config.k(),
            measure: self.config.measure(),
            threads: self.config.threads(),
            cache_slots: self.config.cache_slots(),
            include_reverse: self.config.include_reverse(),
            parallel_threshold: self.config.parallel_threshold(),
            bound_filter: self.config.bound_filter(),
        };
        let prune_ctx = match (prune_state, &seed_ok) {
            (Some(st), Some(ok)) => Some(Phase4Prune {
                seed_ok: ok,
                profile_dirty: &st.profile_dirty,
            }),
            _ => None,
        };
        let phase4_out = phase4::run_phase4(
            &schedule,
            &phase2_out.pi,
            &phase2_out.tuple_meta,
            &self.partitioning,
            backend,
            &options,
            prune_ctx.as_ref(),
        )?;
        durations[3] = t0.elapsed();
        io[3] = self.io_now() - before;

        // Phase 5: apply the lazy profile-update queue. In commit mode
        // the consumed log bytes come back here and are truncated by
        // the commit step below, not by phase 5.
        let before = self.io_now();
        let t0 = Instant::now();
        let (phase5_stats, updated_users, consumed) = self.queue.apply_all(
            &self.partitioning,
            backend,
            self.config.threads(),
            txn.as_mut(),
        )?;
        durations[4] = t0.elapsed();
        io[4] = self.io_now() - before;

        let changed_fraction = self.graph.edge_change_fraction(&phase4_out.graph);
        // Bookkeeping for the next iteration's suppression, derived
        // before G(t) is replaced: which edges are new, and whose
        // profile just changed.
        self.prune = self.config.prune_pairs().then(|| {
            let additions = phase4_out.graph.additions_since(&self.graph);
            let mut profile_dirty = vec![false; self.config.num_users()];
            for &u in &updated_users {
                profile_dirty[u as usize] = true;
            }
            PruneState {
                profile_dirty,
                additions,
            }
        });
        self.graph = phase4_out.graph;
        self.iteration += 1;
        self.persist_state(txn.as_mut())?;
        if let Some(txn) = txn.take() {
            txn.commit(backend, self.iteration, &consumed)?;
        }

        let report = IterationReport {
            iteration: self.iteration - 1,
            phase_durations: durations,
            phase_io: io,
            cache: phase4_out.cache,
            predicted,
            tuples: phase2_out.stats,
            schedule_len: schedule.len(),
            sims_computed: phase4_out.sims_computed,
            sims_skipped: phase4_out.sims_skipped,
            sims_pruned: phase4_out.sims_pruned,
            accums_seeded: phase1_stats.accums_seeded,
            bytes_spilled: io[1].spill_bytes,
            spill_runs: io[1].spill_runs,
            merge_passes: io[1].merge_passes,
            updates_applied: phase5_stats.updates_applied,
            replication_cost,
            intra_partition_tuples,
            changed_fraction,
        };
        self.reports.push(report.clone());
        Ok(report)
    }

    /// Runs iterations until the edge-change fraction drops below
    /// `threshold` or `max_iterations` is reached.
    ///
    /// # Errors
    ///
    /// Propagates the first iteration error.
    pub fn run_until_converged(
        &mut self,
        threshold: f64,
        max_iterations: usize,
    ) -> Result<ConvergenceOutcome, EngineError> {
        let mut last_change = 1.0f64;
        for i in 0..max_iterations {
            let report = self.run_iteration()?;
            last_change = report.changed_fraction;
            if last_change < threshold {
                return Ok(ConvergenceOutcome {
                    converged: true,
                    iterations_run: i + 1,
                    final_change_fraction: last_change,
                });
            }
        }
        Ok(ConvergenceOutcome {
            converged: false,
            iterations_run: max_iterations,
            final_change_fraction: last_change,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_iteration;
    use knn_sim::generators::{clustered_profiles, ClusteredConfig};
    use knn_sim::Measure;

    fn small_world(n: usize, seed: u64) -> (EngineConfig, ProfileStore, WorkingDir) {
        let (profiles, _) = clustered_profiles(
            ClusteredConfig::new(n, seed)
                .with_clusters(4)
                .with_ratings(12, 2),
        );
        let config = EngineConfig::builder(n)
            .k(4)
            .num_partitions(4)
            .measure(Measure::Cosine)
            .seed(seed)
            .build()
            .unwrap();
        let wd = WorkingDir::temp("engine").unwrap();
        (config, profiles, wd)
    }

    #[test]
    fn one_iteration_matches_reference() {
        let (config, profiles, wd) = small_world(60, 3);
        let g0 = KnnGraph::random_init(60, 4, 3);
        let expected = reference_iteration(&g0, &profiles, &Measure::Cosine, 4, false);
        let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).unwrap();
        engine.run_iteration().unwrap();
        assert_eq!(engine.graph(), &expected);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn multiple_iterations_match_reference() {
        let (config, profiles, wd) = small_world(40, 5);
        let g0 = KnnGraph::random_init(40, 4, 5);
        let expected =
            crate::reference::reference_run(&g0, &profiles, &Measure::Cosine, 4, false, 3);
        let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).unwrap();
        for _ in 0..3 {
            engine.run_iteration().unwrap();
        }
        assert_eq!(engine.graph(), &expected);
        assert_eq!(engine.iteration(), 3);
        assert_eq!(engine.reports().len(), 3);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn in_memory_engine_matches_reference() {
        let (config, profiles, wd) = small_world(60, 3);
        wd.destroy().unwrap();
        let g0 = KnnGraph::random_init(60, 4, 3);
        let expected =
            crate::reference::reference_run(&g0, &profiles, &Measure::Cosine, 4, false, 2);
        let mut engine =
            KnnEngine::with_initial_graph_on(config, g0, profiles, Arc::new(MemBackend::new()))
                .unwrap();
        engine.run_iteration().unwrap();
        engine.run_iteration().unwrap();
        assert_eq!(engine.graph(), &expected);
        assert!(engine.working_dir().is_none());
        assert_eq!(engine.backend().name(), "mem");
    }

    #[test]
    fn in_memory_engine_resumes_from_its_backend() {
        let (config, profiles, wd) = small_world(40, 8);
        wd.destroy().unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let mut engine = KnnEngine::new_on(config.clone(), profiles, Arc::clone(&backend)).unwrap();
        engine.run_iteration().unwrap();
        let expected = engine.graph().clone();
        drop(engine);
        let resumed = KnnEngine::resume_on(config, backend).unwrap();
        assert_eq!(resumed.iteration(), 1);
        assert_eq!(resumed.graph(), &expected);
    }

    #[test]
    fn predicted_ops_match_real_execution() {
        let (config, profiles, wd) = small_world(50, 7);
        let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
        let report = engine.run_iteration().unwrap();
        assert_eq!(report.cache.loads, report.predicted.loads);
        assert_eq!(report.cache.unloads, report.predicted.unloads);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn updates_invisible_until_next_iteration() {
        let (config, profiles, wd) = small_world(30, 9);
        let baseline = profiles.clone();
        let g0 = KnnGraph::random_init(30, 4, 9);
        let mut engine = KnnEngine::with_initial_graph(config, g0.clone(), profiles, wd).unwrap();
        // Queue an update mid-iteration-0: iteration 0 must compute
        // with the original profiles.
        engine
            .queue_update(&ProfileDelta::replace(
                UserId::new(0),
                Profile::from_unsorted_pairs(vec![(99999, 5.0)]).unwrap(),
            ))
            .unwrap();
        let expected_iter0 = reference_iteration(&g0, &baseline, &Measure::Cosine, 4, false);
        let report = engine.run_iteration().unwrap();
        assert_eq!(
            engine.graph(),
            &expected_iter0,
            "update leaked into iteration 0"
        );
        assert_eq!(report.updates_applied, 1);
        // After phase 5 the profile is replaced in storage.
        let p = engine.profile_of(UserId::new(0)).unwrap();
        assert_eq!(p.get(knn_sim::ItemId::new(99999)), Some(5.0));
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn export_profiles_round_trips_the_store() {
        let (config, profiles, wd) = small_world(45, 21);
        let original = profiles.clone();
        let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
        // The resharded stored set must reassemble to the input...
        assert_eq!(engine.export_profiles().unwrap(), original);
        // ...and still round-trip after an iteration plus an update.
        engine
            .queue_update(&ProfileDelta::set(
                UserId::new(3),
                knn_sim::ItemId::new(777),
                2.5,
            ))
            .unwrap();
        engine.run_iteration().unwrap();
        let exported = engine.export_profiles().unwrap();
        assert_eq!(
            exported.get(UserId::new(3)).get(knn_sim::ItemId::new(777)),
            Some(2.5)
        );
        assert_eq!(exported.num_users(), 45);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn convergence_on_clustered_data() {
        let (config, profiles, wd) = small_world(80, 11);
        let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
        let outcome = engine.run_until_converged(0.05, 12).unwrap();
        assert!(outcome.converged, "did not converge: {outcome:?}");
        assert!(outcome.iterations_run >= 2);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn constructor_validates_inputs() {
        let (config, profiles, wd) = small_world(30, 1);
        let wrong_graph = KnnGraph::random_init(29, 4, 1);
        assert!(matches!(
            KnnEngine::with_initial_graph(config.clone(), wrong_graph, profiles.clone(), wd),
            Err(EngineError::InputMismatch { .. })
        ));
        let wd = WorkingDir::temp("engine_bad_k").unwrap();
        let wrong_k = KnnGraph::random_init(30, 9, 1);
        assert!(matches!(
            KnnEngine::with_initial_graph(config.clone(), wrong_k, profiles.clone(), wd),
            Err(EngineError::InputMismatch { .. })
        ));
        let wd = WorkingDir::temp("engine_bad_profiles").unwrap();
        let short_profiles = ProfileStore::new(29);
        assert!(matches!(
            KnnEngine::new(config, short_profiles, wd),
            Err(EngineError::InputMismatch { .. })
        ));
    }

    #[test]
    fn repartition_toggle_does_not_change_results() {
        let n = 40;
        let g0 = KnnGraph::random_init(n, 3, 13);
        let mut graphs = Vec::new();
        for repartition in [true, false] {
            let (_, profiles, wd) = small_world(n, 13);
            let config = EngineConfig::builder(n)
                .k(3)
                .num_partitions(5)
                .repartition_each_iteration(repartition)
                .seed(13)
                .build()
                .unwrap();
            let mut engine =
                KnnEngine::with_initial_graph(config, g0.clone(), profiles, wd).unwrap();
            for _ in 0..2 {
                engine.run_iteration().unwrap();
            }
            graphs.push(engine.graph().clone());
            engine.into_working_dir().destroy().unwrap();
        }
        assert_eq!(graphs[0], graphs[1], "layout must not affect results");
    }
}
