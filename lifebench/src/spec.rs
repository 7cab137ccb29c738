//! The two workloads: `ooc_disk` (the paper's out-of-core setting,
//! served through `KnnService`) and `sharded_mem` (in-memory shards,
//! served through `ShardedKnnService`). Every engine setting and every
//! `RefineOptions` field the benchmark depends on is pinned here, so
//! no environment variable (`KNN_TEST_THREADS`, `KNN_TEST_PRUNE`) or
//! library default can change what is measured.

use std::time::Duration;

use knn_cluster::ClusterMethod;
use knn_core::{EngineConfig, EngineError, Heuristic, PartitionerKind};
use knn_datasets::WorkloadConfig;
use knn_serve::{AdmissionConfig, BreakerConfig, CoherenceBudget, OverloadPolicy, RefineOptions};
use knn_sim::Measure;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Disk,
    Mem,
}

/// Open-loop request rates, per second, one schedule per class.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub reads: f64,
    pub scans: f64,
    pub updates: f64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub profiles: WorkloadConfig,
    pub users: usize,
    pub k: usize,
    pub partitions: usize,
    pub cache_slots: usize,
    /// Phase-2 staging budget per scan table, bytes.
    pub staging: Option<usize>,
    pub partitioner: PartitionerKind,
    /// Cluster pre-pass with a cluster-seeded `G(0)`.
    pub cluster: bool,
    pub storage: Storage,
    pub shards: usize,
    /// Iterations of the fixed refinement schedule.
    pub schedule: u64,
}

pub const NAMES: [&str; 2] = ["ooc_disk", "sharded_mem"];

/// Processors available to the benchmark, recorded with each result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine worker threads: one, so the engine never competes with itself
/// for the few cores of a small host (two threads on two shared cores
/// swung the same schedule by half its time).
pub const THREADS: usize = 1;

/// The open-loop traffic every workload serves.
pub const RATES: Rates = Rates {
    reads: 2000.0,
    scans: 110.0,
    updates: 110.0,
};

pub fn lookup(name: &str) -> Option<Spec> {
    let spec = match name {
        "ooc_disk" => Spec {
            name: "ooc_disk",
            why: "the paper's setting: 12k users on disk, 2 of 16 partitions resident, small phase-2 budget; store I/O and spill/merge do the work; then served by KnnService",
            profiles: WorkloadConfig::recommender(),
            users: 12_000,
            k: 8,
            partitions: 16,
            cache_slots: 2,
            staging: Some(448 << 10),
            partitioner: PartitionerKind::Greedy,
            cluster: false,
            storage: Storage::Disk,
            shards: 1,
            schedule: 3,
        },
        "sharded_mem" => Spec {
            name: "sharded_mem",
            why: "the control: 2 in-memory shards, all partitions resident, cluster pre-pass; phase 4, shard exchange and ShardedKnnService work, a store change should not move it",
            profiles: WorkloadConfig::communities(),
            users: 12_000,
            k: 8,
            partitions: 8,
            cache_slots: 8,
            staging: None,
            partitioner: PartitionerKind::Cluster,
            cluster: true,
            storage: Storage::Mem,
            shards: 2,
            schedule: 3,
        },
        _ => return None,
    };
    Some(spec)
}

impl Spec {
    pub fn engine_config(&self, seed: u64, measure: Measure) -> Result<EngineConfig, EngineError> {
        EngineConfig::builder(self.users)
            .k(self.k)
            .num_partitions(self.partitions)
            .measure(measure)
            .heuristic(Heuristic::DegreeLowHigh)
            .partitioner(self.partitioner)
            .threads(THREADS)
            .cache_slots(self.cache_slots)
            .include_reverse(false)
            .repartition_each_iteration(true)
            .spill_threshold(1 << 20)
            .tuple_table_memory(self.staging)
            .legacy_tuple_pipeline(false)
            .parallel_threshold(knn_core::phase4::DEFAULT_PARALLEL_THRESHOLD)
            .prune_pairs(true)
            .bound_filter(true)
            .cluster_init(self.cluster)
            .num_clusters(None)
            .cluster_method(ClusterMethod::KMeans)
            .commit_protocol(true)
            .seed(seed)
            .build()
    }

    /// The refine loop of the serve phase: refines forever, repair on,
    /// bounded admission that rejects, the default-sized query cache.
    pub fn refine_options(&self) -> RefineOptions {
        RefineOptions {
            convergence_threshold: None,
            max_iterations: None,
            idle_park: Duration::from_millis(20),
            repair: true,
            admission: AdmissionConfig {
                capacity: Some(4096),
                per_user_capacity: None,
                policy: OverloadPolicy::Reject,
                shed_watermark: 0.75,
            },
            query_cache: 1024,
            coherence: CoherenceBudget {
                attempts: 32,
                wall: Duration::from_millis(20),
            },
            breaker: BreakerConfig {
                base: Duration::from_millis(10),
                cap: Duration::from_secs(1),
            },
        }
    }
}
