//! A [`StorageBackend`] decorator that times every call into the
//! storage layer from outside it. Used only by the traced run: it
//! forwards every trait method (defaulted ones included) so the engine
//! takes exactly the paths it takes on the bare backend, which
//! [`self_test`] checks.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use knn_store::{IoStats, StorageBackend, StoreError, StreamId, WorkingDir};

use crate::trace::Tracer;

/// The op classes the per-layer metrics report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read,
    ReadChunk,
    Write,
    Copy,
    Append,
    Delete,
    /// `exists`, `list`, log reads and truncation, usage queries.
    Other,
}

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::ReadChunk => "read_chunk",
            OpClass::Write => "write",
            OpClass::Copy => "copy",
            OpClass::Append => "append",
            OpClass::Delete => "delete",
            OpClass::Other => "other",
        }
    }
}

#[derive(Debug, Default)]
struct ClassCounters {
    busy_ns: AtomicU64,
    ops: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Busy time, op count and bytes per op class, shared by every
/// [`TimingBackend`] of one engine (all shards of a sharded one).
#[derive(Debug, Default)]
pub struct TimingStats {
    classes: [ClassCounters; 7],
}

/// A point-in-time copy of [`TimingStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingSnapshot {
    pub busy_ns: [u64; 7],
    pub ops: [u64; 7],
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl TimingSnapshot {
    pub fn busy_ms(&self, class: OpClass) -> f64 {
        self.busy_ns[class as usize] as f64 / 1e6
    }

    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    pub fn since(&self, earlier: &TimingSnapshot) -> TimingSnapshot {
        let mut out = *self;
        for i in 0..7 {
            out.busy_ns[i] -= earlier.busy_ns[i];
            out.ops[i] -= earlier.ops[i];
        }
        out.bytes_read -= earlier.bytes_read;
        out.bytes_written -= earlier.bytes_written;
        out
    }
}

impl TimingStats {
    pub fn snapshot(&self) -> TimingSnapshot {
        let mut s = TimingSnapshot::default();
        for (i, c) in self.classes.iter().enumerate() {
            s.busy_ns[i] = c.busy_ns.load(Ordering::Relaxed);
            s.ops[i] = c.ops.load(Ordering::Relaxed);
            s.bytes_read += c.bytes_read.load(Ordering::Relaxed);
            s.bytes_written += c.bytes_written.load(Ordering::Relaxed);
        }
        s
    }
}

/// The timing decorator. `tracer`, when set, also receives one span
/// per call, parented to the iteration in flight.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn StorageBackend>,
    stats: Arc<TimingStats>,
    tracer: Option<Arc<Tracer>>,
}

impl TimingBackend {
    pub fn new(
        inner: Arc<dyn StorageBackend>,
        stats: Arc<TimingStats>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        TimingBackend {
            inner,
            stats,
            tracer,
        }
    }

    fn timed<T>(
        &self,
        class: OpClass,
        op: impl FnOnce() -> Result<T, StoreError>,
        bytes: impl FnOnce(&T) -> (u64, u64),
    ) -> Result<T, StoreError> {
        let started = Instant::now();
        let out = op();
        let elapsed = started.elapsed();
        let c = &self.stats.classes[class as usize];
        c.busy_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        c.ops.fetch_add(1, Ordering::Relaxed);
        if let Ok(value) = &out {
            let (read, written) = bytes(value);
            c.bytes_read.fetch_add(read, Ordering::Relaxed);
            c.bytes_written.fetch_add(written, Ordering::Relaxed);
        }
        if let Some(tracer) = &self.tracer {
            tracer.store_op(class.name(), started, elapsed);
        }
        out
    }
}

fn none<T>(_: &T) -> (u64, u64) {
    (0, 0)
}

impl StorageBackend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        self.timed(
            OpClass::Read,
            || self.inner.read(stream),
            |v| (v.len() as u64, 0),
        )
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.timed(
            OpClass::ReadChunk,
            || self.inner.read_chunk(stream, offset, len),
            |v| (v.len() as u64, 0),
        )
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        let n = payload.len() as u64;
        self.timed(
            OpClass::Write,
            || self.inner.write(stream, payload),
            |_| (0, n),
        )
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        let n = framed.len() as u64;
        self.timed(
            OpClass::Write,
            || self.inner.write_raw(stream, framed),
            |_| (0, n),
        )
    }

    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        self.timed(OpClass::Copy, || self.inner.copy_stream(from, to), none)
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        self.timed(OpClass::Delete, || self.inner.delete(stream), none)
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.timed(OpClass::Other, || Ok(self.inner.exists(stream)), none)
            .unwrap_or(false)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        self.timed(OpClass::Other, || self.inner.list(), none)
    }

    fn clear_tuples(&self) -> Result<(), StoreError> {
        self.timed(OpClass::Delete, || self.inner.clear_tuples(), none)
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let n = bytes.len() as u64;
        self.timed(
            OpClass::Append,
            || self.inner.append_updates(bytes),
            |_| (0, n),
        )
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        self.timed(
            OpClass::Other,
            || self.inner.read_updates(),
            |v| (v.len() as u64, 0),
        )
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        self.timed(OpClass::Other, || self.inner.truncate_updates(), none)
    }

    fn repair_update_log(&self) -> Result<Option<String>, StoreError> {
        self.timed(OpClass::Other, || self.inner.repair_update_log(), none)
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        self.timed(OpClass::Other, || self.inner.storage_usage(), none)
    }

    fn describe(&self, stream: StreamId) -> PathBuf {
        self.inner.describe(stream)
    }

    fn working_dir(&self) -> Option<&WorkingDir> {
        self.inner.working_dir()
    }
}

/// Runs one small disk-backed engine twice, bare and behind the timing
/// backend, and fails unless the graphs, `IoStats` snapshots and the
/// bytes left in storage are identical and every op class was seen.
pub fn self_test(root: &std::path::Path, seed: u64) -> Result<(), String> {
    use knn_core::{EngineConfig, KnnEngine};
    use knn_datasets::WorkloadConfig;
    use knn_store::DiskBackend;

    let n = 600;
    let workload = WorkloadConfig::recommender().build(n, seed);
    let run = |timed: Option<Arc<TimingStats>>, dir: PathBuf| -> Result<_, String> {
        let disk: Arc<dyn StorageBackend> =
            Arc::new(DiskBackend::create(&dir).map_err(|e| format!("self-test workdir: {e}"))?);
        let backend: Arc<dyn StorageBackend> = match &timed {
            Some(stats) => Arc::new(TimingBackend::new(
                Arc::clone(&disk),
                Arc::clone(stats),
                None,
            )),
            None => Arc::clone(&disk),
        };
        let config = EngineConfig::builder(n)
            .k(6)
            .num_partitions(4)
            .cache_slots(2)
            .threads(1)
            .prune_pairs(true)
            .bound_filter(true)
            .tuple_table_memory(Some(4 << 10))
            .commit_protocol(true)
            .seed(seed)
            .build()
            .map_err(|e| e.to_string())?;
        let mut engine = KnnEngine::new_on(config, workload.profiles.clone(), backend)
            .map_err(|e| e.to_string())?;
        for i in 0..3u32 {
            let user = knn_graph::UserId::new(i * 7);
            let delta = knn_sim::ProfileDelta::set(user, knn_sim::ItemId::new(900_000 + i), 1.0);
            engine.queue_update(&delta).map_err(|e| e.to_string())?;
            engine.run_iteration().map_err(|e| e.to_string())?;
        }
        let graph = engine.graph().clone();
        let io = engine.io_snapshot();
        drop(engine);
        let mut bytes = Vec::new();
        let mut streams = disk.list().map_err(|e| e.to_string())?;
        streams.sort_by_key(|s| s.to_string());
        for s in streams {
            bytes.push((s.to_string(), disk.read(s).map_err(|e| e.to_string())?));
        }
        bytes.push((
            "updates".into(),
            disk.read_updates().map_err(|e| e.to_string())?,
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Ok((graph, io, bytes))
    };
    let stats = Arc::new(TimingStats::default());
    let bare = run(None, root.join("selftest-bare"))?;
    let timed = run(Some(Arc::clone(&stats)), root.join("selftest-timed"))?;
    if bare.0 != timed.0 {
        return Err("timing backend changed the computed graph".into());
    }
    if bare.1 != timed.1 {
        return Err(format!(
            "timing backend changed IoStats: {} vs {}",
            bare.1, timed.1
        ));
    }
    if bare.2 != timed.2 {
        return Err("timing backend changed the committed bytes".into());
    }
    let seen = stats.snapshot();
    for class in [
        OpClass::Read,
        OpClass::Write,
        OpClass::Copy,
        OpClass::Append,
        OpClass::Delete,
    ] {
        if seen.ops[class as usize] == 0 {
            return Err(format!("timing backend saw no {} ops", class.name()));
        }
    }
    forwarding_check(&root.join("selftest-forward"))
}

/// Calls each defaulted trait method through the decorator and checks
/// that the wrapped backend's own implementation answered: a trait
/// default would show up as different results or as extra ops.
fn forwarding_check(dir: &std::path::Path) -> Result<(), String> {
    use knn_store::DiskBackend;

    let err = |e: StoreError| e.to_string();
    let disk: Arc<dyn StorageBackend> =
        Arc::new(DiskBackend::create(dir).map_err(|e| format!("self-test workdir: {e}"))?);
    let stats = Arc::new(TimingStats::default());
    let t = TimingBackend::new(Arc::clone(&disk), Arc::clone(&stats), None);
    let result = (|| -> Result<(), String> {
        t.write(StreamId::Profiles(0), b"forwarding check")
            .map_err(err)?;
        let io = disk.stats().snapshot();
        let before = stats.snapshot();
        // Native copy: one copy op, never the default read + write.
        t.copy_stream(StreamId::Profiles(0), StreamId::Profiles(1))
            .map_err(err)?;
        let d = stats.snapshot().since(&before);
        if d.ops[OpClass::Copy as usize] != 1 || d.total_ops() != 1 {
            return Err("copy_stream did not reach the wrapped backend".into());
        }
        let len = (b"forwarding check".len() + 4) as u64;
        let native = knn_store::IoSnapshot {
            bytes_read: len,
            bytes_written: len,
            read_ops: 1,
            write_ops: 1,
            ..Default::default()
        };
        if disk.stats().snapshot() - io != native {
            return Err("copy_stream metered differently from the native copy".into());
        }
        // A raw frame, which the trait default refuses.
        t.write_raw(StreamId::Profiles(2), b"raw frame")
            .map_err(err)?;
        if !disk.exists(StreamId::Profiles(2)) {
            return Err("write_raw did not reach the wrapped backend".into());
        }
        // Native clear: one op, never the default list + deletes.
        t.write(StreamId::TupleBucket(0, 1), b"x").map_err(err)?;
        let before = stats.snapshot();
        t.clear_tuples().map_err(err)?;
        if stats.snapshot().since(&before).total_ops() != 1
            || disk.exists(StreamId::TupleBucket(0, 1))
        {
            return Err("clear_tuples did not reach the wrapped backend".into());
        }
        // A torn log tail: one forwarded call, never the default's
        // read + truncate through the decorator.
        t.append_updates(b"\x01torn").map_err(err)?;
        let before = stats.snapshot();
        let repaired = t.repair_update_log().map_err(err)?;
        if repaired.is_none()
            || stats.snapshot().since(&before).total_ops() != 1
            || !disk.read_updates().map_err(err)?.is_empty()
        {
            return Err("repair_update_log did not reach the wrapped backend".into());
        }
        if t.storage_usage().map_err(err)? != disk.storage_usage().map_err(err)? {
            return Err("storage_usage differs from the wrapped backend".into());
        }
        if t.describe(StreamId::Meta) != disk.describe(StreamId::Meta) {
            return Err("describe differs from the wrapped backend".into());
        }
        if t.working_dir() != disk.working_dir() || t.working_dir().is_none() {
            return Err("working_dir differs from the wrapped backend".into());
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}
