//! In-memory span recorder for the traced run. Spans are recorded
//! around every public call the benchmark makes into the system (and,
//! through the timing backend, around every storage call), kept in
//! memory, and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::util::quote;

/// Spans kept per run; storage-op spans past this are counted but
/// not stored, so a long run cannot grow memory without bound.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    /// Shared by every span of one request (0 outside requests).
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Laid out from a report's durations instead of timed directly.
    derived: bool,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// The iteration span in flight; storage-op spans hang off it.
    iteration: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            iteration: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        derived: bool,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            derived,
        };
        let mut spans = self.spans.lock().expect("span lock");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished span under `parent` and returns its id.
    pub fn span(&self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id();
        self.close(id, name, parent, start, end);
        id
    }

    /// Records the span whose id was taken with [`Tracer::next_id`]
    /// before its children were recorded.
    pub fn close(&self, id: u64, name: &'static str, parent: u64, start: Instant, end: Instant) {
        self.push(id, parent, 0, name, start, end, false);
    }

    /// One request: a span from when it was due to its completion and,
    /// under it, the call itself; both carry the request's id.
    pub fn request(&self, call: &'static str, due: Instant, began: Instant, ended: Instant) {
        let id = self.next_id();
        self.push(id, 0, id, "gen.request", due, ended, false);
        self.push(self.next_id(), id, id, call, began, ended, false);
    }

    /// Opens an iteration: later storage-op spans take it as parent.
    pub fn begin_iteration(&self) -> u64 {
        let id = self.next_id();
        self.iteration.store(id, Ordering::Relaxed);
        id
    }

    /// Closes the iteration opened as `id` and lays its five phases
    /// end to end from the report's durations, marked as derived. The
    /// remainder of the iteration is its self time (the commit).
    pub fn end_iteration(
        &self,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        phases: &[Duration; 5],
    ) {
        self.iteration.store(0, Ordering::Relaxed);
        const NAMES: [&str; 5] = [
            "core.phase1",
            "core.phase2",
            "core.phase3",
            "core.phase4",
            "core.phase5",
        ];
        let mut at = start;
        for (name, d) in NAMES.iter().zip(phases) {
            let next = at + *d;
            self.push(self.next_id(), id, 0, name, at, next, true);
            at = next;
        }
        self.close(id, "core.iteration", parent, start, end);
    }

    pub fn store_op(&self, class: &'static str, start: Instant, elapsed: Duration) {
        let parent = self.iteration.load(Ordering::Relaxed);
        let name = store_span_name(class);
        self.push(
            self.next_id(),
            parent,
            0,
            name,
            start,
            start + elapsed,
            false,
        );
    }

    pub fn span_count(&self) -> u64 {
        self.spans.lock().expect("span lock").len() as u64 + self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span lock");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.id,
                s.parent,
                s.request,
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.derived
            )?;
        }
        writeln!(
            out,
            "{{\"dropped\":{}}}",
            self.dropped.load(Ordering::Relaxed)
        )?;
        out.flush()
    }
}

fn store_span_name(class: &'static str) -> &'static str {
    match class {
        "read" => "store.read",
        "read_chunk" => "store.read_chunk",
        "write" => "store.write",
        "copy" => "store.copy",
        "append" => "store.append",
        "delete" => "store.delete",
        _ => "store.other",
    }
}
