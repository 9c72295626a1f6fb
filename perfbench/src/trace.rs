//! Spans recorded from the benchmark's own files, around calls into the
//! program's public functions: a root span per client operation, and a
//! child span per spill-medium call made through [`TimedMedium`]. Spans
//! are kept in memory (name, start, end, parent, op id) and written out
//! as JSON lines at the end of a run.

use cc_core::medium::SpillMedium;
use std::cell::Cell;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent` and `op` are 0 for background work outside any operation.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

thread_local! {
    /// The root span open on this thread: (span id, op id).
    static CURRENT: Cell<Option<(u32, u64)>> = const { Cell::new(None) };
    /// Child-span time accumulated under the open root span.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    /// Spans not kept because the buffer was full.
    dropped: AtomicU64,
}

/// Bound on spans kept per run, so a long traced run stays small.
const SPAN_CAP: usize = 100_000;

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAP)),
            cap: SPAN_CAP,
            dropped: AtomicU64::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run `f` as the root span of operation `op`. Returns `f`'s result,
    /// the span's duration, and the part of it child spans covered.
    pub fn root<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CURRENT.with(|c| c.set(Some((id, op))));
        CHILD_NS.with(|c| c.set(0));
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(None));
        let child = CHILD_NS.with(|c| c.get());
        self.record(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: 0,
            op,
        });
        (r, end_ns - start_ns, child)
    }

    /// Record a root span timed by the caller (a pipelined request, sent
    /// and answered at different points of the client loop).
    pub fn finished(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.record(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent: 0,
            op,
        });
    }

    /// Run `f` as a child of whatever root span is open on this thread
    /// (none on a background thread). Returns `f`'s result, its duration,
    /// and whether it ran inside an operation.
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64, bool) {
        let parent = CURRENT.with(|c| c.get());
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let dur = end_ns - start_ns;
        if parent.is_some() {
            CHILD_NS.with(|c| c.set(c.get() + dur));
        }
        let (parent_id, op) = parent.unwrap_or((0, 0));
        self.record(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            parent: parent_id,
            op,
        });
        (r, dur, parent.is_some())
    }

    /// Write every kept span as one JSON object per line. Returns how
    /// many were written and how many the cap dropped.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<(usize, u64)> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op
            )?;
        }
        out.flush()?;
        Ok((spans.len(), self.dropped.load(Ordering::Relaxed)))
    }
}

/// Per-medium call counts and timings gathered by [`TimedMedium`].
#[derive(Default)]
pub struct MediumStats {
    /// Reads issued on a thread inside a client operation (a GET's own
    /// spill read, as opposed to the writer's GC reads).
    pub op_reads: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub flushes: AtomicU64,
    /// Nanoseconds spent inside any call.
    pub busy_ns: AtomicU64,
    read_ns: Mutex<Vec<u64>>,
    write_ns: Mutex<Vec<u64>>,
}

impl MediumStats {
    fn sample(list: &Mutex<Vec<u64>>, ns: u64) {
        list.lock().expect("medium samples poisoned").push(ns);
    }

    /// Zero every count and drop every sample (start of a phase).
    pub fn reset(&self) {
        for c in [
            &self.op_reads,
            &self.writes,
            &self.write_bytes,
            &self.flushes,
            &self.busy_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.read_ns
            .lock()
            .expect("medium samples poisoned")
            .clear();
        self.write_ns
            .lock()
            .expect("medium samples poisoned")
            .clear();
    }

    /// Sorted read latencies, nanoseconds.
    pub fn read_ns(&self) -> Vec<u64> {
        let mut v = self
            .read_ns
            .lock()
            .expect("medium samples poisoned")
            .clone();
        v.sort_unstable();
        v
    }

    /// Sorted write latencies, nanoseconds.
    pub fn write_ns(&self) -> Vec<u64> {
        let mut v = self
            .write_ns
            .lock()
            .expect("medium samples poisoned")
            .clone();
        v.sort_unstable();
        v
    }
}

/// A [`SpillMedium`] that times every call into the medium it wraps and
/// records each as a span.
pub struct TimedMedium<M> {
    inner: M,
    tracer: Arc<Tracer>,
    stats: Arc<MediumStats>,
    read_span: &'static str,
    write_span: &'static str,
}

impl<M: SpillMedium> TimedMedium<M> {
    /// `role` names the spans: `medium` for spill data, `journal` for
    /// the location-map journal.
    pub fn new(inner: M, role: &str, tracer: Arc<Tracer>) -> (TimedMedium<M>, Arc<MediumStats>) {
        let (read_span, write_span) = match role {
            "journal" => ("journal.read_at", "journal.write_at"),
            _ => ("medium.read_at", "medium.write_at"),
        };
        let stats = Arc::new(MediumStats::default());
        let timed = TimedMedium {
            inner,
            tracer,
            stats: Arc::clone(&stats),
            read_span,
            write_span,
        };
        (timed, stats)
    }
}

impl<M: SpillMedium> SpillMedium for TimedMedium<M> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let (r, ns, in_op) = self
            .tracer
            .child(self.read_span, || self.inner.read_at(buf, offset));
        let s = &self.stats;
        if in_op {
            s.op_reads.fetch_add(1, Ordering::Relaxed);
        }
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
        MediumStats::sample(&s.read_ns, ns);
        r
    }

    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        let (r, ns, _) = self
            .tracer
            .child(self.write_span, || self.inner.write_at(data, offset));
        let s = &self.stats;
        s.writes.fetch_add(1, Ordering::Relaxed);
        s.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
        MediumStats::sample(&s.write_ns, ns);
        r
    }

    fn flush(&self) -> io::Result<()> {
        let (r, ns, _) = self.tracer.child("medium.flush", || self.inner.flush());
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let (r, ns, _) = self
            .tracer
            .child("medium.set_len", || self.inner.set_len(len));
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::medium::MemMedium;

    #[test]
    fn child_spans_attach_to_the_open_root_and_sum_into_it() {
        let tracer = Tracer::new();
        let (medium, stats) = TimedMedium::new(MemMedium::new(), "medium", Arc::clone(&tracer));
        medium.write_at(&[1, 2, 3, 4], 0).unwrap();
        let ((), root_ns, child_ns) = tracer.root("get", 42, || {
            let mut buf = [0u8; 4];
            medium.read_at(&mut buf, 0).unwrap();
            assert_eq!(buf, [1, 2, 3, 4]);
        });
        assert!(child_ns <= root_ns);
        assert_eq!(stats.op_reads.load(Ordering::Relaxed), 1);
        assert_eq!(stats.write_bytes.load(Ordering::Relaxed), 4);
        let spans = tracer.spans.lock().unwrap();
        let root = spans.iter().find(|s| s.name == "get").unwrap();
        let read = spans.iter().find(|s| s.name == "medium.read_at").unwrap();
        let write = spans.iter().find(|s| s.name == "medium.write_at").unwrap();
        assert_eq!((read.parent, read.op), (root.id, 42));
        assert_eq!((write.parent, write.op), (0, 0), "outside any op");
        assert!(root.start_ns <= read.start_ns && read.end_ns <= root.end_ns);
    }
}
