//! In-memory span recorder and the two timing seams that give child
//! spans from inside the program without changing it: a [`ChunkSource`]
//! wrapper for stream pulls and a [`BatchBackend`] wrapper for service
//! kernels.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scan_core::segmented::Segments;
use scan_core::stream::ChunkSource;
use scan_core::ScanDeadline;
use scan_service::{BatchBackend, ScanKind};

use crate::json;

/// One timed interval. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The workload op this span belongs to.
    pub op: u64,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last, as `(id, op)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Spans of one run, kept in memory until [`Trace::write_jsonl`].
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` of op `op`; it ends when the guard
    /// drops. Guards on one thread must drop innermost first.
    pub fn enter(&self, name: &'static str, op: u64) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().map(|&(id, _)| id);
            o.push((id, op));
            parent
        });
        Guard {
            trace: self,
            span: Span {
                id,
                parent,
                name,
                op,
                thread: THREAD.with(|t| *t),
                start: self.now(),
                end: 0,
            },
        }
    }

    /// Run `f` inside a span named `name` of op `op`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name, op);
        f()
    }

    /// A span under whatever span is open on the calling thread, for
    /// the seams that run inside the program's own calls.
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let op = OPEN.with(|o| o.borrow().last().map_or(u64::MAX, |&(_, op)| op));
        self.span(name, op, f)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Write `header` and then one JSON object per span, a line each.
    pub fn write_jsonl(&self, header: &str, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{},\"op\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                json::string(s.name),
                s.op,
                s.thread,
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// An open span; dropping it records the span.
pub struct Guard<'t> {
    trace: &'t Trace,
    span: Span,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.span.end = self.trace.now();
        OPEN.with(|o| o.borrow_mut().pop());
        // A poisoned lock only means another recorder panicked; the
        // spans themselves are whole, so keep recording.
        let mut spans = self.trace.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(self.span);
    }
}

/// Open a span when `trace` is given; the guard ends it.
pub fn enter<'t>(trace: Option<&'t Trace>, name: &'static str, op: u64) -> Option<Guard<'t>> {
    trace.map(|t| t.enter(name, op))
}

/// Run `f` in a span when `trace` is given, bare otherwise.
pub fn span<R>(trace: Option<&Trace>, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.span(name, op, f),
        None => f(),
    }
}

/// A [`ChunkSource`] that records each pull as a `stream.pull` span;
/// the stream pulls from inside `step`, so pulls nest in step spans.
pub struct TimedSource<'t, C> {
    pub inner: C,
    pub trace: &'t Trace,
}

impl<T, C: ChunkSource<T>> ChunkSource<T> for TimedSource<'_, C> {
    fn next_chunk(&mut self, buf: &mut Vec<T>) -> usize {
        self.trace
            .child("stream.pull", || self.inner.next_chunk(buf))
    }

    fn seek(&mut self, chunk: u64) -> bool {
        self.inner.seek(chunk)
    }
}

/// A [`BatchBackend`] that records each kernel call as a
/// `service.kernel` span on whichever client thread leads the batch.
pub struct TimedBackend<B> {
    pub inner: B,
    pub trace: Arc<Trace>,
}

impl<B: BatchBackend> BatchBackend for TimedBackend<B> {
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        self.trace.child("service.kernel", || {
            self.inner.seg_scan(kind, values, segs, deadline)
        })
    }

    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        self.trace.child("service.kernel", || {
            self.inner.scan_one(kind, values, deadline)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::stream::SliceSource;

    #[test]
    fn spans_nest_on_one_thread_and_seams_attach_to_the_open_span() {
        let t = Trace::default();
        let data = [1u64, 2, 3, 4, 5];
        t.span("outer", 7, || {
            let mut src = TimedSource {
                inner: SliceSource::new(&data, 2),
                trace: &t,
            };
            let mut buf = Vec::new();
            assert_eq!(src.next_chunk(&mut buf), 2);
        });
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let pull = spans.iter().find(|s| s.name == "stream.pull").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(pull.parent, Some(outer.id));
        assert_eq!(pull.op, 7);
        assert!(outer.start <= pull.start && pull.end <= outer.end);
        assert_eq!(t.durations("stream.pull").len(), 1);

        let mut out = Vec::new();
        t.write_jsonl("{\"h\":1}", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\":\"stream.pull\""));
    }

    #[test]
    fn self_time_subtracts_a_child_that_ran_on_another_thread() {
        let t = Trace::default();
        let busy = || std::thread::sleep(std::time::Duration::from_millis(5));
        t.span("submit", 1, || {
            busy();
            // The batch leader runs the kernel on its own thread.
            std::thread::scope(|s| {
                s.spawn(|| t.span("service.kernel", 2, busy));
            });
            busy();
        });
        let spans = t.spans();
        let submit = spans.iter().find(|s| s.name == "submit").unwrap();
        let kernel = spans.iter().find(|s| s.name == "service.kernel").unwrap();
        assert_ne!(submit.thread, kernel.thread);
        assert_eq!(
            kernel.parent, None,
            "no span was open on the leader's thread"
        );
        let own =
            crate::stats::self_time((submit.start, submit.end), &[(kernel.start, kernel.end)]);
        assert_eq!(own, submit.ns() - kernel.ns());
        assert!(
            own >= 10_000_000,
            "two 5 ms sleeps are the submit's own time"
        );
    }
}
