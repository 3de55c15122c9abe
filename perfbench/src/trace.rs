//! Wall-clock spans recorded around every call the harness makes into a
//! layer. Spans stay in memory and are read back once the run ends.
//!
//! With tracing off a [`Tracer`] records nothing: [`Tracer::span`] runs
//! its closure and hands it parent id 0, so the untraced run pays one
//! branch per layer call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// A span id; 0 means "no span" (the root's parent, or tracing off).
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span.
    pub id: SpanId,
    /// The span that caused it.
    pub parent: SpanId,
    /// Layer-qualified name, `crate.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start: u64,
    /// End, nanoseconds since the tracer was created.
    pub end: u64,
    /// The request the span belongs to (in-process serve replay), or 0.
    pub request: u64,
}

impl SpanRecord {
    /// The span's interval.
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder shared by the harness and the boundary wrappers.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    /// Parent for spans the remote-boundary wrappers open from worker
    /// threads: the pipeline call that is running them.
    ambient: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn allocate(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span (no-op with tracing off); returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        start: u64,
        end: u64,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.allocate();
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(SpanRecord {
                id,
                parent,
                name,
                start,
                end,
                request,
            });
        id
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own calls on.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.allocate();
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(SpanRecord {
                id,
                parent,
                name,
                start,
                end,
                request: 0,
            });
        out
    }

    /// [`Tracer::span`] that also makes the new span the ambient parent
    /// of every boundary-wrapper span opened while `f` runs — how a
    /// fetch on a crawl worker thread finds the pipeline call it serves.
    pub fn pipeline_span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        self.span(name, parent, |id| {
            let previous = self.ambient.swap(id, Ordering::SeqCst);
            let out = f();
            self.ambient.store(previous, Ordering::SeqCst);
            out
        })
    }

    /// Records a remote call made by a boundary wrapper: the whole call
    /// as `call` under the ambient pipeline span, and its modeled wait
    /// (`start..waited`) as a `wait` child of it.
    pub fn remote(
        &self,
        call: &'static str,
        wait: &'static str,
        start: u64,
        waited: u64,
        end: u64,
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.ambient.load(Ordering::SeqCst);
        let id = self.record(call, parent, start, end, 0);
        self.record(wait, id, start, waited, 0);
    }

    /// Everything recorded so far, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log lock poisoned").clone()
    }
}

/// A read-only view over a finished span log, indexed for the queries
/// the per-layer report makes.
pub struct Trace {
    spans: Vec<SpanRecord>,
    children: BTreeMap<SpanId, Vec<usize>>,
}

impl Trace {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<SpanRecord>) -> Trace {
        let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            children.entry(span.parent).or_default().push(i);
        }
        Trace { spans, children }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The span with id `id`.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Direct children of `id`.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &SpanRecord> {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
    }

    /// Every span below `id`, depth first.
    pub fn descendants(&self, id: SpanId) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        let mut stack: Vec<SpanId> = vec![id];
        while let Some(next) = stack.pop() {
            for child in self.children(next) {
                out.push(child);
                stack.push(child.id);
            }
        }
        out
    }

    /// A span's self time: duration minus the union of its children.
    pub fn self_time(&self, span: &SpanRecord) -> u64 {
        let kids: Vec<(u64, u64)> = self.children(span.id).map(SpanRecord::interval).collect();
        stats::self_time(span.interval(), &kids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_wrapper_calls_find_the_pipeline_call() {
        let tracer = Tracer::new(true);
        tracer.span("op", 0, |root| {
            tracer.span("layer.a", root, |_| {});
            tracer.pipeline_span("layer.pipeline", root, || {
                let t = tracer.now();
                tracer.remote("remote.call", "remote.wait", t, t + 5, t + 9);
            });
        });
        let trace = Trace::new(tracer.spans());
        let op = trace.children(0).next().expect("op span");
        assert_eq!(op.name, "op");
        let names: Vec<&str> = trace.children(op.id).map(|s| s.name).collect();
        assert_eq!(names, ["layer.a", "layer.pipeline"]);
        let pipeline = trace.children(op.id).nth(1).expect("pipeline span");
        let call = trace.children(pipeline.id).next().expect("remote call");
        assert_eq!(call.name, "remote.call");
        assert_eq!(trace.self_time(call), 4);
        assert_eq!(trace.descendants(op.id).len(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let seen = tracer.span("op", 0, |id| id);
        tracer.remote("remote.call", "remote.wait", 0, 1, 2);
        assert_eq!(seen, 0);
        assert!(tracer.spans().is_empty());
    }
}
