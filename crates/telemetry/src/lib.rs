//! Deterministic observability for the Borges pipeline.
//!
//! Three layers, one handle:
//!
//! - **Spans** ([`span`]): hierarchical, clock-injected trace of what a
//!   run did, canonicalizable to a schedule-independent journal.
//! - **Metrics** ([`metrics`]): named counters and fixed-bucket duration
//!   histograms with snapshot/merge/Prometheus exposition.
//! - **Ledger** ([`report`]): the [`RunReport`] document unifying stage
//!   funnels, coverage, resilience spend, caches, breaker events, and
//!   worker timings.
//!
//! The [`Telemetry`] handle is cheap to clone, thread-safe, and has a
//! [`Telemetry::disabled`] state in which every operation is a no-op —
//! uninstrumented callers pay one branch. Time comes from an injected
//! [`borges_resilience::Clock`]; under [`borges_resilience::SimClock`]
//! (the default for tests and simulation) a fault-free run is *fully
//! deterministic*: all timestamps are zero, and sequential vs. parallel
//! execution produce byte-identical canonical trace journals and metrics
//! snapshots. That determinism contract is the keystone — see DESIGN.md
//! §8 — and is pinned by `tests/telemetry.rs` at the workspace root.

#![deny(missing_docs)]

pub mod access;
pub mod ingest;
pub mod metrics;
pub mod report;
pub mod span;
pub mod verbosity;

pub use access::{duration_bucket_label, AccessLogWriter, AccessRecord, RingBuffer};
pub use metrics::{
    escape_label_value, labeled, CounterSample, Histogram, HistogramSample, MetricsRegistry,
    MetricsSnapshot, DURATION_BUCKETS_MS,
};
pub use report::{
    BreakerEvent, CacheReport, CacheStats, CoverageRow, CrawlFunnel, DeltaEdgeRow, DeltaRecordRow,
    DeltaReport, EvidenceSummary, FaviconFunnel, NerFunnel, ResilienceRow, RrFunnel, RunReport,
    TimelineReport, WorkerTiming, RUN_REPORT_SCHEMA,
};
pub use span::{
    canonicalize, to_jsonl, CanonicalSpan, Span, SpanField, SpanKind, SpanRecord, TraceSink,
};
pub use verbosity::{Narrator, Verbosity};

use borges_resilience::{Clock, Guarded, SimClock};
use parking_lot::Mutex;
use std::sync::Arc;

/// The shared observability context for one pipeline run.
///
/// Clone it freely — all clones share the same sink, registry, and clock.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    clock: Arc<dyn Clock>,
    trace: TraceSink,
    metrics: MetricsRegistry,
    breaker_events: Mutex<Vec<BreakerEvent>>,
    workers: Mutex<Vec<WorkerTiming>>,
    narrator: Narrator,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An enabled context on the given clock and narration level.
    pub fn new(clock: Arc<dyn Clock>, verbosity: Verbosity) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock,
                trace: TraceSink::new(),
                metrics: MetricsRegistry::new(),
                breaker_events: Mutex::new(Vec::new()),
                workers: Mutex::new(Vec::new()),
                narrator: Narrator::new(verbosity),
            })),
        }
    }

    /// An enabled context on a fresh [`SimClock`] — the deterministic
    /// default for tests and simulation runs.
    pub fn sim(verbosity: Verbosity) -> Self {
        Telemetry::new(Arc::new(SimClock::new()), verbosity)
    }

    /// The no-op context: every operation is a cheap branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this context records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub(crate) fn with_inner<T>(&self, f: impl FnOnce(&Inner) -> T) -> Option<T> {
        self.inner.as_deref().map(f)
    }

    /// The context's clock (a fresh [`SimClock`] when disabled), for
    /// sharing with retry wrappers so trace timestamps and backoff spend
    /// agree.
    pub fn clock(&self) -> Arc<dyn Clock> {
        match &self.inner {
            Some(inner) => inner.clock.clone(),
            None => Arc::new(SimClock::new()),
        }
    }

    /// Current clock reading (0 when disabled).
    pub fn now_ms(&self) -> u64 {
        self.with_inner(|i| i.clock.now_ms()).unwrap_or(0)
    }

    /// Opens a root logical span.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self, None, name, SpanKind::Logical)
    }

    /// Adds `delta` to a named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        self.with_inner(|i| i.metrics.counter(name, delta));
    }

    /// Records a duration observation in a named histogram.
    pub fn observe_ms(&self, name: &str, ms: u64) {
        self.with_inner(|i| i.metrics.observe_ms(name, ms));
    }

    /// Freezes the metrics registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.with_inner(|i| i.metrics.snapshot())
            .unwrap_or_default()
    }

    /// Records a breaker state transition.
    pub fn record_breaker_event(&self, event: BreakerEvent) {
        self.with_inner(|i| i.breaker_events.lock().push(event));
    }

    /// Stamps one guarded call at a resilient boundary (`web`,
    /// `llm.ner`, …) under the metric prefix `borges_<boundary>` with
    /// dots as underscores: the `calls`, `attempts`, `recovered`,
    /// `abandoned` and `breaker_fast_fails` counters (`_total`), the
    /// call's duration in the `_call_ms` histogram, and on a trip the
    /// `_breaker_trips_total` counter plus a [`BreakerEvent`] for `key`
    /// at the call's end time.
    pub fn record_guarded<T>(&self, boundary: &str, key: &str, call: &Guarded<T>) {
        if !self.is_enabled() {
            return;
        }
        let prefix = format!("borges_{}", boundary.replace('.', "_"));
        let metric = |suffix: &str| format!("{prefix}_{suffix}");
        let outcome = &call.outcome;
        self.counter(&metric("calls_total"), 1);
        self.counter(&metric("attempts_total"), u64::from(outcome.attempts));
        if outcome.recovered() {
            self.counter(&metric("recovered_total"), 1);
        }
        if outcome.result.is_err() {
            self.counter(&metric("abandoned_total"), 1);
        }
        if call.fast_fails > 0 {
            self.counter(&metric("breaker_fast_fails_total"), call.fast_fails);
        }
        self.observe_ms(&metric("call_ms"), call.elapsed_ms);
        if call.trips > 0 {
            self.counter(&metric("breaker_trips_total"), call.trips);
            self.record_breaker_event(BreakerEvent {
                boundary: boundary.to_string(),
                key: key.to_string(),
                transition: "open".to_string(),
                at_ms: call.end_ms,
            });
        }
    }

    /// Folds what `recorded` holds into this context, as if the clock
    /// `recorded` ran on had started at `offset_ms` on this one:
    /// counters and histograms add up, and breaker events land
    /// `offset_ms` later. Spans, worker rows and narration are not
    /// carried over. This is how a stage recorded before its place on
    /// the run clock was known joins the run.
    pub fn absorb(&self, recorded: &Telemetry, offset_ms: u64) {
        self.with_inner(|i| {
            i.metrics.absorb(&recorded.metrics_snapshot());
            i.breaker_events
                .lock()
                .extend(
                    recorded
                        .breaker_events()
                        .into_iter()
                        .map(|event| BreakerEvent {
                            at_ms: event.at_ms + offset_ms,
                            ..event
                        }),
                );
        });
    }

    /// All breaker transitions recorded so far, in arrival order.
    pub fn breaker_events(&self) -> Vec<BreakerEvent> {
        self.with_inner(|i| i.breaker_events.lock().clone())
            .unwrap_or_default()
    }

    /// Records one parallel chunk's timing.
    pub fn record_worker(&self, timing: WorkerTiming) {
        self.with_inner(|i| i.workers.lock().push(timing));
    }

    /// All chunk timings recorded so far, in arrival order.
    pub fn worker_timings(&self) -> Vec<WorkerTiming> {
        self.with_inner(|i| i.workers.lock().clone())
            .unwrap_or_default()
    }

    /// All finished spans, in completion order.
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        self.with_inner(|i| i.trace.records()).unwrap_or_default()
    }

    /// The raw trace journal as JSONL (completion order, full records).
    pub fn trace_jsonl(&self) -> String {
        to_jsonl(&self.trace_records())
    }

    /// The canonical trace journal as JSONL: logical spans only, no ids,
    /// sorted — byte-identical across execution schedules.
    pub fn trace_jsonl_canonical(&self) -> String {
        to_jsonl(&canonicalize(&self.trace_records()))
    }

    /// The narration level (Quiet when disabled).
    pub fn verbosity(&self) -> Verbosity {
        self.with_inner(|i| i.narrator.level())
            .unwrap_or(Verbosity::Quiet)
    }

    /// Narrates an error (never silenced; no-op only when disabled).
    pub fn error(&self, msg: impl AsRef<str>) {
        self.with_inner(|i| i.narrator.error(msg.as_ref()));
    }

    /// Narrates at normal level.
    pub fn info(&self, msg: impl AsRef<str>) {
        self.with_inner(|i| i.narrator.info(msg.as_ref()));
    }

    /// Narrates at `-v` level.
    pub fn verbose(&self, msg: impl AsRef<str>) {
        self.with_inner(|i| i.narrator.verbose(msg.as_ref()));
    }

    /// Narrates at `-vv` level.
    pub fn debug(&self, msg: impl AsRef<str>) {
        self.with_inner(|i| i.narrator.debug(msg.as_ref()));
    }

    /// Every narration line actually emitted.
    pub fn narration(&self) -> Vec<String> {
        self.with_inner(|i| i.narrator.emitted())
            .unwrap_or_default()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::sim(Verbosity::Quiet);
        let other = tel.clone();
        other.counter("x_total", 2);
        tel.counter("x_total", 1);
        assert_eq!(tel.metrics_snapshot().counter("x_total"), 3);
        {
            let _span = other.span("run");
        }
        assert_eq!(tel.trace_records().len(), 1);
    }

    #[test]
    fn disabled_context_is_inert_everywhere() {
        let tel = Telemetry::disabled();
        tel.counter("x_total", 1);
        tel.observe_ms("y_ms", 5);
        tel.record_breaker_event(BreakerEvent::default());
        tel.record_worker(WorkerTiming::default());
        tel.info("nope");
        assert_eq!(tel.metrics_snapshot(), MetricsSnapshot::default());
        assert!(tel.breaker_events().is_empty());
        assert!(tel.worker_timings().is_empty());
        assert!(tel.narration().is_empty());
        assert_eq!(tel.now_ms(), 0);
        assert_eq!(tel.verbosity(), Verbosity::Quiet);
    }

    #[test]
    fn absorb_adds_metrics_and_shifts_breaker_events() {
        let tel = Telemetry::sim(Verbosity::Quiet);
        tel.counter("x_total", 1);
        tel.observe_ms("y_ms", 5);
        let recorded = Telemetry::sim(Verbosity::Quiet);
        recorded.counter("x_total", 2);
        recorded.counter("z_total", 0);
        recorded.observe_ms("y_ms", 700);
        recorded.record_breaker_event(BreakerEvent {
            boundary: "llm.ner".to_string(),
            at_ms: 40,
            ..BreakerEvent::default()
        });
        drop(recorded.span("not carried"));
        tel.absorb(&recorded, 1_000);

        let direct = MetricsRegistry::new();
        direct.counter("x_total", 3);
        direct.counter("z_total", 0);
        direct.observe_ms("y_ms", 5);
        direct.observe_ms("y_ms", 700);
        assert_eq!(tel.metrics_snapshot(), direct.snapshot());
        let events = tel.breaker_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].boundary.as_str(), events[0].at_ms),
            ("llm.ner", 1_040)
        );
        assert!(tel.trace_records().is_empty());

        // A disabled context absorbs nothing.
        Telemetry::disabled().absorb(&recorded, 1);
    }

    #[test]
    fn telemetry_clock_drives_span_timestamps() {
        let tel = Telemetry::sim(Verbosity::Quiet);
        let clock = tel.clock();
        {
            let span = tel.span("run");
            clock.sleep_ms(250);
            let _inner = span.child("stage");
            clock.sleep_ms(50);
        }
        let records = tel.trace_records();
        let stage = records.iter().find(|r| r.path == "run/stage").unwrap();
        assert_eq!((stage.start_ms, stage.end_ms), (250, 300));
        let run = records.iter().find(|r| r.path == "run").unwrap();
        assert_eq!((run.start_ms, run.end_ms), (0, 300));
    }

    #[test]
    fn contexts_are_send_and_sync() {
        fn check<T: Send + Sync + Clone>() {}
        check::<Telemetry>();
    }
}
