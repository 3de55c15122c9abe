//! The latency model: the two remote boundaries of a publish (page
//! fetches and LLM completions) as fixed real-time waits, injected
//! through the traits the pipeline already takes.
//!
//! Each wrapper sits *beneath* the cache in front of it — the
//! `Scraper`'s URL cache wraps the [`LatentWeb`] client and
//! `CachingModel` wraps the [`LatentModel`] — so only calls that reach
//! the remote side pay the wait, exactly as a cache hit would not touch
//! the network. Both count the calls that get through, and with tracing
//! on record each call (and its wait) as a child span of the pipeline
//! call that made it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use borges_llm::{ChatModel, ChatRequest, ChatResponse};
use borges_resilience::TransportError;
use borges_types::Url;
use borges_websim::{FetchResult, WebClient};

use crate::trace::Tracer;

/// Modeled wait per page fetch: the medium fixture of the workspace's
/// ingest bench.
pub const FETCH_WAIT: Duration = Duration::from_micros(200);

/// Modeled wait per LLM completion: the per-call cost of the remap
/// bench, slept (all but its last [`SPIN_BEFORE_END`]) rather than
/// spun because a remote API call waits.
pub const COMPLETION_WAIT: Duration = Duration::from_millis(2);

/// How long before the end of a modeled wait [`wait`] stops sleeping
/// and spins. On a VM a sleep overshoots by 55–90 µs at the median (50
/// µs of it the kernel's default timer slack) and by far more in the
/// tail, depending on how soon the host wakes the vCPU; slept in full,
/// a 200 µs fetch took 265–280 µs, and the host's share of every
/// publish moved with it.
const SPIN_BEFORE_END: Duration = Duration::from_micros(150);

/// Waits `d`: sleeps until [`SPIN_BEFORE_END`] before the end, then
/// spins to it, so the wait lasts `d` unless the host holds the thread
/// off its CPU past the end.
fn wait(d: Duration) {
    let end = Instant::now() + d;
    if let Some(sleep) = d.checked_sub(SPIN_BEFORE_END) {
        std::thread::sleep(sleep);
    }
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A web client that waits [`FETCH_WAIT`] before every fetch.
pub struct LatentWeb<'a, C> {
    inner: C,
    tracer: &'a Tracer,
    calls: &'a AtomicU64,
}

impl<'a, C> LatentWeb<'a, C> {
    /// Wraps `inner`, counting fetches into `calls`.
    pub fn new(inner: C, tracer: &'a Tracer, calls: &'a AtomicU64) -> Self {
        LatentWeb {
            inner,
            tracer,
            calls,
        }
    }
}

impl<C: WebClient> WebClient for LatentWeb<'_, C> {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = self.tracer.now();
        wait(FETCH_WAIT);
        let waited = self.tracer.now();
        let out = self.inner.fetch(url);
        self.tracer.remote(
            "websim.fetch",
            "websim.wait",
            start,
            waited,
            self.tracer.now(),
        );
        out
    }
}

/// A chat model that waits [`COMPLETION_WAIT`] before every completion.
pub struct LatentModel<'a, M> {
    inner: M,
    tracer: &'a Tracer,
    calls: &'a AtomicU64,
}

impl<'a, M> LatentModel<'a, M> {
    /// Wraps `inner`, counting completions into `calls`.
    pub fn new(inner: M, tracer: &'a Tracer, calls: &'a AtomicU64) -> Self {
        LatentModel {
            inner,
            tracer,
            calls,
        }
    }
}

impl<M: ChatModel> ChatModel for LatentModel<'_, M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = self.tracer.now();
        wait(COMPLETION_WAIT);
        let waited = self.tracer.now();
        let out = self.inner.complete(request);
        self.tracer.remote(
            "llmsim.complete",
            "llmsim.wait",
            start,
            waited,
            self.tracer.now(),
        );
        out
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wait_lasts_at_least_its_modeled_time() {
        for d in [Duration::ZERO, Duration::from_micros(100), FETCH_WAIT] {
            let started = Instant::now();
            wait(d);
            assert!(started.elapsed() >= d, "{d:?}");
        }
    }
}
