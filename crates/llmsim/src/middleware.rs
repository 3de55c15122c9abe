//! Model middleware: caching, call recording, fault injection, recovery.
//!
//! Production pipelines never hit a paid API twice with the same prompt —
//! the paper's temperature-0 setting makes completions cacheable by
//! construction. [`CachingModel`] memoizes any inner [`ChatModel`];
//! [`RecordingModel`] keeps an audit log of every call (the raw material
//! for the manual accuracy audits of §5.3); [`FlakyModel`] injects the
//! seeded transport faults a hosted chat API really produces (429s, 500s,
//! timeouts, truncated streaming replies); [`RetryingModel`] absorbs the
//! recoverable ones with deterministic backoff and accounts for the rest.

use crate::chat::{ChatModel, ChatRequest, ChatResponse, Usage};
use borges_resilience::{
    stable_hash, BreakerConfig, CircuitBreaker, Clock, EpisodePlan, FaultInjector, ResilienceStats,
    RetryPolicy, SimClock, TransportError,
};
use borges_telemetry::{CacheStats, Telemetry};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The canonical identity of a request: full text, attached image, and
/// decoding parameters. Both the cache and the fault injector key by it,
/// so "the same request" means the same thing everywhere.
fn request_fingerprint(request: &ChatRequest) -> String {
    let image = request.image().map(|f| f.to_string()).unwrap_or_default();
    format!(
        "{}\u{0}{}\u{0}{}\u{0}{}",
        request.full_text(),
        image,
        request.params.temperature,
        request.params.top_p
    )
}

/// Cache map, insertion order, and counters behind ONE mutex: a reader
/// always observes a consistent `(hits, entries, evictions)` triple.
/// (The previous design kept `hits` under its own lock, so a concurrent
/// reader could see the hit counted before the entry existed — a torn
/// read this struct makes impossible by construction.)
struct CacheState {
    entries: HashMap<String, ChatResponse>,
    /// Insertion order, oldest first — the eviction queue.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Memoizes completions of an inner model, keyed by the full request
/// (text + attached image + decoding parameters).
///
/// With a remote backend this saves real money on re-runs; the cache also
/// makes retried pipelines deterministic even against a provider that
/// updates weights mid-experiment. Transport errors are never cached —
/// only a delivered completion is a fact worth memoizing.
///
/// An optional entry cap bounds memory: when full, the oldest entry (by
/// insertion) is evicted. Unbounded by default, matching a single
/// pipeline run where every distinct prompt is needed again.
pub struct CachingModel<M> {
    inner: M,
    state: Mutex<CacheState>,
    capacity: Option<usize>,
}

impl<M: ChatModel> CachingModel<M> {
    /// Wraps `inner` with an empty, unbounded cache.
    pub fn new(inner: M) -> Self {
        CachingModel {
            inner,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: None,
        }
    }

    /// Wraps `inner` with a cache holding at most `capacity` entries
    /// (oldest-first eviction). `capacity` must be nonzero.
    pub fn with_capacity(inner: M, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-entry cache cannot hold anything");
        let mut model = CachingModel::new(inner);
        model.capacity = Some(capacity);
        model
    }

    /// Completions served from cache so far.
    pub fn hits(&self) -> u64 {
        self.state.lock().hits
    }

    /// Distinct requests currently cached.
    pub fn entries(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Requests that fell through to the inner model.
    pub fn misses(&self) -> u64 {
        self.state.lock().misses
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.state.lock().evictions
    }

    /// One consistent `(hits, misses, evictions, entries)` reading, as a
    /// run-ledger row. A failed inner call still counts as a miss — the
    /// cache was consulted and could not help.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.state.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.entries.len() as u64,
        }
    }
}

impl<M: ChatModel> ChatModel for CachingModel<M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        let key = request_fingerprint(request);
        if let Some(hit) = {
            let mut state = self.state.lock();
            let found = state.entries.get(&key).map(|r| r.text.clone());
            if found.is_some() {
                state.hits += 1;
            } else {
                state.misses += 1;
            }
            found
        } {
            // A cache hit costs no tokens.
            return Ok(ChatResponse {
                text: hit,
                usage: Usage::default(),
            });
        }
        // The inner call runs outside the lock: a slow (or retrying)
        // backend must not serialize unrelated cache traffic.
        let response = self.inner.complete(request)?;
        let mut state = self.state.lock();
        if state
            .entries
            .insert(key.clone(), response.clone())
            .is_none()
        {
            state.order.push_back(key);
            if let Some(cap) = self.capacity {
                while state.entries.len() > cap {
                    let oldest = state.order.pop_front().expect("order tracks entries");
                    state.entries.remove(&oldest);
                    state.evictions += 1;
                }
            }
        }
        Ok(response)
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

/// One audited model call.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// The rendered prompt text.
    pub prompt: String,
    /// The completion text.
    pub reply: String,
    /// Token accounting.
    pub usage: Usage,
}

/// Records every delivered completion of an inner model — the audit log a
/// §5.3-style manual accuracy review reads. Transport errors propagate
/// without an entry: there is no reply to audit.
pub struct RecordingModel<M> {
    inner: M,
    log: Mutex<Vec<CallRecord>>,
}

impl<M: ChatModel> RecordingModel<M> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: M) -> Self {
        RecordingModel {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the call log.
    pub fn log(&self) -> Vec<CallRecord> {
        self.log.lock().clone()
    }

    /// Number of calls made.
    pub fn calls(&self) -> usize {
        self.log.lock().len()
    }

    /// Aggregate token usage across calls.
    pub fn total_usage(&self) -> Usage {
        self.log
            .lock()
            .iter()
            .fold(Usage::default(), |acc, r| acc + r.usage)
    }
}

impl<M: ChatModel> ChatModel for RecordingModel<M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        let response = self.inner.complete(request)?;
        self.log.lock().push(CallRecord {
            prompt: request.full_text(),
            reply: response.text.clone(),
            usage: response.usage,
        });
        Ok(response)
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

/// The transient fault kinds a hosted chat API produces.
pub const LLM_FAULT_KINDS: [TransportError; 4] = [
    TransportError::RateLimited,
    TransportError::ServerError,
    TransportError::Timeout,
    TransportError::TruncatedReply,
];

/// A [`ChatModel`] middleware injecting seeded per-request fault episodes
/// — the API-side sibling of `websim`'s `FlakyWebClient`.
///
/// Episodes are keyed by the request fingerprint, so a given seed always
/// breaks the same prompts, for the same number of consecutive attempts,
/// with the same error ([`TransportError::TruncatedReply`] standing in for
/// a streaming reply cut off mid-JSON — the content is unusable, so it
/// surfaces as a transport error rather than a mangled `Ok`).
pub struct FlakyModel<M> {
    inner: M,
    injector: FaultInjector,
}

impl<M: ChatModel> FlakyModel<M> {
    /// Wraps `inner` with the fault episodes `plan` prescribes.
    pub fn new(inner: M, plan: EpisodePlan) -> Self {
        FlakyModel {
            inner,
            injector: FaultInjector::new(plan, &LLM_FAULT_KINDS),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> EpisodePlan {
        self.injector.plan()
    }
}

impl<M: ChatModel> ChatModel for FlakyModel<M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        let key = stable_hash(request_fingerprint(request).as_bytes());
        if let Some(error) = self.injector.intercept(key) {
            return Err(error);
        }
        self.inner.complete(request)
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

/// A [`ChatModel`] middleware that retries transient transport failures
/// under a [`RetryPolicy`] (deterministic backoff on an injectable clock)
/// with an optional circuit breaker guarding the single backend.
pub struct RetryingModel<M> {
    inner: M,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    breaker: Option<CircuitBreaker>,
    stats: Mutex<ResilienceStats>,
    telemetry: Telemetry,
    boundary: String,
}

impl<M: ChatModel> RetryingModel<M> {
    /// Wraps `inner` under `policy`, sleeping on a virtual [`SimClock`]
    /// and without a breaker.
    pub fn new(inner: M, policy: RetryPolicy) -> Self {
        RetryingModel {
            inner,
            policy,
            clock: Arc::new(SimClock::new()),
            breaker: None,
            stats: Mutex::new(ResilienceStats::default()),
            telemetry: Telemetry::disabled(),
            boundary: "llm".to_string(),
        }
    }

    /// Adds a circuit breaker over the backend (one breaker: unlike the
    /// crawl's many hosts, there is a single API behind this model).
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(CircuitBreaker::new(config));
        self
    }

    /// Replaces the clock (a production deployment passes
    /// [`borges_resilience::SystemClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a telemetry context under a boundary label (e.g. `ner`,
    /// `favicon` — there may be several model stacks in one run): every
    /// logical completion records attempt/recovery/abandonment counters
    /// named `borges_llm_<boundary>_*`, a call-duration histogram on this
    /// stack's clock (backoff spend included), and a breaker event when
    /// the backend's breaker opens.
    pub fn with_telemetry(mut self, telemetry: Telemetry, boundary: &str) -> Self {
        self.telemetry = telemetry;
        self.boundary = format!("llm.{boundary}");
        self
    }

    /// What the stack has spent so far.
    pub fn stats(&self) -> ResilienceStats {
        *self.stats.lock()
    }
}

impl<M: ChatModel> ChatModel for RetryingModel<M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        let call = self.policy.guarded(
            &*self.clock,
            stable_hash(request_fingerprint(request).as_bytes()),
            self.breaker.as_ref(),
            || self.inner.complete(request),
        );
        self.stats.lock().record(&call);
        self.telemetry
            .record_guarded(&self.boundary, self.inner.model_id(), &call);
        call.outcome.result
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts::build_ie_prompt;
    use crate::SimLlm;
    use borges_types::Asn;

    fn request(asn: u32) -> ChatRequest {
        ChatRequest::user(build_ie_prompt(
            Asn::new(asn),
            "Our subsidiaries: AS100.",
            "",
        ))
    }

    #[test]
    fn caching_serves_repeats_for_free() {
        let model = CachingModel::new(SimLlm::flawless());
        let first = model.complete(&request(1)).unwrap();
        assert!(first.usage.total() > 0, "first call bills tokens");
        let second = model.complete(&request(1)).unwrap();
        assert_eq!(second.text, first.text);
        assert_eq!(second.usage.total(), 0, "cache hits are free");
        assert_eq!(model.hits(), 1);
        assert_eq!(model.entries(), 1);
        assert_eq!(model.evictions(), 0);
    }

    #[test]
    fn distinct_requests_miss() {
        let model = CachingModel::new(SimLlm::flawless());
        model.complete(&request(1)).unwrap();
        model.complete(&request(2)).unwrap();
        assert_eq!(model.hits(), 0);
        assert_eq!(model.entries(), 2);
    }

    #[test]
    fn capped_cache_evicts_oldest_first() {
        let model = CachingModel::with_capacity(SimLlm::flawless(), 2);
        model.complete(&request(1)).unwrap();
        model.complete(&request(2)).unwrap();
        model.complete(&request(3)).unwrap(); // evicts request(1)
        assert_eq!(model.entries(), 2);
        assert_eq!(model.evictions(), 1);
        // 2 and 3 still hit…
        model.complete(&request(2)).unwrap();
        model.complete(&request(3)).unwrap();
        assert_eq!(model.hits(), 2);
        // …1 misses (and re-enters, evicting 2, the now-oldest).
        let refetched = model.complete(&request(1)).unwrap();
        assert!(refetched.usage.total() > 0, "evicted entry re-bills");
        assert_eq!(model.evictions(), 2);
        assert_eq!(model.entries(), 2);
    }

    #[test]
    fn repeat_hits_do_not_grow_the_eviction_queue() {
        let model = CachingModel::with_capacity(SimLlm::flawless(), 2);
        for _ in 0..10 {
            model.complete(&request(1)).unwrap();
        }
        model.complete(&request(2)).unwrap();
        assert_eq!(model.entries(), 2);
        assert_eq!(model.evictions(), 0, "hits never evict");
    }

    #[test]
    fn cache_is_transparent_to_the_pipeline() {
        // Same replies, with or without the cache.
        let plain = SimLlm::new(3);
        let cached = CachingModel::new(SimLlm::new(3));
        for asn in [1u32, 2, 1, 3, 2] {
            assert_eq!(
                plain.complete(&request(asn)).unwrap().text,
                cached.complete(&request(asn)).unwrap().text
            );
        }
    }

    #[test]
    fn cache_stats_read_consistently() {
        let model = CachingModel::with_capacity(SimLlm::flawless(), 2);
        model.complete(&request(1)).unwrap();
        model.complete(&request(1)).unwrap();
        model.complete(&request(2)).unwrap();
        model.complete(&request(3)).unwrap(); // evicts request(1)
        let stats = model.cache_stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 1,
                misses: 3,
                evictions: 1,
                entries: 2,
            }
        );
        assert_eq!(stats.hits + stats.misses, 4, "every lookup is accounted");
    }

    #[test]
    fn failed_inner_calls_count_as_misses() {
        let model = CachingModel::new(FlakyModel::new(
            SimLlm::flawless(),
            EpisodePlan {
                transient_rate: 1.0,
                permanent_rate: 0.0,
                max_burst: 1,
                seed: 1,
            },
        ));
        // Burst of 1: first attempt fails (a miss, nothing cached),
        // second reaches the model and caches.
        assert!(model.complete(&request(1)).is_err());
        assert!(model.complete(&request(1)).is_ok());
        let stats = model.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 0, 1));
    }

    #[test]
    fn telemetry_counts_model_calls_under_a_boundary_label() {
        use borges_telemetry::Verbosity;
        let tel = Telemetry::sim(Verbosity::Quiet);
        let model = RetryingModel::new(
            FlakyModel::new(SimLlm::new(5), EpisodePlan::calibrated(13)),
            RetryPolicy::standard(13),
        )
        .with_clock(tel.clock())
        .with_telemetry(tel.clone(), "ner");
        for asn in 1u32..50 {
            let _ = model.complete(&request(asn));
        }
        let snap = tel.metrics_snapshot();
        let stats = model.stats();
        assert_eq!(snap.counter("borges_llm_ner_calls_total"), stats.calls);
        assert_eq!(
            snap.counter("borges_llm_ner_attempts_total"),
            stats.attempts
        );
        assert_eq!(
            snap.counter("borges_llm_ner_recovered_total"),
            stats.recovered
        );
        assert!(stats.recovered > 0, "chaos actually exercised retries");
        let hist = snap.histogram("borges_llm_ner_call_ms").unwrap();
        assert_eq!(hist.count, stats.calls);
        assert!(hist.sum_ms > 0, "backoff spend lands in the histogram");
    }

    #[test]
    fn recording_keeps_the_audit_trail() {
        let model = RecordingModel::new(SimLlm::flawless());
        model.complete(&request(1)).unwrap();
        model.complete(&request(2)).unwrap();
        assert_eq!(model.calls(), 2);
        let log = model.log();
        assert!(log[0].prompt.contains("ASN 1"));
        assert!(log[1].prompt.contains("ASN 2"));
        assert!(log[0].reply.contains("100"));
        assert!(model.total_usage().total() > 0);
    }

    #[test]
    fn middleware_composes() {
        let model = RecordingModel::new(CachingModel::new(SimLlm::flawless()));
        model.complete(&request(1)).unwrap();
        model.complete(&request(1)).unwrap();
        assert_eq!(model.calls(), 2, "recorder sees both calls");
        assert_eq!(model.model_id(), "sim-gpt-4o-mini", "id passes through");
    }

    #[test]
    fn chaos_zero_rate_flaky_model_is_transparent() {
        let plain = SimLlm::new(7);
        let flaky = FlakyModel::new(SimLlm::new(7), EpisodePlan::none());
        for asn in 1u32..40 {
            assert_eq!(plain.complete(&request(asn)), flaky.complete(&request(asn)));
        }
    }

    #[test]
    fn chaos_flaky_model_rates_are_roughly_honored() {
        let flaky = FlakyModel::new(
            SimLlm::flawless(),
            EpisodePlan {
                transient_rate: 0.10,
                permanent_rate: 0.0,
                max_burst: 1,
                seed: 41,
            },
        );
        let n = 5_000u32;
        let failed = (0..n)
            .filter(|&asn| flaky.complete(&request(asn)).is_err())
            .count() as f64;
        let frac = failed / n as f64;
        assert!((0.08..0.12).contains(&frac), "observed {frac}");
    }

    #[test]
    fn chaos_retries_erase_recoverable_model_faults() {
        let plain = SimLlm::new(5);
        let model = RetryingModel::new(
            FlakyModel::new(SimLlm::new(5), EpisodePlan::calibrated(13)),
            RetryPolicy::standard(13),
        );
        for asn in 1u32..200 {
            assert_eq!(
                model.complete(&request(asn)),
                plain.complete(&request(asn)),
                "bit-identical replies under recoverable chaos"
            );
        }
        let stats = model.stats();
        assert_eq!(stats.calls, 199);
        assert_eq!(stats.abandoned, 0);
        assert!(stats.recovered > 0, "chaos actually exercised retries");
    }

    #[test]
    fn chaos_exhausted_budgets_surface_the_last_error() {
        let model = RetryingModel::new(
            FlakyModel::new(
                SimLlm::flawless(),
                EpisodePlan {
                    transient_rate: 1.0,
                    permanent_rate: 0.0,
                    max_burst: 30,
                    seed: 3,
                },
            ),
            RetryPolicy::standard(3),
        );
        let result = model.complete(&request(1));
        assert!(result.is_err());
        let stats = model.stats();
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.attempts, 5, "full budget spent");
    }

    #[test]
    fn chaos_model_breaker_trips_and_fast_fails() {
        let model = RetryingModel::new(
            FlakyModel::new(
                SimLlm::flawless(),
                EpisodePlan {
                    transient_rate: 1.0,
                    permanent_rate: 0.0,
                    max_burst: 200,
                    seed: 8,
                },
            ),
            RetryPolicy {
                max_attempts: 4,
                base_delay_ms: 1,
                max_delay_ms: 1,
                deadline_ms: u64::MAX,
                jitter_seed: 8,
            },
        )
        .with_breaker(BreakerConfig {
            failure_threshold: 4,
            open_ms: 1_000_000,
        });
        // First call spends its budget and trips the breaker at 4 failures.
        assert!(model.complete(&request(1)).is_err());
        assert_eq!(model.stats().breaker_trips, 1);
        // Subsequent calls fast-fail without touching the backend.
        assert!(model.complete(&request(2)).is_err());
        assert!(model.stats().breaker_fast_fails > 0);
    }
}
