//! The resilient crawl client.
//!
//! [`RetryingWebClient`] wraps any [`WebClient`] with the recovery stack
//! from `borges-resilience`: a [`RetryPolicy`] (exponential backoff,
//! deterministic jitter, attempt + deadline budgets) and an optional
//! per-host [`BreakerRegistry`], run as one [`RetryPolicy::guarded`] call
//! per fetch. Everything the stack spends is tallied in a
//! [`ResilienceStats`] the scraper folds into its funnel.
//!
//! Each logical fetch backs off on a private [`SimClock`] of its own,
//! starting at zero. Backoff delays depend only on the attempt and the
//! per-host jitter key, and the deadline is measured from the call's
//! own start, so a call's schedule, duration and outcome do not depend
//! on what runs alongside it. [`RetryingWebClient::backoff_total_ms`]
//! sums the per-call spends, which the ingest replays onto the run
//! clock afterwards. Breaker streaks are shared per host, and a host's
//! fetches run in order under the pool's per-host FIFO, so the client
//! keeps no state across hosts: a crawl gives the same result at every
//! in-flight budget. A breaker that one fetch trips stays open until a
//! later fetch's own clock reads past the window's end, and its breaker
//! event carries the tripping fetch's clock reading: the time into its
//! backoff.

use crate::client::{FetchResult, WebClient};
use borges_resilience::{
    stable_hash, BreakerConfig, BreakerRegistry, ResilienceStats, RetryPolicy, SimClock,
    TransportError,
};
use borges_telemetry::Telemetry;
use borges_types::Url;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`WebClient`] middleware that retries transient transport failures
/// and (optionally) fast-fails hosts whose circuit breaker is open.
pub struct RetryingWebClient<C> {
    inner: C,
    policy: RetryPolicy,
    breakers: Option<BreakerRegistry>,
    stats: Mutex<ResilienceStats>,
    backoff_total_ms: AtomicU64,
    telemetry: Telemetry,
}

impl<C: WebClient> RetryingWebClient<C> {
    /// Wraps `inner` under `policy`, with no circuit breakers, backing
    /// each call off on a private virtual clock.
    pub fn new(inner: C, policy: RetryPolicy) -> Self {
        RetryingWebClient {
            inner,
            policy,
            breakers: None,
            stats: Mutex::new(ResilienceStats::default()),
            backoff_total_ms: AtomicU64::new(0),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Adds per-host circuit breakers.
    pub fn with_breakers(mut self, config: BreakerConfig) -> Self {
        self.breakers = Some(BreakerRegistry::new(config));
        self
    }

    /// Attaches a telemetry context: every logical fetch records attempt,
    /// recovery, and abandonment counters, a call-duration histogram
    /// (backoff spend included), and a breaker event whenever a host's
    /// breaker opens, stamped on the tripping fetch's own clock (the
    /// time into its backoff), not on the telemetry's clock.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// What the stack has spent so far.
    pub fn stats(&self) -> ResilienceStats {
        *self.stats.lock()
    }

    /// Total backoff milliseconds across all calls so far: the sum of
    /// each call's clock time.
    pub fn backoff_total_ms(&self) -> u64 {
        self.backoff_total_ms.load(Ordering::SeqCst)
    }

    /// Hosts whose breaker is currently open (empty without breakers).
    pub fn open_hosts(&self) -> Vec<String> {
        self.breakers
            .as_ref()
            .map(|r| r.open_keys())
            .unwrap_or_default()
    }
}

impl<C: WebClient> WebClient for RetryingWebClient<C> {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        let host = url.host().as_str();
        let breaker = self.breakers.as_ref().map(|r| r.breaker(host));
        let call = self.policy.guarded(
            &SimClock::new(),
            stable_hash(host.as_bytes()),
            breaker.as_deref(),
            || self.inner.fetch(url),
        );
        self.backoff_total_ms
            .fetch_add(call.elapsed_ms, Ordering::SeqCst);
        self.stats.lock().record(&call);
        self.telemetry.record_guarded("web", host, &call);
        call.outcome.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SimWebClient;
    use crate::flaky::FlakyWebClient;
    use crate::hosting::SimWeb;
    use borges_resilience::{CircuitBreaker, Clock, EpisodePlan};

    fn web(hosts: usize) -> SimWeb {
        let mut b = SimWeb::builder();
        for i in 0..hosts {
            b = b.page(&format!("h{i}.example"), None);
        }
        b.build()
    }

    #[test]
    fn chaos_retries_erase_recoverable_faults() {
        let web = web(100);
        let bare = SimWebClient::browser(&web);
        let client = RetryingWebClient::new(
            FlakyWebClient::new(SimWebClient::browser(&web), EpisodePlan::calibrated(5)),
            RetryPolicy::standard(5),
        );
        for i in 0..100 {
            let url: Url = format!("https://h{i}.example/").parse().unwrap();
            assert_eq!(client.fetch(&url), bare.fetch(&url));
        }
        let stats = client.stats();
        assert_eq!(stats.calls, 100);
        assert_eq!(stats.abandoned, 0, "calibrated chaos is fully recoverable");
        assert!(stats.recovered > 0, "some hosts needed retries");
        assert!(stats.attempts > stats.calls);
    }

    #[test]
    fn chaos_permanent_blocks_are_abandoned_with_budget_left() {
        let web = web(1);
        let client = RetryingWebClient::new(
            FlakyWebClient::new(
                SimWebClient::browser(&web),
                EpisodePlan {
                    transient_rate: 0.0,
                    permanent_rate: 1.0,
                    max_burst: 0,
                    seed: 1,
                },
            ),
            RetryPolicy::standard(1),
        );
        let url: Url = "https://h0.example/".parse().unwrap();
        assert_eq!(client.fetch(&url), Err(TransportError::Forbidden));
        let stats = client.stats();
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.attempts, 1, "permanent errors are not retried");
    }

    #[test]
    fn chaos_breaker_fast_fails_a_dead_host_then_reprobes() {
        let web = web(1);
        let client = RetryingWebClient::new(
            FlakyWebClient::new(
                SimWebClient::browser(&web),
                EpisodePlan {
                    transient_rate: 1.0,
                    permanent_rate: 0.0,
                    // A burst far beyond the retry budget: the host is
                    // effectively down for many consecutive fetches.
                    max_burst: 40,
                    seed: 2,
                },
            ),
            RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 10,
                max_delay_ms: 10,
                deadline_ms: u64::MAX,
                jitter_seed: 2,
            },
        )
        .with_breakers(BreakerConfig {
            failure_threshold: 4,
            open_ms: 1_000_000,
        });
        let url: Url = "https://h0.example/".parse().unwrap();

        // First logical call: 3 real attempts, breaker still closed.
        assert!(client.fetch(&url).is_err());
        // Second: one more real failure trips the breaker at 4.
        assert!(client.fetch(&url).is_err());
        assert_eq!(client.stats().breaker_trips, 1);
        assert_eq!(client.open_hosts(), vec!["h0.example".to_string()]);

        // Third: the open breaker fast-fails without touching the host.
        let before = client.stats().breaker_fast_fails;
        assert_eq!(client.fetch(&url), Err(TransportError::CircuitOpen));
        assert!(client.stats().breaker_fast_fails > before);
    }

    #[test]
    fn telemetry_counts_attempts_and_records_breaker_trips() {
        use borges_telemetry::Verbosity;
        let web = web(1);
        let tel = Telemetry::sim(Verbosity::Quiet);
        let client = RetryingWebClient::new(
            FlakyWebClient::new(
                SimWebClient::browser(&web),
                EpisodePlan {
                    transient_rate: 1.0,
                    permanent_rate: 0.0,
                    max_burst: 40,
                    seed: 2,
                },
            ),
            RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 10,
                max_delay_ms: 10,
                deadline_ms: u64::MAX,
                jitter_seed: 2,
            },
        )
        .with_breakers(BreakerConfig {
            failure_threshold: 4,
            open_ms: 1_000_000,
        })
        .with_telemetry(tel.clone());
        let url: Url = "https://h0.example/".parse().unwrap();
        assert!(client.fetch(&url).is_err());
        assert!(client.fetch(&url).is_err());

        let snap = tel.metrics_snapshot();
        assert_eq!(snap.counter("borges_web_calls_total"), 2);
        assert_eq!(
            snap.counter("borges_web_attempts_total"),
            client.stats().attempts
        );
        assert_eq!(snap.counter("borges_web_abandoned_total"), 2);
        assert_eq!(snap.counter("borges_web_breaker_trips_total"), 1);
        // Backoff slept on each fetch's own clock → the histogram saw
        // real (virtual) durations.
        let hist = snap.histogram("borges_web_call_ms").unwrap();
        assert_eq!(hist.count, 2);
        assert!(hist.sum_ms > 0, "backoff spend lands in the histogram");
        // The trip surfaced as a breaker event with the host as key.
        let events = tel.breaker_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].boundary, "web");
        assert_eq!(events[0].key, "h0.example");
        assert_eq!(events[0].transition, "open");
    }

    #[test]
    fn chaos_stats_account_for_every_call() {
        // Private clocks (the default) under an outage plan: breakers are
        // off, so every host's calls are independent of the clock.
        let web = web(300);
        let client = RetryingWebClient::new(
            FlakyWebClient::new(SimWebClient::browser(&web), EpisodePlan::with_outages(9)),
            RetryPolicy::standard(9),
        );
        let mut ok = 0u64;
        for i in 0..300 {
            let url: Url = format!("https://h{i}.example/").parse().unwrap();
            if client.fetch(&url).is_ok() {
                ok += 1;
            }
        }
        let stats = client.stats();
        assert_eq!(stats.calls, 300);
        assert_eq!(stats.succeeded(), ok, "no silent drops");
        assert!(stats.abandoned > 0, "outage plan blocks some hosts");
        assert_eq!(stats.succeeded() + stats.abandoned, stats.calls);
    }

    #[test]
    fn chaos_per_call_outcomes_and_stats_match_the_staged_client() {
        // Same fault tape through private per-call clocks and through the
        // guarded loop on one shared clock, sequentially: every outcome,
        // the stats block, and the total backoff must agree.
        let web = web(120);
        let plan = EpisodePlan::calibrated(5);
        let policy = RetryPolicy::standard(5);
        let clock = SimClock::new();
        let shared = FlakyWebClient::new(SimWebClient::browser(&web), plan);
        let mut expected = ResilienceStats::default();
        let private = RetryingWebClient::new(
            FlakyWebClient::new(SimWebClient::browser(&web), plan),
            policy,
        );
        for i in 0..120 {
            let url: Url = format!("https://h{i}.example/").parse().unwrap();
            let key = stable_hash(url.host().as_str().as_bytes());
            let call = policy.guarded(&clock, key, None, || shared.fetch(&url));
            expected.record(&call);
            assert_eq!(private.fetch(&url), call.outcome.result, "host {i}");
        }
        assert_eq!(private.stats(), expected);
        assert!(private.stats().recovered > 0, "chaos actually retried");
        // The shared clock only ever advances by backoff sleeps, so its
        // final reading is the total the private clocks summed.
        assert!(private.backoff_total_ms() > 0);
        assert_eq!(private.backoff_total_ms(), clock.now_ms());
    }

    #[test]
    fn chaos_concurrent_fetches_keep_per_call_durations_isolated() {
        use borges_telemetry::Verbosity;
        let web = web(64);
        let plan = EpisodePlan::calibrated(9);
        let policy = RetryPolicy::standard(9);

        // Sequential reference run.
        let reference = RetryingWebClient::new(
            FlakyWebClient::new(SimWebClient::browser(&web), plan),
            policy,
        );
        let urls: Vec<Url> = (0..64)
            .map(|i| format!("https://h{i}.example/").parse().unwrap())
            .collect();
        for url in &urls {
            reference.fetch(url).unwrap();
        }

        // Concurrent run over distinct hosts (no per-host ordering to
        // preserve): totals and the call-duration histogram must match
        // the sequential run exactly.
        let tel = Telemetry::sim(Verbosity::Quiet);
        let concurrent = RetryingWebClient::new(
            FlakyWebClient::new(SimWebClient::browser(&web), plan),
            policy,
        )
        .with_telemetry(tel.clone());
        borges_parallel::map_items(&urls, 8, |url| concurrent.fetch(url).unwrap());
        assert_eq!(concurrent.stats(), reference.stats());
        assert_eq!(
            concurrent.backoff_total_ms(),
            reference.backoff_total_ms(),
            "per-call spends are schedule-independent"
        );
        let snap = tel.metrics_snapshot();
        let hist = snap.histogram("borges_web_call_ms").unwrap();
        assert_eq!(hist.count, 64);
        assert_eq!(hist.sum_ms, reference.backoff_total_ms());
    }

    #[test]
    fn chaos_breaker_streaks_trip_like_the_staged_client() {
        // The dead-host setup of the fast-fail test, on private clocks,
        // against the guarded loop on one shared clock with one breaker:
        // the per-host streak trips at the same fetch, and the open
        // breaker fast-fails the same attempts.
        let web = web(1);
        let plan = EpisodePlan {
            transient_rate: 1.0,
            permanent_rate: 0.0,
            max_burst: 40,
            seed: 2,
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 10,
            max_delay_ms: 10,
            deadline_ms: u64::MAX,
            jitter_seed: 2,
        };
        let config = BreakerConfig {
            failure_threshold: 4,
            open_ms: 1_000_000,
        };
        let client = RetryingWebClient::new(
            FlakyWebClient::new(SimWebClient::browser(&web), plan),
            policy,
        )
        .with_breakers(config);
        let shared = FlakyWebClient::new(SimWebClient::browser(&web), plan);
        let clock = SimClock::new();
        let breaker = CircuitBreaker::new(config);
        let mut expected = ResilienceStats::default();
        let url: Url = "https://h0.example/".parse().unwrap();
        for fetch in 0..3 {
            let call = policy.guarded(&clock, stable_hash(b"h0.example"), Some(&breaker), || {
                shared.fetch(&url)
            });
            expected.record(&call);
            assert_eq!(client.fetch(&url), call.outcome.result, "fetch {fetch}");
        }
        assert_eq!(client.stats(), expected);
        assert_eq!(client.stats().breaker_trips, 1);
        assert!(client.stats().breaker_fast_fails > 0);
        assert_eq!(client.open_hosts(), vec!["h0.example".to_string()]);
    }
}
