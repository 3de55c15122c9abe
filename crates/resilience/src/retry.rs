//! Retry with exponential backoff and deterministic jitter.
//!
//! [`RetryPolicy::run`] drives one *logical* call through up to
//! `max_attempts` *physical* attempts. Between attempts it backs off
//! exponentially; the jitter added to each delay is a pure function of
//! `(jitter_seed, call key, attempt)`, so two runs of the same workload
//! sleep the same virtual milliseconds — retried pipelines stay
//! bit-for-bit reproducible. Permanent errors abort immediately;
//! transient errors retry until the attempt budget or the wall-clock
//! deadline (measured on the injected [`Clock`]) runs out.
//!
//! [`RetryPolicy::guarded`] is the loop every resilient boundary runs:
//! the same retries behind an optional [`CircuitBreaker`], which
//! fast-fails attempts while it is open and hears the verdict of every
//! attempt that reached the backend.

use crate::breaker::{BreakerVerdict, CircuitBreaker};
use crate::clock::Clock;
use crate::error::{FaultClass, TransportError};
use crate::splitmix64;

/// The retry contract for one boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per logical call, including the first (1 = no
    /// retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds; doubles per
    /// further attempt.
    pub base_delay_ms: u64,
    /// Upper bound on a single backoff delay.
    pub max_delay_ms: u64,
    /// Total time budget (first attempt to last backoff) per logical
    /// call, measured on the injected clock.
    pub deadline_ms: u64,
    /// Seed decorrelating jitter between experiments.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The calibrated default: 5 attempts, 100 ms base, 5 s cap, 30 s
    /// deadline — enough to ride out any episode a calibrated
    /// [`crate::EpisodePlan`] injects.
    pub const fn standard(jitter_seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 100,
            max_delay_ms: 5_000,
            deadline_ms: 30_000,
            jitter_seed,
        }
    }

    /// No recovery: one attempt, fail fast. The degraded-mode policy the
    /// chaos tests use to exercise abandonment accounting.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            deadline_ms: u64::MAX,
            jitter_seed: 0,
        }
    }

    /// The backoff delay after failed attempt number `attempt` (1-based),
    /// for the logical call identified by `key`. Equal-jitter scheme:
    /// half the exponential delay is kept, half is replaced by a
    /// deterministic hash-derived fraction — spreading retries without
    /// losing reproducibility.
    pub fn backoff_ms(&self, attempt: u32, key: u64) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.max_delay_ms);
        if exp == 0 {
            return 0;
        }
        let half = exp / 2;
        let jitter = splitmix64(
            self.jitter_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(key)
                .wrapping_add(attempt as u64),
        ) % (half + 1);
        half + jitter
    }

    /// Runs `op` under this policy. `op` receives the 1-based attempt
    /// number; `key` identifies the logical call (for jitter
    /// decorrelation). Returns the final outcome plus the attempt count —
    /// callers fold those into [`crate::ResilienceStats`].
    pub fn run<T>(
        &self,
        clock: &dyn Clock,
        key: u64,
        mut op: impl FnMut(u32) -> Result<T, TransportError>,
    ) -> RetryOutcome<T> {
        let start = clock.now_ms();
        let budget = self.max_attempts.max(1);
        let mut attempts = 0;
        loop {
            attempts += 1;
            match op(attempts) {
                Ok(value) => {
                    return RetryOutcome {
                        result: Ok(value),
                        attempts,
                    }
                }
                Err(e) if e.class() == FaultClass::Permanent => {
                    return RetryOutcome {
                        result: Err(e),
                        attempts,
                    }
                }
                Err(e) => {
                    if attempts >= budget {
                        return RetryOutcome {
                            result: Err(e),
                            attempts,
                        };
                    }
                    let delay = self.backoff_ms(attempts, key);
                    let elapsed = clock.now_ms().saturating_sub(start);
                    if elapsed.saturating_add(delay) > self.deadline_ms {
                        // The deadline budget is exhausted: abandoning now
                        // beats sleeping past it.
                        return RetryOutcome {
                            result: Err(e),
                            attempts,
                        };
                    }
                    clock.sleep_ms(delay);
                }
            }
        }
    }

    /// Runs one logical call under this policy on `clock`, behind
    /// `breaker` when there is one: an open breaker fast-fails an
    /// attempt with [`TransportError::CircuitOpen`] without calling
    /// `call`, and every attempt that does call it reports its success
    /// or failure to the breaker. `key` identifies the logical call, as
    /// in [`RetryPolicy::run`].
    pub fn guarded<T>(
        &self,
        clock: &dyn Clock,
        key: u64,
        breaker: Option<&CircuitBreaker>,
        mut call: impl FnMut() -> Result<T, TransportError>,
    ) -> Guarded<T> {
        let started_ms = clock.now_ms();
        let mut trips = 0;
        let mut fast_fails = 0;
        let outcome = self.run(clock, key, |_attempt| {
            let Some(breaker) = breaker else {
                return call();
            };
            if !breaker.allow(clock) {
                fast_fails += 1;
                return Err(TransportError::CircuitOpen);
            }
            let result = call();
            if result.is_ok() {
                breaker.record_success();
            } else if breaker.record_failure(clock) == BreakerVerdict::Tripped {
                trips += 1;
            }
            result
        });
        let end_ms = clock.now_ms();
        Guarded {
            outcome,
            trips,
            fast_fails,
            elapsed_ms: end_ms.saturating_sub(started_ms),
            end_ms,
        }
    }
}

/// One logical call run by [`RetryPolicy::guarded`]: its outcome and
/// what the breaker and the clock saw — everything a boundary folds into
/// [`crate::ResilienceStats::record`] and its telemetry.
#[derive(Debug)]
pub struct Guarded<T> {
    /// The final result and the attempts spent.
    pub outcome: RetryOutcome<T>,
    /// Times this call's failures tripped the breaker open.
    pub trips: u64,
    /// Attempts the open breaker fast-failed.
    pub fast_fails: u64,
    /// Clock milliseconds from the first attempt to the final result:
    /// the call's backoff spend on a virtual clock.
    pub elapsed_ms: u64,
    /// The clock reading when the call ended.
    pub end_ms: u64,
}

/// What one retried logical call cost and produced.
#[derive(Debug)]
pub struct RetryOutcome<T> {
    /// The final result after all attempts.
    pub result: Result<T, TransportError>,
    /// Physical attempts spent (≥ 1).
    pub attempts: u32,
}

impl<T> RetryOutcome<T> {
    /// `true` when the call succeeded only after at least one transient
    /// failure — a *recovery*.
    pub fn recovered(&self) -> bool {
        self.result.is_ok() && self.attempts > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    fn flaky(fail_times: u32) -> impl FnMut(u32) -> Result<u32, TransportError> {
        move |attempt| {
            if attempt <= fail_times {
                Err(TransportError::Timeout)
            } else {
                Ok(attempt)
            }
        }
    }

    #[test]
    fn first_try_success_spends_one_attempt() {
        let clock = SimClock::new();
        let out = RetryPolicy::standard(1).run(&clock, 7, flaky(0));
        assert_eq!(out.result.unwrap(), 1);
        assert_eq!(out.attempts, 1);
        assert!(!out.recovered());
        assert_eq!(clock.now_ms(), 0, "no backoff on success");
    }

    #[test]
    fn transient_errors_recover_within_budget() {
        let clock = SimClock::new();
        let out = RetryPolicy::standard(1).run(&clock, 7, flaky(3));
        assert_eq!(out.result.unwrap(), 4);
        assert_eq!(out.attempts, 4);
        assert!(out.recovered());
        assert!(clock.now_ms() > 0, "backoff advanced the clock");
    }

    #[test]
    fn attempt_budget_is_honored() {
        let clock = SimClock::new();
        let out = RetryPolicy::standard(1).run(&clock, 7, flaky(99));
        assert_eq!(out.result, Err(TransportError::Timeout));
        assert_eq!(out.attempts, 5);
    }

    #[test]
    fn permanent_errors_abort_immediately() {
        let clock = SimClock::new();
        let out: RetryOutcome<()> =
            RetryPolicy::standard(1).run(&clock, 7, |_| Err(TransportError::Forbidden));
        assert_eq!(out.result, Err(TransportError::Forbidden));
        assert_eq!(out.attempts, 1);
        assert_eq!(clock.now_ms(), 0, "no backoff wasted on permanents");
    }

    #[test]
    fn deadline_budget_cuts_retries_short() {
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 50,
            base_delay_ms: 1_000,
            max_delay_ms: 1_000,
            deadline_ms: 2_500,
            jitter_seed: 1,
        };
        let out = policy.run(&clock, 7, flaky(99));
        assert!(out.result.is_err());
        assert!(
            out.attempts < 50,
            "deadline must fire before the attempt budget: {}",
            out.attempts
        );
        assert!(clock.now_ms() <= 2_500);
    }

    #[test]
    fn chaos_backoff_is_deterministic_per_key_and_grows() {
        let policy = RetryPolicy::standard(42);
        for attempt in 1..5 {
            assert_eq!(
                policy.backoff_ms(attempt, 9),
                policy.backoff_ms(attempt, 9),
                "same inputs, same delay"
            );
        }
        // Exponential shape: the delay floor doubles per attempt.
        assert!(policy.backoff_ms(1, 9) >= 50);
        assert!(policy.backoff_ms(3, 9) >= 200);
        assert!(policy.backoff_ms(4, 9) <= policy.max_delay_ms);
        // Jitter decorrelates calls.
        assert_ne!(policy.backoff_ms(1, 9), policy.backoff_ms(1, 10));
    }

    #[test]
    fn chaos_retry_sequence_is_reproducible() {
        let run = || {
            let clock = SimClock::new();
            let out = RetryPolicy::standard(3).run(&clock, 11, flaky(2));
            (out.result.unwrap(), out.attempts, clock.now_ms())
        };
        assert_eq!(run(), run(), "identical timings across runs");
    }

    #[test]
    fn chaos_guarded_calls_trip_and_fast_fail_the_breaker() {
        use crate::{BreakerConfig, ResilienceStats};
        let clock = SimClock::starting_at(1_000);
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_ms: 1_000_000,
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 10,
            max_delay_ms: 10,
            deadline_ms: u64::MAX,
            jitter_seed: 1,
        };
        let mut reached = 0;
        let call = policy.guarded(&clock, 7, Some(&breaker), || {
            reached += 1;
            Err::<(), _>(TransportError::Timeout)
        });
        assert_eq!(reached, 2, "the open breaker keeps the third attempt");
        assert_eq!(call.outcome.result, Err(TransportError::CircuitOpen));
        assert_eq!(
            (call.outcome.attempts, call.trips, call.fast_fails),
            (3, 1, 1)
        );
        assert!(call.elapsed_ms > 0, "two backoffs were slept");
        assert_eq!(call.end_ms, 1_000 + call.elapsed_ms);

        let mut stats = ResilienceStats::default();
        stats.record(&call);
        assert_eq!(
            stats,
            ResilienceStats {
                calls: 1,
                attempts: 3,
                recovered: 0,
                abandoned: 1,
                breaker_trips: 1,
                breaker_fast_fails: 1,
            }
        );
    }

    #[test]
    fn none_policy_fails_fast() {
        let clock = SimClock::new();
        let out = RetryPolicy::none().run(&clock, 7, flaky(1));
        assert!(out.result.is_err());
        assert_eq!(out.attempts, 1);
    }
}
