//! Resilience accounting.
//!
//! Every retrying wrapper tallies what the fault layer cost it, and the
//! pipeline folds those tallies into its funnel statistics so a degraded
//! run can account for every record it lost: `abandoned` plus the calls
//! that succeeded must equal the calls attempted — no silent drops.

use crate::retry::Guarded;
use std::ops::AddAssign;

/// What one resilient boundary observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResilienceStats {
    /// Logical calls driven through the retry policy.
    pub calls: u64,
    /// Physical attempts those calls spent (≥ `calls`).
    pub attempts: u64,
    /// Logical calls that succeeded only after ≥ 1 transient failure.
    pub recovered: u64,
    /// Logical calls abandoned after exhausting their budgets (or hitting
    /// a permanent error).
    pub abandoned: u64,
    /// Times a circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Physical attempts fast-failed by an open breaker without touching
    /// the backend.
    pub breaker_fast_fails: u64,
}

impl ResilienceStats {
    /// Logical calls that completed successfully (`calls - abandoned`).
    pub fn succeeded(&self) -> u64 {
        self.calls - self.abandoned
    }

    /// Physical attempts that failed and were retried or given up on.
    pub fn wasted_attempts(&self) -> u64 {
        self.attempts - self.succeeded()
    }

    /// Tallies one logical call.
    pub fn record<T>(&mut self, call: &Guarded<T>) {
        self.calls += 1;
        self.attempts += u64::from(call.outcome.attempts);
        self.breaker_trips += call.trips;
        self.breaker_fast_fails += call.fast_fails;
        if call.outcome.recovered() {
            self.recovered += 1;
        }
        if call.outcome.result.is_err() {
            self.abandoned += 1;
        }
    }
}

// Destructuring keeps this merge honest: adding a field without deciding
// how it merges is a compile error. Counters from disjoint boundaries
// simply add — unlike `ScrapeStats`, there is no distinctness caveat here
// because nothing in this struct counts *unique* anything.
impl AddAssign for ResilienceStats {
    fn add_assign(&mut self, rhs: Self) {
        let ResilienceStats {
            calls,
            attempts,
            recovered,
            abandoned,
            breaker_trips,
            breaker_fast_fails,
        } = rhs;
        self.calls += calls;
        self.attempts += attempts;
        self.recovered += recovered;
        self.abandoned += abandoned;
        self.breaker_trips += breaker_trips;
        self.breaker_fast_fails += breaker_fast_fails;
        debug_assert!(self.attempts >= self.calls, "every call costs an attempt");
        debug_assert!(
            self.recovered + self.abandoned <= self.calls,
            "recoveries and abandonments partition a subset of calls"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = ResilienceStats {
            calls: 10,
            attempts: 14,
            recovered: 3,
            abandoned: 1,
            breaker_trips: 0,
            breaker_fast_fails: 0,
        };
        let b = ResilienceStats {
            calls: 5,
            attempts: 9,
            recovered: 1,
            abandoned: 2,
            breaker_trips: 1,
            breaker_fast_fails: 4,
        };
        a += b;
        assert_eq!(
            a,
            ResilienceStats {
                calls: 15,
                attempts: 23,
                recovered: 4,
                abandoned: 3,
                breaker_trips: 1,
                breaker_fast_fails: 4,
            }
        );
        assert_eq!(a.succeeded(), 12);
        assert_eq!(a.wasted_attempts(), 11);
    }

    #[test]
    fn default_is_all_zero() {
        let s = ResilienceStats::default();
        assert_eq!(s.calls, 0);
        assert_eq!(s.succeeded(), 0);
        assert_eq!(s.wasted_attempts(), 0);
    }
}
