//! # borges-resilience
//!
//! The failure model and recovery contract for Borges's two flaky external
//! boundaries: the Selenium-grade web crawl (§4.3.1 of the paper, ~24k
//! sites) and the GPT-4o-mini chat API (§4.2, thousands of calls). The
//! paper's pipeline survives both because real attribution services must;
//! our reproduction models the faults *and* the recovery deterministically,
//! so that chaos runs are replayable and recovery is verifiable against
//! ground truth.
//!
//! * [`error`] — the transport-error taxonomy. Every fault is classified
//!   [`FaultClass::Transient`] (worth retrying: timeouts, resets, 429/5xx,
//!   truncated replies) or [`FaultClass::Permanent`] (retrying cannot
//!   help: a WAF block, a malformed request).
//! * [`clock`] — an injectable [`Clock`]. [`SimClock`] advances virtual
//!   time instantly, so exponential backoff is unit-testable without
//!   sleeping; [`SystemClock`] is the production binding.
//! * [`retry`] — [`RetryPolicy`]: exponential backoff with deterministic
//!   (seeded, per-call-key) jitter, an attempt budget, and a wall-clock
//!   deadline budget; [`RetryPolicy::guarded`] runs one logical call
//!   under it behind an optional breaker, the one loop every resilient
//!   boundary shares.
//! * [`breaker`] — a per-host [`CircuitBreaker`] (closed → open →
//!   half-open) and the [`BreakerRegistry`] that keys breakers by host.
//! * [`inject`] — [`EpisodePlan`]/[`FaultInjector`]: seeded fault
//!   *episodes* (a burst of consecutive failures for one host or request,
//!   decided splitmix-style like `llmsim::FaultProfile`), the OrgForge
//!   argument applied to transport: simulate faults with ground truth so
//!   recovery is checkable.
//! * [`stats`] — [`ResilienceStats`], the merged-by-`+=` counter block
//!   (attempts, recoveries, abandonments, breaker trips) that surfaces in
//!   `ScrapeStats`/`NerStats` coverage reports.
//!
//! Everything is deterministic under a seed: the same world, plan, and
//! policy always produce the same faults, the same retries, and the same
//! final mapping.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breaker;
pub mod clock;
pub mod error;
pub mod inject;
pub mod retry;
pub mod stats;

pub use breaker::{BreakerConfig, BreakerRegistry, BreakerVerdict, CircuitBreaker};
pub use clock::{Clock, SimClock, SystemClock};
pub use error::{FaultClass, TransportError};
pub use inject::{Episode, EpisodePlan, FaultInjector};
pub use retry::{Guarded, RetryOutcome, RetryPolicy};
pub use stats::ResilienceStats;

/// splitmix64 finalizer — the same mixer `llmsim::FaultProfile` uses, so
/// every seeded decision in the workspace shares one well-studied
/// avalanche function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A stable (process- and platform-independent) FNV-1a hash of a byte
/// string — the key function fault injectors and jitter use to decorrelate
/// decisions per host / per request without depending on `std`'s
/// randomized hasher.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_stable_and_spreads() {
        assert_eq!(stable_hash(b"example.com"), stable_hash(b"example.com"));
        assert_ne!(stable_hash(b"example.com"), stable_hash(b"example.org"));
        assert_ne!(stable_hash(b""), stable_hash(b"\0"));
    }

    #[test]
    fn splitmix_avalanches() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff_ffff, b & 0xffff_ffff, "low bits differ too");
    }
}
