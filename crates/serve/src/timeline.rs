//! Time-travel serving: a mounted [`Timeline`] plus an epoch-keyed LRU
//! of loaded worlds.
//!
//! Serve reads files only through the timeline mounted here; reloads
//! still arrive through the injected [`crate::server::Reloader`]. This
//! module owns the serving-side policy — which epochs stay resident
//! ([`TimelineState`]'s LRU), how loads are counted
//! (`borges_timeline_*` metrics), and how the timeline's typed error
//! kinds map onto HTTP statuses ([`error_response`]).
//!
//! ## Contracts
//!
//! * **Never mixed**: a `?at=` request pins exactly one epoch's
//!   [`ServingWorld`] for everything it reads, same as a live request
//!   pins the current world.
//! * **Byte determinism**: a loaded epoch world is built from the
//!   artifact alone, and its serving epoch is the artifact's stamped
//!   epoch — so a `?at=e` response is byte-identical to serving that
//!   epoch's world directly, across worker counts and LRU evictions.

use std::sync::Arc;

use borges_telemetry::MetricsRegistry;
use borges_timeline::{Timeline, TimelineError};
use parking_lot::Mutex;

use crate::flight::FlightRecorder;
use crate::http::Response;
use crate::world::ServingWorld;

/// The response a failed timeline query answers with, by blame: an
/// epoch or range the chain cannot answer (`unknown_epoch`, `empty`) is
/// a 404, a backwards range (`invalid_range`) a 400, and everything
/// else — corruption, IO — the server's 500.
pub fn error_response(err: &TimelineError) -> Response {
    let status = match err {
        TimelineError::UnknownEpoch { .. } | TimelineError::Empty => 404,
        TimelineError::InvalidRange { .. } => 400,
        _ => 500,
    };
    Response::error(status, &err.to_string())
}

/// The serving side of a mounted timeline: the chain plus a bounded,
/// epoch-keyed LRU of loaded worlds (most-recently-used first).
/// Capacity 0 disables residency — every `?at=` load is a miss.
pub struct TimelineState {
    timeline: Timeline,
    cache: Mutex<Vec<(u64, Arc<ServingWorld>)>>,
    capacity: usize,
    /// Mapping-LRU capacity handed to each loaded epoch world.
    lru_capacity: usize,
}

impl TimelineState {
    /// Mounts `timeline`, keeping at most `capacity` epoch worlds
    /// resident; each gets a mapping LRU of `lru_capacity`.
    pub fn new(timeline: Timeline, capacity: usize, lru_capacity: usize) -> TimelineState {
        TimelineState {
            timeline,
            cache: Mutex::new(Vec::new()),
            capacity,
            lru_capacity,
        }
    }

    /// The mounted chain (history/diff queries go straight to it).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Number of epoch worlds currently resident.
    pub fn resident(&self) -> usize {
        self.cache.lock().len()
    }

    /// Resolves `?at=` and returns that epoch's world, loading and
    /// caching it on a miss. Loading runs *outside* the cache lock;
    /// two racing misses on one epoch both load, and whichever inserts
    /// second adopts the first's world — harmless, because loads are
    /// deterministic.
    pub fn world_at(
        &self,
        at: u64,
        metrics: &MetricsRegistry,
        recorder: &FlightRecorder,
    ) -> Result<Arc<ServingWorld>, TimelineError> {
        let epoch = self.timeline.resolve_at(at)?.epoch;
        if self.capacity > 0 {
            let mut cache = self.cache.lock();
            if let Some(pos) = cache.iter().position(|(e, _)| *e == epoch) {
                let entry = cache.remove(pos);
                let world = entry.1.clone();
                cache.insert(0, entry);
                drop(cache);
                metrics.counter("borges_timeline_lru_hits_total", 1);
                return Ok(world);
            }
        }
        metrics.counter("borges_timeline_lru_misses_total", 1);
        let borges = self.timeline.load_epoch(epoch)?;
        // The serving epoch is the artifact's stamped epoch, so the
        // body is byte-identical to serving that artifact directly.
        let world = Arc::new(ServingWorld::new(borges, self.lru_capacity, epoch));
        metrics.counter("borges_timeline_epoch_loads_total", 1);
        recorder.record_event(
            "timeline_epoch_load",
            &format!("epoch {epoch} loaded, digest {}", world.digest),
        );
        if self.capacity > 0 {
            let mut cache = self.cache.lock();
            if let Some(pos) = cache.iter().position(|(e, _)| *e == epoch) {
                // A racer beat us; adopt its world so at most one
                // instance of an epoch is ever resident.
                let entry = cache.remove(pos);
                let world = entry.1.clone();
                cache.insert(0, entry);
                return Ok(world);
            }
            cache.insert(0, (epoch, world.clone()));
            if cache.len() > self.capacity {
                if let Some((evicted, _)) = cache.pop() {
                    metrics.counter("borges_timeline_lru_evictions_total", 1);
                    recorder.record_event(
                        "timeline_epoch_evict",
                        &format!("epoch {evicted} evicted from the epoch cache"),
                    );
                }
            }
        }
        Ok(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_errors_map_to_statuses() {
        for (err, status) in [
            (TimelineError::UnknownEpoch { at: 3 }, 404),
            (TimelineError::Empty, 404),
            (TimelineError::InvalidRange { t1: 2, t2: 1 }, 400),
            (TimelineError::Corrupt { detail: "x".into() }, 500),
        ] {
            let response = error_response(&err);
            assert_eq!(response.status, status, "{}", err.kind());
        }
    }

    #[test]
    fn empty_backend_resolution_is_a_404_and_nothing_is_cached() {
        // A chain with no links: `Timeline::open` on a path that holds
        // none reads as empty and writes nothing.
        let dir =
            std::env::temp_dir().join(format!("borges-serve-empty-chain-{}", std::process::id()));
        let state = TimelineState::new(Timeline::open(&dir).unwrap(), 4, 4);
        assert!(!dir.exists(), "mounting an empty chain writes nothing");
        let metrics = MetricsRegistry::new();
        let recorder = FlightRecorder::new(8);
        let err = match state.world_at(0, &metrics, &recorder) {
            Ok(_) => panic!("an empty chain must not resolve"),
            Err(err) => err,
        };
        assert_eq!(error_response(&err).status, 404);
        assert_eq!(state.resident(), 0);
        assert_eq!(metrics.counter_value("borges_timeline_lru_misses_total"), 0);
        assert_eq!(state.timeline().links().len(), 0);
        assert!(state.timeline().tip().is_none());
    }
}
