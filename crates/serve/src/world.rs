//! The serving world: one compiled pipeline plus a small LRU of
//! materialized per-feature-set mappings, swapped atomically on reload.
//!
//! A [`ServingWorld`] is immutable once built — handlers never mutate
//! the pipeline, only the interior-mutable cache — so the hot-swap
//! story is a single pointer swap: the server holds
//! `Mutex<Arc<ServingWorld>>`, each request clones the `Arc` under a
//! momentary lock, and `/v1/admin/reload` installs a freshly remapped
//! world by writing a new `Arc`. A request therefore sees exactly one
//! world end to end ("never mixed"), and a swap invalidates the mapping
//! cache for free because the cache lives inside the world it caches.

use std::collections::VecDeque;
use std::sync::Arc;

use borges_core::{AsOrgMapping, Borges, FeatureSet};
use borges_telemetry::MetricsRegistry;
use parking_lot::Mutex;

/// A bounded, least-recently-used cache of materialized mappings, keyed
/// by [`FeatureSet::bits`] (16 possible keys). Capacity 0 disables
/// caching entirely — every lookup is a miss that materializes fresh,
/// which the bench suite uses as its "cold" configuration.
///
/// Hits, misses, and evictions are counted into the shared
/// [`MetricsRegistry`] under `borges_serve_lru_*_total`, so `/metrics`
/// exposes cache efficacy without a separate plumbing path.
pub struct MappingCache {
    capacity: usize,
    /// Most-recently-used last. At most 16 entries, so linear scans
    /// beat any map structure.
    entries: Mutex<VecDeque<(u8, Arc<AsOrgMapping>)>>,
}

impl MappingCache {
    /// An empty cache holding at most `capacity` mappings.
    pub fn new(capacity: usize) -> MappingCache {
        MappingCache {
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The mapping for `features`, from cache or freshly materialized
    /// via `materialize`, and whether the lookup was a cache hit (the
    /// flight recorder wants the outcome per request, not just the
    /// aggregate counters). Materialization runs *outside* the cache
    /// lock: two racing misses on the same key both materialize, and
    /// whichever inserts second wins — harmless, because
    /// materialization is deterministic and the results are identical.
    pub fn get_or_materialize(
        &self,
        features: FeatureSet,
        metrics: &MetricsRegistry,
        materialize: impl FnOnce() -> AsOrgMapping,
    ) -> (Arc<AsOrgMapping>, bool) {
        let key = features.bits();
        if self.capacity > 0 {
            let mut entries = self.entries.lock();
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                let hit = entries.remove(pos).expect("position came from iter");
                let mapping = hit.1.clone();
                entries.push_back(hit);
                drop(entries);
                metrics.counter("borges_serve_lru_hits_total", 1);
                return (mapping, true);
            }
        }
        metrics.counter("borges_serve_lru_misses_total", 1);
        let mapping = Arc::new(materialize());
        if self.capacity > 0 {
            let mut entries = self.entries.lock();
            if !entries.iter().any(|(k, _)| *k == key) {
                if entries.len() >= self.capacity {
                    entries.pop_front();
                    metrics.counter("borges_serve_lru_evictions_total", 1);
                }
                entries.push_back((key, mapping.clone()));
            }
        }
        (mapping, false)
    }

    /// Number of cached mappings right now.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is currently empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

/// Everything a request handler needs, behind one `Arc`: the compiled
/// pipeline, its mapping cache, and the epoch stamp distinguishing
/// successive reloads.
pub struct ServingWorld {
    /// The compiled pipeline this world serves from.
    pub borges: Borges,
    /// Per-world mapping cache (a reload starts cold by construction).
    pub cache: MappingCache,
    /// Monotone reload counter: 0 for the boot world, +1 per swap.
    pub epoch: u64,
    /// The world's hex SHA-256 content address — equal to the digest of
    /// the store artifact this world was (or would be) persisted as,
    /// because store encoding is canonical. Reported by `/healthz` and
    /// the `borges_serve_world_digest` metric so operators can confirm
    /// which artifact is live after a reload.
    pub digest: String,
    /// The store schema version this world's artifact encoding speaks.
    pub store_schema: u32,
}

impl ServingWorld {
    /// Wraps a pipeline as serving world `epoch` with an LRU of
    /// `lru_capacity` mappings. A pipeline rebuilt from a verified
    /// artifact brings its digest along; any other is encoded once to
    /// learn it.
    pub fn new(borges: Borges, lru_capacity: usize, epoch: u64) -> ServingWorld {
        let digest = match borges.verified_digest() {
            Some(digest) => digest.to_string(),
            None => borges_store::world_digest(&borges.to_world()),
        };
        ServingWorld {
            borges,
            cache: MappingCache::new(lru_capacity),
            epoch,
            digest,
            store_schema: borges_store::STORE_SCHEMA_VERSION,
        }
    }

    /// The mapping for `features`, served through this world's cache,
    /// and whether the lookup hit it.
    pub fn mapping(
        &self,
        features: FeatureSet,
        metrics: &MetricsRegistry,
    ) -> (Arc<AsOrgMapping>, bool) {
        self.cache
            .get_or_materialize(features, metrics, || self.borges.mapping(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping_of(groups: &[&[u32]]) -> AsOrgMapping {
        AsOrgMapping::from_groups(
            groups
                .iter()
                .map(|g| g.iter().map(|&n| borges_types::Asn::new(n)).collect()),
        )
    }

    #[test]
    fn cache_hits_misses_and_evictions_are_counted() {
        let cache = MappingCache::new(2);
        let metrics = MetricsRegistry::new();
        let a = FeatureSet::NONE;
        let b = FeatureSet {
            oid_p: true,
            ..FeatureSet::NONE
        };
        let c = FeatureSet {
            na: true,
            ..FeatureSet::NONE
        };

        let build = || mapping_of(&[&[1, 2]]);
        cache.get_or_materialize(a, &metrics, build); // miss
        cache.get_or_materialize(a, &metrics, build); // hit
        cache.get_or_materialize(b, &metrics, build); // miss
        cache.get_or_materialize(c, &metrics, build); // miss, evicts a
        cache.get_or_materialize(a, &metrics, build); // miss again, evicts b

        assert_eq!(metrics.counter_value("borges_serve_lru_hits_total"), 1);
        assert_eq!(metrics.counter_value("borges_serve_lru_misses_total"), 4);
        assert_eq!(metrics.counter_value("borges_serve_lru_evictions_total"), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_refreshes_recency() {
        let cache = MappingCache::new(2);
        let metrics = MetricsRegistry::new();
        let a = FeatureSet::NONE;
        let b = FeatureSet {
            oid_p: true,
            ..FeatureSet::NONE
        };
        let c = FeatureSet {
            na: true,
            ..FeatureSet::NONE
        };
        let build = || mapping_of(&[&[1]]);

        cache.get_or_materialize(a, &metrics, build);
        cache.get_or_materialize(b, &metrics, build);
        cache.get_or_materialize(a, &metrics, build); // refresh a
        cache.get_or_materialize(c, &metrics, build); // evicts b, not a
        cache.get_or_materialize(a, &metrics, build); // still a hit

        assert_eq!(metrics.counter_value("borges_serve_lru_hits_total"), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = MappingCache::new(0);
        let metrics = MetricsRegistry::new();
        let build = || mapping_of(&[&[1]]);
        cache.get_or_materialize(FeatureSet::NONE, &metrics, build);
        cache.get_or_materialize(FeatureSet::NONE, &metrics, build);
        assert_eq!(metrics.counter_value("borges_serve_lru_hits_total"), 0);
        assert_eq!(metrics.counter_value("borges_serve_lru_misses_total"), 2);
        assert_eq!(metrics.counter_value("borges_serve_lru_evictions_total"), 0);
        assert!(cache.is_empty());
    }
}
