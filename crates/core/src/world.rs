//! The persistable compiled world (DESIGN.md §12).
//!
//! [`CompiledWorld`] is the persistable form of everything a serving
//! [`Borges`](crate::pipeline::Borges) carries: the incremental-remap
//! [`SnapshotState`] (interner slots, edge segments, fingerprints, LLM
//! memos) plus the [`ServingExtras`] a server reads at request time —
//! evidence-provenance groups, the per-stage funnel statistics behind
//! `/v1/coverage` and the run ledger, and the web-inference outputs.
//! Groups and NER rows get wire records of plain `u32` ASNs; the funnel
//! statistics are the live stats structs, with no wire mirror.
//! `borges-store` frames this value into a checksummed on-disk artifact;
//! [`Borges::to_world`](crate::pipeline::Borges::to_world) and
//! [`Borges::from_world`](crate::pipeline::Borges::from_world) convert
//! losslessly in both directions, so a store-loaded pipeline is
//! byte-identical to the freshly compiled one it was captured from.
//!
//! Two audit-only fields are deliberately *not* persisted, because no
//! serve or re-persist path reads them: favicon [`GroupDecision`]
//! records (Table 5 scoring detail) and the stage `memo_hits` counters
//! (meaningful only for the run that populated the memo).
//!
//! [`GroupDecision`]: crate::web::favicon::GroupDecision

use crate::delta::SnapshotState;
use crate::ner::NerStats;
use crate::web::favicon::FaviconStats;
use crate::web::rr::RrStats;
use borges_telemetry::CacheStats;
use borges_types::Url;
use borges_websim::ScrapeStats;

/// One NER extraction row on the wire: a subject ASN and its filtered
/// sibling extractions, mirroring `NerResult::per_entry`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NerEntryRecord {
    /// The subject ASN.
    pub asn: u32,
    /// The extracted (post-filter) sibling ASNs.
    pub siblings: Vec<u32>,
}

/// One final-URL group on the wire, mirroring the parallel
/// `RrInference::groups` / `RrInference::final_urls` vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrGroupRecord {
    /// The final URL every member landed on.
    pub final_url: Url,
    /// Every ASN that landed there.
    pub members: Vec<u32>,
}

/// One favicon merge group on the wire, mirroring the parallel
/// `FaviconInference::groups` / `group_favicons` vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaviconGroupRecord {
    /// The shared favicon's raw 64-bit hash.
    pub favicon: u64,
    /// The ASNs inferred to share a company.
    pub members: Vec<u32>,
}

/// Everything a serving pipeline carries beyond the [`SnapshotState`]:
/// evidence-provenance groups, web-inference outputs, and the per-stage
/// funnel statistics the coverage/ledger endpoints read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingExtras {
    /// OID_W sibling groups (evidence provenance for `/v1/evidence`).
    pub oid_w_groups: Vec<Vec<u32>>,
    /// OID_P sibling groups.
    pub oid_p_groups: Vec<Vec<u32>>,
    /// NER extraction rows (`NerResult::per_entry`; the memo itself
    /// lives in the snapshot state).
    pub ner_entries: Vec<NerEntryRecord>,
    /// NER funnel counters.
    pub ner_stats: NerStats,
    /// Final-URL groups with their URLs, in inference order.
    pub rr_groups: Vec<RrGroupRecord>,
    /// R&R counters.
    pub rr_stats: RrStats,
    /// Favicon merge groups with their favicons, in inference order.
    pub favicon_groups: Vec<FaviconGroupRecord>,
    /// Favicon funnel counters.
    pub favicon_stats: FaviconStats,
    /// Crawl funnel counters.
    pub scrape_stats: ScrapeStats,
    /// Crawl redirect-cache counters (observational, feeds the ledger).
    pub web_cache: CacheStats,
}

/// The full persistable compiled world: the incremental-remap state
/// plus the serving extras. This is what `borges-store` frames into an
/// on-disk artifact.
///
/// Equality compares the persisted content (`state`, `extras`,
/// `epoch`) and ignores [`CompiledWorld::digest`], which records where
/// a value came from, not what it is.
#[derive(Debug, Clone, Default)]
pub struct CompiledWorld {
    /// Interner slots, edge segments, fingerprints, LLM memos.
    pub state: SnapshotState,
    /// Everything else a serving pipeline reads.
    pub extras: ServingExtras,
    /// Timeline epoch this world was published at. `0` for worlds that
    /// were never appended to a timeline; stamped by the timeline layer
    /// before the artifact is written, so the epoch participates in the
    /// content address and a relabeled chain link is detectable.
    pub epoch: u64,
    /// The hex content address `borges-store` verified when it decoded
    /// this world, carried into [`Borges::from_world`] so a cold start
    /// need not encode the world again to learn it. `None` for a world
    /// captured from a live pipeline. Never persisted; code that edits
    /// a decoded world must reset it.
    ///
    /// [`Borges::from_world`]: crate::pipeline::Borges::from_world
    pub digest: Option<String>,
}

impl PartialEq for CompiledWorld {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state && self.extras == other.extras && self.epoch == other.epoch
    }
}

impl CompiledWorld {
    /// Semantic validation of a decoded world, run before any conversion
    /// back to a live pipeline — a decoded-but-insane artifact (well-formed
    /// bytes, nonsense content) must yield an error here, never a
    /// panic downstream. Checks, in order: the snapshot state's own
    /// invariants (schema tag, numeric keys), slot uniqueness (the
    /// interner rebuild asserts it), and that every persisted edge
    /// endpoint is a dense id inside the slot table (the union-find
    /// replay indexes by it).
    pub fn validate(&self) -> Result<(), String> {
        self.state.validate()?;
        // Sorting a copy finds a duplicate far faster than building a
        // set of the 10k+ ASNs would.
        let mut asns: Vec<u32> = self.state.slots.iter().map(|slot| slot.asn).collect();
        asns.sort_unstable();
        if let Some(pair) = asns.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("duplicate interner slot for AS{}", pair[0]));
        }
        let len = self.state.slots.len() as u64;
        for (feature, segments) in [
            ("oid_w", &self.state.oid_w),
            ("oid_p", &self.state.oid_p),
            ("na", &self.state.na),
            ("rr", &self.state.rr),
            ("favicons", &self.state.favicons),
        ] {
            for seg in segments.iter() {
                for edge in &seg.edges {
                    if u64::from(edge.a) >= len || u64::from(edge.b) >= len {
                        return Err(format!(
                            "{feature} segment {:?} has edge ({}, {}) outside the \
                             {len}-slot universe",
                            seg.key, edge.a, edge.b
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{EdgeRecord, SegmentRecord, SlotRecord, SNAPSHOT_STATE_SCHEMA};

    fn minimal_world() -> CompiledWorld {
        CompiledWorld {
            state: SnapshotState {
                schema: SNAPSHOT_STATE_SCHEMA.to_string(),
                slots: vec![
                    SlotRecord {
                        asn: 10,
                        live: true,
                    },
                    SlotRecord {
                        asn: 20,
                        live: true,
                    },
                ],
                oid_w: vec![SegmentRecord {
                    key: "ORG-1".to_string(),
                    fp: 1,
                    edges: vec![EdgeRecord { a: 0, b: 1 }],
                }],
                ..SnapshotState::default()
            },
            extras: ServingExtras::default(),
            epoch: 0,
            digest: None,
        }
    }

    #[test]
    fn valid_world_passes() {
        minimal_world().validate().unwrap();
    }

    #[test]
    fn duplicate_slots_are_rejected() {
        let mut world = minimal_world();
        world.state.slots.push(SlotRecord {
            asn: 10,
            live: false,
        });
        let err = world.validate().unwrap_err();
        assert!(err.contains("duplicate interner slot"), "{err}");
    }

    #[test]
    fn out_of_range_edges_are_rejected() {
        let mut world = minimal_world();
        world.state.oid_w[0].edges.push(EdgeRecord { a: 0, b: 7 });
        let err = world.validate().unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn wrong_inner_schema_is_rejected() {
        let mut world = minimal_world();
        world.state.schema = "bogus".to_string();
        let err = world.validate().unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }
}
