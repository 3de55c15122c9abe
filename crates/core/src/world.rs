//! The persistable compiled world (DESIGN.md §12).
//!
//! [`CompiledWorld`] is the persistable form of everything a serving
//! [`Borges`](crate::pipeline::Borges) carries: the incremental-remap
//! [`SnapshotState`] (interner slots, edge segments, fingerprints, LLM
//! memos) plus the [`ServingExtras`] a server reads at request time —
//! evidence-provenance groups, the per-stage funnel statistics behind
//! `/v1/coverage` and the run ledger, and the web-inference outputs.
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
use borges_llm::chat::Usage;
use borges_resilience::ResilienceStats;
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

/// Wire mirror of [`ResilienceStats`] (kept apart from the live struct
/// on purpose — the live one is compared by the chaos keystones, and
/// the wire form must be free to evolve separately).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStatsRecord {
    /// Logical calls driven through the retry policy.
    pub calls: u64,
    /// Physical attempts those calls spent.
    pub attempts: u64,
    /// Calls that succeeded only after ≥ 1 transient failure.
    pub recovered: u64,
    /// Calls abandoned after exhausting their budgets.
    pub abandoned: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Attempts fast-failed by an open breaker.
    pub breaker_fast_fails: u64,
}

impl From<&ResilienceStats> for ResilienceStatsRecord {
    fn from(s: &ResilienceStats) -> Self {
        ResilienceStatsRecord {
            calls: s.calls,
            attempts: s.attempts,
            recovered: s.recovered,
            abandoned: s.abandoned,
            breaker_trips: s.breaker_trips,
            breaker_fast_fails: s.breaker_fast_fails,
        }
    }
}

impl From<&ResilienceStatsRecord> for ResilienceStats {
    fn from(r: &ResilienceStatsRecord) -> Self {
        ResilienceStats {
            calls: r.calls,
            attempts: r.attempts,
            recovered: r.recovered,
            abandoned: r.abandoned,
            breaker_trips: r.breaker_trips,
            breaker_fast_fails: r.breaker_fast_fails,
        }
    }
}

/// Wire mirror of [`ScrapeStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrapeStatsRecord {
    /// Input pairs with a parseable website URL.
    pub entries_with_website: usize,
    /// Input pairs with an unparseable website field.
    pub entries_with_invalid_url: usize,
    /// Input pairs abandoned at the transport layer.
    pub entries_abandoned: usize,
    /// Distinct requested URLs.
    pub unique_urls: usize,
    /// Distinct requested URLs that resolved.
    pub reachable_urls: usize,
    /// Distinct final URLs.
    pub unique_final_urls: usize,
    /// Distinct final URLs serving a favicon.
    pub final_urls_with_favicon: usize,
    /// Distinct favicons.
    pub unique_favicons: usize,
    /// Resilience spend of the crawl.
    pub resilience: ResilienceStatsRecord,
}

impl From<&ScrapeStats> for ScrapeStatsRecord {
    fn from(s: &ScrapeStats) -> Self {
        ScrapeStatsRecord {
            entries_with_website: s.entries_with_website,
            entries_with_invalid_url: s.entries_with_invalid_url,
            entries_abandoned: s.entries_abandoned,
            unique_urls: s.unique_urls,
            reachable_urls: s.reachable_urls,
            unique_final_urls: s.unique_final_urls,
            final_urls_with_favicon: s.final_urls_with_favicon,
            unique_favicons: s.unique_favicons,
            resilience: (&s.resilience).into(),
        }
    }
}

impl From<&ScrapeStatsRecord> for ScrapeStats {
    fn from(r: &ScrapeStatsRecord) -> Self {
        ScrapeStats {
            entries_with_website: r.entries_with_website,
            entries_with_invalid_url: r.entries_with_invalid_url,
            entries_abandoned: r.entries_abandoned,
            unique_urls: r.unique_urls,
            reachable_urls: r.reachable_urls,
            unique_final_urls: r.unique_final_urls,
            final_urls_with_favicon: r.final_urls_with_favicon,
            unique_favicons: r.unique_favicons,
            resilience: (&r.resilience).into(),
        }
    }
}

/// Wire mirror of [`NerStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NerStatsRecord {
    /// PeeringDB entries in the snapshot.
    pub entries_total: usize,
    /// Entries with non-empty `notes` or `aka`.
    pub entries_with_text: usize,
    /// Entries passing the numeric input filter.
    pub entries_numeric: usize,
    /// … of which the digits are in `aka`.
    pub numeric_in_aka: usize,
    /// … of which the digits are in `notes`.
    pub numeric_in_notes: usize,
    /// LLM calls issued.
    pub llm_calls: usize,
    /// LLM calls abandoned by the transport.
    pub llm_abandoned: usize,
    /// Reply ASNs rejected by the hallucination filter.
    pub filtered_out: usize,
    /// Entries with at least one surviving extraction.
    pub entries_with_siblings: usize,
    /// Distinct sibling ASNs extracted.
    pub extracted_asns: usize,
    /// Token accounting.
    pub usage: Usage,
    /// Resilience spend of the stage.
    pub resilience: ResilienceStatsRecord,
}

impl From<&NerStats> for NerStatsRecord {
    fn from(s: &NerStats) -> Self {
        NerStatsRecord {
            entries_total: s.entries_total,
            entries_with_text: s.entries_with_text,
            entries_numeric: s.entries_numeric,
            numeric_in_aka: s.numeric_in_aka,
            numeric_in_notes: s.numeric_in_notes,
            llm_calls: s.llm_calls,
            llm_abandoned: s.llm_abandoned,
            filtered_out: s.filtered_out,
            entries_with_siblings: s.entries_with_siblings,
            extracted_asns: s.extracted_asns,
            usage: s.usage,
            resilience: (&s.resilience).into(),
        }
    }
}

impl From<&NerStatsRecord> for NerStats {
    fn from(r: &NerStatsRecord) -> Self {
        NerStats {
            entries_total: r.entries_total,
            entries_with_text: r.entries_with_text,
            entries_numeric: r.entries_numeric,
            numeric_in_aka: r.numeric_in_aka,
            numeric_in_notes: r.numeric_in_notes,
            llm_calls: r.llm_calls,
            llm_abandoned: r.llm_abandoned,
            filtered_out: r.filtered_out,
            entries_with_siblings: r.entries_with_siblings,
            extracted_asns: r.extracted_asns,
            usage: r.usage,
            resilience: (&r.resilience).into(),
        }
    }
}

/// Wire mirror of [`RrStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RrStatsRecord {
    /// Networks with a resolved final URL.
    pub networks_with_final_url: usize,
    /// Networks dropped by the blocklist.
    pub blocked_networks: usize,
    /// Distinct (non-blocked) final URLs.
    pub distinct_final_urls: usize,
    /// Final URLs shared by more than one network.
    pub shared_final_urls: usize,
}

impl From<&RrStats> for RrStatsRecord {
    fn from(s: &RrStats) -> Self {
        RrStatsRecord {
            networks_with_final_url: s.networks_with_final_url,
            blocked_networks: s.blocked_networks,
            distinct_final_urls: s.distinct_final_urls,
            shared_final_urls: s.shared_final_urls,
        }
    }
}

impl From<&RrStatsRecord> for RrStats {
    fn from(r: &RrStatsRecord) -> Self {
        RrStats {
            networks_with_final_url: r.networks_with_final_url,
            blocked_networks: r.blocked_networks,
            distinct_final_urls: r.distinct_final_urls,
            shared_final_urls: r.shared_final_urls,
        }
    }
}

/// Wire mirror of [`FaviconStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaviconStatsRecord {
    /// Distinct favicons observed.
    pub favicons_total: usize,
    /// Favicons shared by more than one final URL.
    pub favicons_shared: usize,
    /// Final URLs involved in shared favicons.
    pub urls_in_shared: usize,
    /// Step-1 same-brand-label hits.
    pub same_label_groups: usize,
    /// Groups merged by step 1.
    pub merged_by_step1: usize,
    /// Step-2 LLM calls issued.
    pub llm_calls: usize,
    /// Step-2 calls abandoned by the transport.
    pub llm_abandoned: usize,
    /// Groups merged by the LLM.
    pub merged_by_llm: usize,
    /// Groups rejected as framework icons.
    pub framework_rejections: usize,
    /// Groups the model declined to name.
    pub dont_know: usize,
    /// Token accounting.
    pub usage: Usage,
    /// Resilience spend of the stage.
    pub resilience: ResilienceStatsRecord,
}

impl From<&FaviconStats> for FaviconStatsRecord {
    fn from(s: &FaviconStats) -> Self {
        FaviconStatsRecord {
            favicons_total: s.favicons_total,
            favicons_shared: s.favicons_shared,
            urls_in_shared: s.urls_in_shared,
            same_label_groups: s.same_label_groups,
            merged_by_step1: s.merged_by_step1,
            llm_calls: s.llm_calls,
            llm_abandoned: s.llm_abandoned,
            merged_by_llm: s.merged_by_llm,
            framework_rejections: s.framework_rejections,
            dont_know: s.dont_know,
            usage: s.usage,
            resilience: (&s.resilience).into(),
        }
    }
}

impl From<&FaviconStatsRecord> for FaviconStats {
    fn from(r: &FaviconStatsRecord) -> Self {
        FaviconStats {
            favicons_total: r.favicons_total,
            favicons_shared: r.favicons_shared,
            urls_in_shared: r.urls_in_shared,
            same_label_groups: r.same_label_groups,
            merged_by_step1: r.merged_by_step1,
            llm_calls: r.llm_calls,
            llm_abandoned: r.llm_abandoned,
            merged_by_llm: r.merged_by_llm,
            framework_rejections: r.framework_rejections,
            dont_know: r.dont_know,
            usage: r.usage,
            resilience: (&r.resilience).into(),
        }
    }
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
    pub ner_stats: NerStatsRecord,
    /// Final-URL groups with their URLs, in inference order.
    pub rr_groups: Vec<RrGroupRecord>,
    /// R&R counters.
    pub rr_stats: RrStatsRecord,
    /// Favicon merge groups with their favicons, in inference order.
    pub favicon_groups: Vec<FaviconGroupRecord>,
    /// Favicon funnel counters.
    pub favicon_stats: FaviconStatsRecord,
    /// Crawl funnel counters.
    pub scrape_stats: ScrapeStatsRecord,
    /// Crawl redirect-cache counters (observational, feeds the ledger).
    pub web_cache: CacheStats,
}

/// The full persistable compiled world: the incremental-remap state
/// plus the serving extras. This is what `borges-store` frames into an
/// on-disk artifact.
#[derive(Debug, Clone, Default, PartialEq)]
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
        let mut seen = std::collections::BTreeSet::new();
        for slot in &self.state.slots {
            if !seen.insert(slot.asn) {
                return Err(format!("duplicate interner slot for AS{}", slot.asn));
            }
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

    #[test]
    fn stats_mirrors_round_trip() {
        let stats = ScrapeStats {
            entries_with_website: 5,
            unique_favicons: 2,
            resilience: ResilienceStats {
                calls: 9,
                attempts: 12,
                ..ResilienceStats::default()
            },
            ..ScrapeStats::default()
        };
        let wire: ScrapeStatsRecord = (&stats).into();
        let back: ScrapeStats = (&wire).into();
        assert_eq!(back, stats);
    }
}
