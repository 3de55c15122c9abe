//! The unified run ledger.
//!
//! [`RunReport`] gathers everything a pipeline run knows about itself —
//! the per-stage funnels that were previously scattered across
//! `ScrapeStats`/`RrStats`/`NerStats`/`FaviconStats`, the per-feature
//! coverage ledger, per-boundary retry/breaker accounting, cache efficacy
//! counters, breaker state transitions, per-worker chunk timings, and the
//! full metrics snapshot — into one serializable document with a pinned
//! schema tag.
//!
//! The types here are deliberately *mirrors*, not re-exports: the stats
//! structs of the producing crates stay serde-free and the ledger's wire
//! shape is owned in exactly one place. Conversions live next to the
//! producers (`borges-core` builds the funnels, the CLI appends cache
//! rows).

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every report; bump on breaking shape changes.
/// v2 added the [`DeltaReport`] row group for incremental re-mapping.
pub const RUN_REPORT_SCHEMA: &str = "borges.run_report.v2";

/// The crawl funnel (mirror of `ScrapeStats`, sans resilience).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlFunnel {
    /// PeeringDB entries with a website field.
    pub entries_with_website: u64,
    /// Entries whose website failed to parse as a URL.
    pub entries_with_invalid_url: u64,
    /// Entries abandoned after transport recovery was exhausted.
    pub entries_abandoned: u64,
    /// Distinct parsed URLs.
    pub unique_urls: u64,
    /// URLs that resolved to a final URL.
    pub reachable_urls: u64,
    /// Distinct final URLs after redirects.
    pub unique_final_urls: u64,
    /// Final URLs that served a favicon.
    pub final_urls_with_favicon: u64,
    /// Distinct favicon hashes.
    pub unique_favicons: u64,
}

/// The final-URL matching funnel (mirror of `RrStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrFunnel {
    /// Networks with a resolved final URL.
    pub networks_with_final_url: u64,
    /// Networks dropped by the final-URL blocklist.
    pub blocked_networks: u64,
    /// Distinct (non-blocked) final URLs.
    pub distinct_final_urls: u64,
    /// Final URLs shared by more than one network.
    pub shared_final_urls: u64,
}

/// The NER extraction funnel (mirror of `NerStats`; token usage is
/// flattened to two counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NerFunnel {
    /// PeeringDB entries in the snapshot.
    pub entries_total: u64,
    /// Entries with non-empty notes or aka.
    pub entries_with_text: u64,
    /// Entries passing the numeric input filter.
    pub entries_numeric: u64,
    /// … of which the digits are in aka.
    pub numeric_in_aka: u64,
    /// … of which the digits are in notes.
    pub numeric_in_notes: u64,
    /// LLM calls issued.
    pub llm_calls: u64,
    /// LLM calls abandoned after recovery was exhausted.
    pub llm_abandoned: u64,
    /// Reply ASNs rejected by the hallucination filter.
    pub filtered_out: u64,
    /// Entries with at least one surviving extraction.
    pub entries_with_siblings: u64,
    /// Distinct sibling ASNs extracted.
    pub extracted_asns: u64,
    /// Prompt tokens spent by the stage.
    pub prompt_tokens: u64,
    /// Completion tokens spent by the stage.
    pub completion_tokens: u64,
}

/// The favicon grouping funnel (mirror of `FaviconStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaviconFunnel {
    /// Distinct favicons across final URLs.
    pub favicons_total: u64,
    /// Favicons shared by more than one final URL.
    pub favicons_shared: u64,
    /// Final URLs involved in shared favicons.
    pub urls_in_shared: u64,
    /// Shared favicons with a same-brand-label pair.
    pub same_label_groups: u64,
    /// Groups merged without the LLM.
    pub merged_by_step1: u64,
    /// Step-2 LLM calls issued.
    pub llm_calls: u64,
    /// Step-2 calls abandoned after recovery was exhausted.
    pub llm_abandoned: u64,
    /// Groups merged by the LLM.
    pub merged_by_llm: u64,
    /// Groups rejected as framework default icons.
    pub framework_rejections: u64,
    /// Groups the model declined to name.
    pub dont_know: u64,
    /// Prompt tokens spent by the stage.
    pub prompt_tokens: u64,
    /// Completion tokens spent by the stage.
    pub completion_tokens: u64,
}

/// Size of the compiled evidence base, per evidence class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceSummary {
    /// ASNs in the fixed universe.
    pub asns: u64,
    /// WHOIS OrgId sibling groups.
    pub whois_groups: u64,
    /// PeeringDB OrgId sibling groups.
    pub pdb_groups: u64,
    /// Final-URL (redirect) sibling groups.
    pub rr_groups: u64,
    /// Favicon sibling groups.
    pub favicon_groups: u64,
    /// NER subject→sibling links.
    pub ner_links: u64,
}

/// One source's record-delta classification row (incremental runs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaRecordRow {
    /// Input source (`whois_org`, `whois_aut`, `pdb_org`, `pdb_net`,
    /// `site`).
    pub source: String,
    /// Records with an unchanged fingerprint.
    pub unchanged: u64,
    /// Records present only in the new snapshot.
    pub added: u64,
    /// Records present only in the old snapshot.
    pub removed: u64,
    /// Records present in both with a moved fingerprint.
    pub modified: u64,
}

/// One feature's edge-segment reuse row (incremental runs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaEdgeRow {
    /// Evidence feature (`oid_w`, `oid_p`, `na`, `rr`, `favicons`).
    pub feature: String,
    /// Segments reused verbatim from the persisted state.
    pub segments_retained: u64,
    /// Segments re-derived (new key, or member partition moved).
    pub segments_rederived: u64,
    /// Dense edges carried over without recomputation.
    pub edges_retained: u64,
    /// Dense edges freshly derived.
    pub edges_rederived: u64,
}

/// The incremental-remap row group: what the delta engine classified,
/// reused and re-derived. On full runs this is the inert default
/// (`incremental: false`, empty rows) so the ledger shape is identical
/// across pipelines. Wall-clock savings are deliberately absent: the
/// ledger must stay byte-deterministic under a simulated clock, so
/// speedups are measured by the remap benchmark, not recorded here.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaReport {
    /// Whether this run was an incremental remap.
    pub incremental: bool,
    /// Per-source record classification, fixed order.
    pub records: Vec<DeltaRecordRow>,
    /// Per-feature segment reuse, fixed order.
    pub edges: Vec<DeltaEdgeRow>,
    /// Interner slots carried over alive.
    pub asns_retained: u64,
    /// ASNs appended (new, or resurrected tombstones).
    pub asns_added: u64,
    /// Slots tombstoned because the ASN left the universe.
    pub asns_retired: u64,
    /// NER extractions replayed from the memo.
    pub ner_reused: u64,
    /// NER extractions that required a physical LLM call.
    pub ner_recomputed: u64,
    /// Favicon verdicts replayed from the memo.
    pub favicon_reused: u64,
    /// Favicon verdicts that required a physical LLM call.
    pub favicon_recomputed: u64,
    /// Physical LLM calls avoided via memo replay.
    pub llm_calls_saved: u64,
}

impl DeltaReport {
    /// Whether every record row balances against its edge accounting —
    /// trivially true on full runs (no rows).
    pub fn consistent(&self) -> bool {
        self.llm_calls_saved == self.ner_reused + self.favicon_reused
    }
}

/// The timeline row group: which chain link this run appended, when a
/// `--timeline` directory was mounted. Inert default otherwise, and
/// `#[serde(default)]` on the way in, so pre-timeline v2 ledgers still
/// parse and the shape stays identical across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Whether this run appended a link to a timeline chain.
    pub appended: bool,
    /// Chain epoch of the appended link (0 when not appended).
    pub epoch: u64,
    /// Content digest of the appended world (empty when not appended).
    pub world_digest: String,
}

/// One row of the per-feature coverage ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Feature the row accounts for (`crawl`, `notes_aka`, …).
    pub feature: String,
    /// Work items the stage tried.
    pub attempted: u64,
    /// Items that produced evidence.
    pub succeeded: u64,
    /// Items lost after recovery was exhausted.
    pub abandoned: u64,
}

impl CoverageRow {
    /// The ledger invariant: nothing attempted goes unaccounted.
    pub fn accounted(&self) -> bool {
        self.abandoned + self.succeeded == self.attempted
    }
}

/// Per-boundary retry/breaker accounting (mirror of `ResilienceStats`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceRow {
    /// Boundary the wrapper guarded (`web`, `llm.ner`, `llm.favicon`).
    pub boundary: String,
    /// Logical calls through the wrapper.
    pub calls: u64,
    /// Physical attempts (>= calls).
    pub attempts: u64,
    /// Calls that succeeded only after retrying.
    pub recovered: u64,
    /// Calls abandoned with the budget exhausted.
    pub abandoned: u64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Calls fast-failed by an open breaker.
    pub breaker_fast_fails: u64,
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backing source.
    pub misses: u64,
    /// Entries dropped to enforce a capacity bound.
    pub evictions: u64,
    /// Entries resident when the stats were read.
    pub entries: u64,
}

/// A named cache's counters, as a ledger row.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheReport {
    /// Cache name (`web.redirect`, `llm.response`).
    pub name: String,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backing source.
    pub misses: u64,
    /// Entries dropped to enforce a capacity bound.
    pub evictions: u64,
    /// Entries resident when the stats were read.
    pub entries: u64,
}

impl CacheReport {
    /// Labels a [`CacheStats`] as a ledger row.
    pub fn new(name: &str, stats: CacheStats) -> Self {
        let CacheStats {
            hits,
            misses,
            evictions,
            entries,
        } = stats;
        CacheReport {
            name: name.to_string(),
            hits,
            misses,
            evictions,
            entries,
        }
    }
}

/// A circuit-breaker state transition.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BreakerEvent {
    /// Boundary whose breaker transitioned (`web`, `llm.ner`, …).
    pub boundary: String,
    /// Breaker key (the host, or the model boundary name).
    pub key: String,
    /// Transition name (`open`).
    pub transition: String,
    /// Clock reading at the end of the call that tripped the breaker.
    /// `llm.*` events read the run clock (the telemetry's clock, on
    /// which the trace's spans are stamped); `web` events read the
    /// tripping fetch's own clock, so they give the time into its
    /// backoff.
    pub at_ms: u64,
}

/// One worker chunk's timing from a parallel fan-out.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerTiming {
    /// Fan-out site (`mapping`, `crawl`, `ner`).
    pub stage: String,
    /// Chunk index within the fan-out.
    pub chunk: u64,
    /// Items in the chunk.
    pub items: u64,
    /// Clock reading when the chunk started.
    pub started_ms: u64,
    /// Wall-clock (or virtual) milliseconds the chunk took.
    pub elapsed_ms: u64,
}

/// The unified, serializable ledger of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Always [`RUN_REPORT_SCHEMA`].
    pub schema: String,
    /// How the run executed (`sequential`, `parallel`, `resilient`).
    pub pipeline: String,
    /// Worker threads used for parallel stages (1 for sequential).
    pub threads: u64,
    /// Crawl funnel.
    pub crawl: CrawlFunnel,
    /// Final-URL matching funnel.
    pub rr: RrFunnel,
    /// NER extraction funnel.
    pub ner: NerFunnel,
    /// Favicon grouping funnel.
    pub favicon: FaviconFunnel,
    /// Compiled evidence base sizes.
    pub evidence: EvidenceSummary,
    /// Incremental-remap delta accounting (inert default on full runs).
    pub delta: DeltaReport,
    /// Timeline chain accounting (inert default without `--timeline`).
    #[serde(default)]
    pub timeline: TimelineReport,
    /// Per-feature coverage ledger.
    pub coverage: Vec<CoverageRow>,
    /// Per-boundary retry/breaker accounting.
    pub resilience: Vec<ResilienceRow>,
    /// Cache efficacy counters.
    pub caches: Vec<CacheReport>,
    /// Breaker state transitions, sorted.
    pub breaker_events: Vec<BreakerEvent>,
    /// Parallel chunk timings, sorted by (stage, chunk).
    pub workers: Vec<WorkerTiming>,
    /// Full metrics snapshot at report time.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// An empty report with the schema tag stamped.
    pub fn new() -> Self {
        RunReport {
            schema: RUN_REPORT_SCHEMA.to_string(),
            ..RunReport::default()
        }
    }

    /// Whether every coverage row balances
    /// (`abandoned + succeeded == attempted`).
    pub fn accounted(&self) -> bool {
        self.coverage.iter().all(CoverageRow::accounted)
    }

    /// Sum of attempted items across the coverage ledger.
    pub fn total_attempted(&self) -> u64 {
        self.coverage.iter().map(|r| r.attempted).sum()
    }

    /// Sum of abandoned items across the coverage ledger.
    pub fn total_abandoned(&self) -> u64 {
        self.coverage.iter().map(|r| r.abandoned).sum()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("run reports always serialize")
    }

    /// Parses a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample() -> RunReport {
        let registry = MetricsRegistry::new();
        registry.counter("borges_ner_llm_calls_total", 3);
        registry.observe_ms("borges_web_call_ms", 12);
        RunReport {
            pipeline: "resilient".to_string(),
            threads: 4,
            crawl: CrawlFunnel {
                entries_with_website: 10,
                unique_urls: 9,
                reachable_urls: 8,
                ..CrawlFunnel::default()
            },
            rr: RrFunnel {
                networks_with_final_url: 8,
                ..RrFunnel::default()
            },
            ner: NerFunnel {
                llm_calls: 3,
                prompt_tokens: 120,
                ..NerFunnel::default()
            },
            favicon: FaviconFunnel {
                favicons_total: 5,
                ..FaviconFunnel::default()
            },
            evidence: EvidenceSummary {
                asns: 40,
                whois_groups: 6,
                ..EvidenceSummary::default()
            },
            coverage: vec![CoverageRow {
                feature: "crawl".to_string(),
                attempted: 10,
                succeeded: 8,
                abandoned: 2,
            }],
            resilience: vec![ResilienceRow {
                boundary: "web".to_string(),
                calls: 9,
                attempts: 14,
                recovered: 3,
                abandoned: 2,
                ..ResilienceRow::default()
            }],
            caches: vec![CacheReport::new(
                "web.redirect",
                CacheStats {
                    hits: 4,
                    misses: 9,
                    evictions: 0,
                    entries: 9,
                },
            )],
            breaker_events: vec![BreakerEvent {
                boundary: "web".to_string(),
                key: "h0.example".to_string(),
                transition: "open".to_string(),
                at_ms: 700,
            }],
            workers: vec![WorkerTiming {
                stage: "mapping".to_string(),
                chunk: 0,
                items: 16,
                started_ms: 0,
                elapsed_ms: 0,
            }],
            metrics: registry.snapshot(),
            ..RunReport::new()
        }
    }

    #[test]
    fn golden_report_roundtrips_through_json() {
        let report = sample();
        let json = report.to_json_pretty();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Serialization is deterministic: same report, same bytes.
        assert_eq!(back.to_json_pretty(), json);
    }

    #[test]
    fn golden_report_shape_is_pinned() {
        let json = sample().to_json_pretty();
        // The schema tag and every top-level section appear, in
        // declaration order (the vendored writer preserves field order).
        let keys = [
            "\"schema\": \"borges.run_report.v2\"",
            "\"pipeline\"",
            "\"threads\"",
            "\"crawl\"",
            "\"rr\"",
            "\"ner\"",
            "\"favicon\"",
            "\"evidence\"",
            "\"delta\"",
            "\"timeline\"",
            "\"coverage\"",
            "\"resilience\"",
            "\"caches\"",
            "\"breaker_events\"",
            "\"workers\"",
            "\"metrics\"",
        ];
        let mut last = 0;
        for key in keys {
            let at = json[last..]
                .find(key)
                .unwrap_or_else(|| panic!("{key} missing or out of order"));
            last += at;
        }
    }

    #[test]
    fn pre_timeline_reports_still_parse() {
        // A v2 ledger written before the timeline row group existed
        // has no "timeline" key; it must deserialize to the inert
        // default, not fail.
        let mut json = sample().to_json_pretty();
        let start = json
            .find("  \"timeline\": {")
            .expect("timeline group present");
        let end = json[start..].find("},\n").expect("group closes") + start + 3;
        json.replace_range(start..end, "");
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.timeline, TimelineReport::default());
        assert!(!back.timeline.appended);
    }

    #[test]
    fn ledger_invariant_checks() {
        let mut report = sample();
        assert!(report.accounted());
        assert_eq!(report.total_attempted(), 10);
        assert_eq!(report.total_abandoned(), 2);
        report.coverage[0].succeeded = 9; // 9 + 2 != 10
        assert!(!report.accounted());
    }

    #[test]
    fn empty_report_is_valid_and_tagged() {
        let report = RunReport::new();
        assert_eq!(report.schema, RUN_REPORT_SCHEMA);
        assert!(report.accounted(), "an empty ledger balances");
        let back = RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
    }
}
