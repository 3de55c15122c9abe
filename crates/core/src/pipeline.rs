//! The Borges pipeline: feature computation and combination.
//!
//! [`Borges::ingest`] executes every stage once — organization keys
//! (§4.1), LLM extraction (§4.2), the web crawl and both web inferences
//! (§4.3) — and caches their merge evidence. [`Borges::run`] is its
//! reference over a crawl, one remote call at a time. [`Borges::mapping`]
//! then materializes the AS-to-Organization mapping for **any subset of
//! features** (Table 6 evaluates all 16 combinations).
//!
//! ## Evidence compilation
//!
//! Construction compiles every evidence source into dense-id edge lists
//! over the fixed universe (§5.4: vertices are all delegated networks):
//! ASNs are interned once through an [`AsnInterner`], evidence about
//! never-allocated ASNs is filtered out once, and the compulsory OID_W
//! closure is computed once into a [`DenseUnionFind`] base. Each
//! `mapping()` call then clones the base (two `memcpy`s) and replays
//! only the selected feature edges — no tree-map interning and no
//! membership checks on the hot path, which makes materialization both
//! cheap and embarrassingly parallel across feature combinations
//! ([`Borges::mappings_parallel`]).

use crate::delta::{
    self, DeltaStats, EdgeSegment, SegmentDelta, SnapshotDelta, SnapshotState, SourceDelta,
    SourceFingerprints,
};
use crate::mapping::AsOrgMapping;
use crate::ner::{self, NerConfig, NerMemoEntry, NerResult};
use crate::orgkeys;
use crate::unionfind::{DenseUnionFind, UnionFind};
use crate::web::favicon::{self, FaviconInference};
use crate::web::rr::{rr_inference, RrInference};
use crate::world::{
    CompiledWorld, FaviconGroupRecord, NerEntryRecord, RrGroupRecord, ServingExtras,
};
use borges_llm::chat::{ChatModel, ChatRequest, ChatResponse};
use borges_llm::RetryingModel;
use borges_parallel::{stream_indexed, StreamLedger, DEFAULT_IN_FLIGHT};
use borges_peeringdb::PdbSnapshot;
use borges_resilience::{
    BreakerConfig, Clock, ResilienceStats, RetryPolicy, SimClock, TransportError,
};
use borges_telemetry::{
    CacheReport, CacheStats, CoverageRow, CrawlFunnel, DeltaEdgeRow, DeltaRecordRow, DeltaReport,
    EvidenceSummary, FaviconFunnel, NerFunnel, ResilienceRow, RrFunnel, RunReport, Span, Telemetry,
    TimelineReport, Verbosity, WorkerTiming, RUN_REPORT_SCHEMA,
};
use borges_types::{Asn, AsnInterner};
use borges_websim::{
    CrawlEntry, ReportAssembler, Resolution, RetryingWebClient, ScrapeReport, ScrapeStats, Scraper,
    WebClient,
};
use borges_whois::WhoisRegistry;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// A subset of Borges's four optional features. The WHOIS organization
/// key (`OID_W`) is always on — it is the compulsory base that defines
/// the universe, and with all four features off the pipeline *is* the
/// AS2Org baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureSet {
    /// PeeringDB organization keys (§4.1).
    pub oid_p: bool,
    /// notes/aka LLM extraction (§4.2).
    pub na: bool,
    /// Final-URL matching (§4.3.2).
    pub rr: bool,
    /// Favicon decision tree (§4.3.3).
    pub favicons: bool,
}

impl FeatureSet {
    /// No optional features: the AS2Org baseline.
    pub const NONE: FeatureSet = FeatureSet {
        oid_p: false,
        na: false,
        rr: false,
        favicons: false,
    };

    /// Everything on: full Borges.
    pub const ALL: FeatureSet = FeatureSet {
        oid_p: true,
        na: true,
        rr: true,
        favicons: true,
    };

    /// All 16 combinations, in binary-counting order (Table 6 rows).
    pub fn all_combinations() -> Vec<FeatureSet> {
        (0..16).map(FeatureSet::from_bits).collect()
    }

    /// Packs the four optional features into the low nibble of a byte —
    /// a dense cache/map key. Inverse of [`FeatureSet::from_bits`].
    pub fn bits(&self) -> u8 {
        (self.oid_p as u8)
            | (self.na as u8) << 1
            | (self.rr as u8) << 2
            | (self.favicons as u8) << 3
    }

    /// The feature set encoded by the low nibble of `bits` (high bits
    /// are ignored). Inverse of [`FeatureSet::bits`].
    pub fn from_bits(bits: u8) -> FeatureSet {
        FeatureSet {
            oid_p: bits & 1 != 0,
            na: bits & 2 != 0,
            rr: bits & 4 != 0,
            favicons: bits & 8 != 0,
        }
    }

    /// Parses a feature spec: `all`, `none`, or a comma-separated list
    /// of `oid_p`, `na` (alias `notes-aka`), `rr`, `favicons` (alias
    /// `f`). Shared by the CLI `--features` flag and the serving API's
    /// `features=` query parameter, so both surfaces accept the same
    /// vocabulary and reject the same typos.
    pub fn parse(spec: &str) -> Result<FeatureSet, String> {
        match spec {
            "all" => return Ok(FeatureSet::ALL),
            "none" => return Ok(FeatureSet::NONE),
            _ => {}
        }
        let mut features = FeatureSet::NONE;
        for token in spec.split(',') {
            match token.trim() {
                "oid_p" => features.oid_p = true,
                "na" | "notes-aka" => features.na = true,
                "rr" => features.rr = true,
                "favicons" | "f" => features.favicons = true,
                other => {
                    return Err(format!(
                        "unknown feature {other:?} (expected oid_p, na, rr, favicons)"
                    ))
                }
            }
        }
        Ok(features)
    }

    /// A human-readable label like `"OID_P + N&A"` (or `"AS2Org"` for the
    /// empty set).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.oid_p {
            parts.push("OID_P");
        }
        if self.na {
            parts.push("N&A");
        }
        if self.rr {
            parts.push("R&R");
        }
        if self.favicons {
            parts.push("F");
        }
        if parts.is_empty() {
            "AS2Org (base)".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// One of the five evidence sources of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// PeeringDB org keys.
    OidP,
    /// WHOIS org keys.
    OidW,
    /// notes/aka extraction.
    NotesAka,
    /// Final-URL matching.
    RefreshRedirect,
    /// Favicon grouping.
    Favicons,
}

impl Feature {
    /// All five, in Table 3 row order.
    pub const ALL: [Feature; 5] = [
        Feature::OidP,
        Feature::OidW,
        Feature::NotesAka,
        Feature::RefreshRedirect,
        Feature::Favicons,
    ];

    /// The row label used in Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            Feature::OidP => "OID_P",
            Feature::OidW => "OID_W",
            Feature::NotesAka => "notes and aka",
            Feature::RefreshRedirect => "R&R",
            Feature::Favicons => "Favicons",
        }
    }
}

/// Table 3 row: how many ASNs a feature says anything about, and how many
/// organizations it groups them into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureContribution {
    /// Number of ASes covered by the feature in isolation.
    pub ases: usize,
    /// Number of organizations the feature groups them into.
    pub orgs: usize,
}

/// All five evidence sources compiled to dense-id edge lists over the
/// fixed universe, plus the precomputed OID_W base closure.
///
/// Compiled once at pipeline construction; replayed (against a clone of
/// `base`) on every [`Borges::mapping`] call. Evidence naming ASNs
/// outside the universe is dropped here, mirroring the membership
/// filtering the per-call path used to do: every group is filtered
/// member-wise and then chained pairwise (the spanning chain
/// [`UnionFind::union_group`] walks) — an NER subject's star of
/// siblings becomes a chain with the same edge count and closure.
///
/// The edge lists are partitioned into [`EdgeSegment`]s keyed by the
/// source record that derived them. A full compile and an incremental
/// one run the *same* segment-merge code ([`delta::merge_feature`]) —
/// the full path just starts from an empty prior, which is what makes
/// incremental-equals-full structural rather than coincidental.
#[derive(Debug, Clone)]
struct CompiledEvidence {
    interner: AsnInterner,
    /// The compulsory OID_W feature, already closed over the universe.
    base: DenseUnionFind,
    oid_w: Vec<EdgeSegment<String>>,
    oid_p: Vec<EdgeSegment<u64>>,
    na: Vec<EdgeSegment<u32>>,
    rr: Vec<EdgeSegment<String>>,
    favicons: Vec<EdgeSegment<u64>>,
}

fn segment_edge_count<K>(segments: &[EdgeSegment<K>]) -> usize {
    segments.iter().map(|s| s.edges.len()).sum()
}

impl CompiledEvidence {
    /// The segment-merge tail of every compile: the crawl-dependent
    /// features on top of a [`RegistryHalf`] derived against the same
    /// `prior`. With `None` every segment derives fresh; with a persisted
    /// snapshot-T state only segments whose member fingerprint moved are
    /// re-derived, and the per-feature union-find replay then happens
    /// lazily in [`Borges::mapping`], exactly as on a full run. The OID_W
    /// base closure comes from the registry half, which always rebuilds
    /// it from the segment edges.
    fn build(
        interner: AsnInterner,
        registry: RegistryHalf,
        prior: Option<&SnapshotState>,
        ner: &NerResult,
        rr: &RrInference,
        favicon: &FaviconInference,
    ) -> (Self, [SegmentDelta; 5]) {
        let (p_na, p_rr, p_f) = match prior {
            Some(s) => (s.prior_na(), s.prior_rr(), s.prior_favicons()),
            None => Default::default(),
        };
        let (na, d_na) = delta::merge_feature(&interner, &p_na, delta::keyed_ner_groups(ner));
        let (rr, d_rr) = delta::merge_feature(&interner, &p_rr, delta::keyed_rr_groups(rr));
        let (favicons, d_f) =
            delta::merge_feature(&interner, &p_f, delta::keyed_favicon_groups(favicon));

        let RegistryHalf {
            oid_w,
            oid_p,
            base,
            deltas: [d_w, d_p],
        } = registry;
        (
            CompiledEvidence {
                interner,
                base,
                oid_w,
                oid_p,
                na,
                rr,
                favicons,
            },
            [d_w, d_p, d_na, d_rr, d_f],
        )
    }
}

/// The order [`Borges::evidence`] lists features in, which is also the
/// column order of an [`EvidenceTable`] row.
const EVIDENCE_ORDER: [Feature; 5] = [
    Feature::OidW,
    Feature::OidP,
    Feature::NotesAka,
    Feature::RefreshRedirect,
    Feature::Favicons,
];

/// An [`EvidenceTable`] cell for an ASN the feature's inputs never name.
const UNMENTIONED: u32 = u32::MAX;

/// Per-feature connected components of the compiled evidence, one row
/// per dense id. Column `f` holds the id's component root under the
/// edge segments of `EVIDENCE_ORDER[f]` alone, or [`UNMENTIONED`] when
/// that feature's inputs do not name the ASN. A feature connects two
/// ids iff their cells in its column are equal and not `UNMENTIONED`.
///
/// Built once per world, on the first [`Borges::evidence`] call, from
/// the same segments [`Borges::mapping`] replays; never persisted.
#[derive(Debug, Clone)]
struct EvidenceTable {
    rows: Vec<[u32; 5]>,
}

impl EvidenceTable {
    fn build(borges: &Borges) -> Self {
        let (c, ids) = (&borges.compiled, &borges.compiled.interner);
        let ner_edges = borges.ner.edges();
        let mut table = EvidenceTable {
            rows: vec![[UNMENTIONED; 5]; ids.len()],
        };
        table.fill(0, ids, &c.oid_w, borges.oid_w_groups.iter().flatten());
        table.fill(1, ids, &c.oid_p, borges.oid_p_groups.iter().flatten());
        table.fill(2, ids, &c.na, ner_edges.iter().flat_map(|(x, y)| [x, y]));
        table.fill(3, ids, &c.rr, borges.rr.merging_groups().flatten());
        table.fill(4, ids, &c.favicons, borges.favicon.groups.iter().flatten());
        table
    }

    /// Fills `column` with the components of `segments`, for the live
    /// ids among the `mentioned` ASNs.
    fn fill<'a, K>(
        &mut self,
        column: usize,
        interner: &AsnInterner,
        segments: &[EdgeSegment<K>],
        mentioned: impl Iterator<Item = &'a Asn>,
    ) {
        let mut uf = DenseUnionFind::new(interner.len());
        for seg in segments {
            uf.union_edges(&seg.edges);
        }
        let roots = uf.into_roots();
        for id in mentioned.filter_map(|&asn| interner.id(asn)) {
            self.rows[id as usize][column] = roots[id as usize];
        }
    }

    /// The features whose components hold both dense ids, in
    /// [`EVIDENCE_ORDER`].
    fn supporting(&self, a: u32, b: u32) -> Vec<Feature> {
        let (ra, rb) = (self.rows[a as usize], self.rows[b as usize]);
        EVIDENCE_ORDER
            .into_iter()
            .zip(ra.into_iter().zip(rb))
            .filter(|&(_, (x, y))| x != UNMENTIONED && x == y)
            .map(|(feature, _)| feature)
            .collect()
    }
}

/// The OID_W base closure: a forest over `len` dense ids with every
/// OID_W segment's edges replayed, in segment order.
fn oid_w_closure(len: usize, oid_w: &[EdgeSegment<String>]) -> DenseUnionFind {
    let mut base = DenseUnionFind::new(len);
    for seg in oid_w {
        base.union_edges(&seg.edges);
    }
    base
}

/// The half of a compile that reads the registries alone (WHOIS and
/// PeeringDB): the OID_W and OID_P edge segments, and the OID_W base
/// closure replayed from them. It needs no crawl and no LLM, so the
/// pooled front builds it while its calls are in flight.
struct RegistryHalf {
    oid_w: Vec<EdgeSegment<String>>,
    oid_p: Vec<EdgeSegment<u64>>,
    base: DenseUnionFind,
    deltas: [SegmentDelta; 2],
}

impl RegistryHalf {
    /// Derives the registry segments against `prior` (`None`: from
    /// scratch) and replays the OID_W base closure. The closure is
    /// always rebuilt from the segment edges: a union-find cannot
    /// un-union a retired bridge, and the rebuild is cheap next to group
    /// re-derivation.
    fn derive(
        interner: &AsnInterner,
        prior: Option<&SnapshotState>,
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
    ) -> Self {
        let (p_w, p_p) = match prior {
            Some(s) => (s.prior_oid_w(), s.prior_oid_p()),
            None => Default::default(),
        };
        let (oid_w, d_w) = delta::merge_feature(interner, &p_w, delta::keyed_whois_groups(whois));
        let (oid_p, d_p) = delta::merge_feature(interner, &p_p, delta::keyed_pdb_groups(pdb));
        RegistryHalf {
            base: oid_w_closure(interner.len(), &oid_w),
            oid_w,
            oid_p,
            deltas: [d_w, d_p],
        }
    }
}

/// Everything a compile derives before the crawl-dependent features:
/// the universe's interner, the [`RegistryHalf`], and both registry
/// org-key groupings.
struct Precompiled {
    interner: AsnInterner,
    registry: RegistryHalf,
    oid_w_groups: Vec<Vec<Asn>>,
    oid_p_groups: Vec<Vec<Asn>>,
    /// The interner evolution's `asns_*` accounting (all zero without a
    /// prior state); the compile fills in the rest.
    delta: DeltaStats,
}

impl Precompiled {
    /// Fixes the universe and derives the registry half against `prior`.
    /// Without a prior the interner is fresh. With one it evolves
    /// append-only from the persisted slots: surviving ASNs keep their
    /// dense ids, departures are tombstoned, and arrivals get fresh or
    /// resurrected slots.
    fn build(whois: &WhoisRegistry, pdb: &PdbSnapshot, prior: Option<&SnapshotState>) -> Self {
        let mut universe: BTreeSet<Asn> = whois.all_asns().collect();
        // PeeringDB networks missing from WHOIS (rare, but real dumps have
        // them) still belong to the mapping universe.
        universe.extend(pdb.nets().map(|n| n.asn));
        let mut delta = DeltaStats::default();
        let interner = match prior {
            None => AsnInterner::new(universe),
            Some(state) => {
                let mut interner = AsnInterner::from_slots(state.slot_pairs());
                for asn in interner.live_asns() {
                    if universe.contains(&asn) {
                        delta.asns_retained += 1;
                    } else {
                        interner.retire(asn);
                        delta.asns_retired += 1;
                    }
                }
                // Ascending order keeps appended slot ids deterministic.
                for &asn in &universe {
                    if !interner.contains(asn) {
                        interner.append(asn);
                        delta.asns_added += 1;
                    }
                }
                interner
            }
        };
        Precompiled {
            registry: RegistryHalf::derive(&interner, prior, whois, pdb),
            interner,
            oid_w_groups: orgkeys::oid_w_groups(whois),
            oid_p_groups: orgkeys::oid_p_groups(pdb),
            delta,
        }
    }
}

/// How much of one feature's attempted work survived the transport —
/// one row of the [`CoverageReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureCoverage {
    /// Units of work the stage attempted (entries, LLM calls, groups).
    pub attempted: usize,
    /// Units whose transport transaction completed (whatever the
    /// in-world answer was).
    pub succeeded: usize,
    /// Units abandoned after the resilience budget ran out (or
    /// immediately, when no retry layer was installed).
    pub abandoned: usize,
}

impl FeatureCoverage {
    fn new(attempted: usize, abandoned: usize) -> Self {
        FeatureCoverage {
            attempted,
            succeeded: attempted - abandoned,
            abandoned,
        }
    }

    /// Accounting invariant: nothing silently dropped. Holds by
    /// construction for every report the pipeline builds; exposed so
    /// callers (and the chaos tests) can assert it end to end.
    pub fn accounted(&self) -> bool {
        self.succeeded + self.abandoned == self.attempted
    }

    /// No losses at all — the degraded and flawless pipelines coincide.
    pub fn complete(&self) -> bool {
        self.abandoned == 0
    }

    /// Fraction of attempted work that survived (1.0 for an idle stage).
    pub fn fraction(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.succeeded as f64 / self.attempted as f64
        }
    }
}

/// Per-feature account of what the pipeline attempted, kept, and lost to
/// the transport — the "partial evidence" contract: a degraded run tells
/// you exactly what is missing instead of failing or lying by omission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageReport {
    /// The crawl: PeeringDB entries with a parseable website URL.
    pub crawl: FeatureCoverage,
    /// §4.2 extraction: LLM calls over notes/aka text.
    pub notes_aka: FeatureCoverage,
    /// §4.3.3 step 2: LLM calls over shared-favicon groups.
    pub favicon_groups: FeatureCoverage,
}

impl CoverageReport {
    /// Every row individually accounted (see
    /// [`FeatureCoverage::accounted`]).
    pub fn accounted(&self) -> bool {
        self.crawl.accounted() && self.notes_aka.accounted() && self.favicon_groups.accounted()
    }

    /// Nothing was lost anywhere: the mapping is built on full evidence.
    pub fn complete(&self) -> bool {
        self.crawl.complete() && self.notes_aka.complete() && self.favicon_groups.complete()
    }

    /// Total abandoned units across all rows.
    pub fn total_abandoned(&self) -> usize {
        self.crawl.abandoned + self.notes_aka.abandoned + self.favicon_groups.abandoned
    }
}

/// The computed pipeline: all evidence, ready to combine.
#[derive(Debug, Clone)]
pub struct Borges {
    compiled: CompiledEvidence,
    oid_w_groups: Vec<Vec<Asn>>,
    oid_p_groups: Vec<Vec<Asn>>,
    /// §4.2 extraction output.
    pub ner: NerResult,
    /// §4.3.2 output.
    pub rr: RrInference,
    /// §4.3.3 output.
    pub favicon: FaviconInference,
    /// Crawl funnel statistics (§5.2).
    pub scrape_stats: ScrapeStats,
    /// Hit/miss counters of the crawl's fetch (redirect) cache. Feeds
    /// the run ledger, not the funnel stats.
    pub web_cache: CacheStats,
    /// Per-record fingerprints of the inputs this run consumed, captured
    /// so [`Borges::snapshot_state`] can persist them for a later
    /// incremental remap to diff against.
    fingerprints: SourceFingerprints,
    /// Delta accounting when this pipeline was built incrementally (an
    /// ingest over a prior state, [`IngestOptions::prior`]); `None` on
    /// full runs.
    pub delta: Option<DeltaStats>,
    /// Timeline epoch this world was published at; `0` until a timeline
    /// append stamps it (see [`Borges::set_world_epoch`]). Exported
    /// through [`Borges::to_world`] so the epoch participates in the
    /// artifact's content address.
    world_epoch: u64,
    /// The content address a store load verified for this world
    /// ([`CompiledWorld::digest`]); see [`Borges::verified_digest`].
    verified_digest: Option<String>,
    /// The provenance table behind [`Borges::evidence`], built on its
    /// first call. `map` never builds it, with or without `--base`, and
    /// it is never persisted.
    evidence: OnceLock<EvidenceTable>,
}

/// Runs `f` as one logical pipeline stage: a child span of `parent` plus
/// a `borges_stage_<name>_ms` duration observation on the run clock. The
/// closure gets the span to annotate with its funnel numbers — fields
/// must come from merged, schedule-independent stats so the canonical
/// journal stays identical across sequential and parallel execution.
fn stage<T>(tel: &Telemetry, parent: &Span, name: &str, f: impl FnOnce(&Span) -> T) -> T {
    let span = parent.child(name);
    let started_ms = tel.now_ms();
    let out = f(&span);
    if tel.is_enabled() {
        tel.observe_ms(
            &format!("borges_stage_{name}_ms"),
            tel.now_ms().saturating_sub(started_ms),
        );
    }
    out
}

// Span annotations per stage. Every value is a merged funnel number —
// proven schedule-independent by `parallel_pipeline_matches_sequential` —
// never a per-worker observation. Incremental runs add the memo hits.

fn annotate_crawl(span: &Span, stats: &ScrapeStats) {
    span.field("entries_with_website", stats.entries_with_website);
    span.field("reachable_urls", stats.reachable_urls);
    span.field("entries_abandoned", stats.entries_abandoned);
}

fn annotate_ner(span: &Span, ner: &NerResult, incremental: bool) {
    span.field("llm_calls", ner.stats.llm_calls);
    span.field("extracted_asns", ner.stats.extracted_asns);
    if incremental {
        span.field("memo_hits", ner.memo_hits);
    }
}

fn annotate_rr(span: &Span, rr: &RrInference) {
    span.field("groups", rr.groups.len());
    span.field("shared_final_urls", rr.stats.shared_final_urls);
}

fn annotate_favicon(span: &Span, favicon: &FaviconInference, incremental: bool) {
    span.field("groups", favicon.groups.len());
    span.field("llm_calls", favicon.stats.llm_calls);
    if incremental {
        span.field("memo_hits", favicon.memo_hits);
    }
}

/// Where an ingest's web evidence comes from.
#[derive(Clone, Copy)]
pub enum WebSource<'a> {
    /// Crawl every PeeringDB website through this client: the trace has
    /// a `crawl` stage and the ledger a redirect-cache row. The fetches
    /// run on the I/O pool, each host's one at a time in input order,
    /// so the client may keep state per host (a cache, fault episodes,
    /// breakers) but none across hosts.
    Crawl(&'a (dyn WebClient + Sync)),
    /// A report scraped earlier, by ablations and benches (among them
    /// the benchmark harness's remap, which re-crawls with
    /// [`Scraper::crawl`] before it re-maps; the CLI's remap, `map
    /// --base`, crawls instead): there is no `crawl` stage, and the
    /// redirect-cache ledger row reads zero.
    Scraped(&'a ScrapeReport),
}

/// How an ingest runs: everything [`Borges::ingest`] takes besides its
/// inputs. The default is the reference — bare stack, an in-flight
/// budget of 1, full compile.
#[derive(Debug, Clone)]
pub struct IngestOptions<'a> {
    /// The NER stage's input and output filters (§4.2).
    pub ner: NerConfig,
    /// Retry policy for the web and LLM boundaries. `None` runs the bare
    /// stack; `Some` runs the resilient one: per-host circuit breakers on
    /// the web, and one breaker per LLM stage (NER and the favicon
    /// classifier keep separate state, so a meltdown in one stage cannot
    /// poison the other's budget accounting), all at
    /// [`BreakerConfig::standard`].
    pub policy: Option<RetryPolicy>,
    /// The I/O pool's in-flight budget (DESIGN.md §14), at least 1 (0
    /// runs as 1): every remote call — crawl fetches, NER and favicon
    /// completions — waits on the network from one pool of this many
    /// workers, NER overlapping the crawl. The default, 1, is the
    /// reference: one remote call at a time, in canonical order.
    /// [`DEFAULT_IN_FLIGHT`] is the CLI's budget at `--threads` 2 or
    /// more. No canonical output depends on it.
    pub pool: usize,
    /// Persisted state of an earlier snapshot. `Some` makes the ingest an
    /// incremental remap: the LLM stages replay its memos for records
    /// whose text did not change, the interner evolves from its slots,
    /// and every edge segment whose member fingerprint is untouched is
    /// reused.
    pub prior: Option<&'a SnapshotState>,
}

impl Default for IngestOptions<'_> {
    fn default() -> Self {
        IngestOptions {
            ner: NerConfig::default(),
            policy: None,
            pool: 1,
            prior: None,
        }
    }
}

/// One remote call of an ingest, queued on the I/O pool.
enum Call {
    /// A crawl entry's fetch.
    Fetch(CrawlEntry),
    /// The NER plan's request with this index.
    Complete(usize),
}

/// What a [`Call`] returned.
enum Reply {
    Fetched(Asn, Resolution),
    Completed(Result<ChatResponse, TransportError>),
}

/// Queues `entries`' fetches and `completions` LLM requests as one list,
/// spread evenly so both kinds are in flight from the start (the pool
/// claims the lowest ready index first, so requests queued after the
/// whole crawl would wait for it). Each kind keeps its own order.
fn interleave(entries: Vec<CrawlEntry>, completions: usize) -> Vec<Call> {
    let fetches = entries.len();
    let mut entries = entries.into_iter();
    let mut calls = Vec::with_capacity(fetches + completions);
    let mut done = 0;
    for j in 0..completions {
        // Request j goes after the fetches that sit before (j+1)/(n+1)
        // of the crawl.
        let upto = (j + 1) * fetches / (completions + 1);
        calls.extend(entries.by_ref().take(upto - done).map(Call::Fetch));
        done = upto;
        calls.push(Call::Complete(j));
    }
    calls.extend(entries.map(Call::Fetch));
    calls
}

/// One LLM stage's model stack: `model` itself on the bare stack, or
/// `model` behind a [`RetryingModel`] of the stage's own, with one
/// breaker, backoff slept on the clock it was given, and telemetry
/// under the stage's boundary label.
struct LlmStack<'m> {
    model: &'m (dyn ChatModel + Sync),
    retrying: Option<RetryingModel<&'m (dyn ChatModel + Sync)>>,
}

impl<'m> LlmStack<'m> {
    fn new(
        model: &'m (dyn ChatModel + Sync),
        policy: Option<RetryPolicy>,
        clock: Arc<dyn Clock>,
        tel: &Telemetry,
        boundary: &str,
    ) -> Self {
        let retrying = policy.map(|policy| {
            RetryingModel::new(model, policy)
                .with_breaker(BreakerConfig::standard())
                .with_clock(clock)
                .with_telemetry(tel.clone(), boundary)
        });
        LlmStack { model, retrying }
    }

    fn model(&self) -> &(dyn ChatModel + Sync) {
        match &self.retrying {
            Some(retrying) => retrying,
            None => self.model,
        }
    }

    /// Sends `requests` on a pool of `in_flight` workers, each request
    /// its own key, and returns the replies in request order.
    fn send(
        &self,
        requests: &[ChatRequest],
        in_flight: usize,
    ) -> Vec<Result<ChatResponse, TransportError>> {
        let model = self.model();
        let indices: Vec<usize> = (0..requests.len()).collect();
        let mut replies = Vec::with_capacity(requests.len());
        stream_indexed(
            &indices,
            in_flight,
            |&j| j as u64,
            |_, &j| model.complete(&requests[j]),
            |_, reply| replies.push(reply),
        );
        replies
    }

    /// What the retry stack spent (zero on the bare stack).
    fn stats(&self) -> ResilienceStats {
        self.retrying
            .as_ref()
            .map_or_else(ResilienceStats::default, RetryingModel::stats)
    }
}

/// What an ingest's crawl and NER front hands to the rest of the body.
struct Front<'w> {
    /// The open root span: `run`, or `remap` over a prior state.
    root: Span,
    /// The web evidence: crawled by the front, or scraped earlier.
    report: Cow<'w, ScrapeReport>,
    /// The crawl's redirect-cache counters (zero without a crawl).
    web_cache: CacheStats,
    ner: NerResult,
    /// The registry side of the compile, derived while calls waited.
    pre: Precompiled,
    /// The pool's scheduler accounting.
    ledger: StreamLedger,
}

/// Stamps one run's scheduler accounting into the worker-timing ledger
/// (stage names from [`borges_telemetry::ingest`]). Ledger rows only —
/// the canonical trace and metrics snapshot must stay byte-identical
/// at every budget, and the worker ledger is exactly the
/// schedule-variant surface both exclude (DESIGN.md §8).
fn record_ingest_ledger(tel: &Telemetry, ledger: &StreamLedger) {
    if !tel.is_enabled() {
        return;
    }
    for (worker, items) in ledger.per_worker.iter().enumerate() {
        tel.record_worker(WorkerTiming {
            stage: borges_telemetry::ingest::WORKER_STAGE.to_string(),
            chunk: worker as u64,
            items: *items,
            started_ms: 0,
            elapsed_ms: 0,
        });
    }
    tel.record_worker(WorkerTiming {
        stage: borges_telemetry::ingest::IN_FLIGHT_STAGE.to_string(),
        chunk: 0,
        items: ledger.in_flight_high_water as u64,
        started_ms: 0,
        elapsed_ms: 0,
    });
    tel.record_worker(WorkerTiming {
        stage: borges_telemetry::ingest::REASSEMBLY_STAGE.to_string(),
        chunk: 0,
        items: ledger.reassembly_high_water as u64,
        started_ms: 0,
        elapsed_ms: 0,
    });
}

impl Borges {
    /// Runs every stage — the web evidence (§4.3, crawled through a
    /// client or scraped earlier), LLM extraction with `model` (§4.2),
    /// both web inferences, and the compile of all merge evidence. The
    /// one body behind every constructor; `opts` says how it runs:
    ///
    /// - **Pool.** Every fetch and NER request runs on one pool of
    ///   `opts.pool` workers, interleaved so the LLM waits overlap the
    ///   crawl, with fetches FIFO per host; the favicon calls follow on
    ///   a pool of the same size (DESIGN.md §14). At budget 1, the
    ///   default, every remote call is sent one at a time, in canonical
    ///   order: the reference the wider budgets reproduce.
    /// - **Resilience.** `opts.policy` wraps every boundary in retries
    ///   and circuit breakers. The retry spend of each boundary is
    ///   stamped into the matching stats block, and [`Borges::coverage`]
    ///   reports what survived: when faults are not recoverable, the run
    ///   still completes, abandoned work is counted, and the mapping is
    ///   built from the evidence that survived.
    /// - **Increment.** `opts.prior` turns the run into a remap: the
    ///   trace opens `remap` instead of `run`, compiles in an `apply`
    ///   stage, and carries `memo_hits` on the `ner` and `favicon`
    ///   spans; [`Borges::delta`] and the `borges_delta_*` counters
    ///   account the reuse.
    ///
    /// Determinism contract: the mapping, canonical trace, metrics
    /// snapshot and breaker events depend on the inputs, `opts.ner`,
    /// `opts.policy` and whether a prior is given — never on the
    /// budget or the schedule — over the bare stack, under faults the
    /// policy recovers (it then erases them entirely) and under faults
    /// it does not. A remap is **byte-identical** to the full
    /// ingest of the same inputs, because both run the same derivation
    /// code and the remap only skips work proven unchanged. Scheduling
    /// shows up only in the pool's `ingest_*` [`WorkerTiming`] ledger
    /// rows (stage names from [`borges_telemetry::ingest`]).
    pub fn ingest(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web: WebSource<'_>,
        model: &(dyn ChatModel + Sync),
        opts: &IngestOptions<'_>,
        tel: &Telemetry,
    ) -> Self {
        let (borges, ledger) = Self::ingest_body(whois, pdb, web, model, opts, tel);
        record_ingest_ledger(tel, &ledger);
        borges
    }

    /// Runs every stage on the reference ingest, one remote call at a
    /// time (budget 1): crawls the web through `web_client`, extracts
    /// siblings with `model`, and caches all merge evidence.
    pub fn run<C: WebClient + Sync>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web_client: C,
        model: &(dyn ChatModel + Sync),
    ) -> Self {
        Self::run_traced(whois, pdb, web_client, model, &Telemetry::disabled())
    }

    /// Like [`Borges::run`], recording a span per stage, stage-duration
    /// histograms, the stage funnels (as counters), and the pool's
    /// `ingest_*` ledger rows into `tel`.
    ///
    /// Everything canonical traced here is derived from merged,
    /// order-canonical stats, so under a
    /// [`SimClock`](borges_resilience::SimClock) the canonical journal
    /// and the metrics snapshot are identical to what
    /// [`Borges::run_parallel_traced`] emits at its wider budget — the
    /// determinism contract of DESIGN.md §8, pinned by
    /// `tests/telemetry.rs`.
    pub fn run_traced<C: WebClient + Sync>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web_client: C,
        model: &(dyn ChatModel + Sync),
        tel: &Telemetry,
    ) -> Self {
        Self::ingest(
            whois,
            pdb,
            WebSource::Crawl(&web_client),
            model,
            &IngestOptions::default(),
            tel,
        )
    }

    /// Like [`Borges::run`], at the CLI's default budget: every remote
    /// call — crawl fetches, NER and favicon completions — runs on one
    /// pool of [`DEFAULT_IN_FLIGHT`] workers, NER overlapping the crawl.
    /// Produces results identical to [`Borges::run`]'s budget 1 — only
    /// wall-clock time changes. [`Borges::ingest`] takes other budgets.
    ///
    /// `threads` is ignored. It stays in the signature only because the
    /// benchmark harness (`perfbench/`) calls this with one.
    pub fn run_parallel<C: WebClient + Sync>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web_client: C,
        model: &(dyn ChatModel + Sync),
        threads: usize,
    ) -> Self {
        Self::run_parallel_traced(
            whois,
            pdb,
            web_client,
            model,
            threads,
            &Telemetry::disabled(),
        )
    }

    /// Like [`Borges::run_parallel`], recording into `tel`. Emits the
    /// same logical spans, span fields, and metrics as
    /// [`Borges::run_traced`] — worker scheduling shows up only in
    /// runtime spans and [`WorkerTiming`] rows, which canonicalization
    /// and the metrics snapshot exclude by design. Unlike
    /// [`Borges::ingest`] it leaves the pool's scheduler rows out, so
    /// its whole run ledger reproduces byte for byte across repeated
    /// runs. `threads` is ignored, as in [`Borges::run_parallel`].
    pub fn run_parallel_traced<C: WebClient + Sync>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web_client: C,
        model: &(dyn ChatModel + Sync),
        _threads: usize,
        tel: &Telemetry,
    ) -> Self {
        Self::ingest_body(
            whois,
            pdb,
            WebSource::Crawl(&web_client),
            model,
            &IngestOptions {
                pool: DEFAULT_IN_FLIGHT,
                ..IngestOptions::default()
            },
            tel,
        )
        .0
    }

    /// Incrementally re-maps snapshot T+1 against persisted snapshot-T
    /// `state`: [`Borges::ingest`] over the re-crawled T+1 `report`, at
    /// budget 1 (one LLM call at a time). Byte-identical to a full ingest
    /// of the same inputs. `threads` is ignored, as in
    /// [`Borges::run_parallel`]. Only the benchmark harness (`perfbench/`)
    /// calls this; the CLI's remap, `map --base`, runs [`Borges::ingest`]
    /// over a crawl with the prior set.
    ///
    /// `report` is the *re-crawled* T+1 web observation: the web can
    /// drift even when the registries did not, so it is never carried
    /// over from T. The re-crawl, not the LLM, is what a remap pays for:
    /// traced on the medium benchmark world at 1% churn (200 µs per
    /// modeled fetch, 2 vCPUs), a sequential re-crawl took 570 ms of a
    /// ~1.1 s publish while the memos left 0 LLM calls, which is why
    /// [`Scraper::crawl`] keeps [`DEFAULT_IN_FLIGHT`] fetches in flight.
    #[allow(clippy::too_many_arguments)]
    pub fn remap_parallel_traced(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        report: &ScrapeReport,
        model: &(dyn ChatModel + Sync),
        ner_config: NerConfig,
        state: &SnapshotState,
        _threads: usize,
        tel: &Telemetry,
    ) -> Self {
        Self::ingest(
            whois,
            pdb,
            WebSource::Scraped(report),
            model,
            &IngestOptions {
                ner: ner_config,
                prior: Some(state),
                ..IngestOptions::default()
            },
            tel,
        )
    }

    /// The body of [`Borges::ingest`], returning the pool's ledger
    /// instead of recording it.
    fn ingest_body(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web: WebSource<'_>,
        model: &(dyn ChatModel + Sync),
        opts: &IngestOptions<'_>,
        tel: &Telemetry,
    ) -> (Self, StreamLedger) {
        let prior = opts.prior;
        let ner_memo = prior.map(SnapshotState::ner_memo_map).unwrap_or_default();
        let root = if prior.is_some() { "remap" } else { "run" };
        let Front {
            root,
            report,
            web_cache,
            ner,
            pre,
            ledger,
        } = Self::front(whois, pdb, web, model, opts, &ner_memo, tel, root);

        let rr = stage(tel, &root, "rr", |span| {
            let rr = rr_inference(&report);
            annotate_rr(span, &rr);
            rr
        });
        let favicon_memo = prior
            .map(SnapshotState::favicon_memo_map)
            .unwrap_or_default();
        let favicon = stage(tel, &root, "favicon", |span| {
            // The stage's retrying model has one breaker, whose failure
            // streak must count the calls in plan order: resilient runs
            // send them at budget 1, live on the telemetry clock.
            let stack = LlmStack::new(model, opts.policy, tel.clock(), tel, "favicon");
            let in_flight = if opts.policy.is_some() { 1 } else { opts.pool };
            let plan = favicon::plan(&report, true, &favicon_memo);
            let replies = stack.send(plan.requests(), in_flight);
            let mut favicon = plan.fold(replies);
            favicon.stats.resilience = stack.stats();
            annotate_favicon(span, &favicon, prior.is_some());
            favicon
        });

        // The compile: funnels and span fields come from the merged
        // stats, never per item inside workers, so every budget emits an
        // identical trace and metrics snapshot.
        let fingerprints = SourceFingerprints::capture(whois, pdb, &report);
        let compile = if prior.is_some() { "apply" } else { "compile" };
        let (compiled, oid_w_groups, oid_p_groups, delta) = stage(tel, &root, compile, |span| {
            let (compiled, [oid_w, oid_p, na, rr_delta, favicons]) =
                CompiledEvidence::build(pre.interner, pre.registry, prior, &ner, &rr, &favicon);
            span.field("asns", compiled.interner.live_len());
            let delta = match prior {
                None => {
                    span.field("ner_links", segment_edge_count(&compiled.na));
                    None
                }
                Some(state) => {
                    let delta = DeltaStats {
                        records: SnapshotDelta::compute(&state.fingerprints(), &fingerprints),
                        oid_w,
                        oid_p,
                        na,
                        rr: rr_delta,
                        favicons,
                        ner_reused: ner.memo_hits,
                        ner_recomputed: ner.stats.llm_calls,
                        favicon_reused: favicon.memo_hits,
                        favicon_recomputed: favicon.stats.llm_calls,
                        ..pre.delta
                    };
                    span.field("records_dirty", delta.records.dirty());
                    span.field(
                        "segments_retained",
                        delta
                            .edge_rows()
                            .iter()
                            .map(|(_, d)| d.segments_retained)
                            .sum::<usize>(),
                    );
                    Some(delta)
                }
            };
            (compiled, pre.oid_w_groups, pre.oid_p_groups, delta)
        });

        let borges = Borges {
            compiled,
            oid_w_groups,
            oid_p_groups,
            ner,
            rr,
            favicon,
            scrape_stats: report.stats.clone(),
            web_cache,
            fingerprints,
            delta,
            world_epoch: 0,
            verified_digest: None,
            evidence: OnceLock::new(),
        };
        borges.stamp_metrics(tel);
        borges.stamp_delta_metrics(tel);
        (borges, ledger)
    }

    /// The ingest's front (DESIGN.md §14): the `crawl` and `ner`
    /// stages, in two phases that keep the canonical surfaces
    /// independent of the budget and the schedule.
    ///
    /// **Phase A** runs every crawl fetch and every NER request on one
    /// pool of `opts.pool` workers, interleaved; nothing touches the
    /// telemetry clock or opens spans. Fetches keep their per-host
    /// keys; each NER request gets a key of its own, so per-host FIFO
    /// applies only to fetches. Resilient fetches back off on private
    /// per-call clocks (a [`RetryingWebClient`]), and resilient NER runs
    /// through a [`RetryingModel`] on a private [`SimClock`], recording
    /// into a telemetry context on that clock; both backoff totals are
    /// accumulated. Resilient NER requests share one key instead: the
    /// model's single breaker counts one failure streak across calls, so
    /// they run one at a time in plan order. Backoff schedules depend
    /// only on (attempt, key), never on absolute time.
    ///
    /// **Phase B** then opens the root span and replays the `crawl` and
    /// `ner` stages on the telemetry clock, sleeping each one's
    /// accumulated virtual backoff inside its span. As the `ner` stage
    /// opens, the NER stack's metrics and breaker events join the run's
    /// telemetry, the events shifted by the clock's reading there: a
    /// trip lands inside `ner`, where a live NER stage run after the
    /// crawl would stamp it.
    #[allow(clippy::too_many_arguments)]
    fn front<'w>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web: WebSource<'w>,
        model: &(dyn ChatModel + Sync),
        opts: &IngestOptions<'_>,
        ner_memo: &BTreeMap<Asn, NerMemoEntry>,
        tel: &Telemetry,
        root: &str,
    ) -> Front<'w> {
        let client = match web {
            WebSource::Crawl(client) => Some(client),
            WebSource::Scraped(_) => None,
        };
        let retrying = client.zip(opts.policy).map(|(client, policy)| {
            RetryingWebClient::new(client, policy)
                .with_breakers(BreakerConfig::standard())
                .with_telemetry(tel.clone())
        });
        let scraper = client.map(|client| Scraper::new(retrying.as_ref().map_or(client, |r| r)));
        let entries = match &scraper {
            Some(_) => pdb
                .nets()
                .map(|n| CrawlEntry::new(n.asn, &n.website))
                .collect(),
            None => Vec::new(),
        };
        let ner_plan = ner::plan(pdb, opts.ner, ner_memo);
        let ner_clock = Arc::new(SimClock::new());
        let ner_tel = if tel.is_enabled() {
            Telemetry::new(ner_clock.clone(), Verbosity::Quiet)
        } else {
            Telemetry::disabled()
        };
        let ner_model = LlmStack::new(model, opts.policy, ner_clock.clone(), &ner_tel, "ner");
        let serial_ner = opts.policy.is_some();
        let calls = interleave(entries, ner_plan.requests().len());

        let mut assembler = ReportAssembler::new();
        let mut ner_replies = Vec::with_capacity(ner_plan.requests().len());
        let mut pre = None;
        let ledger = stream_indexed(
            &calls,
            opts.pool,
            |call| match call {
                // Fetch keys are even and NER keys odd, so the two kinds
                // never share a FIFO queue.
                Call::Fetch(e) => e.key() << 1,
                Call::Complete(_) if serial_ner => 1,
                Call::Complete(j) => (*j as u64) << 1 | 1,
            },
            |_, call| match call {
                Call::Fetch(e) => {
                    let scraper = scraper
                        .as_ref()
                        .expect("fetches are queued only for a crawl");
                    Reply::Fetched(e.asn, scraper.resolve(e))
                }
                Call::Complete(j) => {
                    Reply::Completed(ner_model.model().complete(&ner_plan.requests()[*j]))
                }
            },
            |_, reply| {
                // The consumer idles while calls are in flight: it
                // builds the registry side of the compile, OID_W base
                // closure included, on the first completion, and later
                // completions queue meanwhile.
                pre.get_or_insert_with(|| Precompiled::build(whois, pdb, opts.prior));
                match reply {
                    Reply::Fetched(asn, resolution) => assembler.push(asn, resolution),
                    Reply::Completed(reply) => ner_replies.push(reply),
                }
            },
        );
        let pre = pre.unwrap_or_else(|| Precompiled::build(whois, pdb, opts.prior));
        let mut ner = ner_plan.fold(ner_replies);
        ner.stats.resilience = ner_model.stats();

        let root = tel.span(root);
        let (report, web_cache) = match (web, &scraper) {
            (WebSource::Scraped(report), _) => (Cow::Borrowed(report), CacheStats::default()),
            (WebSource::Crawl(_), Some(scraper)) => {
                let mut report = assembler.finish();
                stage(tel, &root, "crawl", |span| {
                    if let Some(retrying) = &retrying {
                        report.stats.resilience = retrying.stats();
                        tel.clock().sleep_ms(retrying.backoff_total_ms());
                    }
                    annotate_crawl(span, &report.stats);
                });
                (Cow::Owned(report), scraper.cache_stats())
            }
            (WebSource::Crawl(_), None) => unreachable!("a crawl has a scraper"),
        };
        let ner = stage(tel, &root, "ner", |span| {
            tel.absorb(&ner_tel, tel.now_ms());
            tel.clock().sleep_ms(ner_clock.now_ms());
            annotate_ner(span, &ner, opts.prior.is_some());
            ner
        });
        Front {
            root,
            report,
            web_cache,
            ner,
            pre,
            ledger,
        }
    }

    /// The persistable compiled state of this run: interner slots, edge
    /// segments, source fingerprints, and the LLM reply memos — exactly
    /// what a later remap ([`IngestOptions::prior`]) needs. Captured on
    /// *every* run (full or incremental), so remaps chain: T → T+1 → T+2.
    pub fn snapshot_state(&self) -> SnapshotState {
        SnapshotState::build(
            &self.compiled.interner,
            &self.compiled.oid_w,
            &self.compiled.oid_p,
            &self.compiled.na,
            &self.compiled.rr,
            &self.compiled.favicons,
            &self.fingerprints,
            &self.ner,
            &self.favicon,
        )
    }

    /// Captures this pipeline as a persistable [`CompiledWorld`]: the
    /// [`Borges::snapshot_state`] plus the [`ServingExtras`] a server
    /// reads at request time. Lossless up to the two audit-only fields
    /// `crate::world` documents (favicon decision records, memo-hit
    /// counters); [`Borges::from_world`] inverts it.
    pub fn to_world(&self) -> CompiledWorld {
        fn wire_groups(groups: &[Vec<Asn>]) -> Vec<Vec<u32>> {
            groups
                .iter()
                .map(|g| g.iter().map(|a| a.value()).collect())
                .collect()
        }
        CompiledWorld {
            state: self.snapshot_state(),
            epoch: self.world_epoch,
            digest: None,
            extras: ServingExtras {
                oid_w_groups: wire_groups(&self.oid_w_groups),
                oid_p_groups: wire_groups(&self.oid_p_groups),
                ner_entries: self
                    .ner
                    .per_entry
                    .iter()
                    .map(|(asn, siblings)| NerEntryRecord {
                        asn: asn.value(),
                        siblings: siblings.iter().map(|a| a.value()).collect(),
                    })
                    .collect(),
                ner_stats: self.ner.stats,
                rr_groups: self
                    .rr
                    .groups
                    .iter()
                    .zip(&self.rr.final_urls)
                    .map(|(group, url)| RrGroupRecord {
                        final_url: url.clone(),
                        members: group.iter().map(|a| a.value()).collect(),
                    })
                    .collect(),
                rr_stats: self.rr.stats,
                favicon_groups: self
                    .favicon
                    .groups
                    .iter()
                    .zip(&self.favicon.group_favicons)
                    .map(|(group, hash)| FaviconGroupRecord {
                        favicon: hash.raw(),
                        members: group.iter().map(|a| a.value()).collect(),
                    })
                    .collect(),
                favicon_stats: self.favicon.stats,
                scrape_stats: self.scrape_stats.clone(),
                web_cache: self.web_cache,
            },
        }
    }

    /// Rebuilds a serving pipeline from a persisted [`CompiledWorld`]
    /// without re-deriving any evidence: no crawl, no LLM call, no
    /// group derivation — only the cheap OID_W base-closure replay from
    /// the stored segment edges (the same replay `remap` always does).
    /// `threads` is ignored, as in [`Borges::run_parallel`].
    ///
    /// Validates before trusting ([`CompiledWorld::validate`]) and
    /// never panics on a decoded-but-insane world: duplicate interner
    /// slots, out-of-range edge ids, or a wrong inner schema come back
    /// as `Err`. The keystone contract: the returned pipeline produces
    /// byte-identical mapfiles, snapshot states, and HTTP responses to
    /// the freshly compiled pipeline [`Borges::to_world`] captured.
    pub fn from_world(world: &CompiledWorld, _threads: usize) -> Result<Self, String> {
        world.validate()?;
        let state = &world.state;
        let extras = &world.extras;
        // Safe after validate(): slots are unique, so the rebuild's
        // duplicate assertion cannot fire.
        let interner = AsnInterner::from_slots(state.slot_pairs());

        // Segments are reconstructed straight from the persisted record
        // vectors, preserving compile order exactly — re-persisting a
        // loaded world must serialize byte-identically.
        fn segments<K>(
            records: &[crate::delta::SegmentRecord],
            parse: impl Fn(&str) -> Option<K>,
        ) -> Result<Vec<EdgeSegment<K>>, String> {
            records
                .iter()
                .map(|rec| {
                    let key = parse(&rec.key)
                        .ok_or_else(|| format!("unparseable segment key {:?}", rec.key))?;
                    Ok(EdgeSegment {
                        key,
                        fp: rec.fp,
                        edges: rec.edges.iter().map(|e| (e.a, e.b)).collect(),
                    })
                })
                .collect()
        }
        let oid_w = segments(&state.oid_w, |k| Some(k.to_string()))?;
        let oid_p = segments(&state.oid_p, |k| k.parse().ok())?;
        let na = segments(&state.na, |k| k.parse().ok())?;
        let rr_segments = segments(&state.rr, |k| Some(k.to_string()))?;
        let favicons = segments(&state.favicons, |k| k.parse().ok())?;
        let base = oid_w_closure(interner.len(), &oid_w);

        fn live_groups(groups: &[Vec<u32>]) -> Vec<Vec<Asn>> {
            groups
                .iter()
                .map(|g| g.iter().map(|&n| Asn::new(n)).collect())
                .collect()
        }
        let ner = NerResult {
            per_entry: extras
                .ner_entries
                .iter()
                .map(|rec| {
                    (
                        Asn::new(rec.asn),
                        rec.siblings.iter().map(|&s| Asn::new(s)).collect(),
                    )
                })
                .collect(),
            memo: state.ner_memo_map(),
            memo_hits: 0,
            stats: extras.ner_stats,
        };
        let rr = RrInference {
            groups: extras
                .rr_groups
                .iter()
                .map(|rec| rec.members.iter().map(|&n| Asn::new(n)).collect())
                .collect(),
            final_urls: extras
                .rr_groups
                .iter()
                .map(|rec| rec.final_url.clone())
                .collect(),
            stats: extras.rr_stats,
        };
        let favicon = FaviconInference {
            groups: extras
                .favicon_groups
                .iter()
                .map(|rec| rec.members.iter().map(|&n| Asn::new(n)).collect())
                .collect(),
            group_favicons: extras
                .favicon_groups
                .iter()
                .map(|rec| borges_types::FaviconHash::from_raw(rec.favicon))
                .collect(),
            decisions: Vec::new(),
            memo: state.favicon_memo_map(),
            memo_hits: 0,
            stats: extras.favicon_stats,
        };

        Ok(Borges {
            fingerprints: state.fingerprints(),
            compiled: CompiledEvidence {
                interner,
                base,
                oid_w,
                oid_p,
                na,
                rr: rr_segments,
                favicons,
            },
            oid_w_groups: live_groups(&extras.oid_w_groups),
            oid_p_groups: live_groups(&extras.oid_p_groups),
            ner,
            rr,
            favicon,
            scrape_stats: extras.scrape_stats.clone(),
            web_cache: extras.web_cache,
            delta: None,
            world_epoch: world.epoch,
            verified_digest: world.digest.clone(),
            evidence: OnceLock::new(),
        })
    }

    /// The timeline epoch this world was published at; `0` if never
    /// published.
    pub fn world_epoch(&self) -> u64 {
        self.world_epoch
    }

    /// The hex content address of this world's artifact when it is
    /// already known: the digest the store verified, for a pipeline
    /// [`Borges::from_world`] rebuilt from a decoded artifact and whose
    /// epoch has not been stamped since. `None` otherwise; then only
    /// encoding [`Borges::to_world`] gives the address.
    pub fn verified_digest(&self) -> Option<&str> {
        self.verified_digest.as_deref()
    }

    /// Stamps the timeline epoch. Called by the timeline layer *before*
    /// the artifact is encoded, so the epoch participates in the
    /// content address and survives [`Borges::from_world`]. Forgets the
    /// verified digest, which the new epoch invalidates.
    pub fn set_world_epoch(&mut self, epoch: u64) {
        self.world_epoch = epoch;
        self.verified_digest = None;
    }

    /// Stamps the incremental-run reuse accounting as
    /// `borges_delta_*` counters.
    fn stamp_delta_metrics(&self, tel: &Telemetry) {
        let (Some(d), true) = (&self.delta, tel.is_enabled()) else {
            return;
        };
        let c = |name: &str, v: usize| tel.counter(name, v as u64);
        c("borges_delta_records_dirty_total", d.records.dirty());
        c("borges_delta_asns_retained_total", d.asns_retained);
        c("borges_delta_asns_added_total", d.asns_added);
        c("borges_delta_asns_retired_total", d.asns_retired);
        let (mut seg_ret, mut seg_red, mut edge_ret, mut edge_red) = (0, 0, 0, 0);
        for (_, s) in d.edge_rows() {
            seg_ret += s.segments_retained;
            seg_red += s.segments_rederived;
            edge_ret += s.edges_retained;
            edge_red += s.edges_rederived;
        }
        c("borges_delta_segments_retained_total", seg_ret);
        c("borges_delta_segments_rederived_total", seg_red);
        c("borges_delta_edges_retained_total", edge_ret);
        c("borges_delta_edges_rederived_total", edge_red);
        c("borges_delta_llm_calls_saved_total", d.llm_calls_saved());
    }

    /// Stamps every stage funnel and the evidence-base sizes into the
    /// metrics registry as counters, following the naming convention
    /// `borges_<stage>_<what>_total` (DESIGN.md §8).
    fn stamp_metrics(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let c = |name: &str, v: usize| tel.counter(name, v as u64);
        let s = &self.scrape_stats;
        c(
            "borges_crawl_entries_with_website_total",
            s.entries_with_website,
        );
        c(
            "borges_crawl_entries_with_invalid_url_total",
            s.entries_with_invalid_url,
        );
        c("borges_crawl_entries_abandoned_total", s.entries_abandoned);
        c("borges_crawl_unique_urls_total", s.unique_urls);
        c("borges_crawl_reachable_urls_total", s.reachable_urls);
        c("borges_crawl_unique_final_urls_total", s.unique_final_urls);
        c(
            "borges_crawl_final_urls_with_favicon_total",
            s.final_urls_with_favicon,
        );
        c("borges_crawl_unique_favicons_total", s.unique_favicons);

        let r = &self.rr.stats;
        c(
            "borges_rr_networks_with_final_url_total",
            r.networks_with_final_url,
        );
        c("borges_rr_blocked_networks_total", r.blocked_networks);
        c("borges_rr_distinct_final_urls_total", r.distinct_final_urls);
        c("borges_rr_shared_final_urls_total", r.shared_final_urls);

        let n = &self.ner.stats;
        c("borges_ner_entries_total", n.entries_total);
        c("borges_ner_entries_with_text_total", n.entries_with_text);
        c("borges_ner_entries_numeric_total", n.entries_numeric);
        c("borges_ner_numeric_in_aka_total", n.numeric_in_aka);
        c("borges_ner_numeric_in_notes_total", n.numeric_in_notes);
        c("borges_ner_llm_calls_total", n.llm_calls);
        c("borges_ner_llm_abandoned_total", n.llm_abandoned);
        c("borges_ner_filtered_out_total", n.filtered_out);
        c(
            "borges_ner_entries_with_siblings_total",
            n.entries_with_siblings,
        );
        c("borges_ner_extracted_asns_total", n.extracted_asns);
        tel.counter("borges_ner_prompt_tokens_total", n.usage.prompt_tokens);
        tel.counter(
            "borges_ner_completion_tokens_total",
            n.usage.completion_tokens,
        );

        let f = &self.favicon.stats;
        c("borges_favicon_favicons_total", f.favicons_total);
        c("borges_favicon_favicons_shared_total", f.favicons_shared);
        c("borges_favicon_urls_in_shared_total", f.urls_in_shared);
        c(
            "borges_favicon_same_label_groups_total",
            f.same_label_groups,
        );
        c("borges_favicon_merged_by_step1_total", f.merged_by_step1);
        c("borges_favicon_llm_calls_total", f.llm_calls);
        c("borges_favicon_llm_abandoned_total", f.llm_abandoned);
        c("borges_favicon_merged_by_llm_total", f.merged_by_llm);
        c(
            "borges_favicon_framework_rejections_total",
            f.framework_rejections,
        );
        c("borges_favicon_dont_know_total", f.dont_know);
        tel.counter("borges_favicon_prompt_tokens_total", f.usage.prompt_tokens);
        tel.counter(
            "borges_favicon_completion_tokens_total",
            f.usage.completion_tokens,
        );

        c(
            "borges_evidence_asns_total",
            self.compiled.interner.live_len(),
        );
        c(
            "borges_evidence_whois_groups_total",
            self.oid_w_groups.len(),
        );
        c("borges_evidence_pdb_groups_total", self.oid_p_groups.len());
        c(
            "borges_evidence_rr_groups_total",
            self.rr.merging_groups().count(),
        );
        c(
            "borges_evidence_favicon_groups_total",
            self.favicon.groups.len(),
        );
        c(
            "borges_evidence_ner_links_total",
            segment_edge_count(&self.compiled.na),
        );
    }

    /// The mapping universe (all delegated ASNs), ascending. On an
    /// incremental run the interner may carry tombstoned slots for
    /// retired ASNs; those are excluded here.
    pub fn universe(&self) -> Vec<Asn> {
        self.compiled.interner.live_asns()
    }

    /// `true` when `asn` belongs to the live mapping universe. The
    /// membership probe of the serving read path: unlike
    /// [`Borges::universe`] it allocates nothing.
    pub fn contains(&self, asn: Asn) -> bool {
        self.compiled.interner.contains(asn)
    }

    /// Number of ASNs in the live universe, without materializing it.
    pub fn universe_len(&self) -> usize {
        self.compiled.interner.live_len()
    }

    /// Total compiled evidence edges the given feature subset would
    /// replay (the compulsory OID_W base included) — the cost model the
    /// weighted materialization scheduler and the serving layer's
    /// capacity planning both use.
    pub fn edge_weight(&self, features: FeatureSet) -> u64 {
        let mut w = 1 + segment_edge_count(&self.compiled.oid_w) as u64;
        if features.oid_p {
            w += segment_edge_count(&self.compiled.oid_p) as u64;
        }
        if features.na {
            w += segment_edge_count(&self.compiled.na) as u64;
        }
        if features.rr {
            w += segment_edge_count(&self.compiled.rr) as u64;
        }
        if features.favicons {
            w += segment_edge_count(&self.compiled.favicons) as u64;
        }
        w
    }

    /// Materializes the mapping for a feature subset. `OID_W` is always
    /// applied; selected features add their merge evidence on top, and
    /// union-find reconciles partially overlapping clusters (§4.1).
    ///
    /// Evidence about ASNs outside the delegated universe — e.g. an
    /// extraction false positive reading a year as an ASN that was never
    /// allocated — was discarded at compile time: the mapping's vertex
    /// set is fixed to the WHOIS universe (§5.4).
    ///
    /// This is a pure replay over pre-compiled state: clone the OID_W
    /// base closure, union the selected edge lists, read the groups out.
    /// Calls are independent, so any number can run concurrently — see
    /// [`Borges::mappings_parallel`].
    pub fn mapping(&self, features: FeatureSet) -> AsOrgMapping {
        let mut uf = self.compiled.base.clone();
        if features.oid_p {
            for seg in &self.compiled.oid_p {
                uf.union_edges(&seg.edges);
            }
        }
        if features.na {
            for seg in &self.compiled.na {
                uf.union_edges(&seg.edges);
            }
        }
        if features.rr {
            for seg in &self.compiled.rr {
                uf.union_edges(&seg.edges);
            }
        }
        if features.favicons {
            for seg in &self.compiled.favicons {
                uf.union_edges(&seg.edges);
            }
        }
        AsOrgMapping::from_groups(uf.into_groups(&self.compiled.interner))
    }

    /// Materializes one mapping per feature set, fanning the independent
    /// replays out over `threads` worker threads. Results come back in
    /// input order and are bit-identical to calling [`Borges::mapping`]
    /// sequentially (assembly is key-canonical; threads change only
    /// wall-clock time). This is how the Table 6 sweep runs all 16
    /// combinations; one feature set is one sequential replay.
    pub fn mappings_parallel(&self, features: &[FeatureSet], threads: usize) -> Vec<AsOrgMapping> {
        self.mappings_parallel_traced(features, threads, &Telemetry::disabled())
    }

    /// Like [`Borges::mappings_parallel`], recording into `tel`: one
    /// logical `mappings/materialize` span per feature set (labelled with
    /// the combination), a `borges_mapping_materialize_ms` histogram
    /// observation per replay, and — because chunk-to-worker assignment
    /// is a scheduling detail — a *runtime* span plus a [`WorkerTiming`]
    /// ledger row per chunk. Results are unchanged from the untraced
    /// call, bit for bit.
    pub fn mappings_parallel_traced(
        &self,
        features: &[FeatureSet],
        threads: usize,
        tel: &Telemetry,
    ) -> Vec<AsOrgMapping> {
        if !tel.is_enabled() {
            // Replay cost is dominated by the selected edge lists (ALL
            // unions every segment, NONE only clones the base forest), so
            // weight-aware assignment keeps a Table 6 sweep from pinning
            // all the heavy combinations on one worker.
            return borges_parallel::map_items_weighted(
                features,
                threads,
                |&f| self.edge_weight(f),
                |&f| self.mapping(f),
            );
        }
        let root = tel.span("mappings");
        root.field("combinations", features.len());
        let timed = borges_parallel::map_chunks_timed(
            features,
            threads,
            || tel.now_ms(),
            |chunk| {
                let chunk_span = root.child_runtime("chunk");
                chunk_span.field("items", chunk.len());
                chunk
                    .iter()
                    .map(|&f| {
                        let span = root.child("materialize");
                        span.field("features", f.label());
                        let started_ms = tel.now_ms();
                        let mapping = self.mapping(f);
                        tel.observe_ms(
                            "borges_mapping_materialize_ms",
                            tel.now_ms().saturating_sub(started_ms),
                        );
                        mapping
                    })
                    .collect::<Vec<_>>()
            },
        );
        let mut out = Vec::with_capacity(features.len());
        for (mappings, timing) in timed {
            tel.record_worker(WorkerTiming {
                stage: "mapping".to_string(),
                chunk: timing.chunk as u64,
                items: timing.items as u64,
                started_ms: timing.started_ms,
                elapsed_ms: timing.elapsed_ms,
            });
            out.extend(mappings);
        }
        out
    }

    /// The AS2Org baseline (OID_W only).
    pub fn baseline_as2org(&self) -> AsOrgMapping {
        self.mapping(FeatureSet::NONE)
    }

    /// Full Borges (all features).
    pub fn full(&self) -> AsOrgMapping {
        self.mapping(FeatureSet::ALL)
    }

    /// The per-feature coverage report: what each transport-facing stage
    /// attempted, kept, and abandoned. Over a bare or fully-recovered
    /// stack this is [`complete`](CoverageReport::complete); it is
    /// [`accounted`](CoverageReport::accounted) always.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport {
            crawl: FeatureCoverage::new(
                self.scrape_stats.entries_with_website,
                self.scrape_stats.entries_abandoned,
            ),
            notes_aka: FeatureCoverage::new(self.ner.stats.llm_calls, self.ner.stats.llm_abandoned),
            favicon_groups: FeatureCoverage::new(
                self.favicon.stats.llm_calls,
                self.favicon.stats.llm_abandoned,
            ),
        }
    }

    /// Builds the unified run ledger: every stage funnel, the coverage
    /// ledger, per-boundary resilience spend, cache efficacy, sorted
    /// breaker events and worker timings, and the full metrics snapshot,
    /// in one serializable [`RunReport`]. `pipeline` names how the run
    /// executed (`sequential`, `parallel`, `resilient`) and `threads` the
    /// fan-out width — pure labels, not re-derived.
    ///
    /// Pass the same `tel` the run recorded into; a disabled context
    /// yields a report with empty metrics/events but complete funnels.
    pub fn run_report(&self, tel: &Telemetry, pipeline: &str, threads: usize) -> RunReport {
        let u = |v: usize| v as u64;
        let s = &self.scrape_stats;
        let r = &self.rr.stats;
        let n = &self.ner.stats;
        let f = &self.favicon.stats;
        let resilience_row = |boundary: &str, rs: &ResilienceStats| ResilienceRow {
            boundary: boundary.to_string(),
            calls: rs.calls,
            attempts: rs.attempts,
            recovered: rs.recovered,
            abandoned: rs.abandoned,
            breaker_trips: rs.breaker_trips,
            breaker_fast_fails: rs.breaker_fast_fails,
        };
        let coverage_row = |feature: &str, cov: FeatureCoverage| CoverageRow {
            feature: feature.to_string(),
            attempted: u(cov.attempted),
            succeeded: u(cov.succeeded),
            abandoned: u(cov.abandoned),
        };
        let coverage = self.coverage();
        // Arrival order of both event streams is scheduling-dependent;
        // the ledger pins the sorted order.
        let mut breaker_events = tel.breaker_events();
        breaker_events.sort();
        let mut workers = tel.worker_timings();
        workers.sort();
        RunReport {
            schema: RUN_REPORT_SCHEMA.to_string(),
            pipeline: pipeline.to_string(),
            threads: threads as u64,
            crawl: CrawlFunnel {
                entries_with_website: u(s.entries_with_website),
                entries_with_invalid_url: u(s.entries_with_invalid_url),
                entries_abandoned: u(s.entries_abandoned),
                unique_urls: u(s.unique_urls),
                reachable_urls: u(s.reachable_urls),
                unique_final_urls: u(s.unique_final_urls),
                final_urls_with_favicon: u(s.final_urls_with_favicon),
                unique_favicons: u(s.unique_favicons),
            },
            rr: RrFunnel {
                networks_with_final_url: u(r.networks_with_final_url),
                blocked_networks: u(r.blocked_networks),
                distinct_final_urls: u(r.distinct_final_urls),
                shared_final_urls: u(r.shared_final_urls),
            },
            ner: NerFunnel {
                entries_total: u(n.entries_total),
                entries_with_text: u(n.entries_with_text),
                entries_numeric: u(n.entries_numeric),
                numeric_in_aka: u(n.numeric_in_aka),
                numeric_in_notes: u(n.numeric_in_notes),
                llm_calls: u(n.llm_calls),
                llm_abandoned: u(n.llm_abandoned),
                filtered_out: u(n.filtered_out),
                entries_with_siblings: u(n.entries_with_siblings),
                extracted_asns: u(n.extracted_asns),
                prompt_tokens: n.usage.prompt_tokens,
                completion_tokens: n.usage.completion_tokens,
            },
            favicon: FaviconFunnel {
                favicons_total: u(f.favicons_total),
                favicons_shared: u(f.favicons_shared),
                urls_in_shared: u(f.urls_in_shared),
                same_label_groups: u(f.same_label_groups),
                merged_by_step1: u(f.merged_by_step1),
                llm_calls: u(f.llm_calls),
                llm_abandoned: u(f.llm_abandoned),
                merged_by_llm: u(f.merged_by_llm),
                framework_rejections: u(f.framework_rejections),
                dont_know: u(f.dont_know),
                prompt_tokens: f.usage.prompt_tokens,
                completion_tokens: f.usage.completion_tokens,
            },
            evidence: EvidenceSummary {
                asns: u(self.compiled.interner.live_len()),
                whois_groups: u(self.oid_w_groups.len()),
                pdb_groups: u(self.oid_p_groups.len()),
                rr_groups: u(self.rr.merging_groups().count()),
                favicon_groups: u(self.favicon.groups.len()),
                ner_links: u(segment_edge_count(&self.compiled.na)),
            },
            delta: self.delta_report(),
            // The pipeline doesn't know about chains; the CLI overwrites
            // this row after a `--timeline` append.
            timeline: TimelineReport::default(),
            coverage: vec![
                coverage_row("crawl", coverage.crawl),
                coverage_row("notes_aka", coverage.notes_aka),
                coverage_row("favicon_groups", coverage.favicon_groups),
            ],
            resilience: vec![
                resilience_row("web", &s.resilience),
                resilience_row("llm.ner", &n.resilience),
                resilience_row("llm.favicon", &f.resilience),
            ],
            caches: vec![CacheReport::new("web.redirect", self.web_cache)],
            breaker_events,
            workers,
            metrics: tel.metrics_snapshot(),
        }
    }

    /// The run ledger's incremental-remap row group. On a full run this
    /// is the inert default (`incremental: false`, empty rows) so the
    /// report shape stays fixed across pipelines; on a remap it carries
    /// the record/edge delta classification and LLM-reuse accounting.
    /// Wall-clock savings are deliberately *not* ledger fields — the
    /// ledger must be byte-deterministic under the simulated clock — so
    /// the remap benchmark reports them instead.
    fn delta_report(&self) -> DeltaReport {
        let Some(d) = &self.delta else {
            return DeltaReport::default();
        };
        let record_row = |source: &str, sd: SourceDelta| DeltaRecordRow {
            source: source.to_string(),
            unchanged: sd.unchanged as u64,
            added: sd.added as u64,
            removed: sd.removed as u64,
            modified: sd.modified as u64,
        };
        let edge_row = |(feature, sd): (&'static str, SegmentDelta)| DeltaEdgeRow {
            feature: feature.to_string(),
            segments_retained: sd.segments_retained as u64,
            segments_rederived: sd.segments_rederived as u64,
            edges_retained: sd.edges_retained as u64,
            edges_rederived: sd.edges_rederived as u64,
        };
        DeltaReport {
            incremental: true,
            records: d
                .records
                .rows()
                .into_iter()
                .map(|(source, sd)| record_row(source, sd))
                .collect(),
            edges: d.edge_rows().into_iter().map(edge_row).collect(),
            asns_retained: d.asns_retained as u64,
            asns_added: d.asns_added as u64,
            asns_retired: d.asns_retired as u64,
            ner_reused: d.ner_reused as u64,
            ner_recomputed: d.ner_recomputed as u64,
            favicon_reused: d.favicon_reused as u64,
            favicon_recomputed: d.favicon_recomputed as u64,
            llm_calls_saved: d.llm_calls_saved() as u64,
        }
    }

    /// Which evidence sources independently support `a` and `b` being
    /// siblings — the provenance of a merge. An empty result for a pair
    /// the full mapping merges means the link is *transitive only*
    /// (each hop supported by some feature, but no single feature sees
    /// the pair directly end to end).
    ///
    /// Feature f is listed iff f's inputs mention both ASNs and f's
    /// compiled edge segments alone connect them. The inputs are the
    /// OID_W and OID_P groups, the endpoints of the notes/aka
    /// extractions, the R&R merging groups and the favicon groups. The
    /// order is fixed: OID_W, OID_P, notes and aka, R&R, Favicons. So
    /// any listed feature implies that [`Borges::full`] merges the pair.
    ///
    /// - `evidence(a, a)` lists the features whose inputs mention `a`.
    /// - An ASN outside the live universe gets an empty list. Evidence
    ///   through such an ASN was dropped at compile time, so a pair
    ///   linked only through one is not connected either.
    ///
    /// The first call builds a per-feature component table over the
    /// world: five union-find replays of the segments, O(world), under
    /// 1 ms for the 11k-ASN medium world on a 2-vCPU host. The table
    /// lives as long as this `Borges` (a clone carries it). Every later
    /// call is two interner lookups and at most five compares.
    pub fn evidence(&self, a: Asn, b: Asn) -> Vec<Feature> {
        let interner = &self.compiled.interner;
        let (Some(a), Some(b)) = (interner.id(a), interner.id(b)) else {
            return Vec::new();
        };
        self.evidence
            .get_or_init(|| EvidenceTable::build(self))
            .supporting(a, b)
    }

    /// Table 3: the feature's contribution in isolation.
    pub fn contribution(&self, feature: Feature) -> FeatureContribution {
        let count = |groups: &[Vec<Asn>]| {
            let ases: usize = groups.iter().map(Vec::len).sum();
            FeatureContribution {
                ases,
                orgs: groups.len(),
            }
        };
        match feature {
            Feature::OidW => count(&self.oid_w_groups),
            Feature::OidP => count(&self.oid_p_groups),
            Feature::RefreshRedirect => count(&self.rr.groups),
            Feature::NotesAka => {
                // Cluster the extraction edges on their own.
                let mut uf = UnionFind::new();
                for (a, b) in self.ner.edges() {
                    uf.union(a, b);
                }
                let groups = uf.into_groups();
                count(&groups)
            }
            Feature::Favicons => {
                let mut uf = UnionFind::new();
                for group in &self.favicon.groups {
                    uf.union_group(group);
                }
                let groups = uf.into_groups();
                count(&groups)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_llm::SimLlm;
    use borges_synthnet::{GeneratorConfig, SyntheticInternet};
    use borges_websim::SimWebClient;

    /// The sequential ingest over a crawl through `web`, resilient under
    /// `policy`.
    fn resilient(
        world: &SyntheticInternet,
        web: impl WebClient + Sync,
        model: &(dyn ChatModel + Sync),
        policy: RetryPolicy,
        tel: &Telemetry,
    ) -> Borges {
        let opts = IngestOptions {
            policy: Some(policy),
            ..IngestOptions::default()
        };
        Borges::ingest(
            &world.whois,
            &world.pdb,
            WebSource::Crawl(&web),
            model,
            &opts,
            tel,
        )
    }

    /// The sequential ingest over a scraped `report`, incremental when
    /// `prior` is given.
    fn ingest_scraped(
        world: &SyntheticInternet,
        report: &ScrapeReport,
        prior: Option<&SnapshotState>,
        tel: &Telemetry,
    ) -> Borges {
        let opts = IngestOptions {
            prior,
            ..IngestOptions::default()
        };
        let llm = SimLlm::flawless();
        Borges::ingest(
            &world.whois,
            &world.pdb,
            WebSource::Scraped(report),
            &llm,
            &opts,
            tel,
        )
    }

    fn pipeline() -> (SyntheticInternet, Borges) {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        (world, borges)
    }

    #[test]
    fn baseline_reproduces_whois_split() {
        let (_, borges) = pipeline();
        let base = borges.baseline_as2org();
        assert!(
            !base.same_org(Asn::new(3356), Asn::new(209)),
            "Fig. 3 split"
        );
    }

    #[test]
    fn oid_p_feature_merges_lumen() {
        let (_, borges) = pipeline();
        let m = borges.mapping(FeatureSet {
            oid_p: true,
            ..FeatureSet::NONE
        });
        assert!(m.same_org(Asn::new(3356), Asn::new(209)), "Fig. 3 merge");
    }

    #[test]
    fn rr_feature_merges_edgio() {
        let (_, borges) = pipeline();
        let base = borges.baseline_as2org();
        assert!(!base.same_org(Asn::new(22822), Asn::new(15133)));
        let m = borges.mapping(FeatureSet {
            rr: true,
            ..FeatureSet::NONE
        });
        assert!(m.same_org(Asn::new(22822), Asn::new(15133)), "§4.3.2 case");
    }

    #[test]
    fn na_feature_merges_deutsche_telekom() {
        let (_, borges) = pipeline();
        let m = borges.mapping(FeatureSet {
            na: true,
            ..FeatureSet::NONE
        });
        assert!(m.same_org(Asn::new(3320), Asn::new(6855)), "Fig. 4 case");
        assert!(m.same_org(Asn::new(3320), Asn::new(5483)));
    }

    #[test]
    fn favicon_feature_merges_claro() {
        let (_, borges) = pipeline();
        let m = borges.mapping(FeatureSet {
            favicons: true,
            ..FeatureSet::NONE
        });
        assert!(
            m.same_org(Asn::new(27651), Asn::new(10396)),
            "Claro Chile + Claro PR via favicon + LLM"
        );
    }

    #[test]
    fn full_borges_groups_monotonically_vs_baseline() {
        let (_, borges) = pipeline();
        let base = borges.baseline_as2org();
        let full = borges.full();
        assert_eq!(base.asn_count(), full.asn_count(), "same universe");
        assert!(
            full.org_count() < base.org_count(),
            "features must merge organizations"
        );
        // Monotonicity: everything the baseline merged stays merged.
        for (_, members) in base.clusters() {
            for pair in members.windows(2) {
                assert!(full.same_org(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn all_16_combinations_enumerate() {
        let combos = FeatureSet::all_combinations();
        assert_eq!(combos.len(), 16);
        assert_eq!(combos[0], FeatureSet::NONE);
        assert_eq!(combos[15], FeatureSet::ALL);
        let labels: std::collections::BTreeSet<String> =
            combos.iter().map(FeatureSet::label).collect();
        assert_eq!(labels.len(), 16, "labels must be distinct");
    }

    #[test]
    fn feature_bits_round_trip_and_parse() {
        for (bits, combo) in FeatureSet::all_combinations().into_iter().enumerate() {
            assert_eq!(combo.bits(), bits as u8);
            assert_eq!(FeatureSet::from_bits(combo.bits()), combo);
        }
        assert_eq!(
            FeatureSet::from_bits(0xF0),
            FeatureSet::NONE,
            "high bits ignored"
        );
        assert_eq!(FeatureSet::parse("all").unwrap(), FeatureSet::ALL);
        assert_eq!(FeatureSet::parse("none").unwrap(), FeatureSet::NONE);
        let f = FeatureSet::parse("oid_p, favicons").unwrap();
        assert!(f.oid_p && f.favicons && !f.na && !f.rr);
        let err = FeatureSet::parse("oid_p,bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn read_path_accessors_agree_with_universe() {
        let (_, borges) = pipeline();
        let universe = borges.universe();
        assert_eq!(borges.universe_len(), universe.len());
        assert!(borges.contains(universe[0]));
        assert!(!borges.contains(Asn::new(4_294_000_000)));
        // Edge weight grows monotonically with the feature set.
        let none = borges.edge_weight(FeatureSet::NONE);
        let all = borges.edge_weight(FeatureSet::ALL);
        assert!(none >= 1);
        assert!(all > none, "optional features add edges");
    }

    #[test]
    fn contributions_have_sensible_shapes() {
        let (world, borges) = pipeline();
        let oid_w = borges.contribution(Feature::OidW);
        let oid_p = borges.contribution(Feature::OidP);
        assert_eq!(oid_w.ases, world.whois.asn_count());
        assert_eq!(oid_p.ases, world.pdb.net_count());
        assert!(oid_w.ases > oid_p.ases, "WHOIS covers more than PeeringDB");
        for f in Feature::ALL {
            let c = borges.contribution(f);
            assert!(c.orgs <= c.ases, "{:?}: more orgs than ASes", f);
        }
        let na = borges.contribution(Feature::NotesAka);
        assert!(na.ases > 0, "scripted sibling notes must fire");
        let rr = borges.contribution(Feature::RefreshRedirect);
        assert!(rr.ases > 0 && rr.orgs < rr.ases);
    }

    #[test]
    fn mapping_covers_the_whole_universe() {
        let (world, borges) = pipeline();
        let m = borges.full();
        assert_eq!(m.asn_count(), borges.universe().len());
        assert!(m.asn_count() >= world.whois.asn_count());
    }

    #[test]
    fn evidence_provenance_names_the_right_features() {
        let (_, borges) = pipeline();
        // Lumen/CenturyLink: merged by the PeeringDB key, not WHOIS.
        let ev = borges.evidence(Asn::new(3356), Asn::new(209));
        assert!(ev.contains(&Feature::OidP), "{ev:?}");
        assert!(!ev.contains(&Feature::OidW), "{ev:?}");
        // Edgio: merged by final-URL matching.
        let ev = borges.evidence(Asn::new(22822), Asn::new(15133));
        assert!(ev.contains(&Feature::RefreshRedirect), "{ev:?}");
        // Deutsche Telekom subsidiary: notes evidence.
        let ev = borges.evidence(Asn::new(3320), Asn::new(6855));
        assert!(ev.contains(&Feature::NotesAka), "{ev:?}");
        // Claro Chile / Claro PR: favicon evidence.
        let ev = borges.evidence(Asn::new(27651), Asn::new(10396));
        assert!(ev.contains(&Feature::Favicons), "{ev:?}");
        // Unrelated pair: no evidence at all.
        assert!(borges.evidence(Asn::new(174), Asn::new(15169)).is_empty());
    }

    #[test]
    fn evidence_ignores_links_through_asns_outside_the_universe() {
        use crate::delta::{SlotRecord, SNAPSHOT_STATE_SCHEMA};
        // Slots AS10 and AS20 with no edges; both extractions name AS99,
        // which is outside the universe.
        let world = CompiledWorld {
            state: SnapshotState {
                schema: SNAPSHOT_STATE_SCHEMA.to_string(),
                slots: [10, 20].map(|asn| SlotRecord { asn, live: true }).to_vec(),
                ..SnapshotState::default()
            },
            extras: ServingExtras {
                ner_entries: [10, 20]
                    .map(|asn| NerEntryRecord {
                        asn,
                        siblings: vec![99],
                    })
                    .to_vec(),
                ..ServingExtras::default()
            },
            epoch: 0,
            digest: None,
        };
        let borges = Borges::from_world(&world, 1).unwrap();
        let (a10, a20, a99) = (Asn::new(10), Asn::new(20), Asn::new(99));
        // The compile dropped AS99, so the mapping keeps the pair apart,
        // and no feature may claim to join it.
        assert!(!borges.full().same_org(a10, a20));
        assert_eq!(borges.evidence(a10, a20), Vec::<Feature>::new());
        assert_eq!(borges.evidence(a10, a99), Vec::<Feature>::new());
        assert_eq!(borges.evidence(a99, a99), Vec::<Feature>::new());
        // Each subject is still mentioned by its own extraction.
        assert_eq!(borges.evidence(a10, a10), vec![Feature::NotesAka]);
        assert_eq!(borges.evidence(a20, a20), vec![Feature::NotesAka]);
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(13));
        let llm = SimLlm::new(13);
        let sequential = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        let parallel = Borges::run_parallel(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
            4,
        );
        assert_eq!(
            parallel.mapping(FeatureSet::ALL),
            sequential.mapping(FeatureSet::ALL)
        );
        assert_eq!(parallel.ner.per_entry, sequential.ner.per_entry);
        assert_eq!(parallel.scrape_stats, sequential.scrape_stats);
    }

    #[test]
    fn mappings_parallel_matches_sequential_mapping() {
        let (_, borges) = pipeline();
        let combos = FeatureSet::all_combinations();
        let sequential: Vec<_> = combos.iter().map(|&f| borges.mapping(f)).collect();
        for threads in [1, 2, 7] {
            assert_eq!(
                borges.mappings_parallel(&combos, threads),
                sequential,
                "diverged with {threads} threads"
            );
        }
    }

    #[test]
    fn compiled_replay_matches_sparse_rebuild() {
        // The dense replay must reproduce, bit for bit, what the original
        // per-call sparse rebuild produced for every feature subset.
        let (_, borges) = pipeline();
        let allocated: BTreeSet<Asn> = borges.universe().iter().copied().collect();
        for features in FeatureSet::all_combinations() {
            let mut uf = UnionFind::with_universe(borges.universe().iter().copied());
            for group in &borges.oid_w_groups {
                uf.union_group(group);
            }
            if features.oid_p {
                for group in &borges.oid_p_groups {
                    uf.union_group(group);
                }
            }
            if features.na {
                for (a, b) in borges.ner.edges() {
                    if allocated.contains(&a) && allocated.contains(&b) {
                        uf.union(a, b);
                    }
                }
            }
            if features.rr {
                for group in borges.rr.merging_groups() {
                    let members: Vec<Asn> = group
                        .iter()
                        .copied()
                        .filter(|a| allocated.contains(a))
                        .collect();
                    uf.union_group(&members);
                }
            }
            if features.favicons {
                for group in &borges.favicon.groups {
                    let members: Vec<Asn> = group
                        .iter()
                        .copied()
                        .filter(|a| allocated.contains(a))
                        .collect();
                    uf.union_group(&members);
                }
            }
            assert_eq!(
                borges.mapping(features),
                AsOrgMapping::from_union_find(uf),
                "replay diverged for {}",
                features.label()
            );
        }
    }

    #[test]
    fn chaos_resilient_run_on_a_flawless_world_matches_run() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let bare = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        let resilient = resilient(
            &world,
            SimWebClient::browser(&world.web),
            &llm,
            RetryPolicy::standard(11),
            &Telemetry::disabled(),
        );
        for features in FeatureSet::all_combinations() {
            assert_eq!(resilient.mapping(features), bare.mapping(features));
        }
        let coverage = resilient.coverage();
        assert!(coverage.accounted());
        assert!(coverage.complete());
        // The stack was transparent: one attempt per call, nothing retried.
        let web = resilient.scrape_stats.resilience;
        assert_eq!(web.attempts, web.calls);
        assert_eq!(web.recovered + web.abandoned, 0);
        assert_eq!(
            resilient.ner.stats.resilience.calls as usize,
            resilient.ner.stats.llm_calls
        );
        assert_eq!(
            resilient.favicon.stats.resilience.calls as usize,
            resilient.favicon.stats.llm_calls
        );
    }

    #[test]
    fn chaos_recoverable_faults_yield_a_bit_identical_mapping() {
        use borges_llm::FlakyModel;
        use borges_resilience::EpisodePlan;
        use borges_websim::FlakyWebClient;

        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let flawless = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &SimLlm::flawless(),
        );
        for seed in [1u64, 2, 3] {
            let flaky_web = FlakyWebClient::new(
                SimWebClient::browser(&world.web),
                EpisodePlan::calibrated(seed),
            );
            let flaky_llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(seed ^ 1));
            let chaotic = resilient(
                &world,
                flaky_web,
                &flaky_llm,
                RetryPolicy::standard(seed),
                &Telemetry::disabled(),
            );
            // The keystone: every recoverable episode is erased entirely.
            for features in FeatureSet::all_combinations() {
                assert_eq!(
                    chaotic.mapping(features),
                    flawless.mapping(features),
                    "seed {seed}, {}",
                    features.label()
                );
            }
            let coverage = chaotic.coverage();
            assert!(coverage.complete(), "seed {seed}: nothing may be lost");
            assert!(coverage.accounted());
            assert!(
                chaotic.scrape_stats.resilience.recovered
                    + chaotic.ner.stats.resilience.recovered
                    + chaotic.favicon.stats.resilience.recovered
                    > 0,
                "seed {seed}: the plan must actually have injected faults"
            );
        }
    }

    #[test]
    fn chaos_unrecoverable_faults_degrade_with_full_accounting() {
        use borges_llm::FlakyModel;
        use borges_resilience::EpisodePlan;
        use borges_websim::FlakyWebClient;

        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let flawless = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &SimLlm::flawless(),
        );
        // Permanent outages and no retries: losses are guaranteed.
        let flaky_web = FlakyWebClient::new(
            SimWebClient::browser(&world.web),
            EpisodePlan::with_outages(7),
        );
        let flaky_llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::with_outages(8));
        let degraded = resilient(
            &world,
            flaky_web,
            &flaky_llm,
            RetryPolicy::none(),
            &Telemetry::disabled(),
        );

        // The run completed and every loss is on the books.
        let coverage = degraded.coverage();
        assert!(coverage.accounted(), "abandoned + succeeded == attempted");
        assert!(
            coverage.total_abandoned() > 0,
            "outages must cost something"
        );
        // Client-level accounting: one call per distinct URL (the cache
        // dedups), and every call either succeeded or was abandoned.
        let web = degraded.scrape_stats.resilience;
        assert_eq!(web.calls as usize, degraded.scrape_stats.unique_urls);
        assert_eq!(web.succeeded() + web.abandoned, web.calls);

        // Degradation only removes evidence: everything still merged is
        // merged in the flawless world too, and the universe is intact.
        let full = degraded.full();
        let reference = flawless.full();
        assert_eq!(full.asn_count(), reference.asn_count());
        for (_, members) in full.clusters() {
            for pair in members.windows(2) {
                assert!(
                    reference.same_org(pair[0], pair[1]),
                    "degraded run invented a merge: {:?}",
                    pair
                );
            }
        }
    }

    #[test]
    fn traced_run_emits_stage_spans_and_funnel_counters() {
        use borges_telemetry::{Telemetry, Verbosity};
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let borges = Borges::run_traced(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
            &tel,
        );
        // One logical span per stage, under the root.
        let paths: Vec<String> = tel.trace_records().iter().map(|r| r.path.clone()).collect();
        for path in [
            "run",
            "run/crawl",
            "run/ner",
            "run/rr",
            "run/favicon",
            "run/compile",
        ] {
            assert!(paths.contains(&path.to_string()), "missing span {path}");
        }
        // Funnel counters come from the merged stats, verbatim.
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.counter("borges_crawl_unique_urls_total") as usize,
            borges.scrape_stats.unique_urls
        );
        assert_eq!(
            snap.counter("borges_ner_llm_calls_total") as usize,
            borges.ner.stats.llm_calls
        );
        assert_eq!(
            snap.counter("borges_evidence_asns_total") as usize,
            borges.universe().len()
        );
        // Stage durations were observed (zero under SimClock, but present).
        for metric in [
            "borges_stage_crawl_ms",
            "borges_stage_ner_ms",
            "borges_stage_rr_ms",
            "borges_stage_favicon_ms",
            "borges_stage_compile_ms",
        ] {
            assert_eq!(snap.histogram(metric).unwrap().count, 1, "{metric}");
        }
        // The redirect cache saw every unique URL miss once (sequential).
        assert_eq!(
            borges.web_cache.misses as usize,
            borges.scrape_stats.unique_urls
        );
    }

    #[test]
    fn traced_mappings_record_materializations_and_worker_timings() {
        use borges_telemetry::{Telemetry, Verbosity};
        let (_, borges) = pipeline();
        let combos = FeatureSet::all_combinations();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let mapped = borges.mappings_parallel_traced(&combos, 4, &tel);
        assert_eq!(mapped, borges.mappings_parallel(&combos, 4));
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.histogram("borges_mapping_materialize_ms")
                .unwrap()
                .count,
            16
        );
        // One worker-timing row per chunk, accounting for every item.
        let workers = tel.worker_timings();
        assert_eq!(workers.len(), 4);
        assert_eq!(workers.iter().map(|w| w.items).sum::<u64>(), 16);
        // One logical materialize span per combination, each labelled.
        let records = tel.trace_records();
        let materialize: Vec<_> = records
            .iter()
            .filter(|r| r.path == "mappings/materialize")
            .collect();
        assert_eq!(materialize.len(), 16);
        let labels: BTreeSet<&str> = materialize
            .iter()
            .flat_map(|r| r.fields.iter())
            .filter(|f| f.key == "features")
            .map(|f| f.value.as_str())
            .collect();
        assert_eq!(labels.len(), 16, "every combination labelled distinctly");
    }

    #[test]
    fn run_report_mirrors_stats_and_balances() {
        use borges_telemetry::{Telemetry, Verbosity};
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let borges = resilient(
            &world,
            SimWebClient::browser(&world.web),
            &llm,
            RetryPolicy::standard(11),
            &tel,
        );
        let report = borges.run_report(&tel, "resilient", 1);
        assert_eq!(report.schema, borges_telemetry::RUN_REPORT_SCHEMA);
        assert!(report.accounted(), "abandoned + succeeded == attempted");
        assert_eq!(
            report.crawl.unique_urls as usize,
            borges.scrape_stats.unique_urls
        );
        assert_eq!(report.ner.llm_calls as usize, borges.ner.stats.llm_calls);
        assert_eq!(
            report.evidence.whois_groups as usize,
            borges.oid_w_groups.len()
        );
        // Boundary rows mirror the stamped resilience stats.
        assert_eq!(report.resilience.len(), 3);
        assert_eq!(report.resilience[0].boundary, "web");
        assert_eq!(
            report.resilience[0].calls,
            borges.scrape_stats.resilience.calls
        );
        assert_eq!(report.resilience[1].boundary, "llm.ner");
        assert_eq!(
            report.resilience[1].calls,
            borges.ner.stats.resilience.calls
        );
        // The redirect-cache ledger row is present and consistent.
        assert_eq!(report.caches.len(), 1);
        assert_eq!(report.caches[0].name, "web.redirect");
        assert_eq!(
            report.caches[0].misses as usize,
            borges.scrape_stats.unique_urls
        );
        // The embedded snapshot matches what the context holds, and the
        // whole ledger round-trips through JSON.
        assert_eq!(report.metrics, tel.metrics_snapshot());
        let back = borges_telemetry::RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn feature_order_does_not_matter() {
        // Union-find is order-insensitive; two different routes to the
        // same feature set must agree exactly.
        let (_, borges) = pipeline();
        let a = borges.mapping(FeatureSet::ALL);
        let b = borges.mapping(FeatureSet::ALL);
        assert_eq!(a, b);
    }

    /// Runs a full compile and an incremental remap over the same T+1
    /// inputs and asserts the keystone: every feature combination's
    /// mapfile is byte-identical.
    fn assert_remap_matches_full(world: &SyntheticInternet, state: &SnapshotState) {
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let full = ingest_scraped(world, &report, None, &Telemetry::disabled());
        let inc = ingest_scraped(world, &report, Some(state), &Telemetry::disabled());
        assert_eq!(inc.universe(), full.universe());
        for f in FeatureSet::all_combinations() {
            assert_eq!(
                crate::mapfile::serialize(&inc.mapping(f)),
                crate::mapfile::serialize(&full.mapping(f)),
                "remap must be byte-identical to full compile for {f:?}"
            );
        }
    }

    #[test]
    fn remap_of_unchanged_world_is_byte_identical_and_llm_free() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let state = ingest_scraped(&world, &report, None, &Telemetry::disabled()).snapshot_state();
        assert_remap_matches_full(&world, &state);

        // With nothing changed, every LLM answer replays from the memo
        // and every edge segment is carried over verbatim.
        let inc = ingest_scraped(&world, &report, Some(&state), &Telemetry::disabled());
        assert_eq!(inc.ner.stats.llm_calls, 0, "NER must replay from memo");
        assert_eq!(
            inc.favicon.stats.llm_calls, 0,
            "favicon must replay from memo"
        );
        let d = inc.delta.as_ref().expect("remap records delta stats");
        assert_eq!(d.records.dirty(), 0);
        assert_eq!(d.asns_added + d.asns_retired, 0);
        for (feature, sd) in d.edge_rows() {
            assert_eq!(sd.segments_rederived, 0, "{feature} segments re-derived");
            assert_eq!(sd.edges_rederived, 0, "{feature} edges re-derived");
        }
        assert_eq!(d.llm_calls_saved(), d.ner_reused + d.favicon_reused);
        assert!(d.llm_calls_saved() > 0, "the memo replay saved real calls");
    }

    #[test]
    fn remap_against_a_foreign_state_still_matches_full_compile() {
        // Degenerate delta: the persisted state comes from a *different*
        // world, so essentially every record is added/removed/modified.
        // Correctness must not depend on reuse actually happening.
        let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let t1 = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
        let scraper = Scraper::new(SimWebClient::browser(&t0.web));
        let report = scraper.crawl(t0.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let state = ingest_scraped(&t0, &report, None, &Telemetry::disabled()).snapshot_state();
        assert_remap_matches_full(&t1, &state);
    }

    #[test]
    fn remap_emits_stage_spans_and_delta_counters() {
        use borges_telemetry::{Telemetry, Verbosity};
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let state = ingest_scraped(&world, &report, None, &Telemetry::disabled()).snapshot_state();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let inc = ingest_scraped(&world, &report, Some(&state), &tel);
        let paths: Vec<String> = tel.trace_records().iter().map(|r| r.path.clone()).collect();
        for path in [
            "remap",
            "remap/ner",
            "remap/rr",
            "remap/favicon",
            "remap/apply",
        ] {
            assert!(paths.contains(&path.to_string()), "missing span {path}");
        }
        let metrics = tel.metrics_snapshot();
        let counter = |name: &str| metrics.counter(name);
        assert_eq!(counter("borges_delta_records_dirty_total"), 0);
        assert_eq!(counter("borges_delta_segments_rederived_total"), 0);
        assert!(counter("borges_delta_segments_retained_total") > 0);
        assert_eq!(
            counter("borges_delta_llm_calls_saved_total") as usize,
            inc.delta.as_ref().unwrap().llm_calls_saved()
        );
        // The run ledger carries the same accounting as typed rows.
        let ledger = inc.run_report(&tel, "remap", 1);
        assert!(ledger.delta.incremental);
        assert!(ledger.delta.consistent());
        assert_eq!(ledger.delta.records.len(), 5);
        assert_eq!(ledger.delta.edges.len(), 5);
    }
}
