//! Incremental snapshot re-mapping (DESIGN.md §9).
//!
//! Borges runs against periodic WHOIS/PeeringDB snapshots, and between
//! consecutive snapshots only a small fraction of records change. This
//! module holds everything the incremental path needs to avoid paying
//! the full compilation cost at snapshot T+1:
//!
//! * **Record fingerprints** ([`SourceFingerprints`]) — one 64-bit
//!   FNV-1a hash per source record (WHOIS org/aut, PeeringDB org/net,
//!   crawled site), captured at every run and persisted with the state.
//! * **Delta taxonomy** ([`SnapshotDelta`]) — comparing stored against
//!   fresh fingerprints classifies every record as unchanged / added /
//!   removed / modified, per source.
//! * **Edge segments** ([`EdgeSegment`]) — the compiled dense edge
//!   lists, partitioned by the source key that derived them (WHOIS org
//!   handle, PeeringDB org id, NER subject, final URL, favicon hash).
//!   [`merge_feature`] replays only the segments whose member
//!   fingerprint changed and retains the rest verbatim — the per-feature
//!   union-find replay the tentpole asks for.
//! * **Persisted state** ([`SnapshotState`]) — the compiled evidence
//!   (interner slots, segments, fingerprints, and the LLM reply memos)
//!   that every store artifact carries as its world's `state`: a
//!   published world is the base `map --base` remaps against.
//!
//! Fingerprints are 64-bit FNV-1a, like [`borges_types::FaviconHash`]:
//! fast, dependency-free, and collision-safe at the paper's scale. The
//! threat model is accidental collision between honest records, not
//! adversarial preimages. `std::hash` is deliberately not used — its
//! output is unstable across releases, and these hashes persist.

use crate::ner::{NerMemoEntry, NerResult};
use crate::web::favicon::{FaviconInference, FaviconMemo};
use crate::web::rr::RrInference;
use borges_peeringdb::{PdbNetwork, PdbOrganization, PdbSnapshot};
use borges_types::{Asn, AsnInterner, FaviconHash, WhoisOrgId};
use borges_websim::{ScrapeReport, ScrapedSite};
use borges_whois::{AutNum, WhoisOrg, WhoisRegistry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a (64-bit) fingerprint builder with
/// length-prefixed field framing, so `("ab", "c")` and `("a", "bc")`
/// hash differently.
#[derive(Debug, Clone)]
pub struct Fingerprinter(u64);

impl Fingerprinter {
    /// A fresh fingerprint at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprinter(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes in a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes in a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

/// Fingerprint of a WHOIS organization record.
pub fn whois_org_fp(org: &WhoisOrg) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(org.name.as_str());
    fp.str(&org.country.to_string());
    fp.str(org.source.as_str());
    fp.u64(u64::from(org.changed));
    fp.finish()
}

/// Fingerprint of a WHOIS aut-num record (covers its org link, so a
/// reassignment dirties the record even when nothing else moved).
pub fn whois_aut_fp(aut: &AutNum) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(&aut.name);
    fp.str(aut.org.as_str());
    fp.str(aut.source.as_str());
    fp.u64(u64::from(aut.changed));
    fp.finish()
}

/// Fingerprint of a PeeringDB organization record.
pub fn pdb_org_fp(org: &PdbOrganization) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(&org.name);
    fp.str(&org.website);
    fp.str(&org.country);
    fp.finish()
}

/// Fingerprint of a PeeringDB network record (covers everything the
/// pipeline reads: org link, free text, website).
pub fn pdb_net_fp(net: &PdbNetwork) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.u64(net.id);
    fp.u64(net.org_id.value());
    fp.str(&net.name);
    fp.str(&net.aka);
    fp.str(&net.notes);
    fp.str(&net.website);
    fp.finish()
}

/// Fingerprint of a crawled site result (requested URL, final URL,
/// favicon — the three observations the web features consume).
pub fn site_fp(site: &ScrapedSite) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(&site.requested.canonical());
    match &site.final_url {
        Some(url) => {
            fp.u64(1);
            fp.str(&url.canonical());
        }
        None => fp.u64(0),
    }
    match site.favicon {
        Some(h) => {
            fp.u64(1);
            fp.u64(h.raw());
        }
        None => fp.u64(0),
    }
    fp.finish()
}

/// Fingerprint of the NER-relevant text of a PeeringDB entry — the memo
/// key guard for reusing an LLM extraction reply.
pub fn ner_text_fp(notes: &str, aka: &str) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(notes);
    fp.str(aka);
    fp.finish()
}

/// Fingerprint of a favicon group's step-2 classifier input (the
/// ordered canonical URL list) — the memo guard for reusing a
/// classification reply.
pub fn favicon_urls_fp(urls: &[String]) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.u64(urls.len() as u64);
    for url in urls {
        fp.str(url);
    }
    fp.finish()
}

/// Per-record fingerprints of the three input worlds, captured at every
/// pipeline run and persisted with the compiled state. Comparing two
/// captures yields the [`SnapshotDelta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceFingerprints {
    /// WHOIS organization records, by org handle.
    pub whois_org: BTreeMap<WhoisOrgId, u64>,
    /// WHOIS aut-num records, by ASN.
    pub whois_aut: BTreeMap<Asn, u64>,
    /// PeeringDB organization records, by org id.
    pub pdb_org: BTreeMap<u64, u64>,
    /// PeeringDB network records, by ASN.
    pub pdb_net: BTreeMap<Asn, u64>,
    /// Crawled site results, by ASN.
    pub site: BTreeMap<Asn, u64>,
}

impl SourceFingerprints {
    /// Fingerprints every record of the three inputs.
    pub fn capture(whois: &WhoisRegistry, pdb: &PdbSnapshot, report: &ScrapeReport) -> Self {
        SourceFingerprints {
            whois_org: whois
                .orgs()
                .map(|o| (o.id.clone(), whois_org_fp(o)))
                .collect(),
            whois_aut: whois.aut_nums().map(|a| (a.asn, whois_aut_fp(a))).collect(),
            pdb_org: pdb.orgs().map(|o| (o.id.value(), pdb_org_fp(o))).collect(),
            pdb_net: pdb.nets().map(|n| (n.asn, pdb_net_fp(n))).collect(),
            site: report
                .sites
                .iter()
                .map(|(&asn, site)| (asn, site_fp(site)))
                .collect(),
        }
    }
}

/// How one source's records moved between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceDelta {
    /// Records present in both snapshots with identical fingerprints.
    pub unchanged: usize,
    /// Records present only in the later snapshot.
    pub added: usize,
    /// Records present only in the earlier snapshot.
    pub removed: usize,
    /// Records present in both with differing fingerprints.
    pub modified: usize,
}

impl SourceDelta {
    fn compute<K: Ord>(old: &BTreeMap<K, u64>, new: &BTreeMap<K, u64>) -> Self {
        let mut delta = SourceDelta::default();
        for (key, fp) in new {
            match old.get(key) {
                Some(old_fp) if old_fp == fp => delta.unchanged += 1,
                Some(_) => delta.modified += 1,
                None => delta.added += 1,
            }
        }
        delta.removed = old.keys().filter(|k| !new.contains_key(k)).count();
        delta
    }

    /// Records whose evidence must be re-derived.
    pub fn dirty(&self) -> usize {
        self.added + self.removed + self.modified
    }

    /// All records of the later snapshot plus the removed ones.
    pub fn total(&self) -> usize {
        self.unchanged + self.added + self.removed + self.modified
    }
}

/// The record-level difference between two snapshots: one
/// [`SourceDelta`] per input source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// WHOIS organization records.
    pub whois_org: SourceDelta,
    /// WHOIS aut-num records.
    pub whois_aut: SourceDelta,
    /// PeeringDB organization records.
    pub pdb_org: SourceDelta,
    /// PeeringDB network records.
    pub pdb_net: SourceDelta,
    /// Crawled site results.
    pub site: SourceDelta,
}

impl SnapshotDelta {
    /// Classifies every record by comparing stored (snapshot T) against
    /// fresh (snapshot T+1) fingerprints.
    pub fn compute(old: &SourceFingerprints, new: &SourceFingerprints) -> Self {
        SnapshotDelta {
            whois_org: SourceDelta::compute(&old.whois_org, &new.whois_org),
            whois_aut: SourceDelta::compute(&old.whois_aut, &new.whois_aut),
            pdb_org: SourceDelta::compute(&old.pdb_org, &new.pdb_org),
            pdb_net: SourceDelta::compute(&old.pdb_net, &new.pdb_net),
            site: SourceDelta::compute(&old.site, &new.site),
        }
    }

    /// Total dirty records across all sources.
    pub fn dirty(&self) -> usize {
        self.whois_org.dirty()
            + self.whois_aut.dirty()
            + self.pdb_org.dirty()
            + self.pdb_net.dirty()
            + self.site.dirty()
    }

    /// The five `(source, delta)` rows in fixed order, for reporting.
    pub fn rows(&self) -> [(&'static str, SourceDelta); 5] {
        [
            ("whois_org", self.whois_org),
            ("whois_aut", self.whois_aut),
            ("pdb_org", self.pdb_org),
            ("pdb_net", self.pdb_net),
            ("site", self.site),
        ]
    }
}

/// One compiled edge segment: the dense edges a single source key (a
/// WHOIS org, a PeeringDB org, an NER subject, a final URL, a favicon)
/// derived, plus the fingerprint of the in-universe member partition
/// that derived them. When key and fingerprint both match across
/// snapshots, the segment's edges are reused verbatim — surviving ASNs
/// keep their dense ids, so the pairs are still correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSegment<K> {
    /// The source key that derived this segment.
    pub key: K,
    /// Fingerprint of the universe-filtered member partition.
    pub fp: u64,
    /// Dense-id edges (a spanning chain per group).
    pub edges: Vec<(u32, u32)>,
}

/// Fingerprint of a key's group partition, restricted to in-universe
/// members. Membership filtering is part of the fingerprint on purpose:
/// an ASN entering or leaving the universe changes the derived edges
/// even when the source record text did not move.
pub fn group_fp(interner: &AsnInterner, groups: &[Vec<Asn>]) -> u64 {
    let mut fp = Fingerprinter::new();
    for group in groups {
        let members: Vec<u64> = group
            .iter()
            .filter(|&&asn| interner.contains(asn))
            .map(|&asn| u64::from(asn.value()))
            .collect();
        fp.u64(members.len() as u64);
        for m in members {
            fp.u64(m);
        }
    }
    fp.finish()
}

/// Compiles a key's groups to dense-id edges: each group's in-universe
/// members are chained pairwise (the spanning chain
/// [`crate::unionfind::UnionFind::union_group`] walks).
pub fn chain_edges(interner: &AsnInterner, groups: &[Vec<Asn>]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for group in groups {
        ids.clear();
        ids.extend(group.iter().filter_map(|&asn| interner.id(asn)));
        out.extend(ids.windows(2).map(|pair| (pair[0], pair[1])));
    }
    out
}

/// Retained/re-derived accounting for one feature's segment merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentDelta {
    /// Segments whose fingerprint matched: edges reused verbatim.
    pub segments_retained: usize,
    /// Segments re-derived (new key, or fingerprint moved).
    pub segments_rederived: usize,
    /// Edges carried over from retained segments.
    pub edges_retained: usize,
    /// Edges freshly derived.
    pub edges_rederived: usize,
}

/// Merges one feature's segments across snapshots: for every fresh key,
/// reuse the prior segment when its member fingerprint is unchanged,
/// otherwise re-derive the edges over the current interner. Keys absent
/// from `fresh` simply drop out. Passing an empty `prior` map is the
/// full (non-incremental) compile — every segment derives fresh — which
/// keeps the two paths on one code path and makes the byte-identity
/// keystone structural.
pub fn merge_feature<K: Ord + Clone>(
    interner: &AsnInterner,
    prior: &BTreeMap<K, EdgeSegment<K>>,
    fresh: Vec<(K, Vec<Vec<Asn>>)>,
) -> (Vec<EdgeSegment<K>>, SegmentDelta) {
    let mut segments = Vec::with_capacity(fresh.len());
    let mut delta = SegmentDelta::default();
    for (key, groups) in fresh {
        let fp = group_fp(interner, &groups);
        match prior.get(&key) {
            Some(seg) if seg.fp == fp => {
                delta.segments_retained += 1;
                delta.edges_retained += seg.edges.len();
                segments.push(seg.clone());
            }
            _ => {
                let edges = chain_edges(interner, &groups);
                delta.segments_rederived += 1;
                delta.edges_rederived += edges.len();
                segments.push(EdgeSegment { key, fp, edges });
            }
        }
    }
    (segments, delta)
}

/// Everything an incremental remap — a
/// [`Borges::ingest`](crate::pipeline::Borges::ingest) over a prior
/// state — knows about the work it avoided — record churn, interner evolution,
/// per-feature segment reuse, and LLM reply memoization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Record-level classification per source.
    pub records: SnapshotDelta,
    /// ASNs present in both universes (ids kept stable).
    pub asns_retained: usize,
    /// ASNs new to the universe (fresh or resurrected ids).
    pub asns_added: usize,
    /// ASNs that left the universe (slots tombstoned).
    pub asns_retired: usize,
    /// OID_W segment reuse.
    pub oid_w: SegmentDelta,
    /// OID_P segment reuse.
    pub oid_p: SegmentDelta,
    /// notes/aka segment reuse.
    pub na: SegmentDelta,
    /// R&R segment reuse.
    pub rr: SegmentDelta,
    /// Favicon segment reuse.
    pub favicons: SegmentDelta,
    /// NER LLM replies reused from the memo.
    pub ner_reused: usize,
    /// NER LLM calls actually issued.
    pub ner_recomputed: usize,
    /// Favicon classifier replies reused from the memo.
    pub favicon_reused: usize,
    /// Favicon classifier calls actually issued.
    pub favicon_recomputed: usize,
}

impl DeltaStats {
    /// LLM calls the memos saved — the dominant cost of a full run.
    pub fn llm_calls_saved(&self) -> usize {
        self.ner_reused + self.favicon_reused
    }

    /// The five `(feature, delta)` edge rows in fixed order.
    pub fn edge_rows(&self) -> [(&'static str, SegmentDelta); 5] {
        [
            ("oid_w", self.oid_w),
            ("oid_p", self.oid_p),
            ("na", self.na),
            ("rr", self.rr),
            ("favicons", self.favicons),
        ]
    }
}

// ---------------------------------------------------------------------
// Persisted state (wire form)
// ---------------------------------------------------------------------

/// Schema tag stamped into every persisted state; bump on breaking
/// shape changes.
pub const SNAPSHOT_STATE_SCHEMA: &str = "borges.snapshot_state.v1";

/// One interner slot: the ASN and whether it is live (tombstones are
/// persisted too — they hold dense ids that must not be reassigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// The ASN occupying the slot.
    pub asn: u32,
    /// Whether the slot is live in the universe.
    pub live: bool,
}

/// One dense edge on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// First endpoint (dense id).
    pub a: u32,
    /// Second endpoint (dense id).
    pub b: u32,
}

/// One edge segment on the wire. Non-string keys (PeeringDB org ids,
/// NER subject ASNs, favicon hashes) are stringified decimals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentRecord {
    /// The segment's source key.
    pub key: String,
    /// The member-partition fingerprint.
    pub fp: u64,
    /// The compiled dense edges.
    pub edges: Vec<EdgeRecord>,
}

/// One `(key, fingerprint)` pair of a source's record map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyFp {
    /// The record key (stringified when not naturally a string).
    pub key: String,
    /// The record fingerprint.
    pub fp: u64,
}

/// One memoized NER reply: the subject, the guard fingerprint of its
/// `notes`/`aka` text, and the parsed (pre-filter) finding ASNs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NerMemoRecord {
    /// The subject ASN.
    pub asn: u32,
    /// Fingerprint of `(notes, aka)` at reply time.
    pub fp: u64,
    /// Parsed finding ASNs, before the output filter.
    pub findings: Vec<u32>,
}

/// One memoized favicon classifier reply: the favicon, the guard
/// fingerprint of the URL list sent, and the parsed verdict
/// (`named: None` is "I don't know").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaviconMemoRecord {
    /// The favicon's raw 64-bit hash.
    pub favicon: u64,
    /// Fingerprint of the ordered URL list at reply time.
    pub fp: u64,
    /// The name the model replied, or `None` for "I don't know".
    pub named: Option<String>,
}

/// The persisted compiled state of one Borges run: interner slots,
/// per-feature edge segments, per-record source fingerprints, and the
/// LLM reply memos. It is the `state` of a
/// [`CompiledWorld`](crate::CompiledWorld), so every store artifact and
/// timeline world carries it, and `map --base` reads it back from
/// either. The JSON form ([`SnapshotState::to_json_pretty`]) remains
/// for the benchmark harness. The OID_W base closure is *not* persisted —
/// it is rebuilt from the OID_W segment edges on load, which is cheap
/// and sidesteps the fact that a union-find cannot un-union a retired
/// bridge ASN.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SnapshotState {
    /// Schema tag ([`SNAPSHOT_STATE_SCHEMA`]).
    pub schema: String,
    /// Interner slots in dense-id order (tombstones included).
    pub slots: Vec<SlotRecord>,
    /// OID_W segments, keyed by WHOIS org handle.
    pub oid_w: Vec<SegmentRecord>,
    /// OID_P segments, keyed by PeeringDB org id.
    pub oid_p: Vec<SegmentRecord>,
    /// notes/aka segments, keyed by subject ASN.
    pub na: Vec<SegmentRecord>,
    /// R&R segments, keyed by canonical final URL.
    pub rr: Vec<SegmentRecord>,
    /// Favicon segments, keyed by favicon hash.
    pub favicons: Vec<SegmentRecord>,
    /// WHOIS org fingerprints.
    pub whois_org_fps: Vec<KeyFp>,
    /// WHOIS aut-num fingerprints.
    pub whois_aut_fps: Vec<KeyFp>,
    /// PeeringDB org fingerprints.
    pub pdb_org_fps: Vec<KeyFp>,
    /// PeeringDB network fingerprints.
    pub pdb_net_fps: Vec<KeyFp>,
    /// Crawled site fingerprints.
    pub site_fps: Vec<KeyFp>,
    /// Memoized NER replies.
    pub ner_memo: Vec<NerMemoRecord>,
    /// Memoized favicon classifier replies.
    pub favicon_memo: Vec<FaviconMemoRecord>,
}

fn segment_records<K: ToString>(segments: &[EdgeSegment<K>]) -> Vec<SegmentRecord> {
    segments
        .iter()
        .map(|seg| SegmentRecord {
            key: seg.key.to_string(),
            fp: seg.fp,
            edges: seg
                .edges
                .iter()
                .map(|&(a, b)| EdgeRecord { a, b })
                .collect(),
        })
        .collect()
}

fn prior_map<K: Ord + Clone>(
    records: &[SegmentRecord],
    parse: impl Fn(&str) -> Option<K>,
) -> BTreeMap<K, EdgeSegment<K>> {
    records
        .iter()
        .filter_map(|rec| {
            let key = parse(&rec.key)?;
            Some((
                key.clone(),
                EdgeSegment {
                    key,
                    fp: rec.fp,
                    edges: rec.edges.iter().map(|e| (e.a, e.b)).collect(),
                },
            ))
        })
        .collect()
}

fn key_fps<K: ToString>(map: &BTreeMap<K, u64>) -> Vec<KeyFp> {
    map.iter()
        .map(|(key, &fp)| KeyFp {
            key: key.to_string(),
            fp,
        })
        .collect()
}

fn fp_map<K: Ord>(records: &[KeyFp], parse: impl Fn(&str) -> Option<K>) -> BTreeMap<K, u64> {
    records
        .iter()
        .filter_map(|rec| Some((parse(&rec.key)?, rec.fp)))
        .collect()
}

impl SnapshotState {
    /// Assembles the wire form from the live pieces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        interner: &AsnInterner,
        oid_w: &[EdgeSegment<String>],
        oid_p: &[EdgeSegment<u64>],
        na: &[EdgeSegment<u32>],
        rr: &[EdgeSegment<String>],
        favicons: &[EdgeSegment<u64>],
        fps: &SourceFingerprints,
        ner: &NerResult,
        favicon: &FaviconInference,
    ) -> Self {
        SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            slots: interner
                .slots()
                .map(|(asn, live)| SlotRecord {
                    asn: asn.value(),
                    live,
                })
                .collect(),
            oid_w: segment_records(oid_w),
            oid_p: segment_records(oid_p),
            na: segment_records(na),
            rr: segment_records(rr),
            favicons: segment_records(favicons),
            whois_org_fps: key_fps(&fps.whois_org),
            whois_aut_fps: fps
                .whois_aut
                .iter()
                .map(|(asn, &fp)| KeyFp {
                    key: asn.value().to_string(),
                    fp,
                })
                .collect(),
            pdb_org_fps: key_fps(&fps.pdb_org),
            pdb_net_fps: fps
                .pdb_net
                .iter()
                .map(|(asn, &fp)| KeyFp {
                    key: asn.value().to_string(),
                    fp,
                })
                .collect(),
            site_fps: fps
                .site
                .iter()
                .map(|(asn, &fp)| KeyFp {
                    key: asn.value().to_string(),
                    fp,
                })
                .collect(),
            ner_memo: ner
                .memo
                .iter()
                .map(|(asn, entry)| NerMemoRecord {
                    asn: asn.value(),
                    fp: entry.fp,
                    findings: entry.findings.iter().map(|a| a.value()).collect(),
                })
                .collect(),
            favicon_memo: favicon
                .memo
                .iter()
                .map(|(hash, memo)| FaviconMemoRecord {
                    favicon: hash.raw(),
                    fp: memo.fp,
                    named: memo.named.clone(),
                })
                .collect(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot states always serialize")
    }

    /// Parses and validates a persisted state: the schema tag must match
    /// and every stringified numeric key must parse back.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let state: SnapshotState =
            serde_json::from_str(text).map_err(|e| format!("malformed snapshot state: {e}"))?;
        state.validate()?;
        Ok(state)
    }

    /// The structural invariants every persisted state must satisfy
    /// before any typed accessor is trusted: the schema tag matches and
    /// every stringified numeric key parses back. Shared between
    /// [`SnapshotState::from_json`] and the binary store's decoder, so
    /// both load paths reject exactly the same malformed states.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SNAPSHOT_STATE_SCHEMA {
            return Err(format!(
                "snapshot state schema mismatch: found {:?}, expected {:?}",
                self.schema, SNAPSHOT_STATE_SCHEMA
            ));
        }
        let numeric = |records: &[SegmentRecord], what: &str| -> Result<(), String> {
            for rec in records {
                rec.key
                    .parse::<u64>()
                    .map_err(|_| format!("non-numeric {what} segment key {:?}", rec.key))?;
            }
            Ok(())
        };
        numeric(&self.oid_p, "oid_p")?;
        numeric(&self.na, "na")?;
        numeric(&self.favicons, "favicons")?;
        for fps in [
            &self.whois_aut_fps,
            &self.pdb_org_fps,
            &self.pdb_net_fps,
            &self.site_fps,
        ] {
            for rec in fps {
                rec.key
                    .parse::<u64>()
                    .map_err(|_| format!("non-numeric fingerprint key {:?}", rec.key))?;
            }
        }
        Ok(())
    }

    /// The interner slots as typed pairs, in dense-id order.
    pub fn slot_pairs(&self) -> impl Iterator<Item = (Asn, bool)> + '_ {
        self.slots.iter().map(|s| (Asn::new(s.asn), s.live))
    }

    /// Prior OID_W segments, keyed.
    pub fn prior_oid_w(&self) -> BTreeMap<String, EdgeSegment<String>> {
        prior_map(&self.oid_w, |k| Some(k.to_string()))
    }

    /// Prior OID_P segments, keyed.
    pub fn prior_oid_p(&self) -> BTreeMap<u64, EdgeSegment<u64>> {
        prior_map(&self.oid_p, |k| k.parse().ok())
    }

    /// Prior notes/aka segments, keyed.
    pub fn prior_na(&self) -> BTreeMap<u32, EdgeSegment<u32>> {
        prior_map(&self.na, |k| k.parse().ok())
    }

    /// Prior R&R segments, keyed.
    pub fn prior_rr(&self) -> BTreeMap<String, EdgeSegment<String>> {
        prior_map(&self.rr, |k| Some(k.to_string()))
    }

    /// Prior favicon segments, keyed.
    pub fn prior_favicons(&self) -> BTreeMap<u64, EdgeSegment<u64>> {
        prior_map(&self.favicons, |k| k.parse().ok())
    }

    /// The stored source fingerprints, typed.
    pub fn fingerprints(&self) -> SourceFingerprints {
        SourceFingerprints {
            whois_org: fp_map(&self.whois_org_fps, |k| Some(WhoisOrgId::new(k))),
            whois_aut: fp_map(&self.whois_aut_fps, |k| k.parse().ok().map(Asn::new)),
            pdb_org: fp_map(&self.pdb_org_fps, |k| k.parse().ok()),
            pdb_net: fp_map(&self.pdb_net_fps, |k| k.parse().ok().map(Asn::new)),
            site: fp_map(&self.site_fps, |k| k.parse().ok().map(Asn::new)),
        }
    }

    /// The stored NER reply memo, typed.
    pub fn ner_memo_map(&self) -> BTreeMap<Asn, NerMemoEntry> {
        self.ner_memo
            .iter()
            .map(|rec| {
                (
                    Asn::new(rec.asn),
                    NerMemoEntry {
                        fp: rec.fp,
                        findings: rec.findings.iter().map(|&a| Asn::new(a)).collect(),
                    },
                )
            })
            .collect()
    }

    /// The stored favicon classifier memo, typed.
    pub fn favicon_memo_map(&self) -> BTreeMap<FaviconHash, FaviconMemo> {
        self.favicon_memo
            .iter()
            .map(|rec| {
                (
                    FaviconHash::from_raw(rec.favicon),
                    FaviconMemo {
                        fp: rec.fp,
                        named: rec.named.clone(),
                    },
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Fresh keyed groups (snapshot T+1 evidence, partitioned by source key)
// ---------------------------------------------------------------------

/// OID_W sibling groups keyed by WHOIS org handle, members ascending.
pub fn keyed_whois_groups(whois: &WhoisRegistry) -> Vec<(String, Vec<Vec<Asn>>)> {
    let mut by_org: BTreeMap<&str, Vec<Asn>> = BTreeMap::new();
    for aut in whois.aut_nums() {
        by_org.entry(aut.org.as_str()).or_default().push(aut.asn);
    }
    by_org
        .into_iter()
        .map(|(org, mut members)| {
            members.sort_unstable();
            (org.to_string(), vec![members])
        })
        .collect()
}

/// OID_P sibling groups keyed by PeeringDB org id, members ascending.
pub fn keyed_pdb_groups(pdb: &PdbSnapshot) -> Vec<(u64, Vec<Vec<Asn>>)> {
    let mut by_org: BTreeMap<u64, Vec<Asn>> = BTreeMap::new();
    for net in pdb.nets() {
        by_org.entry(net.org_id.value()).or_default().push(net.asn);
    }
    by_org
        .into_iter()
        .map(|(org, mut members)| {
            members.sort_unstable();
            (org, vec![members])
        })
        .collect()
}

/// notes/aka sibling groups keyed by subject ASN: each subject chains
/// itself to its extracted siblings (same connectivity and edge count
/// as the star the subject's extraction asserts).
pub fn keyed_ner_groups(ner: &NerResult) -> Vec<(u32, Vec<Vec<Asn>>)> {
    ner.per_entry
        .iter()
        .map(|(&subject, siblings)| {
            let mut members = Vec::with_capacity(siblings.len() + 1);
            members.push(subject);
            members.extend(siblings.iter().copied());
            (subject.value(), vec![members])
        })
        .collect()
}

/// R&R merging groups keyed by canonical final URL (singleton groups
/// carry no merge evidence and are skipped, mirroring
/// [`RrInference::merging_groups`]).
pub fn keyed_rr_groups(rr: &RrInference) -> Vec<(String, Vec<Vec<Asn>>)> {
    rr.groups
        .iter()
        .zip(&rr.final_urls)
        .filter(|(group, _)| group.len() > 1)
        .map(|(group, url)| (url.canonical(), vec![group.clone()]))
        .collect()
}

/// Favicon merge groups keyed by favicon hash. One favicon may derive
/// several groups (step-1 label groups plus a step-2 whole-group
/// merge), so the segment fingerprint covers the *partition*, not just
/// the member multiset.
pub fn keyed_favicon_groups(favicon: &FaviconInference) -> Vec<(u64, Vec<Vec<Asn>>)> {
    debug_assert_eq!(favicon.groups.len(), favicon.group_favicons.len());
    let mut by_favicon: BTreeMap<u64, Vec<Vec<Asn>>> = BTreeMap::new();
    for (group, hash) in favicon.groups.iter().zip(&favicon.group_favicons) {
        by_favicon
            .entry(hash.raw())
            .or_default()
            .push(group.clone());
    }
    by_favicon.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: u32) -> Asn {
        Asn::new(v)
    }

    #[test]
    fn fingerprinter_is_stable_and_framed() {
        let mut x = Fingerprinter::new();
        x.str("ab");
        x.str("c");
        let mut y = Fingerprinter::new();
        y.str("a");
        y.str("bc");
        assert_ne!(
            x.finish(),
            y.finish(),
            "framing must prevent concat collisions"
        );

        let mut z = Fingerprinter::new();
        z.str("ab");
        z.str("c");
        let mut w = Fingerprinter::new();
        w.str("ab");
        w.str("c");
        assert_eq!(z.finish(), w.finish());
    }

    #[test]
    fn source_delta_classifies_all_four_ways() {
        let old: BTreeMap<u32, u64> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
        let new: BTreeMap<u32, u64> = [(1, 10), (2, 99), (4, 40)].into_iter().collect();
        let d = SourceDelta::compute(&old, &new);
        assert_eq!(
            d,
            SourceDelta {
                unchanged: 1,
                added: 1,
                removed: 1,
                modified: 1,
            }
        );
        assert_eq!(d.dirty(), 3);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn group_fp_tracks_universe_membership() {
        let interner = AsnInterner::new([a(1), a(2)]);
        let wider = AsnInterner::new([a(1), a(2), a(3)]);
        let groups = vec![vec![a(1), a(2), a(3)]];
        assert_ne!(
            group_fp(&interner, &groups),
            group_fp(&wider, &groups),
            "an ASN entering the universe must dirty the segment"
        );
    }

    #[test]
    fn group_fp_encodes_the_partition() {
        let interner = AsnInterner::new([a(1), a(2)]);
        let merged = vec![vec![a(1), a(2)]];
        let split = vec![vec![a(1)], vec![a(2)]];
        assert_ne!(group_fp(&interner, &merged), group_fp(&interner, &split));
    }

    #[test]
    fn merge_feature_retains_and_rederives() {
        let interner = AsnInterner::new([a(1), a(2), a(3), a(4)]);
        let fresh = vec![
            ("keep".to_string(), vec![vec![a(1), a(2)]]),
            ("moved".to_string(), vec![vec![a(3), a(4)]]),
        ];
        let (full, _) = merge_feature(&interner, &BTreeMap::new(), fresh.clone());
        assert_eq!(full.len(), 2);

        // Second snapshot: "keep" unchanged, "moved" gains a member.
        let mut prior: BTreeMap<String, EdgeSegment<String>> =
            full.iter().map(|s| (s.key.clone(), s.clone())).collect();
        // Poison the prior edges of "keep" to prove retention reuses them.
        prior.get_mut("keep").unwrap().edges = vec![(0, 1)];
        let fresh2 = vec![
            ("keep".to_string(), vec![vec![a(1), a(2)]]),
            ("moved".to_string(), vec![vec![a(2), a(3), a(4)]]),
        ];
        let (merged, delta) = merge_feature(&interner, &prior, fresh2);
        assert_eq!(delta.segments_retained, 1);
        assert_eq!(delta.segments_rederived, 1);
        assert_eq!(delta.edges_retained, 1);
        assert_eq!(delta.edges_rederived, 2);
        assert_eq!(merged[0].edges, vec![(0, 1)], "retained verbatim");
        assert_eq!(merged[1].edges, vec![(1, 2), (2, 3)], "re-derived fresh");
    }

    #[test]
    fn state_json_roundtrip() {
        let interner = {
            let mut i = AsnInterner::new([a(10), a(20)]);
            i.retire(a(20));
            i.append(a(5));
            i
        };
        let oid_w = vec![EdgeSegment {
            key: "ORG-1".to_string(),
            fp: 42,
            edges: vec![(0, 2)],
        }];
        let mut fps = SourceFingerprints::default();
        fps.whois_org.insert(WhoisOrgId::new("ORG-1"), 7);
        fps.whois_aut.insert(a(10), 8);
        let mut ner = NerResult::default();
        ner.memo.insert(
            a(10),
            NerMemoEntry {
                fp: 3,
                findings: vec![a(5)],
            },
        );
        let mut favicon = FaviconInference::default();
        favicon.memo.insert(
            FaviconHash::from_raw(9),
            FaviconMemo {
                fp: 4,
                named: Some("Claro".to_string()),
            },
        );
        let state =
            SnapshotState::build(&interner, &oid_w, &[], &[], &[], &[], &fps, &ner, &favicon);
        let back = SnapshotState::from_json(&state.to_json_pretty()).unwrap();
        assert_eq!(back, state);
        let slots: Vec<(Asn, bool)> = back.slot_pairs().collect();
        assert_eq!(slots, vec![(a(10), true), (a(20), false), (a(5), true)]);
        assert_eq!(back.prior_oid_w()["ORG-1"].edges, vec![(0, 2)]);
        assert_eq!(back.fingerprints(), fps);
        assert_eq!(back.ner_memo_map()[&a(10)].findings, vec![a(5)]);
        assert_eq!(
            back.favicon_memo_map()[&FaviconHash::from_raw(9)].named,
            Some("Claro".to_string())
        );
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_bad_keys() {
        let bogus = SnapshotState {
            schema: "bogus".to_string(),
            ..SnapshotState::default()
        };
        let err = SnapshotState::from_json(&bogus.to_json_pretty()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        let err = SnapshotState::from_json("{not json").unwrap_err();
        assert!(err.contains("malformed"), "{err}");

        let mut state = SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            ..SnapshotState::default()
        };
        state.oid_p.push(SegmentRecord {
            key: "not-a-number".to_string(),
            fp: 0,
            edges: vec![],
        });
        let err = SnapshotState::from_json(&state.to_json_pretty()).unwrap_err();
        assert!(err.contains("non-numeric"), "{err}");
    }
}
