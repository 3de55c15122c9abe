//! World artifacts: a [`CompiledWorld`] encoded into the sectioned
//! container and back, plus the file-level load/store/verify entry
//! points the CLI and server use.
//!
//! ## Payload layout (schema 3)
//!
//! Every section payload is a fixed sequence of records, in declaration
//! order of the Rust types below:
//!
//! ```text
//! meta          inner schema: str, epoch: u64
//! slots         [asn: u32, live: bool]
//! segments      oid_w, oid_p, na, rr, favicons — each [key: str, fp: u64,
//!               edges: [a: u32, b: u32]]
//! fingerprints  whois_org, pdb_org — each shared-key flag, then
//!               [fp: u64] (flag 1) or [key: str, fp: u64] (flag 0);
//!               whois_aut, pdb_net, site — each [key: str, fp: u64]
//! memos         ner: [asn: u32, fp: u64, findings: [u32]],
//!               favicon: [favicon: u64, fp: u64, named: option<str>]
//! serving       the ServingExtras fields: groups as [[u32]], NER rows,
//!               R&R groups (final URL as str), favicon groups, and the
//!               funnel counters (usize counters as varint u64)
//! ```
//!
//! A `u32` (ASN, dense id, finding) is an unsigned LEB128 varint of at
//! most 5 bytes, and a `usize` counter one of at most 10; a `u64`
//! (fingerprint, favicon hash, epoch, the `u64` stats counters) is 8
//! little-endian bytes, since uniformly spread hashes would only grow
//! as varints. `[T]` is a varint `u32` count followed by that many `T`;
//! `str` is a varint `u32` byte length followed by UTF-8; `bool` is one
//! byte, 0 or 1; an option is a tag byte, 0 or 1, followed by the value
//! when the tag is 1; a URL is its canonical string.
//!
//! The `whois_org` and `pdb_org` fingerprint lists are keyed by the
//! same org ids as the `oid_w` and `oid_p` segments. When a list's keys
//! equal its segments' keys, in order, the flag is 1 and the list is
//! written without its key column: a count, which must equal the
//! segment count, then the fingerprints. Otherwise the flag is 0 and
//! the list is written whole.
//!
//! ## Canonical encoding
//!
//! Encoding a decoded world reproduces the artifact byte for byte, so
//! the whole-file SHA-256 is a stable content address: `world_digest`
//! of a freshly compiled pipeline equals the digest of the artifact it
//! was loaded from, which is what lets `/healthz` prove which artifact
//! is live. The decoder keeps that true for *any* bytes it accepts, not
//! only for bytes this writer produced: the six sections must appear in
//! order with nothing after them, a section must end exactly where its
//! last record does, a varint must be in its shortest form, fit its
//! type and end inside its section, bool, option and shared-key flags
//! must be 0 or 1, a shared-key list must be as long as its segment
//! list, an explicit list must not repeat its segment keys (the shared
//! form is the canonical one), strings must be UTF-8, and a URL must
//! render back to its stored text. Every value the decoder accepts
//! therefore has exactly one encoding. A count is checked against the
//! bytes left before anything is allocated for it.

use crate::atomic::write_atomic;
use crate::error::StoreError;
use crate::format::{decode_container, encode_container, Container, Section};
use crate::sha256;
use borges_core::delta::{
    EdgeRecord, FaviconMemoRecord, KeyFp, NerMemoRecord, SegmentRecord, SlotRecord,
};
use borges_core::world::{FaviconGroupRecord, NerEntryRecord, RrGroupRecord};
use borges_core::{ner::NerStats, web::favicon::FaviconStats, web::rr::RrStats};
use borges_core::{CompiledWorld, ServingExtras, SnapshotState};
use borges_llm::chat::Usage;
use borges_resilience::ResilienceStats;
use borges_telemetry::CacheStats;
use borges_types::Url;
use borges_websim::ScrapeStats;
use std::path::Path;

/// The world payload schema this reader writes and understands.
pub const STORE_SCHEMA_VERSION: u32 = 3;

const SECTION_META: &str = "meta";
const SECTION_SLOTS: &str = "slots";
const SECTION_SEGMENTS: &str = "segments";
const SECTION_FINGERPRINTS: &str = "fingerprints";
const SECTION_MEMOS: &str = "memos";
const SECTION_SERVING: &str = "serving";

/// The sections of a world artifact, in the only order the decoder
/// accepts.
const SECTIONS: [&str; 6] = [
    SECTION_META,
    SECTION_SLOTS,
    SECTION_SEGMENTS,
    SECTION_FINGERPRINTS,
    SECTION_MEMOS,
    SECTION_SERVING,
];

/// A validated world fresh off disk (or off a byte slice), with the
/// provenance the server reports.
#[derive(Debug)]
pub struct LoadedWorld {
    /// The decoded, semantically validated world.
    pub world: CompiledWorld,
    /// Hex SHA-256 content address of the artifact bytes.
    pub digest: String,
    /// The artifact's world schema version.
    pub schema: u32,
}

/// What `store verify` prints: provenance and the section table,
/// without keeping the decoded world around.
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Hex SHA-256 content address.
    pub digest: String,
    /// Container layout version.
    pub format_version: u32,
    /// World payload schema version.
    pub schema_version: u32,
    /// Timeline epoch recorded in the meta section (`0` if the world
    /// was never published to a timeline).
    pub epoch: u64,
    /// `(name, payload bytes)` per section, in file order.
    pub sections: Vec<(String, u64)>,
    /// Total artifact size in bytes.
    pub total_len: u64,
}

/// Bounds-checked reader over one section's payload. Every failure is
/// a [`StoreError::Decode`] naming the section.
struct Reader<'a> {
    section: &'static str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn fail(&self, detail: String) -> StoreError {
        StoreError::Decode {
            section: self.section.to_string(),
            detail: format!("at payload offset {}: {detail}", self.pos),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.fail(format!(
                "need {n} bytes, {} left in the section",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A 0/1 byte: a bool, an option tag or a shared-key flag. Any
    /// other value has no canonical meaning and is refused.
    fn flag(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => {
                self.pos -= 1;
                Err(self.fail(format!("{what} byte is {other}, not 0 or 1")))
            }
        }
    }

    /// An unsigned LEB128 varint of at most `bits` bits, refused unless
    /// it is the value's shortest encoding and ends inside the section.
    fn varint(&mut self, bits: u32) -> Result<u64, StoreError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                self.pos = start;
                return Err(self.fail("varint runs past the end of the section".into()));
            };
            self.pos += 1;
            let low = u64::from(byte & 0x7F);
            if shift >= bits || (shift + 7 > bits && low >> (bits - shift) != 0) {
                self.pos = start;
                return Err(self.fail(format!("varint overflows u{bits}")));
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    self.pos = start;
                    return Err(self.fail("varint is non-minimal (a trailing zero byte)".into()));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A varint record count, refused when even the smallest records
    /// (`min_len` bytes each) could not fit in what is left — so a
    /// length prefix never sizes an allocation on its own say-so.
    fn count(&mut self, min_len: usize) -> Result<usize, StoreError> {
        let start = self.pos;
        let n = u32::get(self)? as usize;
        let left = self.remaining();
        if n.saturating_mul(min_len) > left {
            self.pos = start;
            return Err(self.fail(format!(
                "count {n} of records at least {min_len} bytes each exceeds the \
                 {left} bytes left"
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.fail(format!(
                "{} trailing bytes after the last record",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// One value's layout inside a section payload.
trait Record: Sized {
    /// The fewest bytes one encoded value occupies; bounds a count
    /// before allocating for it.
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

/// Writes `value` as an unsigned LEB128 varint, low 7 bits first.
fn put_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

impl Record for u32 {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(u64::from(*self), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        // `varint(32)` refuses anything at or above 2^32.
        Ok(r.varint(u32::BITS)? as u32)
    }
}

impl Record for u64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(u64::from_le_bytes(r.array()?))
    }
}

/// Stats counters are `usize` in memory and a varint `u64` on disk, so
/// the artifact does not depend on the writer's pointer width.
impl Record for usize {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(*self as u64, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let value = r.varint(u64::BITS)?;
        usize::try_from(value).map_err(|_| r.fail(format!("counter {value} overflows usize")))
    }
}

impl Record for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.flag("bool")
    }
}

impl Record for String {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let len = r.count(1)?;
        let start = r.pos;
        let text = std::str::from_utf8(r.take(len)?).map_err(|err| {
            r.pos = start;
            r.fail(format!("string is not UTF-8: {err}"))
        })?;
        Ok(text.to_string())
    }
}

/// A URL is stored as its canonical string and must parse back to a
/// URL with exactly that rendering.
impl Record for Url {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.canonical().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let start = r.pos;
        let text = String::get(r)?;
        match text.parse::<Url>() {
            Ok(url) if url.canonical() == text => Ok(url),
            _ => {
                r.pos = start;
                Err(r.fail(format!("{text:?} is not a canonical URL")))
            }
        }
    }
}

impl<T: Record> Record for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        if r.flag("option tag")? {
            Ok(Some(T::get(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Record> Record for Vec<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.count(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// Writes a collection length as the format's varint `u32` count.
fn put_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len)
        .expect("a world section holds fewer than 2^32 records of any one kind")
        .put(out);
}

/// Whether a fingerprint list is keyed exactly by its segments' keys,
/// in order — the case its shared-key form covers.
fn keys_shared(fps: &[KeyFp], segments: &[SegmentRecord]) -> bool {
    fps.len() == segments.len() && fps.iter().zip(segments).all(|(f, s)| f.key == s.key)
}

/// Writes a fingerprint list behind its shared-key flag: without the
/// key column when [`keys_shared`] holds, whole otherwise.
fn put_fps(fps: &[KeyFp], segments: &[SegmentRecord], out: &mut Vec<u8>) {
    let shared = keys_shared(fps, segments);
    shared.put(out);
    put_len(fps.len(), out);
    for f in fps {
        if shared {
            f.fp.put(out);
        } else {
            f.put(out);
        }
    }
}

/// Reads what [`put_fps`] wrote for a list keyed like `segments` (the
/// `feature` segments), refusing both forms wherever the other one is
/// the canonical encoding.
fn get_fps(
    r: &mut Reader<'_>,
    segments: &[SegmentRecord],
    feature: &str,
) -> Result<Vec<KeyFp>, StoreError> {
    let start = r.pos;
    if r.flag("shared-key flag")? {
        // The count must equal the segment count, which already bounds
        // the allocation below.
        let count_at = r.pos;
        let n = u32::get(r)? as usize;
        if n != segments.len() {
            r.pos = count_at;
            return Err(r.fail(format!(
                "shared-key list holds {n} fingerprints, but there are {} {feature} segments",
                segments.len()
            )));
        }
        segments
            .iter()
            .map(|s| {
                Ok(KeyFp {
                    key: s.key.clone(),
                    fp: u64::get(r)?,
                })
            })
            .collect()
    } else {
        let fps = Vec::get(r)?;
        if keys_shared(&fps, segments) {
            r.pos = start;
            return Err(r.fail(format!(
                "explicit keys equal the {feature} segment keys; the shared-key form is canonical"
            )));
        }
        Ok(fps)
    }
}

/// Implements [`Record`] for a struct as its fields in the order
/// listed. Naming every field of the struct is enforced by the struct
/// literal in `get`, so a field added to the type cannot silently drop
/// out of the format.
macro_rules! record {
    ($ty:ty { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl Record for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as Record>::MIN_LEN)+;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                Ok(Self { $($field: <$fty as Record>::get(r)?,)+ })
            }
        }
    };
}

record!(SlotRecord {
    asn: u32,
    live: bool
});
record!(EdgeRecord { a: u32, b: u32 });
record!(SegmentRecord {
    key: String,
    fp: u64,
    edges: Vec<EdgeRecord>,
});
record!(KeyFp {
    key: String,
    fp: u64
});
record!(NerMemoRecord {
    asn: u32,
    fp: u64,
    findings: Vec<u32>,
});
record!(FaviconMemoRecord {
    favicon: u64,
    fp: u64,
    named: Option<String>,
});
record!(NerEntryRecord {
    asn: u32,
    siblings: Vec<u32>,
});
record!(RrGroupRecord {
    final_url: Url,
    members: Vec<u32>,
});
record!(FaviconGroupRecord {
    favicon: u64,
    members: Vec<u32>,
});
record!(Usage {
    prompt_tokens: u64,
    completion_tokens: u64,
});
record!(ResilienceStats {
    calls: u64,
    attempts: u64,
    recovered: u64,
    abandoned: u64,
    breaker_trips: u64,
    breaker_fast_fails: u64,
});
record!(ScrapeStats {
    entries_with_website: usize,
    entries_with_invalid_url: usize,
    entries_abandoned: usize,
    unique_urls: usize,
    reachable_urls: usize,
    unique_final_urls: usize,
    final_urls_with_favicon: usize,
    unique_favicons: usize,
    resilience: ResilienceStats,
});
record!(NerStats {
    entries_total: usize,
    entries_with_text: usize,
    entries_numeric: usize,
    numeric_in_aka: usize,
    numeric_in_notes: usize,
    llm_calls: usize,
    llm_abandoned: usize,
    filtered_out: usize,
    entries_with_siblings: usize,
    extracted_asns: usize,
    usage: Usage,
    resilience: ResilienceStats,
});
record!(RrStats {
    networks_with_final_url: usize,
    blocked_networks: usize,
    distinct_final_urls: usize,
    shared_final_urls: usize,
});
record!(FaviconStats {
    favicons_total: usize,
    favicons_shared: usize,
    urls_in_shared: usize,
    same_label_groups: usize,
    merged_by_step1: usize,
    llm_calls: usize,
    llm_abandoned: usize,
    merged_by_llm: usize,
    framework_rejections: usize,
    dont_know: usize,
    usage: Usage,
    resilience: ResilienceStats,
});
record!(CacheStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: u64,
});
record!(ServingExtras {
    oid_w_groups: Vec<Vec<u32>>,
    oid_p_groups: Vec<Vec<u32>>,
    ner_entries: Vec<NerEntryRecord>,
    ner_stats: NerStats,
    rr_groups: Vec<RrGroupRecord>,
    rr_stats: RrStats,
    favicon_groups: Vec<FaviconGroupRecord>,
    favicon_stats: FaviconStats,
    scrape_stats: ScrapeStats,
    web_cache: CacheStats,
});

fn section(name: &str, fill: impl FnOnce(&mut Vec<u8>)) -> Section {
    let mut payload = Vec::new();
    fill(&mut payload);
    Section {
        name: name.to_string(),
        payload,
    }
}

/// Serializes a world into complete artifact bytes.
pub fn encode_world(world: &CompiledWorld) -> Vec<u8> {
    let state = &world.state;
    let sections = [
        section(SECTION_META, |out| {
            state.schema.put(out);
            world.epoch.put(out);
        }),
        section(SECTION_SLOTS, |out| state.slots.put(out)),
        section(SECTION_SEGMENTS, |out| {
            for segments in [
                &state.oid_w,
                &state.oid_p,
                &state.na,
                &state.rr,
                &state.favicons,
            ] {
                segments.put(out);
            }
        }),
        section(SECTION_FINGERPRINTS, |out| {
            put_fps(&state.whois_org_fps, &state.oid_w, out);
            state.whois_aut_fps.put(out);
            put_fps(&state.pdb_org_fps, &state.oid_p, out);
            state.pdb_net_fps.put(out);
            state.site_fps.put(out);
        }),
        section(SECTION_MEMOS, |out| {
            state.ner_memo.put(out);
            state.favicon_memo.put(out);
        }),
        section(SECTION_SERVING, |out| world.extras.put(out)),
    ];
    encode_container(STORE_SCHEMA_VERSION, &sections)
}

/// Hex content address of bytes [`encode_world`] produced, read from
/// their footer rather than recomputed.
pub fn encoded_digest(bytes: &[u8]) -> String {
    // The footer's last 32 bytes are exactly the digest of the rest.
    sha256::hex(&bytes[bytes.len() - 32..])
}

/// Hex SHA-256 content address a world *would* have on disk. For a
/// world loaded via [`load_artifact`] this equals the source file's
/// digest, because the encoding is canonical.
pub fn world_digest(world: &CompiledWorld) -> String {
    encoded_digest(&encode_world(world))
}

/// Decodes and semantically validates the world inside an already
/// integrity-checked container.
fn world_from_container(container: &Container) -> Result<CompiledWorld, StoreError> {
    for (index, found) in container.sections.iter().enumerate() {
        if SECTIONS.get(index) != Some(&found.name.as_str()) {
            return Err(StoreError::Decode {
                section: found.name.clone(),
                detail: format!("unexpected section at position {index}"),
            });
        }
    }
    let mut payloads = container.sections.iter().map(|s| s.payload.as_slice());
    let mut read = |section: &'static str| -> Result<Reader<'_>, StoreError> {
        let bytes = payloads.next().ok_or_else(|| StoreError::Decode {
            section: section.to_string(),
            detail: "section absent".into(),
        })?;
        Ok(Reader {
            section,
            bytes,
            pos: 0,
        })
    };

    let mut r = read(SECTION_META)?;
    let schema = String::get(&mut r)?;
    let epoch = u64::get(&mut r)?;
    r.finish()?;

    let mut r = read(SECTION_SLOTS)?;
    let slots = Vec::get(&mut r)?;
    r.finish()?;

    let mut r = read(SECTION_SEGMENTS)?;
    let oid_w = Vec::get(&mut r)?;
    let oid_p = Vec::get(&mut r)?;
    let na = Vec::get(&mut r)?;
    let rr = Vec::get(&mut r)?;
    let favicons = Vec::get(&mut r)?;
    r.finish()?;

    let mut r = read(SECTION_FINGERPRINTS)?;
    let whois_org_fps = get_fps(&mut r, &oid_w, "oid_w")?;
    let whois_aut_fps = Vec::get(&mut r)?;
    let pdb_org_fps = get_fps(&mut r, &oid_p, "oid_p")?;
    let pdb_net_fps = Vec::get(&mut r)?;
    let site_fps = Vec::get(&mut r)?;
    r.finish()?;

    let mut r = read(SECTION_MEMOS)?;
    let ner_memo = Vec::get(&mut r)?;
    let favicon_memo = Vec::get(&mut r)?;
    r.finish()?;

    let mut r = read(SECTION_SERVING)?;
    let extras = ServingExtras::get(&mut r)?;
    r.finish()?;

    let world = CompiledWorld {
        epoch,
        state: SnapshotState {
            schema,
            slots,
            oid_w,
            oid_p,
            na,
            rr,
            favicons,
            whois_org_fps,
            whois_aut_fps,
            pdb_org_fps,
            pdb_net_fps,
            site_fps,
            ner_memo,
            favicon_memo,
        },
        extras,
        digest: Some(sha256::hex(&container.digest)),
    };
    // Checksums prove the bytes are the ones written; validation proves
    // the written world was sane (inner schema tag, unique interner
    // slots, edges inside the universe). A failure here means the
    // *writer* was broken, not the disk — still a typed refusal, never
    // a panic downstream.
    world.validate().map_err(|detail| StoreError::Decode {
        section: "world".into(),
        detail,
    })?;
    Ok(world)
}

/// Parses, integrity-checks, and semantically validates artifact
/// bytes. Never panics: every malformed input maps to a typed
/// [`StoreError`]. The decoded world carries the digest it was
/// verified against ([`CompiledWorld::digest`]).
pub fn decode_world(bytes: &[u8]) -> Result<LoadedWorld, StoreError> {
    let container = decode_container(bytes, STORE_SCHEMA_VERSION)?;
    Ok(LoadedWorld {
        world: world_from_container(&container)?,
        digest: sha256::hex(&container.digest),
        schema: container.schema_version,
    })
}

/// Reads and fully validates the artifact at `path`.
pub fn load_artifact(path: &Path) -> Result<LoadedWorld, StoreError> {
    let bytes = std::fs::read(path).map_err(|err| StoreError::from_io(path, err))?;
    decode_world(&bytes)
}

/// Encodes `world` and crash-safely writes it to `path`. Returns the
/// artifact's hex content digest.
pub fn write_artifact(path: &Path, world: &CompiledWorld) -> Result<String, StoreError> {
    let bytes = encode_world(world);
    write_atomic(path, &bytes).map_err(|err| StoreError::from_io(path, err))?;
    Ok(encoded_digest(&bytes))
}

/// Integrity-checks the artifact at `path` without requiring the world
/// to be loadable into this process: structural validation, checksums,
/// digest, and full decode — exactly what the loader would trust.
pub fn verify_artifact(path: &Path) -> Result<ArtifactInfo, StoreError> {
    let bytes = std::fs::read(path).map_err(|err| StoreError::from_io(path, err))?;
    verify_bytes(&bytes)
}

/// [`verify_artifact`] over bytes already in memory, so a caller that
/// keeps them (`catalog_add`) acts on exactly the bytes verified.
pub(crate) fn verify_bytes(bytes: &[u8]) -> Result<ArtifactInfo, StoreError> {
    let container = decode_container(bytes, STORE_SCHEMA_VERSION)?;
    // The semantic decode too, so `store verify` catches a
    // well-checksummed file whose payload is nonsense.
    let world = world_from_container(&container)?;
    Ok(ArtifactInfo {
        digest: sha256::hex(&container.digest),
        format_version: container.format_version,
        schema_version: container.schema_version,
        epoch: world.epoch,
        sections: container
            .sections
            .iter()
            .map(|s| (s.name.clone(), s.payload.len() as u64))
            .collect(),
        total_len: bytes.len() as u64,
    })
}
