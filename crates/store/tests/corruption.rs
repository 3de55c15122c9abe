//! The corruption matrix: every way to damage an artifact, pinned to
//! its typed [`StoreError`] class.
//!
//! The invariant under test is the loader's contract — *never panic,
//! always classify*: any truncation, any single bit flip, any byte
//! smash anywhere in the file must surface as an `Err` whose kind is
//! determined by the damaged region, never as a decoded-but-wrong
//! world and never as a panic.

use borges_core::delta::{
    FaviconMemoRecord, KeyFp, SegmentRecord, SlotRecord, SNAPSHOT_STATE_SCHEMA,
};
use borges_core::pipeline::Borges;
use borges_core::world::RrGroupRecord;
use borges_core::{CompiledWorld, SnapshotState};
use borges_llm::SimLlm;
use borges_store::format::{decode_container, encode_container};
use borges_store::{
    decode_world, element_offsets, encode_world, load_artifact, verify_artifact, Corruptor,
    StoreError, FORMAT_VERSION, STORE_SCHEMA_VERSION,
};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_websim::SimWebClient;
use proptest::prelude::*;
use std::sync::OnceLock;

const SECTIONS: [&str; 6] = [
    "meta",
    "slots",
    "segments",
    "fingerprints",
    "memos",
    "serving",
];

fn artifact_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(271828));
        let llm = SimLlm::new(271828);
        let borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        encode_world(&borges.to_world())
    })
}

/// Region map of the artifact: which error class a flip at `offset`
/// must produce.
fn expected_flip_kinds(bytes: &[u8], offset: usize) -> Vec<&'static str> {
    let offsets = element_offsets(bytes);
    let footer_magic_start = offsets[offsets.len() - 2];
    let digest_start = offsets[offsets.len() - 1];
    if offset < 8 {
        return vec!["bad_magic"];
    }
    if offset < 24 {
        // Any header flip breaks the header CRC; a flip *in* the CRC
        // field itself also reads as header corruption.
        return vec!["header_corrupt"];
    }
    if offset >= digest_start {
        return vec!["digest_mismatch"];
    }
    if offset >= footer_magic_start {
        return vec!["footer_missing"];
    }
    // Inside the section table. A flip in a payload is a section
    // checksum failure; a flip in a length prefix or name or stored
    // CRC can masquerade as truncation (lengths now point past EOF or
    // carve the file differently), a checksum failure, a missing
    // section (renamed), or a footer that is no longer where the new
    // carving expects it.
    vec![
        "section_checksum",
        "truncated",
        "decode",
        "footer_missing",
        "digest_mismatch",
    ]
}

#[test]
fn truncation_at_every_element_boundary_is_typed() {
    let bytes = artifact_bytes();
    for &offset in &element_offsets(bytes) {
        if offset == bytes.len() {
            continue;
        }
        let err = decode_world(&bytes[..offset]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::FooterMissing
            ),
            "cut at {offset}: {err:?}"
        );
    }
}

#[test]
fn every_single_byte_truncation_fails_closed() {
    // Not just section boundaries: cutting the file after any prefix
    // length must fail with a typed error. Sweep a seeded sample plus
    // the full sub-header range (cheap and exhaustive where it is most
    // structural).
    let bytes = artifact_bytes();
    for cut in 0..24.min(bytes.len()) {
        assert!(decode_world(&bytes[..cut]).is_err(), "cut {cut}");
    }
    let mut corruptor = Corruptor::new(31337);
    for _ in 0..512 {
        let cut = corruptor.below(bytes.len());
        assert!(decode_world(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn seeded_bit_flip_sweep_maps_to_region_classes() {
    let bytes = artifact_bytes();
    let mut corruptor = Corruptor::new(4242);
    for round in 0..512 {
        let mut damaged = bytes.to_vec();
        let (offset, bit) = corruptor.flip_bit(&mut damaged);
        let err = decode_world(&damaged).expect_err(&format!(
            "round {round}: flip {offset}:{bit} went undetected"
        ));
        let allowed = expected_flip_kinds(bytes, offset);
        assert!(
            allowed.contains(&err.kind()),
            "round {round}: flip at {offset}:{bit} gave {:?} ({}), expected one of {allowed:?}",
            err,
            err.kind()
        );
    }
}

#[test]
fn schema_and_format_version_skew_is_schema_mismatch() {
    let bytes = artifact_bytes();
    // Rewrite the versions and re-stamp the header CRC so the header
    // is self-consistent — the skew must then be caught as a version
    // check, not a checksum failure.
    let restamped = |field_offset: usize, value: u32| -> Vec<u8> {
        let mut doctored = bytes.to_vec();
        doctored[field_offset..field_offset + 4].copy_from_slice(&value.to_le_bytes());
        let crc = borges_store::crc32::crc32(&doctored[..20]);
        doctored[20..24].copy_from_slice(&crc.to_le_bytes());
        doctored
    };
    let restamp = |field_offset: usize, value: u32| -> StoreError {
        decode_world(&restamped(field_offset, value)).unwrap_err()
    };
    match restamp(8, FORMAT_VERSION + 1) {
        StoreError::SchemaMismatch { found, expected } => {
            assert_eq!((found, expected), (FORMAT_VERSION + 1, FORMAT_VERSION));
        }
        other => panic!("format skew gave {other:?}"),
    }
    // The schema every artifact before this one was written in: the
    // loader and `store verify` both refuse it before reading a payload.
    let previous = STORE_SCHEMA_VERSION - 1;
    match restamp(12, previous) {
        StoreError::SchemaMismatch { found, expected } => {
            assert_eq!((found, expected), (previous, STORE_SCHEMA_VERSION));
        }
        other => panic!("previous schema gave {other:?}"),
    }
    let dir = std::env::temp_dir().join(format!("borges-store-skew-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("previous.world");
    std::fs::write(&path, restamped(12, previous)).unwrap();
    let verified = verify_artifact(&path).map(|_| ()).unwrap_err();
    let loaded = load_artifact(&path).map(|_| ()).unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(verified.kind(), "schema_mismatch", "{verified}");
    assert_eq!(loaded.kind(), "schema_mismatch", "{loaded}");
    match restamp(12, STORE_SCHEMA_VERSION + 7) {
        StoreError::SchemaMismatch { found, expected } => {
            assert_eq!(
                (found, expected),
                (STORE_SCHEMA_VERSION + 7, STORE_SCHEMA_VERSION)
            );
        }
        other => panic!("schema skew gave {other:?}"),
    }
}

/// Re-frames `bytes` with `edit` applied to one section's payload.
/// Checksums and the footer are computed fresh, so only the payload
/// decoder stands between the edit and a loaded world — the position
/// of a broken writer or a crafted file.
fn reframed(bytes: &[u8], section: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut container = decode_container(bytes, STORE_SCHEMA_VERSION).unwrap();
    let target = container
        .sections
        .iter_mut()
        .find(|s| s.name == section)
        .unwrap();
    edit(&mut target.payload);
    encode_container(STORE_SCHEMA_VERSION, &container.sections)
}

/// A two-slot world whose payload offsets are known by construction.
/// Every count, length and ASN below is a one-byte varint, so:
/// - slots `[2, 10, 1, 20, 1]` put the first ASN at offset 1 and its
///   `live` byte at 2;
/// - the favicon memo's option tag is at memos offset 18, after two
///   counts and two u64s;
/// - the meta section starts with the inner schema's length byte;
/// - the serving section opens with three empty-list counts, so the
///   first NER counter is at offset 3;
/// - the segments section ends with the empty favicons list's count;
/// - in the fingerprints section, `whois_org` (keys ORG-A and ORG-B
///   against the one `oid_w` segment ORG-A) is written whole, with its
///   flag at 0 and then 2 × 14 bytes of records; `whois_aut` is the
///   empty list at 30; and `pdb_org` (key 7, the one `oid_p` segment's
///   key) is written shared, its flag at 31, its count at 32 and its
///   fingerprint at 33..41.
fn handmade_artifact() -> Vec<u8> {
    let segment = |key: &str| SegmentRecord {
        key: key.to_string(),
        fp: 3,
        edges: Vec::new(),
    };
    let key_fp = |key: &str, fp| KeyFp {
        key: key.to_string(),
        fp,
    };
    let mut world = CompiledWorld {
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
            oid_w: vec![segment("ORG-A")],
            oid_p: vec![segment("7")],
            whois_org_fps: vec![key_fp("ORG-A", 1), key_fp("ORG-B", 2)],
            pdb_org_fps: vec![key_fp("7", 4)],
            favicon_memo: vec![FaviconMemoRecord {
                favicon: 7,
                fp: 9,
                named: Some("acme".to_string()),
            }],
            ..SnapshotState::default()
        },
        ..CompiledWorld::default()
    };
    world.extras.rr_groups.push(RrGroupRecord {
        final_url: "https://www.example.com/".parse().unwrap(),
        members: vec![10, 20],
    });
    let bytes = encode_world(&world);
    assert_eq!(decode_world(&bytes).unwrap().world, world);
    bytes
}

/// The `(section, detail)` of the decode error `bytes` must produce.
fn decode_error(bytes: &[u8]) -> (String, String) {
    match decode_world(bytes) {
        Err(StoreError::Decode { section, detail }) => (section, detail),
        other => panic!("expected a decode error, got {other:?}"),
    }
}

/// A hand-cut payload edit.
type Edit = fn(&mut Vec<u8>);

#[test]
fn malformed_payloads_behind_valid_checksums_are_decode_errors() {
    // Each case names the section it damages and a phrase of the check
    // that must catch it, so a later, coarser check (a short read after
    // an unchecked count) cannot stand in for the one under test.
    let bytes = handmade_artifact();
    let cases: [(&str, &str, &str, Edit); 14] = [
        ("count larger than the payload", "slots", "exceeds", |p| {
            p.splice(0..1, [0xE8, 0x07]); // 1000
        }),
        ("bool of 2", "slots", "bool byte is 2", |p| p[2] = 2),
        ("option tag of 2", "memos", "option tag byte is 2", |p| {
            p[18] = 2
        }),
        ("invalid UTF-8", "meta", "not UTF-8", |p| p[1] = 0xFF),
        ("non-canonical URL", "serving", "not a canonical URL", |p| {
            let at = p
                .windows(8)
                .position(|w| w == b"https://")
                .expect("the URL is in the serving payload");
            p[at..at + 8].copy_from_slice(b"HTTPS://");
        }),
        ("trailing byte", "meta", "trailing", |p| p.push(0)),
        ("non-minimal varint", "slots", "non-minimal", |p| {
            p.splice(1..2, [0x8A, 0x00]); // AS10 in two bytes
        }),
        ("varint past u32", "slots", "overflows u32", |p| {
            p.splice(1..2, [0xFF, 0xFF, 0xFF, 0xFF, 0x1F]); // 2^33 - 1
        }),
        (
            "varint past u32 in six bytes",
            "slots",
            "overflows u32",
            |p| {
                p.splice(1..2, [0x8A, 0x80, 0x80, 0x80, 0x80, 0x00]);
            },
        ),
        ("varint past u64", "serving", "overflows u64", |p| {
            p.splice(
                3..4,
                [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            );
        }),
        (
            "varint cut at the end of the section",
            "segments",
            "past the end",
            |p| {
                *p.last_mut().unwrap() = 0x80; // the favicons count, continued
            },
        ),
        (
            "bad shared-key flag",
            "fingerprints",
            "shared-key flag byte is 2",
            |p| p[0] = 2,
        ),
        (
            "shared-key flag over mismatched key lists",
            "fingerprints",
            "shared-key list holds 2 fingerprints, but there are 1 oid_w segments",
            |p| p[0] = 1,
        ),
        (
            "explicit keys equal to the segment keys",
            "fingerprints",
            "explicit keys equal the oid_p segment keys",
            |p| {
                p.splice(31..33, [0, 1, 1, b'7']);
            },
        ),
    ];
    for (case, section, check, edit) in cases {
        let (got_section, detail) = decode_error(&reframed(&bytes, section, edit));
        assert_eq!(got_section, section, "{case}: {detail}");
        assert!(detail.contains(check), "{case}: {detail}");
    }
}

#[test]
fn sections_out_of_order_or_extra_are_decode_errors() {
    let bytes = artifact_bytes();
    let container = decode_container(bytes, STORE_SCHEMA_VERSION).unwrap();
    let mut swapped = container.sections.clone();
    swapped.swap(1, 2);
    let swapped = encode_container(STORE_SCHEMA_VERSION, &swapped);
    assert_eq!(decode_error(&swapped).0, "segments");
    let mut extra = container.sections.clone();
    extra.push(extra[0].clone());
    let extra = encode_container(STORE_SCHEMA_VERSION, &extra);
    assert_eq!(decode_error(&extra).0, "meta");
    let short = encode_container(STORE_SCHEMA_VERSION, &container.sections[..5]);
    assert_eq!(decode_error(&short).0, "serving");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_arbitrary_payload_behind_valid_checksums_never_panics(
        section in 0usize..6,
        splice in 0u8..2,
        offset in 0usize..1_000_000,
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Either replace the whole payload, or overwrite a run of it so
        // the records before the damage still parse and the decoder is
        // reached deep inside the section.
        let bytes = artifact_bytes();
        let doctored = reframed(bytes, SECTIONS[section], |payload| {
            if splice == 0 || payload.is_empty() {
                *payload = garbage.clone();
            } else {
                let at = offset % payload.len();
                let end = (at + garbage.len()).min(payload.len());
                payload[at..end].copy_from_slice(&garbage[..end - at]);
            }
        });
        if let Ok(loaded) = decode_world(&doctored) {
            prop_assert_eq!(encode_world(&loaded.world), doctored);
        }
    }

    #[test]
    fn prop_truncation_never_panics_and_always_errs(cut in 0usize..1_000_000) {
        let bytes = artifact_bytes();
        let cut = cut % bytes.len();
        prop_assert!(decode_world(&bytes[..cut]).is_err());
    }

    #[test]
    fn prop_single_bit_flip_is_always_detected(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let bytes = artifact_bytes();
        let offset = offset % bytes.len();
        let mut damaged = bytes.to_vec();
        damaged[offset] ^= 1 << bit;
        let err = decode_world(&damaged)
            .expect_err(&format!("flip at {offset}:{bit} decoded successfully"));
        let allowed = expected_flip_kinds(bytes, offset);
        prop_assert!(
            allowed.contains(&err.kind()),
            "flip at {offset}:{bit} gave {} expected {allowed:?}",
            err.kind()
        );
    }

    #[test]
    fn prop_random_byte_smash_never_panics(seed in 0u64..u64::MAX, smashes in 1usize..64) {
        let bytes = artifact_bytes();
        let mut corruptor = Corruptor::new(seed);
        let mut damaged = bytes.to_vec();
        for _ in 0..smashes {
            corruptor.flip_byte(&mut damaged);
        }
        // Multiple random byte smashes: decoding must return (either
        // result is structurally possible only if flips cancel — the
        // corruptor guarantees each draw changes its byte, but two
        // draws may hit the same byte). The contract under test is
        // purely "no panic, and any Ok is byte-faithful".
        if let Ok(loaded) = decode_world(&damaged) {
            prop_assert_eq!(encode_world(&loaded.world), damaged);
        }
    }

    #[test]
    fn prop_arbitrary_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = decode_world(&garbage);
    }
}
