//! # borges-store
//!
//! Crash-safe persistence for compiled Borges worlds.
//!
//! `borges serve` used to recompile the world from raw bundle files on
//! every cold start, and `SnapshotState` persisted as unchecksummed
//! JSON that nothing validated beyond serde. This crate closes both
//! gaps with one artifact:
//!
//! - **Format** ([`format`]): a length-prefixed sectioned container —
//!   magic, versioned CRC32-guarded header, named CRC32-guarded
//!   sections, whole-file SHA-256 footer. The digest doubles as the
//!   artifact's *content address* in a catalog directory.
//! - **Write protocol** ([`atomic`]): sibling tmp → fsync → atomic
//!   rename → directory fsync. Every durable artifact the CLI writes
//!   (mapfiles, states, traces, reports — not just world stores) goes
//!   through [`write_atomic`], so a crash can never leave a truncated
//!   file under a real name.
//! - **Corruption taxonomy** ([`error`]): the loader validates before
//!   trusting and classifies every failure — truncation, bad magic,
//!   header corruption, schema mismatch, section checksum, digest
//!   mismatch, missing footer, torn rename, undecodable payload —
//!   into a typed [`StoreError`]. It never panics on arbitrary bytes,
//!   which is what lets `borges serve --store` degrade to a full
//!   bundle recompile with the degradation on the ledger instead of
//!   serving a damaged world or dying.
//! - **Payloads** ([`artifact`]): varint-packed records, read by a
//!   strict bounds-checked decoder that accepts only bytes it would
//!   itself have written.
//! - **Integrity kernels** ([`crc32`], [`sha256`]): slicing-by-8 CRC32
//!   and SHA-256 on the CPU's SHA extensions where it has them, each
//!   tested against its portable reference.
//! - **Determinism** ([`artifact`]): encoding is canonical, so
//!   [`world_digest`] of a loaded world equals the digest of the file
//!   it came from, and a world loaded from the store is byte-identical
//!   — mapfiles and HTTP responses — to the freshly compiled world
//!   that wrote it.
//! - **Seeded damage** ([`inject`]): a splitmix-seeded [`Corruptor`]
//!   (truncation, bit/byte flips, torn rename) in the style of
//!   `borges-resilience`'s `FaultInjector`, pinning the taxonomy in
//!   tests.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod atomic;
pub mod catalog;
pub mod crc32;
pub mod error;
pub mod format;
pub mod inject;
pub mod sha256;

pub use artifact::{
    decode_world, encode_world, encoded_digest, load_artifact, verify_artifact, world_digest,
    write_artifact, ArtifactInfo, LoadedWorld, STORE_SCHEMA_VERSION,
};
pub use atomic::{staging_path, write_atomic};
pub use catalog::{catalog_add, catalog_ls, catalog_path, CatalogEntry, ARTIFACT_EXT};
pub use error::StoreError;
pub use format::{element_offsets, FORMAT_VERSION};
pub use inject::{simulate_torn_rename, Corruptor};

#[cfg(test)]
mod tests {
    use super::*;
    use borges_core::pipeline::Borges;
    use borges_llm::SimLlm;
    use borges_synthnet::{GeneratorConfig, SyntheticInternet};
    use borges_websim::SimWebClient;
    use std::path::PathBuf;

    fn compiled() -> Borges {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(1729));
        let llm = SimLlm::new(1729);
        Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        )
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("borges-store-lib-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn world_round_trip_is_canonical() {
        let borges = compiled();
        let world = borges.to_world();
        let bytes = encode_world(&world);
        let loaded = decode_world(&bytes).unwrap();
        assert_eq!(loaded.schema, STORE_SCHEMA_VERSION);
        assert_eq!(loaded.world, world);
        // Canonical: encode ∘ decode ∘ encode is the identity on bytes,
        // so the digest is a stable content address.
        assert_eq!(encode_world(&loaded.world), bytes);
        assert_eq!(world_digest(&loaded.world), loaded.digest);
    }

    #[test]
    fn loaded_world_rebuilds_identical_pipeline() {
        let borges = compiled();
        let bytes = encode_world(&borges.to_world());
        let loaded = decode_world(&bytes).unwrap();
        for threads in [1usize, 4] {
            let rebuilt = Borges::from_world(&loaded.world, threads).unwrap();
            assert_eq!(
                rebuilt.snapshot_state(),
                borges.snapshot_state(),
                "threads={threads}"
            );
            assert_eq!(
                encode_world(&rebuilt.to_world()),
                bytes,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn file_round_trip_and_verify() {
        let dir = scratch("file");
        let path = dir.join("world.world");
        let borges = compiled();
        let world = borges.to_world();
        let digest = write_artifact(&path, &world).unwrap();
        let loaded = load_artifact(&path).unwrap();
        assert_eq!(loaded.digest, digest);
        assert_eq!(loaded.world, world);

        let info = verify_artifact(&path).unwrap();
        assert_eq!(info.digest, digest);
        assert_eq!(info.format_version, FORMAT_VERSION);
        assert_eq!(info.schema_version, STORE_SCHEMA_VERSION);
        let names: Vec<&str> = info.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "meta",
                "slots",
                "segments",
                "fingerprints",
                "memos",
                "serving"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_artifact_is_typed() {
        let dir = scratch("missing");
        let err = load_artifact(&dir.join("nope.world")).unwrap_err();
        assert_eq!(err.kind(), "missing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rename_is_missing_and_staging_is_ignored() {
        let dir = scratch("torn");
        let path = dir.join("world.world");
        let borges = compiled();
        let bytes = encode_world(&borges.to_world());
        let mut corruptor = Corruptor::new(99);
        let staging = simulate_torn_rename(&mut corruptor, &path, &bytes).unwrap();
        assert!(staging.exists());
        assert_eq!(load_artifact(&path).unwrap_err().kind(), "missing");
        // Recovery: a fresh crash-safe write lands cleanly next to the
        // stray staging file.
        write_artifact(&path, &borges.to_world()).unwrap();
        assert!(load_artifact(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_add_ls_round_trip() {
        let dir = scratch("catalog");
        let artifact = dir.join("out.world");
        let catalog = dir.join("catalog");
        let borges = compiled();
        let digest = write_artifact(&artifact, &borges.to_world()).unwrap();

        let added = catalog_add(&catalog, &artifact).unwrap();
        assert_eq!(added, digest);
        // Idempotent: same world, same address.
        assert_eq!(catalog_add(&catalog, &artifact).unwrap(), digest);

        let entries = catalog_ls(&catalog).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].addressed_correctly());
        assert_eq!(entries[0].file_name, format!("{digest}.world"));

        // A renamed (mis-addressed) but internally intact artifact is
        // flagged.
        let rogue = catalog.join(format!("{}.world", "0".repeat(64)));
        std::fs::copy(catalog_path(&catalog, &digest), &rogue).unwrap();
        let entries = catalog_ls(&catalog).unwrap();
        assert_eq!(entries.len(), 2);
        let flagged: Vec<bool> = entries.iter().map(|e| e.addressed_correctly()).collect();
        assert_eq!(flagged.iter().filter(|ok| **ok).count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_add_writes_exactly_the_bytes_it_verified() {
        let dir = scratch("catalog-bytes");
        let artifact = dir.join("out.world");
        let catalog = dir.join("catalog");
        let bytes = encode_world(&compiled().to_world());
        std::fs::write(&artifact, &bytes).unwrap();

        let digest = catalog_add(&catalog, &artifact).unwrap();
        let entry = catalog_path(&catalog, &digest);
        assert_eq!(std::fs::read(&entry).unwrap(), bytes);
        assert_eq!(verify_artifact(&entry).unwrap().digest, digest);

        // A damaged source is refused before anything is written: the
        // catalog directory is not even created.
        let mut damaged = bytes.clone();
        let middle = damaged.len() / 2;
        damaged[middle] ^= 0x01;
        std::fs::write(&artifact, &damaged).unwrap();
        let fresh = dir.join("fresh-catalog");
        assert!(catalog_add(&fresh, &artifact).is_err());
        assert!(!fresh.exists());
        assert!(catalog_add(&catalog, &artifact).is_err());
        assert_eq!(std::fs::read_dir(&catalog).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn semantic_nonsense_is_a_decode_error_not_a_panic() {
        use borges_core::delta::{EdgeRecord, SegmentRecord};
        let borges = compiled();
        let mut world = borges.to_world();
        // Checksums will be valid — the damage is semantic: an edge
        // pointing outside the universe.
        world.state.oid_w.push(SegmentRecord {
            key: "EVIL-ORG".into(),
            fp: 0,
            edges: vec![EdgeRecord { a: 0, b: u32::MAX }],
        });
        let bytes = encode_world(&world);
        let err = decode_world(&bytes).unwrap_err();
        assert_eq!(err.kind(), "decode");
    }
}
