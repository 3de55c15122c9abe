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
//!   artifact's *content address* in a timeline's `worlds/`.
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
