//! # borges-timeline
//!
//! The time axis the paper's discussion (§7) asks for. A single
//! `.world` artifact is one dated snapshot of the AS-to-Organization
//! mapping; this crate chains snapshots into an append-only, verifiable
//! **timeline** so the motion between them — acquisitions, spinoffs,
//! rebrandings — becomes a first-class queryable object.
//!
//! ## Layout
//!
//! A timeline is a directory:
//!
//! ```text
//! timeline.json            append-only manifest (schema-tagged chain)
//! worlds/<digest>.world    content-addressed snapshots (store format)
//! deltas/<epoch>.delta     per-link assignment deltas (JSON)
//! ```
//!
//! Each manifest link records `{epoch, world_digest, parent_digest,
//! delta_digest}`. The genesis link has no parent and no delta; every
//! later link names its parent's content address, forming a hash chain:
//! relabel an epoch, swap a world file, or touch a delta and
//! [`Timeline::verify`] refuses with a typed [`TimelineError`].
//!
//! ## The composition invariant
//!
//! [`Timeline::diff`] does **not** load both endpoint worlds and
//! compare them; it loads `t1`, composes the per-link deltas up to
//! `t2`, and diffs against the reconstruction. Because
//! [`AsOrgMapping`](borges_core::mapping::AsOrgMapping) construction is
//! fully normalizing, the reconstruction is *equal* to the directly
//! materialized `t2` mapping — cluster ids included — so the composed
//! diff is byte-identical to a direct diff of the two worlds. Tests pin
//! this against [`Timeline::diff_direct`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod delta;
pub mod error;
pub mod lineage;

pub use delta::{assignments, mapping_from_assignments, AssignmentDelta, DeltaRow, DELTA_SCHEMA};
pub use error::TimelineError;
pub use lineage::{classify, render_diff_json, LineageStep, OrgLineage};

use borges_core::diff::{diff as mapping_diff, MappingDiff};
use borges_core::mapping::AsOrgMapping;
use borges_core::pipeline::Borges;
use borges_store::{
    encode_world, encoded_digest, load_artifact, sha256, verify_artifact, StoreError, ARTIFACT_EXT,
};
use borges_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema tag of the manifest this reader writes and accepts.
pub const TIMELINE_SCHEMA: &str = "borges.timeline.v1";

/// Manifest file name inside the timeline directory.
pub const MANIFEST_FILE: &str = "timeline.json";

const WORLDS_DIR: &str = "worlds";
const DELTAS_DIR: &str = "deltas";

/// One link of the chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineLink {
    /// Epoch number; contiguous from 0 by construction.
    pub epoch: u64,
    /// Content address of this epoch's world artifact.
    pub world_digest: String,
    /// Content address of the parent epoch's world (`None` at genesis).
    pub parent_digest: Option<String>,
    /// SHA-256 of this link's delta file (`None` at genesis).
    pub delta_digest: Option<String>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    schema: String,
    links: Vec<TimelineLink>,
}

/// What [`Timeline::verify`] certifies when it returns `Ok`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of chain links checked.
    pub links: usize,
    /// World artifacts that passed store-level verification.
    pub worlds_ok: usize,
    /// Delta files whose digest and shape checked out.
    pub deltas_ok: usize,
}

/// An open timeline directory.
#[derive(Debug)]
pub struct Timeline {
    dir: PathBuf,
    links: Vec<TimelineLink>,
}

impl Timeline {
    /// Opens the timeline at `dir` for appending. A directory that does
    /// not exist yet opens as an empty chain, and the first
    /// [`Timeline::append`] creates it; opening writes nothing. The
    /// manifest, if present, must parse, carry the known schema, and
    /// form a connected chain — a tampered manifest fails here, loudly.
    pub fn open(dir: &Path) -> Result<Timeline, TimelineError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let links = if manifest_path.exists() {
            let bytes = std::fs::read(&manifest_path)
                .map_err(|e| TimelineError::from_io(&manifest_path, e))?;
            let text = std::str::from_utf8(&bytes).map_err(|e| TimelineError::Corrupt {
                detail: format!("manifest is not utf-8: {e}"),
            })?;
            let manifest: Manifest =
                serde_json::from_str(text).map_err(|e| TimelineError::Corrupt {
                    detail: format!("unparseable manifest: {e}"),
                })?;
            if manifest.schema != TIMELINE_SCHEMA {
                return Err(TimelineError::SchemaMismatch {
                    found: manifest.schema,
                });
            }
            check_chain(&manifest.links)?;
            manifest.links
        } else {
            Vec::new()
        };
        Ok(Timeline {
            dir: dir.to_path_buf(),
            links,
        })
    }

    /// Opens the timeline at `dir` for reading: as [`Timeline::open`],
    /// except that a `dir` that is not a directory is
    /// [`TimelineError::Missing`], not an empty chain, so a mistyped
    /// path fails instead of reading as a timeline with no links.
    pub fn open_existing(dir: &Path) -> Result<Timeline, TimelineError> {
        if !dir.is_dir() {
            return Err(TimelineError::Missing {
                path: dir.display().to_string(),
            });
        }
        Timeline::open(dir)
    }

    /// The chain, oldest first.
    pub fn links(&self) -> &[TimelineLink] {
        &self.links
    }

    /// The newest link, if any.
    pub fn tip(&self) -> Option<&TimelineLink> {
        self.links.last()
    }

    /// Path of this epoch's world artifact inside the timeline.
    pub fn world_path(&self, link: &TimelineLink) -> PathBuf {
        self.dir
            .join(WORLDS_DIR)
            .join(format!("{}.{ARTIFACT_EXT}", link.world_digest))
    }

    fn delta_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(DELTAS_DIR).join(format!("{epoch}.delta"))
    }

    /// Appends the pipeline's current world as the next epoch: stamps
    /// the epoch into the world (so it participates in the content
    /// address), writes the artifact and the delta against the parent,
    /// then atomically rewrites the manifest. Returns the new link.
    pub fn append(&mut self, borges: &mut Borges) -> Result<TimelineLink, TimelineError> {
        let epoch = self.tip().map(|l| l.epoch + 1).unwrap_or(0);
        borges.set_world_epoch(epoch);
        let world = borges.to_world();

        let worlds_dir = self.dir.join(WORLDS_DIR);
        std::fs::create_dir_all(&worlds_dir).map_err(|e| TimelineError::from_io(&worlds_dir, e))?;
        let bytes = encode_world(&world);
        let digest = encoded_digest(&bytes);
        let world_path = worlds_dir.join(format!("{digest}.{ARTIFACT_EXT}"));
        borges_store::write_atomic(&world_path, &bytes)
            .map_err(|e| StoreError::from_io(&world_path, e))?;

        let parent = self.tip().cloned();
        let delta_digest = match &parent {
            None => None,
            Some(parent_link) => {
                let parent_mapping = self.mapping_of_link(parent_link)?;
                let child_mapping = borges.full();
                let delta = AssignmentDelta::between(&parent_mapping, &child_mapping);
                let bytes = delta.encode();
                let deltas_dir = self.dir.join(DELTAS_DIR);
                std::fs::create_dir_all(&deltas_dir)
                    .map_err(|e| TimelineError::from_io(&deltas_dir, e))?;
                let path = self.delta_path(epoch);
                borges_store::write_atomic(&path, &bytes)
                    .map_err(|e| TimelineError::from_io(&path, e))?;
                Some(sha256::hex(&sha256::sha256(&bytes)))
            }
        };

        let link = TimelineLink {
            epoch,
            world_digest: digest,
            parent_digest: parent.map(|p| p.world_digest),
            delta_digest,
        };
        self.links.push(link.clone());
        self.write_manifest()?;
        Ok(link)
    }

    fn write_manifest(&self) -> Result<(), TimelineError> {
        let manifest = Manifest {
            schema: TIMELINE_SCHEMA.to_string(),
            links: self.links.clone(),
        };
        let bytes = serde_json::to_string_pretty(&manifest)
            .expect("manifest serializes")
            .into_bytes();
        let path = self.dir.join(MANIFEST_FILE);
        borges_store::write_atomic(&path, &bytes).map_err(|e| TimelineError::from_io(&path, e))
    }

    /// Floor resolution: the newest link with `epoch <= at`. This is
    /// what `?at=` means — "the world as of time `at`".
    pub fn resolve_at(&self, at: u64) -> Result<&TimelineLink, TimelineError> {
        if self.links.is_empty() {
            return Err(TimelineError::Empty);
        }
        self.links
            .iter()
            .rev()
            .find(|l| l.epoch <= at)
            .ok_or(TimelineError::UnknownEpoch { at })
    }

    /// The link at exactly `epoch`.
    pub fn link_at(&self, epoch: u64) -> Result<&TimelineLink, TimelineError> {
        if self.links.is_empty() {
            return Err(TimelineError::Empty);
        }
        self.links
            .iter()
            .find(|l| l.epoch == epoch)
            .ok_or(TimelineError::UnknownEpoch { at: epoch })
    }

    /// Loads the world at exactly `epoch` back into a serving-ready
    /// pipeline. The loaded artifact must still match the chained
    /// content address and carry the chained epoch.
    pub fn load_epoch(&self, epoch: u64) -> Result<Borges, TimelineError> {
        let link = self.link_at(epoch)?.clone();
        let path = self.world_path(&link);
        if !path.exists() {
            return Err(TimelineError::MissingWorld {
                epoch: link.epoch,
                digest: link.world_digest,
            });
        }
        let loaded = load_artifact(&path).map_err(|e| world_error(&link, e))?;
        if loaded.digest != link.world_digest {
            return Err(TimelineError::TamperedWorld {
                epoch: link.epoch,
                digest: link.world_digest,
                detail: format!("artifact digest is {}", loaded.digest),
            });
        }
        if loaded.world.epoch != link.epoch {
            return Err(TimelineError::TamperedWorld {
                epoch: link.epoch,
                digest: link.world_digest,
                detail: format!("world carries epoch {}", loaded.world.epoch),
            });
        }
        Borges::from_world(&loaded.world, 1).map_err(|detail| TimelineError::TamperedWorld {
            epoch: link.epoch,
            digest: link.world_digest,
            detail,
        })
    }

    fn mapping_of_link(&self, link: &TimelineLink) -> Result<AsOrgMapping, TimelineError> {
        Ok(self.load_epoch(link.epoch)?.full())
    }

    /// Reads, digest-checks, and decodes one link's delta file.
    fn read_delta(&self, link: &TimelineLink) -> Result<AssignmentDelta, TimelineError> {
        let expected = link
            .delta_digest
            .as_ref()
            .ok_or(TimelineError::BrokenChain {
                epoch: link.epoch,
                detail: "non-genesis link has no delta digest".to_string(),
            })?;
        let path = self.delta_path(link.epoch);
        if !path.exists() {
            return Err(TimelineError::MissingDelta { epoch: link.epoch });
        }
        let bytes = std::fs::read(&path).map_err(|e| TimelineError::from_io(&path, e))?;
        let actual = sha256::hex(&sha256::sha256(&bytes));
        if &actual != expected {
            return Err(TimelineError::TamperedDelta {
                epoch: link.epoch,
                detail: format!("digest is {actual}, chain says {expected}"),
            });
        }
        AssignmentDelta::decode(&bytes).map_err(|detail| TimelineError::TamperedDelta {
            epoch: link.epoch,
            detail,
        })
    }

    /// Integrity-checks the whole chain: every world artifact
    /// re-verifies against its chained content address and epoch, and
    /// every delta file against its chained digest. Any tampering —
    /// a flipped byte, a relabeled epoch, a deleted file — surfaces as
    /// a typed error.
    pub fn verify(&self) -> Result<VerifyReport, TimelineError> {
        check_chain(&self.links)?;
        let mut worlds_ok = 0;
        let mut deltas_ok = 0;
        for link in &self.links {
            let path = self.world_path(link);
            if !path.exists() {
                return Err(TimelineError::MissingWorld {
                    epoch: link.epoch,
                    digest: link.world_digest.clone(),
                });
            }
            let info = verify_artifact(&path).map_err(|e| world_error(link, e))?;
            if info.digest != link.world_digest {
                return Err(TimelineError::TamperedWorld {
                    epoch: link.epoch,
                    digest: link.world_digest.clone(),
                    detail: format!("artifact digest is {}", info.digest),
                });
            }
            if info.epoch != link.epoch {
                return Err(TimelineError::TamperedWorld {
                    epoch: link.epoch,
                    digest: link.world_digest.clone(),
                    detail: format!("world carries epoch {}", info.epoch),
                });
            }
            worlds_ok += 1;
            if link.parent_digest.is_some() {
                self.read_delta(link)?;
                deltas_ok += 1;
            }
        }
        Ok(VerifyReport {
            links: self.links.len(),
            worlds_ok,
            deltas_ok,
        })
    }

    /// The assignment map at exactly `epoch`, built by loading the
    /// genesis-nearest world once and composing deltas forward — the
    /// cheap path the diff/lineage queries share.
    fn composed_assignments(
        &self,
        base_epoch: u64,
        target_epoch: u64,
        base: &AsOrgMapping,
    ) -> Result<BTreeMap<u32, u32>, TimelineError> {
        let mut assign = assignments(base);
        for link in &self.links {
            if link.epoch > base_epoch && link.epoch <= target_epoch {
                self.read_delta(link)?.apply(&mut assign);
            }
        }
        Ok(assign)
    }

    /// The difference between two chain epochs, computed by composing
    /// per-link deltas from `t1` to `t2`. Byte-identical to
    /// [`Timeline::diff_direct`] — the reconstruction invariant — which
    /// tests pin.
    pub fn diff(&self, t1: u64, t2: u64) -> Result<MappingDiff, TimelineError> {
        if t1 > t2 {
            return Err(TimelineError::InvalidRange { t1, t2 });
        }
        let from = self.link_at(t1)?.clone();
        self.link_at(t2)?;
        let base = self.mapping_of_link(&from)?;
        let assign = self.composed_assignments(t1, t2, &base)?;
        let reconstructed = mapping_from_assignments(&assign);
        Ok(mapping_diff(&base, &reconstructed))
    }

    /// The same difference computed the obvious way: load both worlds,
    /// diff their mappings. The oracle the composed path is pinned to.
    pub fn diff_direct(&self, t1: u64, t2: u64) -> Result<MappingDiff, TimelineError> {
        if t1 > t2 {
            return Err(TimelineError::InvalidRange { t1, t2 });
        }
        let before_link = self.link_at(t1)?.clone();
        let after_link = self.link_at(t2)?.clone();
        let before = self.mapping_of_link(&before_link)?;
        let after = self.mapping_of_link(&after_link)?;
        Ok(mapping_diff(&before, &after))
    }

    /// Walks the whole chain and narrates what happened to `asn`'s
    /// organization at every epoch: genesis, merges (acquisitions),
    /// splits (spinoffs), membership churn, disappearance.
    pub fn org_lineage(&self, asn: Asn) -> Result<OrgLineage, TimelineError> {
        if self.links.is_empty() {
            return Err(TimelineError::Empty);
        }
        let genesis = &self.links[0];
        let mut prev = self.mapping_of_link(genesis)?;
        let mut steps = vec![lineage::classify(genesis.epoch, None, &prev, None, asn)];
        let mut assign = assignments(&prev);
        for link in &self.links[1..] {
            self.read_delta(link)?.apply(&mut assign);
            let cur = mapping_from_assignments(&assign);
            let d = mapping_diff(&prev, &cur);
            steps.push(lineage::classify(
                link.epoch,
                Some(&prev),
                &cur,
                Some(&d),
                asn,
            ));
            prev = cur;
        }
        Ok(OrgLineage {
            asn: asn.value(),
            steps,
        })
    }
}

/// Classifies a store refusal of a chained world: an artifact written
/// under another store schema is a version skew the operator fixes by
/// republishing, not tampering; every other refusal is tampering.
fn world_error(link: &TimelineLink, err: StoreError) -> TimelineError {
    match err {
        StoreError::SchemaMismatch { found, expected } => TimelineError::WorldSchemaMismatch {
            epoch: link.epoch,
            digest: link.world_digest.clone(),
            found,
            expected,
        },
        other => TimelineError::TamperedWorld {
            epoch: link.epoch,
            digest: link.world_digest.clone(),
            detail: other.to_string(),
        },
    }
}

/// Chain-shape validation: epochs strictly increase, genesis has no
/// parent/delta, and every later link names its parent's digest.
fn check_chain(links: &[TimelineLink]) -> Result<(), TimelineError> {
    for (i, link) in links.iter().enumerate() {
        if i == 0 {
            if link.parent_digest.is_some() || link.delta_digest.is_some() {
                return Err(TimelineError::BrokenChain {
                    epoch: link.epoch,
                    detail: "genesis link must have no parent or delta".to_string(),
                });
            }
            continue;
        }
        let prev = &links[i - 1];
        if link.epoch <= prev.epoch {
            return Err(TimelineError::BrokenChain {
                epoch: link.epoch,
                detail: format!("epoch does not advance past {}", prev.epoch),
            });
        }
        if link.parent_digest.as_deref() != Some(prev.world_digest.as_str()) {
            return Err(TimelineError::BrokenChain {
                epoch: link.epoch,
                detail: "parent digest does not match previous link".to_string(),
            });
        }
        if link.delta_digest.is_none() {
            return Err(TimelineError::BrokenChain {
                epoch: link.epoch,
                detail: "non-genesis link has no delta digest".to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_llm::SimLlm;
    use borges_synthnet::{EvolutionEvent, GeneratorConfig, SyntheticInternet};
    use borges_websim::SimWebClient;

    fn compile(world: &SyntheticInternet) -> Borges {
        let llm = SimLlm::new(77);
        Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        )
    }

    /// A temp directory, removed when the test that made it ends.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for Scratch {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    fn scratch(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("borges-timeline-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    /// Three epochs: genesis, a cogent+orange acquisition, then a
    /// digicel spinoff — the scripted M&A arc.
    fn three_epoch_timeline(name: &str) -> (Scratch, Timeline) {
        let dir = scratch(name);
        let mut timeline = Timeline::open(&dir).unwrap();
        let w0 = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
        let w1 = w0
            .evolve(
                &[EvolutionEvent::Acquisition {
                    acquirer: "cogent".into(),
                    target: "orange".into(),
                }],
                78,
            )
            .unwrap();
        let w2 = w1
            .evolve(
                &[EvolutionEvent::Spinoff {
                    brand: "digicel".into(),
                    countries: vec!["KE".into(), "NG".into()],
                    new_brand: "sahelwave".into(),
                }],
                79,
            )
            .unwrap();
        for world in [&w0, &w1, &w2] {
            timeline.append(&mut compile(world)).unwrap();
        }
        (dir, timeline)
    }

    #[test]
    fn append_builds_a_contiguous_verifiable_chain() {
        let (dir, timeline) = three_epoch_timeline("chain");
        let epochs: Vec<u64> = timeline.links().iter().map(|l| l.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        assert!(timeline.links()[0].parent_digest.is_none());
        assert!(timeline.links()[0].delta_digest.is_none());
        for i in 1..3 {
            assert_eq!(
                timeline.links()[i].parent_digest.as_deref(),
                Some(timeline.links()[i - 1].world_digest.as_str())
            );
            assert!(timeline.links()[i].delta_digest.is_some());
        }
        let report = timeline.verify().unwrap();
        assert_eq!(report.links, 3);
        assert_eq!(report.worlds_ok, 3);
        assert_eq!(report.deltas_ok, 2);

        // Reopen: same chain, still verifies.
        let reopened = Timeline::open(&dir).unwrap();
        assert_eq!(reopened.links(), timeline.links());
        reopened.verify().unwrap();
    }

    #[test]
    fn worlds_carry_their_epoch_in_the_content_address() {
        let (_dir, timeline) = three_epoch_timeline("epoch-stamp");
        for link in timeline.links() {
            let borges = timeline.load_epoch(link.epoch).unwrap();
            assert_eq!(borges.world_epoch(), link.epoch);
        }
        // Identical pipelines at different epochs get different
        // content addresses — the epoch is part of the address.
        let dir2 = scratch("epoch-stamp-2");
        let mut t2 = Timeline::open(&dir2).unwrap();
        let w = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
        let a = t2.append(&mut compile(&w)).unwrap();
        let b = t2.append(&mut compile(&w)).unwrap();
        assert_ne!(a.world_digest, b.world_digest);
    }

    #[test]
    fn resolve_at_floors_and_rejects_prehistory() {
        let (_dir, timeline) = three_epoch_timeline("resolve");
        assert_eq!(timeline.resolve_at(0).unwrap().epoch, 0);
        assert_eq!(timeline.resolve_at(1).unwrap().epoch, 1);
        assert_eq!(timeline.resolve_at(99).unwrap().epoch, 2, "floor to tip");
        let missing = scratch("resolve-empty");
        let empty = Timeline::open(&missing).unwrap();
        assert_eq!(empty.resolve_at(0).unwrap_err().kind(), "empty");
        // Opening wrote nothing, and a read-only open refuses the path.
        assert!(!missing.exists());
        let err = Timeline::open_existing(&missing).unwrap_err();
        assert_eq!(err.kind(), "missing", "{err}");
        assert!(!missing.exists());
        assert_eq!(timeline.link_at(7).unwrap_err().kind(), "unknown_epoch");
    }

    #[test]
    fn composed_diff_is_identical_to_direct_diff() {
        let (_dir, timeline) = three_epoch_timeline("compose");
        for (t1, t2) in [(0, 1), (1, 2), (0, 2), (2, 2)] {
            let composed = timeline.diff(t1, t2).unwrap();
            let direct = timeline.diff_direct(t1, t2).unwrap();
            assert_eq!(composed, direct, "({t1},{t2})");
            assert_eq!(
                lineage::render_diff_json(t1, t2, &composed),
                lineage::render_diff_json(t1, t2, &direct),
                "rendered bytes ({t1},{t2})"
            );
        }
        assert!(timeline.diff(2, 2).unwrap().is_empty());
        assert_eq!(timeline.diff(2, 0).unwrap_err().kind(), "invalid_range");
    }

    #[test]
    fn diff_shows_the_scripted_acquisition_and_spinoff() {
        let (_dir, timeline) = three_epoch_timeline("script");
        let d01 = timeline.diff(0, 1).unwrap();
        assert!(
            d01.merges.iter().any(
                |m| m.fragments.iter().flatten().any(|&a| a == Asn::new(174))
                    && m.fragments.iter().flatten().any(|&a| a == Asn::new(3215))
            ),
            "cogent+orange merge must appear between epochs 0 and 1"
        );
        let d12 = timeline.diff(1, 2).unwrap();
        assert!(
            d12.splits
                .iter()
                .any(|s| s.pieces.iter().flatten().any(|&a| a == Asn::new(36926))),
            "digicel spinoff must appear between epochs 1 and 2"
        );
    }

    #[test]
    fn lineage_narrates_the_scripted_history() {
        let (_dir, timeline) = three_epoch_timeline("lineage");
        let cogent = timeline.org_lineage(Asn::new(174)).unwrap();
        assert_eq!(cogent.steps.len(), 3);
        assert_eq!(cogent.steps[0].kind, "genesis");
        assert_eq!(cogent.steps[1].kind, "merged", "{:?}", cogent.steps[1]);
        assert!(
            cogent.steps[1].members.contains(&3215),
            "orange joined cogent's org"
        );
        let digicel = timeline.org_lineage(Asn::new(36926)).unwrap();
        assert_eq!(digicel.steps[2].kind, "split", "{:?}", digicel.steps[2]);
        assert!(
            !digicel.steps[2].members.contains(&23520),
            "the KE unit left in the spinoff"
        );
        // The JSON body is non-empty and mentions the ASN.
        assert!(cogent.to_json().starts_with("{\"asn\":\"AS174\""));
    }

    #[test]
    fn tampered_world_is_detected() {
        let (dir, timeline) = three_epoch_timeline("tamper-world");
        let path = timeline.world_path(&timeline.links()[1]);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = timeline.verify().unwrap_err();
        assert_eq!(err.kind(), "tampered_world", "{err}");
        assert!(err.to_string().contains("CORRUPT"));
        // Loading that epoch also refuses.
        let reopened = Timeline::open(&dir).unwrap();
        assert_eq!(reopened.load_epoch(1).unwrap_err().kind(), "tampered_world");
        // Other epochs still load.
        reopened.load_epoch(0).unwrap();
    }

    #[test]
    fn world_from_another_store_schema_is_a_schema_error() {
        // Stamp the tip's world as the previous store schema would
        // have written it: schema field set to that version, header CRC
        // re-stamped so the header is self-consistent.
        let previous = borges_store::STORE_SCHEMA_VERSION - 1;
        let (_dir, mut timeline) = three_epoch_timeline("old-schema");
        let tip = timeline.links()[2].clone();
        let path = timeline.world_path(&tip);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12..16].copy_from_slice(&previous.to_le_bytes());
        let crc = borges_store::crc32::crc32(&bytes[..20]);
        bytes[20..24].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let err = timeline.verify().unwrap_err();
        assert_eq!(err.kind(), "schema", "{err}");
        let message = err.to_string();
        assert!(!message.contains("CORRUPT"), "{message}");
        assert!(message.contains("epoch 2"), "{message}");
        let expected = format!("version {}", borges_store::STORE_SCHEMA_VERSION);
        assert!(
            message.contains(&format!("version {previous}")) && message.contains(&expected),
            "{message}"
        );
        assert_eq!(timeline.load_epoch(2).unwrap_err().kind(), "schema");
        timeline.load_epoch(1).unwrap();
        // A chained append re-reads its parent, the tip.
        let w = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
        let err = timeline.append(&mut compile(&w)).unwrap_err();
        assert_eq!(err.kind(), "schema", "{err}");
    }

    #[test]
    fn missing_world_and_delta_are_detected() {
        let (_dir, timeline) = three_epoch_timeline("missing");
        std::fs::remove_file(timeline.world_path(&timeline.links()[2])).unwrap();
        assert_eq!(timeline.verify().unwrap_err().kind(), "missing_world");
    }

    #[test]
    fn tampered_delta_is_detected() {
        let (dir, timeline) = three_epoch_timeline("tamper-delta");
        let path = dir.join(DELTAS_DIR).join("1.delta");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = timeline.verify().unwrap_err();
        assert_eq!(err.kind(), "tampered_delta", "{err}");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(timeline.verify().unwrap_err().kind(), "missing_delta");
    }

    #[test]
    fn manifest_tampering_fails_open() {
        let (dir, timeline) = three_epoch_timeline("tamper-manifest");
        let manifest_path = dir.join(MANIFEST_FILE);

        // Relabeled parent digest: chain no longer connects. (Forge
        // only the pointer — rewriting the digest everywhere would
        // keep the chain self-consistent and must be caught by
        // `verify`, not `open`.)
        let honest = std::fs::read_to_string(&manifest_path).unwrap();
        let forged = honest.replace(
            &format!(
                "\"parent_digest\": \"{}\"",
                timeline.links()[0].world_digest
            ),
            &format!("\"parent_digest\": \"{}\"", "0".repeat(64)),
        );
        assert_ne!(honest, forged);
        std::fs::write(&manifest_path, &forged).unwrap();
        assert_eq!(
            Timeline::open(&dir).unwrap_err().kind(),
            "broken_chain",
            "swapped digest must break the chain"
        );

        // Foreign schema.
        std::fs::write(
            &manifest_path,
            honest.replace(TIMELINE_SCHEMA, "borges.timeline.v99"),
        )
        .unwrap();
        assert_eq!(Timeline::open(&dir).unwrap_err().kind(), "schema");

        // Garbage.
        std::fs::write(&manifest_path, b"not json").unwrap();
        assert_eq!(Timeline::open(&dir).unwrap_err().kind(), "corrupt");
    }

    #[test]
    fn epoch_relabeling_is_detected() {
        // Rewrite the manifest renaming epoch 1 → 5 while keeping the
        // digests intact: the worlds still verify as artifacts, but the
        // stamped epoch no longer matches the chain.
        let (dir, timeline) = three_epoch_timeline("relabel");
        let manifest_path = dir.join(MANIFEST_FILE);
        let honest = std::fs::read_to_string(&manifest_path).unwrap();
        let forged = honest.replace("\"epoch\": 2", "\"epoch\": 5");
        assert_ne!(honest, forged);
        std::fs::write(&manifest_path, &forged).unwrap();
        // Also rename the delta file so the relabeled link finds one.
        std::fs::rename(
            dir.join(DELTAS_DIR).join("2.delta"),
            dir.join(DELTAS_DIR).join("5.delta"),
        )
        .unwrap();
        let reopened = Timeline::open(&dir).unwrap();
        let err = reopened.verify().unwrap_err();
        assert_eq!(err.kind(), "tampered_world", "{err}");
        assert!(err.to_string().contains("world carries epoch 2"), "{err}");
        drop(timeline);
    }
}
