//! The content-addressed catalog: a directory of artifacts named by
//! their own digest (`<hex-sha256>.world`).
//!
//! Content addressing makes the catalog self-verifying — a file whose
//! digest no longer matches its name has been tampered with or damaged
//! even before opening it — and makes `add` idempotent: re-adding the
//! same world is a no-op landing on the same name.

use crate::artifact::{verify_artifact, verify_bytes, ArtifactInfo};
use crate::atomic::write_atomic;
use crate::error::StoreError;
use std::path::{Path, PathBuf};

/// File extension for catalog entries.
pub const ARTIFACT_EXT: &str = "world";

/// One catalog entry: the file, and what verification made of it.
#[derive(Debug)]
pub struct CatalogEntry {
    /// File name inside the catalog directory.
    pub file_name: String,
    /// Full verification result — `Err` entries are damaged.
    pub info: Result<ArtifactInfo, StoreError>,
}

impl CatalogEntry {
    /// Whether the file name matches the verified content digest (a
    /// renamed or swapped artifact fails this even when internally
    /// intact).
    pub fn addressed_correctly(&self) -> bool {
        match &self.info {
            Ok(info) => self.file_name == format!("{}.{ARTIFACT_EXT}", info.digest),
            Err(_) => false,
        }
    }
}

/// Copies the artifact at `artifact_path` into `catalog_dir` under its
/// content address, verifying it first. Returns the digest. The file
/// is read once and the bytes verified are the bytes written, so a
/// source replaced mid-add cannot land unverified. The copy goes
/// through the crash-safe write protocol, so a crash cannot leave a
/// partial entry under a valid-looking name.
pub fn catalog_add(catalog_dir: &Path, artifact_path: &Path) -> Result<String, StoreError> {
    let bytes =
        std::fs::read(artifact_path).map_err(|err| StoreError::from_io(artifact_path, err))?;
    let info = verify_bytes(&bytes)?;
    std::fs::create_dir_all(catalog_dir).map_err(|err| StoreError::from_io(catalog_dir, err))?;
    let dest = catalog_path(catalog_dir, &info.digest);
    write_atomic(&dest, &bytes).map_err(|err| StoreError::from_io(&dest, err))?;
    Ok(info.digest)
}

/// The path a digest addresses inside a catalog.
pub fn catalog_path(catalog_dir: &Path, digest: &str) -> PathBuf {
    catalog_dir.join(format!("{digest}.{ARTIFACT_EXT}"))
}

/// Lists and verifies every `*.world` entry in `catalog_dir`, sorted
/// by file name. Hidden staging files (`.‥.tmp-*`) are ignored.
pub fn catalog_ls(catalog_dir: &Path) -> Result<Vec<CatalogEntry>, StoreError> {
    let entries =
        std::fs::read_dir(catalog_dir).map_err(|err| StoreError::from_io(catalog_dir, err))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|err| StoreError::from_io(catalog_dir, err))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || !name.ends_with(&format!(".{ARTIFACT_EXT}")) {
            continue;
        }
        names.push(name);
    }
    names.sort();
    Ok(names
        .into_iter()
        .map(|file_name| {
            let info = verify_artifact(&catalog_dir.join(&file_name));
            CatalogEntry { file_name, info }
        })
        .collect())
}
