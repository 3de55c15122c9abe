//! The corruption taxonomy: every way a stored artifact can fail to
//! load, as a typed error.
//!
//! The loader's contract is *never panic, always classify*: any byte
//! sequence — truncated, bit-flipped, renamed over, or simply absent —
//! maps to exactly one [`StoreError`] variant, and the variant decides
//! which `borges_store_degraded_<kind>_total` counter the serve
//! fallback bumps. [`StoreError::kind`] is that stable label.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// A typed artifact-store failure.
#[derive(Debug)]
pub enum StoreError {
    /// The artifact file does not exist — including the torn-rename
    /// crash window, where only the hidden sibling tmp file survives
    /// and the destination name was never linked.
    Missing {
        /// The path that was not found.
        path: PathBuf,
    },
    /// An I/O error other than not-found while reading or writing.
    Io {
        /// The path being accessed.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file ends before the structure it promises: a partial
    /// header, a section extending past end-of-file, or trailing
    /// garbage after the footer.
    Truncated {
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// The leading magic is not `BORGSTOR` — not an artifact at all.
    BadMagic,
    /// The header's own CRC32 does not cover its bytes.
    HeaderCorrupt,
    /// The artifact speaks a different format or world-schema version
    /// than this reader.
    SchemaMismatch {
        /// The version found in the header.
        found: u32,
        /// The version this reader expects.
        expected: u32,
    },
    /// A section's payload CRC32 does not match its bytes.
    SectionChecksum {
        /// The name of the damaged section.
        section: String,
    },
    /// The whole-file SHA-256 footer does not match the preceding
    /// bytes — the content address lies about the content.
    DigestMismatch,
    /// The `BORGDGST` footer is absent or malformed.
    FooterMissing,
    /// A section's bytes passed their checksum but do not decode into
    /// a sane world (a malformed or non-canonical payload record,
    /// unknown inner schema, duplicate interner slots, out-of-range
    /// edges).
    Decode {
        /// The section that failed to decode.
        section: String,
        /// Why it failed.
        detail: String,
    },
}

impl StoreError {
    /// The stable lower-snake label for this corruption class, used as
    /// the `borges_store_degraded_<kind>_total` metric suffix and the
    /// `store verify` output tag.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Missing { .. } => "missing",
            StoreError::Io { .. } => "io",
            StoreError::Truncated { .. } => "truncated",
            StoreError::BadMagic => "bad_magic",
            StoreError::HeaderCorrupt => "header_corrupt",
            StoreError::SchemaMismatch { .. } => "schema_mismatch",
            StoreError::SectionChecksum { .. } => "section_checksum",
            StoreError::DigestMismatch => "digest_mismatch",
            StoreError::FooterMissing => "footer_missing",
            StoreError::Decode { .. } => "decode",
        }
    }

    /// Wraps an I/O error, folding not-found into [`StoreError::Missing`].
    pub fn from_io(path: &std::path::Path, source: io::Error) -> Self {
        if source.kind() == io::ErrorKind::NotFound {
            StoreError::Missing {
                path: path.to_path_buf(),
            }
        } else {
            StoreError::Io {
                path: path.to_path_buf(),
                source,
            }
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing { path } => write!(f, "artifact missing: {}", path.display()),
            StoreError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            StoreError::Truncated { detail } => write!(f, "artifact truncated: {detail}"),
            StoreError::BadMagic => write!(f, "not a world artifact (bad magic)"),
            StoreError::HeaderCorrupt => write!(f, "artifact header fails its checksum"),
            StoreError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "artifact schema {found} but this reader expects {expected}"
                )
            }
            StoreError::SectionChecksum { section } => {
                write!(f, "section {section:?} fails its checksum")
            }
            StoreError::DigestMismatch => write!(f, "whole-file digest mismatch"),
            StoreError::FooterMissing => write!(f, "digest footer missing or malformed"),
            StoreError::Decode { section, detail } => {
                write!(f, "section {section:?} does not decode: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let errors = [
            StoreError::Missing {
                path: PathBuf::from("w"),
            },
            StoreError::Io {
                path: PathBuf::from("w"),
                source: io::Error::new(io::ErrorKind::PermissionDenied, "nope"),
            },
            StoreError::Truncated {
                detail: "header".into(),
            },
            StoreError::BadMagic,
            StoreError::HeaderCorrupt,
            StoreError::SchemaMismatch {
                found: 2,
                expected: 1,
            },
            StoreError::SectionChecksum {
                section: "slots".into(),
            },
            StoreError::DigestMismatch,
            StoreError::FooterMissing,
            StoreError::Decode {
                section: "meta".into(),
                detail: "bad json".into(),
            },
        ];
        let kinds: std::collections::BTreeSet<_> = errors.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), errors.len(), "kind labels must be unique");
        for error in &errors {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn not_found_becomes_missing() {
        let path = std::path::Path::new("/no/such/artifact.world");
        let err = StoreError::from_io(path, io::Error::from(io::ErrorKind::NotFound));
        assert_eq!(err.kind(), "missing");
        let err = StoreError::from_io(path, io::Error::from(io::ErrorKind::PermissionDenied));
        assert_eq!(err.kind(), "io");
    }
}
