//! The timeline corruption/chain taxonomy.
//!
//! Mirrors the store's philosophy: every way a timeline directory can
//! be wrong — unreadable manifest, foreign schema, a chain whose links
//! do not connect, a missing or tampered world artifact, a delta file
//! whose digest moved — maps to a typed error with a stable `kind()`
//! string, and the walker never panics on hostile bytes.

use borges_store::StoreError;
use std::fmt;
use std::path::Path;

/// Why a timeline operation failed. Every variant is a *refusal with a
/// name*: `timeline verify` exits non-zero printing the kind, and the
/// serve layer maps these onto 4xx/5xx without inventing taxonomy of
/// its own.
#[derive(Debug)]
pub enum TimelineError {
    /// No timeline directory exists where a read expected one.
    Missing {
        /// The path that was not found.
        path: String,
    },
    /// Filesystem failure reading or writing under the timeline dir.
    Io {
        /// The path involved.
        path: String,
        /// The OS error.
        detail: String,
    },
    /// The manifest exists but is not parseable JSON of the right shape.
    Corrupt {
        /// What failed to parse.
        detail: String,
    },
    /// The manifest parses but tags a schema this reader does not speak.
    SchemaMismatch {
        /// The schema string found.
        found: String,
    },
    /// Links do not form a connected, strictly-advancing chain.
    BrokenChain {
        /// Epoch of the offending link.
        epoch: u64,
        /// What about it is broken.
        detail: String,
    },
    /// A link names a world artifact that is not in `worlds/`.
    MissingWorld {
        /// Epoch of the link.
        epoch: u64,
        /// The content address the chain expected.
        digest: String,
    },
    /// A link's world artifact was written under a store format or
    /// schema version this reader does not speak (for instance by an
    /// older release): intact as far as anyone can tell, but not
    /// readable here.
    WorldSchemaMismatch {
        /// Epoch of the link.
        epoch: u64,
        /// The content address the chain expected.
        digest: String,
        /// The version the artifact carries.
        found: u32,
        /// The version this reader speaks.
        expected: u32,
    },
    /// A link's world artifact exists but fails verification or no
    /// longer matches the chained digest/epoch.
    TamperedWorld {
        /// Epoch of the link.
        epoch: u64,
        /// The content address the chain expected.
        digest: String,
        /// The store-level or chain-level mismatch.
        detail: String,
    },
    /// A link records a delta digest but the delta file is gone.
    MissingDelta {
        /// Epoch of the link.
        epoch: u64,
    },
    /// A link's delta file exists but its digest or shape moved.
    TamperedDelta {
        /// Epoch of the link.
        epoch: u64,
        /// What about it is wrong.
        detail: String,
    },
    /// No chain link exists at (or below, for floor resolution) the
    /// requested epoch.
    UnknownEpoch {
        /// The epoch asked for.
        at: u64,
    },
    /// The operation needs at least one link and the timeline has none.
    Empty,
    /// A range query ran backwards (`t1 > t2`).
    InvalidRange {
        /// Earlier bound as given.
        t1: u64,
        /// Later bound as given.
        t2: u64,
    },
    /// An underlying store operation failed outside the cases above.
    Store(StoreError),
}

impl TimelineError {
    /// Stable, grep-able error-class label.
    pub fn kind(&self) -> &'static str {
        match self {
            TimelineError::Missing { .. } => "missing",
            TimelineError::Io { .. } => "io",
            TimelineError::Corrupt { .. } => "corrupt",
            TimelineError::SchemaMismatch { .. } | TimelineError::WorldSchemaMismatch { .. } => {
                "schema"
            }
            TimelineError::BrokenChain { .. } => "broken_chain",
            TimelineError::MissingWorld { .. } => "missing_world",
            TimelineError::TamperedWorld { .. } => "tampered_world",
            TimelineError::MissingDelta { .. } => "missing_delta",
            TimelineError::TamperedDelta { .. } => "tampered_delta",
            TimelineError::UnknownEpoch { .. } => "unknown_epoch",
            TimelineError::Empty => "empty",
            TimelineError::InvalidRange { .. } => "invalid_range",
            TimelineError::Store(_) => "store",
        }
    }

    /// Wraps an IO error with the path it happened on.
    pub fn from_io(path: &Path, err: std::io::Error) -> TimelineError {
        TimelineError::Io {
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::Missing { path } => write!(f, "no timeline directory at {path}"),
            TimelineError::Io { path, detail } => write!(f, "io error at {path}: {detail}"),
            TimelineError::Corrupt { detail } => write!(f, "CORRUPT manifest: {detail}"),
            TimelineError::SchemaMismatch { found } => {
                write!(f, "CORRUPT manifest: unknown schema {found:?}")
            }
            TimelineError::BrokenChain { epoch, detail } => {
                write!(f, "CORRUPT chain at epoch {epoch}: {detail}")
            }
            TimelineError::MissingWorld { epoch, digest } => {
                write!(f, "CORRUPT chain at epoch {epoch}: world {digest} missing")
            }
            TimelineError::WorldSchemaMismatch {
                epoch,
                digest,
                found,
                expected,
            } => write!(
                f,
                "world {digest} at epoch {epoch} has store version {found}, this \
                 reader speaks version {expected}; republish the timeline with \
                 this release"
            ),
            TimelineError::TamperedWorld {
                epoch,
                digest,
                detail,
            } => write!(
                f,
                "CORRUPT chain at epoch {epoch}: world {digest} tampered: {detail}"
            ),
            TimelineError::MissingDelta { epoch } => {
                write!(f, "CORRUPT chain at epoch {epoch}: delta file missing")
            }
            TimelineError::TamperedDelta { epoch, detail } => {
                write!(
                    f,
                    "CORRUPT chain at epoch {epoch}: delta tampered: {detail}"
                )
            }
            TimelineError::UnknownEpoch { at } => write!(f, "no chain link at epoch {at}"),
            TimelineError::Empty => write!(f, "timeline has no links"),
            TimelineError::InvalidRange { t1, t2 } => {
                write!(f, "invalid range: t1 {t1} > t2 {t2}")
            }
            TimelineError::Store(err) => write!(f, "store error: {err}"),
        }
    }
}

impl From<StoreError> for TimelineError {
    fn from(err: StoreError) -> Self {
        TimelineError::Store(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let cases: Vec<(TimelineError, &str)> = vec![
            (TimelineError::Missing { path: "x".into() }, "missing"),
            (TimelineError::Corrupt { detail: "x".into() }, "corrupt"),
            (
                TimelineError::SchemaMismatch { found: "v9".into() },
                "schema",
            ),
            (
                TimelineError::WorldSchemaMismatch {
                    epoch: 1,
                    digest: "d".into(),
                    found: 1,
                    expected: 2,
                },
                "schema",
            ),
            (
                TimelineError::BrokenChain {
                    epoch: 1,
                    detail: "x".into(),
                },
                "broken_chain",
            ),
            (
                TimelineError::MissingWorld {
                    epoch: 1,
                    digest: "d".into(),
                },
                "missing_world",
            ),
            (TimelineError::MissingDelta { epoch: 1 }, "missing_delta"),
            (TimelineError::UnknownEpoch { at: 7 }, "unknown_epoch"),
            (TimelineError::Empty, "empty"),
            (
                TimelineError::InvalidRange { t1: 2, t2: 1 },
                "invalid_range",
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn corruption_messages_shout() {
        for err in [
            TimelineError::Corrupt {
                detail: "bad json".into(),
            },
            TimelineError::BrokenChain {
                epoch: 3,
                detail: "parent mismatch".into(),
            },
            TimelineError::MissingWorld {
                epoch: 2,
                digest: "abc".into(),
            },
            TimelineError::TamperedDelta {
                epoch: 1,
                detail: "digest moved".into(),
            },
        ] {
            assert!(err.to_string().contains("CORRUPT"), "{err}");
        }
    }
}
