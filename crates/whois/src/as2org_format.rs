//! CAIDA AS2Org flat-file format.
//!
//! CAIDA publishes its AS2Org inferences as a pipe-separated text file with
//! two record kinds, each introduced by a `# format:` header:
//!
//! ```text
//! # format:org_id|changed|org_name|country|source
//! LPL-141-ARIN|20240101|Level 3 Parent, LLC|US|ARIN
//! # format:aut|changed|aut_name|org_id|opaque_id|source
//! 3356|20240101|LEVEL3|LPL-141-ARIN||ARIN
//! ```
//!
//! This module reads and writes that format losslessly (modulo the
//! `opaque_id` column, which CAIDA leaves blank in public files and which we
//! preserve as-is but do not interpret). Lines may arrive in any order;
//! the most recent `# format:` header governs subsequent lines, exactly as
//! in the published files.

use crate::registry::{RegistryError, WhoisRegistry};
use crate::schema::{AutNum, Rir, WhoisOrg};
use borges_types::{Asn, CountryCode, OrgName, WhoisOrgId};
use std::error::Error;
use std::fmt;

/// A failure while reading an AS2Org file.
#[derive(Debug)]
pub enum As2orgError {
    /// A data line appeared before any `# format:` header.
    MissingHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A line has the wrong number of fields for its record kind.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
        /// Parse failure detail.
        source: borges_types::ParseError,
    },
    /// An unrecognized `# format:` header.
    UnknownFormat {
        /// 1-based line number.
        line: usize,
    },
    /// The parsed records violate referential integrity.
    Integrity(RegistryError),
}

impl fmt::Display for As2orgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            As2orgError::MissingHeader { line } => {
                write!(f, "line {line}: data before any # format: header")
            }
            As2orgError::FieldCount {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} fields, expected {expected}"),
            As2orgError::BadField {
                line,
                field,
                source,
            } => {
                write!(f, "line {line}: bad {field}: {source}")
            }
            As2orgError::UnknownFormat { line } => {
                write!(f, "line {line}: unknown # format: header")
            }
            As2orgError::Integrity(e) => write!(f, "integrity: {e}"),
        }
    }
}

impl Error for As2orgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            As2orgError::BadField { source, .. } => Some(source),
            As2orgError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RegistryError> for As2orgError {
    fn from(e: RegistryError) -> Self {
        As2orgError::Integrity(e)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Section {
    None,
    Org,
    Aut,
}

/// The `# format:` header introducing organization records (public so
/// streaming writers can emit the sections themselves).
pub const ORG_HEADER: &str = "# format:org_id|changed|org_name|country|source";
/// The `# format:` header introducing aut-num records.
pub const AUT_HEADER: &str = "# format:aut|changed|aut_name|org_id|opaque_id|source";

/// Parses the CAIDA AS2Org flat-file format into a validated
/// [`WhoisRegistry`].
///
/// Aut-num records referencing organizations that never appear get a
/// synthesized placeholder organization (CAIDA files are occasionally
/// internally inconsistent; the paper's pipeline tolerates this the same
/// way).
pub fn parse(text: &str) -> Result<WhoisRegistry, As2orgError> {
    let mut section = Section::None;
    let mut orgs: Vec<WhoisOrg> = Vec::new();
    let mut auts: Vec<AutNum> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if line.starts_with("# format:org_id|") {
                section = Section::Org;
            } else if line.starts_with("# format:aut|") {
                section = Section::Aut;
            } else if line.starts_with("# format:") {
                return Err(As2orgError::UnknownFormat { line: line_no });
            }
            // other comments ignored
            continue;
        }
        let bad = |field, source| As2orgError::BadField {
            line: line_no,
            field,
            source,
        };
        match section {
            Section::None => return Err(As2orgError::MissingHeader { line: line_no }),
            Section::Org => {
                let [id, changed, name, country, source] = fields(line, line_no)?;
                let country: CountryCode = country.parse().map_err(|e| bad("country", e))?;
                let source: Rir = source.parse().map_err(|e| bad("source", e))?;
                orgs.push(WhoisOrg {
                    id: WhoisOrgId::new(id),
                    changed: changed.parse().unwrap_or(0),
                    name: OrgName::new(name),
                    country,
                    source,
                });
            }
            Section::Aut => {
                let [asn, changed, name, org, _opaque, source] = fields(line, line_no)?;
                let asn: Asn = asn.parse().map_err(|e| bad("aut", e))?;
                let source: Rir = source.parse().map_err(|e| bad("source", e))?;
                auts.push(AutNum {
                    asn,
                    changed: changed.parse().unwrap_or(0),
                    name: name.to_string(),
                    org: WhoisOrgId::new(org),
                    source,
                });
            }
        }
    }

    // Dangling references get placeholder orgs (real CAIDA files contain
    // a handful).
    Ok(WhoisRegistry::builder()
        .extend(orgs, auts)
        .build_with_placeholders()?)
}

/// Splits a record into exactly `N` `|`-separated fields, without
/// allocating. A byte scan: on fields this short it beats `str::split`
/// by about a third.
fn fields<const N: usize>(line: &str, line_no: usize) -> Result<[&str; N], As2orgError> {
    let mut out = [""; N];
    let mut found = 0;
    let mut start = 0;
    for (at, byte) in line.bytes().enumerate() {
        if byte == b'|' {
            if let Some(slot) = out.get_mut(found) {
                *slot = &line[start..at];
            }
            found += 1;
            start = at + 1;
        }
    }
    if let Some(slot) = out.get_mut(found) {
        *slot = &line[start..];
    }
    found += 1;
    if found == N {
        Ok(out)
    } else {
        Err(As2orgError::FieldCount {
            line: line_no,
            found,
            expected: N,
        })
    }
}

/// Serializes a registry back into the CAIDA flat-file format.
///
/// The output is deterministic: organizations sorted by handle, aut-nums by
/// ASN, each section preceded by its `# format:` header.
pub fn serialize(registry: &WhoisRegistry) -> String {
    let mut out = String::new();
    out.push_str(ORG_HEADER);
    out.push('\n');
    for org in registry.orgs() {
        out.push_str(&format!(
            "{}|{}|{}|{}|{}\n",
            org.id, org.changed, org.name, org.country, org.source
        ));
    }
    out.push_str(AUT_HEADER);
    out.push('\n');
    for aut in registry.aut_nums() {
        out.push_str(&format!(
            "{}|{}|{}|{}||{}\n",
            aut.asn.value(),
            aut.changed,
            aut.name,
            aut.org,
            aut.source
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# name: as2org snapshot
# format:org_id|changed|org_name|country|source
LPL-141-ARIN|20240101|Level 3 Parent, LLC|US|ARIN
CL-38-ARIN|20231215|CenturyLink Communications|US|ARIN
# format:aut|changed|aut_name|org_id|opaque_id|source
3356|20240101|LEVEL3|LPL-141-ARIN||ARIN
209|20231215|CENTURYLINK-US|CL-38-ARIN||ARIN
3549|20240101|GBLX|LPL-141-ARIN||ARIN
";

    #[test]
    fn parses_sample() {
        let reg = parse(SAMPLE).unwrap();
        assert_eq!(reg.asn_count(), 3);
        assert_eq!(reg.org_count(), 2);
        assert_eq!(
            reg.org_of(Asn::new(3356)).unwrap().id,
            WhoisOrgId::new("LPL-141-ARIN")
        );
        assert_eq!(
            reg.org_of(Asn::new(209)).unwrap().name.as_str(),
            "CenturyLink Communications"
        );
    }

    #[test]
    fn roundtrips() {
        let reg = parse(SAMPLE).unwrap();
        let text = serialize(&reg);
        let reg2 = parse(&text).unwrap();
        assert_eq!(reg.asn_count(), reg2.asn_count());
        assert_eq!(reg.org_count(), reg2.org_count());
        for asn in reg.all_asns() {
            assert_eq!(reg.org_of(asn).unwrap().id, reg2.org_of(asn).unwrap().id);
        }
        // Serialization is deterministic and stable.
        assert_eq!(text, serialize(&reg2));
    }

    #[test]
    fn data_before_header_is_an_error() {
        let err = parse("3356|20240101|LEVEL3|X||ARIN\n").unwrap_err();
        assert!(matches!(err, As2orgError::MissingHeader { line: 1 }));
    }

    #[test]
    fn wrong_field_count_is_reported_with_line() {
        let text = format!("{ORG_HEADER}\nonly|three|fields\n");
        match parse(&text).unwrap_err() {
            As2orgError::FieldCount {
                line,
                found,
                expected,
            } => {
                assert_eq!((line, found, expected), (2, 3, 5));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn dangling_org_gets_placeholder() {
        let text = format!("{AUT_HEADER}\n64496|0|TESTNET|GHOST-ORG||RIPE\n");
        let reg = parse(&text).unwrap();
        let org = reg.org_of(Asn::new(64496)).unwrap();
        assert_eq!(org.id, WhoisOrgId::new("GHOST-ORG"));
        assert_eq!(org.country.as_str(), "ZZ");
    }

    #[test]
    fn bad_asn_field_is_an_error() {
        let text = format!("{AUT_HEADER}\nnot-an-asn|0|X|ORG||ARIN\n");
        assert!(matches!(
            parse(&text).unwrap_err(),
            As2orgError::BadField { field: "aut", .. }
        ));
    }

    #[test]
    fn unknown_format_header_is_an_error() {
        assert!(matches!(
            parse("# format:something|else\n").unwrap_err(),
            As2orgError::UnknownFormat { line: 1 }
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text =
            format!("# program start\n\n{ORG_HEADER}\n# interior comment\nX-RIPE|0|X|DE|RIPE\n\n");
        let reg = parse(&text).unwrap();
        assert_eq!(reg.org_count(), 1);
    }

    #[test]
    fn crlf_line_endings_are_tolerated() {
        let text = format!("{ORG_HEADER}\r\nX-RIPE|0|X|DE|RIPE\r\n");
        let reg = parse(&text).unwrap();
        assert_eq!(reg.org_count(), 1);
    }

    #[test]
    fn sections_may_interleave() {
        let text = format!(
            "{ORG_HEADER}\nA-ARIN|0|A|US|ARIN\n{AUT_HEADER}\n1|0|N1|A-ARIN||ARIN\n{ORG_HEADER}\nB-ARIN|0|B|US|ARIN\n{AUT_HEADER}\n2|0|N2|B-ARIN||ARIN\n"
        );
        let reg = parse(&text).unwrap();
        assert_eq!(reg.asn_count(), 2);
        assert_eq!(reg.org_count(), 2);
    }
}
