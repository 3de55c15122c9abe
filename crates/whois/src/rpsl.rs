//! RPSL WHOIS objects (`aut-num` / `organisation`).
//!
//! The raw material behind CAIDA's AS2Org is the registries' RPSL
//! databases — the text objects the `whois` protocol serves:
//!
//! ```text
//! aut-num:        AS3356
//! as-name:        LEVEL3
//! org:            ORG-LPL1-ARIN
//! source:         ARIN
//!
//! organisation:   ORG-LPL1-ARIN
//! org-name:       Level 3 Parent, LLC
//! country:        US
//! source:         ARIN
//! ```
//!
//! This module parses and emits those two object classes (attribute
//! continuation lines, comments and unknown attributes included), so a
//! registry dump can feed the substrate directly and a generated registry
//! can masquerade as one.

use crate::registry::{RegistryError, WhoisRegistry};
use crate::schema::{AutNum, Rir, WhoisOrg};
use borges_types::{Asn, CountryCode, OrgName, WhoisOrgId};
use std::error::Error;
use std::fmt;

/// An RPSL parsing failure.
#[derive(Debug)]
pub enum RpslError {
    /// An object is missing a required attribute.
    MissingAttribute {
        /// Class of the offending object.
        class: &'static str,
        /// The missing attribute.
        attribute: &'static str,
        /// 1-based line where the object starts.
        line: usize,
    },
    /// An attribute value failed to parse.
    BadValue {
        /// The attribute.
        attribute: String,
        /// 1-based line number.
        line: usize,
    },
    /// The parsed objects violate referential integrity.
    Integrity(RegistryError),
}

impl fmt::Display for RpslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpslError::MissingAttribute {
                class,
                attribute,
                line,
            } => write!(f, "line {line}: {class} object missing {attribute}:"),
            RpslError::BadValue { attribute, line } => {
                write!(f, "line {line}: bad value for {attribute}:")
            }
            RpslError::Integrity(e) => write!(f, "integrity: {e}"),
        }
    }
}

impl Error for RpslError {}

impl From<RegistryError> for RpslError {
    fn from(e: RegistryError) -> Self {
        RpslError::Integrity(e)
    }
}

/// One parsed RPSL object: ordered `(attribute, value)` pairs.
#[derive(Debug, Clone)]
struct RpslObject {
    first_line: usize,
    attributes: Vec<(String, String)>,
}

impl RpslObject {
    fn get(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(a, _)| a == name)
            .map(|(_, v)| v.as_str())
    }

    fn class(&self) -> Option<&str> {
        self.attributes.first().map(|(a, _)| a.as_str())
    }
}

/// Splits RPSL text into objects (blank-line separated), handling `%`/`#`
/// comment lines and continuation lines (leading whitespace or `+`).
fn split_objects(text: &str) -> Vec<RpslObject> {
    let mut objects = Vec::new();
    let mut current: Option<RpslObject> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.trim_start().starts_with('%') || line.trim_start().starts_with('#') {
            continue;
        }
        if line.trim().is_empty() {
            if let Some(obj) = current.take() {
                objects.push(obj);
            }
            continue;
        }
        // Continuation line: starts with space/tab/'+', extends the last
        // attribute's value.
        if line.starts_with(' ') || line.starts_with('\t') || line.starts_with('+') {
            if let Some(obj) = current.as_mut() {
                if let Some((_, value)) = obj.attributes.last_mut() {
                    value.push(' ');
                    value.push_str(line.trim_start_matches(['+', ' ', '\t']).trim());
                }
            }
            continue;
        }
        let (attr, value) = match line.split_once(':') {
            Some((a, v)) => (a.trim().to_ascii_lowercase(), v.trim().to_string()),
            None => continue, // tolerate junk lines the way whois clients do
        };
        let obj = current.get_or_insert_with(|| RpslObject {
            first_line: line_no,
            attributes: Vec::new(),
        });
        obj.attributes.push((attr, value));
    }
    if let Some(obj) = current.take() {
        objects.push(obj);
    }
    objects
}

/// Parses RPSL text into a validated [`WhoisRegistry`]. Unknown object
/// classes and attributes are ignored; `aut-num` objects without an
/// `org:` reference are skipped (they cannot anchor a mapping).
pub fn parse(text: &str) -> Result<WhoisRegistry, RpslError> {
    let mut orgs: Vec<WhoisOrg> = Vec::new();
    let mut auts: Vec<AutNum> = Vec::new();

    for object in split_objects(text) {
        match object.class() {
            Some("organisation") | Some("organization") => {
                let id = object
                    .get("organisation")
                    .or_else(|| object.get("organization"))
                    .expect("class attribute exists");
                let name = object.get("org-name").ok_or(RpslError::MissingAttribute {
                    class: "organisation",
                    attribute: "org-name",
                    line: object.first_line,
                })?;
                let country: CountryCode =
                    object.get("country").unwrap_or("ZZ").parse().map_err(|_| {
                        RpslError::BadValue {
                            attribute: "country".into(),
                            line: object.first_line,
                        }
                    })?;
                let source: Rir = object
                    .get("source")
                    .unwrap_or("ARIN")
                    .parse()
                    .unwrap_or(Rir::Nir);
                orgs.push(WhoisOrg {
                    id: WhoisOrgId::new(id),
                    name: OrgName::new(name),
                    country,
                    source,
                    changed: parse_changed(object.get("last-modified")),
                });
            }
            Some("aut-num") => {
                let asn_text = object.get("aut-num").expect("class attribute exists");
                let asn: Asn = asn_text.parse().map_err(|_| RpslError::BadValue {
                    attribute: "aut-num".into(),
                    line: object.first_line,
                })?;
                let org = match object.get("org") {
                    Some(org) if !org.is_empty() => WhoisOrgId::new(org),
                    _ => continue, // org-less aut-num: cannot map
                };
                let source: Rir = object
                    .get("source")
                    .unwrap_or("ARIN")
                    .parse()
                    .unwrap_or(Rir::Nir);
                auts.push(AutNum {
                    asn,
                    name: object.get("as-name").unwrap_or("").to_string(),
                    org,
                    source,
                    changed: parse_changed(object.get("last-modified")),
                });
            }
            _ => {} // route/inetnum/person/… — irrelevant here
        }
    }

    // Dangling org references get placeholders, like the CAIDA flat-file
    // parser gives them.
    Ok(WhoisRegistry::builder()
        .extend(orgs, auts)
        .build_with_placeholders()?)
}

/// `2024-07-01T00:00:00Z` → `20240701`; absent/garbage → 0.
fn parse_changed(value: Option<&str>) -> u32 {
    let v = match value {
        Some(v) => v,
        None => return 0,
    };
    let digits: String = v.chars().filter(|c| c.is_ascii_digit()).take(8).collect();
    digits.parse().unwrap_or(0)
}

/// Emits a registry as RPSL objects (organisations first, then aut-nums,
/// both in key order).
pub fn serialize(registry: &WhoisRegistry) -> String {
    let mut out = String::from("% generated by borges-whois\n\n");
    for org in registry.orgs() {
        out.push_str(&format!(
            "organisation:   {}\norg-name:       {}\ncountry:        {}\nsource:         {}\n\n",
            org.id, org.name, org.country, org.source
        ));
    }
    for aut in registry.aut_nums() {
        out.push_str(&format!(
            "aut-num:        AS{}\nas-name:        {}\norg:            {}\nsource:         {}\n\n",
            aut.asn.value(),
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
% RIPE-style comment

organisation:   ORG-LPL1-ARIN
org-name:       Level 3 Parent, LLC
country:        US
source:         ARIN

organisation:   ORG-CTL1-ARIN
org-name:       CenturyLink Communications,
+               LLC
country:        US
source:         ARIN

aut-num:        AS3356
as-name:        LEVEL3
org:            ORG-LPL1-ARIN
remarks:        backbone
source:         ARIN

aut-num:        AS209
as-name:        CENTURYLINK-US
org:            ORG-CTL1-ARIN
source:         ARIN

person:         Irrelevant Human
nic-hdl:        IH-TEST
";

    #[test]
    fn parses_objects_with_continuations_and_comments() {
        let reg = parse(SAMPLE).unwrap();
        assert_eq!(reg.asn_count(), 2);
        assert_eq!(reg.org_count(), 2);
        let ctl = reg.org_of(Asn::new(209)).unwrap();
        assert_eq!(ctl.name.as_str(), "CenturyLink Communications, LLC");
    }

    #[test]
    fn orgless_autnums_are_skipped() {
        let text = "aut-num:        AS1\nas-name:        LONER\nsource:         ARIN\n";
        let reg = parse(text).unwrap();
        assert_eq!(reg.asn_count(), 0);
    }

    #[test]
    fn dangling_org_gets_a_placeholder() {
        let text = "aut-num: AS64496\nas-name: T\norg: ORG-GHOST\nsource: RIPE\n";
        let reg = parse(text).unwrap();
        assert_eq!(
            reg.org_of(Asn::new(64496)).unwrap().id,
            WhoisOrgId::new("ORG-GHOST")
        );
    }

    #[test]
    fn missing_org_name_is_an_error() {
        let text = "organisation: ORG-X\ncountry: US\nsource: ARIN\n";
        assert!(matches!(
            parse(text).unwrap_err(),
            RpslError::MissingAttribute {
                attribute: "org-name",
                ..
            }
        ));
    }

    #[test]
    fn bad_autnum_is_an_error() {
        let text = "aut-num: ASXYZ\norg: ORG-X\nsource: ARIN\n";
        assert!(matches!(
            parse(text).unwrap_err(),
            RpslError::BadValue { .. }
        ));
    }

    #[test]
    fn last_modified_dates_parse() {
        let text = "\
organisation: ORG-X
org-name: X
country: US
source: ARIN
last-modified: 2024-07-01T10:00:00Z

aut-num: AS10
as-name: TEN
org: ORG-X
source: ARIN
last-modified: 2023-01-15T00:00:00Z
";
        let reg = parse(text).unwrap();
        assert_eq!(
            reg.org(&WhoisOrgId::new("ORG-X")).unwrap().changed,
            20240701
        );
        assert_eq!(reg.aut_num(Asn::new(10)).unwrap().changed, 20230115);
    }

    #[test]
    fn serialize_parse_roundtrip_preserves_the_relation() {
        let reg = parse(SAMPLE).unwrap();
        let text = serialize(&reg);
        let back = parse(&text).unwrap();
        assert_eq!(back.asn_count(), reg.asn_count());
        assert_eq!(back.org_count(), reg.org_count());
        for asn in reg.all_asns() {
            assert_eq!(reg.org_of(asn).unwrap().id, back.org_of(asn).unwrap().id);
        }
    }
}
