//! Property tests: arbitrary registries must round-trip through the
//! CAIDA AS2Org flat-file format losslessly.

use borges_types::{Asn, OrgName, WhoisOrgId};
use borges_whois::{as2org_format, AutNum, Rir, WhoisOrg, WhoisRegistry};
use proptest::prelude::*;

fn rir_strategy() -> impl Strategy<Value = Rir> {
    prop::sample::select(Rir::ALL.to_vec())
}

/// Org names must survive the pipe-separated format, so the generator
/// avoids `|` and newlines — exactly the constraint the real file format
/// imposes on registries.
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z0-9 .,&()-]{1,40}"
        .prop_map(|s| s.trim().to_string())
        .prop_filter("non-empty after trim", |s| !s.is_empty())
}

fn registry_strategy() -> impl Strategy<Value = WhoisRegistry> {
    (
        prop::collection::btree_map(1u32..200, (name_strategy(), rir_strategy()), 1..20),
        prop::collection::btree_map(1u32..100_000, 0usize..20, 1..60),
    )
        .prop_map(|(org_specs, auts)| {
            let orgs: Vec<WhoisOrg> = org_specs
                .iter()
                .map(|(id, (name, rir))| WhoisOrg {
                    id: WhoisOrgId::new(format!("ORG-{id}")),
                    name: OrgName::new(name),
                    country: "US".parse().unwrap(),
                    source: *rir,
                    changed: 20240000 + id % 1000,
                })
                .collect();
            let org_ids: Vec<WhoisOrgId> = orgs.iter().map(|o| o.id.clone()).collect();
            let auts: Vec<AutNum> = auts
                .into_iter()
                .map(|(asn, org_idx)| AutNum {
                    asn: Asn::new(asn),
                    name: format!("NET{asn}"),
                    org: org_ids[org_idx % org_ids.len()].clone(),
                    source: Rir::Arin,
                    changed: 0,
                })
                .collect();
            WhoisRegistry::builder()
                .extend(orgs, auts)
                .build()
                .expect("generated registries are consistent")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_preserves_the_relation(registry in registry_strategy()) {
        let text = as2org_format::serialize(&registry);
        let parsed = as2org_format::parse(&text).expect("own output parses");
        prop_assert_eq!(parsed.asn_count(), registry.asn_count());
        prop_assert_eq!(parsed.org_count(), registry.org_count());
        for asn in registry.all_asns() {
            let before = registry.org_of(asn).unwrap();
            let after = parsed.org_of(asn).unwrap();
            prop_assert_eq!(&before.id, &after.id);
            prop_assert_eq!(&before.name, &after.name);
            prop_assert_eq!(before.source, after.source);
        }
    }

    #[test]
    fn serialization_is_a_fixed_point(registry in registry_strategy()) {
        let once = as2org_format::serialize(&registry);
        let twice = as2org_format::serialize(&as2org_format::parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn parser_never_panics_on_mutations(
        registry in registry_strategy(),
        cut in 0usize..500,
    ) {
        // Truncating a valid file at an arbitrary byte must produce
        // either a clean parse or a clean error — never a panic.
        let text = as2org_format::serialize(&registry);
        let cut = cut.min(text.len());
        let mut truncated = text[..cut].to_string();
        while !truncated.is_char_boundary(truncated.len()) {
            truncated.pop();
        }
        let _ = as2org_format::parse(&truncated);
    }
}

/// The CAIDA parser and the registry build as they were before the bulk
/// rewrite (one `BTreeMap` insert per record, the org-reference check run
/// in both), kept as the reference the rewrite must agree with.
mod reference {
    use borges_types::{Asn, CountryCode, OrgName, ParseError, WhoisOrgId};
    use borges_whois::as2org_format::As2orgError;
    use borges_whois::{AutNum, RegistryError, Rir, WhoisOrg};
    use std::collections::{BTreeMap, BTreeSet};

    /// The three indexes the registry keeps.
    pub struct Registry {
        pub orgs: BTreeMap<WhoisOrgId, WhoisOrg>,
        pub auts: BTreeMap<Asn, AutNum>,
        pub members: BTreeMap<WhoisOrgId, BTreeSet<Asn>>,
    }

    fn rir(s: &str) -> Result<Rir, ParseError> {
        match s.trim().to_ascii_uppercase().as_str() {
            "ARIN" => Ok(Rir::Arin),
            "RIPE" | "RIPENCC" | "RIPE-NCC" => Ok(Rir::RipeNcc),
            "APNIC" => Ok(Rir::Apnic),
            "LACNIC" => Ok(Rir::Lacnic),
            "AFRINIC" => Ok(Rir::Afrinic),
            "NIR" | "JPNIC" | "TWNIC" | "KRNIC" | "CNNIC" | "IDNIC" | "VNNIC" => Ok(Rir::Nir),
            _ => Err(ParseError::new("rir", s, "unknown registry source")),
        }
    }

    pub fn build(orgs: Vec<WhoisOrg>, auts: Vec<AutNum>) -> Result<Registry, RegistryError> {
        let mut org_map: BTreeMap<WhoisOrgId, WhoisOrg> = BTreeMap::new();
        for org in orgs {
            if org.id.is_empty() {
                return Err(RegistryError::EmptyOrgId);
            }
            if org_map.insert(org.id.clone(), org.clone()).is_some() {
                return Err(RegistryError::DuplicateOrg(org.id));
            }
        }
        let mut aut_map: BTreeMap<Asn, AutNum> = BTreeMap::new();
        let mut members: BTreeMap<WhoisOrgId, BTreeSet<Asn>> = BTreeMap::new();
        for aut in auts {
            if !org_map.contains_key(&aut.org) {
                return Err(RegistryError::DanglingOrgRef {
                    asn: aut.asn,
                    org: aut.org,
                });
            }
            if aut_map.insert(aut.asn, aut.clone()).is_some() {
                return Err(RegistryError::DuplicateAsn(aut.asn));
            }
            members.entry(aut.org.clone()).or_default().insert(aut.asn);
        }
        Ok(Registry {
            orgs: org_map,
            auts: aut_map,
            members,
        })
    }

    pub fn parse(text: &str) -> Result<Registry, As2orgError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Section {
            None,
            Org,
            Aut,
        }
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
                continue;
            }
            let fields: Vec<&str> = line.split('|').collect();
            match section {
                Section::None => return Err(As2orgError::MissingHeader { line: line_no }),
                Section::Org => {
                    if fields.len() != 5 {
                        return Err(As2orgError::FieldCount {
                            line: line_no,
                            found: fields.len(),
                            expected: 5,
                        });
                    }
                    let country: CountryCode =
                        fields[3].parse().map_err(|source| As2orgError::BadField {
                            line: line_no,
                            field: "country",
                            source,
                        })?;
                    let source = rir(fields[4]).map_err(|source| As2orgError::BadField {
                        line: line_no,
                        field: "source",
                        source,
                    })?;
                    orgs.push(WhoisOrg {
                        id: WhoisOrgId::new(fields[0]),
                        changed: fields[1].parse().unwrap_or(0),
                        name: OrgName::new(fields[2]),
                        country,
                        source,
                    });
                }
                Section::Aut => {
                    if fields.len() != 6 {
                        return Err(As2orgError::FieldCount {
                            line: line_no,
                            found: fields.len(),
                            expected: 6,
                        });
                    }
                    let asn: Asn = fields[0].parse().map_err(|source| As2orgError::BadField {
                        line: line_no,
                        field: "aut",
                        source,
                    })?;
                    let source = rir(fields[5]).map_err(|source| As2orgError::BadField {
                        line: line_no,
                        field: "source",
                        source,
                    })?;
                    auts.push(AutNum {
                        asn,
                        changed: fields[1].parse().unwrap_or(0),
                        name: fields[2].to_string(),
                        org: WhoisOrgId::new(fields[3]),
                        source,
                    });
                }
            }
        }

        let known: BTreeSet<&WhoisOrgId> = orgs.iter().map(|o| &o.id).collect();
        let mut placeholders: Vec<WhoisOrg> = Vec::new();
        let mut seen_placeholder: BTreeSet<WhoisOrgId> = BTreeSet::new();
        for aut in &auts {
            if !known.contains(&aut.org) && seen_placeholder.insert(aut.org.clone()) {
                placeholders.push(WhoisOrg {
                    id: aut.org.clone(),
                    name: OrgName::new(aut.org.as_str()),
                    country: "ZZ".parse().expect("ZZ is two letters"),
                    source: aut.source,
                    changed: 0,
                });
            }
        }
        orgs.extend(placeholders);

        Ok(build(orgs, auts)?)
    }
}

/// Asserts that a registry holds exactly what the reference built.
fn assert_same_registry(built: &WhoisRegistry, reference: &reference::Registry) {
    assert!(built.orgs().eq(reference.orgs.values()), "org records");
    assert!(
        built.aut_nums().eq(reference.auts.values()),
        "aut-num records"
    );
    assert_eq!(built.asn_count(), reference.auts.len());
    assert_eq!(built.org_count(), reference.orgs.len());
    assert_eq!(built.populated_org_count(), reference.members.len());
    for id in reference.orgs.keys() {
        let members: Vec<Asn> = reference
            .members
            .get(id)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        assert_eq!(built.asns_of(id).collect::<Vec<_>>(), members, "{id}");
    }
    for aut in reference.auts.values() {
        assert_eq!(built.org_of(aut.asn), reference.orgs.get(&aut.org));
    }
}

/// One edit of a serialized registry. The numbers pick lines and
/// positions modulo what the text has.
type Mutation = (u8, usize, usize, u8);

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (0u8..9, any::<usize>(), any::<usize>(), 0u8..3)
}

/// `handle` as a registry might spell it: as is, lower-cased, or padded.
fn respelled(handle: &str, spelling: u8) -> String {
    match spelling {
        0 => handle.to_string(),
        1 => handle.to_ascii_lowercase(),
        _ => format!("  {handle} "),
    }
}

fn with_field(line: &str, field: usize, value: &str) -> String {
    let mut fields: Vec<&str> = line.split('|').collect();
    fields[field] = value;
    fields.join("|")
}

/// The serialized `registry` with `mutations` applied in turn.
fn mutated(registry: &WhoisRegistry, mutations: &[Mutation]) -> String {
    use as2org_format::{AUT_HEADER, ORG_HEADER};
    let text = as2org_format::serialize(registry);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(ORG_HEADER));
    let mut orgs: Vec<String> = Vec::new();
    for line in lines.by_ref().take_while(|line| *line != AUT_HEADER) {
        orgs.push(line.to_string());
    }
    let mut auts: Vec<String> = lines.map(str::to_string).collect();
    let (mut before, mut after) = (Vec::new(), Vec::new());
    let mut cut = None;
    for &(kind, pick, at, spelling) in mutations {
        let org = orgs[pick % orgs.len()].clone();
        let aut = auts[pick % auts.len()].clone();
        let handle = org.split('|').next().unwrap().to_string();
        match kind {
            // A second record for a handle, spelled as registries might.
            0 => {
                let copy = with_field(&org, 0, &respelled(&handle, spelling));
                orgs.insert(at % (orgs.len() + 1), copy);
            }
            // A second aut-num for an ASN, maybe naming another org.
            1 => {
                let other = orgs[at % orgs.len()].split('|').next().unwrap().to_string();
                let copy = with_field(&aut, 3, &respelled(&other, spelling));
                auts.insert(at % (auts.len() + 1), copy);
            }
            // An aut-num naming a handle no org record has, or none.
            2 => {
                let missing = match spelling {
                    0 => "MISSING-1".to_string(),
                    1 => "missing-1".to_string(),
                    _ => " ".to_string(),
                };
                let i = pick % auts.len();
                auts[i] = with_field(&aut, 3, &missing);
            }
            // An unknown registry, on an org or an aut-num.
            3 if spelling == 0 => {
                let i = pick % auts.len();
                auts[i] = with_field(&aut, 5, "IANA");
            }
            3 => {
                let i = pick % orgs.len();
                orgs[i] = with_field(&org, 4, "iana");
            }
            // A country that is not two letters.
            4 => {
                let i = pick % orgs.len();
                orgs[i] = with_field(&org, 3, ["USA", "", "U1"][usize::from(spelling)]);
            }
            // Data before any header.
            5 => before.push(if spelling == 0 { aut } else { org }),
            // An org section after the aut section: a late definition of a
            // handle that may dangle, or a repeat.
            6 => {
                after.push(ORG_HEADER.to_string());
                after.push(if spelling == 0 {
                    org
                } else {
                    format!("{}|0|Late|US|ARIN", respelled("MISSING-1", spelling))
                });
            }
            // Fields added or lost.
            7 => {
                let i = pick % auts.len();
                auts[i] = if spelling == 0 {
                    format!("{aut}|extra")
                } else {
                    aut.rsplit_once('|').unwrap().0.to_string()
                };
            }
            _ => cut = Some(at),
        }
    }
    let mut text = String::new();
    for line in before
        .iter()
        .chain([&ORG_HEADER.to_string()])
        .chain(&orgs)
        .chain([&AUT_HEADER.to_string()])
        .chain(&auts)
        .chain(&after)
    {
        text.push_str(line);
        text.push('\n');
    }
    if let Some(at) = cut {
        // Every generated byte is ASCII, so any byte is a cut point.
        text.truncate(at % (text.len() + 1));
    }
    text
}

/// Records for a direct `build`, drawn from small handle and ASN spaces
/// so that repeats are common. Most aut-nums name one of the drawn
/// handles (respelled); the rest name one that may be missing or empty.
fn records_strategy() -> impl Strategy<Value = (Vec<WhoisOrg>, Vec<AutNum>)> {
    (
        prop::collection::vec((0u8..40, 0u8..3), 0..10),
        prop::collection::vec((1u32..40, 0u8..50, 0u8..3), 0..14),
    )
        .prop_map(|(orgs, auts)| {
            let handle = |n: u8| match n {
                0 => String::new(),
                n => format!("ORG-{n}"),
            };
            let orgs: Vec<WhoisOrg> = orgs
                .into_iter()
                .map(|(n, spelling)| WhoisOrg {
                    id: WhoisOrgId::new(respelled(&handle(n), spelling)),
                    name: OrgName::new(format!("Org {n}")),
                    country: "US".parse().unwrap(),
                    source: Rir::Arin,
                    changed: u32::from(n),
                })
                .collect();
            let auts = auts
                .into_iter()
                .map(|(asn, pick, spelling)| {
                    let named = match orgs.get(usize::from(pick) % orgs.len().max(1)) {
                        Some(org) if pick >= 5 => org.id.as_str().to_string(),
                        _ => handle(pick),
                    };
                    AutNum {
                        asn: Asn::new(asn),
                        name: format!("NET{asn}"),
                        org: WhoisOrgId::new(respelled(&named, spelling)),
                        source: Rir::RipeNcc,
                        changed: asn,
                    }
                })
                .collect();
            (orgs, auts)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_agrees_with_the_reference_on_mutated_files(
        registry in registry_strategy(),
        mutations in prop::collection::vec(mutation_strategy(), 0..4),
    ) {
        let text = mutated(&registry, &mutations);
        match (as2org_format::parse(&text), reference::parse(&text)) {
            (Ok(built), Ok(reference)) => assert_same_registry(&built, &reference),
            (Err(built), Err(reference)) => {
                prop_assert_eq!(format!("{built:?}"), format!("{reference:?}"), "{}", text);
            }
            (built, reference) => panic!(
                "parse: {:?}, reference: {:?}\n{text}",
                built.map(|r| r.asn_count()),
                reference.map(|r| r.auts.len())
            ),
        }
    }

    #[test]
    fn build_agrees_with_the_reference((orgs, auts) in records_strategy()) {
        let built = WhoisRegistry::builder()
            .extend(orgs.clone(), auts.clone())
            .build();
        match (built, reference::build(orgs, auts)) {
            (Ok(built), Ok(reference)) => assert_same_registry(&built, &reference),
            (Err(built), Err(reference)) => prop_assert_eq!(built, reference),
            (built, reference) => panic!(
                "build: {:?}, reference: {:?}",
                built.map(|r| r.asn_count()),
                reference.map(|r| r.auts.len())
            ),
        }
    }
}
