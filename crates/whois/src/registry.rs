//! The in-memory WHOIS registry.
//!
//! [`WhoisRegistry`] is the queryable substrate: an indexed, referentially
//! consistent collection of [`WhoisOrg`] and [`AutNum`] records. It is
//! immutable once built — the pipeline treats a registry like the paper
//! treats a CAIDA snapshot: a frozen input dated to a snapshot day.

use crate::schema::{AutNum, WhoisOrg};
use borges_types::{Asn, OrgName, WhoisOrgId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// Referential-integrity failures detected at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Two org records share a handle.
    DuplicateOrg(WhoisOrgId),
    /// Two aut-num records cover the same ASN.
    DuplicateAsn(Asn),
    /// An aut-num references a handle with no org record.
    DanglingOrgRef {
        /// The offending ASN.
        asn: Asn,
        /// The missing handle.
        org: WhoisOrgId,
    },
    /// An org handle is empty.
    EmptyOrgId,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateOrg(id) => write!(f, "duplicate organization {id}"),
            RegistryError::DuplicateAsn(asn) => write!(f, "duplicate aut-num for {asn}"),
            RegistryError::DanglingOrgRef { asn, org } => {
                write!(f, "{asn} references unknown organization {org}")
            }
            RegistryError::EmptyOrgId => write!(f, "empty organization handle"),
        }
    }
}

impl Error for RegistryError {}

/// Builder accumulating records before integrity validation.
#[derive(Debug, Default)]
pub struct WhoisRegistryBuilder {
    orgs: Vec<WhoisOrg>,
    auts: Vec<AutNum>,
}

impl WhoisRegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an organization record.
    pub fn org(mut self, org: WhoisOrg) -> Self {
        self.orgs.push(org);
        self
    }

    /// Adds an aut-num record.
    pub fn aut(mut self, aut: AutNum) -> Self {
        self.auts.push(aut);
        self
    }

    /// Adds many records at once.
    pub fn extend(
        mut self,
        orgs: impl IntoIterator<Item = WhoisOrg>,
        auts: impl IntoIterator<Item = AutNum>,
    ) -> Self {
        self.orgs.extend(orgs);
        self.auts.extend(auts);
        self
    }

    /// Validates referential integrity and freezes the registry.
    ///
    /// On a violation, the error names the first failing record in input
    /// order: organizations are checked before aut-nums, and an aut-num
    /// that both dangles and repeats an ASN reports the dangling handle.
    pub fn build(self) -> Result<WhoisRegistry, RegistryError> {
        assemble(self.orgs, self.auts, Dangling::Reject)
    }

    /// [`build`](Self::build), except that an aut-num naming a handle
    /// with no org record gets a placeholder organization (the handle as
    /// its name, country `ZZ`, the first such aut-num's source), appended
    /// after the given organizations. The file parsers use this: real
    /// CAIDA and RPSL dumps contain a handful of dangling references.
    pub(crate) fn build_with_placeholders(self) -> Result<WhoisRegistry, RegistryError> {
        assemble(self.orgs, self.auts, Dangling::Placeholder)
    }
}

/// What [`assemble`] does with an aut-num whose handle has no org record.
#[derive(Clone, Copy, PartialEq)]
enum Dangling {
    Reject,
    Placeholder,
}

/// Builds the three indexes in bulk: every record is checked once, the
/// maps are collected from handle- or ASN-sorted vectors, and duplicates
/// are found between neighbours of those vectors.
fn assemble(
    orgs: Vec<WhoisOrg>,
    auts: Vec<AutNum>,
    dangling: Dangling,
) -> Result<WhoisRegistry, RegistryError> {
    let mut orgs = sorted_by_handle(orgs)?;

    // The one reference check: each aut-num's handle resolves to a
    // position in `orgs`, placeholders (if any) going after the records.
    let index: HashMap<&WhoisOrgId, usize> = orgs.iter().map(|o| &o.id).zip(0..).collect();
    let mut positions: Vec<usize> = Vec::with_capacity(auts.len());
    let mut placeholders: Vec<WhoisOrg> = Vec::new();
    let mut placeholder_at: BTreeMap<&WhoisOrgId, usize> = BTreeMap::new();
    let mut first_dangling = None;
    for (i, aut) in auts.iter().enumerate() {
        if let Some(&at) = index.get(&aut.org) {
            positions.push(at);
        } else if dangling == Dangling::Reject {
            first_dangling = Some(i);
            break;
        } else {
            let at = *placeholder_at.entry(&aut.org).or_insert_with(|| {
                placeholders.push(WhoisOrg {
                    id: aut.org.clone(),
                    name: OrgName::new(aut.org.as_str()),
                    country: "ZZ".parse().expect("ZZ is two letters"),
                    source: aut.source,
                    changed: 0,
                });
                orgs.len() + placeholders.len() - 1
            });
            positions.push(at);
        }
    }
    if placeholders.iter().any(|o| o.id.is_empty()) {
        return Err(RegistryError::EmptyOrgId);
    }
    // Only aut-nums before the first dangling one can fail earlier.
    if let Some(i) = first_repeated_asn(&auts[..first_dangling.unwrap_or(auts.len())]) {
        return Err(RegistryError::DuplicateAsn(auts[i].asn));
    }
    if let Some(i) = first_dangling {
        return Err(RegistryError::DanglingOrgRef {
            asn: auts[i].asn,
            org: auts[i].org.clone(),
        });
    }
    orgs.extend(placeholders);

    let mut owned: Vec<(usize, Asn)> = positions
        .into_iter()
        .zip(auts.iter().map(|a| a.asn))
        .collect();
    owned.sort_unstable();
    let mut members: Vec<(WhoisOrgId, BTreeSet<Asn>)> = Vec::new();
    let mut last = None;
    for (at, asn) in owned {
        if last != Some(at) {
            members.push((orgs[at].id.clone(), BTreeSet::new()));
            last = Some(at);
        }
        members.last_mut().expect("pushed above").1.insert(asn);
    }
    Ok(WhoisRegistry {
        members: members.into_iter().collect(),
        orgs: orgs.into_iter().map(|o| (o.id.clone(), o)).collect(),
        auts: auts.into_iter().map(|a| (a.asn, a)).collect(),
    })
}

/// The organizations in handle order, or the first one in input order
/// that has an empty handle or repeats an earlier one.
fn sorted_by_handle(mut orgs: Vec<WhoisOrg>) -> Result<Vec<WhoisOrg>, RegistryError> {
    let first_empty = orgs.iter().position(|o| o.id.is_empty());
    if orgs.windows(2).any(|w| w[0].id >= w[1].id) {
        let repeat = first_repeat(orgs.iter().map(|o| &o.id));
        if let Some(i) = repeat.filter(|&i| first_empty.map_or(true, |e| i < e)) {
            return Err(RegistryError::DuplicateOrg(orgs.swap_remove(i).id));
        }
        orgs.sort_unstable_by(|a, b| a.id.cmp(&b.id));
    }
    match first_empty {
        Some(_) => Err(RegistryError::EmptyOrgId),
        None => Ok(orgs),
    }
}

/// The position of the first aut-num whose ASN an earlier one holds.
fn first_repeated_asn(auts: &[AutNum]) -> Option<usize> {
    if auts.windows(2).all(|w| w[0].asn < w[1].asn) {
        return None;
    }
    first_repeat(auts.iter().map(|a| a.asn))
}

/// The position of the first key equal to an earlier one. Sorted by key
/// and then position, the later of two equal neighbours is a repeat.
fn first_repeat<K: Ord>(keys: impl Iterator<Item = K>) -> Option<usize> {
    let mut order: Vec<(K, usize)> = keys.zip(0..).collect();
    order.sort_unstable();
    order
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min()
}

/// A frozen, indexed WHOIS snapshot.
#[derive(Debug, Clone, Default)]
pub struct WhoisRegistry {
    orgs: BTreeMap<WhoisOrgId, WhoisOrg>,
    auts: BTreeMap<Asn, AutNum>,
    members: BTreeMap<WhoisOrgId, BTreeSet<Asn>>,
}

impl WhoisRegistry {
    /// A builder for a new registry.
    pub fn builder() -> WhoisRegistryBuilder {
        WhoisRegistryBuilder::new()
    }

    /// The organization owning `asn`, if allocated.
    pub fn org_of(&self, asn: Asn) -> Option<&WhoisOrg> {
        self.auts.get(&asn).and_then(|a| self.orgs.get(&a.org))
    }

    /// The aut-num record for `asn`.
    pub fn aut_num(&self, asn: Asn) -> Option<&AutNum> {
        self.auts.get(&asn)
    }

    /// The organization record for a handle.
    pub fn org(&self, id: &WhoisOrgId) -> Option<&WhoisOrg> {
        self.orgs.get(id)
    }

    /// All ASNs registered to an organization (ascending).
    pub fn asns_of(&self, id: &WhoisOrgId) -> impl Iterator<Item = Asn> + '_ {
        self.members
            .get(id)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Iterates all allocated ASNs in ascending order. This is the vertex
    /// universe of the Organization Factor graph (§5.4).
    pub fn all_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.auts.keys().copied()
    }

    /// Iterates all aut-num records in ASN order.
    pub fn aut_nums(&self) -> impl Iterator<Item = &AutNum> {
        self.auts.values()
    }

    /// Iterates all organization records in handle order.
    pub fn orgs(&self) -> impl Iterator<Item = &WhoisOrg> {
        self.orgs.values()
    }

    /// Number of allocated ASNs.
    pub fn asn_count(&self) -> usize {
        self.auts.len()
    }

    /// Number of organizations that own at least one ASN.
    pub fn populated_org_count(&self) -> usize {
        self.members.len()
    }

    /// Number of organization records (including ASN-less ones).
    pub fn org_count(&self) -> usize {
        self.orgs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Rir;
    use borges_types::OrgName;

    fn org(id: &str) -> WhoisOrg {
        WhoisOrg {
            id: WhoisOrgId::new(id),
            name: OrgName::new(format!("{id} name")),
            country: "US".parse().unwrap(),
            source: Rir::Arin,
            changed: 20240701,
        }
    }

    fn aut(asn: u32, org: &str) -> AutNum {
        AutNum {
            asn: Asn::new(asn),
            name: format!("NET{asn}"),
            org: WhoisOrgId::new(org),
            source: Rir::Arin,
            changed: 20240701,
        }
    }

    #[test]
    fn builds_and_indexes() {
        let reg = WhoisRegistry::builder()
            .org(org("A"))
            .org(org("B"))
            .aut(aut(1, "A"))
            .aut(aut(2, "A"))
            .aut(aut(3, "B"))
            .build()
            .unwrap();
        assert_eq!(reg.asn_count(), 3);
        assert_eq!(reg.org_count(), 2);
        assert_eq!(reg.org_of(Asn::new(1)).unwrap().id, WhoisOrgId::new("A"));
        let members: Vec<Asn> = reg.asns_of(&WhoisOrgId::new("A")).collect();
        assert_eq!(members, vec![Asn::new(1), Asn::new(2)]);
    }

    #[test]
    fn rejects_duplicate_org() {
        let err = WhoisRegistry::builder()
            .org(org("A"))
            .org(org("A"))
            .build()
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateOrg(WhoisOrgId::new("A")));
    }

    #[test]
    fn rejects_duplicate_asn() {
        let err = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(1, "A"))
            .aut(aut(1, "A"))
            .build()
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateAsn(Asn::new(1)));
    }

    #[test]
    fn rejects_dangling_reference() {
        let err = WhoisRegistry::builder()
            .aut(aut(1, "MISSING"))
            .build()
            .unwrap_err();
        assert!(matches!(err, RegistryError::DanglingOrgRef { .. }));
    }

    #[test]
    fn rejects_empty_handle() {
        let mut o = org("A");
        o.id = WhoisOrgId::new("");
        let err = WhoisRegistry::builder().org(o).build().unwrap_err();
        assert_eq!(err, RegistryError::EmptyOrgId);
    }

    #[test]
    fn with_two_faults_the_first_in_input_order_is_reported() {
        let build = |orgs: Vec<WhoisOrg>, auts: Vec<AutNum>| {
            WhoisRegistry::builder().extend(orgs, auts).build()
        };
        let empty = || {
            let mut o = org("X");
            o.id = WhoisOrgId::new("");
            o
        };
        // Org faults: an empty handle against a repeated one.
        let err = build(vec![org("A"), empty(), org("A")], vec![]).unwrap_err();
        assert_eq!(err, RegistryError::EmptyOrgId);
        let err = build(vec![org("A"), org("a"), empty()], vec![]).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateOrg(WhoisOrgId::new("A")));
        // Two repeated handles, out of handle order: the earlier repeat.
        let err = build(vec![org("B"), org("A"), org("A"), org("B")], vec![]).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateOrg(WhoisOrgId::new("A")));
        let err = build(vec![org("B"), org("A"), org("B"), org("A")], vec![]).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateOrg(WhoisOrgId::new("B")));
        // Aut-num faults: a dangling handle against a repeated ASN.
        let orgs = || vec![org("A")];
        let err = build(orgs(), vec![aut(1, "A"), aut(2, "NOPE"), aut(1, "A")]).unwrap_err();
        assert!(matches!(err, RegistryError::DanglingOrgRef { asn, .. } if asn == Asn::new(2)));
        let err = build(orgs(), vec![aut(1, "A"), aut(1, "A"), aut(2, "NOPE")]).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateAsn(Asn::new(1)));
        // One aut-num with both faults reports the dangling handle.
        let err = build(orgs(), vec![aut(1, "A"), aut(1, "NOPE")]).unwrap_err();
        assert!(matches!(err, RegistryError::DanglingOrgRef { asn, .. } if asn == Asn::new(1)));
        // Two repeated ASNs, out of ASN order: the earlier repeat.
        let auts = vec![aut(3, "A"), aut(1, "A"), aut(3, "A"), aut(1, "A")];
        assert_eq!(
            build(orgs(), auts).unwrap_err(),
            RegistryError::DuplicateAsn(Asn::new(3))
        );
        // Any org fault comes before any aut-num fault.
        let err = build(vec![org("A"), org("A")], vec![aut(1, "NOPE")]).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateOrg(WhoisOrgId::new("A")));
    }

    #[test]
    fn orgs_without_asns_are_counted_but_not_populated() {
        let reg = WhoisRegistry::builder()
            .org(org("A"))
            .org(org("EMPTY"))
            .aut(aut(1, "A"))
            .build()
            .unwrap();
        assert_eq!(reg.org_count(), 2);
        assert_eq!(reg.populated_org_count(), 1);
    }

    #[test]
    fn all_asns_is_sorted() {
        let reg = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(30, "A"))
            .aut(aut(10, "A"))
            .aut(aut(20, "A"))
            .build()
            .unwrap();
        let asns: Vec<u32> = reg.all_asns().map(Asn::value).collect();
        assert_eq!(asns, vec![10, 20, 30]);
    }

    #[test]
    fn unknown_lookups_return_none() {
        let reg = WhoisRegistry::builder().build().unwrap();
        assert!(reg.org_of(Asn::new(999)).is_none());
        assert!(reg.org(&WhoisOrgId::new("X")).is_none());
        assert_eq!(reg.asns_of(&WhoisOrgId::new("X")).count(), 0);
    }
}
