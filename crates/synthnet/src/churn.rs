//! Small, controlled snapshot churn for incremental-remap testing.
//!
//! [`SyntheticInternet::evolve`] models *corporate* events: it changes
//! the records of the organizations an event names and no others, so
//! how many records move, and of which kinds, follows from the events.
//! [`churn`] is the complementary tool for measuring how an incremental
//! pipeline behaves as a dial of records move: it mutates a chosen
//! percentage of records, spread over the whole world and cycling
//! through every mutation kind, **in place**, and leaves every other
//! byte of the emitted views untouched, so a T → T+1 pair with 1% churn
//! really is 99% identical at the record level.
//!
//! Selection and mutation are pure functions of `(seed, asn)`: the same
//! call always produces the same successor world, which is what lets the
//! remap benchmark and the equivalence tests share fixtures.

use crate::SyntheticInternet;
use borges_peeringdb::PdbSnapshot;
use borges_types::{Asn, WhoisOrgId};
use borges_whois::{AutNum, WhoisOrg, WhoisRegistry};

/// What a [`churn`] call did, per mutation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// ASNs selected for mutation.
    pub selected: usize,
    /// WHOIS aut-num records with a bumped `changed` date (metadata-only
    /// churn: the record fingerprint moves, the org partition does not).
    pub auts_touched: usize,
    /// PeeringDB networks with text appended to `notes` (dirties the
    /// NER input for that subject).
    pub notes_appended: usize,
    /// WHOIS aut-nums moved to a different organization (real partition
    /// churn in `OID_W`).
    pub auts_reassigned: usize,
    /// WHOIS organizations renamed (record churn that leaves the
    /// partition intact).
    pub orgs_renamed: usize,
    /// PeeringDB networks removed outright.
    pub nets_removed: usize,
}

/// FNV-1a over `(seed, asn)` — a stable, platform-independent selector.
fn select_hash(seed: u64, asn: Asn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in seed.to_le_bytes().iter().chain(&asn.value().to_le_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Produces the successor snapshot with roughly `percent` of ASNs
/// mutated, deterministically in `seed`. Mutation kinds are cycled by
/// the selection hash so every call mixes metadata-only churn, NER text
/// churn, organization reassignment, organization renames, and record
/// removal. `percent` is clamped to `[0, 100]`; 0 returns a record-level
/// identical world, 100 touches every ASN.
pub fn churn(
    world: &SyntheticInternet,
    percent: f64,
    seed: u64,
) -> (SyntheticInternet, ChurnReport) {
    let threshold = (percent.clamp(0.0, 100.0) * 100.0) as u64;
    let mut report = ChurnReport::default();

    let mut orgs: Vec<WhoisOrg> = world.whois.orgs().cloned().collect();
    orgs.sort_by(|a, b| a.id.cmp(&b.id));
    let org_ids: Vec<WhoisOrgId> = orgs.iter().map(|o| o.id.clone()).collect();
    let mut auts: Vec<AutNum> = world.whois.aut_nums().cloned().collect();
    auts.sort_by_key(|a| a.asn);
    let mut nets: Vec<borges_peeringdb::PdbNetwork> = world.pdb.nets().cloned().collect();
    nets.sort_by_key(|n| n.id);
    let mut removed_nets: Vec<u64> = Vec::new();
    let mut renamed_orgs: Vec<WhoisOrgId> = Vec::new();

    for aut in &mut auts {
        let h = select_hash(seed, aut.asn);
        if h % 10_000 >= threshold {
            continue;
        }
        report.selected += 1;
        let net_idx = nets.iter().position(|n| n.asn == aut.asn);
        match (h >> 32) % 5 {
            1 if net_idx.is_some() => {
                let net = &mut nets[net_idx.expect("guarded")];
                net.notes.push_str(" Churn revision.");
                report.notes_appended += 1;
            }
            2 if org_ids.len() > 1 => {
                let at = org_ids
                    .binary_search(&aut.org)
                    .unwrap_or_else(|insert_at| insert_at % org_ids.len());
                aut.org = org_ids[(at + 1) % org_ids.len()].clone();
                report.auts_reassigned += 1;
            }
            3 => {
                if !renamed_orgs.contains(&aut.org) {
                    renamed_orgs.push(aut.org.clone());
                }
            }
            4 if net_idx.is_some() => {
                removed_nets.push(nets[net_idx.expect("guarded")].id);
                report.nets_removed += 1;
            }
            _ => {
                aut.changed = aut.changed.wrapping_add(1);
                report.auts_touched += 1;
            }
        }
    }

    for org in &mut orgs {
        if renamed_orgs.contains(&org.id) {
            org.name = borges_types::OrgName::new(format!("{} Holdings", org.name.as_str()));
            report.orgs_renamed += 1;
        }
    }
    nets.retain(|n| !removed_nets.contains(&n.id));

    let whois = WhoisRegistry::builder()
        .extend(orgs, auts)
        .build()
        .expect("churn preserves referential integrity");
    let pdb = PdbSnapshot::builder()
        .extend(world.pdb.orgs().cloned(), nets)
        .build()
        .expect("churn preserves referential integrity");

    (
        SyntheticInternet {
            config: world.config.clone(),
            truth: world.truth.clone(),
            whois,
            pdb,
            web: world.web.clone(),
            topology: world.topology.clone(),
            populations: world.populations.clone(),
            asrank: world.asrank.clone(),
            hypergiants: world.hypergiants.clone(),
            text_labels: world.text_labels.clone(),
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratorConfig;

    fn world() -> SyntheticInternet {
        SyntheticInternet::generate(&GeneratorConfig::tiny(17))
    }

    fn whois_text(w: &WhoisRegistry) -> String {
        let orgs: Vec<_> = w.orgs().collect();
        let auts: Vec<_> = w.aut_nums().collect();
        format!("{orgs:?}\n{auts:?}")
    }

    #[test]
    fn zero_churn_is_a_record_level_identity() {
        let before = world();
        let (after, report) = churn(&before, 0.0, 9);
        assert_eq!(report, ChurnReport::default());
        assert_eq!(whois_text(&after.whois), whois_text(&before.whois));
        assert_eq!(after.pdb.to_json(), before.pdb.to_json());
    }

    #[test]
    fn churn_is_deterministic_in_seed() {
        let before = world();
        let (a, ra) = churn(&before, 10.0, 9);
        let (b, rb) = churn(&before, 10.0, 9);
        assert_eq!(ra, rb);
        assert_eq!(whois_text(&a.whois), whois_text(&b.whois));
        assert_eq!(a.pdb.to_json(), b.pdb.to_json());
        // A different seed picks a different mutation set.
        let (_, rc) = churn(&before, 10.0, 10);
        assert_ne!(ra, rc);
    }

    #[test]
    fn full_churn_touches_every_asn_and_mixes_kinds() {
        let before = world();
        let (after, report) = churn(&before, 100.0, 9);
        assert_eq!(report.selected, before.whois.asn_count());
        assert!(report.auts_touched > 0, "{report:?}");
        assert!(report.notes_appended > 0, "{report:?}");
        assert!(report.auts_reassigned > 0, "{report:?}");
        assert!(report.orgs_renamed > 0, "{report:?}");
        assert!(report.nets_removed > 0, "{report:?}");
        assert_eq!(
            after.pdb.net_count(),
            before.pdb.net_count() - report.nets_removed
        );
        // The ASN universe is preserved: churn mutates records, it does
        // not deallocate ASNs from WHOIS.
        assert_eq!(after.whois.asn_count(), before.whois.asn_count());
    }

    #[test]
    fn small_churn_selects_roughly_the_requested_fraction() {
        let before = world();
        let total = before.whois.asn_count();
        let (_, report) = churn(&before, 1.0, 9);
        assert!(report.selected > 0, "1% of {total} must select something");
        assert!(
            report.selected * 20 < total,
            "1% churn selected {} of {total}",
            report.selected
        );
    }
}
