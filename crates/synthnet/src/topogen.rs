//! Topology emission: an AS-relationship graph consistent with the
//! organizational ground truth.
//!
//! The generated graph follows the Internet's well-known hierarchy:
//!
//! * **tier 1** — the largest transit organizations' flagships, peering
//!   in a clique and selling transit to everyone below;
//! * **tier 2 / regional** — smaller transit orgs buying from tier 1 and
//!   serving the long tail;
//! * **conglomerates** — the flagship buys transit upstream and provides
//!   for its own subsidiaries (intra-organization hierarchy);
//! * **hypergiants** — peer broadly (they are content, not transit);
//! * **stubs** — everyone else buys from 1–3 providers.
//!
//! AS-Rank (customer-cone size, `borges_topology::rank`) computed over
//! this graph is what §6.1's Figure 8 sorts by: organizations whose
//! flagships rank highest are exactly the multi-ASN transit orgs whose
//! consolidation Borges measures.

use crate::dist::weighted_idx;
use crate::orgmodel::OrgKind;
use borges_topology::{AsGraph, AsGraphBuilder};
use borges_types::Asn;
use rand::rngs::StdRng;
use rand::Rng;

/// The per-organization summary topology emission needs: the category
/// and the unit ASNs in declaration order (the first is the flagship).
/// The emission pass keeps one of these per organization, a few bytes
/// per ASN, rather than whole [`crate::orgmodel::TruthOrg`]s.
pub(crate) struct OrgTopo {
    pub(crate) kind: OrgKind,
    pub(crate) asns: Vec<Asn>,
}

impl OrgTopo {
    pub(crate) fn of(org: &crate::orgmodel::TruthOrg) -> Self {
        OrgTopo {
            kind: org.kind,
            asns: org.units.iter().map(|u| u.asn).collect(),
        }
    }
}

/// Builds the relationship graph over the per-organization summaries,
/// in the truth's organization order.
pub(crate) fn emit_topology(orgs: &[OrgTopo], rng: &mut StdRng) -> AsGraph {
    let mut builder = AsGraphBuilder::new();

    // Classify provider pools.
    let mut tier1: Vec<Asn> = Vec::new(); // flagships of the biggest transits
    let mut tier2: Vec<Asn> = Vec::new();
    let mut regional: Vec<(Asn, f64)> = Vec::new(); // weighted stub-provider pool
    let mut hypergiant_primaries: Vec<Asn> = Vec::new();

    for org in orgs {
        let flagship = match org.asns.first() {
            Some(&asn) => asn,
            None => continue,
        };
        match org.kind {
            OrgKind::Transit => {
                if org.asns.len() >= 8 {
                    tier1.push(flagship);
                } else if org.asns.len() >= 3 {
                    tier2.push(flagship);
                } else {
                    regional.push((flagship, 1.0 + org.asns.len() as f64));
                }
            }
            OrgKind::Conglomerate => {
                if org.asns.len() >= 8 {
                    tier2.push(flagship);
                } else {
                    regional.push((flagship, 2.0));
                }
            }
            OrgKind::Hypergiant => hypergiant_primaries.push(flagship),
            _ => {}
        }
    }
    // Degenerate tiny worlds: promote whatever exists.
    if tier1.is_empty() {
        tier1 = if tier2.is_empty() {
            regional.iter().map(|(a, _)| *a).take(3).collect()
        } else {
            tier2.clone()
        };
    }
    if tier2.is_empty() {
        tier2 = tier1.clone();
    }

    // Tier-1 clique.
    for i in 0..tier1.len() {
        for j in i + 1..tier1.len() {
            builder.peer_peer(tier1[i], tier1[j]);
        }
    }
    // Tier 2 buys from 1–2 tier 1s and peers occasionally.
    for &asn in &tier2 {
        let n = 1 + rng.random_range(0..2usize);
        for _ in 0..n {
            builder.provider_customer(tier1[rng.random_range(0..tier1.len())], asn);
        }
        if tier2.len() > 1 && rng.random_bool(0.3) {
            let other = tier2[rng.random_range(0..tier2.len())];
            builder.peer_peer(asn, other);
        }
    }
    // Regional providers buy from tier 1/2.
    let uplinks: Vec<Asn> = tier1.iter().chain(tier2.iter()).copied().collect();
    for &(asn, _) in &regional {
        let n = 1 + rng.random_range(0..2usize);
        for _ in 0..n {
            builder.provider_customer(uplinks[rng.random_range(0..uplinks.len())], asn);
        }
    }
    // Hypergiants: peer with every tier 1, buy one upstream for reach.
    for &asn in &hypergiant_primaries {
        for &t1 in &tier1 {
            builder.peer_peer(asn, t1);
        }
        builder.provider_customer(tier1[rng.random_range(0..tier1.len())], asn);
    }

    // Stub-provider pool with weights (regionals mostly, some tier 2).
    let mut pool: Vec<Asn> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for &(asn, w) in &regional {
        pool.push(asn);
        weights.push(w * 3.0);
    }
    for &asn in &tier2 {
        pool.push(asn);
        weights.push(4.0);
    }
    for &asn in &tier1 {
        pool.push(asn);
        weights.push(2.0);
    }

    // Per-organization internal hierarchy + stub uplinks.
    for org in orgs {
        let flagship = match org.asns.first() {
            Some(&asn) => asn,
            None => continue,
        };
        match org.kind {
            OrgKind::Transit
            | OrgKind::Conglomerate
            | OrgKind::Hypergiant
            | OrgKind::GovMega
            | OrgKind::SmallMulti
            | OrgKind::Ixp => {
                // Subsidiaries sit under the flagship.
                for &asn in &org.asns[1..] {
                    builder.provider_customer(flagship, asn);
                }
                // Non-transit flagships also need upstreams (transit tiers
                // were wired above; hypergiants too).
                if matches!(
                    org.kind,
                    OrgKind::GovMega | OrgKind::SmallMulti | OrgKind::Ixp
                ) {
                    let n = 1 + rng.random_range(0..2usize);
                    for _ in 0..n {
                        let p = pool[weighted_idx(rng, &weights)];
                        if p != flagship {
                            builder.provider_customer(p, flagship);
                        }
                    }
                }
            }
            OrgKind::Singleton => {
                let n = 1 + weighted_idx(rng, &[0.55, 0.35, 0.10]);
                for _ in 0..n {
                    let p = pool[weighted_idx(rng, &weights)];
                    if p != flagship {
                        builder.provider_customer(p, flagship);
                    }
                }
            }
        }
        // Every unit exists as a node even if some wiring was skipped.
        for &asn in &org.asns {
            builder.node(asn);
        }
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use crate::{GeneratorConfig, SyntheticInternet};
    use borges_topology::customer_cones;

    #[test]
    fn topology_covers_every_asn() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(21));
        assert_eq!(world.topology.node_count(), world.truth.asn_count());
    }

    #[test]
    fn every_stub_has_an_upstream_path_to_a_tier() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(21));
        let orphans = world
            .topology
            .nodes()
            .filter(|&a| world.topology.degree(a) == 0)
            .count();
        // Allow only a negligible number of isolated nodes.
        assert!(
            orphans * 100 <= world.topology.node_count(),
            "{orphans} isolated ASNs"
        );
    }

    #[test]
    fn cones_reflect_the_hierarchy() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(21));
        let cones = customer_cones(&world.topology);
        let max_cone = cones.values().copied().max().unwrap();
        assert!(
            max_cone * 2 >= world.truth.asn_count() / 2,
            "tier-1 cone {max_cone} too small for {} ASNs",
            world.truth.asn_count()
        );
        // Stubs dominate.
        let stubs = cones.values().filter(|&&c| c == 1).count();
        assert!(stubs * 2 > cones.len(), "stub share too small");
    }

    #[test]
    fn asrank_comes_from_cones() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(21));
        let cones = customer_cones(&world.topology);
        // The rank-1 ASN has the maximum cone.
        let top = world.asrank[0];
        let max_cone = cones.values().copied().max().unwrap();
        assert_eq!(cones[&top], max_cone);
        // Cone sizes are non-increasing along the ranking.
        for pair in world.asrank.windows(2) {
            assert!(cones[&pair[0]] >= cones[&pair[1]]);
        }
    }
}
