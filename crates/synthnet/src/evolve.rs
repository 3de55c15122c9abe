//! World evolution: mergers, rebrandings and spinoffs over time.
//!
//! §7 of the paper points out that organizational structure is a moving
//! target and that no longitudinal archive exists to track it. The
//! simulator can do what the live Internet cannot: take a world, apply a
//! dated batch of corporate events, and emit the *successor snapshot* —
//! with exactly the registry lag the paper documents (WHOIS keeps the old
//! org split, PeeringDB keeps the old records, but the acquired brand's
//! website starts redirecting to its new owner).
//!
//! The successor runs through the same emission pass as
//! [`SyntheticInternet::generate`], whose records are keyed by the config
//! seed and each unit's ASN, so it differs from its base only in the
//! records of the organizations its events name (and in the topology,
//! which is drawn over the whole organization list). Two snapshots of the
//! same world can then be mapped independently and compared with
//! `borges_core::diff`-style tooling downstream.

use crate::naming::COUNTRIES;
use crate::orgmodel::{GroundTruth, OrgKind, TruthOrg, TruthOrgId, WebPlan};
use crate::SyntheticInternet;
use std::error::Error;
use std::fmt;

/// A corporate event to apply to a world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvolutionEvent {
    /// `acquirer` (by brand) absorbs `target` (by brand): all of the
    /// target's networks become the acquirer's. Registries lag — only the
    /// target flagship's website changes, redirecting to the acquirer.
    Acquisition {
        /// Brand of the buying organization.
        acquirer: String,
        /// Brand of the bought organization.
        target: String,
    },
    /// The organization renames itself: new brand, new website; the old
    /// site redirects to the new one (the CenturyLink → Lumen shape).
    Rebrand {
        /// Current brand.
        brand: String,
        /// New brand (must be a valid lower-case host label).
        new_brand: String,
    },
    /// The organization sells its operations in the listed markets
    /// (ISO country codes) to a newly created company (the Lumen →
    /// Cirion shape).
    Spinoff {
        /// Parent brand.
        brand: String,
        /// Markets divested.
        countries: Vec<String>,
        /// Brand of the new owner.
        new_brand: String,
    },
}

/// Why an event could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvolveError {
    /// No organization carries the named brand.
    UnknownBrand(String),
    /// The new brand is already taken.
    BrandTaken(String),
    /// A spinoff listed a market the parent does not operate in.
    NotPresent {
        /// Parent brand.
        brand: String,
        /// The missing market.
        country: String,
    },
}

impl fmt::Display for EvolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvolveError::UnknownBrand(b) => write!(f, "no organization branded {b:?}"),
            EvolveError::BrandTaken(b) => write!(f, "brand {b:?} already exists"),
            EvolveError::NotPresent { brand, country } => {
                write!(f, "{brand:?} has no unit in {country}")
            }
        }
    }
}

impl Error for EvolveError {}

fn find_org(orgs: &[TruthOrg], brand: &str) -> Result<usize, EvolveError> {
    orgs.iter()
        .position(|o| o.brand == brand)
        .ok_or_else(|| EvolveError::UnknownBrand(brand.to_string()))
}

/// The host an organization's flagship currently answers on (used as the
/// redirect anchor for acquisitions/rebrands).
fn flagship_host(org: &TruthOrg) -> String {
    for unit in &org.units {
        match &unit.web {
            WebPlan::Own { host, .. } => return host.clone(),
            WebPlan::RedirectToHost { target_host, .. } => return target_host.clone(),
            _ => {}
        }
    }
    format!("www.{}.{}", org.brand, COUNTRIES[org.hq_country].cctld)
}

/// Applies events to a set of organizations, in order.
pub fn apply_events(
    mut orgs: Vec<TruthOrg>,
    events: &[EvolutionEvent],
) -> Result<Vec<TruthOrg>, EvolveError> {
    for event in events {
        match event {
            EvolutionEvent::Acquisition { acquirer, target } => {
                let acquirer_idx = find_org(&orgs, acquirer)?;
                let target_idx = find_org(&orgs, target)?;
                let new_home = flagship_host(&orgs[acquirer_idx]);
                let mut absorbed = orgs.remove(target_idx);
                // The acquired flagship's site starts redirecting to the
                // new owner; everything else lags.
                if let Some(flagship) = absorbed.units.first_mut() {
                    let reported = match &flagship.web {
                        WebPlan::Own { host, .. } => host.clone(),
                        WebPlan::RedirectToHost { reported_host, .. } => reported_host.clone(),
                        _ => format!(
                            "www.{}.{}",
                            absorbed.brand, COUNTRIES[absorbed.hq_country].cctld
                        ),
                    };
                    flagship.web = WebPlan::RedirectToHost {
                        reported_host: reported,
                        target_host: new_home.clone(),
                        via: None,
                        js: false,
                    };
                }
                let acquirer_idx = find_org(&orgs, acquirer)?; // index may have shifted
                orgs[acquirer_idx].units.append(&mut absorbed.units);
            }
            EvolutionEvent::Rebrand { brand, new_brand } => {
                if orgs.iter().any(|o| o.brand == *new_brand) {
                    return Err(EvolveError::BrandTaken(new_brand.clone()));
                }
                let idx = find_org(&orgs, brand)?;
                let old_host = flagship_host(&orgs[idx]);
                let new_host = format!(
                    "www.{}.{}",
                    new_brand, COUNTRIES[orgs[idx].hq_country].cctld
                );
                orgs[idx].brand = new_brand.clone();
                orgs[idx].display_name = crate::naming::capitalize(new_brand);
                if let Some(flagship) = orgs[idx].units.first_mut() {
                    // The old address (still in PeeringDB) redirects to
                    // the new brand's site.
                    flagship.web = WebPlan::RedirectToHost {
                        reported_host: old_host,
                        target_host: new_host,
                        via: None,
                        js: false,
                    };
                }
            }
            EvolutionEvent::Spinoff {
                brand,
                countries,
                new_brand,
            } => {
                if orgs.iter().any(|o| o.brand == *new_brand) {
                    return Err(EvolveError::BrandTaken(new_brand.clone()));
                }
                let idx = find_org(&orgs, brand)?;
                let mut moved = Vec::new();
                for country in countries {
                    let pos = COUNTRIES
                        .iter()
                        .position(|c| c.code == country)
                        .ok_or_else(|| EvolveError::NotPresent {
                            brand: brand.clone(),
                            country: country.clone(),
                        })?;
                    let unit_idx = orgs[idx]
                        .units
                        .iter()
                        .position(|u| u.country == pos)
                        .ok_or_else(|| EvolveError::NotPresent {
                            brand: brand.clone(),
                            country: country.clone(),
                        })?;
                    let mut unit = orgs[idx].units.remove(unit_idx);
                    // Divested units get their own registrations back, and
                    // the buyer rebrands their web presence (otherwise the
                    // old branding would — correctly! — keep tying them to
                    // the seller).
                    unit.whois_own_org = true;
                    unit.pdb_own_org = true;
                    unit.web = WebPlan::Own {
                        host: format!("www.{}.{}", new_brand, COUNTRIES[unit.country].cctld),
                        canonical_path: None,
                        favicon: crate::orgmodel::FaviconKind::Brand(new_brand.clone()),
                    };
                    moved.push(unit);
                }
                let hq = moved.first().map(|u| u.country).unwrap_or(0);
                let max_id = orgs.iter().map(|o| o.id.0).max().unwrap_or(0);
                orgs.push(TruthOrg {
                    id: TruthOrgId(max_id + 1),
                    brand: new_brand.clone(),
                    display_name: crate::naming::capitalize(new_brand),
                    kind: OrgKind::Conglomerate,
                    hq_country: hq,
                    units: moved,
                });
            }
        }
    }
    // Re-number ids densely (GroundTruth indexes by id).
    for (i, org) in orgs.iter_mut().enumerate() {
        org.id = TruthOrgId(i);
    }
    Ok(orgs)
}

impl SyntheticInternet {
    /// Produces the successor snapshot after `events`. Registry records
    /// keep their ids, dates and decorations wherever the events leave
    /// their units alone; the structural lag semantics are those of each
    /// [`EvolutionEvent`].
    pub fn evolve(&self, events: &[EvolutionEvent]) -> Result<SyntheticInternet, EvolveError> {
        let orgs = apply_events(self.truth.to_orgs(), events)?;
        Ok(SyntheticInternet::emit(
            &self.config,
            GroundTruth::new(orgs),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneratorConfig, SyntheticInternet};
    use borges_types::Asn;
    use std::collections::BTreeSet;

    fn world() -> SyntheticInternet {
        SyntheticInternet::generate(&GeneratorConfig::tiny(17))
    }

    #[test]
    fn acquisition_moves_truth_and_web_but_lags_registries() {
        let before = world();
        assert!(!before.truth.are_siblings(Asn::new(174), Asn::new(3320)));
        let after = before
            .evolve(&[EvolutionEvent::Acquisition {
                acquirer: "telekom".into(),
                target: "cogent".into(),
            }])
            .unwrap();
        // Truth updates instantly…
        assert!(after.truth.are_siblings(Asn::new(174), Asn::new(3320)));
        // …but WHOIS still splits them (registry lag).
        let w_cogent = after.whois.org_of(Asn::new(174)).unwrap();
        let w_dt = after.whois.org_of(Asn::new(3320)).unwrap();
        assert_ne!(w_cogent.id, w_dt.id);
        // And the acquired flagship's site now redirects to the acquirer.
        use borges_websim::{SimWebClient, WebClient};
        let client = SimWebClient::browser(&after.web);
        let r = client
            .fetch(&"http://www.cogentco.com".parse().unwrap())
            .unwrap();
        assert_eq!(
            r.final_url.unwrap().host().as_str(),
            "www.telekom.de",
            "acquisition must surface as a redirect"
        );
    }

    #[test]
    fn rebrand_redirects_old_site_to_new() {
        let before = world();
        let after = before
            .evolve(&[EvolutionEvent::Rebrand {
                brand: "cogent".into(),
                new_brand: "zentransit".into(),
            }])
            .unwrap();
        use borges_websim::{SimWebClient, WebClient};
        let client = SimWebClient::browser(&after.web);
        let r = client
            .fetch(&"http://www.cogentco.com".parse().unwrap())
            .unwrap();
        assert_eq!(r.final_url.unwrap().host().as_str(), "www.zentransit.com");
        // Truth organization survives the rename.
        assert!(after.truth.are_siblings(Asn::new(174), Asn::new(1239)));
    }

    #[test]
    fn spinoff_creates_a_new_organization() {
        let before = world();
        // Digicel sells its Kenya operation.
        assert!(before.truth.are_siblings(Asn::new(36926), Asn::new(23520)));
        let after = before
            .evolve(&[EvolutionEvent::Spinoff {
                brand: "digicel".into(),
                countries: vec!["KE".into()],
                new_brand: "savannanet".into(),
            }])
            .unwrap();
        assert!(!after.truth.are_siblings(Asn::new(36926), Asn::new(23520)));
        assert_eq!(after.truth.org_count(), before.truth.org_count() + 1);
        assert_eq!(after.truth.asn_count(), before.truth.asn_count());
    }

    #[test]
    fn unknown_brands_are_rejected() {
        let before = world();
        let err = before
            .evolve(&[EvolutionEvent::Acquisition {
                acquirer: "telekom".into(),
                target: "no-such-brand".into(),
            }])
            .unwrap_err();
        assert_eq!(err, EvolveError::UnknownBrand("no-such-brand".into()));
    }

    #[test]
    fn brand_collisions_are_rejected() {
        let before = world();
        let err = before
            .evolve(&[EvolutionEvent::Rebrand {
                brand: "cogent".into(),
                new_brand: "digicel".into(),
            }])
            .unwrap_err();
        assert_eq!(err, EvolveError::BrandTaken("digicel".into()));
    }

    #[test]
    fn evolution_preserves_asn_universe() {
        let before = world();
        let after = before
            .evolve(&[
                EvolutionEvent::Acquisition {
                    acquirer: "lumen".into(),
                    target: "orange".into(),
                },
                EvolutionEvent::Rebrand {
                    brand: "claro".into(),
                    new_brand: "clarowave".into(),
                },
            ])
            .unwrap();
        assert_eq!(after.truth.asn_count(), before.truth.asn_count());
        assert_eq!(after.whois.asn_count(), before.whois.asn_count());
    }

    #[test]
    fn chained_events_apply_in_order() {
        let before = world();
        let after = before
            .evolve(&[
                EvolutionEvent::Acquisition {
                    acquirer: "telekom".into(),
                    target: "cogent".into(),
                },
                EvolutionEvent::Rebrand {
                    brand: "telekom".into(),
                    new_brand: "magentanet".into(),
                },
            ])
            .unwrap();
        assert!(after.truth.are_siblings(Asn::new(174), Asn::new(3320)));
        let org = after.truth.org(after.truth.org_of(Asn::new(3320)).unwrap());
        assert_eq!(org.brand, "magentanet");
    }

    /// Every host a web plan names.
    fn plan_hosts(plan: &WebPlan) -> Vec<String> {
        match plan {
            WebPlan::Own { host, .. } | WebPlan::Dead { host } => vec![host.clone()],
            WebPlan::RedirectToHost {
                reported_host,
                target_host,
                via,
                ..
            } => [reported_host, target_host]
                .into_iter()
                .chain(via)
                .cloned()
                .collect(),
            WebPlan::None | WebPlan::Social { .. } => Vec::new(),
        }
    }

    /// The ASNs of `before`'s organizations branded `brands`, and every
    /// host that an organization holding one of them names, in either
    /// world: what an event on those brands may touch.
    fn footprint(
        before: &SyntheticInternet,
        after: &SyntheticInternet,
        brands: &[&str],
    ) -> (BTreeSet<Asn>, BTreeSet<String>) {
        let asns: BTreeSet<Asn> = before
            .truth
            .orgs()
            .filter(|o| brands.contains(&o.brand.as_str()))
            .flat_map(|o| o.units.iter().map(|u| u.asn))
            .collect();
        let hosts = [before, after]
            .iter()
            .flat_map(|w| w.truth.orgs())
            .filter(|o| o.units.iter().any(|u| asns.contains(&u.asn)))
            .flat_map(|o| o.units.iter().flat_map(|u| plan_hosts(&u.web)))
            .collect();
        (asns, hosts)
    }

    /// Every WHOIS, PeeringDB and web record of `world` outside the
    /// footprint, rendered for comparison.
    fn records_outside(
        world: &SyntheticInternet,
        (asns, hosts): &(BTreeSet<Asn>, BTreeSet<String>),
    ) -> Vec<String> {
        let whois_orgs: BTreeSet<_> = world
            .whois
            .aut_nums()
            .filter(|a| asns.contains(&a.asn))
            .map(|a| a.org.clone())
            .collect();
        let pdb_orgs: BTreeSet<_> = world
            .pdb
            .nets()
            .filter(|n| asns.contains(&n.asn))
            .map(|n| n.org_id)
            .collect();
        let mut out: Vec<String> = Vec::new();
        out.extend(
            world
                .whois
                .aut_nums()
                .filter(|a| !asns.contains(&a.asn))
                .map(|a| format!("{a:?}")),
        );
        out.extend(
            world
                .whois
                .orgs()
                .filter(|o| !whois_orgs.contains(&o.id))
                .map(|o| format!("{o:?}")),
        );
        out.extend(
            world
                .pdb
                .nets()
                .filter(|n| !asns.contains(&n.asn))
                .map(|n| format!("{n:?}")),
        );
        out.extend(
            world
                .pdb
                .orgs()
                .filter(|o| !pdb_orgs.contains(&o.id))
                .map(|o| format!("{o:?}")),
        );
        out.extend(
            world
                .web
                .hosts()
                .filter(|(h, _)| !hosts.contains(h.as_str()))
                .map(|(h, n)| format!("{h}: {n:?}")),
        );
        out
    }

    #[test]
    fn one_event_touches_only_the_organizations_it_names() {
        let before = world();
        let cases = [
            (
                EvolutionEvent::Acquisition {
                    acquirer: "telekom".into(),
                    target: "cogent".into(),
                },
                vec!["telekom", "cogent"],
            ),
            (
                EvolutionEvent::Rebrand {
                    brand: "cogent".into(),
                    new_brand: "zentransit".into(),
                },
                vec!["cogent"],
            ),
            (
                EvolutionEvent::Spinoff {
                    brand: "digicel".into(),
                    countries: vec!["KE".into()],
                    new_brand: "savannanet".into(),
                },
                vec!["digicel"],
            ),
        ];
        for (event, brands) in cases {
            let after = before.evolve(std::slice::from_ref(&event)).unwrap();
            let footprint = footprint(&before, &after, &brands);
            let outside = records_outside(&before, &footprint);
            assert!(
                outside.len() > 1_000,
                "{event:?}: footprint covers most of the world"
            );
            assert_eq!(
                outside,
                records_outside(&after, &footprint),
                "{event:?} changed a record outside {brands:?}"
            );
            // With no footprint every record compares, and the event shows.
            let no_footprint = Default::default();
            assert_ne!(
                records_outside(&before, &no_footprint),
                records_outside(&after, &no_footprint),
                "{event:?} moved no record"
            );
        }
    }
}
