//! The generator: ground truth first, imperfect views second.
//!
//! [`SyntheticInternet::generate`] builds the whole world in two passes:
//!
//! 1. **Truth pass** — creates [`TruthOrg`]s for every category (scripted
//!    paper anecdotes, government mega-orgs, conglomerates, transit
//!    providers, small multi-AS orgs, singletons), deciding for each ASN
//!    how it will *appear* in each dataset (WHOIS fragmentation, PeeringDB
//!    registration/consolidation, free-text behaviour, website behaviour).
//!    One RNG seeded with the config seed drives it.
//! 2. **Emission pass** (`Emission`) — derives the WHOIS registry, the
//!    PeeringDB snapshot, the simulated web, the APNIC-like population
//!    table and the AS-Rank ordering from those plans. Each WHOIS and
//!    PeeringDB record's id and draws are keyed by the config seed and
//!    the unit's ASN; the topology draws from its own stream.
//!
//! The same [`GeneratorConfig`] always yields the same world, and the
//! emission pass is the one routine behind [`SyntheticInternet::generate`],
//! [`SyntheticInternet::evolve`] and [`crate::stream::generate_to_dir`]:
//! a seed names one world whichever of them writes it, and an evolved
//! snapshot keeps every record its events did not touch.

use crate::config::GeneratorConfig;
use crate::dist::{lognormal, sample_distinct, weighted_idx};
use crate::naming::{self, CountryInfo, Language, COUNTRIES};
use crate::orgmodel::{
    FaviconKind, GroundTruth, OrgKind, TextPlan, TruthOrg, TruthOrgId, TruthUnit, WebPlan,
};
use crate::scripted;
use crate::textgen::{self, SiblingMention};
use crate::topogen::{emit_topology, OrgTopo};
use borges_peeringdb::{PdbNetwork, PdbOrganization, PdbSnapshot};
use borges_topology::AsGraph;
use borges_types::{Asn, CountryCode, PdbOrgId, WhoisOrgId};
use borges_websim::{RedirectKind, SimWeb, SiteNode};
use borges_whois::{AutNum, Rir, WhoisOrg, WhoisRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// APNIC-style population record for one eyeball ASN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationRecord {
    /// Estimated users behind the ASN.
    pub users: u64,
    /// The market they are in.
    pub country: CountryCode,
}

/// The generated world: ground truth plus every dataset the pipeline
/// consumes.
#[derive(Debug, Clone)]
pub struct SyntheticInternet {
    /// The configuration that produced this world.
    pub config: GeneratorConfig,
    /// The oracle.
    pub truth: GroundTruth,
    /// The WHOIS view (feeds `OID_W` and the AS2Org baseline).
    pub whois: WhoisRegistry,
    /// The PeeringDB view (feeds `OID_P`, notes/aka, websites).
    pub pdb: PdbSnapshot,
    /// The hosted web (feeds the scraper).
    pub web: SimWeb,
    /// The AS-relationship graph (provider/customer/peer links) the
    /// AS-Rank ordering is computed from.
    pub topology: AsGraph,
    /// APNIC-like per-ASN user estimates.
    pub populations: BTreeMap<Asn, PopulationRecord>,
    /// ASNs in AS-Rank order (index 0 = rank 1).
    pub asrank: Vec<Asn>,
    /// The §6.1 hypergiant roster: `(display name, headline ASN)`.
    pub hypergiants: Vec<(String, Asn)>,
    /// Oracle for the IE evaluation (Table 4): for each PeeringDB-registered
    /// ASN, the sibling ASNs genuinely embedded in its notes/aka text.
    pub text_labels: BTreeMap<Asn, Vec<Asn>>,
}

impl SyntheticInternet {
    /// Generates a world from `config`. Deterministic in `config`
    /// (including its seed).
    pub fn generate(config: &GeneratorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut next_id = 0usize;
        let mut orgs = scripted::scripted_orgs(&mut next_id);
        let mut alloc = AsnAllocator::new(orgs.iter().flat_map(|o| o.units.iter().map(|u| u.asn)));

        gen_gov_mega(config, &mut rng, &mut alloc, &mut next_id, &mut orgs);
        gen_conglomerates(config, &mut rng, &mut alloc, &mut next_id, &mut orgs);
        gen_transit(config, &mut rng, &mut alloc, &mut next_id, &mut orgs);
        gen_small_multi(config, &mut rng, &mut alloc, &mut next_id, &mut orgs);
        gen_singletons(config, &mut rng, &mut alloc, &mut next_id, &mut orgs);

        distribute_remaining_population(config, &mut orgs);
        Self::emit(config, GroundTruth::new(orgs))
    }

    /// Runs the emission pass over `truth` and keeps every view in
    /// memory.
    pub(crate) fn emit(config: &GeneratorConfig, truth: GroundTruth) -> Self {
        let mut out = Collected::default();
        let mut emission = Emission::new(config.seed, &mut out);
        for org in truth.orgs() {
            emission.org(org, &mut out);
        }
        let (topology, text_labels) = emission.seal(&mut out);

        let whois = WhoisRegistry::builder()
            .extend(out.whois_orgs, out.auts)
            .build()
            .expect("generator emits a consistent WHOIS view");
        let pdb = PdbSnapshot::builder()
            .extend(out.pdb_orgs, out.nets)
            .build()
            .expect("generator emits a consistent PeeringDB view");
        let mut web = SimWeb::builder();
        for (host, node) in out.web {
            web = web.node(host.parse().expect("valid host literal"), node);
        }
        SyntheticInternet {
            config: config.clone(),
            populations: collect_populations(&truth),
            asrank: compute_asrank(&topology),
            truth,
            whois,
            pdb,
            web: web.build(),
            topology,
            hypergiants: scripted::hypergiant_roster()
                .into_iter()
                .map(|(n, a)| (n.to_string(), a))
                .collect(),
            text_labels,
        }
    }

    /// Total users across the population table.
    pub fn total_users(&self) -> u64 {
        self.populations.values().map(|p| p.users).sum()
    }
}

// ---------------------------------------------------------------------
// Org sink: where the truth pass delivers organizations
// ---------------------------------------------------------------------

/// Receives [`TruthOrg`]s one at a time as the truth pass produces them.
///
/// [`SyntheticInternet::generate`] materializes them into a `Vec`; the
/// streaming path ([`crate::stream::generate_to_dir`]) runs each
/// organization through the emission pass straight to disk and drops
/// it, so a million-ASN world never exists in memory at once. Both
/// paths drive the *same* truth-pass code with the same RNG draws, so
/// the ground truth is identical regardless of the sink.
pub(crate) trait OrgSink {
    /// Accepts the next organization, in generation order.
    fn accept(&mut self, org: TruthOrg);
}

impl OrgSink for Vec<TruthOrg> {
    fn accept(&mut self, org: TruthOrg) {
        self.push(org);
    }
}

// ---------------------------------------------------------------------
// ASN allocation
// ---------------------------------------------------------------------

pub(crate) struct AsnAllocator {
    next: u32,
    used: BTreeSet<Asn>,
}

impl AsnAllocator {
    pub(crate) fn new(reserved: impl IntoIterator<Item = Asn>) -> Self {
        AsnAllocator {
            next: 100,
            used: reserved.into_iter().collect(),
        }
    }

    fn next(&mut self) -> Asn {
        loop {
            let candidate = Asn::new(self.next);
            self.next += 1;
            if candidate.is_routable() && !self.used.contains(&candidate) {
                self.used.insert(candidate);
                return candidate;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Truth-pass helpers
// ---------------------------------------------------------------------

fn language_of(country: usize) -> Language {
    COUNTRIES[country].language
}

fn blank_unit(asn: Asn, country: usize, legal_name: String) -> TruthUnit {
    TruthUnit {
        asn,
        country,
        legal_name,
        users: 0,
        whois_own_org: true,
        in_pdb: false,
        pdb_own_org: true,
        text: TextPlan::None,
        web: WebPlan::None,
    }
}

/// Government mega-orgs: hundreds of ASNs under one WHOIS org, invisible
/// in PeeringDB (the DNIC-ARIN shape, AS2Org's largest org).
pub(crate) fn gen_gov_mega<S: OrgSink>(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    alloc: &mut AsnAllocator,
    next_id: &mut usize,
    sink: &mut S,
) {
    for i in 0..config.gov_mega_orgs {
        let n = (config.gov_mega_asns / (i + 1)).max(10);
        let units = (0..n)
            .map(|j| {
                let mut u = blank_unit(alloc.next(), 0, format!("GovNet Agency {i}-{j}"));
                u.whois_own_org = false; // everything under the single org
                u.in_pdb = rng.random_bool(0.01);
                u
            })
            .collect();
        sink.accept(TruthOrg {
            id: TruthOrgId(*next_id),
            brand: format!("govnet{i}"),
            display_name: format!("Government Networks Directorate {i}"),
            kind: OrgKind::GovMega,
            hq_country: 0,
            units,
        });
        *next_id += 1;
    }
}

/// Upstream/decoy ASNs for non-sibling numeric text. Mixes well-known
/// transit ASNs with random ones so that false-positive extractions do
/// not all point at the same handful of networks (which would chain
/// unrelated organizations into one giant wrong cluster — real-world FP
/// targets are diverse).
fn decoy_asns(rng: &mut StdRng) -> Vec<Asn> {
    const TRANSIT_POOL: &[u32] = &[
        174, 701, 1299, 2914, 3257, 3356, 3491, 5511, 6453, 6461, 6762, 6939, 7018, 9002, 12956,
    ];
    let n = rng.random_range(1..=3);
    (0..n)
        .map(|_| {
            if rng.random_bool(0.4) {
                Asn::new(TRANSIT_POOL[rng.random_range(0..TRANSIT_POOL.len())])
            } else {
                Asn::new(rng.random_range(1_000..400_000))
            }
        })
        .collect()
}

/// Ordinary non-sibling text behaviour shared by transit, small-multi and
/// singleton units: boilerplate or numeric decoys at the configured rates.
fn assign_basic_text(config: &GeneratorConfig, rng: &mut StdRng, unit: &mut TruthUnit) {
    if !unit.in_pdb || unit.text != TextPlan::None || !rng.random_bool(config.text_rate) {
        return;
    }
    let style = rng.random_range(0..1000);
    unit.text = if rng.random_bool(config.decoy_rate / config.text_rate) {
        TextPlan::Decoys {
            style,
            asns: decoy_asns(rng),
        }
    } else {
        TextPlan::Boilerplate { style }
    };
}

#[derive(Clone, Copy, PartialEq)]
enum DomainStyle {
    SharedBrand,
    FusedCountry,
    Distinct,
}

pub(crate) fn gen_conglomerates<S: OrgSink>(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    alloc: &mut AsnAllocator,
    next_id: &mut usize,
    sink: &mut S,
) {
    let mut distinct_brand_counter = 400_000usize;
    for i in 0..config.conglomerates {
        let brand = naming::brand(10_000 + i);
        let size_class = weighted_idx(rng, &[0.45, 0.30, 0.18, 0.07]);
        let n_units = match size_class {
            0 => rng.random_range(2..=4),
            1 => rng.random_range(5..=8),
            2 => rng.random_range(9..=15),
            _ => rng.random_range(14..=22),
        };
        let countries = sample_distinct(rng, COUNTRIES.len(), n_units);
        let hq = countries[0];
        let style = match weighted_idx(rng, &[0.68, 0.22, 0.10]) {
            0 => DomainStyle::SharedBrand,
            1 => DomainStyle::FusedCountry,
            _ => DomainStyle::Distinct,
        };
        // Brands that diverge in naming usually diverge in iconography
        // too; the DE-CIX shape (distinct names, one favicon) is rare.
        let shared_favicon = match style {
            DomainStyle::Distinct => rng.random_bool(0.15),
            _ => rng.random_bool(0.90),
        };
        let consolidated_pdb = rng.random_bool(config.pdb_consolidation_rate);

        let mut units: Vec<TruthUnit> = Vec::with_capacity(n_units);
        for (j, &cj) in countries.iter().enumerate() {
            let asn = alloc.next();
            let legal = naming::unit_legal_name(&brand, &COUNTRIES[cj]);
            let mut u = blank_unit(asn, cj, legal);
            // Real conglomerates are flagship-dominated: Deutsche Telekom's
            // home network dwarfs its subsidiaries (Table 8). Some units
            // are transit/enterprise-only and carry no eyeballs at all.
            u.users = if j == 0 {
                (lognormal(rng, (2.2e6f64).ln(), 1.0) as u64).clamp(100_000, 22_000_000)
            } else if rng.random_bool(0.65) {
                (lognormal(rng, (6e4f64).ln(), 1.2) as u64).clamp(1_000, 3_000_000)
            } else {
                0
            };
            u.whois_own_org = j == 0 || rng.random_bool(config.whois_fragmentation_rate);
            u.in_pdb = if j == 0 {
                rng.random_bool(0.95)
            } else {
                rng.random_bool(config.pdb_rate_conglomerate)
            };
            u.pdb_own_org = !consolidated_pdb;

            // Website behaviour.
            let flagship_host = format!("www.{brand}.{}", COUNTRIES[hq].cctld);
            if j == 0 {
                // The flagship's site always exists (it is the redirect
                // anchor for acquired units).
                u.web = WebPlan::Own {
                    host: flagship_host,
                    canonical_path: None,
                    favicon: FaviconKind::Brand(brand.clone()),
                };
            } else if rng.random_bool(config.website_rate) {
                let recently_acquired = rng.random_bool(0.22);
                if rng.random_bool(config.dead_site_rate) {
                    u.web = WebPlan::Dead {
                        host: format!("www.{brand}{}.example", COUNTRIES[cj].token),
                    };
                } else if recently_acquired && rng.random_bool(config.redirect_rate) {
                    let old_brand = naming::brand(distinct_brand_counter);
                    distinct_brand_counter += 1;
                    let via = if rng.random_bool(config.chained_redirect_rate) {
                        Some(format!("legacy.{old_brand}.example"))
                    } else {
                        None
                    };
                    u.web = WebPlan::RedirectToHost {
                        reported_host: format!("www.{old_brand}.{}", COUNTRIES[cj].cctld),
                        target_host: flagship_host,
                        via,
                        js: rng.random_bool(config.js_redirect_rate),
                    };
                } else {
                    let (host, favicon_owner) = match style {
                        DomainStyle::SharedBrand => (
                            format!("www.{brand}.{}", COUNTRIES[cj].cctld),
                            brand.clone(),
                        ),
                        DomainStyle::FusedCountry => (
                            format!("www.{brand}{}.{}", COUNTRIES[cj].token, COUNTRIES[cj].cctld),
                            brand.clone(),
                        ),
                        DomainStyle::Distinct => {
                            let other = naming::brand(distinct_brand_counter);
                            distinct_brand_counter += 1;
                            (format!("www.{other}.{}", COUNTRIES[cj].cctld), other)
                        }
                    };
                    let favicon = if shared_favicon {
                        FaviconKind::Brand(brand.clone())
                    } else {
                        FaviconKind::UnitSpecific(favicon_owner)
                    };
                    u.web = WebPlan::Own {
                        host,
                        canonical_path: None,
                        favicon,
                    };
                }
            }

            units.push(u);
        }

        // Free-text behaviour (needs the full unit list for sibling
        // mentions, so it runs after unit creation).
        let sibling_pool: Vec<SiblingMention> = units
            .iter()
            .map(|u| SiblingMention {
                name: u.legal_name.clone(),
                asn: u.asn,
            })
            .collect();
        for j in 0..units.len() {
            if !units[j].in_pdb || !rng.random_bool(config.text_rate) {
                continue;
            }
            let lang = language_of(units[j].country);
            let style = rng.random_range(0..1000);
            units[j].text = if j == 0 && rng.random_bool(config.sibling_report_rate) {
                let cap = match weighted_idx(rng, &[0.50, 0.25, 0.15, 0.10]) {
                    0 => 1,
                    1 => 2,
                    2 => 3,
                    _ => 4,
                };
                let siblings: Vec<(String, Asn)> = sibling_pool
                    .iter()
                    .filter(|m| m.asn != units[j].asn)
                    .take(cap)
                    .map(|m| (m.name.clone(), m.asn))
                    .collect();
                if siblings.is_empty() {
                    TextPlan::Boilerplate { style }
                } else {
                    TextPlan::SiblingReport { style, siblings }
                }
            } else if j > 0 && rng.random_bool(0.04) {
                TextPlan::SiblingReport {
                    style,
                    siblings: vec![(units[0].legal_name.clone(), units[0].asn)],
                }
            } else if j > 0 && rng.random_bool(0.06) {
                TextPlan::AkaSibling {
                    style,
                    former: naming::capitalize(&naming::brand(distinct_brand_counter + j)),
                    asn: units[0].asn,
                }
            } else if rng.random_bool(config.decoy_rate / config.text_rate) {
                TextPlan::Decoys {
                    style,
                    asns: decoy_asns(rng),
                }
            } else {
                TextPlan::Boilerplate { style }
            };
            let _ = lang;
        }

        sink.accept(TruthOrg {
            id: TruthOrgId(*next_id),
            brand,
            display_name: naming::legal_name(&naming::brand(10_000 + i), i),
            kind: OrgKind::Conglomerate,
            hq_country: hq,
            units,
        });
        *next_id += 1;
    }
}

pub(crate) fn gen_transit<S: OrgSink>(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    alloc: &mut AsnAllocator,
    next_id: &mut usize,
    sink: &mut S,
) {
    for i in 0..config.transit_orgs {
        let brand = naming::brand(40_000 + i);
        let size_class = weighted_idx(rng, &[0.40, 0.25, 0.20, 0.10, 0.05]);
        let n_units = match size_class {
            0 => 1,
            1 => 2,
            2 => rng.random_range(3..=4),
            3 => rng.random_range(5..=8),
            _ => rng.random_range(9..=14),
        };
        let hq = rng.random_range(0..COUNTRIES.len());
        let mut units = Vec::with_capacity(n_units);
        for j in 0..n_units {
            let asn = alloc.next();
            let country = if rng.random_bool(0.7) {
                hq
            } else {
                rng.random_range(0..COUNTRIES.len())
            };
            let mut u = blank_unit(
                asn,
                country,
                format!("{} Backbone {}", naming::capitalize(&brand), j + 1),
            );
            u.whois_own_org = j == 0 || rng.random_bool(0.55);
            u.in_pdb = rng.random_bool(config.pdb_rate_transit);
            u.pdb_own_org = rng.random_bool(0.4);
            if u.in_pdb && rng.random_bool(config.website_rate) {
                u.web = if rng.random_bool(config.dead_site_rate) {
                    WebPlan::Dead {
                        host: format!("old.{brand}.example"),
                    }
                } else {
                    WebPlan::Own {
                        host: format!("www.{brand}.net"),
                        canonical_path: None,
                        favicon: FaviconKind::Brand(brand.clone()),
                    }
                };
            }
            units.push(u);
        }
        // Flagship sibling report (transit operators document their
        // regional ASNs frequently).
        if units.len() > 1 && units[0].in_pdb && rng.random_bool(0.30) {
            let cap = rng.random_range(1..=3);
            let siblings: Vec<(String, Asn)> = units[1..]
                .iter()
                .take(cap)
                .map(|u| (u.legal_name.clone(), u.asn))
                .collect();
            units[0].text = TextPlan::SiblingReport {
                style: rng.random_range(0..1000),
                siblings,
            };
        }
        for u in &mut units {
            assign_basic_text(config, rng, u);
        }
        sink.accept(TruthOrg {
            id: TruthOrgId(*next_id),
            brand: brand.clone(),
            display_name: naming::legal_name(&brand, i + 1),
            kind: OrgKind::Transit,
            hq_country: hq,
            units,
        });
        *next_id += 1;
    }
}

pub(crate) fn gen_small_multi<S: OrgSink>(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    alloc: &mut AsnAllocator,
    next_id: &mut usize,
    sink: &mut S,
) {
    for i in 0..config.small_multi_orgs {
        let brand = naming::brand(60_000 + i);
        let n_units = rng.random_range(2..=4);
        let country = rng.random_range(0..COUNTRIES.len());
        let eyeball = rng.random_bool(0.4);
        let mut units = Vec::with_capacity(n_units);
        for j in 0..n_units {
            let asn = alloc.next();
            let mut u = blank_unit(
                asn,
                country,
                format!("{} Net {}", naming::capitalize(&brand), j + 1),
            );
            if eyeball {
                u.users = (lognormal(rng, (8e4f64).ln(), 1.0) as u64).clamp(500, 2_000_000);
            }
            u.whois_own_org = j == 0 || rng.random_bool(0.15);
            u.in_pdb = rng.random_bool(config.pdb_rate_small_multi);
            u.pdb_own_org = rng.random_bool(0.5);
            if u.in_pdb && rng.random_bool(config.website_rate) {
                u.web = if rng.random_bool(config.dead_site_rate) {
                    WebPlan::Dead {
                        host: format!("www.{brand}.example"),
                    }
                } else {
                    WebPlan::Own {
                        host: format!("www.{brand}.{}", COUNTRIES[country].cctld),
                        canonical_path: None,
                        favicon: FaviconKind::Brand(brand.clone()),
                    }
                };
            }
            units.push(u);
        }
        if units.len() > 1 && units[0].in_pdb && rng.random_bool(0.20) {
            let siblings: Vec<(String, Asn)> = units[1..]
                .iter()
                .map(|u| (u.legal_name.clone(), u.asn))
                .collect();
            units[0].text = TextPlan::SiblingReport {
                style: rng.random_range(0..1000),
                siblings,
            };
        }
        for u in &mut units {
            assign_basic_text(config, rng, u);
        }
        sink.accept(TruthOrg {
            id: TruthOrgId(*next_id),
            brand: brand.clone(),
            display_name: naming::legal_name(&brand, i + 2),
            kind: OrgKind::SmallMulti,
            hq_country: country,
            units,
        });
        *next_id += 1;
    }
}

/// Social platforms small operators report instead of a real site
/// (Appendix D blocklist material).
const SOCIAL_PLATFORMS: &[&str] = &[
    "facebook.com",
    "github.com",
    "linkedin.com",
    "discord.com",
    "instagram.com",
    "www.peeringdb.com",
];

pub(crate) fn gen_singletons<S: OrgSink>(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    alloc: &mut AsnAllocator,
    next_id: &mut usize,
    sink: &mut S,
) {
    // Deliberate brand-label collisions between unrelated orgs sharing a
    // framework favicon: the step-1 false-positive family of Table 5.
    let collision_brands: Vec<String> = (0..3).map(|k| naming::brand(900_000 + k)).collect();
    let mut collision_uses: BTreeMap<usize, usize> = BTreeMap::new();

    for i in 0..config.singleton_orgs {
        let brand = naming::brand(100_000 + i);
        let country = rng.random_range(0..COUNTRIES.len());
        let asn = alloc.next();
        let mut u = blank_unit(asn, country, naming::legal_name(&brand, i));
        if rng.random_bool(0.20) {
            // Placeholder weight; scaled to the global budget afterwards.
            u.users = 1 + (lognormal(rng, 0.0, 1.2) * 1e6) as u64;
        }
        u.in_pdb = rng.random_bool(config.pdb_rate_singleton);
        if u.in_pdb {
            if rng.random_bool(config.text_rate) {
                let style = rng.random_range(0..1000);
                u.text = if rng.random_bool(config.decoy_rate / config.text_rate) {
                    TextPlan::Decoys {
                        style,
                        asns: decoy_asns(rng),
                    }
                } else {
                    TextPlan::Boilerplate { style }
                };
            }
            if rng.random_bool(config.social_website_rate) {
                u.web = WebPlan::Social {
                    platform: SOCIAL_PLATFORMS[rng.random_range(0..SOCIAL_PLATFORMS.len())],
                };
            } else if rng.random_bool(config.website_rate) {
                if rng.random_bool(config.dead_site_rate) {
                    u.web = WebPlan::Dead {
                        host: format!("www.{brand}.{}", COUNTRIES[country].cctld),
                    };
                } else {
                    // A small fraction join a brand-collision pair.
                    let collide = i < 6;
                    let (host, favicon) = if collide {
                        let k = i / 2;
                        let n = collision_uses.entry(k).or_insert(0);
                        let tld = if *n == 0 { "com.br" } else { "net" };
                        *n += 1;
                        (
                            format!("www.{}.{tld}", collision_brands[k]),
                            FaviconKind::Framework("bootstrap"),
                        )
                    } else if rng.random_bool(config.framework_favicon_rate) {
                        let fw = if COUNTRIES[country].code == "BR" {
                            "ixc soft"
                        } else {
                            ["bootstrap", "wordpress", "godaddy", "wix"]
                                [rng.random_range(0..4usize)]
                        };
                        (
                            format!("www.{brand}.{}", COUNTRIES[country].cctld),
                            FaviconKind::Framework(fw),
                        )
                    } else {
                        (
                            format!("www.{brand}.{}", COUNTRIES[country].cctld),
                            FaviconKind::Brand(brand.clone()),
                        )
                    };
                    u.web = WebPlan::Own {
                        host,
                        canonical_path: None,
                        favicon,
                    };
                }
            }
        }
        sink.accept(TruthOrg {
            id: TruthOrgId(*next_id),
            brand: brand.clone(),
            display_name: naming::legal_name(&brand, i),
            kind: OrgKind::Singleton,
            hq_country: country,
            units: vec![u],
        });
        *next_id += 1;
    }
}

/// Scales the placeholder singleton populations so the world total matches
/// `config.total_users` without disturbing the scripted/conglomerate
/// numbers.
fn distribute_remaining_population(config: &GeneratorConfig, orgs: &mut [TruthOrg]) {
    let fixed: u64 = orgs
        .iter()
        .filter(|o| o.kind != OrgKind::Singleton)
        .map(TruthOrg::total_users)
        .sum();
    let placeholder: u64 = orgs
        .iter()
        .filter(|o| o.kind == OrgKind::Singleton)
        .map(TruthOrg::total_users)
        .sum();
    let Some(scale) = singleton_scale(config.total_users, fixed, placeholder) else {
        return;
    };
    for org in orgs.iter_mut().filter(|o| o.kind == OrgKind::Singleton) {
        for unit in &mut org.units {
            if unit.users > 0 {
                unit.users = scale_users(unit.users, scale);
            }
        }
    }
}

/// The singleton population scale factor: remaining budget divided by
/// the placeholder weight sum (`None` when there are no placeholders).
/// Shared with the streaming path so both scale identically.
pub(crate) fn singleton_scale(total_users: u64, fixed: u64, placeholder: u64) -> Option<f64> {
    if placeholder == 0 {
        return None;
    }
    Some(total_users.saturating_sub(fixed) as f64 / placeholder as f64)
}

/// Applies the singleton scale to one placeholder weight (floor, min 1).
pub(crate) fn scale_users(users: u64, scale: f64) -> u64 {
    ((users as f64 * scale) as u64).max(1)
}

// ---------------------------------------------------------------------
// Emission pass
// ---------------------------------------------------------------------

// Every WHOIS and PeeringDB draw is keyed by the config seed, its
// dataset's salt and the ASN of the unit it describes; the topology
// draws from a stream of its own. No draw depends on another
// organization, so an organization's records are the same whichever
// organizations precede it.
const WHOIS_SALT: u64 = 0x0077_686f_6973; // "whois"
const PDB_SALT: u64 = 0x0070_6462; // "pdb"
const TOPO_SALT: u64 = 0x746f_706f; // "topo"

/// The RNG of `salt`'s dataset for the unit numbered `asn`.
fn keyed_rng(seed: u64, salt: u64, asn: Asn) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt ^ u64::from(asn.value()).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn rir_of(country: &CountryInfo) -> Rir {
    match country.code {
        "US" | "CA" | "PR" => Rir::Arin,
        "DE" | "GB" | "FR" | "ES" | "IT" | "PL" | "NL" | "SE" | "NO" | "AT" | "CH" | "SK"
        | "HR" | "CZ" | "HU" | "RO" | "PT" | "GR" | "TR" => Rir::RipeNcc,
        "ZA" | "NG" | "KE" | "EG" => Rir::Afrinic,
        "BR" | "AR" | "CL" | "PE" | "CO" | "MX" | "DO" | "BO" | "PY" | "UY" | "EC" | "VE"
        | "GT" | "SV" | "HN" | "NI" | "PA" | "TT" | "JM" | "HT" => Rir::Lacnic,
        _ => Rir::Apnic,
    }
}

/// Where the emission pass delivers records: memory for
/// [`SyntheticInternet::generate`] and [`SyntheticInternet::evolve`],
/// files for [`crate::stream::generate_to_dir`].
pub(crate) trait RecordSink {
    /// A WHOIS organization.
    fn whois_org(&mut self, org: WhoisOrg);
    /// A WHOIS aut-num.
    fn aut_num(&mut self, aut: AutNum);
    /// A PeeringDB organization.
    fn pdb_org(&mut self, org: PdbOrganization);
    /// A PeeringDB network.
    fn pdb_net(&mut self, net: PdbNetwork);
    /// A host of the simulated web.
    fn web_node(&mut self, host: &str, node: SiteNode);
}

/// The emission pass: derives every dataset view from the truth, one
/// organization at a time, in the truth's organization order.
///
/// A record's id and draws are a function of the config seed and the
/// unit it describes; an organization-level record (the WHOIS parent,
/// the consolidated PeeringDB organization) takes the ASN of the first
/// unit filed under it. What crosses organizations is the web's host
/// dedup and the per-organization topology summaries, both replayed at
/// [`Emission::seal`], and the IE oracle it returns.
pub(crate) struct Emission {
    seed: u64,
    web: WebEmitter,
    topo: Vec<OrgTopo>,
    labels: BTreeMap<Asn, Vec<Asn>>,
}

impl Emission {
    /// Starts the pass, emitting the always-present social-platform
    /// pages.
    pub(crate) fn new(seed: u64, out: &mut impl RecordSink) -> Self {
        Emission {
            seed,
            web: WebEmitter::new(out),
            topo: Vec::new(),
            labels: BTreeMap::new(),
        }
    }

    /// Emits `org`'s WHOIS and PeeringDB records and own web pages.
    pub(crate) fn org(&mut self, org: &TruthOrg, out: &mut impl RecordSink) {
        whois_records(self.seed, org, out);
        pdb_records(self.seed, org, &mut self.labels, out);
        self.web.accept(org, out);
        self.topo.push(OrgTopo::of(org));
    }

    /// Emits the deferred web passes and returns the topology and the IE
    /// oracle: for each PeeringDB network, the sibling ASNs its text
    /// embeds. Call once, after every organization.
    pub(crate) fn seal(self, out: &mut impl RecordSink) -> (AsGraph, BTreeMap<Asn, Vec<Asn>>) {
        self.web.seal(out);
        let topology = emit_topology(
            &self.topo,
            &mut StdRng::seed_from_u64(self.seed ^ TOPO_SALT),
        );
        (topology, self.labels)
    }
}

/// `org`'s WHOIS organizations and aut-nums. A unit with
/// `whois_own_org` gets its own organization; the rest share the
/// organization's parent record, emitted with the first of them and
/// keyed by its ASN.
fn whois_records(seed: u64, org: &TruthOrg, out: &mut impl RecordSink) {
    let hq = &COUNTRIES[org.hq_country];
    let mut parent: Option<WhoisOrgId> = None;
    for unit in &org.units {
        let cinfo = &COUNTRIES[unit.country];
        let rir = rir_of(cinfo);
        let mut rng = keyed_rng(seed, WHOIS_SALT, unit.asn);
        let changed = 20_050_101u32 / 10_000 * 10_000
            + rng.random_range(0..20u32) * 10_000
            + rng.random_range(101..1231u32);
        let serial = unit.asn.value() as usize;
        let handle = if unit.whois_own_org {
            let h = WhoisOrgId::new(naming::whois_handle(
                &format!("{}{}", org.brand, cinfo.token),
                serial,
                rir.as_str(),
            ));
            out.whois_org(WhoisOrg {
                id: h.clone(),
                name: unit.legal_name.as_str().into(),
                country: cinfo.country_code(),
                source: rir,
                changed,
            });
            h
        } else {
            parent
                .get_or_insert_with(|| {
                    let parent_rir = rir_of(hq);
                    let h = WhoisOrgId::new(naming::whois_handle(
                        &org.brand,
                        serial,
                        parent_rir.as_str(),
                    ));
                    out.whois_org(WhoisOrg {
                        id: h.clone(),
                        name: org.display_name.as_str().into(),
                        country: hq.country_code(),
                        source: parent_rir,
                        changed,
                    });
                    h
                })
                .clone()
        };
        let aut_name: String = unit
            .legal_name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_uppercase();
        out.aut_num(AutNum {
            asn: unit.asn,
            name: aut_name.chars().take(16).collect(),
            org: handle,
            source: rir,
            changed,
        });
    }
}

/// `org`'s PeeringDB organizations and networks. A network's id is its
/// ASN. A unit with `pdb_own_org` gets its own organization; the rest
/// share one consolidated organization, emitted with the first of them
/// and numbered by its ASN. Sibling ASNs a network's text embeds go to
/// `labels`.
fn pdb_records(
    seed: u64,
    org: &TruthOrg,
    labels: &mut BTreeMap<Asn, Vec<Asn>>,
    out: &mut impl RecordSink,
) {
    let mut consolidated: Option<PdbOrgId> = None;
    for unit in org.units.iter().filter(|u| u.in_pdb) {
        let id = PdbOrgId::new(u64::from(unit.asn.value()));
        let org_id = if unit.pdb_own_org {
            out.pdb_org(PdbOrganization {
                id,
                name: unit.legal_name.clone(),
                website: String::new(),
                country: COUNTRIES[unit.country].code.to_string(),
            });
            id
        } else {
            *consolidated.get_or_insert_with(|| {
                out.pdb_org(PdbOrganization {
                    id,
                    name: org.display_name.clone(),
                    website: String::new(),
                    country: COUNTRIES[org.hq_country].code.to_string(),
                });
                id
            })
        };
        let lang = language_of(unit.country);
        let (notes, aka, embedded) = render_text(&unit.text, &org.brand, lang);
        if !embedded.is_empty() {
            labels.insert(unit.asn, embedded);
        }
        let website = render_website(
            &unit.web,
            &org.brand,
            &mut keyed_rng(seed, PDB_SALT, unit.asn),
        );
        out.pdb_net(PdbNetwork {
            id: u64::from(unit.asn.value()),
            org_id,
            asn: unit.asn,
            name: unit.legal_name.clone(),
            aka,
            notes,
            website,
        });
    }
}

/// Renders a [`TextPlan`] into `(notes, aka, embedded sibling ASNs)`.
fn render_text(plan: &TextPlan, brand: &str, lang: Language) -> (String, String, Vec<Asn>) {
    match plan {
        TextPlan::None => (String::new(), String::new(), Vec::new()),
        TextPlan::Boilerplate { style } => (
            textgen::boilerplate_notes(lang, brand, *style),
            String::new(),
            Vec::new(),
        ),
        TextPlan::Decoys { style, asns } => (
            textgen::decoy_notes(lang, brand, asns, *style),
            String::new(),
            Vec::new(),
        ),
        TextPlan::SiblingReport { style, siblings } => {
            let mentions: Vec<SiblingMention> = siblings
                .iter()
                .map(|(name, asn)| SiblingMention {
                    name: name.clone(),
                    asn: *asn,
                })
                .collect();
            (
                textgen::sibling_notes(lang, brand, &mentions, *style),
                String::new(),
                siblings.iter().map(|(_, a)| *a).collect(),
            )
        }
        TextPlan::AkaSibling { style, former, asn } => (
            textgen::boilerplate_notes(lang, brand, *style),
            textgen::sibling_aka(former, *asn, *style),
            vec![*asn],
        ),
    }
}

/// Renders a [`WebPlan`] into the raw string an operator would type into
/// the PeeringDB `website` field.
fn render_website(plan: &WebPlan, brand: &str, rng: &mut StdRng) -> String {
    let decorate = |host: &str, rng: &mut StdRng| match rng.random_range(0..4) {
        0 => format!("https://{host}/"),
        1 => format!("https://{host}"),
        2 => format!("http://{host}"),
        _ => host.to_string(),
    };
    match plan {
        WebPlan::None => String::new(),
        WebPlan::Own { host, .. } => decorate(host, rng),
        WebPlan::RedirectToHost { reported_host, .. } => decorate(reported_host, rng),
        WebPlan::Dead { host } => decorate(host, rng),
        WebPlan::Social { platform } => {
            if rng.random_bool(0.5) {
                format!("https://{platform}/")
            } else {
                format!("https://{platform}/{brand}")
            }
        }
    }
}

/// One deferred second-pass web node: a redirect chain or a dead host,
/// kept in arrival order until every `Own` page has been emitted.
enum DeferredWeb {
    Redirect {
        reported_host: String,
        target_host: String,
        via: Option<String>,
        js: bool,
    },
    Dead(String),
}

/// Web emission, one organization at a time.
///
/// The web is three passes over the world: own pages, then redirects
/// and dead hosts, then orphan redirect targets, so that redirect
/// targets always resolve and a host that is both a redirect source and
/// a target keeps its redirect. This emitter emits `Own` pages as each
/// organization arrives and defers the other two passes into buffers (a
/// few fields per redirect/dead plan, not whole organizations) that
/// [`WebEmitter::seal`] replays at the end. The first writer of a host
/// wins.
struct WebEmitter {
    registered: BTreeSet<String>,
    deferred: Vec<DeferredWeb>,
    /// `(target_host, favicon)` for the orphan-target pass.
    orphans: Vec<(String, Option<borges_types::FaviconHash>)>,
}

impl WebEmitter {
    /// Creates the emitter and emits the always-present social-platform
    /// pages.
    fn new(out: &mut impl RecordSink) -> Self {
        let mut registered: BTreeSet<String> = BTreeSet::new();
        for platform in SOCIAL_PLATFORMS {
            out.web_node(
                platform,
                SiteNode::page(
                    platform,
                    Some(FaviconKind::Brand((*platform).to_string()).hash().unwrap()),
                ),
            );
            registered.insert((*platform).to_string());
        }
        WebEmitter {
            registered,
            deferred: Vec::new(),
            orphans: Vec::new(),
        }
    }

    /// Emits `org`'s own pages and buffers its redirect/dead plans.
    fn accept(&mut self, org: &TruthOrg, out: &mut impl RecordSink) {
        for unit in &org.units {
            match &unit.web {
                WebPlan::Own {
                    host,
                    canonical_path,
                    favicon,
                } => {
                    if self.registered.insert(host.clone()) {
                        let canonical = match canonical_path {
                            Some(path) => format!("https://{host}{path}"),
                            None => format!("https://{host}/"),
                        };
                        out.web_node(
                            host,
                            SiteNode::Page {
                                canonical: canonical.parse().expect("valid canonical url"),
                                favicon: favicon.hash(),
                            },
                        );
                    }
                }
                WebPlan::RedirectToHost {
                    reported_host,
                    target_host,
                    via,
                    js,
                } => {
                    self.deferred.push(DeferredWeb::Redirect {
                        reported_host: reported_host.clone(),
                        target_host: target_host.clone(),
                        via: via.clone(),
                        js: *js,
                    });
                    self.orphans.push((
                        target_host.clone(),
                        FaviconKind::Brand(org.brand.clone()).hash(),
                    ));
                }
                WebPlan::Dead { host } => {
                    self.deferred.push(DeferredWeb::Dead(host.clone()));
                }
                WebPlan::None | WebPlan::Social { .. } => {}
            }
        }
    }

    /// Replays the deferred redirect/dead pass, then the orphan-target
    /// pass. Call once, after every organization has been accepted.
    fn seal(self, out: &mut impl RecordSink) {
        let mut registered = self.registered;

        // Second pass: redirects and dead hosts.
        for plan in &self.deferred {
            match plan {
                DeferredWeb::Redirect {
                    reported_host,
                    target_host,
                    via,
                    js,
                } => {
                    let final_kind = if *js {
                        RedirectKind::JavaScript
                    } else {
                        RedirectKind::Http
                    };
                    match via {
                        Some(mid) => {
                            if registered.insert(reported_host.clone()) {
                                out.web_node(
                                    reported_host,
                                    SiteNode::Redirect {
                                        to: format!("https://{mid}/")
                                            .parse()
                                            .expect("valid redirect target"),
                                        kind: RedirectKind::Http,
                                    },
                                );
                            }
                            if registered.insert(mid.clone()) {
                                out.web_node(
                                    mid,
                                    SiteNode::Redirect {
                                        to: format!("https://{target_host}/")
                                            .parse()
                                            .expect("valid redirect target"),
                                        kind: final_kind,
                                    },
                                );
                            }
                        }
                        None => {
                            if registered.insert(reported_host.clone()) {
                                out.web_node(
                                    reported_host,
                                    SiteNode::Redirect {
                                        to: format!("https://{target_host}/")
                                            .parse()
                                            .expect("valid redirect target"),
                                        kind: final_kind,
                                    },
                                );
                            }
                        }
                    }
                }
                DeferredWeb::Dead(host) => {
                    if registered.insert(host.clone()) {
                        out.web_node(host, SiteNode::Down);
                    }
                }
            }
        }

        // Third pass: redirect *targets* that nothing serves and nothing
        // redirects — e.g. the post-merger brand `www.edg.io`, which
        // exists on the web but not yet in any PeeringDB record. They
        // must serve a page for chains to land. This runs after the
        // redirect pass so that a host that is both a target (Sprint →
        // Cogent) and a source (Cogent → a later acquirer) keeps its
        // redirect.
        for (target_host, favicon) in &self.orphans {
            if registered.insert(target_host.clone()) {
                out.web_node(target_host, SiteNode::page(target_host, *favicon));
            }
        }
    }
}

/// The in-memory [`RecordSink`]: every record, in emission order.
#[derive(Default)]
struct Collected {
    whois_orgs: Vec<WhoisOrg>,
    auts: Vec<AutNum>,
    pdb_orgs: Vec<PdbOrganization>,
    nets: Vec<PdbNetwork>,
    web: Vec<(String, SiteNode)>,
}

impl RecordSink for Collected {
    fn whois_org(&mut self, org: WhoisOrg) {
        self.whois_orgs.push(org);
    }

    fn aut_num(&mut self, aut: AutNum) {
        self.auts.push(aut);
    }

    fn pdb_org(&mut self, org: PdbOrganization) {
        self.pdb_orgs.push(org);
    }

    fn pdb_net(&mut self, net: PdbNetwork) {
        self.nets.push(net);
    }

    fn web_node(&mut self, host: &str, node: SiteNode) {
        self.web.push((host.to_string(), node));
    }
}

fn collect_populations(truth: &GroundTruth) -> BTreeMap<Asn, PopulationRecord> {
    let mut map = BTreeMap::new();
    for org in truth.orgs() {
        for unit in &org.units {
            if unit.users > 0 {
                map.insert(
                    unit.asn,
                    PopulationRecord {
                        users: unit.users,
                        country: COUNTRIES[unit.country].country_code(),
                    },
                );
            }
        }
    }
    map
}

pub(crate) fn compute_asrank(topology: &AsGraph) -> Vec<Asn> {
    borges_topology::rank(topology)
        .into_iter()
        .map(|entry| entry.asn)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SyntheticInternet {
        SyntheticInternet::generate(&GeneratorConfig::tiny(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.whois.asn_count(), b.whois.asn_count());
        assert_eq!(a.pdb.net_count(), b.pdb.net_count());
        assert_eq!(a.pdb.to_json(), b.pdb.to_json());
        assert_eq!(a.asrank, b.asrank);
        assert_eq!(a.total_users(), b.total_users());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticInternet::generate(&GeneratorConfig::tiny(1));
        let b = SyntheticInternet::generate(&GeneratorConfig::tiny(2));
        assert_ne!(a.pdb.to_json(), b.pdb.to_json());
    }

    #[test]
    fn every_truth_asn_is_in_whois() {
        let world = tiny();
        for (asn, _) in world.truth.assignments() {
            assert!(
                world.whois.org_of(asn).is_some(),
                "{asn} missing from WHOIS (delegation is compulsory)"
            );
        }
        assert_eq!(world.whois.asn_count(), world.truth.asn_count());
    }

    #[test]
    fn pdb_is_a_subset_of_whois() {
        let world = tiny();
        for net in world.pdb.nets() {
            assert!(world.whois.org_of(net.asn).is_some());
        }
        assert!(world.pdb.net_count() < world.whois.asn_count());
    }

    #[test]
    fn scripted_cases_survive_generation() {
        let world = tiny();
        // Lumen: split in WHOIS…
        let l3 = world.whois.org_of(Asn::new(3356)).unwrap();
        let ctl = world.whois.org_of(Asn::new(209)).unwrap();
        assert_ne!(l3.id, ctl.id, "Fig. 3: WHOIS must split Level3/CenturyLink");
        // …merged in PeeringDB.
        let l3p = world.pdb.org_of_asn(Asn::new(3356)).unwrap();
        let ctlp = world.pdb.org_of_asn(Asn::new(209)).unwrap();
        assert_eq!(l3p.id, ctlp.id, "Fig. 3: PeeringDB must merge them");
    }

    #[test]
    fn clearwire_chain_resolves_to_tmobile() {
        use borges_websim::{SimWebClient, WebClient};
        let world = tiny();
        let client = SimWebClient::browser(&world.web);
        let r = client
            .fetch(&"http://www.clearwire.com".parse().unwrap())
            .unwrap();
        assert!(r.hops() >= 2, "must pass through the intermediate hop");
        assert_eq!(
            r.final_url.unwrap().host().as_str(),
            "www.t-mobile.com",
            "Fig. 5b chain broken"
        );
    }

    #[test]
    fn edgio_pair_shares_a_final_url() {
        use borges_websim::{SimWebClient, WebClient};
        let world = tiny();
        let client = SimWebClient::browser(&world.web);
        let limelight = client
            .fetch(&"http://www.limelight.com".parse().unwrap())
            .unwrap();
        let edgecast = client
            .fetch(&"http://www.edgecast.com".parse().unwrap())
            .unwrap();
        assert_eq!(limelight.final_url, edgecast.final_url);
        assert_eq!(limelight.final_url.unwrap().host().as_str(), "www.edg.io");
    }

    #[test]
    fn text_labels_point_at_extractable_text() {
        let world = tiny();
        assert!(!world.text_labels.is_empty());
        for (asn, siblings) in &world.text_labels {
            let net = world.pdb.net_by_asn(*asn).expect("labeled nets are in PDB");
            assert!(net.has_numeric_text(), "labeled {asn} has no digits");
            assert!(!siblings.is_empty());
        }
    }

    #[test]
    fn population_totals_match_config() {
        let world = tiny();
        let total = world.total_users();
        let target = world.config.total_users;
        let ratio = total as f64 / target as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "population {total} vs target {target}"
        );
    }

    #[test]
    fn asrank_covers_every_asn_exactly_once() {
        let world = tiny();
        assert_eq!(world.asrank.len(), world.truth.asn_count());
        let set: BTreeSet<_> = world.asrank.iter().collect();
        assert_eq!(set.len(), world.asrank.len());
    }

    #[test]
    fn asrank_puts_infrastructure_first() {
        let world = tiny();
        // Among the top 20 ranked ASNs, most should belong to multi-ASN
        // organizations (transit/hypergiant/conglomerate).
        let multi = world
            .asrank
            .iter()
            .take(20)
            .filter(|a| {
                let org = world.truth.org(world.truth.org_of(**a).unwrap());
                org.units.len() > 1
            })
            .count();
        assert!(multi >= 14, "only {multi}/20 top-ranked ASNs are multi-ASN");
    }

    #[test]
    fn world_scale_matches_config_ballpark() {
        let world = tiny();
        let expected = world.config.approx_asn_count();
        let actual = world.truth.asn_count();
        let ratio = actual as f64 / expected as f64;
        assert!(
            (0.6..1.4).contains(&ratio),
            "{actual} vs expected {expected}"
        );
    }

    #[test]
    fn social_platform_pages_exist() {
        let world = tiny();
        for platform in SOCIAL_PLATFORMS {
            let host: borges_types::Host = platform.parse().unwrap();
            assert!(world.web.lookup(&host).is_some(), "{platform} missing");
        }
    }
}
