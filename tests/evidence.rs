//! `Borges::evidence` against the sparse rebuild it replaced.
//!
//! `evidence` answers from a per-feature component table over the
//! compiled edge segments. Before that table, every call rebuilt five
//! sparse `UnionFind`s over the raw feature inputs; that body lives on
//! here as the oracle [`Sparse`], its forests built once per world
//! instead of once per call. The two must agree on every pair of the
//! universe but one kind: a pair the raw inputs link only through an ASN
//! outside the universe. The compile drops such ASNs, so the mapping
//! never merges that pair and the table does not list it.
//!
//! Each world is checked three ways: freshly built, cold-started from
//! its encoded store artifact, and remapped after 1% churn. Three more
//! properties are pinned: a query leaves the artifact bytes alone, a
//! clone answers as the original does, and racing first queries agree.

use borges_core::delta::{SlotRecord, SNAPSHOT_STATE_SCHEMA};
use borges_core::pipeline::{Borges, Feature, IngestOptions, WebSource};
use borges_core::world::NerEntryRecord;
use borges_core::{CompiledWorld, ServingExtras, SnapshotState, UnionFind};
use borges_llm::SimLlm;
use borges_store::{decode_world, encode_world};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_types::Asn;
use borges_websim::{ScrapeReport, Scraper, SimWebClient};
use std::collections::BTreeSet;
use std::sync::Barrier;

/// The order `evidence` lists features in.
const ORDER: [Feature; 5] = [
    Feature::OidW,
    Feature::OidP,
    Feature::NotesAka,
    Feature::RefreshRedirect,
    Feature::Favicons,
];

/// The per-feature forests of the old `Borges::evidence`. With a
/// `universe`, members outside it are dropped first, as the compile
/// drops them.
struct Sparse {
    forests: [UnionFind; 5],
}

impl Sparse {
    fn new(borges: &Borges, universe: Option<&BTreeSet<Asn>>) -> Self {
        let inside = |asn: &Asn| universe.map_or(true, |u| u.contains(asn));
        let connect = |groups: &[Vec<Asn>]| {
            let mut uf = UnionFind::new();
            for group in groups {
                let members: Vec<Asn> = group.iter().copied().filter(inside).collect();
                uf.union_group(&members);
            }
            uf
        };
        // The registry groups are private to `Borges`; its world
        // capture carries them verbatim.
        let extras = borges.to_world().extras;
        let wire = |groups: &[Vec<u32>]| -> Vec<Vec<Asn>> {
            groups
                .iter()
                .map(|g| g.iter().map(|&n| Asn::new(n)).collect())
                .collect()
        };
        let mut na = UnionFind::new();
        for (x, y) in borges.ner.edges() {
            if inside(&x) && inside(&y) {
                na.union(x, y);
            }
        }
        let rr: Vec<Vec<Asn>> = borges.rr.merging_groups().cloned().collect();
        Sparse {
            forests: [
                connect(&wire(&extras.oid_w_groups)),
                connect(&wire(&extras.oid_p_groups)),
                na,
                connect(&rr),
                connect(&borges.favicon.groups),
            ],
        }
    }

    fn evidence(&mut self, a: Asn, b: Asn) -> Vec<Feature> {
        ORDER
            .into_iter()
            .zip(&mut self.forests)
            .filter_map(|(feature, uf)| uf.same_set(a, b).then_some(feature))
            .collect()
    }

    /// Every pair inside each feature's components of at most `cap`
    /// ASNs: exactly the pairs the oracle lists that feature for.
    fn component_pairs(&self, cap: usize) -> Vec<(Asn, Asn)> {
        let mut pairs = Vec::new();
        for uf in &self.forests {
            for group in uf.clone().into_groups() {
                if group.len() <= cap {
                    pairs.extend(pairs_within(&group));
                }
            }
        }
        pairs
    }
}

fn pairs_within(members: &[Asn]) -> impl Iterator<Item = (Asn, Asn)> + '_ {
    members
        .iter()
        .enumerate()
        .flat_map(move |(i, &a)| members[i + 1..].iter().map(move |&b| (a, b)))
}

fn crawl(world: &SyntheticInternet) -> ScrapeReport {
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
}

/// The sequential ingest of `world` with the paper-calibrated model: a
/// full build, or a remap against `prior`.
fn ingest(world: &SyntheticInternet, seed: u64, prior: Option<&SnapshotState>) -> Borges {
    Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Scraped(&crawl(world)),
        &SimLlm::new(seed),
        &IngestOptions {
            prior,
            ..IngestOptions::default()
        },
        &Telemetry::disabled(),
    )
}

/// The full build of the tiny world at seed 17.
fn tiny_build() -> Borges {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(17));
    ingest(&world, 17, None)
}

/// A cold start from the encoded store artifact of `borges`.
fn round_trip(borges: &Borges) -> Borges {
    let loaded = decode_world(&encode_world(&borges.to_world())).expect("decode artifact");
    Borges::from_world(&loaded.world, 2).expect("replay world")
}

/// The probe set: every distinct pair inside each full-mapping cluster
/// of at most 40 ASNs, 2,000 random pairs, and self-pairs for every
/// 16th ASN.
fn probe_pairs(borges: &Borges, seed: u64) -> Vec<(Asn, Asn)> {
    let mut pairs = Vec::new();
    for (_, members) in borges.full().clusters() {
        if members.len() <= 40 {
            pairs.extend(pairs_within(members));
        }
    }
    let universe = borges.universe();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut pick = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        universe[(state % universe.len() as u64) as usize]
    };
    pairs.extend((0..2000).map(|_| (pick(), pick())));
    pairs.extend(universe.iter().step_by(16).map(|&a| (a, a)));
    pairs
}

/// Checks `borges.evidence` on `pairs` against the oracle and against
/// the full mapping; returns how many pairs the oracle links only
/// through an ASN outside the universe.
fn check(borges: &Borges, pairs: &[(Asn, Asn)], label: &str) -> usize {
    let universe: BTreeSet<Asn> = borges.universe().into_iter().collect();
    let mut oracle = Sparse::new(borges, None);
    let mut inside = Sparse::new(borges, Some(&universe));
    let full = borges.full();
    let mut linked_outside = 0;
    for &(a, b) in pairs {
        let got = borges.evidence(a, b);
        assert!(
            got.is_empty() || full.same_org(a, b),
            "{label}: {a}/{b} lists {got:?}, but the full mapping splits them"
        );
        let want = oracle.evidence(a, b);
        if got == want {
            continue;
        }
        let within = inside.evidence(a, b);
        let missing: Vec<Feature> = want.iter().copied().filter(|f| !got.contains(f)).collect();
        assert!(
            got.iter().all(|f| want.contains(f)),
            "{label}: {a}/{b} lists {got:?}, the sparse rebuild {want:?}"
        );
        assert!(
            missing.iter().all(|f| !within.contains(f)),
            "{label}: {a}/{b} lacks {missing:?}, which connect it inside the universe"
        );
        linked_outside += 1;
    }
    linked_outside
}

/// The full build, its store round trip and a remap of `churn(1%)`
/// all answer as the oracle does on `probe_pairs`.
fn assert_matches_oracle(config: GeneratorConfig, seed: u64) {
    let world = SyntheticInternet::generate(&config);
    let built = ingest(&world, seed, None);
    let pairs = probe_pairs(&built, seed);
    let mut outside = check(&built, &pairs, "full build");
    outside += check(&round_trip(&built), &pairs, "store round trip");

    let (next, _) = churn(&world, 1.0, seed);
    let remapped = ingest(&next, seed, Some(&built.snapshot_state()));
    outside += check(
        &remapped,
        &probe_pairs(&remapped, seed),
        "remap of 1% churn",
    );
    eprintln!(
        "seed {seed}: {} pairs per setting, {outside} linked only outside the universe",
        pairs.len()
    );
}

#[test]
fn tiny_world_matches_the_sparse_rebuild() {
    assert_matches_oracle(GeneratorConfig::tiny(17), 17);
}

#[test]
fn medium_world_matches_the_sparse_rebuild() {
    assert_matches_oracle(GeneratorConfig::medium(7), 7);
}

#[test]
fn listed_features_imply_a_full_merge() {
    // The oracle's own components are the pairs it lists a feature
    // for. On this world some of them are linked only through an ASN
    // outside the universe: the oracle lists `notes and aka` for
    // them, yet the full mapping keeps them apart.
    let world = SyntheticInternet::generate(&GeneratorConfig::medium(7));
    let borges = ingest(&world, 7, None);
    let pairs = Sparse::new(&borges, None).component_pairs(40);
    let linked_outside = check(&borges, &pairs, "medium seed 7");
    assert!(linked_outside > 0, "no pair is linked outside the universe");
}

#[test]
fn a_link_outside_the_universe_is_the_one_accepted_difference() {
    // Generated worlds rarely produce this case, so build it: AS10 and
    // AS20 share no edge, and both extractions name AS99, which is
    // outside the universe.
    let world = CompiledWorld {
        state: SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            slots: [10, 20].map(|asn| SlotRecord { asn, live: true }).to_vec(),
            ..SnapshotState::default()
        },
        extras: ServingExtras {
            ner_entries: [10, 20]
                .map(|asn| NerEntryRecord {
                    asn,
                    siblings: vec![99],
                })
                .to_vec(),
            ..ServingExtras::default()
        },
        epoch: 0,
        digest: None,
    };
    let borges = Borges::from_world(&world, 1).unwrap();
    let (a10, a20) = (Asn::new(10), Asn::new(20));
    let mut oracle = Sparse::new(&borges, None);
    assert_eq!(oracle.evidence(a10, a20), vec![Feature::NotesAka]);
    assert!(borges.evidence(a10, a20).is_empty());
    let pairs = [(a10, a20), (a10, a10), (a20, a20)];
    assert_eq!(check(&borges, &pairs, "linked outside"), 1);
}

#[test]
fn evidence_leaves_the_artifact_bytes_unchanged() {
    let borges = tiny_build();
    let before = encode_world(&borges.to_world());
    for (a, b) in probe_pairs(&borges, 17) {
        borges.evidence(a, b);
    }
    assert_eq!(encode_world(&borges.to_world()), before);
    assert_eq!(encode_world(&round_trip(&borges).to_world()), before);
}

#[test]
fn a_clone_answers_the_same() {
    let borges = tiny_build();
    let pairs = probe_pairs(&borges, 17);
    // One clone taken before the first query, one after it.
    let cold = borges.clone();
    let answers: Vec<Vec<Feature>> = pairs.iter().map(|&(a, b)| borges.evidence(a, b)).collect();
    let warm = borges.clone();
    for (clone, label) in [(&cold, "cold clone"), (&warm, "warm clone")] {
        let cloned: Vec<Vec<Feature>> = pairs.iter().map(|&(a, b)| clone.evidence(a, b)).collect();
        assert_eq!(cloned, answers, "{label}");
    }
}

#[test]
fn concurrent_first_queries_agree() {
    let built = tiny_build();
    let pairs = probe_pairs(&built, 17);
    let expected: Vec<Vec<Feature>> = pairs.iter().map(|&(a, b)| built.evidence(a, b)).collect();
    // A fresh world whose table is built by whichever thread asks
    // first: the barrier releases every thread's first query at once,
    // and each thread walks the pairs from a different offset.
    let fresh = round_trip(&built);
    let threads = 4;
    let start_line = Barrier::new(threads);
    let answers: Vec<Vec<Vec<Feature>>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (fresh, pairs, start_line) = (&fresh, &pairs, &start_line);
                s.spawn(move || {
                    start_line.wait();
                    let start = t * pairs.len() / threads;
                    let mut out = vec![Vec::new(); pairs.len()];
                    for i in (start..pairs.len()).chain(0..start) {
                        let (a, b) = pairs[i];
                        out[i] = fresh.evidence(a, b);
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (t, got) in answers.iter().enumerate() {
        assert_eq!(got, &expected, "thread {t}");
    }
}
