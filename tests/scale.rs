//! Internet-scale worlds: the streaming generator and the sharded
//! evidence replay must both be invisible in the output.
//!
//! Two contracts are pinned here, across crate boundaries:
//!
//! * **Sharded == sequential.** Partitioning the evidence replay by
//!   dense-id range and unioning shards concurrently produces exactly
//!   the same partition — and exactly the same mapping file bytes — as
//!   the sequential replay, for every feature combination, any shard
//!   count (including degenerate ones larger than the universe), and
//!   arbitrary edge lists.
//! * **Streamed worlds are real worlds.** A bundle written by
//!   `generate_to_dir` loads, maps, and carries the same ground truth
//!   the materialized generator would have written.

use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_core::{mapfile, DenseUnionFind};
use borges_llm::SimLlm;
use borges_synthnet::io::{save, DatasetBundle};
use borges_synthnet::{generate_to_dir, GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_types::Asn;
use borges_websim::SimWebClient;
use proptest::prelude::*;

/// Shard counts exercised everywhere: the sequential fallback, small
/// counts, a prime, and counts far beyond any sensible universe.
const SHARD_COUNTS: [usize; 6] = [1, 2, 3, 7, 16, 64];

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("borges-scale-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_world(seed: u64) -> (SyntheticInternet, Borges) {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(seed));
    let llm = SimLlm::new(seed);
    let borges = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    );
    (world, borges)
}

/// Canonical labeling: each element tagged with the smallest member of
/// its set, so two forests compare structurally.
fn canon(uf: &mut DenseUnionFind, n: usize) -> Vec<u32> {
    let mut label = vec![u32::MAX; n];
    for i in 0..n as u32 {
        if label[i as usize] != u32::MAX {
            continue;
        }
        for j in i..n as u32 {
            if uf.same_set(i, j) {
                label[j as usize] = i;
            }
        }
    }
    label
}

/// Random segmented edge lists over a dense universe of size `n`.
fn edge_lists_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(u32, u32)>>)> {
    (1usize..120).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        let list = prop::collection::vec(edge, 0..40);
        (Just(n), prop::collection::vec(list, 0..6))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_union_matches_sequential_for_any_edge_lists(
        (n, lists) in edge_lists_strategy(),
    ) {
        let slices: Vec<&[(u32, u32)]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut sequential = DenseUnionFind::new(n);
        sequential.union_edge_lists(&slices);
        let expected = canon(&mut sequential, n);

        for shards in SHARD_COUNTS {
            let mut sharded = DenseUnionFind::new(n);
            let report = sharded.union_edge_lists_sharded(&slices, shards, || 0);
            prop_assert_eq!(
                canon(&mut sharded, n),
                expected.clone(),
                "partition diverged at {} shards over n={}",
                shards,
                n
            );
            // The ledger invariant CI asserts: every contraction edge is
            // either a shard-local spanning edge or a cross-range edge.
            let spanning: usize = report.shards.iter().map(|s| s.spanning).sum();
            prop_assert_eq!(report.contraction_edges, spanning + report.cross_edges);
        }
    }
}

#[test]
fn sharded_mapping_bytes_match_sequential_for_every_combination() {
    let (_, borges) = run_world(31);
    for features in FeatureSet::all_combinations() {
        let expected = mapfile::serialize(&borges.mapping(features));
        for shards in SHARD_COUNTS {
            let got = mapfile::serialize(&borges.mapping_sharded(features, shards));
            assert_eq!(
                got,
                expected,
                "mapfile diverged: features {} at {} shards",
                features.label(),
                shards
            );
        }
    }
}

#[test]
fn sharded_compile_and_remap_match_their_sequential_twins() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(47));
    let llm = SimLlm::new(47);
    let scraper = borges_websim::Scraper::new(SimWebClient::browser(&world.web));
    let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
    let ingest = |opts: &IngestOptions<'_>| {
        Borges::ingest(
            &world.whois,
            &world.pdb,
            WebSource::Scraped(&report),
            &llm,
            opts,
            &Telemetry::disabled(),
        )
    };

    let sequential = ingest(&IngestOptions::default());
    let expected = mapfile::serialize(&sequential.mapping(FeatureSet::ALL));
    let state = sequential.snapshot_state();

    for threads in [2, 3, 7] {
        let full = IngestOptions {
            threads,
            ..IngestOptions::default()
        };
        let compiled = ingest(&full);
        assert_eq!(
            mapfile::serialize(&compiled.mapping(FeatureSet::ALL)),
            expected,
            "sharded compile diverged at {threads} threads"
        );

        let remapped = ingest(&IngestOptions {
            prior: Some(&state),
            ..full
        });
        assert_eq!(
            mapfile::serialize(&remapped.mapping(FeatureSet::ALL)),
            expected,
            "sharded remap diverged at {threads} threads"
        );
        let delta = remapped.delta.expect("remap records delta stats");
        assert_eq!(delta.records.dirty(), 0, "unchanged bundle, clean remap");
    }
}

#[test]
fn streamed_bundle_maps_like_the_materialized_one() {
    let config = GeneratorConfig::tiny(5);
    let streamed_dir = tmpdir("streamed");
    let report = generate_to_dir(&config, &streamed_dir).expect("streaming generation");
    let materialized = SyntheticInternet::generate(&config);
    assert_eq!(report.asns, materialized.truth.asn_count());

    // The oracle files are byte-identical across the two writers; the
    // scraped datasets are each its own deterministic world.
    let materialized_dir = tmpdir("materialized");
    save(&materialized, &materialized_dir).expect("materialized save");
    for oracle in [
        "truth.psv",
        "labels.psv",
        "populations.psv",
        "hypergiants.psv",
    ] {
        assert_eq!(
            std::fs::read(streamed_dir.join(oracle)).unwrap(),
            std::fs::read(materialized_dir.join(oracle)).unwrap(),
            "{oracle} diverged between the streaming and materialized writers"
        );
    }

    // The streamed bundle is a first-class pipeline input: it loads,
    // maps deterministically, and the scripted ground truth survives
    // the trip (Lumen's WHOIS fragments reunite through the evidence).
    let bundle = DatasetBundle::load(&streamed_dir).expect("streamed bundle loads");
    let llm = SimLlm::new(5);
    let borges = Borges::run(
        &bundle.whois,
        &bundle.pdb,
        SimWebClient::browser(&bundle.web),
        &llm,
    );
    let mapping = borges.mapping(FeatureSet::ALL);
    assert!(
        mapping.same_org(Asn::new(3356), Asn::new(209)),
        "Lumen family"
    );
    for shards in SHARD_COUNTS {
        assert_eq!(
            mapfile::serialize(&borges.mapping_sharded(FeatureSet::ALL, shards)),
            mapfile::serialize(&mapping),
            "sharded mapping over a streamed bundle diverged at {shards} shards"
        );
    }

    let _ = std::fs::remove_dir_all(&streamed_dir);
    let _ = std::fs::remove_dir_all(&materialized_dir);
}

#[test]
fn streaming_generation_is_deterministic_at_the_bundle_level() {
    let config = GeneratorConfig::tiny(11);
    let a = tmpdir("det-a");
    let b = tmpdir("det-b");
    let ra = generate_to_dir(&config, &a).unwrap();
    let rb = generate_to_dir(&config, &b).unwrap();
    assert_eq!(ra, rb);
    for entry in std::fs::read_dir(&a).unwrap() {
        let name = entry.unwrap().file_name();
        assert_eq!(
            std::fs::read(a.join(&name)).unwrap(),
            std::fs::read(b.join(&name)).unwrap(),
            "{name:?} diverged between identical streaming runs"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
