//! Longitudinal integration: evolve a world through corporate events,
//! map both snapshots, and verify the diff shows the right signatures.

use borges_core::diff::diff;
use borges_core::pipeline::Borges;
use borges_core::{mapfile, AsOrgMapping};
use borges_llm::SimLlm;
use borges_synthnet::{EvolutionEvent, GeneratorConfig, SyntheticInternet};
use borges_types::Asn;
use borges_websim::SimWebClient;

fn map(world: &SyntheticInternet) -> AsOrgMapping {
    let llm = SimLlm::new(77);
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    )
    .full()
}

#[test]
fn acquisition_surfaces_as_a_merge_in_the_mapping_diff() {
    let before_world = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
    let after_world = before_world
        .evolve(&[EvolutionEvent::Acquisition {
            acquirer: "cogent".into(),
            target: "orange".into(),
        }])
        .unwrap();

    let before = map(&before_world);
    let after = map(&after_world);
    assert!(!before.same_org(Asn::new(174), Asn::new(3215)));
    assert!(after.same_org(Asn::new(174), Asn::new(3215)));

    let d = diff(&before, &after);
    assert!(
        d.merges.iter().any(|m| {
            m.fragments
                .iter()
                .flatten()
                .any(|&asn| asn == Asn::new(174))
                && m.fragments
                    .iter()
                    .flatten()
                    .any(|&asn| asn == Asn::new(3215))
        }),
        "the Cogent+Orange merge must appear in the diff"
    );
    assert_eq!(d.appeared.len(), 0);
    assert_eq!(d.disappeared.len(), 0);
}

#[test]
fn spinoff_surfaces_as_a_split() {
    let before_world = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
    let after_world = before_world
        .evolve(&[EvolutionEvent::Spinoff {
            brand: "digicel".into(),
            countries: vec!["KE".into(), "NG".into()],
            new_brand: "sahelwave".into(),
        }])
        .unwrap();
    let before = map(&before_world);
    let after = map(&after_world);
    assert!(before.same_org(Asn::new(23520), Asn::new(36926)));
    assert!(!after.same_org(Asn::new(23520), Asn::new(36926)));
    let d = diff(&before, &after);
    assert!(
        d.splits
            .iter()
            .any(|s| s.pieces.iter().flatten().any(|&a| a == Asn::new(36926))),
        "the Digicel split must appear in the diff"
    );
}

#[test]
fn rebrand_is_structurally_invisible() {
    let before_world = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
    let after_world = before_world
        .evolve(&[EvolutionEvent::Rebrand {
            brand: "telekom".into(),
            new_brand: "magenta".into(),
        }])
        .unwrap();
    let before = map(&before_world);
    let after = map(&after_world);
    // Same clusters around the DT family.
    assert_eq!(
        before.siblings_of(Asn::new(3320)),
        after.siblings_of(Asn::new(3320)),
        "a pure rebrand must not change the inferred organization"
    );
}

#[test]
fn mapping_releases_diff_through_the_file_format() {
    // The end-user workflow: serialize both releases, parse them back,
    // diff the parsed mappings — the file format must preserve everything
    // the diff needs.
    let before_world = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
    let after_world = before_world
        .evolve(&[EvolutionEvent::Acquisition {
            acquirer: "telekom".into(),
            target: "orange".into(),
        }])
        .unwrap();
    let before = map(&before_world);
    let after = map(&after_world);

    let before_parsed = mapfile::parse(&mapfile::serialize(&before)).unwrap();
    let after_parsed = mapfile::parse(&mapfile::serialize(&after)).unwrap();
    let direct = diff(&before, &after);
    let through_files = diff(&before_parsed, &after_parsed);
    assert_eq!(direct.merges.len(), through_files.merges.len());
    assert_eq!(direct.splits.len(), through_files.splits.len());
    assert_eq!(direct.unchanged_clusters, through_files.unchanged_clusters);
}
