//! Internet-scale worlds: the streaming generator must be invisible in
//! the output. A bundle written by `generate_to_dir` is the world the
//! materialized generator builds: it maps to the same mapfiles and
//! carries the same ground truth, and streaming generation is
//! deterministic.

use borges_core::mapfile;
use borges_core::pipeline::{Borges, FeatureSet};
use borges_llm::SimLlm;
use borges_synthnet::io::{save, DatasetBundle};
use borges_synthnet::{generate_to_dir, GeneratorConfig, SyntheticInternet};
use borges_types::Asn;
use borges_websim::SimWebClient;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("borges-scale-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streamed_bundle_maps_like_the_materialized_one() {
    let config = GeneratorConfig::tiny(5);
    let streamed_dir = tmpdir("streamed");
    let report = generate_to_dir(&config, &streamed_dir).expect("streaming generation");
    let materialized = SyntheticInternet::generate(&config);
    assert_eq!(report.asns, materialized.truth.asn_count());

    // The oracle files are byte-identical across the two writers.
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

    // The streamed bundle is a first-class pipeline input: it loads and
    // maps to exactly the in-memory world's mapfiles, and the scripted
    // ground truth survives the trip (Lumen's WHOIS fragments reunite
    // through the evidence).
    let bundle = DatasetBundle::load(&streamed_dir).expect("streamed bundle loads");
    let llm = SimLlm::new(5);
    let streamed = Borges::run(
        &bundle.whois,
        &bundle.pdb,
        SimWebClient::browser(&bundle.web),
        &llm,
    );
    let in_memory = Borges::run(
        &materialized.whois,
        &materialized.pdb,
        SimWebClient::browser(&materialized.web),
        &llm,
    );
    for features in FeatureSet::all_combinations() {
        assert_eq!(
            mapfile::serialize(&streamed.mapping(features)),
            mapfile::serialize(&in_memory.mapping(features)),
            "{} mapfile diverged between the streamed and in-memory worlds",
            features.label()
        );
    }
    assert!(
        streamed
            .mapping(FeatureSet::ALL)
            .same_org(Asn::new(3356), Asn::new(209)),
        "Lumen family"
    );

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
