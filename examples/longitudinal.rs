//! Longitudinal analysis: tracking organizational change across
//! snapshots — the capability §7 of the paper wishes existed.
//!
//! We generate a world, apply a year of corporate events (an acquisition,
//! a rebranding, a spinoff), re-run Borges on both snapshots, and diff
//! the two mapping releases: the acquisition surfaces as a merge, the
//! spinoff as a split, the rebrand as no structural change at all —
//! exactly the signatures an analyst would look for.
//!
//! ```sh
//! cargo run --example longitudinal
//! ```

use borges_core::diff::diff;
use borges_core::pipeline::Borges;
use borges_llm::SimLlm;
use borges_synthnet::{EvolutionEvent, GeneratorConfig, SyntheticInternet};
use borges_websim::SimWebClient;

fn map(world: &SyntheticInternet, seed: u64) -> borges_core::AsOrgMapping {
    let llm = SimLlm::new(seed);
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    )
    .full()
}

fn main() {
    let before_world = SyntheticInternet::generate(&GeneratorConfig::tiny(42));
    println!(
        "snapshot t₀: {} organizations (truth)",
        before_world.truth.org_count()
    );

    let events = vec![
        EvolutionEvent::Acquisition {
            acquirer: "cogent".into(),
            target: "orange".into(),
        },
        EvolutionEvent::Rebrand {
            brand: "telekom".into(),
            new_brand: "magenta".into(),
        },
        EvolutionEvent::Spinoff {
            brand: "digicel".into(),
            countries: vec!["KE".into(), "NG".into(), "ZA".into()],
            new_brand: "sahelwave".into(),
        },
    ];
    println!("\nevents between snapshots:");
    for e in &events {
        println!("  {e:?}");
    }
    let after_world = before_world.evolve(&events).expect("events apply cleanly");
    println!(
        "snapshot t₁: {} organizations (truth)",
        after_world.truth.org_count()
    );

    println!("\nrunning Borges on both snapshots…");
    let before = map(&before_world, 42);
    let after = map(&after_world, 42);

    let d = diff(&before, &after);
    println!("\nmapping release diff (t₀ → t₁):");
    println!("  merges:           {}", d.merges.len());
    println!("  splits:           {}", d.splits.len());
    println!("  unchanged orgs:   {}", d.unchanged_clusters);

    // The acquisition signature: Cogent's cluster absorbed Orange's.
    let cogent = borges_types::Asn::new(174);
    let orange = borges_types::Asn::new(3215);
    println!(
        "\nCogent ~ Orange before: {}   after: {}   (the acquisition signature)",
        before.same_org(cogent, orange),
        after.same_org(cogent, orange)
    );

    // The spinoff signature: Digicel Kenya left the Digicel cluster.
    let digicel_jm = borges_types::Asn::new(23520);
    let digicel_ke = borges_types::Asn::new(36926);
    println!(
        "Digicel JM ~ Digicel KE before: {}   after: {}   (the spinoff signature)",
        before.same_org(digicel_jm, digicel_ke),
        after.same_org(digicel_jm, digicel_ke)
    );

    // The rebrand signature: structure unchanged, only names moved.
    let dt = borges_types::Asn::new(3320);
    let magyar = borges_types::Asn::new(5483);
    println!(
        "Deutsche Telekom ~ Magyar Telekom before: {}   after: {}   (rebrand: no structural change)",
        before.same_org(dt, magyar),
        after.same_org(dt, magyar)
    );
}
