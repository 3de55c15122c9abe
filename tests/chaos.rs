//! End-to-end fault-injection soak: the keystone guarantees of the
//! resilience layer, checked over whole synthetic Internets.
//!
//! Two contracts, straight from the failure-model design:
//!
//! 1. **Recoverable chaos is invisible.** A world whose every transport
//!    episode is recoverable within the retry budget produces a mapping
//!    **bit-identical** to the flawless world's, for every feature
//!    subset — retries erase calibrated faults entirely.
//! 2. **Unrecoverable chaos degrades, with receipts.** With retries
//!    disabled (or permanent outages injected), the pipeline still
//!    completes: every abandoned record is counted
//!    (`abandoned + succeeded == attempted` per feature), nothing
//!    panics, nothing is silently dropped, and the degraded mapping
//!    only ever *removes* merges relative to the flawless one.
//!
//! The seed sweep width is controlled by `BORGES_CHAOS_SEEDS`
//! (default 3); CI's soak job raises it.

use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_llm::{ChatModel, FlakyModel, SimLlm};
use borges_resilience::{EpisodePlan, RetryPolicy};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::{RunReport, Telemetry, Verbosity};
use borges_websim::{FlakyWebClient, SimWebClient, WebClient};

fn chaos_seeds() -> u64 {
    std::env::var("BORGES_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn flawless(world: &SyntheticInternet) -> Borges {
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &SimLlm::flawless(),
    )
}

/// The sequential ingest of `world` over `web` and `llm`, resilient
/// under `policy`.
fn resilient(
    world: &SyntheticInternet,
    web: impl WebClient + Sync,
    llm: &(dyn ChatModel + Sync),
    policy: RetryPolicy,
    tel: &Telemetry,
) -> Borges {
    let opts = IngestOptions {
        policy: Some(policy),
        ..IngestOptions::default()
    };
    Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Crawl(&web),
        llm,
        &opts,
        tel,
    )
}

#[test]
fn chaos_recoverable_worlds_map_bit_identically() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let reference = flawless(&world);
    for seed in 1..=chaos_seeds() {
        let web = FlakyWebClient::new(
            SimWebClient::browser(&world.web),
            EpisodePlan::calibrated(seed),
        );
        let llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(seed ^ 0xFACE));
        let chaotic = resilient(
            &world,
            web,
            &llm,
            RetryPolicy::standard(seed),
            &Telemetry::disabled(),
        );

        for features in FeatureSet::all_combinations() {
            assert_eq!(
                chaotic.mapping(features),
                reference.mapping(features),
                "seed {seed}: {} diverged under recoverable chaos",
                features.label()
            );
        }
        let coverage = chaotic.coverage();
        assert!(coverage.accounted(), "seed {seed}");
        assert!(
            coverage.complete(),
            "seed {seed}: recoverable chaos must lose nothing"
        );
        assert!(
            chaotic.scrape_stats.resilience.recovered
                + chaotic.ner.stats.resilience.recovered
                + chaotic.favicon.stats.resilience.recovered
                > 0,
            "seed {seed}: the plan must actually have injected faults"
        );
    }
}

#[test]
fn chaos_degraded_worlds_account_for_every_loss() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let reference = flawless(&world).full();
    for seed in 1..=chaos_seeds() {
        // Permanent outages AND no retry budget: losses are certain.
        let web = FlakyWebClient::new(
            SimWebClient::browser(&world.web),
            EpisodePlan::with_outages(seed),
        );
        let llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::with_outages(seed ^ 0xFACE));
        let degraded = resilient(
            &world,
            web,
            &llm,
            RetryPolicy::none(),
            &Telemetry::disabled(),
        );

        // No silent drops: every feature's ledger balances.
        let coverage = degraded.coverage();
        assert!(
            coverage.accounted(),
            "seed {seed}: abandoned + succeeded != attempted"
        );
        assert!(
            coverage.total_abandoned() > 0,
            "seed {seed}: outages must cost something"
        );
        // LLM-stage ledgers balance individually too.
        assert_eq!(
            degraded.ner.stats.llm_abandoned + coverage.notes_aka.succeeded,
            degraded.ner.stats.llm_calls,
            "seed {seed}"
        );
        assert_eq!(
            degraded.favicon.stats.llm_abandoned + coverage.favicon_groups.succeeded,
            degraded.favicon.stats.llm_calls,
            "seed {seed}"
        );

        // Strictly degraded but valid: same universe, and only *removed*
        // merges — partial evidence never invents a sibling relation.
        let full = degraded.full();
        assert_eq!(full.asn_count(), reference.asn_count(), "seed {seed}");
        for (_, members) in full.clusters() {
            for pair in members.windows(2) {
                assert!(
                    reference.same_org(pair[0], pair[1]),
                    "seed {seed}: degraded run invented a merge {pair:?}"
                );
            }
        }
    }
}

#[test]
fn chaos_run_ledgers_balance_and_reproduce_across_seeds() {
    // The emitted RunReport is the soak job's receipt: for every chaos
    // seed — recoverable and degraded alike — the ledger must balance
    // (`abandoned + succeeded == attempted` per stage) and a repeated
    // run under the same seed must emit byte-identical JSON.
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let ledger = |seed: u64, plan: fn(u64) -> EpisodePlan, policy: &RetryPolicy| {
        let tel = Telemetry::sim(Verbosity::Quiet);
        let web = FlakyWebClient::new(SimWebClient::browser(&world.web), plan(seed));
        let llm = FlakyModel::new(SimLlm::flawless(), plan(seed ^ 0xFACE));
        let borges = resilient(&world, web, &llm, *policy, &tel);
        borges.run_report(&tel, "resilient", 1).to_json_pretty()
    };
    for seed in 1..=chaos_seeds() {
        for (plan, policy) in [
            (
                EpisodePlan::calibrated as fn(u64) -> EpisodePlan,
                RetryPolicy::standard(seed),
            ),
            (EpisodePlan::with_outages, RetryPolicy::none()),
        ] {
            let json = ledger(seed, plan, &policy);
            assert_eq!(
                json,
                ledger(seed, plan, &policy),
                "seed {seed}: chaos ledger must be reproducible"
            );
            let report = RunReport::from_json(&json).expect("ledger JSON parses");
            assert!(
                report.accounted(),
                "seed {seed}: abandoned + succeeded != attempted in\n{json}"
            );
            for row in &report.resilience {
                assert!(
                    row.attempts >= row.calls,
                    "seed {seed}: {} attempted fewer times than it was called",
                    row.boundary
                );
            }
        }
    }
}

#[test]
fn chaos_retries_beyond_the_burst_change_nothing_more() {
    // Retry budgets larger than the longest burst are equivalent: the
    // mapping is already fully recovered, extra headroom is never spent.
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let run_with = |attempts: u32| {
        let web = FlakyWebClient::new(
            SimWebClient::browser(&world.web),
            EpisodePlan::calibrated(5),
        );
        let llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(6));
        let policy = RetryPolicy {
            max_attempts: attempts,
            ..RetryPolicy::standard(5)
        };
        resilient(&world, web, &llm, policy, &Telemetry::disabled())
    };
    let tight = run_with(4); // burst <= 3 ⇒ 4 attempts always suffice
    let roomy = run_with(9);
    assert_eq!(tight.full(), roomy.full());
    assert_eq!(
        tight.scrape_stats.resilience.attempts, roomy.scrape_stats.resilience.attempts,
        "unneeded headroom must never be spent"
    );
}
