//! The incremental re-mapping keystone, end to end.
//!
//! For any snapshot pair T → T+1, remapping T+1 against T's persisted
//! state must be **byte-identical** to compiling T+1 from scratch — for
//! every feature combination — while keeping the dense interner ids of
//! surviving ASNs stable. The churn sweep exercises the interesting
//! regimes: nothing dirty (pure replay), a little dirty (the intended
//! workload), mostly dirty, and everything dirty (full replacement,
//! where correctness must not depend on any reuse actually happening).
//! The execution is one more input: both snapshots ingest sequentially,
//! on the I/O pool, or behind a retry policy over a faulty model, and
//! the remap must still equal the sequential full build.

use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_core::{mapfile, SnapshotState};
use borges_llm::{ChatModel, FlakyModel, SimLlm};
use borges_resilience::{EpisodePlan, RetryPolicy};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_websim::{ScrapeReport, Scraper, SimWebClient};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// How an ingest sends its calls.
#[derive(Debug, Clone, Copy)]
enum Execution {
    /// Budget 1, one call at a time, over the bare stack.
    Sequential,
    /// The I/O pool at its default budget.
    Pool,
    /// Budget 1 behind a retry policy, over a model that injects
    /// calibrated transient faults.
    Resilient,
}

const EXECUTIONS: [Execution; 3] = [Execution::Sequential, Execution::Pool, Execution::Resilient];

fn crawl(world: &SyntheticInternet) -> ScrapeReport {
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
}

/// Ingests `world` over a `report` scraped earlier: a full build, or a
/// remap against `prior`.
fn ingest(
    world: &SyntheticInternet,
    report: &ScrapeReport,
    prior: Option<&SnapshotState>,
    execution: Execution,
) -> Borges {
    let flawless = SimLlm::flawless();
    let flaky = FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(7));
    let (model, opts): (&(dyn ChatModel + Sync), _) = match execution {
        Execution::Sequential => (&flawless, IngestOptions::default()),
        Execution::Pool => (
            &flawless,
            IngestOptions {
                pool: borges_parallel::DEFAULT_IN_FLIGHT,
                ..IngestOptions::default()
            },
        ),
        Execution::Resilient => (
            &flaky,
            IngestOptions {
                policy: Some(RetryPolicy::standard(7)),
                ..IngestOptions::default()
            },
        ),
    };
    Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Scraped(report),
        model,
        &IngestOptions { prior, ..opts },
        &Telemetry::disabled(),
    )
}

fn full(world: &SyntheticInternet, report: &ScrapeReport) -> Borges {
    ingest(world, report, None, Execution::Sequential)
}

fn remap(world: &SyntheticInternet, report: &ScrapeReport, state: &SnapshotState) -> Borges {
    ingest(world, report, Some(state), Execution::Sequential)
}

/// The keystone: incremental output is byte-identical to a fresh
/// compile of T+1, for every feature combination, whichever way both
/// snapshots were ingested. Also pins interner-id stability — every ASN
/// present in both snapshots keeps its dense id.
fn assert_incremental_equivalence(
    t0: &SyntheticInternet,
    t1: &SyntheticInternet,
    execution: Execution,
) {
    let state0 = ingest(t0, &crawl(t0), None, execution).snapshot_state();
    let report1 = crawl(t1);
    let fresh = full(t1, &report1);
    let inc = ingest(t1, &report1, Some(&state0), execution);
    for features in FeatureSet::all_combinations() {
        assert_eq!(
            mapfile::serialize(&inc.mapping(features)),
            mapfile::serialize(&fresh.mapping(features)),
            "{execution:?} remap diverged from full compile for {features:?}"
        );
    }
    // Survivor ids are append-only stable across the remap.
    let ids_before: BTreeMap<_, _> = state0
        .slot_pairs()
        .enumerate()
        .map(|(id, (asn, live))| (asn, (id, live)))
        .collect();
    let state1 = inc.snapshot_state();
    for (id, (asn, live)) in state1.slot_pairs().enumerate() {
        if let Some(&(old_id, _)) = ids_before.get(&asn) {
            assert_eq!(
                id, old_id,
                "{asn} changed dense id across the remap ({old_id} -> {id})"
            );
        }
        if live {
            assert!(
                inc.universe().contains(&asn),
                "live slot {asn} missing from the universe"
            );
        }
    }
}

#[test]
fn churn_sweep_preserves_byte_identity() {
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    for percent in [0.0, 1.0, 10.0, 100.0] {
        let (t1, report) = churn(&t0, percent, 23);
        for execution in EXECUTIONS {
            assert_incremental_equivalence(&t0, &t1, execution);
        }
        if percent == 0.0 {
            assert_eq!(report.selected, 0);
        } else {
            assert!(report.selected > 0, "{percent}% selected nothing");
        }
    }
}

#[test]
fn remaps_chain_across_successive_churned_snapshots() {
    // T0 -> T1 -> T2, remapping each against the previous state; each
    // hop must match the fresh compile of its own snapshot.
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let (t1, _) = churn(&t0, 5.0, 31);
    let (t2, _) = churn(&t1, 5.0, 32);
    let state0 = full(&t0, &crawl(&t0)).snapshot_state();
    let report1 = crawl(&t1);
    let inc1 = remap(&t1, &report1, &state0);
    assert_eq!(
        mapfile::serialize(&inc1.mapping(FeatureSet::ALL)),
        mapfile::serialize(&full(&t1, &report1).mapping(FeatureSet::ALL)),
    );
    let report2 = crawl(&t2);
    let inc2 = remap(&t2, &report2, &inc1.snapshot_state());
    assert_eq!(
        mapfile::serialize(&inc2.mapping(FeatureSet::ALL)),
        mapfile::serialize(&full(&t2, &report2).mapping(FeatureSet::ALL)),
    );
}

#[test]
fn degenerate_full_replacement_delta_still_matches() {
    // State from one world, inputs from a completely different one:
    // essentially every record is added/removed/modified and the
    // surviving-ASN overlap is whatever the generators happen to share.
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let t1 = SyntheticInternet::generate(&GeneratorConfig::tiny(99));
    for execution in EXECUTIONS {
        assert_incremental_equivalence(&t0, &t1, execution);
    }
}

#[test]
fn snapshot_state_round_trips_through_json() {
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let (t1, _) = churn(&t0, 10.0, 23);
    let state = full(&t0, &crawl(&t0)).snapshot_state();
    let reloaded = SnapshotState::from_json(&state.to_json_pretty()).expect("state parses back");
    assert_eq!(reloaded, state);
    // A remap driven by the reloaded state produces the same bytes as
    // one driven by the in-memory original.
    let report1 = crawl(&t1);
    assert_eq!(
        mapfile::serialize(&remap(&t1, &report1, &reloaded).mapping(FeatureSet::ALL)),
        mapfile::serialize(&remap(&t1, &report1, &state).mapping(FeatureSet::ALL)),
    );
}

#[test]
fn unchanged_remap_issues_no_llm_calls() {
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
    let report = crawl(&t0);
    let state = full(&t0, &report).snapshot_state();
    let inc = remap(&t0, &report, &state);
    assert_eq!(inc.ner.stats.llm_calls, 0);
    assert_eq!(inc.favicon.stats.llm_calls, 0);
    let delta = inc.delta.expect("remap records delta stats");
    assert_eq!(delta.records.dirty(), 0);
    assert!(delta.llm_calls_saved() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random (world, churn) pairs: `apply_delta(compile(T), delta)`
    // must equal `compile(T+1)` regardless of what moved.
    #[test]
    fn random_deltas_preserve_equivalence(
        world_seed in prop::sample::select(vec![11u64, 17, 42]),
        churn_seed in 0u64..1000,
        percent_hundredths in 0u32..10_000,
        execution in prop::sample::select(EXECUTIONS.to_vec()),
    ) {
        let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(world_seed));
        let (t1, _) = churn(&t0, f64::from(percent_hundredths) / 100.0, churn_seed);
        let state0 = ingest(&t0, &crawl(&t0), None, execution).snapshot_state();
        let report1 = crawl(&t1);
        let fresh = full(&t1, &report1);
        let inc = ingest(&t1, &report1, Some(&state0), execution);
        // ALL and NONE bracket the evidence spectrum; the dedicated
        // sweep test covers every combination on fixed fixtures.
        for features in [FeatureSet::ALL, FeatureSet::NONE] {
            prop_assert_eq!(
                mapfile::serialize(&inc.mapping(features)),
                mapfile::serialize(&fresh.mapping(features)),
            );
        }
        // Interner ids of survivors are stable.
        let ids_before: BTreeMap<_, _> = state0
            .slot_pairs()
            .enumerate()
            .map(|(id, (asn, _))| (asn, id))
            .collect();
        for (id, (asn, _)) in inc.snapshot_state().slot_pairs().enumerate() {
            if let Some(&old_id) = ids_before.get(&asn) {
                prop_assert_eq!(id, old_id);
            }
        }
    }
}
