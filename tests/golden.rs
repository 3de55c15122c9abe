//! Golden digests: the pipeline's outputs pinned across commits.
//!
//! The other keystones compare two ways of computing a world with each
//! other (pooled against sequential, remap against full compile). A
//! change that moves both sides alike passes them all. This file pins
//! each case's outputs to digests recorded once, so any byte that moves
//! fails here — including under unrecoverable outages, where the pooled
//! and sequential paths may legitimately differ and no sibling test
//! covers them.
//!
//! Per case it digests, with `borges_resilience::stable_hash`:
//! the canonical trace, the metrics exposition, the run ledger with its
//! `ingest_*` rows dropped (they record scheduling and differ between
//! two runs of the same pool), the 16 mapfiles, and the snapshot-state
//! JSON.

use borges_core::mapfile;
use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_llm::{ChatModel, FlakyModel, SimLlm};
use borges_resilience::{stable_hash, EpisodePlan, RetryPolicy};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{Telemetry, Verbosity};
use borges_websim::{FlakyWebClient, Scraper, SimWebClient, WebClient};

/// The digests of one case, in this order: trace, metrics, ledger,
/// mapfiles, state.
type Digests = [u64; 5];

const FIELDS: [&str; 5] = ["trace", "metrics", "ledger", "mapfiles", "state"];

/// Recorded digests, one row per case.
const GOLDEN: &[(&str, Digests)] = &[
    (
        "sequential",
        [
            0xc84e21e2ef983df4,
            0x1692991c6ee1298e,
            0x65f87bb57a235a1e,
            0x6237f7cada08d410,
            0x0a3b4064dbdf59ab,
        ],
    ),
    (
        "pool",
        [
            0xc84e21e2ef983df4,
            0x1692991c6ee1298e,
            0x1f67c3971f6ae481,
            0x6237f7cada08d410,
            0x0a3b4064dbdf59ab,
        ],
    ),
    (
        "resilient_chaos",
        [
            0xf093353cfc1bcfbb,
            0x43066648e9d05631,
            0xa0bd9f6fbfff1ecb,
            0x6237f7cada08d410,
            0x0a3b4064dbdf59ab,
        ],
    ),
    (
        "resilient_outages",
        [
            0xb0039b30594b579c,
            0x75d33c15c62522b5,
            0x5de090637512479e,
            0xe4878fc15046b2a0,
            0x062c5d2c0cbe157d,
        ],
    ),
    (
        "pool_resilient_outages",
        [
            0xb0039b30594b579c,
            0x75d33c15c62522b5,
            0x84ea05de6d550c3d,
            0xe4878fc15046b2a0,
            0x062c5d2c0cbe157d,
        ],
    ),
    (
        "remap",
        [
            0x29b633f571665666,
            0xf3cbec3f07844e86,
            0x1f8a333d59fd3b9d,
            0xcd7ab885535842a0,
            0x42a0c865fcfe53bd,
        ],
    ),
    (
        "crawled_remap",
        [
            0xaee38c9a5e60e355,
            0x04758fbc707eee3a,
            0x1f249d5305b19545,
            0xcd7ab885535842a0,
            0x42a0c865fcfe53bd,
        ],
    ),
];

const LLM_SEED: u64 = 99;
const CHAOS_SEED: u64 = 5;
const OUTAGE_SEED: u64 = 9;

fn world() -> SyntheticInternet {
    SyntheticInternet::generate(&GeneratorConfig::tiny(17))
}

fn digests(borges: &Borges, tel: &Telemetry, label: &str, threads: usize) -> Digests {
    let mut ledger = borges.run_report(tel, label, threads);
    ledger.workers.retain(|w| !w.stage.starts_with("ingest_"));
    let mapfiles: String = FeatureSet::all_combinations()
        .iter()
        .map(|&f| mapfile::serialize(&borges.mapping(f)))
        .collect::<Vec<_>>()
        .join("\n--\n");
    [
        tel.trace_jsonl_canonical(),
        tel.metrics_snapshot().to_prometheus(),
        ledger.to_json_pretty(),
        mapfiles,
        borges.snapshot_state().to_json_pretty(),
    ]
    .map(|text| stable_hash(text.as_bytes()))
}

/// Compares a case against its recorded row; on a mismatch, names the
/// outputs that moved and prints the row to paste.
fn check(case: &str, actual: Digests) {
    let expected = GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .map(|(_, d)| *d)
        .unwrap_or_else(|| panic!("no golden row for case {case:?}"));
    if actual == expected {
        return;
    }
    let moved: Vec<&str> = FIELDS
        .iter()
        .zip(actual.iter().zip(expected))
        .filter(|(_, (a, e))| *a != e)
        .map(|(field, _)| *field)
        .collect();
    let row: Vec<String> = actual.iter().map(|d| format!("0x{d:016x}")).collect();
    panic!(
        "golden digests of case {case:?} moved: {moved:?}.\n\
         If the change is intended, replace the case's row in GOLDEN \
         (tests/golden.rs) with\n    (\"{case}\", [{}]),\n\
         and say in CHANGES.md which outputs moved and why.",
        row.join(", ")
    );
}

/// The ingest of `world` over a crawl through `web`.
fn crawl(
    world: &SyntheticInternet,
    web: impl WebClient + Sync,
    model: &(dyn ChatModel + Sync),
    opts: &IngestOptions<'_>,
    tel: &Telemetry,
) -> Borges {
    Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Crawl(&web),
        model,
        opts,
        tel,
    )
}

fn sequential(world: &SyntheticInternet) -> (Borges, Telemetry) {
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = Borges::run_traced(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &SimLlm::new(LLM_SEED),
        &tel,
    );
    (borges, tel)
}

/// A flaky web and model under `plan`, the model's episodes decorrelated
/// from the web's.
fn flaky(
    world: &SyntheticInternet,
    plan: EpisodePlan,
) -> (FlakyWebClient<SimWebClient<'_>>, FlakyModel<SimLlm>) {
    (
        FlakyWebClient::new(SimWebClient::browser(&world.web), plan),
        FlakyModel::new(
            SimLlm::new(LLM_SEED),
            EpisodePlan {
                seed: plan.seed ^ 1,
                ..plan
            },
        ),
    )
}

#[test]
fn golden_sequential() {
    let world = world();
    let (borges, tel) = sequential(&world);
    check("sequential", digests(&borges, &tel, "sequential", 1));
}

#[test]
fn golden_pool() {
    let world = world();
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = crawl(
        &world,
        SimWebClient::browser(&world.web),
        &SimLlm::new(LLM_SEED),
        &IngestOptions {
            pool: Some(3),
            ..IngestOptions::default()
        },
        &tel,
    );
    check("pool", digests(&borges, &tel, "parallel", 2));
}

#[test]
fn golden_resilient_chaos() {
    let world = world();
    let (web, model) = flaky(&world, EpisodePlan::calibrated(CHAOS_SEED));
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = crawl(
        &world,
        web,
        &model,
        &IngestOptions {
            policy: Some(RetryPolicy::standard(CHAOS_SEED)),
            ..IngestOptions::default()
        },
        &tel,
    );
    check("resilient_chaos", digests(&borges, &tel, "resilient", 1));
}

#[test]
fn golden_resilient_outages() {
    let world = world();
    let (web, model) = flaky(&world, EpisodePlan::with_outages(OUTAGE_SEED));
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = crawl(
        &world,
        web,
        &model,
        &IngestOptions {
            policy: Some(RetryPolicy::standard(OUTAGE_SEED)),
            ..IngestOptions::default()
        },
        &tel,
    );
    check("resilient_outages", digests(&borges, &tel, "resilient", 1));
}

#[test]
fn golden_pool_resilient_outages() {
    let world = world();
    let (web, model) = flaky(&world, EpisodePlan::with_outages(OUTAGE_SEED));
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = crawl(
        &world,
        web,
        &model,
        &IngestOptions {
            policy: Some(RetryPolicy::standard(OUTAGE_SEED)),
            pool: Some(borges_parallel::DEFAULT_IN_FLIGHT),
            ..IngestOptions::default()
        },
        &tel,
    );
    check(
        "pool_resilient_outages",
        digests(&borges, &tel, "parallel-resilient", 2),
    );
}

#[test]
fn golden_remap() {
    let world = world();
    let state = sequential(&world).0.snapshot_state();
    let (successor, _) = churn(&world, 10.0, 23);
    let scraper = Scraper::new(SimWebClient::browser(&successor.web));
    let report = scraper.crawl(successor.pdb.nets().map(|n| (n.asn, n.website.as_str())));
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = Borges::ingest(
        &successor.whois,
        &successor.pdb,
        WebSource::Scraped(&report),
        &SimLlm::new(LLM_SEED),
        &IngestOptions {
            prior: Some(&state),
            ..IngestOptions::default()
        },
        &tel,
    );
    check("remap", digests(&borges, &tel, "remap", 1));
}

/// The remap `borges map --base` runs: the churned successor crawled on
/// the I/O pool, against the prior decoded from the base world's store
/// encoding. Its mapfiles and state equal the `remap` row's; its trace
/// and metrics add the `crawl` stage that a scraped remap lacks.
#[test]
fn golden_crawled_remap() {
    let world = world();
    let base = sequential(&world).0;
    let state = borges_store::decode_world(&borges_store::encode_world(&base.to_world()))
        .expect("a fresh encoding decodes")
        .world
        .state;
    let (successor, _) = churn(&world, 10.0, 23);
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = crawl(
        &successor,
        SimWebClient::browser(&successor.web),
        &SimLlm::new(LLM_SEED),
        &IngestOptions {
            pool: Some(borges_parallel::DEFAULT_IN_FLIGHT),
            prior: Some(&state),
            ..IngestOptions::default()
        },
        &tel,
    );
    check("crawled_remap", digests(&borges, &tel, "parallel", 2));
}
