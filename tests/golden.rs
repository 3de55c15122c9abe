//! Golden digests: the pipeline's outputs pinned across commits.
//!
//! The other keystones compare two ways of computing a world with each
//! other (a wide in-flight budget against budget 1, remap against full
//! compile). A change that moves both sides alike passes them all. This
//! file pins each case's outputs to digests recorded once, so any byte
//! that moves fails here.
//!
//! Per case it digests, with `borges_resilience::stable_hash`:
//! the canonical trace, the metrics exposition, the run ledger with its
//! `ingest_*` rows dropped (they record scheduling and differ between
//! two runs of the same pool), the 16 mapfiles, the snapshot-state
//! JSON, and the store artifact bytes (`borges_store::encode_world` of
//! `Borges::to_world`).

use borges_core::mapfile;
use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_llm::{ChatModel, FlakyModel, SimLlm};
use borges_resilience::{stable_hash, EpisodePlan, RetryPolicy};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{Telemetry, Verbosity};
use borges_websim::{FlakyWebClient, Scraper, SimWebClient, WebClient};

/// The digests of one case, in this order: trace, metrics, ledger,
/// mapfiles, state, artifact.
type Digests = [u64; 6];

const FIELDS: [&str; 6] = [
    "trace", "metrics", "ledger", "mapfiles", "state", "artifact",
];

/// Recorded digests, one row per case.
const GOLDEN: &[(&str, Digests)] = &[
    (
        "sequential",
        [
            0xca69bf4f90b7da55,
            0x149bf321775b7b91,
            0xc4498b5bac62e3bb,
            0x6237f7cada08d410,
            0x69a0854262726fa0,
            0xc099a996d63a54ba,
        ],
    ),
    (
        "pool",
        [
            0xca69bf4f90b7da55,
            0x149bf321775b7b91,
            0xd0e37b7cfdf3bbc7,
            0x6237f7cada08d410,
            0x69a0854262726fa0,
            0xc099a996d63a54ba,
        ],
    ),
    (
        "resilient_chaos",
        [
            0x638770edc3ffcfe7,
            0x5cc69f055e6ff33c,
            0x22c429ab255a0b22,
            0x6237f7cada08d410,
            0x69a0854262726fa0,
            0xcbd2633640a935a3,
        ],
    ),
    (
        "resilient_outages",
        [
            0xb4c2e73efb1f916e,
            0x62e9283ad228895a,
            0x675797cbdb9b5ea3,
            0xe4878fc15046b2a0,
            0x8cf49a99572d6f4f,
            0x43ad39817338465f,
        ],
    ),
    (
        "pool_resilient_outages",
        [
            0xb4c2e73efb1f916e,
            0x62e9283ad228895a,
            0x8f0483980f170878,
            0xe4878fc15046b2a0,
            0x8cf49a99572d6f4f,
            0x43ad39817338465f,
        ],
    ),
    (
        "resilient_ner_breaker",
        [
            0xd37d697882e93dae,
            0x0924a40f4c22f000,
            0x3c0633e0780b170a,
            0x7bb6b012c2f7ab19,
            0x490c65509cbd8644,
            0xae65f8f6d7fdf055,
        ],
    ),
    (
        "remap",
        [
            0x29b633f571665666,
            0x3a40301871f938fe,
            0x9853a1643e78b154,
            0x6b5dde26e30b040b,
            0xe92dae65a45b21b2,
            0xdf3246e784d9effa,
        ],
    ),
    (
        "crawled_remap",
        [
            0x3b8638b186b2193f,
            0x6e5770d982747876,
            0xafb7db2cadf1c479,
            0x6b5dde26e30b040b,
            0xe92dae65a45b21b2,
            0x448c09c97b0758c6,
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
        tel.trace_jsonl_canonical().into_bytes(),
        tel.metrics_snapshot().to_prometheus().into_bytes(),
        ledger.to_json_pretty().into_bytes(),
        mapfiles.into_bytes(),
        borges.snapshot_state().to_json_pretty().into_bytes(),
        borges_store::encode_world(&borges.to_world()),
    ]
    .map(|bytes| stable_hash(&bytes))
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
            pool: 3,
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
            pool: borges_parallel::DEFAULT_IN_FLIGHT,
            ..IngestOptions::default()
        },
        &tel,
    );
    check(
        "pool_resilient_outages",
        digests(&borges, &tel, "parallel-resilient", 2),
    );
}

/// Heavy transient faults with one retry trip the NER breaker. Its
/// event is stamped on the run clock inside the `ner` stage, at every
/// budget: the row was recorded from the retired front that sent every
/// call one at a time and ran the NER stage live on the run clock.
#[test]
fn golden_resilient_ner_breaker() {
    let world = world();
    let plan = EpisodePlan {
        transient_rate: 0.6,
        permanent_rate: 0.0,
        max_burst: 3,
        seed: 1,
    };
    for pool in [1, 4] {
        let (web, model) = flaky(&world, plan);
        let tel = Telemetry::sim(Verbosity::Quiet);
        let borges = crawl(
            &world,
            web,
            &model,
            &IngestOptions {
                policy: Some(RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::standard(1)
                }),
                pool,
                ..IngestOptions::default()
            },
            &tel,
        );
        let records = tel.trace_records();
        let ner = records
            .iter()
            .find(|r| r.path == "run/ner")
            .expect("a ner stage");
        let trips: Vec<u64> = tel
            .breaker_events()
            .iter()
            .filter(|e| e.boundary == "llm.ner")
            .map(|e| e.at_ms)
            .collect();
        assert!(
            !trips.is_empty(),
            "budget {pool}: the NER breaker never tripped"
        );
        for at_ms in trips {
            assert!(
                (ner.start_ms..=ner.end_ms).contains(&at_ms),
                "budget {pool}: trip at {at_ms} ms outside run/ner {}..{} ms",
                ner.start_ms,
                ner.end_ms
            );
        }
        check(
            "resilient_ner_breaker",
            digests(&borges, &tel, "resilient", 1),
        );
    }
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
            pool: borges_parallel::DEFAULT_IN_FLIGHT,
            prior: Some(&state),
            ..IngestOptions::default()
        },
        &tel,
    );
    check("crawled_remap", digests(&borges, &tel, "parallel", 2));
}
