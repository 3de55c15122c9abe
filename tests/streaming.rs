//! The streaming-ingest determinism contract, pinned end to end.
//!
//! `Borges::ingest` with a pool (the engine behind
//! `Borges::run_parallel`) runs every remote call of an ingest on one
//! pool of `in_flight` workers — NER overlapping the crawl — and must
//! be **invisible** in every canonical output.
//! Three contracts (DESIGN.md §14):
//!
//! 1. **Schedule-independence.** Mapfiles (all 16 feature combinations),
//!    the canonical trace journal, and the metrics snapshot are
//!    byte-identical to the sequential run at every in-flight budget,
//!    and the pool sends exactly the requests the sequential run
//!    sends. The standalone re-crawl (`Scraper::crawl`, on the same
//!    scheduler) reports exactly what a one-at-a-time crawl reports,
//!    bare and under chaos.
//! 2. **Chaos-independence.** Under recoverable transport faults (the
//!    `tests/chaos.rs` model) the pooled resilient run reproduces the
//!    sequential resilient run bit for bit, and coverage stays complete.
//! 3. **Accounting.** Under unrecoverable outages the run still
//!    completes with `abandoned + succeeded == attempted` per feature,
//!    and the scheduler's own ledger rows balance: per-worker completion
//!    counts sum to the entries plus the NER calls.

use borges_core::mapfile;
use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_llm::{ChatModel, ChatRequest, ChatResponse, FlakyModel, SimLlm};
use borges_resilience::{EpisodePlan, RetryPolicy, TransportError};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{ingest, RunReport, Telemetry, Verbosity};
use borges_websim::{FlakyWebClient, ScrapeReport, Scraper, SimWebClient, WebClient};
use std::sync::Mutex;

fn world() -> SyntheticInternet {
    SyntheticInternet::generate(&GeneratorConfig::tiny(17))
}

fn opts(in_flight: usize, policy: Option<RetryPolicy>) -> IngestOptions<'static> {
    IngestOptions {
        policy,
        pool: Some(in_flight),
        ..IngestOptions::default()
    }
}

/// The ingest of `world` over a crawl through `web`.
fn crawl(
    world: &SyntheticInternet,
    web: impl WebClient + Sync,
    llm: &(dyn ChatModel + Sync),
    opts: &IngestOptions<'_>,
    tel: &Telemetry,
) -> Borges {
    Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Crawl(&web),
        llm,
        opts,
        tel,
    )
}

/// Everything the determinism contract compares: the canonical trace,
/// the metrics exposition, and the serialized mapfile of every feature
/// combination.
fn fingerprint(borges: &Borges, tel: &Telemetry) -> (String, String, Vec<String>) {
    let maps = FeatureSet::all_combinations()
        .iter()
        .map(|&f| mapfile::serialize(&borges.mapping(f)))
        .collect();
    (
        tel.trace_jsonl_canonical(),
        tel.metrics_snapshot().to_prometheus(),
        maps,
    )
}

#[test]
fn streaming_bare_run_is_byte_identical_to_staged() {
    let world = world();
    let llm = SimLlm::new(99);
    let tel = Telemetry::sim(Verbosity::Quiet);
    let staged = Borges::run_traced(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
        &tel,
    );
    let reference = fingerprint(&staged, &tel);
    assert!(reference.0.contains("\"run/crawl\""), "{}", reference.0);

    for in_flight in [1, 2, 8, 3] {
        let tel = Telemetry::sim(Verbosity::Quiet);
        let streamed = crawl(
            &world,
            SimWebClient::browser(&world.web),
            &llm,
            &opts(in_flight, None),
            &tel,
        );
        assert_eq!(
            fingerprint(&streamed, &tel),
            reference,
            "streaming diverged at in_flight={in_flight}"
        );
    }
}

/// Records every request it is asked to complete, then answers it.
struct Recorder {
    inner: SimLlm,
    requests: Mutex<Vec<String>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: SimLlm::new(99),
            requests: Mutex::new(Vec::new()),
        }
    }

    /// The recorded requests as a sorted multiset.
    fn sorted(&self) -> Vec<String> {
        let mut requests = self.requests.lock().unwrap().clone();
        requests.sort();
        requests
    }
}

impl ChatModel for Recorder {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        self.requests.lock().unwrap().push(format!("{request:?}"));
        self.inner.complete(request)
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

#[test]
fn pooled_runs_send_exactly_the_sequential_requests() {
    let world = world();
    let sequential = Recorder::new();
    let reference = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &sequential,
    );
    let calls = reference.ner.stats.llm_calls + reference.favicon.stats.llm_calls;
    let expected = sequential.sorted();
    assert_eq!(expected.len(), calls);
    assert!(calls > 0);
    for in_flight in [1, 4, 8] {
        let pooled = Recorder::new();
        let streamed = crawl(
            &world,
            SimWebClient::browser(&world.web),
            &pooled,
            &opts(in_flight, None),
            &Telemetry::disabled(),
        );
        let sent = pooled.sorted();
        assert_eq!(sent, expected, "request multiset at in_flight={in_flight}");
        let mut distinct = sent.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), sent.len(), "a request was sent twice");
        assert_eq!(streamed.ner.stats.llm_calls, reference.ner.stats.llm_calls);
        assert_eq!(
            streamed.favicon.stats.llm_calls,
            reference.favicon.stats.llm_calls
        );
    }
}

#[test]
fn streaming_resilient_run_is_byte_identical_under_recoverable_chaos() {
    let world = world();
    for seed in 1..=3u64 {
        let policy = RetryPolicy::standard(seed);
        let tel = Telemetry::sim(Verbosity::Quiet);
        let staged = crawl(
            &world,
            FlakyWebClient::new(
                SimWebClient::browser(&world.web),
                EpisodePlan::calibrated(seed),
            ),
            &FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(seed ^ 0xFACE)),
            &IngestOptions {
                policy: Some(policy),
                ..IngestOptions::default()
            },
            &tel,
        );
        let reference = fingerprint(&staged, &tel);

        for in_flight in [4, 3] {
            let tel = Telemetry::sim(Verbosity::Quiet);
            let llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(seed ^ 0xFACE));
            let streamed = crawl(
                &world,
                FlakyWebClient::new(
                    SimWebClient::browser(&world.web),
                    EpisodePlan::calibrated(seed),
                ),
                &llm,
                &opts(in_flight, Some(policy)),
                &tel,
            );
            assert_eq!(
                fingerprint(&streamed, &tel),
                reference,
                "seed {seed}: streaming chaos diverged at in_flight={in_flight}"
            );
            let coverage = streamed.coverage();
            assert!(coverage.accounted(), "seed {seed}: ledger must balance");
            assert!(
                coverage.complete(),
                "seed {seed}: recoverable chaos must lose nothing"
            );
            assert!(
                streamed.scrape_stats.resilience.recovered
                    + streamed.ner.stats.resilience.recovered
                    + streamed.favicon.stats.resilience.recovered
                    > 0,
                "seed {seed}: the plan must actually have injected faults"
            );
        }
    }
}

#[test]
fn streaming_outage_runs_account_for_every_loss() {
    // Permanent outages and no retry budget: equivalence to the staged
    // run is off the table (breaker open-window timing diverges under
    // per-call clocks — DESIGN.md §14), but the accounting contract
    // still holds and nothing is silently dropped.
    let world = world();
    let reference = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &SimLlm::flawless(),
    )
    .full();
    for seed in 1..=3u64 {
        let llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::with_outages(seed ^ 0xFACE));
        let degraded = crawl(
            &world,
            FlakyWebClient::new(
                SimWebClient::browser(&world.web),
                EpisodePlan::with_outages(seed),
            ),
            &llm,
            &opts(4, Some(RetryPolicy::none())),
            &Telemetry::disabled(),
        );
        let coverage = degraded.coverage();
        assert!(
            coverage.accounted(),
            "seed {seed}: abandoned + succeeded != attempted"
        );
        assert!(
            coverage.total_abandoned() > 0,
            "seed {seed}: outages must cost something"
        );
        // Partial evidence never invents a sibling relation.
        let full = degraded.full();
        assert_eq!(full.asn_count(), reference.asn_count(), "seed {seed}");
        for (_, members) in full.clusters() {
            for pair in members.windows(2) {
                assert!(
                    reference.same_org(pair[0], pair[1]),
                    "seed {seed}: degraded streaming run invented a merge {pair:?}"
                );
            }
        }
    }
}

#[test]
fn streaming_scheduler_ledger_rows_balance_and_roundtrip() {
    let world = world();
    let llm = SimLlm::new(99);
    let tel = Telemetry::sim(Verbosity::Quiet);
    let max_in_flight = 3;
    let streamed = crawl(
        &world,
        SimWebClient::browser(&world.web),
        &llm,
        &opts(max_in_flight, None),
        &tel,
    );
    // The pool carries every crawl entry and every NER call.
    let calls = (world.pdb.nets().count() + streamed.ner.stats.llm_calls) as u64;
    let timings = tel.worker_timings();

    let worker_total: u64 = timings
        .iter()
        .filter(|t| t.stage == ingest::WORKER_STAGE)
        .map(|t| t.items)
        .sum();
    assert_eq!(
        worker_total, calls,
        "per-worker completions must sum to the entries plus the NER calls"
    );
    let in_flight = timings
        .iter()
        .find(|t| t.stage == ingest::IN_FLIGHT_STAGE)
        .expect("in-flight high-water row");
    assert!((1..=max_in_flight as u64).contains(&in_flight.items));
    assert!(timings.iter().any(|t| t.stage == ingest::REASSEMBLY_STAGE));

    // The rows survive the run-report JSON roundtrip (what the CI
    // ingest-equivalence job greps).
    let json = streamed.run_report(&tel, "streaming", 1).to_json_pretty();
    let report = RunReport::from_json(&json).expect("run report parses");
    for stage in ingest::ALL_STAGES {
        assert!(
            report.workers.iter().any(|t| t.stage == stage),
            "{stage}: {json}"
        );
    }
}

/// The traced ingest of `world` over a `report` scraped earlier, and
/// its determinism fingerprint.
fn ingest_scraped(
    world: &SyntheticInternet,
    report: &ScrapeReport,
    opts: &IngestOptions<'_>,
) -> (Borges, (String, String, Vec<String>)) {
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Scraped(report),
        &SimLlm::new(99),
        opts,
        &tel,
    );
    let fingerprint = fingerprint(&borges, &tel);
    (borges, fingerprint)
}

fn scrape(world: &SyntheticInternet) -> ScrapeReport {
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
}

#[test]
fn from_scrape_streaming_matches_from_scrape() {
    // A report scraped earlier leaves the pool only the NER calls. The
    // pooled ingest must match the sequential one on a full run and on
    // a remap of a churned successor against the full run's state.
    let world = world();
    let report = scrape(&world);
    let (full, reference) = ingest_scraped(&world, &report, &IngestOptions::default());
    assert!(
        !reference.0.contains("\"run/crawl\""),
        "a scraped report has no crawl stage"
    );
    let state = full.snapshot_state();
    let (successor, _) = churn(&world, 10.0, 23);
    let successor_report = scrape(&successor);
    let remap = IngestOptions {
        prior: Some(&state),
        ..IngestOptions::default()
    };
    let (sequential_remap, remap_reference) = ingest_scraped(&successor, &successor_report, &remap);
    assert!(
        remap_reference.0.contains("\"remap/apply\""),
        "{}",
        remap_reference.0
    );
    let delta = sequential_remap.delta.expect("a remap records delta stats");
    assert!(
        delta.llm_calls_saved() > 0,
        "the memos must replay something"
    );

    let pooled = opts(4, None);
    assert_eq!(
        ingest_scraped(&world, &report, &pooled).1,
        reference,
        "pooled ingest of a scraped report diverged"
    );
    let pooled_remap = IngestOptions {
        prior: Some(&state),
        ..pooled
    };
    assert_eq!(
        ingest_scraped(&successor, &successor_report, &pooled_remap).1,
        remap_reference,
        "pooled remap diverged"
    );
}

/// Crawls `world` twice over fresh clients from `client`: pooled with
/// `Scraper::crawl`, and one fetch at a time with
/// `Scraper::crawl_in_order`. Asserts the reports and the URL-cache
/// counters agree, and returns the report.
fn assert_pooled_crawl_is_the_in_order_fold<C: WebClient + Sync>(
    world: &SyntheticInternet,
    client: impl Fn() -> C,
    label: &str,
) -> ScrapeReport {
    let entries = || world.pdb.nets().map(|n| (n.asn, n.website.as_str()));
    let sequential = Scraper::new(client());
    let expected = sequential.crawl_in_order(entries());
    let pooled = Scraper::new(client());
    assert_eq!(pooled.crawl(entries()), expected, "{label}: report");
    assert_eq!(
        pooled.cache_stats(),
        sequential.cache_stats(),
        "{label}: URL cache counters"
    );
    expected
}

#[test]
fn pooled_crawl_equals_the_in_order_fold() {
    // `Scraper::crawl` (the benchmark harness's standalone re-crawl) keeps
    // several fetches in flight, one host at a time. Whatever a client
    // keeps per host — here the URL cache and, under chaos, each host's
    // fault episode — must then see the sequential call sequence.
    let world = world();
    let bare = assert_pooled_crawl_is_the_in_order_fold(
        &world,
        || SimWebClient::browser(&world.web),
        "bare",
    );
    assert_eq!(bare.stats.entries_abandoned, 0);
    assert!(bare.stats.unique_urls > 0);

    // Unretried chaos: every burst and block abandons entries, and a
    // host's burst ends at the same fetch only if its fetches keep
    // their input order.
    for seed in [3, 11] {
        let chaotic = assert_pooled_crawl_is_the_in_order_fold(
            &world,
            || {
                FlakyWebClient::new(
                    SimWebClient::browser(&world.web),
                    EpisodePlan::with_outages(seed),
                )
            },
            &format!("chaos seed {seed}"),
        );
        let stats = &chaotic.stats;
        assert!(stats.entries_abandoned > 0, "seed {seed} abandoned nothing");
        assert_eq!(
            stats.entries_abandoned + chaotic.sites.len(),
            stats.entries_with_website
        );
    }
}
