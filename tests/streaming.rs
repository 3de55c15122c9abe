//! The streaming-ingest determinism contract, pinned end to end.
//!
//! `Borges::ingest` runs every remote call of an ingest on one pool of
//! `in_flight` workers — NER overlapping the crawl — and the budget
//! must be **invisible** in every canonical output. Budget 1, the
//! default (`Borges::run`, `map --threads 1`), sends one call at a time
//! in canonical order: the reference the wider budgets are held to.
//! Three contracts (DESIGN.md §14):
//!
//! 1. **Schedule-independence.** Mapfiles (all 16 feature combinations),
//!    the canonical trace journal, and the metrics snapshot are
//!    byte-identical to budget 1 at every in-flight budget, and every
//!    budget sends exactly the requests budget 1 sends. The standalone
//!    re-crawl (`Scraper::crawl`, on the same scheduler) reports exactly
//!    what a one-at-a-time fold reports, bare and under chaos.
//! 2. **Chaos-independence.** Under recoverable transport faults (the
//!    `tests/chaos.rs` model) the resilient run at budgets 3 and 4
//!    reproduces budget 1 bit for bit, and coverage stays complete.
//! 3. **Outages.** Under unrecoverable outages, with and without
//!    retries, budgets 1, 3 and 8 still agree byte for byte, ledger
//!    included; the run completes with `abandoned + succeeded ==
//!    attempted` per feature and invents no merge; and the scheduler's
//!    own ledger rows balance: per-worker completion counts sum to the
//!    entries plus the NER calls.

use borges_core::mapfile;
use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_llm::{ChatModel, ChatRequest, ChatResponse, FlakyModel, SimLlm};
use borges_resilience::{EpisodePlan, RetryPolicy, TransportError};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{ingest, RunReport, Telemetry, Verbosity};
use borges_websim::{
    CrawlEntry, FlakyWebClient, ReportAssembler, ScrapeReport, Scraper, SimWebClient, WebClient,
};
use std::sync::Mutex;

fn world() -> SyntheticInternet {
    SyntheticInternet::generate(&GeneratorConfig::tiny(17))
}

fn opts(in_flight: usize, policy: Option<RetryPolicy>) -> IngestOptions<'static> {
    IngestOptions {
        policy,
        pool: in_flight,
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
    // Permanent outages, with no retry budget and with the standard one:
    // every fetch backs off on its own clock and the NER calls run in
    // plan order, so nothing depends on the schedule. Budgets 3 and 8
    // reproduce budget 1 byte for byte — trace, metrics, the ledger
    // without its `ingest_*` scheduler rows, and every mapfile — and the
    // accounting contract holds: nothing is silently dropped.
    let world = world();
    let reference = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &SimLlm::flawless(),
    )
    .full();
    for seed in 1..=3u64 {
        for policy in [RetryPolicy::none(), RetryPolicy::standard(seed)] {
            let run = |in_flight: usize| {
                let llm =
                    FlakyModel::new(SimLlm::flawless(), EpisodePlan::with_outages(seed ^ 0xFACE));
                let tel = Telemetry::sim(Verbosity::Quiet);
                let degraded = crawl(
                    &world,
                    FlakyWebClient::new(
                        SimWebClient::browser(&world.web),
                        EpisodePlan::with_outages(seed),
                    ),
                    &llm,
                    &opts(in_flight, Some(policy)),
                    &tel,
                );
                let mut ledger = degraded.run_report(&tel, "resilient", 1);
                ledger.workers.retain(|w| !w.stage.starts_with("ingest_"));
                let outputs = (fingerprint(&degraded, &tel), ledger.to_json_pretty());
                (degraded, outputs)
            };
            let label = format!("seed {seed}, {} attempts", policy.max_attempts);
            let (degraded, expected) = run(1);
            for in_flight in [3, 8] {
                assert_eq!(
                    run(in_flight).1,
                    expected,
                    "{label}: budget {in_flight} diverged from budget 1"
                );
            }

            let coverage = degraded.coverage();
            assert!(
                coverage.accounted(),
                "{label}: abandoned + succeeded != attempted"
            );
            assert!(
                coverage.total_abandoned() > 0,
                "{label}: outages must cost something"
            );
            // Partial evidence never invents a sibling relation.
            let full = degraded.full();
            assert_eq!(full.asn_count(), reference.asn_count(), "{label}");
            for (_, members) in full.clusters() {
                for pair in members.windows(2) {
                    assert!(
                        reference.same_org(pair[0], pair[1]),
                        "{label}: degraded streaming run invented a merge {pair:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_scheduler_ledger_rows_balance_and_roundtrip() {
    let world = world();
    let llm = SimLlm::new(99);
    // Budget 1 is the reference `map --threads 1` runs: one worker, one
    // call in flight.
    for max_in_flight in [1, 3] {
        let tel = Telemetry::sim(Verbosity::Quiet);
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

        let workers: Vec<u64> = timings
            .iter()
            .filter(|t| t.stage == ingest::WORKER_STAGE)
            .map(|t| t.items)
            .collect();
        assert_eq!(workers.len(), max_in_flight, "one row per worker");
        assert_eq!(
            workers.iter().sum::<u64>(),
            calls,
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
/// `Scraper::crawl`, and one entry at a time, in input order, by folding
/// `Scraper::resolve` through a `ReportAssembler`. Asserts the reports
/// and the URL-cache counters agree, and returns the report.
fn assert_pooled_crawl_is_the_in_order_fold<C: WebClient + Sync>(
    world: &SyntheticInternet,
    client: impl Fn() -> C,
    label: &str,
) -> ScrapeReport {
    let entries = || world.pdb.nets().map(|n| (n.asn, n.website.as_str()));
    let sequential = Scraper::new(client());
    let mut assembler = ReportAssembler::new();
    for (asn, raw) in entries() {
        assembler.push(asn, sequential.resolve(&CrawlEntry::new(asn, raw)));
    }
    let expected = assembler.finish();
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
