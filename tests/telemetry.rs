//! The observability determinism contract, pinned end to end.
//!
//! Under a `SimClock` and a fixed seed, a fault-free run is fully
//! deterministic: the *canonical* trace journal (logical spans only,
//! sorted, ids stripped) and the metrics snapshot must be byte-identical
//! between the sequential and parallel pipelines, and across repeated
//! runs. Worker scheduling is allowed to show up only in runtime spans
//! and in the `workers` ledger rows — never in anything canonical.

use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_llm::{ChatModel, SimLlm};
use borges_resilience::RetryPolicy;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::{RunReport, Telemetry, Verbosity};
use borges_websim::{SimWebClient, WebClient};

/// The sequential ingest of `world` over `web` and `model`, resilient
/// under `policy`, recording into `tel`.
fn resilient(
    world: &SyntheticInternet,
    web: impl WebClient + Sync,
    model: &(dyn ChatModel + Sync),
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
        model,
        &opts,
        tel,
    )
}

/// Runs the full instrumented pipeline (run + the 16-combination sweep)
/// and returns (canonical journal, metrics exposition, ledger JSON).
fn traced_run(world: &SyntheticInternet, threads: usize) -> (String, String, String) {
    let llm = SimLlm::new(99);
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = if threads > 1 {
        Borges::run_parallel_traced(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
            threads,
            &tel,
        )
    } else {
        Borges::run_traced(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
            &tel,
        )
    };
    let combos = FeatureSet::all_combinations();
    borges.mappings_parallel_traced(&combos, threads, &tel);
    let report = borges.run_report(&tel, "test", threads);
    (
        tel.trace_jsonl_canonical(),
        report.metrics.to_prometheus(),
        report.to_json_pretty(),
    )
}

#[test]
fn sequential_and_parallel_traces_are_byte_identical() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(17));
    let (seq_trace, seq_metrics, _) = traced_run(&world, 1);
    let (par_trace, par_metrics, _) = traced_run(&world, 4);
    assert!(!seq_trace.is_empty());
    assert!(seq_trace.contains("\"run/crawl\""), "{seq_trace}");
    assert!(seq_trace.contains("mappings/materialize"), "{seq_trace}");
    assert_eq!(
        seq_trace, par_trace,
        "canonical journals must not depend on scheduling"
    );
    assert_eq!(
        seq_metrics, par_metrics,
        "metrics must not depend on scheduling"
    );
}

#[test]
fn repeated_runs_are_byte_identical() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(17));
    assert_eq!(traced_run(&world, 3), traced_run(&world, 3));
}

#[test]
fn raw_journals_do_differ_across_schedules_where_allowed() {
    // The *raw* journal (runtime chunk spans included) is where worker
    // scheduling is allowed to show — the canonicalization is doing real
    // work, not comparing empty sets.
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(17));
    let llm = SimLlm::new(99);
    let count_runtime = |threads: usize| {
        let tel = Telemetry::sim(Verbosity::Quiet);
        let borges = Borges::run_traced(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
            &tel,
        );
        borges.mappings_parallel_traced(&FeatureSet::all_combinations(), threads, &tel);
        tel.trace_records()
            .iter()
            .filter(|r| r.kind == borges_telemetry::SpanKind::Runtime)
            .count()
    };
    // One runtime chunk span per chunk: the chunk count follows threads.
    assert_eq!(count_runtime(1), 1);
    assert_eq!(count_runtime(4), 4);
}

#[test]
fn resilient_run_ledger_is_deterministic_per_seed() {
    use borges_llm::FlakyModel;
    use borges_resilience::EpisodePlan;
    use borges_websim::FlakyWebClient;

    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(17));
    let run_once = |seed: u64| {
        let llm = SimLlm::new(99);
        let tel = Telemetry::sim(Verbosity::Quiet);
        let web = FlakyWebClient::new(
            SimWebClient::browser(&world.web),
            EpisodePlan::calibrated(seed),
        );
        let model = FlakyModel::new(&llm, EpisodePlan::calibrated(seed ^ 1));
        let borges = resilient(&world, web, &model, RetryPolicy::standard(seed), &tel);
        (
            borges.run_report(&tel, "resilient", 1).to_json_pretty(),
            tel.trace_jsonl_canonical(),
        )
    };
    for seed in [1u64, 2, 3] {
        let (report_a, trace_a) = run_once(seed);
        let (report_b, trace_b) = run_once(seed);
        assert_eq!(
            report_a, report_b,
            "seed {seed}: ledger must be reproducible"
        );
        assert_eq!(
            trace_a, trace_b,
            "seed {seed}: journal must be reproducible"
        );
        let report = RunReport::from_json(&report_a).unwrap();
        assert!(report.accounted(), "seed {seed}");
        assert!(
            report.metrics.counter("borges_web_attempts_total")
                >= report.metrics.counter("borges_web_calls_total"),
            "seed {seed}: attempts can only exceed calls"
        );
    }
}

#[test]
fn resilient_metrics_mirror_resilience_stats() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(17));
    let llm = SimLlm::new(99);
    let tel = Telemetry::sim(Verbosity::Quiet);
    let borges = resilient(
        &world,
        SimWebClient::browser(&world.web),
        &llm,
        RetryPolicy::standard(5),
        &tel,
    );
    let snap = tel.metrics_snapshot();
    let web = borges.scrape_stats.resilience;
    assert_eq!(snap.counter("borges_web_calls_total"), web.calls);
    assert_eq!(snap.counter("borges_web_attempts_total"), web.attempts);
    assert_eq!(
        snap.counter("borges_llm_ner_calls_total"),
        borges.ner.stats.resilience.calls
    );
    assert_eq!(
        snap.counter("borges_llm_favicon_calls_total"),
        borges.favicon.stats.resilience.calls
    );
    // Each boundary's call-duration histogram saw every logical call.
    assert_eq!(
        snap.histogram("borges_web_call_ms").unwrap().count,
        web.calls
    );
    assert_eq!(
        snap.histogram("borges_llm_ner_call_ms").unwrap().count,
        borges.ner.stats.resilience.calls
    );
}
