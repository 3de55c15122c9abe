//! Incremental re-mapping bench: a remap ([`Borges::ingest`] over T's
//! persisted state) against a fresh full ingest of the same T+1
//! snapshot, swept across churn rates (0% / 1% / 10% / 100% of ASNs
//! mutated).
//!
//! Both paths run over a *pre-computed* crawl of T+1 — crawling is the
//! same cost for both, so the bench isolates what the delta engine
//! actually saves: memoized LLM replies (the dominant term) and
//! fingerprint-retained edge segments. At low churn the incremental
//! path should win by well over the 5x acceptance floor; at 100% churn
//! it converges to full-compile cost plus the (cheap) delta accounting.
//!
//! [`SimLlm`] answers from a seeded RNG in microseconds, which would
//! price the delta engine's entire saving — avoided LLM calls — at
//! zero. Production NER and favicon calls each cost a network round
//! trip plus decode time, so [`CostedModel`] charges a flat
//! [`PER_CALL_COST`] spin per call. That is two orders of magnitude
//! *below* real API latency (hundreds of milliseconds), so the
//! measured ratios understate the production win; it keeps the sweep
//! fast while still letting the call-count asymmetry show up in
//! wall-clock. The per-path LLM call counts are printed alongside the
//! timings so the recorded baseline makes the asymmetry explicit.
//!
//! The host CPU count is printed at startup so recorded baselines are
//! interpretable without trusting a hand-written note.

use borges_bench::{ingest_scraped, medium_world, SEED};
use borges_core::pipeline::{Borges, IngestOptions};
use borges_core::SnapshotState;
use borges_llm::{ChatModel, ChatRequest, ChatResponse, SimLlm};
use borges_resilience::TransportError;
use borges_synthnet::{churn, SyntheticInternet};
use borges_websim::{ScrapeReport, Scraper, SimWebClient};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Modeled cost of one LLM API round trip. Conservative: real calls
/// run hundreds of milliseconds; 2ms keeps the 100%-churn leg of the
/// sweep under a minute while preserving the count asymmetry.
const PER_CALL_COST: Duration = Duration::from_millis(2);

/// Charges [`PER_CALL_COST`] of spin before every completion, so a
/// saved call is a saved cost — as it is against a real API.
struct CostedModel<M> {
    inner: M,
}

impl<M: ChatModel> ChatModel for CostedModel<M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        let start = Instant::now();
        while start.elapsed() < PER_CALL_COST {
            std::hint::spin_loop();
        }
        self.inner.complete(request)
    }
    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

fn llm() -> CostedModel<SimLlm> {
    CostedModel {
        inner: SimLlm::new(SEED),
    }
}

fn crawl(world: &SyntheticInternet) -> ScrapeReport {
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
}

fn llm_calls(borges: &Borges) -> usize {
    borges.ner.stats.llm_calls + borges.favicon.stats.llm_calls
}

/// The persisted snapshot-T state every remap starts from.
fn base_state() -> &'static SnapshotState {
    static STATE: OnceLock<SnapshotState> = OnceLock::new();
    STATE.get_or_init(|| {
        let world = medium_world();
        ingest_scraped(world, &crawl(world), &llm(), &IngestOptions::default()).snapshot_state()
    })
}

fn bench_remap(c: &mut Criterion) {
    eprintln!(
        "bench host: {} CPU(s) online",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let full_opts = IngestOptions::default();
    let inc_opts = IngestOptions {
        prior: Some(base_state()),
        ..IngestOptions::default()
    };
    let mut group = c.benchmark_group("remap");
    group.sample_size(10);

    for percent in [0u32, 1, 10, 100] {
        let (t1, report) = churn(
            medium_world(),
            f64::from(percent),
            SEED ^ u64::from(percent),
        );
        let scrape = crawl(&t1);
        let model = llm();
        let full = ingest_scraped(&t1, &scrape, &model, &full_opts);
        let inc = ingest_scraped(&t1, &scrape, &model, &inc_opts);
        eprintln!(
            "churn {percent}%: {} of {} ASNs mutated; LLM calls full={} incremental={}",
            report.selected,
            t1.whois.asn_count(),
            llm_calls(&full),
            llm_calls(&inc),
        );
        group.bench_function(&format!("full_compile_churn_{percent}"), |b| {
            b.iter(|| black_box(ingest_scraped(&t1, &scrape, &model, &full_opts)))
        });
        group.bench_function(&format!("incremental_churn_{percent}"), |b| {
            b.iter(|| black_box(ingest_scraped(&t1, &scrape, &model, &inc_opts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_remap);
criterion_main!(benches);
