//! Ingest bench: the pooled ingest at in-flight budgets 1, 4 and 8
//! under injected fetch latency.
//!
//! Every ingest runs on one pool; its claim is *overlap*, not fan-out:
//! every remote call waits on the (simulated) network inside one pool
//! of `in_flight` workers, so up to `in_flight` fetches and LLM calls
//! hide each other's latency while the caller's thread derives the
//! registry half of the compile. To make that claim measurable on any
//! host, every fetch is wrapped in a real `thread::sleep` — the only
//! honest stand-in for network latency the simulator lacks. Budget 1
//! is the reference (`Borges::run`, `map --threads 1`): it pays that
//! latency serially, and isolates the compute overlap from the latency
//! hiding; budgets 4 and 8 pay it `in_flight`-wide.
//!
//! The `recrawl` leg times `Scraper::crawl` alone over the same latent
//! client: the standalone re-crawl the benchmark harness's `remap`
//! workload (`perfbench/`) runs before its incremental ingest, on a
//! pool of `DEFAULT_IN_FLIGHT` workers keyed per host. The CLI's remap,
//! `map --base`, and the server's reload crawl inside the pooled ingest
//! instead, as the `pooled_in_flight_4` leg does.
//!
//! Because the win is latency hiding rather than parallel compute, it
//! shows up even on a single-CPU host. Outputs are pinned byte-identical
//! across budgets by tests/streaming.rs, so this sweep measures pure
//! schedule, not drift.
//!
//! The host CPU count is printed at startup (and recorded in the JSON
//! baseline) so recorded numbers are interpretable without trusting a
//! hand-written note.

use borges_bench::{medium_world, SEED};
use borges_core::pipeline::{Borges, IngestOptions, WebSource};
use borges_llm::SimLlm;
use borges_resilience::TransportError;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_types::Url;
use borges_websim::{FetchResult, Scraper, SimWebClient, WebClient};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Duration;

/// Injects a fixed real-time delay before every fetch — the stand-in
/// for network round-trip latency the simulator otherwise elides.
struct LatentWebClient<C> {
    inner: C,
    delay: Duration,
}

impl<C: WebClient> WebClient for LatentWebClient<C> {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        std::thread::sleep(self.delay);
        self.inner.fetch(url)
    }
}

fn large_world() -> &'static SyntheticInternet {
    static WORLD: OnceLock<SyntheticInternet> = OnceLock::new();
    WORLD.get_or_init(|| SyntheticInternet::generate(&GeneratorConfig::large(SEED)))
}

struct IngestFixture {
    label: &'static str,
    world: &'static SyntheticInternet,
    /// Injected per-fetch latency, sized so the budget-1 leg fits the
    /// harness time budget while still dominating the crawl stage.
    delay_us: u64,
    samples: usize,
}

fn bench_ingest(c: &mut Criterion) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("bench host: {cpus} CPU(s) online");

    let fixtures = [
        IngestFixture {
            label: "medium",
            world: medium_world(),
            delay_us: 200,
            samples: 5,
        },
        IngestFixture {
            label: "large",
            world: large_world(),
            delay_us: 100,
            samples: 3,
        },
    ];

    for fixture in &fixtures {
        let world = fixture.world;
        let entries = world.pdb.nets().count();
        let delay = Duration::from_micros(fixture.delay_us);
        eprintln!(
            "{}: {} ASNs, {} crawl entries, {}µs injected fetch latency \
             (serial lower bound {:.2} s)",
            fixture.label,
            world.whois.asn_count(),
            entries,
            fixture.delay_us,
            (entries as u64 * fixture.delay_us) as f64 / 1e6,
        );
        let model = SimLlm::new(SEED);
        let client = || LatentWebClient {
            inner: SimWebClient::browser(&world.web),
            delay,
        };

        let mut group = c.benchmark_group(&format!("ingest/{}", fixture.label));
        group.sample_size(fixture.samples);
        for in_flight in [1usize, 4, 8] {
            let opts = IngestOptions {
                pool: in_flight,
                ..IngestOptions::default()
            };
            group.bench_function(&format!("pooled_in_flight_{in_flight}"), |b| {
                b.iter(|| {
                    black_box(Borges::ingest(
                        &world.whois,
                        &world.pdb,
                        WebSource::Crawl(&client()),
                        &model,
                        &opts,
                        &Telemetry::disabled(),
                    ))
                })
            });
        }
        group.bench_function("recrawl", |b| {
            b.iter(|| {
                let scraper = Scraper::new(client());
                black_box(scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str()))))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
