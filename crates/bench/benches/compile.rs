//! Evidence-compilation bench: full compile and 1%-churn incremental
//! remap, swept across world size (medium ~11k ASNs / large ~130k) and
//! shard count (1 / 4 / 16 workers driving the sharded
//! `DenseUnionFind` replay).
//!
//! The crawl is pre-computed outside the timed region for every leg —
//! crawling costs the same regardless of sharding — so the sweep
//! isolates what the shards actually parallelize: extraction fan-out
//! and the edge-list replay. Shard count 1 is the sequential baseline;
//! outputs are byte-identical at every count (pinned by
//! tests/scale.rs), so the sweep measures pure schedule, not drift.
//!
//! Peak RSS (VmHWM) is printed alongside wall time. The kernel lets a
//! process reset its own high-water mark via `/proc/self/clear_refs`,
//! which this bench does before each leg; on kernels where the reset
//! is refused the printed values are monotonic across legs and only
//! the first large-world number is meaningful.
//!
//! The streamed generation preamble stream-writes the large world to a
//! temp dir first and reports its wall time and RSS ceiling — the
//! bounded-memory claim of the streaming generator, measured in the
//! same process that then pays the cost of materializing that world
//! for compilation.
//!
//! The host CPU count is printed at startup so recorded baselines are
//! interpretable without trusting a hand-written note.

use borges_bench::{ingest_scraped, medium_world, SEED};
use borges_core::pipeline::IngestOptions;
use borges_core::SnapshotState;
use borges_llm::SimLlm;
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_websim::{ScrapeReport, Scraper, SimWebClient};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

/// Peak resident set (VmHWM) in MiB, from /proc/self/status. Returns
/// 0.0 where procfs is unavailable (non-Linux); the bench still runs,
/// just without memory numbers.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the high-water mark so per-leg peaks are attributable.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn llm() -> SimLlm {
    SimLlm::new(SEED)
}

fn crawl(world: &SyntheticInternet) -> ScrapeReport {
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
}

/// The large world, materialized once. Compilation needs the parsed
/// registries in memory regardless of how the bundle was written, so
/// the bench generates in-process rather than round-tripping the
/// streamed files through the loader.
fn large_world() -> &'static SyntheticInternet {
    static WORLD: OnceLock<SyntheticInternet> = OnceLock::new();
    WORLD.get_or_init(|| SyntheticInternet::generate(&GeneratorConfig::large(SEED)))
}

/// Streamed-generation preamble: write the large world to disk in
/// bounded memory and report the cost. Runs before any materialized
/// fixture exists so the RSS ceiling is the streamer's own.
fn streaming_preamble() {
    let dir = std::env::temp_dir().join(format!("borges-compile-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    reset_peak_rss();
    let start = std::time::Instant::now();
    let report = borges_synthnet::generate_to_dir(&GeneratorConfig::large(SEED), &dir)
        .expect("streaming generation");
    eprintln!(
        "stream-generate large ({} ASNs, {} PeeringDB nets, {} web hosts): {:.2} s, peak RSS {:.0} MiB",
        report.asns,
        report.pdb_nets,
        report.web_hosts,
        start.elapsed().as_secs_f64(),
        peak_rss_mib()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

struct WorldFixture {
    label: &'static str,
    world: &'static SyntheticInternet,
}

fn bench_compile(c: &mut Criterion) {
    eprintln!(
        "bench host: {} CPU(s) online",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    streaming_preamble();

    let worlds = [
        WorldFixture {
            label: "medium",
            world: medium_world(),
        },
        WorldFixture {
            label: "large",
            world: large_world(),
        },
    ];

    for fixture in &worlds {
        let world = fixture.world;
        reset_peak_rss();
        let scrape = crawl(world);
        let model = llm();
        eprintln!(
            "{}: {} ASNs, {} crawl entries (fixture peak RSS {:.0} MiB)",
            fixture.label,
            world.whois.asn_count(),
            scrape.sites.len(),
            peak_rss_mib()
        );

        // The snapshot-T state the remap legs start from, and the 1%
        // churned T+1 they re-map.
        let state: SnapshotState =
            ingest_scraped(world, &scrape, &model, &IngestOptions::default()).snapshot_state();
        let (t1, churn_report) = churn(world, 1.0, SEED ^ 1);
        let t1_scrape = crawl(&t1);
        eprintln!(
            "{}: churn 1% mutated {} of {} ASNs",
            fixture.label,
            churn_report.selected,
            world.whois.asn_count()
        );

        let mut group = c.benchmark_group(&format!("compile/{}", fixture.label));
        group.sample_size(10);
        for threads in [1usize, 4, 16] {
            let full = IngestOptions {
                threads,
                ..IngestOptions::default()
            };
            let remap = IngestOptions {
                threads,
                prior: Some(&state),
                ..IngestOptions::default()
            };
            reset_peak_rss();
            group.bench_function(&format!("full_threads_{threads}"), |b| {
                b.iter(|| black_box(ingest_scraped(world, &scrape, &model, &full)))
            });
            eprintln!(
                "{}: full compile at {} thread(s) peak RSS {:.0} MiB",
                fixture.label,
                threads,
                peak_rss_mib()
            );

            reset_peak_rss();
            group.bench_function(&format!("remap_churn1_threads_{threads}"), |b| {
                b.iter(|| black_box(ingest_scraped(&t1, &t1_scrape, &model, &remap)))
            });
            eprintln!(
                "{}: 1%-churn remap at {} thread(s) peak RSS {:.0} MiB",
                fixture.label,
                threads,
                peak_rss_mib()
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
