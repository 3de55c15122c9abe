//! Evidence-compilation bench: one full compile and one 1%-churn
//! incremental remap per world size (medium ~11k ASNs / large ~130k).
//!
//! The crawl is pre-computed outside the timed region for every leg, so
//! the legs isolate extraction and the compile's edge-list replay.
//!
//! Peak RSS (VmHWM) is printed alongside wall time as a running
//! high-water mark: the bench only reads /proc, never resets the mark,
//! so each printed value covers the whole process so far and a leg set
//! a new peak only where the value rises.
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
    let start = std::time::Instant::now();
    let report = borges_synthnet::generate_to_dir(&GeneratorConfig::large(SEED), &dir)
        .expect("streaming generation");
    eprintln!(
        "stream-generate large ({} ASNs, {} PeeringDB nets, {} web hosts): {:.2} s, peak RSS so far {:.0} MiB",
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
        let scrape = crawl(world);
        let model = llm();
        eprintln!(
            "{}: {} ASNs, {} crawl entries (peak RSS so far {:.0} MiB)",
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
        let remap = IngestOptions {
            prior: Some(&state),
            ..IngestOptions::default()
        };
        group.bench_function("full", |b| {
            b.iter(|| {
                black_box(ingest_scraped(
                    world,
                    &scrape,
                    &model,
                    &IngestOptions::default(),
                ))
            })
        });
        eprintln!(
            "{}: full compile, peak RSS so far {:.0} MiB",
            fixture.label,
            peak_rss_mib()
        );
        group.bench_function("remap_churn1", |b| {
            b.iter(|| black_box(ingest_scraped(&t1, &t1_scrape, &model, &remap)))
        });
        eprintln!(
            "{}: 1%-churn remap, peak RSS so far {:.0} MiB",
            fixture.label,
            peak_rss_mib()
        );
        group.finish();
    }
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
