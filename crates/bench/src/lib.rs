//! Shared fixtures for the Criterion benchmarks.
//!
//! Every bench operates on the same deterministically generated worlds so
//! numbers are comparable across runs and benches. Worlds are built once
//! per process via `OnceLock`.

use borges_core::pipeline::{Borges, IngestOptions, WebSource};
use borges_llm::{ChatModel, SimLlm};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_websim::{ScrapeReport, Scraper, SimWebClient};
use std::sync::OnceLock;

/// The bench seed.
pub const SEED: u64 = 20240724;

/// A tiny world (~400 ASNs) for micro-benchmarks of per-item costs.
pub fn tiny_world() -> &'static SyntheticInternet {
    static WORLD: OnceLock<SyntheticInternet> = OnceLock::new();
    WORLD.get_or_init(|| SyntheticInternet::generate(&GeneratorConfig::tiny(SEED)))
}

/// A medium world (~11k ASNs) for end-to-end stage benchmarks.
pub fn medium_world() -> &'static SyntheticInternet {
    static WORLD: OnceLock<SyntheticInternet> = OnceLock::new();
    WORLD.get_or_init(|| SyntheticInternet::generate(&GeneratorConfig::medium(SEED)))
}

/// The paper-calibrated model.
pub fn llm() -> SimLlm {
    SimLlm::new(SEED)
}

/// A completed crawl of the medium world (computed once).
pub fn medium_scrape() -> &'static ScrapeReport {
    static REPORT: OnceLock<ScrapeReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let world = medium_world();
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
    })
}

/// [`Borges::ingest`] over an earlier crawl of `world`, untraced: no
/// crawl stage runs, so compile-bound benches time the rest alone.
pub fn ingest_scraped(
    world: &SyntheticInternet,
    report: &ScrapeReport,
    model: &(dyn ChatModel + Sync),
    opts: &IngestOptions<'_>,
) -> Borges {
    Borges::ingest(
        &world.whois,
        &world.pdb,
        WebSource::Scraped(report),
        model,
        opts,
        &Telemetry::disabled(),
    )
}

/// A fully computed pipeline over the medium world (computed once).
pub fn medium_pipeline() -> &'static Borges {
    static PIPELINE: OnceLock<Borges> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        ingest_scraped(
            medium_world(),
            medium_scrape(),
            &llm(),
            &IngestOptions::default(),
        )
    })
}
