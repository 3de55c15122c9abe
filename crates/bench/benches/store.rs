//! Persistent-store bench: what a `serve --store` cold start costs
//! next to the full compile it replaces.
//!
//! Six legs over the medium world (~11k ASNs): encoding the compiled
//! world to artifact bytes, decoding + validating those bytes back
//! (checksums, digest, semantic checks), replaying the decoded world
//! into a pipeline, the two integrity kernels alone over the artifact
//! bytes (the whole-file SHA-256 and one CRC32 pass, which encode and
//! decode each run once), and — the yardstick — the full
//! crawl-to-evidence compile. The artifact size is printed so the
//! wall-time numbers can be read against the I/O they imply.
//!
//! Decode + replay is the whole happy-path cold start; the gap between
//! that sum and the compile leg is the store's value proposition.

use borges_bench::{ingest_scraped, medium_world, SEED};
use borges_core::pipeline::{Borges, IngestOptions};
use borges_llm::SimLlm;
use borges_store::{crc32, decode_world, encode_world, sha256};
use borges_websim::{Scraper, SimWebClient};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_store(c: &mut Criterion) {
    let world = medium_world();
    let model = SimLlm::new(SEED);
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    let scrape = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
    let borges = ingest_scraped(world, &scrape, &model, &IngestOptions::default());
    let compiled = borges.to_world();
    let bytes = encode_world(&compiled);
    eprintln!(
        "store artifact: {} bytes for {} ASNs",
        bytes.len(),
        world.whois.asn_count()
    );
    let loaded = decode_world(&bytes).expect("decode own encoding");

    let mut group = c.benchmark_group("store/medium");
    group.sample_size(10);
    group.bench_function("encode", |b| b.iter(|| black_box(encode_world(&compiled))));
    group.bench_function("decode_validate", |b| {
        b.iter(|| black_box(decode_world(&bytes).expect("decode")))
    });
    group.bench_function("replay", |b| {
        b.iter(|| black_box(Borges::from_world(&loaded.world, 1).expect("replay")))
    });
    group.bench_function("sha256", |b| {
        b.iter(|| black_box(sha256::sha256(black_box(&bytes))))
    });
    group.bench_function("crc32", |b| {
        b.iter(|| black_box(crc32::crc32(black_box(&bytes))))
    });
    // The yardstick is what `serve` without `--store` actually does at
    // boot: crawl + extract + compile. (The sim's LLM answers in
    // microseconds; against a real model the gap widens by orders of
    // magnitude — the store also removes the boot-time dependency on
    // the web and the model being reachable at all.)
    group.bench_function("full_compile_yardstick", |b| {
        b.iter(|| {
            black_box(Borges::run(
                &world.whois,
                &world.pdb,
                SimWebClient::browser(&world.web),
                &model,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
