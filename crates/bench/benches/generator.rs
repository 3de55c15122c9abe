//! Substrate bench: synthetic-Internet generation throughput (the cost
//! of producing the evaluation inputs at each scale), and the cost of
//! loading a saved bundle's inputs back, as every publish does.

use borges_synthnet::io::{save, DatasetBundle};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");

    group.bench_function("tiny", |b| {
        b.iter(|| black_box(SyntheticInternet::generate(&GeneratorConfig::tiny(1))))
    });

    group.sample_size(10);
    group.bench_function("medium", |b| {
        b.iter(|| black_box(SyntheticInternet::generate(&GeneratorConfig::medium(1))))
    });
    group.finish();
}

/// `DatasetBundle::load` of a saved medium world (seed 7), the bundle's
/// drop included.
fn bench_bundle_load(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("borges-bench-bundle-{}", std::process::id()));
    save(
        &SyntheticInternet::generate(&GeneratorConfig::medium(7)),
        &dir,
    )
    .expect("save the medium bundle");

    let mut group = c.benchmark_group("bundle_load");
    group.sample_size(15);
    group.bench_function("medium", |b| {
        b.iter(|| black_box(DatasetBundle::load(&dir).expect("the bundle loads")))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_generator, bench_bundle_load);
criterion_main!(benches);
