//! Table 3 bench: the cost of computing each feature's merge evidence in
//! isolation on the medium world.

use borges_bench::{llm, medium_scrape, medium_world};
use borges_core::ner::{extract, plan, NerConfig};
use borges_core::orgkeys::{oid_p_groups, oid_w_groups};
use borges_core::web::favicon::favicon_inference;
use borges_core::web::rr::rr_inference;
use borges_llm::ChatModel;
use borges_parallel::stream_indexed;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_features(c: &mut Criterion) {
    let world = medium_world();
    let report = medium_scrape();
    let model = llm();

    let mut group = c.benchmark_group("table3_features");
    group.sample_size(10);

    group.bench_function("oid_w_groups", |b| {
        b.iter(|| black_box(oid_w_groups(&world.whois)))
    });
    group.bench_function("oid_p_groups", |b| {
        b.iter(|| black_box(oid_p_groups(&world.pdb)))
    });
    group.bench_function("ner_extract", |b| {
        b.iter(|| black_box(extract(&world.pdb, &model, NerConfig::default())))
    });
    // The pooled path: the plan's requests on a pool of 4 workers, each
    // its own key, replies folded in request order.
    group.bench_function("ner_extract_pooled_4", |b| {
        b.iter(|| {
            let plan = plan(&world.pdb, NerConfig::default(), &Default::default());
            let mut replies = Vec::with_capacity(plan.requests().len());
            let indices: Vec<usize> = (0..plan.requests().len()).collect();
            stream_indexed(
                &indices,
                4,
                |&j| j as u64,
                |_, &j| model.complete(&plan.requests()[j]),
                |_, reply| replies.push(reply),
            );
            black_box(plan.fold(replies))
        })
    });
    group.bench_function("rr_inference", |b| {
        b.iter(|| black_box(rr_inference(report)))
    });
    group.bench_function("favicon_inference", |b| {
        b.iter(|| black_box(favicon_inference(report, &model)))
    });
    group.finish();
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
