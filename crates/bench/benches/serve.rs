//! Serving-layer loopback sweep: request throughput through the full
//! stack — accept queue, worker pool, routing, JSON render — over real
//! `127.0.0.1` sockets, across client counts (1 / 4 / 16) and cache
//! temperature (cold: LRU disabled, every `/v1/map` request
//! re-materializes the mapping; warm: LRU capacity 16, every feature
//! subset served from cache after the first hit).
//!
//! The cold/warm gap isolates the cost the [`MappingCache`] exists to
//! amortize: mapping materialization over the medium (~11k ASN) world.
//! The client-count sweep shows how the fixed worker pool scales on
//! loopback, where the per-request network cost is near zero and the
//! measured time is parse + route + render + syscall overhead.
//!
//! Each iteration runs `clients × REQUESTS_PER_CLIENT` round trips:
//! every client thread opens a fresh connection per request (the server
//! speaks one request per connection) and walks a rotating probe list
//! covering map lookups across feature subsets, org rosters, evidence
//! pairs, coverage, and health.
//!
//! One in-process leg, `evidence_32_pairs`, times [`Borges::evidence`]
//! alone over 32 pairs shaped like perfbench's evidence mix: 16 inside
//! one full-mapping org and 16 uniformly random. It runs on a clone of
//! the fixture whose component table is built before the timed samples,
//! and the first call's cost, which builds it, is printed at startup.
//!
//! The host CPU count is printed at startup so recorded baselines are
//! interpretable without trusting a hand-written note.
//!
//! [`MappingCache`]: borges_serve::MappingCache

use borges_bench::{medium_pipeline, SEED};
use borges_core::pipeline::Borges;
use borges_serve::{ServeClient, Server, ServerConfig};
use borges_types::Asn;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

/// Round trips each client thread performs per iteration.
const REQUESTS_PER_CLIENT: usize = 8;

/// The rotating request mix. Feature subsets deliberately vary so the
/// cold server re-materializes distinct mappings while the warm one
/// holds them all (LRU capacity 16 > 6 distinct subsets).
const PROBES: &[&str] = &[
    "/v1/map/AS3356",
    "/v1/map/AS3356?features=none",
    "/v1/map/AS174?features=oid_p,rr",
    "/v1/org/AS3356?features=na,favicons",
    "/v1/evidence/AS3356/AS209",
    "/v1/coverage",
    "/healthz",
    "/v1/map/AS701?features=na,rr",
];

/// Pairs per iteration of the in-process evidence leg.
const EVIDENCE_PAIRS: usize = 32;

/// Half the pairs inside one org of the full mapping, half uniformly
/// random over the universe, deterministically in [`SEED`].
fn evidence_pairs(borges: &Borges) -> Vec<(Asn, Asn)> {
    let full = borges.full();
    let universe = borges.universe();
    let mut state = SEED | 1;
    let mut below = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut pairs = Vec::with_capacity(EVIDENCE_PAIRS);
    while pairs.len() < EVIDENCE_PAIRS / 2 {
        let a = universe[below(universe.len())];
        let roster = full.siblings_of(a);
        if roster.len() >= 2 {
            let b = roster[below(roster.len())];
            if b != a {
                pairs.push((a, b));
            }
        }
    }
    while pairs.len() < EVIDENCE_PAIRS {
        pairs.push((
            universe[below(universe.len())],
            universe[below(universe.len())],
        ));
    }
    pairs
}

fn start_server(lru_capacity: usize) -> Server {
    let config = ServerConfig {
        threads: 8,
        queue_depth: 1024,
        lru_capacity,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    Server::start(config, medium_pipeline().clone(), None).expect("bind loopback")
}

fn bench_serve(c: &mut Criterion) {
    eprintln!(
        "bench host: {} CPU(s) online",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut group = c.benchmark_group("serve");

    // A clone, so the servers below start from a fixture whose table
    // is not built yet.
    let borges = medium_pipeline().clone();
    let pairs = evidence_pairs(&borges);
    let started = Instant::now();
    borges.evidence(pairs[0].0, pairs[0].1);
    eprintln!("evidence: first call took {:?}", started.elapsed());
    group.sample_size(100);
    group.bench_function("evidence_32_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(a, b)| borges.evidence(a, b).len())
                .sum::<usize>()
        })
    });
    group.sample_size(10);

    for &clients in &[1usize, 4, 16] {
        for (mode, lru_capacity) in [("cold", 0usize), ("warm", 16)] {
            let server = start_server(lru_capacity);
            let addr = server.local_addr();
            if lru_capacity > 0 {
                // Pre-warm every probe so the warm leg measures steady
                // state, not the first-touch materializations.
                let client = ServeClient::new(addr);
                for probe in PROBES {
                    let response = client.get(probe).expect("warmup request");
                    assert_eq!(response.status, 200, "warmup {probe}");
                }
            }
            // One iteration = clients × REQUESTS_PER_CLIENT round trips;
            // divide the reported time accordingly for per-request cost.
            group.bench_function(&format!("{clients}_clients_{mode}"), |b| {
                b.iter(|| {
                    let workers: Vec<_> = (0..clients)
                        .map(|offset| {
                            std::thread::spawn(move || {
                                let client =
                                    ServeClient::new(addr).with_timeout(Duration::from_secs(60));
                                for step in 0..REQUESTS_PER_CLIENT {
                                    let probe = PROBES[(offset + step) % PROBES.len()];
                                    let response = client.get(probe).expect("bench request");
                                    assert_eq!(response.status, 200, "{probe}");
                                }
                            })
                        })
                        .collect();
                    for worker in workers {
                        worker.join().expect("client thread");
                    }
                })
            });
            server.stop();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
