//! The time-travel keystones, end to end over real sockets
//! (DESIGN.md §15).
//!
//! A timeline chain built from synthnet's scripted corporate evolution
//! is mounted into the serving layer, and the contracts are pinned at
//! the HTTP boundary:
//!
//! 1. **Byte determinism** — `?at=` answers are byte-identical across
//!    worker-pool sizes and across epoch-LRU evictions, and identical
//!    to serving that epoch's world directly (no timeline in the
//!    loop). Time travel adds no bytes of its own.
//! 2. **Ground truth** — `/v1/org/{asn}/history` reproduces the
//!    scripted storyline: genesis, then the Cogent+Orange acquisition
//!    as a `merged` step, then the Digicel spinoff as a `split`.
//! 3. **Blame sorting** — bad epochs are 400s, epochs before genesis
//!    are 404s, and a server without a timeline answers 501, never a
//!    crash or a wrong answer.

use std::sync::Arc;
use std::time::Duration;

use borges_core::Borges;
use borges_llm::SimLlm;
use borges_serve::{ServeClient, Server, ServerConfig, ServerHooks, TimelineState};
use borges_synthnet::{EvolutionEvent, GeneratorConfig, SyntheticInternet};
use borges_timeline::{render_diff_json, Timeline};
use borges_types::Asn;
use borges_websim::SimWebClient;

fn compile(world: &SyntheticInternet) -> Borges {
    let llm = SimLlm::new(77);
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    )
}

/// A temp directory, removed when the test that made it ends.
struct TmpDir(std::path::PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TmpDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

fn tmpdir(name: &str) -> TmpDir {
    let dir = std::env::temp_dir().join(format!(
        "borges-timeline-xtest-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

/// Builds the scripted three-epoch chain in `dir`: the tiny(77) world,
/// then the Cogent+Orange acquisition, then the Digicel spinoff — the
/// same events `tests/longitudinal.rs` validates at the diff layer.
fn scripted_chain(dir: &std::path::Path) -> Timeline {
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
    let t1 = t0
        .evolve(&[EvolutionEvent::Acquisition {
            acquirer: "cogent".into(),
            target: "orange".into(),
        }])
        .unwrap();
    let t2 = t1
        .evolve(&[EvolutionEvent::Spinoff {
            brand: "digicel".into(),
            countries: vec!["KE".into(), "NG".into()],
            new_brand: "sahelwave".into(),
        }])
        .unwrap();
    let mut timeline = Timeline::open(dir).unwrap();
    for world in [&t0, &t1, &t2] {
        let mut borges = compile(world);
        timeline.append(&mut borges).unwrap();
    }
    timeline
}

/// Starts a server over the chain's genesis world with the timeline
/// mounted; `epoch_capacity` bounds the epoch LRU.
fn start_with_chain(dir: &std::path::Path, threads: usize, epoch_capacity: usize) -> Server {
    let timeline = Timeline::open(dir).unwrap();
    let boot = timeline.load_epoch(0).unwrap();
    let state = TimelineState::new(timeline, epoch_capacity, 16);
    let config = ServerConfig {
        threads,
        read_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    Server::start_with_timeline(
        config,
        boot,
        None,
        ServerHooks::default(),
        Some(Arc::new(state)),
    )
    .expect("bind loopback")
}

/// The `?at=` request set the determinism tests replay: each chain
/// epoch, a floor resolution past the tip, and several feature
/// subsets.
const AT_PROBES: &[&str] = &[
    "/v1/map/AS174?at=0",
    "/v1/map/AS174?at=1",
    "/v1/map/AS174?at=2",
    "/v1/map/AS174?at=99",
    "/v1/map/AS3215?features=all&at=1",
    "/v1/map/AS36926?features=oid_p,rr&at=2",
    "/v1/org/AS174/history",
    "/v1/diff/0/2",
    "/v1/diff/1/2",
];

#[test]
fn at_answers_are_byte_identical_across_worker_counts_and_evictions() {
    let dir = tmpdir("determinism");
    scripted_chain(&dir);

    let single = start_with_chain(&dir, 1, 4);
    let pooled = start_with_chain(&dir, 4, 4);
    // Capacity 1: every alternation between epochs evicts the other.
    let churny = start_with_chain(&dir, 2, 1);
    let client1 = ServeClient::new(single.local_addr());
    let client4 = ServeClient::new(pooled.local_addr());
    let client_churn = ServeClient::new(churny.local_addr());

    for probe in AT_PROBES {
        let a = client1.get(probe).expect("single-worker response");
        let b = client4.get(probe).expect("pooled response");
        assert_eq!(a.status, 200, "{probe}: {}", a.body_text());
        assert_eq!(
            a.canonical_raw(),
            b.canonical_raw(),
            "{probe} differed between 1 and 4 workers"
        );
        let c = client_churn.get(probe).expect("capacity-1 response");
        assert_eq!(
            a.canonical_raw(),
            c.canonical_raw(),
            "{probe} differed under a thrashing epoch cache"
        );
    }

    // Interleave epochs on the capacity-1 server so the cache provably
    // churns, then replay: the bytes must not move.
    let first_at0 = client_churn.get("/v1/map/AS174?at=0").unwrap();
    for _ in 0..3 {
        client_churn.get("/v1/map/AS174?at=2").unwrap();
        let again = client_churn.get("/v1/map/AS174?at=0").unwrap();
        assert_eq!(
            first_at0.canonical_raw(),
            again.canonical_raw(),
            "bytes changed across an epoch-LRU eviction"
        );
    }
    single.stop();
    pooled.stop();
    let ledger = churny.stop();
    assert!(
        ledger.counter("borges_timeline_lru_evictions_total") >= 3,
        "the capacity-1 cache must actually have churned"
    );
    assert!(ledger.counter("borges_timeline_epoch_loads_total") >= 4);
}

#[test]
fn at_serves_the_same_bytes_as_mounting_that_epoch_directly() {
    let dir = tmpdir("identity");
    let timeline = scripted_chain(&dir);

    let via_chain = start_with_chain(&dir, 2, 4);
    let chain_client = ServeClient::new(via_chain.local_addr());

    for epoch in 0..=2u64 {
        // A plain server (no timeline) booted straight from the chained
        // artifact: the reference answer for that epoch.
        let direct = Server::start(
            ServerConfig {
                threads: 2,
                read_timeout: Duration::from_millis(700),
                ..ServerConfig::default()
            },
            timeline.load_epoch(epoch).unwrap(),
            None,
        )
        .expect("bind loopback");
        let direct_client = ServeClient::new(direct.local_addr());
        for (timeline_probe, direct_probe) in [
            (
                format!("/v1/map/AS174?at={epoch}"),
                "/v1/map/AS174".to_string(),
            ),
            (
                format!("/v1/map/AS3215?features=all&at={epoch}"),
                "/v1/map/AS3215?features=all".to_string(),
            ),
            (
                format!("/v1/map/AS36926?features=oid_p,rr&at={epoch}"),
                "/v1/map/AS36926?features=oid_p,rr".to_string(),
            ),
        ] {
            let travelled = chain_client.get(&timeline_probe).expect("timeline answer");
            let reference = direct_client.get(&direct_probe).expect("direct answer");
            assert_eq!(
                travelled.canonical_raw(),
                reference.canonical_raw(),
                "epoch {epoch}: {timeline_probe} differs from mounting the world directly"
            );
        }
        direct.stop();
    }
    via_chain.stop();
}

#[test]
fn history_reproduces_the_scripted_corporate_storyline() {
    let dir = tmpdir("history");
    let timeline = scripted_chain(&dir);
    let server = start_with_chain(&dir, 2, 4);
    let client = ServeClient::new(server.local_addr());

    // The served body is exactly the library rendering.
    let response = client.get("/v1/org/AS174/history").expect("history");
    assert_eq!(response.status, 200);
    let expected = timeline.org_lineage(Asn::new(174)).unwrap().to_json();
    assert_eq!(response.body_text(), expected);

    // Scripted ground truth, epoch by epoch: AS174 (Cogent) exists at
    // genesis, absorbs Orange's AS3215 at epoch 1, then holds steady.
    let lineage = timeline.org_lineage(Asn::new(174)).unwrap();
    let kinds: Vec<&str> = lineage.steps.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, ["genesis", "merged", "unchanged"], "{expected}");
    let merged = &lineage.steps[1];
    assert!(
        merged.members.contains(&3215),
        "epoch 1 must show Orange absorbed: {expected}"
    );
    assert!(
        merged.detail.iter().any(|frag| frag.contains(&3215)),
        "the absorbed fragment must name AS3215: {expected}"
    );

    // The spun-off Digicel side: together at genesis, split at epoch 2.
    let lineage = timeline.org_lineage(Asn::new(36926)).unwrap();
    let kinds: Vec<&str> = lineage.steps.iter().map(|s| s.kind).collect();
    assert_eq!(kinds[0], "genesis");
    assert_eq!(kinds[2], "split", "{kinds:?}");
    assert!(lineage.steps[0].members.contains(&23520));
    assert!(
        !lineage.steps[2].members.contains(&23520),
        "the spun-off AS23520 must leave AS36926's organization"
    );
    let served = client.get("/v1/org/AS36926/history").expect("history");
    assert_eq!(served.body_text(), lineage.to_json());
    server.stop();
}

#[test]
fn diff_endpoint_serves_the_composed_diff_and_sorts_blame() {
    let dir = tmpdir("diff");
    let timeline = scripted_chain(&dir);
    let server = start_with_chain(&dir, 2, 4);
    let client = ServeClient::new(server.local_addr());

    let response = client.get("/v1/diff/0/2").expect("diff");
    assert_eq!(response.status, 200);
    let expected = render_diff_json(0, 2, &timeline.diff(0, 2).unwrap());
    assert_eq!(response.body_text(), expected);
    // Both scripted events are visible across the full range.
    assert!(expected.contains("\"AS174\""), "{expected}");
    assert!(expected.contains("\"splits\":[{"), "{expected}");

    // Blame sorting at the HTTP boundary.
    assert_eq!(client.get("/v1/diff/2/0").unwrap().status, 400);
    assert_eq!(client.get("/v1/diff/0/99").unwrap().status, 404);
    assert_eq!(client.get("/v1/diff/0/nope").unwrap().status, 400);
    assert_eq!(client.get("/v1/map/AS174?at=nope").unwrap().status, 400);

    // Wrong method on a timeline route: 405 with the Allow header.
    let wrong = client.post("/v1/org/AS174/history", b"{}").unwrap();
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.headers["allow"], "GET");

    // The health body advertises the mounted chain.
    let health = client.get("/healthz").unwrap();
    assert!(
        health
            .body_text()
            .contains("\"timeline\":{\"links\":3,\"tip\":2}"),
        "{}",
        health.body_text()
    );
    server.stop();
}

#[test]
fn a_server_without_a_timeline_answers_501_not_wrong() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
    let server = Server::start(
        ServerConfig {
            threads: 1,
            read_timeout: Duration::from_millis(700),
            ..ServerConfig::default()
        },
        compile(&world),
        None,
    )
    .expect("bind loopback");
    let client = ServeClient::new(server.local_addr());

    for probe in [
        "/v1/map/AS174?at=0",
        "/v1/org/AS174/history",
        "/v1/diff/0/1",
    ] {
        let response = client.get(probe).unwrap();
        assert_eq!(response.status, 501, "{probe}: {}", response.body_text());
        assert!(response.body_text().contains("no timeline"), "{probe}");
    }
    // Plain serving is untouched by the absence.
    assert_eq!(client.get("/v1/map/AS174").unwrap().status, 200);
    let health = client.get("/healthz").unwrap();
    assert!(
        !health.body_text().contains("timeline"),
        "an unmounted timeline must not appear in health: {}",
        health.body_text()
    );
    server.stop();
}
