//! The persistent-store keystones, end to end (DESIGN.md §12).
//!
//! The whole value of the store rests on one contract: a world loaded
//! from an artifact is **indistinguishable** from the freshly compiled
//! world it was saved from. Pinned here at both observation layers:
//!
//! 1. **Mapfile identity** — every one of the 16 feature combinations
//!    serializes to byte-identical mapfiles from the store-loaded and
//!    the compiled pipeline, at 1 and 4 replay threads.
//! 2. **HTTP identity** — two servers, one per pipeline, answer every
//!    endpoint class byte-identically, including the world digest in
//!    `/healthz` (the digest is content-derived, not load-path-derived).
//! 3. **Fallback identity** — a world recompiled after the artifact is
//!    damaged serves the same bytes a clean artifact would have; the
//!    store can degrade without changing answers.
//! 4. **Fail-closed loading** — damage anywhere in the file surfaces
//!    as a typed `StoreError`, never as an `Ok` with different bytes.
//! 5. **Carried digest** — a world rebuilt from a verified artifact or
//!    timeline epoch reports that artifact's digest without encoding
//!    itself again; a reloaded or installed world reports a fresh one.

use std::sync::Arc;
use std::time::Duration;

use borges_core::mapfile;
use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_core::SnapshotState;
use borges_llm::SimLlm;
use borges_serve::{
    FlightRecorder, Reloader, ServeClient, Server, ServerConfig, ServerHooks, TimelineState,
};
use borges_store::{
    decode_world, encode_world, load_artifact, verify_artifact, world_digest, write_artifact,
    Corruptor,
};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{MetricsRegistry, Telemetry};
use borges_timeline::Timeline;
use borges_websim::SimWebClient;

fn compiled() -> Borges {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(314159));
    let llm = SimLlm::new(314159);
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    )
}

fn start(borges: Borges) -> Server {
    let config = ServerConfig {
        threads: 2,
        read_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    Server::start(config, borges, None).expect("bind loopback")
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("borges-store-xtest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every endpoint class the HTTP-identity tests replay.
const PROBES: &[&str] = &[
    "/healthz",
    "/v1/coverage",
    "/v1/map/AS3356",
    "/v1/map/AS3356?features=none",
    "/v1/map/3356?features=oid_p,rr",
    "/v1/org/AS3356",
    "/v1/org/209?features=na",
    "/v1/evidence/AS3356/AS209",
    "/v1/map/not-an-asn",
    "/no/such/route",
];

#[test]
fn store_loaded_mapfiles_match_compiled_for_every_combination_and_thread_count() {
    let original = compiled();
    let world = original.to_world();
    // Through the full file round trip, not just the in-memory value:
    // what serve loads is what map wrote.
    let dir = tmpdir("mapfiles");
    let path = dir.join("w.world");
    write_artifact(&path, &world).expect("write artifact");
    let loaded = load_artifact(&path).expect("load artifact");

    for threads in [1, 4] {
        let replayed = Borges::from_world(&loaded.world, threads).expect("replay world");
        for features in FeatureSet::all_combinations() {
            let a = mapfile::serialize(&original.mapping(features));
            let b = mapfile::serialize(&replayed.mapping(features));
            assert_eq!(
                a,
                b,
                "mapfile for {} differs at {threads} replay thread(s)",
                features.label()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_loaded_server_answers_byte_identically_to_compiled_server() {
    let original = compiled();
    let dir = tmpdir("http");
    let path = dir.join("w.world");
    write_artifact(&path, &original.to_world()).expect("write artifact");
    let loaded = load_artifact(&path).expect("load artifact");
    let replayed = Borges::from_world(&loaded.world, 2).expect("replay world");

    let from_compile = start(original);
    let from_store = start(replayed);
    let client_a = ServeClient::new(from_compile.local_addr());
    let client_b = ServeClient::new(from_store.local_addr());
    for probe in PROBES {
        let a = client_a.get(probe).expect("compiled-world response");
        let b = client_b.get(probe).expect("store-world response");
        assert_eq!(
            a.canonical_raw(),
            b.canonical_raw(),
            "{probe} differed between compiled and store-loaded worlds:\n{}\nvs\n{}",
            String::from_utf8_lossy(&a.raw),
            String::from_utf8_lossy(&b.raw)
        );
    }
    // The healthz digest is the artifact's content address: same
    // world, same address, regardless of how it got into memory.
    let health = client_b.get("/healthz").expect("healthz");
    assert!(
        health
            .body_text()
            .contains(&format!("\"world_digest\":\"{}\"", loaded.digest)),
        "healthz must carry the store content address: {}",
        health.body_text()
    );
    from_compile.stop();
    from_store.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recompiled_fallback_world_serves_the_same_bytes_as_a_clean_store() {
    // The serve CLI falls back to a bundle compile when the artifact
    // is damaged. Model both sides here: the world a clean artifact
    // yields, and the world the fallback compile yields — responses
    // must be byte-identical, so degradation never changes answers.
    let dir = tmpdir("fallback");
    let path = dir.join("w.world");
    write_artifact(&path, &compiled().to_world()).expect("write artifact");

    let mut bytes = std::fs::read(&path).unwrap();
    let mut corruptor = Corruptor::new(0xFA11_BACC);
    corruptor.flip_byte(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let damage = load_artifact(&path).expect_err("damaged artifact must not load");
    assert!(!damage.kind().is_empty(), "typed error expected");

    let fallback = start(compiled());
    let clean = start(Borges::from_world(&compiled().to_world(), 2).expect("replay"));
    let client_fallback = ServeClient::new(fallback.local_addr());
    let client_clean = ServeClient::new(clean.local_addr());
    for probe in PROBES {
        let a = client_fallback.get(probe).expect("fallback response");
        let b = client_clean.get(probe).expect("clean-store response");
        assert_eq!(
            a.canonical_raw(),
            b.canonical_raw(),
            "{probe} differed after fallback"
        );
    }
    fallback.stop();
    clean.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_encoding_is_canonical_and_content_addressed() {
    let world = compiled().to_world();
    let bytes = encode_world(&world);
    let decoded = decode_world(&bytes).expect("decode own encoding");
    assert_eq!(
        bytes,
        encode_world(&decoded.world),
        "encode∘decode∘encode must be the identity"
    );
    assert_eq!(
        decoded.digest,
        world_digest(&world),
        "digest must be derivable from the world alone"
    );

    let dir = tmpdir("address");
    let path = dir.join("w.world");
    let written = write_artifact(&path, &world).expect("write artifact");
    let info = verify_artifact(&path).expect("verify artifact");
    assert_eq!(written, info.digest, "write and verify must agree");
    assert_eq!(written, decoded.digest, "file and memory must agree");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_damage_anywhere_is_detected_or_harmless() {
    // Cross-crate restatement of the corruption matrix at the level
    // serve trusts: any single flipped byte either fails typed, or —
    // if it ever succeeded — would have to decode to the same world.
    let world = compiled().to_world();
    let clean = encode_world(&world);
    let mut corruptor = Corruptor::new(20260808);
    for _ in 0..64 {
        let mut bytes = clean.clone();
        corruptor.flip_byte(&mut bytes);
        match decode_world(&bytes) {
            Err(err) => assert!(!err.kind().is_empty()),
            Ok(loaded) => assert_eq!(
                loaded.world, world,
                "an accepted flip must be semantically invisible"
            ),
        }
        let cut = corruptor.truncate(&clean);
        decode_world(&cut).expect_err("truncation must never load");
    }
}

/// The `world_digest` a server's `/healthz` reports.
fn healthz_digest(server: &Server) -> String {
    let response = ServeClient::new(server.local_addr())
        .get("/healthz")
        .expect("healthz");
    let body = response.body_text();
    let at = body
        .find("\"world_digest\":\"")
        .expect("healthz carries a digest")
        + 16;
    body[at..at + 64].to_string()
}

#[test]
fn healthz_digest_is_the_verified_one_after_a_load_and_a_fresh_one_after_a_swap() {
    let dir = tmpdir("carried-digest");
    let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(314159));
    let (t1, _) = churn(&t0, 10.0, 23);
    let llm = SimLlm::new(314159);
    let compile = |world: &SyntheticInternet, prior: Option<&SnapshotState>| {
        Borges::ingest(
            &world.whois,
            &world.pdb,
            WebSource::Crawl(&SimWebClient::browser(&world.web)),
            &llm,
            &IngestOptions {
                prior,
                ..IngestOptions::default()
            },
            &Telemetry::disabled(),
        )
    };

    // A store boot: the pipeline carries the digest the load verified.
    let path = dir.join("w.world");
    let written = write_artifact(&path, &compile(&t0, None).to_world()).expect("write");
    let loaded = load_artifact(&path).expect("load artifact");
    let replayed = Borges::from_world(&loaded.world, 1).expect("replay world");
    assert_eq!(replayed.verified_digest(), Some(written.as_str()));
    let mut restamped = Borges::from_world(&loaded.world, 1).expect("replay world");
    restamped.set_world_epoch(5);
    assert_eq!(
        restamped.verified_digest(),
        None,
        "a new epoch is a new world"
    );

    // A remap reload re-ingests T+1 against the serving world's state.
    let reload_digest = world_digest(&compile(&t1, Some(&replayed.snapshot_state())).to_world());
    let next = t1.clone();
    let reloader: Reloader = Box::new(move |current: &Borges, _store: Option<&str>| {
        let llm = SimLlm::new(314159);
        let state = current.snapshot_state();
        Ok(Borges::ingest(
            &next.whois,
            &next.pdb,
            WebSource::Crawl(&SimWebClient::browser(&next.web)),
            &llm,
            &IngestOptions {
                prior: Some(&state),
                ..IngestOptions::default()
            },
            &Telemetry::disabled(),
        ))
    });
    let config = ServerConfig {
        threads: 2,
        read_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    let server = Server::start(config, replayed, Some(reloader)).expect("bind loopback");
    assert_eq!(healthz_digest(&server), written);

    // Neither a reloaded nor an installed world has a verified digest,
    // so the server hashes each.
    let reload = ServeClient::new(server.local_addr())
        .post("/v1/admin/reload", b"")
        .expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.body_text());
    assert_ne!(reload_digest, written);
    assert_eq!(healthz_digest(&server), reload_digest);
    let installed = compile(&t0, None);
    let installed_digest = world_digest(&installed.to_world());
    server.install(installed);
    assert_eq!(healthz_digest(&server), installed_digest);
    server.stop();

    // A timeline epoch, at boot and as a `?at=` load.
    let mut timeline = Timeline::open(&dir.join("chain")).expect("open timeline");
    for world in [&t0, &t1] {
        timeline.append(&mut compile(world, None)).expect("append");
    }
    let links = timeline.links().to_vec();
    let tip = timeline.load_epoch(1).expect("load the tip");
    assert_eq!(tip.verified_digest(), Some(links[1].world_digest.as_str()));
    let state = TimelineState::new(timeline, 4, 16);
    let at_zero = state
        .world_at(0, &MetricsRegistry::new(), &FlightRecorder::new(8))
        .expect("resolve ?at=0");
    assert_eq!(at_zero.digest, links[0].world_digest);
    let server = Server::start_with_timeline(
        ServerConfig::default(),
        tip,
        None,
        ServerHooks::default(),
        Some(Arc::new(state)),
    )
    .expect("bind loopback");
    assert_eq!(healthz_digest(&server), links[1].world_digest);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
