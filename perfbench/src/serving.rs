//! The query path, driven as `borges serve --store FILE` drives it at
//! its defaults: `load_artifact` → `Borges::from_world` →
//! `Server::start_with_timeline`, then the first `200` from `/healthz`.
//! Traffic then runs against the live server in five windows: a
//! warm-up that fills the mapping LRU, open-loop lookups, one-client
//! lookups, `nproc`-client lookups, and one-client evidence queries.

use std::path::{Path, PathBuf};
use std::time::Duration;

use borges_core::pipeline::Borges;
use borges_llm::{CachingModel, SimLlm};
use borges_serve::http::json_string;
use borges_serve::{ServeClient, Server, ServerConfig, ServerHooks, ServingWorld};
use borges_store::LoadedWorld;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_websim::SimWebClient;

use crate::publish::{err, LLM_SEED};
use crate::queries::{self, field_raw, QueryPool};
use crate::report::{self, Report};
use crate::stats::{self, ms};
use crate::trace::{SpanId, Tracer};

/// Open-loop lookup rate, requests per second: under a tenth of the
/// closed-loop capacity on a 2-vCPU host, so the percentiles reflect
/// service time rather than queueing.
pub const OPEN_LOOP_RATE: f64 = 1000.0;
/// Accept-queue depth: the CLI default (the LRU's default of 16, enough
/// for all 16 feature subsets, is the CLI's too).
const QUEUE_DEPTH: usize = 64;
/// Lookups replayed in process in the traced run.
const REPLAY_LOOKUPS: usize = 4096;

/// A server that has answered its first `/healthz`.
pub struct Started {
    /// The running server.
    pub server: Server,
    /// The digest `load_artifact` verified.
    pub loaded_digest: String,
    /// The first `/healthz` body.
    pub healthz: Vec<u8>,
}

/// One cold start from the artifact at `path`.
pub fn cold_start(
    tracer: &Tracer,
    root: SpanId,
    threads: usize,
    path: &Path,
) -> Result<Started, String> {
    let LoadedWorld { world, digest, .. } = tracer
        .span("store.load", root, |_| borges_store::load_artifact(path))
        .map_err(err("load store artifact"))?;
    let borges = tracer.span("store.replay", root, |_| {
        let borges = Borges::from_world(&world, threads);
        drop(world);
        borges
    })?;
    let config = ServerConfig {
        threads,
        queue_depth: QUEUE_DEPTH,
        ..ServerConfig::default()
    };
    let server = tracer
        .span("serve.start", root, |_| {
            Server::start_with_timeline(config, borges, None, ServerHooks::default(), None)
        })
        .map_err(err("start server"))?;
    // What the CLI books about a clean store boot before serving.
    let metrics = server.metrics();
    metrics.counter("borges_store_load_attempts_total", 1);
    metrics.counter("borges_store_load_ok_total", 1);
    metrics.counter("borges_store_degraded_total", 0);
    metrics.counter("borges_store_recompile_total", 0);
    server.record_event(
        "store_load_ok",
        &format!("cold start from artifact {digest}"),
    );
    let health = tracer.span("serve.healthz", root, |_| {
        ServeClient::new(server.local_addr()).get("/healthz")
    });
    match health {
        Ok(response) if response.status == 200 => Ok(Started {
            server,
            loaded_digest: digest,
            healthz: response.body,
        }),
        Ok(response) => {
            server.stop();
            Err(format!("/healthz answered {}", response.status))
        }
        Err(e) => {
            server.stop();
            Err(format!("/healthz: {e}"))
        }
    }
}

/// Checks a cold start against the artifact's digest: the loader's
/// verified digest and the one `/healthz` reports must both equal it.
pub fn check_started(report: &mut Report, started: &Started, digest: &str) {
    let mut failures = Vec::new();
    if started.loaded_digest != digest {
        failures.push(format!(
            "loaded digest {} != artifact {digest}",
            started.loaded_digest
        ));
    }
    let healthz = String::from_utf8_lossy(&started.healthz);
    let want = json_string(digest);
    if field_raw(&healthz, "world_digest") != Some(want.as_str()) {
        failures.push(format!(
            "/healthz world_digest differs from artifact {digest}: {healthz}"
        ));
    }
    report.check(1, failures);
}

/// How long each traffic window of one cycle runs.
pub struct Windows {
    /// Open-loop lookups sent per cycle (at [`OPEN_LOOP_RATE`]).
    pub open_requests: usize,
    /// Closed-loop lookups from one client, on one CPU.
    pub latency: Duration,
    /// Closed-loop lookups from `nproc` clients, on one CPU.
    pub closed: Duration,
    /// Closed-loop evidence queries from one client, on one CPU.
    pub evidence: Duration,
}

fn sorted_ms(values: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.map(ms).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Traffic pooled over every server a run starts.
#[derive(Default)]
pub struct Traffic {
    open: Vec<stats::Shot>,
    lookup_ms: Vec<f64>,
    server_p50_ms: Vec<f64>,
    closed_requests: usize,
    closed_seconds: f64,
    evidence_ms: Vec<f64>,
    lru_hits: u64,
    lru_misses: u64,
    shed: u64,
    offset: usize,
}

impl Traffic {
    /// Runs one cycle of windows at `started` — warm-up, open-loop
    /// lookups, one-client lookups, `threads`-client lookups, evidence —
    /// then stops the server and checks every answer and the serve
    /// ledger.
    ///
    /// Every closed-loop window runs with the whole process (clients and
    /// server threads) confined to one CPU. Unconfined, each request
    /// hands off between threads on different vCPUs, and what a
    /// cross-vCPU wake-up costs on a shared VM host set the numbers:
    /// the same build read a lookup p50 of 0.05 ms in some runs and
    /// 0.09 ms in others, and its throughput 6.0k req/s in one run and
    /// 9.5k in another. On one CPU the hand-offs are plain context
    /// switches and the numbers are the request path's own.
    pub fn cycle(
        &mut self,
        report: &mut Report,
        started: Started,
        pool: &QueryPool,
        threads: usize,
        windows: &Windows,
    ) {
        let addr = started.server.local_addr();
        let warm = queries::one_each(addr, &pool.warmup);
        let open = queries::open_loop(
            addr,
            &pool.lookups,
            OPEN_LOOP_RATE,
            windows.open_requests,
            self.offset,
        );
        let (single, _) = report::on_one_cpu(|| {
            queries::closed_loop(addr, &pool.lookups, 1, windows.latency, self.offset)
        });
        let (closed, closed_s) = report::on_one_cpu(|| {
            queries::closed_loop(addr, &pool.lookups, threads, windows.closed, self.offset)
        });
        let (evidence, _) = report::on_one_cpu(|| {
            queries::closed_loop(addr, &pool.evidence, 1, windows.evidence, self.offset)
        });
        self.offset += windows.open_requests;

        let metrics = started.server.metrics();
        self.lru_hits += metrics.counter_value("borges_serve_lru_hits_total");
        self.lru_misses += metrics.counter_value("borges_serve_lru_misses_total");
        let ledger = started.server.stop();
        let (accepted, served, shed) = (
            ledger.counter("borges_serve_accepted_total"),
            ledger.counter("borges_serve_served_total"),
            ledger.counter("borges_serve_shed_total"),
        );
        self.shed += shed;

        // Checks, after the cycle's windows have closed.
        for (queries, samples) in [
            (&pool.warmup, &warm),
            (&pool.lookups, &open),
            (&pool.lookups, &single),
            (&pool.lookups, &closed),
            (&pool.evidence, &evidence),
        ] {
            let (n, failures) = queries::check_samples(queries, samples);
            report.check(n, failures);
        }
        let ledger_failures = if shed + served == accepted {
            Vec::new()
        } else {
            vec![format!(
                "serve ledger: shed {shed} + served {served} != accepted {accepted}"
            )]
        };
        report.check(1, ledger_failures);

        self.open.extend(open.iter().map(|s| s.shot));
        let lookup = sorted_ms(single.iter().map(|s| s.shot.service()));
        self.server_p50_ms
            .push(stats::percentile(&lookup, 50.0).unwrap_or(f64::NAN));
        self.lookup_ms.extend(lookup);
        self.closed_requests += closed.len();
        self.closed_seconds += closed_s;
        self.evidence_ms
            .extend(evidence.iter().map(|s| ms(s.shot.service())));
    }

    /// Books the pooled end-to-end and serve-side metrics; returns the
    /// one-client lookups' median in milliseconds.
    pub fn book(&self, report: &mut Report) -> Option<f64> {
        let sorted = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let lookup = sorted(&self.lookup_ms);
        let evidence = sorted(&self.evidence_ms);
        let open = sorted_ms(self.open.iter().map(|s| s.latency()));
        let late = sorted_ms(self.open.iter().map(|s| s.late()));
        let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(f64::NAN);
        report.set("lookup_p50_ms", pct(&lookup, 50.0));
        report.set("lookup_p90_ms", pct(&lookup, 90.0));
        report.set(
            "lookup_rps",
            self.closed_requests as f64 / self.closed_seconds,
        );
        report.set("evidence_p50_ms", pct(&evidence, 50.0));
        report.set("open_lookup_p50_ms", pct(&open, 50.0));
        report.set("open_lookup_p90_ms", pct(&open, 90.0));
        report.set("loadgen.late_p90_ms", pct(&late, 90.0));
        report.set("loadgen.late_p99_ms", pct(&late, 99.0));
        report.set(
            "serve.lru_hit_ratio",
            self.lru_hits as f64 / (self.lru_hits + self.lru_misses).max(1) as f64,
        );
        report.set("serve.shed", self.shed as f64);
        if let Some(p) = stats::highest_supported_percentile(lookup.len()) {
            report.note(format!(
                "lookup tail: p{p} = {:.4} ms over {} one-client lookups on one CPU; \
                 p50 per server {:.4?}",
                pct(&lookup, p),
                lookup.len(),
                self.server_p50_ms,
            ));
        }
        let ladder: Vec<String> = [50.0, 90.0, 99.0]
            .iter()
            .map(|&p| format!("p{p}={:.4}", pct(&open, p)))
            .collect();
        report.note(format!(
            "open-loop lookups: {} at {OPEN_LOOP_RATE} req/s from one sender, ms from due time: {} \
             (sender late p90 {:.4} ms); {} closed-loop lookups from {} s; {} evidence queries",
            open.len(),
            ladder.join(" "),
            pct(&late, 90.0),
            self.closed_requests,
            self.closed_seconds,
            evidence.len(),
        ));
        stats::percentile(&lookup, 50.0)
    }
}

/// The traced run's split of the serving layers, measured outside every
/// timed window on a world loaded from the same artifact: `to_world`
/// and `world_digest` alone (the two halves of `serve.start`'s digest),
/// then the query mix replayed in process through parse → respond →
/// write. `service_p50_ms` (the one-client lookups' median) minus the
/// in-process phases is the socket's share.
pub fn split_serving(
    report: &mut Report,
    tracer: &Tracer,
    threads: usize,
    path: &Path,
    pool: &QueryPool,
    service_p50_ms: Option<f64>,
) -> Result<(), String> {
    let loaded = borges_store::load_artifact(path).map_err(err("load store artifact"))?;
    let borges = Borges::from_world(&loaded.world, threads)?;
    drop(loaded);
    let started = std::time::Instant::now();
    let world = borges.to_world();
    let to_world_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = std::time::Instant::now();
    std::hint::black_box(borges_store::world_digest(&world));
    report.set("store.digest_ms", started.elapsed().as_secs_f64() * 1e3);
    report.set("core.to_world_ms", to_world_ms);
    drop(world);

    let epoch = borges.world_epoch();
    let serving = ServingWorld::new(borges, ServerConfig::default().lru_capacity, epoch);
    // Fill the LRU first, as the live server's warm-up does.
    let (_, n, failures) =
        queries::replay_in_process(&serving, &pool.warmup, pool.warmup.len(), tracer, 1);
    report.check(n, failures);
    let (times, n, failures) =
        queries::replay_in_process(&serving, &pool.lookups, REPLAY_LOOKUPS, tracer, 100_000);
    report.check(n, failures);
    let p50_us = |f: fn(&queries::PhaseTimes) -> u64| {
        let v: Vec<f64> = sorted_ms(times.iter().map(f))
            .into_iter()
            .map(|x| x * 1e3)
            .collect();
        stats::percentile(&v, 50.0).unwrap_or(f64::NAN)
    };
    let (parse, respond, write) = (
        p50_us(|t| t.parse),
        p50_us(|t| t.respond),
        p50_us(|t| t.write),
    );
    report.set("serve.parse_us", parse);
    report.set("serve.respond_us", respond);
    report.set("serve.write_us", write);
    if let Some(service) = service_p50_ms {
        report.set("serve.socket_us", service * 1e3 - (parse + respond + write));
    }
    let (times, n, failures) = queries::replay_in_process(
        &serving,
        &pool.evidence,
        pool.evidence.len(),
        tracer,
        200_000,
    );
    report.check(n, failures);
    let respond_ms = sorted_ms(times.iter().map(|t| t.respond));
    report.set(
        "serve.evidence_respond_ms",
        stats::percentile(&respond_ms, 50.0).unwrap_or(f64::NAN),
    );

    // Every replayed request left exactly its three phase spans.
    let replayed = pool.warmup.len() + REPLAY_LOOKUPS + pool.evidence.len();
    let mut per_request: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for span in tracer.spans().iter().filter(|s| s.request != 0) {
        *per_request.entry(span.request).or_default() += 1;
    }
    let balanced = per_request.len() == replayed && per_request.values().all(|&n| n == 3);
    report.check(
        1,
        if balanced {
            Vec::new()
        } else {
            vec![format!(
                "in-process replay spans: {} requests traced, {replayed} replayed",
                per_request.len()
            )]
        },
    );
    Ok(())
}

/// The `serve` workload's inputs, built in set-up.
pub struct ServeSetup {
    /// The store artifact every cold start loads.
    pub artifact: PathBuf,
    /// Its content digest, as `write_artifact` returned it.
    pub digest: String,
    /// Its size in bytes.
    pub artifact_bytes: u64,
    /// Query mix with reference answers.
    pub pool: QueryPool,
}

/// Generates the paper-preset world for `seed`, compiles it (zero
/// latency), writes it as a store artifact under `work`, and answers
/// the query mix from the compiled pipeline.
pub fn setup_serve(work: &Path, seed: u64, threads: usize) -> Result<ServeSetup, String> {
    let world = SyntheticInternet::generate(&GeneratorConfig::paper(seed));
    let llm = CachingModel::new(SimLlm::new(LLM_SEED));
    let borges = Borges::run_parallel(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
        threads,
    );
    let asrank = world.asrank.clone();
    drop(world);
    let artifact = work.join("serve.store");
    let digest = borges_store::write_artifact(&artifact, &borges.to_world())
        .map_err(err("write store artifact"))?;
    let artifact_bytes = std::fs::metadata(&artifact)
        .map_err(err("stat store artifact"))?
        .len();
    let pool = QueryPool::build(&borges, &asrank, seed);
    Ok(ServeSetup {
        artifact,
        digest,
        artifact_bytes,
        pool,
    })
}
