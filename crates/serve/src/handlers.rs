//! Request routing and the read-only endpoint handlers.
//!
//! Routing is split from handling so the server can bump per-endpoint
//! request counters *before* a handler runs — the `/metrics` body must
//! already include the request that is fetching it, or the
//! `shed + served == accepted` balance would be off by one on every
//! scrape.
//!
//! Every body here is assembled by hand from deterministic inputs
//! (sorted members, fixed field order, no timestamps), so identical
//! requests against the same world produce byte-identical responses —
//! the property `tests/serve.rs` pins across worker counts and LRU
//! evictions.

use borges_core::pipeline::FeatureCoverage;
use borges_core::FeatureSet;
use borges_telemetry::MetricsRegistry;
use borges_types::Asn;

use crate::flight::{FlightRecorder, LruOutcome, RequestObservation};
use crate::http::{json_string, Request, Response};
use crate::timeline::{self, TimelineState};
use crate::world::ServingWorld;

/// Everything a read-only handler may consult: the one world the
/// request pinned, the live metrics, and the server facts (worker
/// count, flight recorder, slow threshold) the observability endpoints
/// report.
pub struct ServeContext<'a> {
    /// The world answering this request (pinned once, never re-read).
    pub world: &'a ServingWorld,
    /// The server's metrics registry.
    pub metrics: &'a MetricsRegistry,
    /// Worker-pool size, reported by `/healthz`.
    pub workers: usize,
    /// The flight recorder behind `/v1/admin/debug/*`.
    pub recorder: &'a FlightRecorder,
    /// The configured `--slow-ms` threshold, the default for
    /// `/v1/admin/debug/slow` when the query names none.
    pub slow_ms: Option<u64>,
    /// The mounted timeline, when `--timeline` configured one: the
    /// history/diff endpoints and the `/healthz` timeline field.
    pub timeline: Option<&'a TimelineState>,
}

/// Where a request is headed, with path parameters still raw: handlers
/// own the parse so an unparseable ASN becomes a 400 with a clear
/// message rather than a routing miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/map/{asn}` — the ASN's org under a feature subset.
    Map(String),
    /// `GET /v1/org/{org}` — full membership of the org containing an
    /// ASN (orgs are anonymous clusters; any member names the org).
    Org(String),
    /// `GET /v1/evidence/{a}/{b}` — which features link two ASNs.
    Evidence(String, String),
    /// `GET /v1/org/{asn}/history` — the ASN's organization lineage
    /// across the mounted timeline.
    History(String),
    /// `GET /v1/diff/{t1}/{t2}` — what moved between two timeline
    /// epochs.
    DiffEpochs(String, String),
    /// `GET /v1/coverage` — the pipeline's evidence-coverage ledger.
    Coverage,
    /// `GET /healthz` — liveness plus world epoch.
    Healthz,
    /// `GET /metrics` — Prometheus exposition.
    Metrics,
    /// `POST /v1/admin/reload` — remap and hot-swap the world.
    AdminReload,
    /// `POST /v1/admin/shutdown` — graceful drain and exit.
    AdminShutdown,
    /// `GET /v1/admin/debug/requests` — the flight recorder's recent
    /// request records.
    DebugRequests,
    /// `GET /v1/admin/debug/slow?threshold_ms=N` — recent requests at
    /// or above a duration threshold.
    DebugSlow,
    /// `GET /v1/admin/debug/events` — the world-event journal.
    DebugEvents,
    /// Known path, wrong method; carries the method the path accepts
    /// (the 405 response's `Allow` header).
    MethodNotAllowed(&'static str),
    /// No such route.
    NotFound,
}

impl Route {
    /// The short label used in per-endpoint metric names.
    pub fn label(&self) -> &'static str {
        match self {
            Route::Map(_) => "map",
            Route::Org(_) => "org",
            Route::Evidence(_, _) => "evidence",
            Route::History(_) => "org_history",
            Route::DiffEpochs(_, _) => "diff",
            Route::Coverage => "coverage",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::AdminReload => "admin_reload",
            Route::AdminShutdown => "admin_shutdown",
            Route::DebugRequests => "debug_requests",
            Route::DebugSlow => "debug_slow",
            Route::DebugEvents => "debug_events",
            Route::MethodNotAllowed(_) | Route::NotFound => "other",
        }
    }
}

/// Maps a parsed request to a [`Route`].
pub fn route(req: &Request) -> Route {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let get = req.method == "GET";
    let post = req.method == "POST";
    match segments.as_slice() {
        ["healthz"] if get => Route::Healthz,
        ["metrics"] if get => Route::Metrics,
        ["v1", "coverage"] if get => Route::Coverage,
        ["v1", "map", asn] if get => Route::Map((*asn).to_string()),
        ["v1", "org", org, "history"] if get => Route::History((*org).to_string()),
        ["v1", "org", org] if get => Route::Org((*org).to_string()),
        ["v1", "evidence", a, b] if get => Route::Evidence((*a).to_string(), (*b).to_string()),
        ["v1", "diff", t1, t2] if get => Route::DiffEpochs((*t1).to_string(), (*t2).to_string()),
        ["v1", "admin", "reload"] if post => Route::AdminReload,
        ["v1", "admin", "shutdown"] if post => Route::AdminShutdown,
        ["v1", "admin", "debug", "requests"] if get => Route::DebugRequests,
        ["v1", "admin", "debug", "slow"] if get => Route::DebugSlow,
        ["v1", "admin", "debug", "events"] if get => Route::DebugEvents,
        ["healthz"]
        | ["metrics"]
        | ["v1", "coverage"]
        | ["v1", "map", _]
        | ["v1", "org", _, "history"]
        | ["v1", "org", _]
        | ["v1", "evidence", _, _]
        | ["v1", "diff", _, _]
        | ["v1", "admin", "debug", "requests"]
        | ["v1", "admin", "debug", "slow"]
        | ["v1", "admin", "debug", "events"] => Route::MethodNotAllowed("GET"),
        ["v1", "admin", "reload"] | ["v1", "admin", "shutdown"] => Route::MethodNotAllowed("POST"),
        _ => Route::NotFound,
    }
}

/// The canonical machine-readable spec for a feature subset, accepted
/// back by `?features=` — `"none"`, or a comma list in fixed order.
pub fn feature_spec(features: FeatureSet) -> String {
    let mut parts = Vec::new();
    if features.oid_p {
        parts.push("oid_p");
    }
    if features.na {
        parts.push("na");
    }
    if features.rr {
        parts.push("rr");
    }
    if features.favicons {
        parts.push("favicons");
    }
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join(",")
    }
}

/// The `?features=` parameter, defaulting to all features on.
fn parse_features(req: &Request) -> Result<FeatureSet, Response> {
    match req.query.get("features") {
        None => Ok(FeatureSet::ALL),
        Some(spec) => FeatureSet::parse(spec).map_err(|e| Response::error(400, &e)),
    }
}

fn parse_asn(raw: &str) -> Result<Asn, Response> {
    raw.parse::<Asn>().map_err(|_| {
        Response::error(
            400,
            &format!("invalid ASN {raw:?} (expected AS<digits> or <digits>)"),
        )
    })
}

fn known_asn(world: &ServingWorld, asn: Asn) -> Result<(), Response> {
    if world.borges.contains(asn) {
        Ok(())
    } else {
        Err(Response::error(
            404,
            &format!("{asn} is not in the universe"),
        ))
    }
}

/// A sorted JSON array of `"AS<n>"` strings.
fn asn_list(asns: &[Asn]) -> String {
    let mut sorted: Vec<Asn> = asns.to_vec();
    sorted.sort_unstable();
    let items: Vec<String> = sorted.iter().map(|a| json_string(&a.to_string())).collect();
    format!("[{}]", items.join(","))
}

/// Handles the read-only routes against one consistent world, noting
/// per-request facts (LRU outcome) into `obs` for the access record.
/// Admin routes mutate server state and are handled by the server
/// itself, so they answer 500 here — reaching this arm is a routing
/// bug.
pub fn respond(
    route: &Route,
    req: &Request,
    ctx: &ServeContext<'_>,
    obs: &mut RequestObservation,
) -> Response {
    let world = ctx.world;
    let metrics = ctx.metrics;
    match route {
        Route::Healthz => {
            // The accept ledger rides along so liveness probes see
            // saturation without scraping /metrics. All three counters
            // are written at accept/dequeue time — before any handler
            // runs — so an identical request sequence reads identical
            // values at any worker count.
            // The timeline field appears only when one is mounted, so
            // timeline-less deployments keep their pinned bytes.
            let timeline = match ctx.timeline {
                None => String::new(),
                Some(state) => format!(
                    ",\"timeline\":{{\"links\":{},\"tip\":{}}}",
                    state.timeline().links().len(),
                    match state.timeline().tip() {
                        Some(link) => link.epoch.to_string(),
                        None => "null".to_string(),
                    }
                ),
            };
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"epoch\":{},\"asns\":{},\"world_digest\":\"{}\",\"store_schema\":{},\"workers\":{},\"accepted\":{},\"served\":{},\"shed\":{}{}}}",
                    world.epoch,
                    world.borges.universe_len(),
                    world.digest,
                    world.store_schema,
                    ctx.workers,
                    metrics.counter_value("borges_serve_accepted_total"),
                    metrics.counter_value("borges_serve_served_total"),
                    metrics.counter_value("borges_serve_shed_total"),
                    timeline,
                ),
            )
        }
        Route::Metrics => Response::text(200, metrics.snapshot().to_prometheus()),
        Route::DebugRequests => {
            let records = ctx.recorder.requests();
            let items: Vec<String> = records.iter().map(|r| r.to_json()).collect();
            Response::json(
                200,
                format!(
                    "{{\"total\":{},\"capacity\":{},\"requests\":[{}]}}",
                    ctx.recorder.requests_total(),
                    ctx.recorder.capacity(),
                    items.join(",")
                ),
            )
        }
        Route::DebugSlow => {
            let threshold = match req.query.get("threshold_ms") {
                None => ctx.slow_ms.unwrap_or(1_000),
                Some(raw) => match raw.parse::<u64>() {
                    Ok(ms) => ms,
                    Err(_) => {
                        return Response::error(
                            400,
                            &format!("invalid threshold_ms {raw:?} (expected milliseconds)"),
                        )
                    }
                },
            };
            let slow: Vec<String> = ctx
                .recorder
                .requests()
                .iter()
                .filter(|r| r.duration_ms >= threshold)
                .map(|r| r.to_json())
                .collect();
            Response::json(
                200,
                format!(
                    "{{\"threshold_ms\":{},\"total\":{},\"requests\":[{}]}}",
                    threshold,
                    slow.len(),
                    slow.join(",")
                ),
            )
        }
        Route::DebugEvents => {
            let events = ctx.recorder.events();
            let items: Vec<String> = events.iter().map(|e| e.to_json()).collect();
            Response::json(
                200,
                format!(
                    "{{\"total\":{},\"capacity\":{},\"events\":[{}]}}",
                    ctx.recorder.events_total(),
                    ctx.recorder.capacity(),
                    items.join(",")
                ),
            )
        }
        Route::Coverage => {
            let cov = world.borges.coverage();
            let row = |c: FeatureCoverage| {
                format!(
                    "{{\"attempted\":{},\"succeeded\":{},\"abandoned\":{}}}",
                    c.attempted, c.succeeded, c.abandoned
                )
            };
            Response::json(
                200,
                format!(
                    "{{\"epoch\":{},\"crawl\":{},\"notes_aka\":{},\"favicon_groups\":{},\"accounted\":{},\"complete\":{}}}",
                    world.epoch,
                    row(cov.crawl),
                    row(cov.notes_aka),
                    row(cov.favicon_groups),
                    cov.accounted(),
                    cov.complete()
                ),
            )
        }
        Route::Map(raw) => handle_map(raw, req, world, metrics, obs),
        Route::Org(raw) => handle_org(raw, req, world, metrics, obs),
        Route::Evidence(raw_a, raw_b) => handle_evidence(raw_a, raw_b, world, metrics, obs),
        Route::History(raw) => handle_history(raw, ctx),
        Route::DiffEpochs(raw_t1, raw_t2) => handle_diff(raw_t1, raw_t2, ctx),
        Route::AdminReload | Route::AdminShutdown => {
            Response::error(500, "admin route reached read-only handler")
        }
        Route::MethodNotAllowed(allow) => {
            let mut response = Response::error(405, "method not allowed");
            response.allow = Some(allow);
            response
        }
        Route::NotFound => Response::error(404, "no such route"),
    }
}

/// The world's mapping, noting the cache outcome into the observation.
fn observed_mapping(
    world: &ServingWorld,
    features: FeatureSet,
    metrics: &MetricsRegistry,
    obs: &mut RequestObservation,
) -> std::sync::Arc<borges_core::AsOrgMapping> {
    let (mapping, hit) = world.mapping(features, metrics);
    obs.lru = if hit {
        LruOutcome::Hit
    } else {
        LruOutcome::Miss
    };
    mapping
}

fn handle_map(
    raw: &str,
    req: &Request,
    world: &ServingWorld,
    metrics: &MetricsRegistry,
    obs: &mut RequestObservation,
) -> Response {
    let asn = match parse_asn(raw) {
        Ok(asn) => asn,
        Err(resp) => return resp,
    };
    let features = match parse_features(req) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    if let Err(resp) = known_asn(world, asn) {
        return resp;
    }
    let mapping = observed_mapping(world, features, metrics, obs);
    // `siblings_of` returns the full (sorted) cluster roster, the
    // queried ASN included; the response's `siblings` field excludes it.
    let roster = mapping.siblings_of(asn);
    let org = org_name(asn, roster);
    let siblings: Vec<Asn> = roster.iter().copied().filter(|&m| m != asn).collect();
    Response::json(
        200,
        format!(
            "{{\"asn\":{},\"features\":{},\"epoch\":{},\"org\":{},\"org_size\":{},\"siblings\":{}}}",
            json_string(&asn.to_string()),
            json_string(&feature_spec(features)),
            world.epoch,
            json_string(&org.to_string()),
            roster.len().max(1),
            asn_list(&siblings)
        ),
    )
}

fn handle_org(
    raw: &str,
    req: &Request,
    world: &ServingWorld,
    metrics: &MetricsRegistry,
    obs: &mut RequestObservation,
) -> Response {
    let asn = match parse_asn(raw) {
        Ok(asn) => asn,
        Err(resp) => return resp,
    };
    let features = match parse_features(req) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    if let Err(resp) = known_asn(world, asn) {
        return resp;
    }
    let mapping = observed_mapping(world, features, metrics, obs);
    // The roster is already sorted and includes the queried ASN; an
    // unmapped-but-known ASN is its own singleton organization.
    let members: Vec<Asn> = match mapping.siblings_of(asn) {
        [] => vec![asn],
        roster => roster.to_vec(),
    };
    let org = members[0];
    Response::json(
        200,
        format!(
            "{{\"org\":{},\"features\":{},\"epoch\":{},\"size\":{},\"members\":{}}}",
            json_string(&org.to_string()),
            json_string(&feature_spec(features)),
            world.epoch,
            members.len(),
            asn_list(&members)
        ),
    )
}

fn handle_evidence(
    raw_a: &str,
    raw_b: &str,
    world: &ServingWorld,
    metrics: &MetricsRegistry,
    obs: &mut RequestObservation,
) -> Response {
    let a = match parse_asn(raw_a) {
        Ok(asn) => asn,
        Err(resp) => return resp,
    };
    let b = match parse_asn(raw_b) {
        Ok(asn) => asn,
        Err(resp) => return resp,
    };
    for asn in [a, b] {
        if let Err(resp) = known_asn(world, asn) {
            return resp;
        }
    }
    let features = world.borges.evidence(a, b);
    let labels: Vec<String> = features.iter().map(|f| json_string(f.label())).collect();
    let full = observed_mapping(world, FeatureSet::ALL, metrics, obs);
    Response::json(
        200,
        format!(
            "{{\"a\":{},\"b\":{},\"epoch\":{},\"features\":[{}],\"same_org_full\":{}}}",
            json_string(&a.to_string()),
            json_string(&b.to_string()),
            world.epoch,
            labels.join(","),
            full.same_org(a, b)
        ),
    )
}

fn handle_history(raw: &str, ctx: &ServeContext<'_>) -> Response {
    let Some(state) = ctx.timeline else {
        return Response::error(501, "no timeline configured");
    };
    let asn = match parse_asn(raw) {
        Ok(asn) => asn,
        Err(resp) => return resp,
    };
    match state.timeline().org_lineage(asn) {
        Ok(lineage) => Response::json(200, lineage.to_json()),
        Err(err) => timeline::error_response(&err),
    }
}

fn handle_diff(raw_t1: &str, raw_t2: &str, ctx: &ServeContext<'_>) -> Response {
    let Some(state) = ctx.timeline else {
        return Response::error(501, "no timeline configured");
    };
    let parse_epoch = |raw: &str| {
        raw.parse::<u64>().map_err(|_| {
            Response::error(
                400,
                &format!("invalid epoch {raw:?} (expected a non-negative integer)"),
            )
        })
    };
    let t1 = match parse_epoch(raw_t1) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let t2 = match parse_epoch(raw_t2) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    match state.timeline().diff(t1, t2) {
        Ok(diff) => Response::json(200, borges_timeline::render_diff_json(t1, t2, &diff)),
        Err(err) => timeline::error_response(&err),
    }
}

/// An org is an anonymous cluster; its stable public name is the lowest
/// member ASN.
fn org_name(asn: Asn, siblings: &[Asn]) -> Asn {
    siblings.iter().copied().min().unwrap_or(asn).min(asn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn get(path_and_query: &str) -> Request {
        let (path, query_str) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_and_query, ""),
        };
        let mut query = BTreeMap::new();
        for pair in query_str.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(k.to_string(), v.to_string());
        }
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn routes_cover_every_endpoint() {
        assert_eq!(route(&get("/healthz")), Route::Healthz);
        assert_eq!(route(&get("/metrics")), Route::Metrics);
        assert_eq!(route(&get("/v1/coverage")), Route::Coverage);
        assert_eq!(route(&get("/v1/map/AS3356")), Route::Map("AS3356".into()));
        assert_eq!(route(&get("/v1/org/3356")), Route::Org("3356".into()));
        assert_eq!(
            route(&get("/v1/evidence/AS1/AS2")),
            Route::Evidence("AS1".into(), "AS2".into())
        );
        assert_eq!(
            route(&get("/v1/org/AS174/history")),
            Route::History("AS174".into())
        );
        assert_eq!(
            route(&get("/v1/diff/0/2")),
            Route::DiffEpochs("0".into(), "2".into())
        );
        assert_eq!(route(&get("/nope")), Route::NotFound);
        assert_eq!(route(&get("/v1/map")), Route::NotFound);
        assert_eq!(route(&get("/v1/map/AS1/extra")), Route::NotFound);
    }

    #[test]
    fn debug_routes_are_get_only() {
        assert_eq!(
            route(&get("/v1/admin/debug/requests")),
            Route::DebugRequests
        );
        assert_eq!(
            route(&get("/v1/admin/debug/slow?threshold_ms=5")),
            Route::DebugSlow
        );
        assert_eq!(route(&get("/v1/admin/debug/events")), Route::DebugEvents);
        assert_eq!(route(&get("/v1/admin/debug/other")), Route::NotFound);
        let mut post = get("/v1/admin/debug/requests");
        post.method = "POST".to_string();
        assert_eq!(route(&post), Route::MethodNotAllowed("GET"));
        assert_eq!(Route::DebugRequests.label(), "debug_requests");
        assert_eq!(Route::DebugSlow.label(), "debug_slow");
        assert_eq!(Route::DebugEvents.label(), "debug_events");
    }

    #[test]
    fn wrong_method_is_distinguished_from_wrong_path() {
        let mut post = get("/healthz");
        post.method = "POST".to_string();
        assert_eq!(route(&post), Route::MethodNotAllowed("GET"));

        let mut reload_get = get("/v1/admin/reload");
        assert_eq!(route(&reload_get), Route::MethodNotAllowed("POST"));
        reload_get.method = "POST".to_string();
        assert_eq!(route(&reload_get), Route::AdminReload);
    }

    #[test]
    fn feature_specs_round_trip_through_parse() {
        for bits in 0..16 {
            let features = FeatureSet::from_bits(bits);
            let spec = feature_spec(features);
            assert_eq!(FeatureSet::parse(&spec).unwrap(), features, "spec {spec:?}");
        }
    }

    #[test]
    fn route_labels_are_stable() {
        assert_eq!(Route::Map("x".into()).label(), "map");
        assert_eq!(Route::Metrics.label(), "metrics");
        assert_eq!(Route::History("x".into()).label(), "org_history");
        assert_eq!(Route::DiffEpochs("0".into(), "1".into()).label(), "diff");
        assert_eq!(Route::MethodNotAllowed("GET").label(), "other");
        assert_eq!(Route::NotFound.label(), "other");
    }
}
