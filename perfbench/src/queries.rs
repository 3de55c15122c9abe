//! The query mix, its offline reference answers, and the traffic shapes
//! that drive it at a live server or through the handlers in process.
//!
//! Reference answers are computed from a compiled pipeline during
//! set-up; responses are kept and checked only after each timed window
//! closes, so no check runs inside a measurement.

use std::io::Cursor;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use borges_core::{Borges, FeatureSet};
use borges_serve::handlers::{self, feature_spec, ServeContext};
use borges_serve::http::{json_string, parse_request};
use borges_serve::{FlightRecorder, RequestObservation, ServeClient, ServingWorld};
use borges_telemetry::MetricsRegistry;
use borges_types::Asn;

use crate::stats::{self, Shot};
use crate::trace::Tracer;

/// Lookup queries generated per pool; traffic cycles through them.
const LOOKUP_POOL: usize = 4096;
/// Evidence pairs per pool: half same-org, half random.
const EVIDENCE_POOL: usize = 32;
/// Share of lookups that use the default feature set (all features).
const DEFAULT_FEATURES_SHARE: f64 = 0.9;
/// How long before a request's due time an open-loop sender stops
/// sleeping and starts spinning.
const SPIN_NS: u64 = 200_000;

/// splitmix64: a small seeded generator, so sampling depends on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(1) sampling over a ranked list: rank `k` (0-based) is drawn with
/// weight `1 / (k + 1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|k| {
                total += 1.0 / (k as f64 + 1.0);
                total
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let target = rng.unit() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf
            .partition_point(|&c| c <= target)
            .min(self.cdf.len() - 1)
    }
}

/// One query with the raw JSON values its answer must carry.
#[derive(Debug, Clone)]
pub struct Query {
    /// Request target (`/v1/map/AS3356?features=rr`).
    pub target: String,
    /// `(field, raw JSON value)` pairs the response body must contain.
    expect: Vec<(&'static str, String)>,
}

impl Query {
    /// Checks a response against the reference answer.
    pub fn check(&self, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{}: status {status}", self.target));
        }
        let text =
            std::str::from_utf8(body).map_err(|_| format!("{}: non-UTF-8 body", self.target))?;
        for (field, want) in &self.expect {
            match field_raw(text, field) {
                Some(got) if got == want => {}
                got => {
                    return Err(format!(
                        "{}: field {field} is {got:?}, reference says {want}",
                        self.target
                    ))
                }
            }
        }
        Ok(())
    }
}

/// The raw JSON value of top-level `field` in a flat object body: a
/// string with its quotes, an array with its brackets, or a scalar.
pub fn field_raw<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let key = format!("\"{field}\":");
    let start = body.find(&key)? + key.len();
    let rest = &body[start..];
    let bytes = rest.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => {
                    in_string = false;
                    if depth == 0 {
                        return Some(&rest[..=i]);
                    }
                }
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            b',' | b'}' if depth == 0 => return Some(&rest[..i]),
            _ => {}
        }
    }
    None
}

fn asn_list(asns: &[Asn]) -> String {
    let items: Vec<String> = asns.iter().map(|a| json_string(&a.to_string())).collect();
    format!("[{}]", items.join(","))
}

/// The lookup and evidence mix for one world, with reference answers.
pub struct QueryPool {
    /// `/v1/map` : `/v1/org` = 2 : 1 over Zipf-drawn ASNs.
    pub lookups: Vec<Query>,
    /// Evidence pairs, half same-org and half random.
    pub evidence: Vec<Query>,
    /// One lookup per feature subset plus one evidence query: fills the
    /// mapping LRU before any timed window.
    pub warmup: Vec<Query>,
}

impl QueryPool {
    /// Samples the mix for `borges` (whose answers are the reference)
    /// with ASNs drawn Zipf over `asrank`, deterministically in `seed`.
    pub fn build(borges: &Borges, asrank: &[Asn], seed: u64) -> QueryPool {
        let ranked: Vec<Asn> = asrank
            .iter()
            .copied()
            .filter(|&a| borges.contains(a))
            .collect();
        assert!(!ranked.is_empty(), "no ranked ASN is in the universe");
        let zipf = Zipf::new(ranked.len());
        let mut rng = Rng::new(seed, 1);
        let others: Vec<FeatureSet> = (0..16u8)
            .map(FeatureSet::from_bits)
            .filter(|f| *f != FeatureSet::ALL)
            .collect();

        // (asn, features, org route?) per lookup, then references
        // grouped by feature set so each mapping materializes once.
        let mut specs: Vec<(Asn, FeatureSet, bool)> = (0..LOOKUP_POOL)
            .map(|_| {
                let asn = ranked[zipf.sample(&mut rng)];
                let features = if rng.unit() < DEFAULT_FEATURES_SHARE {
                    FeatureSet::ALL
                } else {
                    others[rng.below(others.len())]
                };
                (asn, features, rng.below(3) == 0)
            })
            .collect();
        let warm_asn = ranked[0];
        let warm_start = specs.len();
        specs.extend((0..16u8).map(|b| (warm_asn, FeatureSet::from_bits(b), false)));

        let mut answers: Vec<Option<Query>> = vec![None; specs.len()];
        for bits in 0..16u8 {
            let features = FeatureSet::from_bits(bits);
            if !specs.iter().any(|s| s.1 == features) {
                continue;
            }
            let mapping = borges.mapping(features);
            for (i, &(asn, f, org_route)) in specs.iter().enumerate() {
                if f == features {
                    answers[i] = Some(lookup_query(
                        asn,
                        features,
                        org_route,
                        mapping.siblings_of(asn),
                    ));
                }
            }
        }
        let mut answers: Vec<Query> = answers
            .into_iter()
            .map(|q| q.expect("every lookup's feature set was materialized"))
            .collect();
        let mut warmup = answers.split_off(warm_start);

        let full = borges.mapping(FeatureSet::ALL);
        let universe = borges.universe();
        let mut evidence = Vec::with_capacity(EVIDENCE_POOL);
        let mut tries = 0;
        while evidence.len() < EVIDENCE_POOL / 2 && tries < 100_000 {
            tries += 1;
            let a = ranked[zipf.sample(&mut rng)];
            let roster = full.siblings_of(a);
            if roster.len() < 2 {
                continue;
            }
            let b = roster[rng.below(roster.len())];
            if b != a {
                evidence.push(evidence_query(borges, &full, a, b));
            }
        }
        while evidence.len() < EVIDENCE_POOL {
            let a = universe[rng.below(universe.len())];
            let b = universe[rng.below(universe.len())];
            evidence.push(evidence_query(borges, &full, a, b));
        }
        warmup.push(evidence[0].clone());
        QueryPool {
            lookups: answers,
            evidence,
            warmup,
        }
    }
}

fn lookup_query(asn: Asn, features: FeatureSet, org_route: bool, roster: &[Asn]) -> Query {
    let query = if features == FeatureSet::ALL {
        String::new()
    } else {
        format!("?features={}", feature_spec(features))
    };
    let asn_json = json_string(&asn.to_string());
    if org_route {
        let members: Vec<Asn> = if roster.is_empty() {
            vec![asn]
        } else {
            roster.to_vec()
        };
        Query {
            target: format!("/v1/org/{asn}{query}"),
            expect: vec![
                ("org", json_string(&members[0].to_string())),
                ("members", asn_list(&members)),
            ],
        }
    } else {
        // The org's public name is its lowest member; `siblings`
        // excludes the queried ASN.
        let org = roster
            .iter()
            .copied()
            .chain([asn])
            .min()
            .expect("non-empty");
        let siblings: Vec<Asn> = roster.iter().copied().filter(|&m| m != asn).collect();
        Query {
            target: format!("/v1/map/{asn}{query}"),
            expect: vec![
                ("asn", asn_json),
                ("org", json_string(&org.to_string())),
                ("siblings", asn_list(&siblings)),
            ],
        }
    }
}

fn evidence_query(borges: &Borges, full: &borges_core::AsOrgMapping, a: Asn, b: Asn) -> Query {
    let labels: Vec<String> = borges
        .evidence(a, b)
        .iter()
        .map(|f| json_string(f.label()))
        .collect();
    Query {
        target: format!("/v1/evidence/{a}/{b}"),
        expect: vec![
            ("features", format!("[{}]", labels.join(","))),
            ("same_org_full", full.same_org(a, b).to_string()),
        ],
    }
}

/// One response from live traffic, kept for checking after the window.
pub struct Sample {
    /// Index of the query in the list that was driven.
    pub query: usize,
    /// Timing on the phase clock.
    pub shot: Shot,
    /// Status, or 0 when the request failed at the transport.
    pub status: u16,
    /// Response body, or the transport error text.
    pub body: Vec<u8>,
}

/// Sends `queries[q]` once on `client`, timed on `now`'s clock; `due`
/// is when it was due (open loop), or `None` when it went out the
/// moment the previous request completed (closed loop).
fn shoot(
    client: &ServeClient,
    queries: &[Query],
    q: usize,
    due: Option<u64>,
    now: &impl Fn() -> u64,
) -> Sample {
    let sent = now();
    let (status, body) = match client.get(&queries[q].target) {
        Ok(response) => (response.status, response.body),
        Err(err) => (0, err.to_string().into_bytes()),
    };
    Sample {
        query: q,
        shot: Shot {
            due: due.unwrap_or(sent),
            sent,
            done: now(),
        },
        status,
        body,
    }
}

/// Open loop: `count` requests due at `rate` per second from one serial
/// sender, each timed from its due time (a request that could only go
/// out late is charged the wait). Cycles through `queries` from
/// `offset`.
pub fn open_loop(
    addr: SocketAddr,
    queries: &[Query],
    rate: f64,
    count: usize,
    offset: usize,
) -> Vec<Sample> {
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    let client = ServeClient::new(addr);
    (0..count)
        .map(|i| {
            let due = stats::due_ns(i as u64, rate);
            // Sleep to just short of the due time, then spin: sleep
            // overshoot on a VM is both large and variable, and it
            // would land in every latency.
            let t = now();
            if due > t + SPIN_NS {
                std::thread::sleep(Duration::from_nanos(due - t - SPIN_NS));
            }
            while now() < due {
                std::hint::spin_loop();
            }
            shoot(
                &client,
                queries,
                (offset + i) % queries.len(),
                Some(due),
                &now,
            )
        })
        .collect()
}

/// Closed loop: `clients` threads each sending their next request as
/// soon as the previous one completes, for `duration`. Returns the
/// samples and the window's length in seconds.
pub fn closed_loop(
    addr: SocketAddr,
    queries: &[Query],
    clients: usize,
    duration: Duration,
    offset: usize,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    let client = ServeClient::new(addr);
                    let mut out = Vec::new();
                    let mut i = offset + k * queries.len() / clients;
                    while start.elapsed() < duration {
                        out.push(shoot(&client, queries, i % queries.len(), None, &now));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Sends each query once, in order, from one client.
pub fn one_each(addr: SocketAddr, queries: &[Query]) -> Vec<Sample> {
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    let client = ServeClient::new(addr);
    (0..queries.len())
        .map(|q| shoot(&client, queries, q, None, &now))
        .collect()
}

/// Checks every sample against its query's reference; returns the
/// number checked and the failures.
pub fn check_samples(queries: &[Query], samples: &[Sample]) -> (u64, Vec<String>) {
    let failures = samples
        .iter()
        .filter_map(|s| queries[s.query].check(s.status, &s.body).err())
        .collect();
    (samples.len() as u64, failures)
}

/// Per-phase timings of one in-process request, in nanoseconds.
pub struct PhaseTimes {
    /// `http::parse_request`.
    pub parse: u64,
    /// `handlers::route` + `handlers::respond`.
    pub respond: u64,
    /// `Response::write_to`.
    pub write: u64,
}

/// Replays `queries` in process through the server's own request path
/// — `parse_request` → `route`/`respond` → `write_to` — on `world`,
/// recording each phase as a span tagged with the request number, and
/// checking each answer after the replay.
pub fn replay_in_process(
    world: &ServingWorld,
    queries: &[Query],
    count: usize,
    tracer: &Tracer,
    request_base: u64,
) -> (Vec<PhaseTimes>, u64, Vec<String>) {
    let metrics = MetricsRegistry::new();
    let recorder = FlightRecorder::new(256);
    let ctx = ServeContext {
        world,
        metrics: &metrics,
        workers: 1,
        recorder: &recorder,
        slow_ms: None,
        timeline: None,
    };
    let mut times = Vec::with_capacity(count);
    let mut outputs = Vec::with_capacity(count);
    for i in 0..count {
        let q = i % queries.len();
        let raw = format!(
            "GET {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n",
            queries[q].target
        );
        let request_id = request_base + i as u64;
        let t0 = tracer.now();
        let request = parse_request(&mut Cursor::new(raw.as_bytes()));
        let t1 = tracer.now();
        let mut response = match &request {
            Ok(request) => {
                let route = handlers::route(request);
                handlers::respond(&route, request, &ctx, &mut RequestObservation::new())
            }
            Err(_) => borges_serve::http::Response::error(400, "unparseable"),
        };
        response.request_id = Some(format!("r-{request_id}"));
        let t2 = tracer.now();
        let mut bytes = Vec::with_capacity(response.body.len() + 256);
        let written = response.write_to(&mut bytes);
        let t3 = tracer.now();
        tracer.record("serve.parse", 0, t0, t1, request_id);
        tracer.record("serve.respond", 0, t1, t2, request_id);
        tracer.record("serve.write", 0, t2, t3, request_id);
        times.push(PhaseTimes {
            parse: t1 - t0,
            respond: t2 - t1,
            write: t3 - t2,
        });
        outputs.push((q, written.is_ok(), response.status, response.body));
    }
    let failures = outputs
        .iter()
        .filter_map(|(q, written, status, body)| {
            if !written {
                return Some(format!("{}: in-process write failed", queries[*q].target));
            }
            queries[*q].check(*status, body).err()
        })
        .collect();
    (times, count as u64, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_raw_reads_strings_arrays_and_scalars() {
        let body = r#"{"asn":"AS1","org":"AS1","siblings":["AS2","AS3"],"n":4,"ok":true}"#;
        assert_eq!(field_raw(body, "org"), Some("\"AS1\""));
        assert_eq!(field_raw(body, "siblings"), Some("[\"AS2\",\"AS3\"]"));
        assert_eq!(field_raw(body, "n"), Some("4"));
        assert_eq!(field_raw(body, "ok"), Some("true"));
        assert_eq!(field_raw(body, "missing"), None);
        let tricky = r#"{"features":["R&R","a]b"],"same_org_full":false}"#;
        assert_eq!(field_raw(tricky, "features"), Some("[\"R&R\",\"a]b\"]"));
        assert_eq!(field_raw(tricky, "same_org_full"), Some("false"));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(7, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| k < 1000));
        let top = draws.iter().filter(|&&k| k == 0).count();
        let tenth = draws.iter().filter(|&&k| k == 9).count();
        assert!(top > 5 * tenth, "rank 0 drawn {top}x, rank 9 {tenth}x");
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 2);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 2);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
