//! The subcommands.

use crate::opts::{CliError, Options};
use borges_core::diff::diff;
use borges_core::impact::OrgNamer;
use borges_core::mapfile;
use borges_core::orgfactor::organization_factor;
use borges_core::pipeline::{Borges, FeatureSet, IngestOptions, WebSource};
use borges_core::{AsOrgMapping, SnapshotState};
use borges_llm::{CachingModel, ChatModel, FlakyModel, SimLlm};
use borges_resilience::{EpisodePlan, RetryPolicy};
use borges_serve::{Reloader, Server, ServerConfig};
use borges_synthnet::io::{save, BundleTruth, DatasetBundle};
use borges_synthnet::{generate_to_dir, EvolutionEvent, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{CacheReport, Telemetry, Verbosity};
use borges_timeline::{Timeline, TimelineError};
use borges_types::Asn;
use borges_websim::{FlakyWebClient, SimWebClient, WebClient};
use std::path::Path;

const HELP: &str = "\
borges — AS-to-Organization mappings (Borges reproduction)

USAGE:
  borges generate --out DIR [--scale tiny|medium|paper|large|million] [--seed N]
                  [--no-truth] [--evolve EVENTS]
      Generate a synthetic-Internet dataset bundle. The large (~130k
      ASNs) and million (~1M ASNs) scales stream records straight to
      disk in bounded memory instead of materializing the world.
      --evolve applies scripted corporate events to the generated world
      and writes the *successor* snapshot instead (tiny/medium/paper
      only). EVENTS is a comma list of
      acquisition:ACQUIRER:TARGET, rebrand:BRAND:NEW, or
      spinoff:BRAND:CC+CC:NEW (brands as lower-case labels, CC as ISO
      country codes). Generating the same seed with and without
      --evolve yields a before/after snapshot pair for `--timeline`.
  borges map --data DIR --out FILE [--base FILE|DIR] [--features all|none|LIST]
             [--seed N] [--threads N] [--max-in-flight N] [--fault-rate R]
             [--retries N] [--chaos-seed N] [--trace-out FILE] [--metrics-out FILE]
             [--report-out FILE] [--store-out FILE] [--timeline DIR]
      Run the pipeline over a bundle and write the mapping.
      LIST is comma-separated from: oid_p, na, rr, favicons.
      --base remaps the bundle incrementally against a published world:
      a store artifact written by --store-out or, given a directory,
      the tip of a timeline written by --timeline. The web is
      re-crawled, LLM answers replay from the base's memos for records
      whose text is unchanged, and edge segments with untouched
      fingerprints are reused verbatim; a delta: row reports the
      reuse. The mapping written is byte-identical to a full map of the
      same bundle, at every --threads and under recoverable --fault-rate
      chaos. A missing or damaged base, or an empty timeline, fails
      before the bundle is read, naming the store or timeline error
      kind. Remaps chain: the world one publishes is the next one's base.
      Every remote call (crawl fetches, NER and favicon LLM calls)
      runs on one I/O pool, NER overlapping the crawl, which keeps
      --max-in-flight calls waiting on the network at once (default
      4, at most 64). --max-in-flight 1 runs one call at a time, in
      canonical order: the reference. --threads sizes CPU work only
      and defaults to the machine's available parallelism. Output is
      byte-identical to --max-in-flight 1 at every setting, including
      under --fault-rate chaos. Scheduler accounting lands in the run
      ledger's worker rows (ingest_* stages), never in canonical
      outputs.
      --fault-rate R injects seeded transient transport faults (R in
      [0,1]) at both the crawl and the LLM boundary; --retries N caps
      recovery at N retries per call (default 4; 0 disables recovery);
      --chaos-seed decorrelates fault episodes and backoff jitter
      (default 7). Giving any of the three selects the resilient
      pipeline and appends a per-feature coverage report.
      --trace-out writes the canonical span journal (JSONL, identical
      across thread counts); --metrics-out writes the counters and
      duration histograms in Prometheus exposition format;
      --report-out writes the unified run ledger as JSON.
      --store-out persists the whole compiled world as a checksummed,
      content-addressed store artifact that `borges serve --store`
      cold-starts from without recompiling (see `borges store`).
      --timeline appends the compiled world to the append-only timeline
      at DIR as its next epoch: the epoch is stamped into the world
      (so it participates in the content address), the artifact lands
      under DIR/worlds/, then the chain manifest DIR/timeline.json is
      rewritten atomically; no earlier world is read (see `borges
      timeline`).
  borges serve --data DIR [--addr HOST:PORT] [--threads N] [--queue-depth N]
               [--lru N] [--seed N] [--addr-file FILE] [--store FILE]
               [--access-log FILE] [--slow-ms N] [--timeline DIR]
      Serve mappings over HTTP from an in-memory compiled pipeline.
      Endpoints: /v1/map/{asn}?features=..., /v1/org/{asn},
      /v1/evidence/{a}/{b}, /v1/coverage, /healthz, /metrics, and
      POST /v1/admin/reload (re-crawl + incremental remap, zero
      downtime; a {\"store\": PATH} body hot-swaps to a store
      artifact instead) / POST /v1/admin/shutdown (graceful drain).
      --timeline DIR mounts the existing timeline at DIR for time travel:
      /v1/map/{asn}?at=EPOCH answers from that chain epoch's world
      (floor-resolved, loaded on demand into a small epoch LRU, and
      byte-identical to serving that epoch's artifact directly),
      /v1/org/{asn}/history walks the ASN's organization lineage
      across the chain (merges, splits, renames), and
      /v1/diff/{t1}/{t2} diffs the two epochs' worlds. Without
      --timeline those paths answer 501.
      --store FILE cold-starts from a `map --store-out` artifact:
      validated and loaded with no evidence recompilation; if the
      artifact is damaged in any way, serve falls back to a full
      compile from --data, records store_degraded on the ledger, and
      classifies the damage in borges_store_* metrics. Responses are
      byte-identical either way.
      --addr defaults to 127.0.0.1:8080; port 0 picks an ephemeral
      port. --threads N fixed worker threads (default: available
      parallelism); the compile and each reload run on the I/O pool
      at map's default budget of 4, whatever --threads is. A reload
      remaps against the serving world.
      --queue-depth N bounds the accept queue (default
      64) — overflow is shed with 503 + Retry-After; --lru N caches
      that many materialized feature subsets per world (default 16;
      0 disables). --addr-file writes the bound address once
      listening (for scripts using port 0). Runs until shutdown,
      then prints the request ledger.
      --access-log FILE appends one JSONL record per request (id,
      method, path, status, bytes, world digest, LRU outcome, queue
      depth, duration bucket), staged crash-safe and renamed into
      place at shutdown. --slow-ms N warns on requests slower than N
      milliseconds and counts them in borges_serve_slow_total. Live
      debugging: GET /v1/admin/debug/requests (recent requests),
      /v1/admin/debug/slow?threshold_ms=N, /v1/admin/debug/events
      (reloads, store boots, shed bursts).
  borges eval --data DIR --mapping FILE [--mapping FILE ...]
      Organization Factor (and, when DIR has truth.psv, precision/recall)
      per mapping.
  borges inspect --data DIR --mapping FILE --asn N
      Show the inferred organization around one ASN (with each member's
      true organization when DIR has truth.psv).
  borges diff --before FILE --after FILE
      Compare two mapping releases (merges / splits / churn).
  borges store verify PATH [PATH ...]
      Integrity-check store artifact(s): print digest, schema version,
      and section table. Exits non-zero on any corruption class
      (truncation, checksum or digest mismatch, schema skew, torn
      rename, undecodable payload).
  borges timeline verify DIR
      Re-verify the whole chain at DIR, which must exist (as for ls
      and diff, a missing DIR fails): the manifest parses and
      links up, and every world artifact matches its content address
      and carries its link's epoch. Exits non-zero, naming the
      error kind, on any damage; a chain written by an older release
      fails with the schema kind.
  borges timeline ls DIR
      List the chain: epoch and world digest per link.
  borges timeline diff DIR T1 T2
      What moved between epochs T1 and T2 (merges, splits, appeared
      and disappeared ASNs), diffed from the two epochs' worlds.
  borges help
      This message.

GLOBAL FLAGS (any command):
  -v / -vv   narrate progress on stderr (verbose / debug)
  -q         silence narration; only the final report and errors remain
";

/// Runs the CLI; returns the text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return Ok(HELP.to_string()),
    };
    // `store` and `timeline` take positional operands (an action and
    // paths), which the flag parser would reject — dispatch them before
    // parsing.
    if command == "store" {
        return store(rest);
    }
    if command == "timeline" {
        return timeline_cmd(rest);
    }
    let opts = Options::parse(rest)?;
    match command {
        "generate" => generate(&opts),
        "map" => map(&opts),
        "serve" => serve(&opts),
        "eval" => eval(&opts),
        "inspect" => inspect(&opts),
        "diff" => diff_cmd(&opts),
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// The narration level from `-q` / `-v` / `-vv` (quiet wins).
fn verbosity_of(opts: &Options) -> Verbosity {
    Verbosity::from_flags(opts.boolean("q"), opts.count("v"))
}

fn seed_of(opts: &Options) -> Result<u64, CliError> {
    match opts.optional("seed")? {
        Some(s) => s
            .parse()
            .map_err(|_| CliError::Usage(format!("--seed {s:?} is not a number"))),
        None => Ok(20240724),
    }
}

fn generate(opts: &Options) -> Result<String, CliError> {
    opts.allow_only(&["out", "scale", "seed", "no-truth", "evolve", "v", "q"])?;
    let narrator = borges_telemetry::Narrator::new(verbosity_of(opts));
    let out = opts.required("out")?;
    let seed = seed_of(opts)?;
    let dir = Path::new(out);
    let evolve_events = match opts.optional("evolve")? {
        Some(spec) => Some(parse_evolution_events(spec)?),
        None => None,
    };
    // tiny/medium/paper materialize the world in memory (cheap at those
    // scales, and other code paths want the in-memory value); large and
    // million stream every dataset file to disk in bounded memory.
    let (config, streamed) = match opts.optional("scale")?.unwrap_or("medium") {
        "tiny" => (GeneratorConfig::tiny(seed), false),
        "medium" => (GeneratorConfig::medium(seed), false),
        "paper" => (GeneratorConfig::paper(seed), false),
        "large" => (GeneratorConfig::large(seed), true),
        "million" => (GeneratorConfig::million(seed), true),
        other => return Err(CliError::Usage(format!("unknown scale {other:?}"))),
    };
    if evolve_events.is_some() && streamed {
        return Err(CliError::Usage(
            "--evolve needs an in-memory world; use --scale tiny, medium, or paper".to_string(),
        ));
    }
    let summary = if streamed {
        narrator.verbose(format!(
            "streaming ~{} ASNs to disk (seed {seed})",
            config.approx_asn_count()
        ));
        let report = generate_to_dir(&config, dir).map_err(CliError::failed)?;
        format!(
            "generated {} ASNs ({} PeeringDB networks, {} web hosts) into {} [streamed]\n",
            report.asns,
            report.pdb_nets,
            report.web_hosts,
            dir.display()
        )
    } else {
        narrator.verbose(format!("generating world (seed {seed})"));
        let mut world = SyntheticInternet::generate(&config);
        let mut evolved = "";
        if let Some(events) = &evolve_events {
            narrator.verbose(format!("applying {} corporate event(s)", events.len()));
            // Re-emission is seeded off the base seed, so a given
            // (seed, events) pair names one successor snapshot.
            world = world
                .evolve(events, seed + 1)
                .map_err(|e| CliError::Usage(format!("--evolve: {e}")))?;
            evolved = " [evolved]";
        }
        save(&world, dir).map_err(CliError::failed)?;
        format!(
            "generated {} ASNs ({} PeeringDB networks, {} web hosts) into {}{}\n",
            world.whois.asn_count(),
            world.pdb.net_count(),
            world.web.host_count(),
            dir.display(),
            evolved
        )
    };
    if opts.boolean("no-truth") {
        for oracle in ["truth.psv", "labels.psv"] {
            std::fs::remove_file(dir.join(oracle)).map_err(|e| CliError::Failed(Box::new(e)))?;
        }
    }
    Ok(summary)
}

fn parse_features(spec: &str) -> Result<FeatureSet, CliError> {
    FeatureSet::parse(spec).map_err(CliError::Usage)
}

/// `--evolve`'s comma list of scripted corporate events:
/// `acquisition:ACQUIRER:TARGET`, `rebrand:BRAND:NEW`, or
/// `spinoff:BRAND:CC+CC:NEW`.
fn parse_evolution_events(spec: &str) -> Result<Vec<EvolutionEvent>, CliError> {
    let mut events = Vec::new();
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let parts: Vec<&str> = item.split(':').collect();
        let event = match parts.as_slice() {
            ["acquisition", acquirer, target] => EvolutionEvent::Acquisition {
                acquirer: (*acquirer).to_string(),
                target: (*target).to_string(),
            },
            ["rebrand", brand, new_brand] => EvolutionEvent::Rebrand {
                brand: (*brand).to_string(),
                new_brand: (*new_brand).to_string(),
            },
            ["spinoff", brand, countries, new_brand] => EvolutionEvent::Spinoff {
                brand: (*brand).to_string(),
                countries: countries.split('+').map(|c| c.to_uppercase()).collect(),
                new_brand: (*new_brand).to_string(),
            },
            _ => {
                return Err(CliError::Usage(format!(
                    "--evolve: unparseable event {item:?} (expected acquisition:A:B, \
                     rebrand:A:B, or spinoff:A:CC+CC:B)"
                )))
            }
        };
        events.push(event);
    }
    if events.is_empty() {
        return Err(CliError::Usage(
            "--evolve needs at least one event".to_string(),
        ));
    }
    Ok(events)
}

/// A timeline failure as a CLI failure that names its error kind.
fn timeline_failure(dir: &str, e: TimelineError) -> CliError {
    CliError::Failed(format!("timeline {dir}: {e} ({})", e.kind()).into())
}

/// Opens the existing timeline at `dir` for reading. A missing
/// directory fails with the `missing` kind and is not created.
fn open_timeline(dir: &str) -> Result<Timeline, CliError> {
    Timeline::open_existing(Path::new(dir)).map_err(|e| timeline_failure(dir, e))
}

/// `--threads`, defaulting to the machine's parallelism. Zero is a
/// usage error everywhere it appears: zero workers would run nothing.
fn parse_threads(opts: &Options) -> Result<usize, CliError> {
    match opts.optional("threads")? {
        Some(t) => match t.parse::<usize>() {
            Ok(0) => Err(CliError::Usage(
                "--threads 0 would run no workers; pass 1 or more (or omit for the default)"
                    .to_string(),
            )),
            Ok(n) => Ok(n),
            Err(_) => Err(CliError::Usage(format!("--threads {t:?} is not a number"))),
        },
        None => Ok(borges_parallel::default_threads()),
    }
}

/// The `map` command's resilience knobs, parsed from
/// `--fault-rate` / `--retries` / `--chaos-seed`: the seeded transient
/// faults both boundaries inject, and the retry policy that recovers
/// them. `None` when none of the three flags were given (the bare fast
/// path).
struct ChaosOpts {
    plan: EpisodePlan,
    policy: RetryPolicy,
}

fn chaos_opts(opts: &Options) -> Result<Option<ChaosOpts>, CliError> {
    let fault_rate = opts.optional("fault-rate")?;
    let retries = opts.optional("retries")?;
    let chaos_seed = opts.optional("chaos-seed")?;
    if fault_rate.is_none() && retries.is_none() && chaos_seed.is_none() {
        return Ok(None);
    }
    let fault_rate: f64 = match fault_rate {
        Some(r) => r
            .parse()
            .ok()
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| {
                CliError::Usage(format!("--fault-rate {r:?} is not a number in [0,1]"))
            })?,
        None => 0.0,
    };
    let chaos_seed: u64 = match chaos_seed {
        Some(s) => s
            .parse()
            .map_err(|_| CliError::Usage(format!("--chaos-seed {s:?} is not a number")))?,
        None => 7,
    };
    let policy = match retries {
        Some(n) => {
            let retries: u32 = n
                .parse()
                .map_err(|_| CliError::Usage(format!("--retries {n:?} is not a number")))?;
            if retries == 0 {
                RetryPolicy::none()
            } else {
                RetryPolicy {
                    max_attempts: retries + 1,
                    ..RetryPolicy::standard(chaos_seed)
                }
            }
        }
        None => RetryPolicy::standard(chaos_seed),
    };
    Ok(Some(ChaosOpts {
        plan: EpisodePlan {
            transient_rate: fault_rate,
            permanent_rate: 0.0,
            max_burst: 3,
            seed: chaos_seed,
        },
        policy,
    }))
}

/// The widest `--max-in-flight` budget `map` accepts: 16 times the
/// default, and 8 times the widest budget the ingest bench measures.
/// The pool starts one thread per unit of budget, so a larger value
/// would exhaust threads rather than hide more latency.
const MAX_IN_FLIGHT: usize = 64;

/// `map`'s ingest options: the retry policy from the resilience flags,
/// and the I/O pool's budget, `--max-in-flight` or
/// [`borges_parallel::DEFAULT_IN_FLIGHT`]. A budget of 0 or above
/// [`MAX_IN_FLIGHT`] is a usage error: a mistaken invocation fails
/// before any I/O rather than admitting nothing or starting a thread
/// per unit.
fn ingest_opts<'a>(
    opts: &Options,
    chaos: &Option<ChaosOpts>,
) -> Result<IngestOptions<'a>, CliError> {
    let pool = match opts.optional("max-in-flight")? {
        Some(n) => match n.parse::<usize>() {
            Ok(0) => {
                return Err(CliError::Usage(
                    "--max-in-flight 0 would admit no calls; pass 1 or more \
                     (or omit for the default)"
                        .to_string(),
                ))
            }
            Ok(n) if n > MAX_IN_FLIGHT => {
                return Err(CliError::Usage(format!(
                    "--max-in-flight {n} is above the limit of {MAX_IN_FLIGHT}: \
                     the pool starts one thread per call in flight"
                )))
            }
            Ok(n) => n,
            Err(_) => {
                return Err(CliError::Usage(format!(
                    "--max-in-flight {n:?} is not a number"
                )))
            }
        },
        None => borges_parallel::DEFAULT_IN_FLIGHT,
    };
    Ok(IngestOptions {
        policy: chaos.as_ref().map(|c| c.policy),
        pool,
        ..IngestOptions::default()
    })
}

/// The run ledger's label for how `map` ingested: `sequential` (or
/// `resilient`) at budget 1, one remote call at a time.
fn pipeline_label(ingest: &IngestOptions<'_>) -> &'static str {
    match (ingest.pool > 1, ingest.policy.is_some()) {
        (false, false) => "sequential",
        (false, true) => "resilient",
        (true, false) => "parallel",
        (true, true) => "parallel-resilient",
    }
}

fn coverage_lines(borges: &Borges) -> String {
    let c = borges.coverage();
    let row = |label: &str, f: borges_core::FeatureCoverage| {
        format!(
            "  {:<16} attempted {:>6}  succeeded {:>6}  abandoned {:>6}\n",
            label, f.attempted, f.succeeded, f.abandoned
        )
    };
    let recovered = borges.scrape_stats.resilience.recovered
        + borges.ner.stats.resilience.recovered
        + borges.favicon.stats.resilience.recovered;
    format!(
        "coverage:\n{}{}{}  ({} calls recovered by retries; every abandoned record is accounted)\n",
        row("crawl", c.crawl),
        row("notes-aka", c.notes_aka),
        row("favicon groups", c.favicon_groups),
        recovered
    )
}

/// `map`'s output flags, validated before any I/O.
struct Outputs<'a> {
    mapfile: &'a str,
    timeline: Option<&'a str>,
    store: Option<&'a str>,
    trace: Option<&'a str>,
    metrics: Option<&'a str>,
    report: Option<&'a str>,
}

impl<'a> Outputs<'a> {
    fn parse(opts: &'a Options) -> Result<Self, CliError> {
        Ok(Outputs {
            mapfile: opts.required("out")?,
            timeline: opts.optional("timeline")?,
            store: opts.optional("store-out")?,
            trace: opts.optional("trace-out")?,
            metrics: opts.optional("metrics-out")?,
            report: opts.optional("report-out")?,
        })
    }
}

/// `map`'s publish tail: materializes `features`, writes the mapfile,
/// appends the world to the timeline, writes the store artifact, then
/// the trace, metrics and run ledger (labelled `label`). The timeline
/// append runs before the store artifact is written: it stamps the
/// chain epoch into the world, and the artifact must carry it too.
/// `threads` is the ledger's thread label. Returns the mapping and the
/// stdout row the append adds.
fn publish(
    out: &Outputs<'_>,
    mut borges: Borges,
    features: FeatureSet,
    label: &str,
    threads: usize,
    llm: &CachingModel<SimLlm>,
    tel: &Telemetry,
) -> Result<(AsOrgMapping, String), CliError> {
    let mapping = borges
        .mappings_parallel_traced(std::slice::from_ref(&features), threads, tel)
        .pop()
        .expect("one feature set in, one mapping out");
    write_artifact_file(out.mapfile, mapfile::serialize(&mapping))?;
    let link = out
        .timeline
        .map(|dir| {
            let link = Timeline::open(Path::new(dir))
                .and_then(|mut timeline| timeline.append(&mut borges))
                .map_err(|e| timeline_failure(dir, e))?;
            tel.debug(format!(
                "timeline epoch {} appended ({})",
                link.epoch, link.world_digest
            ));
            Ok(link)
        })
        .transpose()?;
    let timeline_row = link.as_ref().map_or_else(String::new, |link| {
        format!(
            "timeline: epoch {} appended ({})\n",
            link.epoch, link.world_digest
        )
    });
    if let Some(path) = out.store {
        let digest = borges_store::write_artifact(Path::new(path), &borges.to_world())
            .map_err(CliError::failed)?;
        tel.debug(format!("world store artifact written to {path} ({digest})"));
    }

    if out.trace.is_some() || out.metrics.is_some() || out.report.is_some() {
        let mut report = borges.run_report(tel, label, threads);
        report
            .caches
            .push(CacheReport::new("llm.response", llm.cache_stats()));
        if let Some(link) = &link {
            report.timeline = borges_telemetry::TimelineReport {
                appended: true,
                epoch: link.epoch,
                world_digest: link.world_digest.clone(),
            };
        }
        if let Some(path) = out.trace {
            write_artifact_file(path, tel.trace_jsonl_canonical())?;
            tel.debug(format!("trace journal written to {path}"));
        }
        if let Some(path) = out.metrics {
            write_artifact_file(path, report.metrics.to_prometheus())?;
            tel.debug(format!("metrics written to {path}"));
        }
        if let Some(path) = out.report {
            write_artifact_file(path, report.to_json_pretty())?;
            tel.debug(format!("run ledger written to {path}"));
        }
    }
    Ok((mapping, timeline_row))
}

fn map(opts: &Options) -> Result<String, CliError> {
    opts.allow_only(&[
        "data",
        "out",
        "base",
        "features",
        "seed",
        "threads",
        "fault-rate",
        "retries",
        "chaos-seed",
        "max-in-flight",
        "trace-out",
        "metrics-out",
        "report-out",
        "store-out",
        "timeline",
        "v",
        "q",
    ])?;
    let data = opts.required("data")?;
    let base = opts.optional("base")?;
    let outputs = Outputs::parse(opts)?;
    let features = parse_features(opts.optional("features")?.unwrap_or("all"))?;
    let seed = seed_of(opts)?;
    let chaos = chaos_opts(opts)?;
    let threads = parse_threads(opts)?;
    let mut ingest = ingest_opts(opts, &chaos)?;
    let label = pipeline_label(&ingest);

    // One telemetry context per run, on a virtual clock: spans, metrics,
    // and narration all flow through it. Enabling it unconditionally is
    // fine — the instrumented paths only stamp merged stats.
    let tel = Telemetry::sim(verbosity_of(opts));
    // The base is read before the bundle, so a bad one fails first.
    let prior = base
        .map(|path| {
            tel.verbose(format!("loading base world from {path}"));
            load_base(path)
        })
        .transpose()?;
    ingest.prior = prior.as_ref();
    tel.verbose(format!("loading bundle from {data}"));
    let bundle = DatasetBundle::load(Path::new(data)).map_err(CliError::failed)?;
    tel.debug(format!(
        "bundle: {} WHOIS ASNs, {} PeeringDB networks, {} web hosts",
        bundle.whois.asn_count(),
        bundle.pdb.net_count(),
        bundle.web.host_count()
    ));
    // The LLM sits behind a response cache so repeated prompts (and the
    // ledger's cache row) are observable end to end.
    let llm = CachingModel::new(SimLlm::new(seed));
    if let Some(ChaosOpts { plan, .. }) = &chaos {
        tel.verbose(format!(
            "fault rate {}, chaos seed {}",
            plan.transient_rate, plan.seed
        ));
    }
    tel.verbose(format!("pooled pipeline: {} calls in flight", ingest.pool));
    let borges = ingest_bundle(&bundle, &llm, chaos.as_ref(), &ingest, &tel);
    let coverage = match chaos {
        Some(_) => coverage_lines(&borges),
        None => String::new(),
    };
    tel.verbose(format!(
        "crawl: {} entries, {} reachable URLs; ner: {} LLM calls",
        borges.scrape_stats.entries_with_website,
        borges.scrape_stats.reachable_urls,
        borges.ner.stats.llm_calls
    ));
    let delta_row = borges.delta.as_ref().map_or_else(String::new, |d| {
        tel.verbose(format!(
            "delta: {} dirty records, {} LLM calls replayed from memo, {} issued",
            d.records.dirty(),
            d.llm_calls_saved(),
            d.ner_recomputed + d.favicon_recomputed
        ));
        let (segments_retained, edges_retained): (usize, usize) = d
            .edge_rows()
            .iter()
            .map(|(_, s)| (s.segments_retained, s.edges_retained))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
        format!(
            "delta: {} dirty records; {} segments ({} edges) reused; {} LLM calls saved\n",
            d.records.dirty(),
            segments_retained,
            edges_retained,
            d.llm_calls_saved()
        )
    });
    let (mapping, timeline_row) = publish(&outputs, borges, features, label, threads, &llm, &tel)?;
    Ok(format!(
        "{}: {} ASNs in {} organizations (features: {})\n{}{}{}",
        outputs.mapfile,
        mapping.asn_count(),
        mapping.org_count(),
        features.label(),
        delta_row,
        coverage,
        timeline_row
    ))
}

/// Crawls `bundle`'s websites and runs every stage with `llm`: the one
/// ingest behind `map` (a remap, given `--base`) and behind both of
/// `serve`'s compiles, the cold start and the reload. `chaos` puts both
/// boundaries behind its seeded faults.
fn ingest_bundle(
    bundle: &DatasetBundle,
    llm: &CachingModel<SimLlm>,
    chaos: Option<&ChaosOpts>,
    ingest: &IngestOptions<'_>,
    tel: &Telemetry,
) -> Borges {
    let web = SimWebClient::browser(&bundle.web);
    let (web, model): (
        Box<dyn WebClient + Sync + '_>,
        Box<dyn ChatModel + Sync + '_>,
    ) = match chaos {
        Some(ChaosOpts { plan, .. }) => {
            let model_plan = EpisodePlan {
                seed: plan.seed ^ 0x4c4c_4d00,
                ..*plan
            };
            (
                Box::new(FlakyWebClient::new(web, *plan)),
                Box::new(FlakyModel::new(llm, model_plan)),
            )
        }
        None => (Box::new(web), Box::new(llm)),
    };
    Borges::ingest(
        &bundle.whois,
        &bundle.pdb,
        WebSource::Crawl(&*web),
        &*model,
        ingest,
        tel,
    )
}

/// `--base`'s prior: the remap state of a published world. A directory
/// is a timeline, whose tip loads through the digest and epoch checks
/// `?at=` applies; any other path is a store artifact, whose world
/// holds the state as it was published.
fn load_base(path: &str) -> Result<SnapshotState, CliError> {
    if Path::new(path).is_dir() {
        let timeline = open_timeline(path)?;
        return timeline
            .tip()
            .ok_or(TimelineError::Empty)
            .and_then(|tip| timeline.load_epoch(tip.epoch))
            .map(|world| world.snapshot_state())
            .map_err(|e| timeline_failure(path, e));
    }
    borges_store::load_artifact(Path::new(path))
        .map(|loaded| loaded.world.state)
        .map_err(|e| CliError::Failed(format!("store artifact {path}: {e} ({})", e.kind()).into()))
}

/// Writes a CLI output artifact crash-safely: staged to a sibling
/// temporary file, fsynced, then atomically renamed into place. A
/// crash mid-write leaves either the previous file or nothing — never
/// a torn artifact.
fn write_artifact_file(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> Result<(), CliError> {
    borges_store::write_atomic(path.as_ref(), bytes.as_ref())
        .map_err(|e| CliError::Failed(Box::new(e)))
}

/// A small non-negative integer flag with a default and a floor.
fn parse_count(opts: &Options, flag: &str, default: usize, min: usize) -> Result<usize, CliError> {
    match opts.optional(flag)? {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= min => Ok(n),
            Ok(n) => Err(CliError::Usage(format!("--{flag} {n} must be >= {min}"))),
            Err(_) => Err(CliError::Usage(format!("--{flag} {raw:?} is not a number"))),
        },
        None => Ok(default),
    }
}

/// How a `serve --store` cold start went: `Ok(digest)` when the
/// artifact was validated and loaded (no recompilation), `Err(kind)`
/// when it was damaged and serve fell back to a bundle compile.
type StoreBoot = Result<String, String>;

/// How many chain-epoch worlds `serve --timeline` keeps resident at
/// once. Small on purpose: each is a full compiled pipeline, and the
/// byte-determinism contract makes evictions invisible to clients.
const EPOCH_LRU_CAPACITY: usize = 4;

/// Loads the bundle at `data` and ingests it, remapping against `prior`
/// when one is given: `serve`'s cold compile and its reload. The ingest
/// runs on the I/O pool at the default budget.
fn compile_bundle(data: &str, seed: u64, prior: Option<&SnapshotState>) -> Result<Borges, String> {
    let bundle = DatasetBundle::load(Path::new(data)).map_err(|e| e.to_string())?;
    Ok(ingest_bundle(
        &bundle,
        &CachingModel::new(SimLlm::new(seed)),
        None,
        &IngestOptions {
            pool: borges_parallel::DEFAULT_IN_FLIGHT,
            prior,
            ..IngestOptions::default()
        },
        &Telemetry::disabled(),
    ))
}

fn serve(opts: &Options) -> Result<String, CliError> {
    opts.allow_only(&[
        "data",
        "addr",
        "threads",
        "queue-depth",
        "lru",
        "seed",
        "addr-file",
        "store",
        "access-log",
        "slow-ms",
        "timeline",
        "v",
        "q",
    ])?;
    let data = opts.required("data")?.to_string();
    let addr = opts
        .optional("addr")?
        .unwrap_or("127.0.0.1:8080")
        .to_string();
    let threads = parse_threads(opts)?;
    let queue_depth = parse_count(opts, "queue-depth", 64, 1)?;
    let lru = parse_count(opts, "lru", 16, 0)?;
    let seed = seed_of(opts)?;
    let slow_ms = match opts.optional("slow-ms")? {
        None => None,
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
            CliError::Usage(format!(
                "--slow-ms must be a non-negative integer (milliseconds), got {raw:?}"
            ))
        })?),
    };
    let access_log_path = opts.optional("access-log")?.map(String::from);
    let narrator = std::sync::Arc::new(borges_telemetry::Narrator::new(verbosity_of(opts)));

    // The chain is opened (and its manifest verified to link up) before
    // anything is compiled; worlds load lazily on the first `?at=`
    // naming their epoch.
    let timeline_dir = opts.optional("timeline")?.map(String::from);
    let mut timeline_summary: Option<(usize, Option<u64>)> = None;
    let timeline_state = match &timeline_dir {
        None => None,
        Some(dir) => {
            let timeline = open_timeline(dir)?;
            timeline_summary = Some((timeline.links().len(), timeline.tip().map(|l| l.epoch)));
            narrator.verbose(format!(
                "timeline {dir} mounted ({} link(s))",
                timeline.links().len()
            ));
            Some(std::sync::Arc::new(borges_serve::TimelineState::new(
                timeline,
                EPOCH_LRU_CAPACITY,
                lru,
            )))
        }
    };

    let compile_from_bundle = || -> Result<Borges, CliError> {
        narrator.verbose(format!("compiling {data} on the I/O pool"));
        compile_bundle(&data, seed, None).map_err(|e| CliError::Failed(e.into()))
    };

    // A valid `--store` artifact replaces the compile wholesale: the
    // world is decoded, checksummed, and replayed into a pipeline with
    // no crawling, no LLM calls, and no evidence recompilation. Any
    // damage — truncation, flipped bits, schema skew, a torn rename —
    // degrades loudly to the bundle compile instead of serving a
    // corrupt world.
    let store_boot: Option<StoreBoot>;
    let borges = match opts.optional("store")? {
        Some(path) => {
            narrator.verbose(format!("loading world store artifact {path}"));
            let loaded = borges_store::load_artifact(Path::new(path))
                .map_err(|e| (e.kind().to_string(), e.to_string()))
                .and_then(|loaded| {
                    Borges::from_world(&loaded.world, threads)
                        .map(|b| (b, loaded.digest))
                        .map_err(|e| ("decode".to_string(), e))
                });
            match loaded {
                Ok((borges, digest)) => {
                    narrator.verbose(format!(
                        "store artifact valid (digest {digest}); compile skipped"
                    ));
                    store_boot = Some(Ok(digest));
                    borges
                }
                Err((kind, detail)) => {
                    narrator.verbose(format!(
                        "store artifact damaged ({kind}): {detail}; recompiling from bundle"
                    ));
                    store_boot = Some(Err(kind));
                    compile_from_bundle()?
                }
            }
        }
        None => {
            store_boot = None;
            compile_from_bundle()?
        }
    };

    // `POST /v1/admin/reload` re-reads the bundle directory (which may
    // hold snapshot T+1 by then), re-crawls, and incrementally remaps
    // against the serving pipeline's own snapshot state — the remap's
    // byte-identical contract is what makes the swapped world
    // indistinguishable from a cold start on the new data. A reload
    // body naming a store artifact hot-swaps to that world instead;
    // a damaged artifact fails the reload loudly and the old world
    // keeps serving.
    let reloader: Reloader = {
        let data = data.clone();
        Box::new(move |current: &Borges, store: Option<&str>| {
            if let Some(path) = store {
                let loaded = borges_store::load_artifact(Path::new(path))
                    .map_err(|e| format!("store artifact {path}: {e} ({})", e.kind()))?;
                return Borges::from_world(&loaded.world, threads);
            }
            compile_bundle(&data, seed, Some(&current.snapshot_state()))
        })
    };

    // The access log is the runtime stream: staged crash-safe beside
    // its destination while serving, fsynced and renamed into place on
    // graceful shutdown (the same protocol as store artifacts).
    let access_log = match &access_log_path {
        Some(path) => Some(std::sync::Arc::new(
            borges_telemetry::AccessLogWriter::create(path).map_err(CliError::failed)?,
        )),
        None => None,
    };
    let mut hooks = borges_serve::ServerHooks::default();
    if let Some(writer) = &access_log {
        let writer = writer.clone();
        let log_narrator = narrator.clone();
        hooks.access_log = Some(Box::new(move |record| {
            if let Err(err) = writer.append_line(&record.to_json()) {
                log_narrator.error(format!("access log write failed: {err}"));
            }
        }));
    }
    if slow_ms.is_some() {
        let slow_narrator = narrator.clone();
        hooks.slow = Some(Box::new(move |record| {
            slow_narrator.info(format!(
                "slow request {} {} {} — {} ms (status {})",
                record.id, record.method, record.path, record.duration_ms, record.status
            ));
        }));
    }

    let config = ServerConfig {
        addr,
        threads,
        queue_depth,
        lru_capacity: lru,
        slow_ms,
        ..ServerConfig::default()
    };
    let server = Server::start_with_timeline(config, borges, Some(reloader), hooks, timeline_state)
        .map_err(CliError::failed)?;
    if let (Some(dir), Some((links, tip))) = (&timeline_dir, &timeline_summary) {
        server.record_event(
            "timeline_mounted",
            &format!(
                "{dir}: {links} link(s), tip epoch {}",
                tip.map(|e| e.to_string()).unwrap_or_else(|| "-".into())
            ),
        );
    }
    // The cold-start outcome lands in the metrics registry (and so the
    // final ledger): attempts, ok, degraded by corruption class, and —
    // explicitly zero on the happy path — whether a recompile ran.
    if let Some(boot) = &store_boot {
        let metrics = server.metrics();
        metrics.counter("borges_store_load_attempts_total", 1);
        match boot {
            Ok(_) => {
                metrics.counter("borges_store_load_ok_total", 1);
                metrics.counter("borges_store_degraded_total", 0);
                metrics.counter("borges_store_recompile_total", 0);
            }
            Err(kind) => {
                metrics.counter("borges_store_load_ok_total", 0);
                metrics.counter("borges_store_degraded_total", 1);
                metrics.counter(&format!("borges_store_degraded_{kind}_total"), 1);
                metrics.counter("borges_store_recompile_total", 1);
            }
        }
        // The same outcome lands in the world-event journal, so
        // /v1/admin/debug/events tells the whole boot story.
        match boot {
            Ok(digest) => server.record_event(
                "store_load_ok",
                &format!("cold start from artifact {digest}"),
            ),
            Err(kind) => server.record_event(
                "store_degraded",
                &format!("artifact damaged ({kind}); recompiled from bundle"),
            ),
        }
    }
    let local = server.local_addr();
    if let Some(path) = opts.optional("addr-file")? {
        write_artifact_file(path, format!("{local}\n"))?;
    }
    narrator.verbose(format!(
        "serving on http://{local} ({threads} workers, queue depth {queue_depth}, lru {lru})"
    ));
    let ledger = server.wait();
    // Land the access log: fsync the staged file and rename it into
    // place — the destination appears complete or not at all.
    let access_row = match (&access_log, &access_log_path) {
        (Some(writer), Some(path)) => {
            writer.finish().map_err(CliError::failed)?;
            format!("access log: {path}\n")
        }
        _ => String::new(),
    };
    let store_row = match &store_boot {
        Some(Ok(digest)) => format!("store: cold start from artifact {digest}, 0 recompiles\n"),
        Some(Err(kind)) => format!("store_degraded: {kind} — recompiled from bundle\n"),
        None => String::new(),
    };
    Ok(format!(
        "served {} request(s), shed {}, accepted {} — shut down cleanly\n{}{}",
        ledger.counter("borges_serve_served_total"),
        ledger.counter("borges_serve_shed_total"),
        ledger.counter("borges_serve_accepted_total"),
        store_row,
        access_row,
    ))
}

/// `borges store verify` — artifact integrity tooling. Takes
/// positional operands, so it parses them by hand instead of through
/// `Options`.
fn store(args: &[String]) -> Result<String, CliError> {
    match args.split_first() {
        Some((action, rest)) if action == "verify" => store_verify(rest),
        Some((other, _)) => Err(CliError::Usage(format!(
            "unknown store action {other:?} (expected verify)"
        ))),
        None => Err(CliError::Usage("store needs an action: verify".to_string())),
    }
}

/// Renders one artifact's provenance and section table.
fn describe_artifact(info: &borges_store::ArtifactInfo) -> String {
    let mut out = String::new();
    out.push_str(&format!("  digest          {}\n", info.digest));
    out.push_str(&format!("  format version  {}\n", info.format_version));
    out.push_str(&format!("  schema version  {}\n", info.schema_version));
    out.push_str(&format!("  epoch           {}\n", info.epoch));
    out.push_str(&format!("  total bytes     {}\n", info.total_len));
    for (name, len) in &info.sections {
        out.push_str(&format!("  section {name:<13} {len:>12} bytes\n"));
    }
    out
}

fn store_verify(paths: &[String]) -> Result<String, CliError> {
    if paths.is_empty() {
        return Err(CliError::Usage(
            "store verify needs at least one artifact path".to_string(),
        ));
    }
    let mut out = String::new();
    for path in paths {
        let info = borges_store::verify_artifact(Path::new(path))
            .map_err(|e| CliError::Failed(format!("{path}: CORRUPT ({}): {e}", e.kind()).into()))?;
        out.push_str(&format!("{path}: ok\n"));
        out.push_str(&describe_artifact(&info));
    }
    Ok(out)
}

/// `borges timeline <verify|ls|diff>` — chain tooling over a timeline
/// directory. Positional operands, same parsing discipline as `store`.
fn timeline_cmd(args: &[String]) -> Result<String, CliError> {
    let (action, rest) = match args.split_first() {
        Some((a, rest)) => (a.as_str(), rest),
        None => {
            return Err(CliError::Usage(
                "timeline needs an action: verify, ls, or diff".to_string(),
            ))
        }
    };
    match action {
        "verify" => timeline_verify(rest),
        "ls" => timeline_ls(rest),
        "diff" => timeline_diff(rest),
        other => Err(CliError::Usage(format!(
            "unknown timeline action {other:?} (expected verify, ls, or diff)"
        ))),
    }
}

fn timeline_verify(args: &[String]) -> Result<String, CliError> {
    let [dir] = args else {
        return Err(CliError::Usage(
            "timeline verify takes exactly one timeline directory".to_string(),
        ));
    };
    let timeline = open_timeline(dir)?;
    let report = timeline
        .verify()
        .map_err(|e| CliError::Failed(format!("{dir}: {e} ({})", e.kind()).into()))?;
    Ok(format!(
        "{dir}: ok\n  links   {links}\n  worlds  {links} verified\n",
        links = report.links
    ))
}

fn timeline_ls(args: &[String]) -> Result<String, CliError> {
    let [dir] = args else {
        return Err(CliError::Usage(
            "timeline ls takes exactly one timeline directory".to_string(),
        ));
    };
    let timeline = open_timeline(dir)?;
    if timeline.links().is_empty() {
        return Ok(format!("{dir}: empty timeline\n"));
    }
    let mut out = String::new();
    for link in timeline.links() {
        out.push_str(&format!(
            "epoch {:>5}  world {}\n",
            link.epoch, link.world_digest
        ));
    }
    Ok(out)
}

fn timeline_diff(args: &[String]) -> Result<String, CliError> {
    let [dir, raw_t1, raw_t2] = args else {
        return Err(CliError::Usage(
            "timeline diff takes a timeline directory and two epochs".to_string(),
        ));
    };
    let parse = |raw: &String| {
        raw.parse::<u64>().map_err(|_| {
            CliError::Usage(format!(
                "invalid epoch {raw:?} (expected a non-negative integer)"
            ))
        })
    };
    let (t1, t2) = (parse(raw_t1)?, parse(raw_t2)?);
    let timeline = open_timeline(dir)?;
    let diff = timeline.diff(t1, t2).map_err(|e| match e.kind() {
        "invalid_range" | "unknown_epoch" | "empty" => CliError::Usage(format!("{e}")),
        _ => CliError::Failed(format!("{dir}: {e} ({})", e.kind()).into()),
    })?;
    Ok(format!(
        "{}\n",
        borges_timeline::render_diff_json(t1, t2, &diff)
    ))
}

fn load_mapping(path: &str) -> Result<AsOrgMapping, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Failed(Box::new(e)))?;
    mapfile::parse(&text).map_err(CliError::failed)
}

fn eval(opts: &Options) -> Result<String, CliError> {
    opts.allow_only(&["data", "mapping", "v", "q"])?;
    let narrator = borges_telemetry::Narrator::new(verbosity_of(opts));
    let data = opts.required("data")?;
    let mapping_paths = opts.repeated("mapping");
    if mapping_paths.is_empty() {
        return Err(CliError::Usage("need at least one --mapping".to_string()));
    }
    let bundle = DatasetBundle::load(Path::new(data)).map_err(CliError::failed)?;
    let truth = BundleTruth::load(Path::new(data)).map_err(CliError::failed)?;
    let universe = bundle.whois.asn_count().max(
        bundle
            .whois
            .all_asns()
            .chain(bundle.pdb.nets().map(|n| n.asn))
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
    );

    narrator.verbose(format!(
        "scoring {} mapping(s) over a {universe}-network universe",
        mapping_paths.len()
    ));
    let mut out = String::new();
    out.push_str(&format!("universe: {universe} networks\n\n"));
    out.push_str(&format!(
        "{:<28} {:>8} {:>8}{}\n",
        "mapping",
        "orgs",
        "θ",
        if truth.is_some() {
            "  precision   recall"
        } else {
            ""
        }
    ));
    for path in mapping_paths {
        let mapping = load_mapping(path)?;
        let theta = organization_factor(&mapping, universe.max(mapping.asn_count()));
        out.push_str(&format!(
            "{:<28} {:>8} {:>8.4}",
            path,
            mapping.org_count(),
            theta
        ));
        if let Some(truth) = &truth {
            let (precision, recall) = truth_scores(truth, &mapping);
            out.push_str(&format!("  {precision:>9.3} {recall:>8.3}"));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Pairwise precision/recall of a mapping against the bundle's oracle.
fn truth_scores(truth: &BundleTruth, mapping: &AsOrgMapping) -> (f64, f64) {
    // Recall: true sibling pairs recovered.
    let mut by_org: std::collections::BTreeMap<usize, Vec<Asn>> = Default::default();
    for (asn, (org, _)) in &truth.orgs {
        by_org.entry(*org).or_default().push(*asn);
    }
    let mut true_pairs = 0usize;
    let mut recovered = 0usize;
    for members in by_org.values() {
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                true_pairs += 1;
                if mapping.same_org(members[i], members[j]) {
                    recovered += 1;
                }
            }
        }
    }
    // Precision: merged pairs that are truly siblings.
    let mut merged = 0usize;
    let mut correct = 0usize;
    for (_, members) in mapping.clusters() {
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                merged += 1;
                if truth.are_siblings(members[i], members[j]) {
                    correct += 1;
                }
            }
        }
    }
    (
        if merged == 0 {
            1.0
        } else {
            correct as f64 / merged as f64
        },
        if true_pairs == 0 {
            1.0
        } else {
            recovered as f64 / true_pairs as f64
        },
    )
}

fn inspect(opts: &Options) -> Result<String, CliError> {
    opts.allow_only(&["data", "mapping", "asn", "v", "q"])?;
    let data = opts.required("data")?;
    // Validate the ASN before touching any file: a typo'd --asn should
    // fail fast with a usage error, not after a mapping load.
    let raw_asn = opts.required("asn")?;
    let asn: Asn = raw_asn.parse().map_err(|_| {
        CliError::Usage(format!(
            "--asn {raw_asn:?} is not an ASN (expected AS<digits> or <digits>)"
        ))
    })?;
    let mapping = load_mapping(opts.required("mapping")?)?;

    let bundle = DatasetBundle::load(Path::new(data)).map_err(CliError::failed)?;
    let truth = BundleTruth::load(Path::new(data)).map_err(CliError::failed)?;
    let namer = OrgNamer::new(&bundle.pdb, &bundle.whois);

    let siblings = mapping.siblings_of(asn);
    if siblings.is_empty() {
        return Ok(format!("{asn} is not in this mapping\n"));
    }
    let mut out = format!(
        "{asn} — inferred organization with {} networks:\n",
        siblings.len()
    );
    for &member in siblings {
        out.push_str(&format!(
            "  {:<12} {}",
            member.to_string(),
            namer.name_of(member)
        ));
        if let Some(truth) = &truth {
            if let Some((_, name)) = truth.orgs.get(&member) {
                out.push_str(&format!("   [truth: {name}]"));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

fn diff_cmd(opts: &Options) -> Result<String, CliError> {
    opts.allow_only(&["before", "after", "v", "q"])?;
    let before = load_mapping(opts.required("before")?)?;
    let after = load_mapping(opts.required("after")?)?;
    let d = diff(&before, &after);
    let mut out = String::new();
    out.push_str(&format!(
        "before: {} orgs / {} ASNs   after: {} orgs / {} ASNs\n",
        before.org_count(),
        before.asn_count(),
        after.org_count(),
        after.asn_count()
    ));
    out.push_str(&format!(
        "merges: {}   splits: {}   appeared ASNs: {}   disappeared ASNs: {}   unchanged orgs: {}\n",
        d.merges.len(),
        d.splits.len(),
        d.appeared.len(),
        d.disappeared.len(),
        d.unchanged_clusters
    ));
    let mut merges = d.merges.clone();
    merges.sort_by_key(|m| std::cmp::Reverse(m.fragments.iter().map(Vec::len).sum::<usize>()));
    for merge in merges.iter().take(10) {
        let total: usize = merge.fragments.iter().map(Vec::len).sum();
        let anchors: Vec<String> = merge.fragments.iter().map(|f| f[0].to_string()).collect();
        out.push_str(&format!(
            "  merge of {} fragments ({} ASNs): {}\n",
            merge.fragments.len(),
            total,
            anchors.join(" + ")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("borges-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn help_is_shown_without_arguments() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("generate"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn feature_spec_parsing() {
        assert_eq!(parse_features("all").unwrap(), FeatureSet::ALL);
        assert_eq!(parse_features("none").unwrap(), FeatureSet::NONE);
        let f = parse_features("oid_p,rr").unwrap();
        assert!(f.oid_p && f.rr && !f.na && !f.favicons);
        assert!(parse_features("bogus").is_err());
    }

    #[test]
    fn full_workflow_generate_map_eval_inspect_diff() {
        let dir = tmpdir("workflow");
        let data = dir.join("world");
        let out = run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("generated"));

        let as2org_map = dir.join("as2org.map");
        let borges_map = dir.join("borges.map");
        let out = run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--features",
            "none",
            "--out",
            as2org_map.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("organizations"));
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--features",
            "all",
            "--out",
            borges_map.to_str().unwrap(),
        ]))
        .unwrap();

        let out = run(&args(&[
            "eval",
            "--data",
            data.to_str().unwrap(),
            "--mapping",
            as2org_map.to_str().unwrap(),
            "--mapping",
            borges_map.to_str().unwrap(),
        ]))
        .unwrap();
        // The oracle is present, so both mappings are scored. The paths
        // are wider than the 28-column name field, so no padding follows
        // them.
        let (a, b) = (as2org_map.to_str().unwrap(), borges_map.to_str().unwrap());
        assert!(a.len() >= 28 && b.len() >= 28);
        assert_eq!(
            out,
            format!(
                "universe: 700 networks\n\n\
                 mapping                          orgs        θ  precision   recall\n\
                 {a}      587   0.1461      1.000    0.261\n\
                 {b}      430   0.3038      1.000    0.908\n"
            )
        );

        let out = run(&args(&[
            "inspect",
            "--data",
            data.to_str().unwrap(),
            "--mapping",
            borges_map.to_str().unwrap(),
            "--asn",
            "3356",
        ]))
        .unwrap();
        assert_eq!(
            out,
            "AS3356 — inferred organization with 3 networks:\n\
             \x20 AS209        Lumen Technologies   [truth: Lumen Technologies]\n\
             \x20 AS3356       Lumen Technologies   [truth: Lumen Technologies]\n\
             \x20 AS3549       Lumen Technologies   [truth: Lumen Technologies]\n"
        );

        let out = run(&args(&[
            "diff",
            "--before",
            as2org_map.to_str().unwrap(),
            "--after",
            borges_map.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("merges:"));
        // Borges only merges relative to AS2Org — never splits.
        assert!(out.contains("splits: 0"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_without_oracle_omits_scores() {
        let dir = tmpdir("no-oracle");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--no-truth",
        ]))
        .unwrap();
        let map_path = dir.join("m.map");
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            map_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&args(&[
            "eval",
            "--data",
            data.to_str().unwrap(),
            "--mapping",
            map_path.to_str().unwrap(),
        ]))
        .unwrap();
        let m = map_path.to_str().unwrap();
        assert!(m.len() >= 28);
        assert_eq!(
            out,
            format!(
                "universe: 690 networks\n\n\
                 mapping                          orgs        θ\n\
                 {m}      420   0.3071\n"
            )
        );
        // No oracle, so no `[truth: …]` suffix.
        let out = run(&args(&[
            "inspect",
            "--data",
            data.to_str().unwrap(),
            "--mapping",
            map_path.to_str().unwrap(),
            "--asn",
            "3356",
        ]))
        .unwrap();
        assert_eq!(
            out,
            "AS3356 — inferred organization with 3 networks:\n\
             \x20 AS209        Lumen Technologies\n\
             \x20 AS3356       Lumen Technologies\n\
             \x20 AS3549       Lumen Technologies\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn typo_flags_are_caught() {
        let err = run(&args(&["generate", "--outt", "x"])).unwrap_err();
        assert!(err.to_string().contains("--outt"));
    }

    #[test]
    fn chaos_map_with_recoverable_faults_matches_the_bare_map() {
        let dir = tmpdir("chaos-recoverable");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
        ]))
        .unwrap();

        let bare_map = dir.join("bare.map");
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            bare_map.to_str().unwrap(),
        ]))
        .unwrap();

        let chaos_map = dir.join("chaos.map");
        let out = run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            chaos_map.to_str().unwrap(),
            "--fault-rate",
            "0.15",
            "--chaos-seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("coverage:"), "{out}");
        assert!(out.contains("abandoned      0"), "{out}");

        // The keystone, end to end through the CLI: recoverable chaos
        // writes a byte-identical mapping file.
        assert_eq!(
            std::fs::read(&bare_map).unwrap(),
            std::fs::read(&chaos_map).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_map_without_retries_reports_losses() {
        let dir = tmpdir("chaos-degraded");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
        ]))
        .unwrap();
        let map_path = dir.join("degraded.map");
        let out = run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            map_path.to_str().unwrap(),
            "--fault-rate",
            "0.5",
            "--retries",
            "0",
        ]))
        .unwrap();
        // The run completed, wrote a mapping, and owned up to its losses.
        assert!(map_path.exists());
        assert!(out.contains("coverage:"), "{out}");
        let crawl_line = out.lines().find(|l| l.contains("crawl")).unwrap();
        assert!(
            !crawl_line.trim_end().ends_with(" 0"),
            "losses expected: {out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_writes_trace_metrics_and_ledger() {
        let dir = tmpdir("observability");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();

        let run_map = |knobs: &[&str], stem: &str| {
            let map_path = dir.join(format!("{stem}.map"));
            let trace = dir.join(format!("{stem}.trace.jsonl"));
            let metrics = dir.join(format!("{stem}.prom"));
            let report = dir.join(format!("{stem}.report.json"));
            let mut cmd = vec![
                "map",
                "--data",
                data.to_str().unwrap(),
                "--out",
                map_path.to_str().unwrap(),
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--report-out",
                report.to_str().unwrap(),
                "-q",
            ];
            cmd.extend_from_slice(knobs);
            run(&args(&cmd)).unwrap();
            (
                std::fs::read_to_string(trace).unwrap(),
                std::fs::read_to_string(metrics).unwrap(),
                std::fs::read_to_string(report).unwrap(),
            )
        };

        let (trace1, metrics1, report1) =
            run_map(&["--threads", "1", "--max-in-flight", "1"], "seq");
        let (trace4, metrics4, report4) = run_map(&["--threads", "4"], "par");

        // The canonical journal and the metrics exposition are
        // byte-identical across thread counts — the determinism keystone,
        // end to end through the CLI.
        assert_eq!(trace1, trace4);
        assert_eq!(metrics1, metrics4);
        assert!(trace1.contains("run/crawl"), "{trace1}");
        assert!(
            metrics1.contains("# TYPE borges_crawl_unique_urls_total counter"),
            "{metrics1}"
        );

        // The ledger parses, balances, and carries both cache rows.
        let report = borges_telemetry::RunReport::from_json(&report1).unwrap();
        assert!(report.accounted());
        assert_eq!(report.pipeline, "sequential");
        let names: Vec<&str> = report.caches.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["web.redirect", "llm.response"]);
        assert!(report.caches[0].misses > 0, "crawl populated the cache");
        let par = borges_telemetry::RunReport::from_json(&report4).unwrap();
        assert_eq!(par.pipeline, "parallel");
        assert_eq!(par.threads, 4);
        // Funnels agree across schedules even though the reports differ
        // in labels/worker rows.
        assert_eq!(par.crawl, report.crawl);
        assert_eq!(par.ner, report.ner);
        assert_eq!(par.metrics, report.metrics);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_flag_validation_fails_before_any_io() {
        // Data paths are deliberately nonexistent: a Usage error proves
        // the flags were rejected before the command opened anything.
        let map = |extra: &[&'static str]| {
            let mut cmd = vec!["map", "--data", "/no/such", "--out", "y"];
            cmd.extend_from_slice(extra);
            cmd
        };
        for (cmd, flag) in [
            (
                map(&["--threads", "2", "--max-in-flight", "0"]),
                "--max-in-flight",
            ),
            (
                map(&["--threads", "2", "--max-in-flight", "nope"]),
                "--max-in-flight",
            ),
            // The pool starts a thread per unit of budget: a budget
            // above the limit is refused before any pool starts.
            (
                map(&["--threads", "2", "--max-in-flight", "65"]),
                "--max-in-flight",
            ),
            (
                map(&["--threads", "2", "--max-in-flight", "100000"]),
                "--max-in-flight",
            ),
            // No opt-in flag exists: the pool is what map runs by default.
            (map(&["--streaming"]), "--streaming"),
            // No rate limit exists either.
            (
                map(&["--threads", "2", "--per-host-rps", "2"]),
                "--per-host-rps",
            ),
            // Flags are checked before the base is read.
            (
                map(&["--base", "/no/such/base", "--max-in-flight", "0"]),
                "--max-in-flight",
            ),
            // A remap is `map --base`: the remap command and the state
            // directory flags are gone.
            (
                vec!["remap", "--data", "/no/such", "--out", "y"],
                "\"remap\"",
            ),
            (map(&["--state-out", "s"]), "--state-out"),
            (map(&["--base-state", "s"]), "--base-state"),
            (map(&["--out-state", "s"]), "--out-state"),
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd:?} → {err}");
            assert!(err.to_string().contains(flag), "{cmd:?} → {err}");
        }
    }

    #[test]
    fn streaming_map_is_byte_identical_and_ledgers_its_scheduler() {
        let dir = tmpdir("streaming");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();

        let map = |stem: &str, extra: &[&str]| {
            let paths = [".map", ".trace.jsonl", ".prom", ".report.json"]
                .map(|ext| dir.join(format!("{stem}{ext}")).display().to_string());
            let mut cmd = vec![
                "map",
                "--data",
                data.to_str().unwrap(),
                "--out",
                &paths[0],
                "--trace-out",
                &paths[1],
                "--metrics-out",
                &paths[2],
                "--report-out",
                &paths[3],
                "-q",
            ];
            cmd.extend_from_slice(extra);
            let out = run(&args(&cmd)).unwrap();
            let read = |p: &String| std::fs::read_to_string(p).unwrap();
            (out, paths.each_ref().map(read))
        };
        let (_, sequential) = map("sequential", &["--max-in-flight", "1"]);
        // --threads sizes CPU work only: one thread still runs the pool
        // at the budget asked for.
        let (_, [pooled_map, pooled_trace, pooled_metrics, report]) =
            map("pooled", &["--threads", "1", "--max-in-flight", "3"]);

        // The pool is invisible in every canonical artifact.
        assert_eq!(sequential[0], pooled_map);
        assert_eq!(sequential[1], pooled_trace);
        assert_eq!(sequential[2], pooled_metrics);

        // ...and visible exactly where it belongs: the worker ledger.
        let reference = borges_telemetry::RunReport::from_json(&sequential[3]).unwrap();
        assert_eq!(reference.pipeline, "sequential");
        let report = borges_telemetry::RunReport::from_json(&report).unwrap();
        assert_eq!(report.pipeline, "parallel");
        assert!(report.accounted());
        let row = |stage: &str| report.workers.iter().find(|w| w.stage == stage);
        for stage in borges_telemetry::ingest::ALL_STAGES {
            assert!(row(stage).is_some(), "missing {stage}");
        }
        let in_flight = row(borges_telemetry::ingest::IN_FLIGHT_STAGE).unwrap();
        assert!((1..=3).contains(&in_flight.items), "{in_flight:?}");

        // Chaos composes: the pooled resilient engine recovers fully and
        // matches the sequential mapping.
        let (out, [chaos_map, ..]) = map("chaos", &["--threads", "2", "--fault-rate", "0.15"]);
        assert!(out.contains("coverage:"), "{out}");
        assert!(out.contains("abandoned      0"), "{out}");
        assert_eq!(sequential[0], chaos_map);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `--features` spec for every feature combination.
    fn feature_specs() -> Vec<String> {
        FeatureSet::all_combinations()
            .iter()
            .map(|f| {
                let on: Vec<&str> = [
                    (f.oid_p, "oid_p"),
                    (f.na, "na"),
                    (f.rr, "rr"),
                    (f.favicons, "favicons"),
                ]
                .iter()
                .filter(|(enabled, _)| *enabled)
                .map(|(_, name)| *name)
                .collect();
                if on.is_empty() {
                    "none".to_string()
                } else {
                    on.join(",")
                }
            })
            .collect()
    }

    #[test]
    fn remap_round_trip_is_byte_identical_and_chains() {
        let dir = tmpdir("remap");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();
        let path = |name: &str| dir.join(name).display().to_string();
        let read = |path: &str| std::fs::read(path).unwrap();
        let map = |extra: &[&str]| {
            let mut cmd = vec!["map", "--data", data.to_str().unwrap(), "-q"];
            cmd.extend_from_slice(extra);
            run(&args(&cmd)).unwrap()
        };

        // The full map publishes the first base twice over: as a store
        // artifact and as a timeline's genesis.
        let (full, base0, chain) = (path("full.map"), path("base0.store"), path("chain"));
        map(&["--out", &full, "--store-out", &base0, "--timeline", &chain]);

        // The CLI-level keystone: against either kind of base, the
        // incremental output is byte-identical to the full map of the
        // same bundle, at budget 1, at the default budget, and under
        // recoverable chaos; the trace and metrics do not see the pool.
        for base in [&base0, &chain] {
            let remap = |stem: &str, extra: &[&str]| {
                let outs =
                    [".map", ".trace.jsonl", ".prom"].map(|ext| path(&format!("{stem}{ext}")));
                let mut cmd = vec![
                    "--base",
                    base.as_str(),
                    "--out",
                    &outs[0],
                    "--trace-out",
                    &outs[1],
                    "--metrics-out",
                    &outs[2],
                ];
                cmd.extend_from_slice(extra);
                map(&cmd);
                outs.map(|out| read(&out))
            };
            let [seq_map, seq_trace, seq_metrics] = remap("seq", &["--max-in-flight", "1"]);
            let [pool_map, pool_trace, pool_metrics] = remap("pool", &["--threads", "2"]);
            let [chaos_map, ..] = remap("chaos", &["--threads", "2", "--fault-rate", "0.15"]);
            for remapped in [&seq_map, &pool_map, &chaos_map] {
                assert_eq!(&read(&full), remapped, "--base {base}");
            }
            assert_eq!(seq_trace, pool_trace, "--base {base}");
            assert_eq!(seq_metrics, pool_metrics, "--base {base}");
        }

        // Every feature set materializes what a full map of it writes.
        for spec in feature_specs() {
            let (full, remapped) = (
                path(&format!("full-{spec}.map")),
                path(&format!("remap-{spec}.map")),
            );
            map(&["--features", &spec, "--out", &full]);
            map(&["--features", &spec, "--base", &base0, "--out", &remapped]);
            assert_eq!(read(&full), read(&remapped), "--features {spec}");
        }

        let (remapped, base1, report) = (
            path("remap.map"),
            path("base1.store"),
            path("remap.report.json"),
        );
        let out = map(&[
            "--base",
            &base0,
            "--out",
            &remapped,
            "--store-out",
            &base1,
            "--report-out",
            &report,
            "--threads",
            "2",
        ]);
        assert_eq!(read(&full), read(&remapped));
        assert!(out.contains("delta: 0 dirty records"), "{out}");
        assert!(out.contains("LLM calls saved"), "{out}");

        // The emitted ledger parses, balances, and carries delta rows
        // under map's own pipeline label.
        let ledger =
            borges_telemetry::RunReport::from_json(&std::fs::read_to_string(&report).unwrap())
                .unwrap();
        assert_eq!(ledger.pipeline, "parallel");
        assert!(ledger.accounted());
        assert!(ledger.delta.incremental);
        assert!(ledger.delta.consistent());
        assert_eq!(ledger.delta.records.len(), 5);
        assert_eq!(ledger.delta.edges.len(), 5);
        assert!(ledger.delta.llm_calls_saved > 0);

        // Remaps chain: the world each remap publishes is the next
        // one's base, as an artifact and as the timeline's tip.
        let base2 = path("base2.store");
        let chained = [1, 2, 3, 4].map(|n| path(&format!("chained{n}.map")));
        map(&[
            "--base",
            &base1,
            "--out",
            &chained[0],
            "--store-out",
            &base2,
        ]);
        map(&["--base", &base2, "--out", &chained[1]]);
        let out = map(&["--base", &chain, "--out", &chained[2], "--timeline", &chain]);
        assert!(out.contains("timeline: epoch 1 appended"), "{out}");
        let out = map(&["--base", &chain, "--out", &chained[3], "--timeline", &chain]);
        assert!(out.contains("timeline: epoch 2 appended"), "{out}");
        for remapped in &chained {
            assert_eq!(read(&full), read(remapped), "{remapped}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remap_rejects_a_missing_or_corrupt_state() {
        let dir = tmpdir("remap-bad-base");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();
        let (artifact, chain) = (dir.join("base.store"), dir.join("chain"));
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            dir.join("full.map").to_str().unwrap(),
            "--store-out",
            artifact.to_str().unwrap(),
            "--timeline",
            chain.to_str().unwrap(),
            "-q",
        ]))
        .unwrap();

        let bytes = std::fs::read(&artifact).unwrap();
        let truncated = dir.join("truncated.store");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let flipped = dir.join("flipped.store");
        let mut damaged = bytes.clone();
        damaged[bytes.len() / 2] ^= 0x40;
        std::fs::write(&flipped, &damaged).unwrap();
        let empty = dir.join("empty-chain");
        std::fs::create_dir_all(&empty).unwrap();
        let tip = std::fs::read_dir(chain.join("worlds"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut world = std::fs::read(&tip).unwrap();
        let mid = world.len() / 2;
        world[mid] ^= 0x40;
        std::fs::write(&tip, &world).unwrap();

        // Every bad base fails before the bundle is read (--data names
        // nothing), naming the store's or the timeline's error kind.
        for (base, kind) in [
            (dir.join("absent.store"), "(missing)"),
            (truncated, "(truncated)"),
            (flipped, "(section_checksum)"),
            (empty, "(empty)"),
            (chain, "(tampered_world)"),
        ] {
            let err = run(&args(&[
                "map",
                "--data",
                "/no/such/bundle",
                "--base",
                base.to_str().unwrap(),
                "--out",
                dir.join("never.map").to_str().unwrap(),
            ]))
            .unwrap_err();
            assert!(matches!(err, CliError::Failed(_)), "{base:?} → {err}");
            let message = err.to_string();
            assert!(message.contains(kind), "{base:?} → {message}");
            assert!(!message.contains("/no/such/bundle"), "{message}");
        }
        assert!(!dir.join("absent.store").exists());
        assert!(!dir.join("never.map").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verbosity_flags_are_accepted_everywhere() {
        let dir = tmpdir("verbosity");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "-v",
        ]))
        .unwrap();
        let map_path = dir.join("m.map");
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            map_path.to_str().unwrap(),
            "-vv",
        ]))
        .unwrap();
        let out = run(&args(&[
            "eval",
            "--data",
            data.to_str().unwrap(),
            "--mapping",
            map_path.to_str().unwrap(),
            "-q",
        ]))
        .unwrap();
        assert!(out.contains("universe"), "stdout report survives -q");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_threads_is_a_usage_error_everywhere() {
        for cmd in [
            vec!["map", "--data", "x", "--out", "y", "--threads", "0"],
            vec!["serve", "--data", "x", "--threads", "0"],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd:?} → {err}");
            assert!(err.to_string().contains("--threads 0"), "{err}");
        }
    }

    #[test]
    fn unknown_feature_labels_are_usage_errors() {
        for cmd in [
            vec!["map", "--data", "x", "--out", "y", "--features", "bogus"],
            vec![
                "map",
                "--data",
                "x",
                "--base",
                "s",
                "--out",
                "y",
                "--features",
                "oid_p,wrong",
            ],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd:?} → {err}");
            assert!(err.to_string().contains("unknown feature"), "{err}");
        }
    }

    #[test]
    fn unparseable_asns_are_usage_errors_before_any_io() {
        // Paths are deliberately nonexistent: the ASN must be rejected
        // before the command tries to open anything.
        let err = run(&args(&[
            "inspect",
            "--data",
            "/no/such/data",
            "--mapping",
            "/no/such/mapping",
            "--asn",
            "ASxyz",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("ASxyz"), "{err}");
    }

    #[test]
    fn serve_flag_validation() {
        for cmd in [
            vec!["serve", "--data", "x", "--queue-depth", "0"],
            vec!["serve", "--data", "x", "--queue-depth", "nope"],
            vec!["serve", "--data", "x", "--lru", "-3"],
            vec!["serve", "--data", "x", "--slow-ms", "nope"],
            vec!["serve", "--data", "x", "--slow-ms", "-5"],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd:?} → {err}");
        }
    }

    #[test]
    fn serve_round_trip_serves_reloads_and_shuts_down() {
        let dir = tmpdir("serve");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();

        let addr_file = dir.join("addr");
        let access_log = dir.join("access.jsonl");
        let data_arg = data.to_str().unwrap().to_string();
        let addr_file_arg = addr_file.to_str().unwrap().to_string();
        let access_log_arg = access_log.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run(&args(&[
                "serve",
                "--data",
                &data_arg,
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--addr-file",
                &addr_file_arg,
                "--access-log",
                &access_log_arg,
                "--slow-ms",
                "60000",
                "-q",
            ]))
        });

        // The addr file appears once the listener is bound; the
        // trailing newline marks a complete write.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        let addr: std::net::SocketAddr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().parse().unwrap();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        let client = borges_serve::ServeClient::new(addr);
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body_text().contains("\"epoch\":0"), "{health:?}");

        let map = client.get("/v1/map/AS3356?features=all").unwrap();
        assert_eq!(map.status, 200);
        assert!(map.body_text().contains("\"asn\":\"AS3356\""), "{map:?}");

        // Reload against the unchanged bundle: the remap contract makes
        // the swapped world identical, but the epoch must advance.
        let reload = client.post("/v1/admin/reload", b"").unwrap();
        assert_eq!(reload.status, 200);
        assert!(reload.body_text().contains("\"epoch\":1"), "{reload:?}");
        let health = client.get("/healthz").unwrap();
        assert!(health.body_text().contains("\"epoch\":1"), "{health:?}");

        // The flight recorder saw the traffic, and the event journal
        // carries the boot install plus the reload.
        let debug = client.get("/v1/admin/debug/requests").unwrap();
        assert_eq!(debug.status, 200);
        assert!(
            debug.body_text().contains("\"path\":\"/healthz\""),
            "{debug:?}"
        );
        let events = client.get("/v1/admin/debug/events").unwrap();
        assert!(events.body_text().contains("\"kind\":\"world_installed\""));
        assert!(events.body_text().contains("\"kind\":\"reload\""));

        // The access log only lands (staging → rename) at shutdown.
        assert!(!access_log.exists(), "access log landed before shutdown");

        let bye = client.post("/v1/admin/shutdown", b"").unwrap();
        assert_eq!(bye.status, 200);
        assert!(bye.headers.contains_key("x-borges-request-id"), "{bye:?}");
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("shut down cleanly"), "{out}");
        assert!(out.contains("access log:"), "{out}");

        // Every request left one JSONL record: parseable, unique ids,
        // each carrying the digest of the world that answered it.
        let log_text = std::fs::read_to_string(&access_log).unwrap();
        let records: Vec<borges_telemetry::AccessRecord> = log_text
            .lines()
            .map(|line| serde_json::from_str(line).expect("access record parses"))
            .collect();
        assert!(
            records.len() >= 7,
            "expected a record per request: {log_text}"
        );
        let mut ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        let unique = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), unique, "request ids must be unique: {log_text}");
        for record in &records {
            assert_eq!(record.world.len(), 64, "world digest missing: {record:?}");
        }
        assert!(records.iter().any(|r| r.path == "/healthz"));
        assert!(records
            .iter()
            .any(|r| r.path == "/v1/map/AS3356?features=all"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Spawns `borges serve` on an ephemeral port in a thread and
    /// waits for the addr file; returns the join handle and the
    /// bound address.
    fn spawn_serve(
        mut argv: Vec<String>,
        addr_file: &std::path::Path,
    ) -> (
        std::thread::JoinHandle<Result<String, CliError>>,
        std::net::SocketAddr,
    ) {
        argv.extend(
            [
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().unwrap(),
                "-q",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        let handle = std::thread::spawn(move || run(&argv));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if text.ends_with('\n') {
                    break text.trim().parse().unwrap();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        (handle, addr)
    }

    #[test]
    fn store_subcommand_verifies_catalogs_and_flags_damage() {
        let dir = tmpdir("store-cmd");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();
        let artifact = dir.join("world.store");
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            dir.join("m.map").to_str().unwrap(),
            "--store-out",
            artifact.to_str().unwrap(),
            "-q",
        ]))
        .unwrap();

        let out = run(&args(&["store", "verify", artifact.to_str().unwrap()])).unwrap();
        assert!(out.contains("ok"), "{out}");
        assert!(out.contains("digest"), "{out}");
        assert!(out.contains("section meta"), "{out}");

        // Damage the standalone artifact: verify must fail with the
        // corruption class in the message, not succeed or panic.
        let mut bytes = std::fs::read(&artifact).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&artifact, &bytes).unwrap();
        let err = run(&args(&["store", "verify", artifact.to_str().unwrap()])).unwrap_err();
        assert!(
            matches!(err, CliError::Failed(_)),
            "corruption is a failure, not a usage error: {err}"
        );
        assert!(err.to_string().contains("CORRUPT"), "{err}");

        // Usage errors for malformed invocations; `verify` is the one
        // store action.
        for bad in [
            vec!["store"],
            vec!["store", "frobnicate"],
            vec!["store", "verify"],
            vec!["store", "ls", "catalog"],
            vec!["store", "add", "catalog", "world.store"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} → {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_subcommand_chains_epochs_and_detects_tampering() {
        let dir = tmpdir("timeline-cmd");
        let data = dir.join("world");
        let evolved = dir.join("world-evolved");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();
        // The same seed plus a scripted acquisition. Not a minimal
        // delta: `--evolve` re-emits every dataset view from a fresh
        // RNG, so most registry records differ besides the event.
        run(&args(&[
            "generate",
            "--out",
            evolved.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--evolve",
            "acquisition:cogent:orange",
            "-q",
        ]))
        .unwrap();

        let timeline = dir.join("tl");
        let out = run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            dir.join("m0.map").to_str().unwrap(),
            "--timeline",
            timeline.to_str().unwrap(),
            "-q",
        ]))
        .unwrap();
        assert!(out.contains("timeline: epoch 0 appended"), "{out}");
        let out = run(&args(&[
            "map",
            "--data",
            evolved.to_str().unwrap(),
            "--base",
            timeline.to_str().unwrap(),
            "--out",
            dir.join("m1.map").to_str().unwrap(),
            "--timeline",
            timeline.to_str().unwrap(),
            "-q",
        ]))
        .unwrap();
        assert!(out.contains("timeline: epoch 1 appended"), "{out}");

        let tl = timeline.to_str().unwrap();
        let out = run(&args(&["timeline", "verify", tl])).unwrap();
        assert!(out.contains(": ok"), "{out}");
        assert!(out.contains("links   2"), "{out}");
        assert!(out.contains("worlds  2 verified"), "{out}");

        let out = run(&args(&["timeline", "ls", tl])).unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        assert!(out.contains("epoch     0"), "{out}");
        assert!(out.contains("epoch     1"), "{out}");

        // The scripted acquisition merges cogent (AS174) and orange
        // (AS3215) — the diff must say so.
        let out = run(&args(&["timeline", "diff", tl, "0", "1"])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).expect("diff renders JSON");
        assert_eq!(parsed["t1"], serde_json::json!(0), "{out}");
        assert_eq!(parsed["empty"], serde_json::json!(false), "{out}");
        let merges = parsed["merges"].as_array().unwrap();
        assert!(
            merges.iter().any(|m| {
                let frags: Vec<Vec<&str>> = m["fragments"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|g| {
                        g.as_array()
                            .unwrap()
                            .iter()
                            .map(|v| v.as_str().unwrap())
                            .collect()
                    })
                    .collect();
                frags.iter().any(|g| g.contains(&"AS174"))
                    && frags.iter().any(|g| g.contains(&"AS3215"))
            }),
            "{out}"
        );

        // Backwards range is a usage error, not a crash.
        let err = run(&args(&["timeline", "diff", tl, "1", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");

        // Flip one byte in a chained world: verify must fail loudly
        // with the corruption class, and non-zero (Failed, not Usage).
        let world_file = std::fs::read_dir(timeline.join("worlds"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&world_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&world_file, &bytes).unwrap();
        let err = run(&args(&["timeline", "verify", tl])).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err}");
        assert!(err.to_string().contains("CORRUPT"), "{err}");

        // A path that does not exist is not an empty chain: every read
        // fails with the typed `missing` kind, and creates nothing.
        let absent = dir.join("no-such-chain");
        let absent_arg = absent.to_str().unwrap();
        for cmd in [
            vec!["timeline", "verify", absent_arg],
            vec!["timeline", "ls", absent_arg],
            vec!["timeline", "diff", absent_arg, "0", "1"],
            // Before the bundle is read: --data names nothing either.
            vec!["serve", "--data", "/no/such", "--timeline", absent_arg],
            vec![
                "map", "--data", "/no/such", "--out", "y", "--base", absent_arg,
            ],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert!(matches!(err, CliError::Failed(_)), "{cmd:?} → {err}");
            assert!(err.to_string().contains("(missing)"), "{cmd:?} → {err}");
            assert!(!absent.exists(), "{cmd:?} created {absent:?}");
        }

        // Usage errors for malformed invocations.
        for bad in [
            vec!["timeline"],
            vec!["timeline", "frobnicate"],
            vec!["timeline", "verify"],
            vec!["timeline", "ls"],
            vec!["timeline", "diff", "just-one"],
            vec!["timeline", "diff", tl, "zero", "1"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} → {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_store_cold_start_skips_compile_and_degrades_on_damage() {
        let dir = tmpdir("serve-store");
        let data = dir.join("world");
        run(&args(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
            "-q",
        ]))
        .unwrap();
        let artifact = dir.join("world.store");
        run(&args(&[
            "map",
            "--data",
            data.to_str().unwrap(),
            "--out",
            dir.join("m.map").to_str().unwrap(),
            "--store-out",
            artifact.to_str().unwrap(),
            "-q",
        ]))
        .unwrap();
        let serve_argv = |extra: &[&str]| {
            let mut argv = args(&["serve", "--data", data.to_str().unwrap(), "--threads", "2"]);
            argv.extend(extra.iter().map(|s| s.to_string()));
            argv
        };

        // Happy path: cold start from the artifact, no recompilation —
        // pinned by the metrics endpoint and the final ledger line.
        let addr_file = dir.join("addr1");
        let (handle, addr) = spawn_serve(
            serve_argv(&["--store", artifact.to_str().unwrap()]),
            &addr_file,
        );
        let client = borges_serve::ServeClient::new(addr);
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(
            health.body_text().contains("\"world_digest\":\""),
            "{health:?}"
        );
        let metrics_resp = client.get("/metrics").unwrap();
        let metrics = metrics_resp.body_text();
        assert!(
            metrics.contains("borges_store_load_ok_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("borges_store_recompile_total 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("borges_serve_world_digest{digest=\""),
            "{metrics}"
        );
        let clean_map = client.get("/v1/map/AS3356?features=all").unwrap();
        assert_eq!(clean_map.status, 200);
        client.post("/v1/admin/shutdown", b"").unwrap();
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("store: cold start"), "{out}");
        assert!(!out.contains("store_degraded"), "{out}");

        // Reload by store artifact hot-swaps; a bogus path fails
        // loudly and the old world keeps serving.
        let addr_file = dir.join("addr2");
        let (handle, addr) = spawn_serve(
            serve_argv(&["--store", artifact.to_str().unwrap()]),
            &addr_file,
        );
        let client = borges_serve::ServeClient::new(addr);
        let body = format!("{{\"store\": {:?}}}", artifact.to_str().unwrap());
        let reload = client.post("/v1/admin/reload", body.as_bytes()).unwrap();
        assert_eq!(reload.status, 200, "{reload:?}");
        let bad = client
            .post("/v1/admin/reload", b"{\"store\": \"/no/such/artifact\"}")
            .unwrap();
        assert_eq!(bad.status, 500, "{bad:?}");
        assert!(bad.body_text().contains("missing"), "{bad:?}");
        let still = client.get("/v1/map/AS3356?features=all").unwrap();
        assert_eq!(still.status, 200);
        client.post("/v1/admin/shutdown", b"").unwrap();
        handle.join().unwrap().unwrap();

        // Damaged artifact: serve must fall back to the bundle compile,
        // say so on the ledger, and serve byte-identical responses.
        let mut bytes = std::fs::read(&artifact).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&artifact, &bytes).unwrap();
        let addr_file = dir.join("addr3");
        let (handle, addr) = spawn_serve(
            serve_argv(&["--store", artifact.to_str().unwrap()]),
            &addr_file,
        );
        let client = borges_serve::ServeClient::new(addr);
        let degraded_map = client.get("/v1/map/AS3356?features=all").unwrap();
        assert_eq!(
            degraded_map.canonical_raw(),
            clean_map.canonical_raw(),
            "fallback world must serve byte-identical responses"
        );
        let metrics_resp = client.get("/metrics").unwrap();
        let metrics = metrics_resp.body_text();
        assert!(
            metrics.contains("borges_store_degraded_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("borges_store_recompile_total 1"),
            "{metrics}"
        );
        client.post("/v1/admin/shutdown", b"").unwrap();
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("store_degraded"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_flag_validation() {
        for bad in [
            vec!["map", "--data", "x", "--out", "y", "--fault-rate", "1.5"],
            vec!["map", "--data", "x", "--out", "y", "--fault-rate", "nope"],
            vec!["map", "--data", "x", "--out", "y", "--retries", "-1"],
            vec!["map", "--data", "x", "--out", "y", "--chaos-seed", "zz"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }
}
