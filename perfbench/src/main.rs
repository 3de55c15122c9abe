//! `borges-perfbench`: the repository's benchmark harness.
//!
//! ```text
//! borges-perfbench --workload build|remap|serve --seed N --seconds N --trace 0|1
//! ```
//!
//! Drives one workload through the same public calls `borges map`,
//! `borges remap` and `borges serve --store` make, times every call it
//! makes into a layer, checks every output against a reference, and
//! prints a JSON result line last. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` re-runs the workload with spans on and reports
//! the per-layer metrics. See `perfbench/README.md`.

mod publish;
mod queries;
mod remote;
mod report;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use publish::{OpDirs, Published};
use report::Report;
use stats::ms;
use trace::{SpanId, Trace, Tracer};

const USAGE: &str =
    "usage: borges-perfbench --workload build|remap|serve --seed N --seconds N --trace 0|1";
/// Scratch directory, relative to the working directory (the checkout
/// root); each run works in its own subdirectory and removes it.
const WORK_DIR: &str = ".perfbench_work";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest operations a run times, whatever `--seconds` says.
const MIN_OPS: usize = 3;
/// Fewest operations of each kind (untraced, traced) in a traced run.
const MIN_OPS_TRACED: usize = 2;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = take("workload")?;
    if !["build", "remap", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|_| "--seconds is not a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(Args {
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed is not a number")?,
        workload,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = borges_parallel::default_threads();
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let mut report = Report::new();
    if args.trace {
        // Layers a workload does not exercise report 0.
        for (name, _) in report::PER_LAYER {
            report.set(name, 0.0);
        }
    }
    report.note(format!(
        "workload {} preset {} seed {} nproc {threads} seconds {} trace {}",
        args.workload,
        if args.workload == "serve" {
            "paper"
        } else {
            "medium"
        },
        args.seed,
        args.seconds,
        u8::from(args.trace),
    ));
    let probe_before = report::host_probe_ms();
    let outcome = publish::fresh_dir(&work).and_then(|()| match args.workload.as_str() {
        "serve" => run_serve(&args, threads, &work, &mut report),
        incremental => run_publish(&args, threads, &work, incremental == "remap", &mut report),
    });
    report.note(format!(
        "host probe: {probe_before:.1} ms before the run, {:.1} ms after (a fixed loop; \
         slower means a slower host)",
        report::host_probe_ms()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    if let Err(e) = outcome {
        report.fail(format!("run aborted: {e}"));
    }
    let correct = report.print(args.trace);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Runs `setup` [`SETUPS`] times (dropping each result before the next
/// starts), books the median as `setup_s`, and returns the last set-up.
fn set_up<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", stats::median(&times).expect("SETUPS > 0"));
    report.note(format!("set-up times {times:.4?} s"));
    Ok(last.expect("SETUPS > 0"))
}

/// Repeats one operation until the phase has run for `budget` and at
/// least [`MIN_OPS`] operations have run (a traced run alternates
/// untraced and traced operations, at least [`MIN_OPS_TRACED`] of
/// each). Per operation: `prepare` runs untimed, `op` runs timed inside
/// a root span named `root` (it gets the tracer to use and the root's
/// id), and `after` runs untimed with the seconds taken, the root id
/// when traced, and both results. Books `peak_rss_mib`: the peak RSS of
/// each operation plus its `after` (the mark is reset before each),
/// median over operations.
#[allow(clippy::too_many_arguments)]
fn repeat_ops<P, T>(
    report: &mut Report,
    traced_run: bool,
    tracer: &Tracer,
    root: &'static str,
    budget: Duration,
    mut prepare: impl FnMut() -> Result<P, String>,
    mut op: impl FnMut(&Tracer, SpanId) -> Result<T, String>,
    mut after: impl FnMut(&mut Report, f64, Option<SpanId>, P, T),
) {
    let quiet = Tracer::new(false);
    let min_ops = if traced_run {
        2 * MIN_OPS_TRACED
    } else {
        MIN_OPS
    };
    let phase = Instant::now();
    let mut peaks = Vec::new();
    let mut i = 0;
    while i < min_ops || phase.elapsed() < budget {
        let traced = traced_run && i % 2 == 1;
        i += 1;
        let prepared = match prepare() {
            Ok(p) => p,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        let t = if traced { tracer } else { &quiet };
        report::release_free_memory();
        let rss_reset = report::reset_peak_rss();
        let started = Instant::now();
        let (id, result) = t.span(root, 0, |id| (id, op(t, id)));
        let secs = started.elapsed().as_secs_f64();
        match result {
            Ok(value) => after(report, secs, traced.then_some(id), prepared, value),
            Err(e) => report.fail(e),
        }
        if let Some(peak) = report::peak_rss_mib().filter(|_| rss_reset) {
            peaks.push(peak);
        }
    }
    report.set("peak_rss_mib", stats::median(&peaks).unwrap_or(f64::NAN));
}

/// What must repeat exactly across publishes of one seed.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    digest: String,
    written: u64,
    llm_calls: u64,
    fetched_urls: u64,
    delta: Option<publish::DeltaSummary>,
}

/// One publish, as the report needs it after the phase.
struct PublishRow {
    secs: f64,
    root: Option<SpanId>,
    fetches: u64,
    values: BTreeMap<&'static str, f64>,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// The per-layer numbers of one publish that come from counters and
/// files rather than spans.
fn publish_counters(p: &Published, dirs: &OpDirs) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    v.insert("websim.fetches", p.fetches as f64);
    v.insert(
        "websim.duplicate_fetches",
        p.fetches.saturating_sub(p.fetched_urls) as f64,
    );
    v.insert(
        "websim.url_cache_hit_ratio",
        ratio(p.url_cache.hits, p.url_cache.misses),
    );
    v.insert("websim.entries_abandoned", p.entries_abandoned as f64);
    v.insert("llmsim.calls", p.llm_calls as f64);
    v.insert(
        "llmsim.cache_hit_ratio",
        ratio(p.llm_cache.hits, p.llm_cache.misses),
    );
    if let Some(d) = p.delta {
        v.insert("core.delta.dirty_records", d.dirty_records as f64);
        let memo = d.memo_reused + d.memo_recomputed;
        v.insert(
            "core.delta.memo_reuse_ratio",
            d.memo_reused as f64 / memo.max(1) as f64,
        );
        let edges = d.edges_retained + d.edges_rederived;
        v.insert(
            "core.delta.edges_retained_ratio",
            d.edges_retained as f64 / edges.max(1) as f64,
        );
    }
    let size = |path: &Path| std::fs::metadata(path).map_or(0, |m| m.len()) as f64;
    v.insert("core.state_mib", size(&dirs.state.join("state.json")) / MIB);
    v.insert("store.artifact_mib", size(&dirs.artifact) / MIB);
    let deltas: u64 = publish::file_table(&dirs.timeline.join("deltas"))
        .values()
        .map(|(_, len)| len)
        .sum();
    v.insert("timeline.delta_kib", deltas as f64 / 1024.0);
    v
}

/// Per-operation numbers read from the spans under one traced root:
/// layer durations, pipeline-call self times (time with no remote call in
/// flight), remote busy/wait splits, and the attribution balance —
/// the share of the operation its top-level layer spans cover.
fn span_values(trace: &Trace, root: SpanId) -> BTreeMap<&'static str, f64> {
    let spans = trace.descendants(root);
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let sum = |name| ms(named(name).map(|s| s.duration()).sum());
    let self_of = |name| ms(named(name).map(|s| trace.self_time(s)).sum());
    let union = |name| {
        let intervals: Vec<(u64, u64)> = named(name).map(|s| s.interval()).collect();
        ms(stats::union_len(&intervals))
    };
    let present = |name| named(name).next().is_some();
    let mut v = BTreeMap::new();
    for (metric, span) in [
        ("synthnet.load_ms", "synthnet.load"),
        ("core.ingest_ms", "core.ingest"),
        ("core.remap_ms", "core.remap"),
        ("core.state_load_ms", "core.state_load"),
        ("core.state_save_ms", "core.state_save"),
        ("core.materialize_ms", "core.materialize"),
        ("core.mapfile_ms", "core.mapfile"),
        ("core.to_world_ms", "core.to_world"),
        ("timeline.append_ms", "timeline.append"),
        ("store.write_ms", "store.write"),
        ("store.load_ms", "store.load"),
        ("store.replay_ms", "store.replay"),
        ("serve.start_ms", "serve.start"),
        ("serve.healthz_ms", "serve.healthz"),
        ("websim.fetch_wait_ms", "websim.wait"),
        ("llmsim.wait_ms", "llmsim.wait"),
    ] {
        if present(span) {
            v.insert(metric, sum(span));
        }
    }
    // Pipeline-call time with no remote call in flight, and remote calls'
    // time beyond their modeled wait.
    for (metric, span) in [
        ("core.ingest_self_ms", "core.ingest"),
        ("core.remap_self_ms", "core.remap"),
        ("websim.fetch_busy_ms", "websim.fetch"),
        ("llmsim.busy_ms", "llmsim.complete"),
    ] {
        if present(span) {
            v.insert(metric, self_of(span));
        }
    }
    if present("websim.fetch") {
        v.insert("websim.crawl_ms", union("websim.fetch"));
    }
    let root_span = trace.get(root).expect("root span recorded");
    let unattributed = trace.self_time(root_span);
    v.insert("trace.unattributed_ms", ms(unattributed));
    v.insert(
        "coverage_pct",
        100.0 * (1.0 - unattributed as f64 / root_span.duration().max(1) as f64),
    );
    v
}

/// Books the median across operations of every value in `rows`,
/// renaming the attribution balance to `coverage_name`; fails the run
/// when the median coverage is under 95%.
fn book_medians(
    report: &mut Report,
    rows: &[BTreeMap<&'static str, f64>],
    coverage_name: &'static str,
) {
    let keys: std::collections::BTreeSet<&'static str> =
        rows.iter().flat_map(|r| r.keys().copied()).collect();
    for key in keys {
        let values: Vec<f64> = rows.iter().filter_map(|r| r.get(key).copied()).collect();
        let Some(median) = stats::median(&values) else {
            continue;
        };
        if key == "coverage_pct" {
            report.set(coverage_name, median);
            report.note(format!(
                "{coverage_name}: layers cover {median:.2}% of the operation"
            ));
            if median < 95.0 {
                report.fail(format!("{coverage_name} {median:.2}% is under 95%"));
            }
        } else {
            report.set(key, median);
        }
    }
}

/// Tracing overhead: traced operations' median over untraced ones'.
fn book_overhead(report: &mut Report, rows: &[(f64, bool)]) {
    let pick =
        |traced: bool| -> Vec<f64> { rows.iter().filter(|r| r.1 == traced).map(|r| r.0).collect() };
    if let (Some(traced), Some(plain)) = (stats::median(&pick(true)), stats::median(&pick(false))) {
        report.set("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
        report.set("trace.traced_ops", pick(true).len() as f64);
        report.note(format!(
            "tracing overhead: traced median {traced:.4} s vs untraced {plain:.4} s"
        ));
    }
}

/// Traffic per publish cycle: 300 open-loop lookups (0.3 s), then
/// 0.6 s of one-client lookups, 0.4 s of `nproc`-client lookups and
/// 0.5 s of evidence queries. The gated windows are the long ones: the
/// host's speed switches within a second, so the more of each cycle
/// they cover, the less a run's figure depends on which phase they hit.
const PUBLISH_WINDOWS: serving::Windows = serving::Windows {
    open_requests: 300,
    latency: Duration::from_millis(600),
    closed: Duration::from_millis(400),
    evidence: Duration::from_millis(500),
};

/// Traffic per serve cycle: as a publish cycle, with evidence queries
/// (O(world) each) given 0.8 s.
const SERVE_WINDOWS: serving::Windows = serving::Windows {
    open_requests: 300,
    latency: Duration::from_millis(600),
    closed: Duration::from_millis(400),
    evidence: Duration::from_millis(800),
};

fn run_publish(
    args: &Args,
    threads: usize,
    work: &Path,
    incremental: bool,
    report: &mut Report,
) -> Result<(), String> {
    let setup = set_up(report, || {
        if incremental {
            publish::setup_remap(work, args.seed, threads)
        } else {
            publish::setup_build(work, args.seed)
        }
    })?;
    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let dirs = OpDirs::new(&work.join("op"));
    let mut first: Option<Fingerprint> = None;
    let mut rows: Vec<PublishRow> = Vec::new();
    let mut traffic = serving::Traffic::default();
    let mut cold_starts: Vec<(f64, Option<SpanId>)> = Vec::new();
    // Each cycle publishes, then cold-starts a server on the artifact
    // just written and drives a round of queries at it (untimed as far
    // as `op_s` goes).
    repeat_ops(
        report,
        args.trace,
        &tracer,
        "publish",
        Duration::from_secs_f64(args.seconds),
        || {
            dirs.reset(setup.genesis.as_deref())?;
            Ok(publish::file_table(&dirs.root))
        },
        |t, root| match &setup.base_state {
            Some(base) => {
                publish::publish_incremental(t, root, threads, &setup.bundle, base, &dirs)
            }
            None => publish::publish_full(t, root, threads, &setup.bundle, &dirs),
        },
        |report, secs, root, before, published| {
            let n = rows.len() + 1;
            let written = publish::bytes_written(&before, &publish::file_table(&dirs.root));
            let mut failures = Vec::new();
            if std::fs::read(&dirs.mapfile).ok().as_deref()
                != Some(setup.reference_mapfile.as_slice())
            {
                failures.push(format!(
                    "publish {n}: mapfile differs from the reference build"
                ));
            }
            let fingerprint = Fingerprint {
                digest: published.digest.clone(),
                written,
                llm_calls: published.llm_calls,
                fetched_urls: published.fetched_urls,
                delta: published.delta,
            };
            match &first {
                None => first = Some(fingerprint),
                Some(f) if *f != fingerprint => failures.push(format!(
                    "publish {n} is not deterministic: {fingerprint:?} != {f:?}"
                )),
                Some(_) => {}
            }
            report.check(1, failures);
            let mut values = publish_counters(&published, &dirs);
            if root.is_some() {
                // The two halves of `write_artifact` alone, fastest of
                // three each, so allocator warm-up does not land in the
                // split. Subtracting one from the write span instead
                // could go negative: the span's encode runs on a world
                // still in cache.
                let fastest = |f: &mut dyn FnMut()| {
                    (0..3)
                        .map(|_| {
                            let started = Instant::now();
                            f();
                            started.elapsed().as_secs_f64() * 1e3
                        })
                        .fold(f64::INFINITY, f64::min)
                };
                let bytes = borges_store::encode_world(&published.world);
                let encode_ms = fastest(&mut || {
                    std::hint::black_box(borges_store::encode_world(&published.world));
                });
                let split = dirs.root.join("write-split.store");
                let mut written_ok = true;
                let write_ms = fastest(&mut || {
                    written_ok &= borges_store::write_atomic(&split, &bytes).is_ok();
                });
                let _ = std::fs::remove_file(&split);
                if !written_ok {
                    report.fail("store write split: write_atomic failed".to_string());
                }
                values.insert("store.encode_ms", encode_ms);
                values.insert("store.write_ms", write_ms);
                match publish::parser_split(&setup.bundle) {
                    Ok(ms) => {
                        let names = [
                            "whois.parse_ms",
                            "peeringdb.parse_ms",
                            "websim.snapshot_parse_ms",
                            "topology.parse_ms",
                        ];
                        values.extend(names.into_iter().zip(ms));
                    }
                    Err(e) => report.fail(e),
                }
            }
            rows.push(PublishRow {
                secs,
                root,
                fetches: published.fetches,
                values,
            });
            drop(published);

            let t = if root.is_some() { &tracer } else { &quiet };
            let started_at = Instant::now();
            let (cold_root, started) = t.span("cold_start", 0, |id| {
                (id, serving::cold_start(t, id, threads, &dirs.artifact))
            });
            cold_starts.push((started_at.elapsed().as_secs_f64(), root.map(|_| cold_root)));
            match started {
                Ok(started) => {
                    let digest = &first.as_ref().expect("set above").digest;
                    serving::check_started(report, &started, digest);
                    traffic.cycle(report, started, &setup.pool, threads, &PUBLISH_WINDOWS);
                }
                Err(e) => report.fail(e),
            }
        },
    );
    let first = first.ok_or("no publish succeeded")?;
    let service = traffic.book(report);
    let plain: Vec<f64> = rows
        .iter()
        .filter(|r| r.root.is_none())
        .map(|r| r.secs)
        .collect();
    let op_s = stats::median(&plain).unwrap_or(f64::NAN);
    report.set("op_s", op_s);
    report.set(if incremental { "remap_s" } else { "build_s" }, op_s);
    let cold: Vec<f64> = cold_starts
        .iter()
        .filter(|c| c.1.is_none())
        .map(|c| c.0)
        .collect();
    report.set("cold_start_s", stats::median(&cold).unwrap_or(f64::NAN));
    report.set("op_io_mib", first.written as f64 / MIB);
    report.set("written_mib", first.written as f64 / MIB);
    report.set("llm_calls", first.llm_calls as f64);
    let fetches: Vec<f64> = rows.iter().map(|r| r.fetches as f64).collect();
    report.set("fetches", stats::median(&fetches).unwrap_or(f64::NAN));
    report.note(format!(
        "publish times {:.4?} s",
        rows.iter().map(|r| r.secs).collect::<Vec<_>>()
    ));
    report.note(format!(
        "{} publishes ({} untraced); determinism: artifact {} written {} B llm_calls {} fetched_urls {} delta {:?}",
        rows.len(),
        plain.len(),
        first.digest,
        first.written,
        first.llm_calls,
        first.fetched_urls,
        first.delta,
    ));
    let duplicates: Vec<u64> = rows
        .iter()
        .map(|r| r.fetches.saturating_sub(first.fetched_urls))
        .collect();
    report.note(format!(
        "fetches per publish {:?}; duplicate misses racing in the parallel crawl {duplicates:?}",
        rows.iter().map(|r| r.fetches).collect::<Vec<_>>()
    ));

    if args.trace {
        serving::split_serving(
            report,
            &tracer,
            threads,
            &dirs.artifact,
            &setup.pool,
            service,
        )?;
        let trace = Trace::new(tracer.spans());
        report.set("trace.spans", trace.len() as f64);
        let cold: Vec<BTreeMap<&'static str, f64>> = cold_starts
            .iter()
            .filter_map(|c| Some(span_values(&trace, c.1?)))
            .collect();
        book_medians(report, &cold, "trace.cold_start_coverage_pct");
        let traced: Vec<BTreeMap<&'static str, f64>> = rows
            .iter()
            .filter_map(|r| {
                let mut v = span_values(&trace, r.root?);
                v.extend(r.values.clone());
                Some(v)
            })
            .collect();
        book_medians(report, &traced, "trace.publish_coverage_pct");
        let timings: Vec<(f64, bool)> = rows.iter().map(|r| (r.secs, r.root.is_some())).collect();
        book_overhead(report, &timings);
    }
    Ok(())
}

fn run_serve(args: &Args, threads: usize, work: &Path, report: &mut Report) -> Result<(), String> {
    let setup = set_up(report, || serving::setup_serve(work, args.seed, threads))?;
    let tracer = Tracer::new(args.trace);
    let mut rows: Vec<(f64, Option<SpanId>)> = Vec::new();
    let mut traffic = serving::Traffic::default();
    // Each cycle cold-starts a server from the artifact (the timed
    // operation) and drives a round of queries at it.
    repeat_ops(
        report,
        args.trace,
        &tracer,
        "cold_start",
        Duration::from_secs_f64(args.seconds),
        || Ok(()),
        |t, root| serving::cold_start(t, root, threads, &setup.artifact),
        |report, secs, root, (), started| {
            serving::check_started(report, &started, &setup.digest);
            traffic.cycle(report, started, &setup.pool, threads, &SERVE_WINDOWS);
            rows.push((secs, root));
        },
    );
    let service = traffic.book(report);
    let plain: Vec<f64> = rows.iter().filter(|r| r.1.is_none()).map(|r| r.0).collect();
    let op_s = stats::median(&plain).unwrap_or(f64::NAN);
    report.set("op_s", op_s);
    report.set("cold_start_s", op_s);
    report.set("op_io_mib", setup.artifact_bytes as f64 / MIB);
    report.note(format!(
        "{} cold starts ({} untraced) {:.4?} s; artifact {} ({} B)",
        rows.len(),
        plain.len(),
        rows.iter().map(|r| r.0).collect::<Vec<_>>(),
        setup.digest,
        setup.artifact_bytes
    ));

    if args.trace {
        report.set("store.artifact_mib", setup.artifact_bytes as f64 / MIB);
        serving::split_serving(
            report,
            &tracer,
            threads,
            &setup.artifact,
            &setup.pool,
            service,
        )?;
        let trace = Trace::new(tracer.spans());
        report.set("trace.spans", trace.len() as f64);
        let cold: Vec<BTreeMap<&'static str, f64>> = rows
            .iter()
            .filter_map(|r| Some(span_values(&trace, r.1?)))
            .collect();
        book_medians(report, &cold, "trace.cold_start_coverage_pct");
        let timings: Vec<(f64, bool)> = rows.iter().map(|r| (r.0, r.1.is_some())).collect();
        book_overhead(report, &timings);
    }
    Ok(())
}
