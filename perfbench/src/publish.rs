//! The publish path, driven exactly as the CLI drives it:
//!
//! - a full publish is `borges map --state-out DIR --store-out FILE
//!   --timeline DIR` at its defaults (threads = nproc, all features);
//! - an incremental publish is `borges remap --base-state DIR
//!   --out-state DIR --store-out FILE --timeline DIR`.
//!
//! Same public calls, same order, same `Telemetry::sim` context; only
//! the web client and the chat model arrive wrapped in the latency
//! model. Every call into a layer is a span.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use borges_core::ner::NerConfig;
use borges_core::pipeline::{Borges, FeatureSet};
use borges_core::{mapfile, CompiledWorld, SnapshotState};
use borges_llm::{CachingModel, SimLlm};
use borges_synthnet::io::{save, DatasetBundle};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_telemetry::{CacheStats, Telemetry, Verbosity};
use borges_timeline::Timeline;
use borges_websim::{Scraper, SimWebClient};

use crate::queries::QueryPool;
use crate::remote::{LatentModel, LatentWeb};
use crate::trace::{SpanId, Tracer};

/// The LLM seed: the CLI's default `--seed` (the workload seed shapes
/// the world, not the model).
pub const LLM_SEED: u64 = 20240724;
/// Share of ASNs `synthnet::churn` mutates between T and T+1, in percent.
pub const CHURN_PERCENT: f64 = 1.0;
/// The file a state directory holds (the CLI's `STATE_FILE`).
const STATE_FILE: &str = "state.json";

/// An error mapper prefixing `what` to the error text.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The outputs one publish writes, all under one directory.
pub struct OpDirs {
    /// The directory holding everything below.
    pub root: PathBuf,
    /// `--out FILE`.
    pub mapfile: PathBuf,
    /// `--state-out` / `--out-state DIR`.
    pub state: PathBuf,
    /// `--timeline DIR`.
    pub timeline: PathBuf,
    /// `--store-out FILE`.
    pub artifact: PathBuf,
}

impl OpDirs {
    /// The output layout under `root`.
    pub fn new(root: &Path) -> OpDirs {
        OpDirs {
            root: root.to_path_buf(),
            mapfile: root.join("map.psv"),
            state: root.join("state"),
            timeline: root.join("timeline"),
            artifact: root.join("world.store"),
        }
    }

    /// Empties the directory, then seeds the timeline from `genesis`
    /// when given (an incremental publish appends to a genesis-only
    /// chain).
    pub fn reset(&self, genesis: Option<&Path>) -> Result<(), String> {
        if self.root.exists() {
            std::fs::remove_dir_all(&self.root).map_err(err("clear op dir"))?;
        }
        std::fs::create_dir_all(&self.root).map_err(err("create op dir"))?;
        if let Some(genesis) = genesis {
            copy_tree(genesis, &self.timeline)?;
        }
        Ok(())
    }
}

fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(err("create dir"))?;
    for entry in std::fs::read_dir(from).map_err(err("read dir"))? {
        let entry = entry.map_err(err("read dir"))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(err("copy"))?;
        }
    }
    Ok(())
}

/// `(path → (inode, size))` for every file under `dir`.
pub fn file_table(dir: &Path) -> BTreeMap<PathBuf, (u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(next) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&next) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(path),
                Ok(meta) => {
                    out.insert(path, (meta.ino(), meta.len()));
                }
                Err(_) => {}
            }
        }
    }
    out
}

/// Bytes that landed in new files between two [`file_table`]s: new
/// paths, and paths a rename replaced with a new inode.
pub fn bytes_written(
    before: &BTreeMap<PathBuf, (u64, u64)>,
    after: &BTreeMap<PathBuf, (u64, u64)>,
) -> u64 {
    after
        .iter()
        .filter(|(path, (ino, _))| before.get(*path).map(|(i, _)| i) != Some(ino))
        .map(|(_, (_, len))| len)
        .sum()
}

/// What one publish produced, for checking and reporting.
pub struct Published {
    /// Content digest of the store artifact written.
    pub digest: String,
    /// Completions that reached the (latent) model.
    pub llm_calls: u64,
    /// Fetches that reached the (latent) web client.
    pub fetches: u64,
    /// Distinct URLs the crawl fetched (its URL cache's entries).
    pub fetched_urls: u64,
    /// The crawl's URL cache.
    pub url_cache: CacheStats,
    /// The model's response cache.
    pub llm_cache: CacheStats,
    /// Entries the crawl gave up on.
    pub entries_abandoned: u64,
    /// Incremental runs: the delta accounting.
    pub delta: Option<DeltaSummary>,
    /// The compiled world that was written (kept for the encode split).
    pub world: CompiledWorld,
}

/// The slice of `DeltaStats` the report uses; identical across
/// operations of one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaSummary {
    /// Records added, removed or modified between T and T+1.
    pub dirty_records: usize,
    /// LLM replies replayed from the memo.
    pub memo_reused: usize,
    /// LLM calls made.
    pub memo_recomputed: usize,
    /// Edges carried over from retained segments.
    pub edges_retained: usize,
    /// Edges re-derived.
    pub edges_rederived: usize,
}

/// A full publish of `bundle` into `out`, as `borges map` performs it.
pub fn publish_full(
    tracer: &Tracer,
    root: SpanId,
    threads: usize,
    bundle: &Path,
    out: &OpDirs,
) -> Result<Published, String> {
    let tel = Telemetry::sim(Verbosity::Quiet);
    let bundle = tracer
        .span("synthnet.load", root, |_| DatasetBundle::load(bundle))
        .map_err(err("load bundle"))?;
    let llm_calls = AtomicU64::new(0);
    let fetches = AtomicU64::new(0);
    let llm = CachingModel::new(LatentModel::new(SimLlm::new(LLM_SEED), tracer, &llm_calls));
    let web = LatentWeb::new(SimWebClient::browser(&bundle.web), tracer, &fetches);
    let mut borges = tracer.pipeline_span("core.ingest", root, || {
        if threads > 1 {
            Borges::run_parallel_traced(&bundle.whois, &bundle.pdb, web, &llm, threads, &tel)
        } else {
            Borges::run_traced(&bundle.whois, &bundle.pdb, web, &llm, &tel)
        }
    });
    let url_cache = borges.web_cache;
    let entries_abandoned = borges.scrape_stats.entries_abandoned as u64;
    let world = write_outputs(tracer, root, threads, &tel, &mut borges, out)?;
    Ok(Published {
        digest: world.1,
        llm_calls: llm_calls.load(Ordering::Relaxed),
        fetches: fetches.load(Ordering::Relaxed),
        fetched_urls: url_cache.entries,
        url_cache,
        llm_cache: llm.cache_stats(),
        entries_abandoned,
        delta: None,
        world: world.0,
    })
}

/// An incremental publish of `bundle` against the state in
/// `base_state`, into `out`, as `borges remap` performs it.
pub fn publish_incremental(
    tracer: &Tracer,
    root: SpanId,
    threads: usize,
    bundle: &Path,
    base_state: &Path,
    out: &OpDirs,
) -> Result<Published, String> {
    let tel = Telemetry::sim(Verbosity::Quiet);
    let state = tracer.span("core.state_load", root, |_| {
        let text =
            std::fs::read_to_string(base_state.join(STATE_FILE)).map_err(err("read base state"))?;
        SnapshotState::from_json(&text).map_err(err("parse base state"))
    })?;
    let bundle = tracer
        .span("synthnet.load", root, |_| DatasetBundle::load(bundle))
        .map_err(err("load bundle"))?;
    let llm_calls = AtomicU64::new(0);
    let fetches = AtomicU64::new(0);
    let llm = CachingModel::new(LatentModel::new(SimLlm::new(LLM_SEED), tracer, &llm_calls));
    // The CLI re-crawls sequentially before remapping.
    let scraper = Scraper::new(LatentWeb::new(
        SimWebClient::browser(&bundle.web),
        tracer,
        &fetches,
    ));
    let report = tracer.pipeline_span("websim.crawl", root, || {
        scraper.crawl(bundle.pdb.nets().map(|n| (n.asn, n.website.as_str())))
    });
    let mut borges = tracer.pipeline_span("core.remap", root, || {
        Borges::remap_parallel_traced(
            &bundle.whois,
            &bundle.pdb,
            &report,
            &llm,
            NerConfig::default(),
            &state,
            threads,
            &tel,
        )
    });
    let d = borges
        .delta
        .as_ref()
        .ok_or("remap recorded no delta stats")?;
    let delta = DeltaSummary {
        dirty_records: d.records.dirty(),
        memo_reused: d.llm_calls_saved(),
        memo_recomputed: d.ner_recomputed + d.favicon_recomputed,
        edges_retained: d.edge_rows().iter().map(|(_, s)| s.edges_retained).sum(),
        edges_rederived: d.edge_rows().iter().map(|(_, s)| s.edges_rederived).sum(),
    };
    let url_cache = scraper.cache_stats();
    let entries_abandoned = borges.scrape_stats.entries_abandoned as u64;
    let world = write_outputs(tracer, root, threads, &tel, &mut borges, out)?;
    Ok(Published {
        digest: world.1,
        llm_calls: llm_calls.load(Ordering::Relaxed),
        fetches: fetches.load(Ordering::Relaxed),
        fetched_urls: url_cache.entries,
        url_cache,
        llm_cache: llm.cache_stats(),
        entries_abandoned,
        delta: Some(delta),
        world: world.0,
    })
}

/// The shared tail of `map` and `remap`: materialize, write the mapfile
/// and the state, append to the timeline, then write the store artifact
/// (after the append, which stamps the epoch the artifact carries).
fn write_outputs(
    tracer: &Tracer,
    root: SpanId,
    threads: usize,
    tel: &Telemetry,
    borges: &mut Borges,
    out: &OpDirs,
) -> Result<(CompiledWorld, String), String> {
    let mapping = tracer.span("core.materialize", root, |_| {
        borges
            .mappings_parallel_traced(std::slice::from_ref(&FeatureSet::ALL), threads, tel)
            .pop()
            .expect("one feature set in, one mapping out")
    });
    tracer
        .span("core.mapfile", root, |_| {
            borges_store::write_atomic(&out.mapfile, mapfile::serialize(&mapping).as_bytes())
        })
        .map_err(err("write mapfile"))?;
    tracer.span("core.state_save", root, |_| {
        std::fs::create_dir_all(&out.state).map_err(err("create state dir"))?;
        borges_store::write_atomic(
            &out.state.join(STATE_FILE),
            borges.snapshot_state().to_json_pretty().as_bytes(),
        )
        .map_err(err("write state"))
    })?;
    tracer.span("timeline.append", root, |_| {
        let mut timeline = Timeline::open(&out.timeline).map_err(err("open timeline"))?;
        timeline.append(borges).map_err(err("timeline append"))
    })?;
    let world = tracer.span("core.to_world", root, |_| borges.to_world());
    let digest = tracer
        .span("store.write", root, |_| {
            borges_store::write_artifact(&out.artifact, &world)
        })
        .map_err(err("write store artifact"))?;
    Ok((world, digest))
}

/// Inputs and references one publish workload needs, built in set-up.
pub struct PublishSetup {
    /// The bundle each operation publishes (T for build, T+1 for remap).
    pub bundle: PathBuf,
    /// Remap: the state directory T's publish left.
    pub base_state: Option<PathBuf>,
    /// Remap: T's genesis-only timeline, copied fresh per operation.
    pub genesis: Option<PathBuf>,
    /// The mapfile every operation must write, byte for byte.
    pub reference_mapfile: Vec<u8>,
    /// Query mix over the published world, with reference answers.
    pub pool: QueryPool,
}

/// Builds the `build` inputs under `work`: the medium world for `seed`
/// as a bundle, and the reference outputs of a sequential,
/// zero-latency `Borges::run` of that bundle.
pub fn setup_build(work: &Path, seed: u64) -> Result<PublishSetup, String> {
    let bundle_dir = work.join("bundle");
    fresh_dir(&bundle_dir)?;
    let world = SyntheticInternet::generate(&GeneratorConfig::medium(seed));
    save(&world, &bundle_dir).map_err(err("save bundle"))?;
    drop(world);
    let (reference_mapfile, pool) = reference(&bundle_dir, seed)?;
    Ok(PublishSetup {
        bundle: bundle_dir,
        base_state: None,
        genesis: None,
        reference_mapfile,
        pool,
    })
}

/// Builds the `remap` inputs under `work`: the medium world T and its
/// churned successor T+1 as bundles, T's published state and genesis
/// timeline, and the reference outputs of a full build of T+1 (the
/// incremental publish must equal it byte for byte).
pub fn setup_remap(work: &Path, seed: u64, threads: usize) -> Result<PublishSetup, String> {
    let before = work.join("bundle-t");
    let after = work.join("bundle-t1");
    let base_state = work.join("base-state");
    let genesis = work.join("genesis-timeline");
    for dir in [&before, &after, &base_state, &genesis] {
        fresh_dir(dir)?;
    }
    let world = SyntheticInternet::generate(&GeneratorConfig::medium(seed));
    let (successor, _) = churn(&world, CHURN_PERCENT, seed);
    save(&world, &before).map_err(err("save bundle T"))?;
    save(&successor, &after).map_err(err("save bundle T+1"))?;
    drop((world, successor));

    // T's publish at zero latency: the state and the genesis link a
    // `map --state-out --timeline` of T leaves behind.
    let bundle = DatasetBundle::load(&before).map_err(err("load bundle T"))?;
    let llm = CachingModel::new(SimLlm::new(LLM_SEED));
    let mut base = Borges::run_parallel(
        &bundle.whois,
        &bundle.pdb,
        SimWebClient::browser(&bundle.web),
        &llm,
        threads,
    );
    borges_store::write_atomic(
        &base_state.join(STATE_FILE),
        base.snapshot_state().to_json_pretty().as_bytes(),
    )
    .map_err(err("write base state"))?;
    Timeline::open(&genesis)
        .and_then(|mut t| t.append(&mut base))
        .map_err(err("genesis append"))?;
    drop((bundle, base));

    let (reference_mapfile, pool) = reference(&after, seed)?;
    Ok(PublishSetup {
        bundle: after,
        base_state: Some(base_state),
        genesis: Some(genesis),
        reference_mapfile,
        pool,
    })
}

/// The sequential, zero-latency reference for a bundle: its full-feature
/// mapfile and the query mix answered from it.
fn reference(bundle_dir: &Path, seed: u64) -> Result<(Vec<u8>, QueryPool), String> {
    let bundle = DatasetBundle::load(bundle_dir).map_err(err("load bundle"))?;
    let reference = Borges::run(
        &bundle.whois,
        &bundle.pdb,
        SimWebClient::browser(&bundle.web),
        &SimLlm::new(LLM_SEED),
    );
    let mapfile = mapfile::serialize(&reference.mapping(FeatureSet::ALL)).into_bytes();
    let pool = QueryPool::build(&reference, &bundle.asrank, seed);
    Ok((mapfile, pool))
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err("clear dir"))?;
    }
    std::fs::create_dir_all(dir).map_err(err("create dir"))
}

/// Times each parser `DatasetBundle::load` calls, on the bundle's own
/// files: the split of `synthnet.load` into its layers. Milliseconds,
/// in catalogue order (whois, peeringdb, websim snapshot, topology).
pub fn parser_split(bundle: &Path) -> Result<[f64; 4], String> {
    fn timed<T, E: std::fmt::Display>(
        path: PathBuf,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<f64, String> {
        let started = std::time::Instant::now();
        let text = std::fs::read_to_string(&path).map_err(err("read"))?;
        std::hint::black_box(parse(&text).map_err(err("parse"))?);
        Ok(started.elapsed().as_secs_f64() * 1e3)
    }
    Ok([
        timed(
            bundle.join("as2org.txt"),
            borges_whois::as2org_format::parse,
        )?,
        timed(
            bundle.join("peeringdb.json"),
            borges_peeringdb::PdbSnapshot::from_json,
        )?,
        timed(bundle.join("web.json"), borges_websim::snapshot::from_json)?,
        timed(
            bundle.join("as-rel.txt"),
            borges_topology::serial1::parse_with_nodes,
        )?,
    ])
}
