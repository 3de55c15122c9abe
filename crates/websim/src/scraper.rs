//! The bulk crawl engine.
//!
//! §4.3.1 of the paper: Borges loads every website referenced in PeeringDB
//! records, collecting the final URL each settles on and the favicon that
//! final page serves. This module drives any [`WebClient`] over a batch of
//! `(ASN, raw website string)` pairs, de-duplicating identical URLs through
//! a cache, and produces both per-ASN observations and the funnel
//! statistics reported in §5.2 (entries with websites → unique URLs →
//! reachable sites → unique final URLs → unique favicons).
//!
//! [`Scraper::crawl`] waits on up to [`DEFAULT_IN_FLIGHT`] fetches at
//! once, one host at a time, and folds the outcomes in input order
//! through a [`ReportAssembler`], so its report is the one sending every
//! fetch one at a time, in input order, would produce.
//!
//! The crawl degrades gracefully: an entry whose fetch fails at the
//! transport layer (after whatever retries the client stack performs) is
//! *abandoned* — counted in [`ScrapeStats::entries_abandoned`], dropped
//! from the observations, and the crawl proceeds. Nothing panics; nothing
//! disappears silently.

use crate::client::{FetchResult, WebClient};
use borges_parallel::{stream_indexed, DEFAULT_IN_FLIGHT};
use borges_resilience::{stable_hash, ResilienceStats, TransportError};
use borges_telemetry::CacheStats;
use borges_types::{Asn, FaviconHash, Url};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// What the crawl observed for one network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapedSite {
    /// The URL parsed from the PeeringDB `website` field.
    pub requested: Url,
    /// Where the browser ended up, when the site answered.
    pub final_url: Option<Url>,
    /// The favicon of the final page, when it serves one.
    pub favicon: Option<FaviconHash>,
}

/// Funnel statistics for a crawl, mirroring the §5.2 narrative.
///
/// # Merging
///
/// Stats combine with `+=` for accumulating funnels across *disjoint*
/// crawl batches (e.g. per-region shards of a production crawl). The
/// `unique_*` fields are distinct counts *within each batch*; summing them
/// is exact only when the batches share no URLs/favicons. Concretely: if
/// batch A crawls `{limelight.com, gone.example}` and batch B crawls
/// `{limelight.com, cogentco.com}`, the merged `unique_urls` is
/// 2 + 2 = 4, but a single crawl of the union would report 3 — the shared
/// `limelight.com` is double-counted. The merge still *debug-asserts* the
/// funnel's monotonicity invariants (each stage no larger than the one
/// above it), which hold for any merge; what overlap breaks is only the
/// "distinct across the union" reading. See the
/// `overlapping_batches_overcount_the_funnel` test for the pinned
/// semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrapeStats {
    /// Input pairs whose website field held a parseable URL.
    pub entries_with_website: usize,
    /// Input pairs whose website field was present but unparseable.
    pub entries_with_invalid_url: usize,
    /// Input pairs whose fetch failed at the transport layer after all
    /// recovery was exhausted — abandoned, not silently dropped.
    pub entries_abandoned: usize,
    /// Distinct requested URLs (the paper: 24,200 unique URLs).
    pub unique_urls: usize,
    /// Distinct requested URLs that resolved to a page (paper: 20,742).
    pub reachable_urls: usize,
    /// Distinct final URLs (paper: 20,094).
    pub unique_final_urls: usize,
    /// Distinct final URLs serving a favicon.
    pub final_urls_with_favicon: usize,
    /// Distinct favicons (paper: 14,516).
    pub unique_favicons: usize,
    /// What the resilient client stack spent getting here (zero when the
    /// crawl ran over a bare client).
    pub resilience: ResilienceStats,
}

impl ScrapeStats {
    /// The funnel's internal ordering: every stage is at most as large as
    /// the stage above it. These hold for a single crawl *and* for any
    /// `+=`-merge of crawls (sums preserve `<=`), so a violation always
    /// means corrupted accounting rather than batch overlap.
    fn debug_check_funnel(&self) {
        debug_assert!(self.unique_urls <= self.entries_with_website);
        debug_assert!(self.reachable_urls <= self.unique_urls);
        debug_assert!(self.unique_final_urls <= self.reachable_urls);
        debug_assert!(self.final_urls_with_favicon <= self.unique_final_urls);
        debug_assert!(self.unique_favicons <= self.final_urls_with_favicon);
        debug_assert!(self.entries_abandoned <= self.entries_with_website);
    }
}

impl std::ops::AddAssign for ScrapeStats {
    fn add_assign(&mut self, rhs: Self) {
        // Full destructuring: adding a field to ScrapeStats without
        // deciding how it merges is a compile error here.
        let ScrapeStats {
            entries_with_website,
            entries_with_invalid_url,
            entries_abandoned,
            unique_urls,
            reachable_urls,
            unique_final_urls,
            final_urls_with_favicon,
            unique_favicons,
            resilience,
        } = rhs;
        self.entries_with_website += entries_with_website;
        self.entries_with_invalid_url += entries_with_invalid_url;
        self.entries_abandoned += entries_abandoned;
        self.unique_urls += unique_urls;
        self.reachable_urls += reachable_urls;
        self.unique_final_urls += unique_final_urls;
        self.final_urls_with_favicon += final_urls_with_favicon;
        self.unique_favicons += unique_favicons;
        self.resilience += resilience;
        self.debug_check_funnel();
    }
}

/// The result of a crawl.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrapeReport {
    /// Per-ASN observations, for ASNs whose website parsed and whose fetch
    /// completed (abandoned entries appear only in the stats).
    pub sites: BTreeMap<Asn, ScrapedSite>,
    /// Funnel statistics.
    pub stats: ScrapeStats,
}

impl ScrapeReport {
    /// Groups ASNs by canonical final URL — the input of final-URL matching
    /// (§4.3.2). Only ASNs that landed on a page appear.
    pub fn asns_by_final_url(&self) -> BTreeMap<String, Vec<Asn>> {
        let mut map: BTreeMap<String, Vec<Asn>> = BTreeMap::new();
        for (asn, site) in &self.sites {
            if let Some(final_url) = &site.final_url {
                map.entry(final_url.canonical()).or_default().push(*asn);
            }
        }
        map
    }

    /// Groups final URLs (with their ASNs) by favicon — the input of the
    /// favicon decision tree (§4.3.3).
    pub fn asns_by_favicon(&self) -> BTreeMap<FaviconHash, Vec<(Url, Asn)>> {
        let mut map: BTreeMap<FaviconHash, Vec<(Url, Asn)>> = BTreeMap::new();
        for (asn, site) in &self.sites {
            if let (Some(final_url), Some(favicon)) = (&site.final_url, site.favicon) {
                map.entry(favicon)
                    .or_default()
                    .push((final_url.clone(), *asn));
            }
        }
        map
    }
}

/// The crawl engine. Wraps a [`WebClient`] with a fetch cache so each
/// distinct URL is loaded once regardless of how many networks reference
/// it. Terminal transport errors are cached too (negative caching): once
/// the client stack has exhausted its budget on a URL, other entries
/// referencing it share the verdict instead of re-hammering the host.
pub struct Scraper<C> {
    client: C,
    cache: Mutex<HashMap<String, Result<FetchResult, TransportError>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl<C: WebClient> Scraper<C> {
    /// Creates a scraper over a client.
    pub fn new(client: C) -> Self {
        Scraper {
            client,
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// Fetches one URL through the cache.
    pub fn fetch_cached(&self, url: &Url) -> Result<FetchResult, TransportError> {
        let key = url.canonical();
        if let Some(hit) = self.cache.lock().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let result = self.client.fetch(url);
        self.cache.lock().insert(key, result.clone());
        result
    }

    /// Hit/miss counters for the fetch (redirect) cache. The cache is
    /// unbounded, so `evictions` is always 0. Every crawl path fetches a
    /// given URL's entries one at a time (a pooled crawl serializes them
    /// per host), so each distinct URL misses exactly once.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: 0,
            entries: self.cache.lock().len() as u64,
        }
    }

    /// Fetches one crawl entry through the cache — the per-entry unit of
    /// crawl work. Public so the pooled ingest engine can schedule
    /// resolutions individually (per-host FIFO, within an in-flight
    /// budget, alongside its LLM calls) and feed the outcomes to a
    /// [`ReportAssembler`], as [`Scraper::crawl`] does. In a production
    /// deployment the pool is where the headless browsers sit.
    pub fn resolve(&self, entry: &CrawlEntry) -> Resolution {
        match &entry.website {
            Website::Empty => Resolution::Empty,
            Website::Invalid => Resolution::Invalid,
            Website::Url(url) => match self.fetch_cached(url) {
                Ok(fetched) => Resolution::Fetched(Box::new((url.clone(), fetched))),
                Err(e) => Resolution::Failed(url.clone(), e),
            },
        }
    }
}

impl<C: WebClient + Sync> Scraper<C> {
    /// Crawls a batch of `(asn, raw website field)` pairs on a pool of
    /// [`DEFAULT_IN_FLIGHT`] workers, each waiting on one fetch; the
    /// report and [`Scraper::cache_stats`] are those of resolving every
    /// entry one at a time, in input order, byte for byte.
    ///
    /// Entries with empty or unparseable website fields are counted in
    /// the stats but produce no observation — exactly how a scraper must
    /// treat operator junk. Entries whose fetch fails at the transport
    /// layer are likewise counted ([`ScrapeStats::entries_abandoned`])
    /// and skipped: the crawl completes on partial evidence rather than
    /// dying.
    ///
    /// Entries are keyed by host ([`CrawlEntry::key`]): a host's fetches
    /// start one at a time, in input order, while different hosts
    /// overlap. The URL cache, negative caching and everything else the
    /// client keeps *per host* (a [`crate::FlakyWebClient`]'s fault
    /// episodes, the breakers of a [`crate::RetryingWebClient`]) therefore
    /// see each host's sequential call sequence, and the outcomes are
    /// folded in input order. The client must keep no state across
    /// hosts.
    pub fn crawl<'a>(&self, entries: impl IntoIterator<Item = (Asn, &'a str)>) -> ScrapeReport {
        let entries: Vec<CrawlEntry> = entries
            .into_iter()
            .map(|(asn, raw)| CrawlEntry::new(asn, raw))
            .collect();
        let mut assembler = ReportAssembler::new();
        stream_indexed(
            &entries,
            DEFAULT_IN_FLIGHT,
            CrawlEntry::key,
            |_, entry| self.resolve(entry),
            |index, resolution| assembler.push(entries[index].asn, resolution),
        );
        assembler.finish()
    }
}

/// What a website field holds once parsed.
#[derive(Debug)]
enum Website {
    /// Empty after trimming.
    Empty,
    /// Present but not a URL.
    Invalid,
    /// A URL to fetch.
    Url(Url),
}

/// One `(asn, raw website field)` entry of a crawl, parsed once: its URL
/// and its FIFO key are computed here, because a pooled crawl's
/// scheduler reads the key under its lock on every claim scan and must
/// not parse a URL there.
#[derive(Debug)]
pub struct CrawlEntry {
    /// The network whose website field this is.
    pub asn: Asn,
    website: Website,
    key: u64,
}

impl CrawlEntry {
    /// Parses `raw` (trimmed) as the website of `asn`.
    pub fn new(asn: Asn, raw: &str) -> Self {
        let trimmed = raw.trim();
        let website = if trimmed.is_empty() {
            Website::Empty
        } else {
            match trimmed.parse::<Url>() {
                Ok(url) => Website::Url(url),
                Err(_) => Website::Invalid,
            }
        };
        let key = match &website {
            Website::Url(url) => stable_hash(url.host().as_str().as_bytes()),
            Website::Empty | Website::Invalid => stable_hash(raw.as_bytes()),
        };
        CrawlEntry { asn, website, key }
    }

    /// The FIFO-serialization key: the host hash for entries that fetch
    /// (the key per-host breakers and fault episodes use), a hash of the
    /// raw field for entries that never reach the network.
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// The per-entry outcome of parsing + fetching a website field.
#[derive(Debug, Clone)]
pub enum Resolution {
    /// The website field was empty (after trimming).
    Empty,
    /// The website field did not parse as a URL.
    Invalid,
    /// The fetch completed (boxed to keep the variant small).
    Fetched(Box<(Url, FetchResult)>),
    /// The fetch failed at the transport layer after all recovery.
    Failed(Url, TransportError),
}

/// Incrementally folds resolved entries into a [`ScrapeReport`].
///
/// `push` entries in canonical input order (a pool's reassembly buffer
/// guarantees it), then `finish`. Every crawl path — [`Scraper::crawl`]
/// and the pooled ingest — folds through this one assembler, so any
/// crawl that pushes in input order produces a byte-identical report.
#[derive(Debug, Default)]
pub struct ReportAssembler {
    report: ScrapeReport,
    requested: BTreeSet<String>,
    reachable: BTreeSet<String>,
    finals: BTreeSet<String>,
    finals_with_icon: BTreeSet<String>,
    favicons: BTreeSet<FaviconHash>,
}

impl ReportAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one entry's resolution.
    pub fn push(&mut self, asn: Asn, resolution: Resolution) {
        let (url, fetched) = match resolution {
            Resolution::Empty => return,
            Resolution::Invalid => {
                self.report.stats.entries_with_invalid_url += 1;
                return;
            }
            Resolution::Failed(url, _error) => {
                // The URL was real and we tried: it stays in the funnel's
                // top stages, but produces no observation. abandoned +
                // observed == entries_with_website, always.
                self.report.stats.entries_with_website += 1;
                self.report.stats.entries_abandoned += 1;
                self.requested.insert(url.canonical());
                return;
            }
            Resolution::Fetched(boxed) => *boxed,
        };
        self.report.stats.entries_with_website += 1;
        self.requested.insert(url.canonical());
        if fetched.is_ok() {
            self.reachable.insert(url.canonical());
        }
        if let Some(final_url) = &fetched.final_url {
            self.finals.insert(final_url.canonical());
            if let Some(icon) = fetched.favicon {
                self.finals_with_icon.insert(final_url.canonical());
                self.favicons.insert(icon);
            }
        }
        self.report.sites.insert(
            asn,
            ScrapedSite {
                requested: url,
                final_url: fetched.final_url,
                favicon: fetched.favicon,
            },
        );
    }

    /// Seals the funnel's distinct-count stages and returns the report.
    pub fn finish(self) -> ScrapeReport {
        let mut report = self.report;
        report.stats.unique_urls = self.requested.len();
        report.stats.reachable_urls = self.reachable.len();
        report.stats.unique_final_urls = self.finals.len();
        report.stats.final_urls_with_favicon = self.finals_with_icon.len();
        report.stats.unique_favicons = self.favicons.len();
        report.stats.debug_check_funnel();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SimWebClient;
    use crate::hosting::SimWeb;
    use crate::site::RedirectKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn icon(name: &str) -> FaviconHash {
        FaviconHash::of_bytes(name.as_bytes())
    }

    /// The reference fold: every entry resolved one at a time, in input
    /// order, through one assembler.
    fn fold_in_order<C: WebClient>(scraper: &Scraper<C>, entries: &[(Asn, &str)]) -> ScrapeReport {
        let mut assembler = ReportAssembler::new();
        for &(asn, raw) in entries {
            assembler.push(asn, scraper.resolve(&CrawlEntry::new(asn, raw)));
        }
        assembler.finish()
    }

    fn web() -> SimWeb {
        SimWeb::builder()
            .page("www.edg.io", Some(icon("edgio")))
            .redirect(
                "www.limelight.com",
                "https://www.edg.io/",
                RedirectKind::Http,
            )
            .redirect(
                "www.edgecast.com",
                "https://www.edg.io/",
                RedirectKind::JavaScript,
            )
            .page("www.cogentco.com", Some(icon("cogent")))
            .down("www.gone.example")
            .build()
    }

    #[test]
    fn crawl_collects_final_urls_and_favicons() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(15133), "www.edgecast.com"),
            (Asn::new(174), "https://www.cogentco.com/"),
            (Asn::new(99), "www.gone.example"),
            (Asn::new(98), ""),
            (Asn::new(97), "not a url at all"),
        ]);
        // The Limelight/Edgecast merger becomes visible: same final URL.
        let groups = report.asns_by_final_url();
        let edgio = groups.get("https://www.edg.io/").unwrap();
        assert_eq!(edgio, &vec![Asn::new(15133), Asn::new(22822)]);

        assert_eq!(report.stats.entries_with_website, 4);
        assert_eq!(report.stats.entries_with_invalid_url, 1);
        assert_eq!(report.stats.entries_abandoned, 0);
        assert_eq!(report.stats.unique_urls, 4);
        assert_eq!(report.stats.reachable_urls, 3);
        assert_eq!(report.stats.unique_final_urls, 2);
        assert_eq!(report.stats.unique_favicons, 2);
    }

    #[test]
    fn dead_sites_yield_no_observation_urls() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![(Asn::new(99), "www.gone.example")]);
        let site = report.sites.get(&Asn::new(99)).unwrap();
        assert!(site.final_url.is_none());
        assert!(site.favicon.is_none());
        assert_eq!(report.stats.unique_final_urls, 0);
    }

    #[test]
    fn favicon_grouping_carries_urls() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(174), "www.cogentco.com"),
        ]);
        let by_icon = report.asns_by_favicon();
        assert_eq!(by_icon.len(), 2);
        let edgio_group = by_icon.get(&icon("edgio")).unwrap();
        assert_eq!(edgio_group.len(), 1);
        assert_eq!(edgio_group[0].1, Asn::new(22822));
    }

    #[test]
    fn cache_deduplicates_fetches() {
        struct CountingClient<'w> {
            inner: SimWebClient<'w>,
            calls: AtomicUsize,
        }
        impl WebClient for CountingClient<'_> {
            fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.fetch(url)
            }
        }
        let web = web();
        let counting = CountingClient {
            inner: SimWebClient::browser(&web),
            calls: AtomicUsize::new(0),
        };
        let scraper = Scraper::new(&counting);
        scraper.crawl(vec![
            (Asn::new(1), "www.cogentco.com"),
            (Asn::new(2), "www.cogentco.com"),
            (Asn::new(3), "http://www.cogentco.com/"),
        ]);
        // All three normalize to the same canonical URL → exactly one fetch.
        assert_eq!(counting.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        assert_eq!(scraper.cache_stats(), CacheStats::default());
        scraper.crawl(vec![
            (Asn::new(1), "www.cogentco.com"),
            (Asn::new(2), "www.cogentco.com"),
            (Asn::new(3), "http://www.cogentco.com/"),
            (Asn::new(4), "www.gone.example"),
        ]);
        let stats = scraper.cache_stats();
        assert_eq!(stats.misses, 2, "two distinct canonical URLs fetched");
        assert_eq!(stats.hits, 2, "two entries reused the cogentco result");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0, "the fetch cache is unbounded");
        // Negative caching counts as a hit too.
        let url: Url = "www.gone.example".parse().unwrap();
        let _ = scraper.fetch_cached(&url);
        assert_eq!(scraper.cache_stats().hits, 3);
    }

    #[test]
    fn transport_failures_are_abandoned_not_dropped() {
        /// Fails permanently for one host, passes everything else through.
        struct BlockingClient<'w> {
            inner: SimWebClient<'w>,
            blocked_host: &'static str,
        }
        impl WebClient for BlockingClient<'_> {
            fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
                if url.host().as_str() == self.blocked_host {
                    Err(TransportError::Forbidden)
                } else {
                    self.inner.fetch(url)
                }
            }
        }
        let web = web();
        let client = BlockingClient {
            inner: SimWebClient::browser(&web),
            blocked_host: "www.limelight.com",
        };
        let scraper = Scraper::new(&client);
        let report = scraper.crawl(vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(174), "www.cogentco.com"),
            (Asn::new(97), "not a url at all"),
        ]);
        // The blocked entry is accounted, not silently dropped…
        assert_eq!(report.stats.entries_with_website, 2);
        assert_eq!(report.stats.entries_abandoned, 1);
        assert_eq!(report.stats.unique_urls, 2);
        // …and produces no observation.
        assert!(!report.sites.contains_key(&Asn::new(22822)));
        assert!(report.sites.contains_key(&Asn::new(174)));
        // abandoned + observed == entries_with_website.
        assert_eq!(
            report.stats.entries_abandoned + report.sites.len(),
            report.stats.entries_with_website
        );
    }

    #[test]
    fn parallel_crawl_is_identical_to_sequential() {
        // The pooled crawl — resolutions keyed per host on a pool of
        // `DEFAULT_IN_FLIGHT` workers, folded in entry order as they
        // release — against the one-at-a-time fold, over several runs
        // (each schedules differently).
        let web = web();
        let entries = vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(15133), "www.edgecast.com"),
            (Asn::new(174), "www.cogentco.com"),
            (Asn::new(23), "http://www.cogentco.com/"),
            (Asn::new(99), "www.gone.example"),
            (Asn::new(98), ""),
            (Asn::new(97), "not a url at all"),
        ];
        let reference = Scraper::new(SimWebClient::browser(&web));
        let sequential = fold_in_order(&reference, &entries);
        assert_eq!(reference.cache_stats().hits, 1);
        for run in 0..4 {
            let scraper = Scraper::new(SimWebClient::browser(&web));
            assert_eq!(
                scraper.crawl(entries.clone()),
                sequential,
                "diverged on run {run}"
            );
            // Per-host FIFO: the repeated cogentco URL hits the cache.
            assert_eq!(scraper.cache_stats(), reference.cache_stats());
        }
    }

    #[test]
    fn crawl_fills_the_in_flight_budget_one_fetch_per_host() {
        use std::sync::{Condvar, Mutex as StdMutex};
        use std::time::{Duration, Instant};

        #[derive(Default)]
        struct InFlight {
            total: usize,
            high_water: usize,
            per_host: HashMap<String, usize>,
            per_host_high_water: usize,
        }
        /// Counts fetches in flight, globally and per host. Each fetch
        /// is held until `DEFAULT_IN_FLIGHT` fetches have been in flight
        /// at once, or a deadline passes: a crawl that never fills its
        /// budget fails the assertions below instead of hanging.
        struct ConcurrencyProbe<'w> {
            inner: SimWebClient<'w>,
            state: StdMutex<InFlight>,
            filled: Condvar,
            deadline: Instant,
        }
        impl WebClient for ConcurrencyProbe<'_> {
            fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
                let host = url.host().as_str().to_string();
                let mut state = self.state.lock().expect("no fetch panics holding the lock");
                state.total += 1;
                state.high_water = state.high_water.max(state.total);
                let on_host = state.per_host.entry(host.clone()).or_insert(0);
                *on_host += 1;
                let on_host = *on_host;
                state.per_host_high_water = state.per_host_high_water.max(on_host);
                self.filled.notify_all();
                while state.high_water < DEFAULT_IN_FLIGHT {
                    let left = self.deadline.saturating_duration_since(Instant::now());
                    if left == Duration::ZERO {
                        break;
                    }
                    state = self
                        .filled
                        .wait_timeout(state, left)
                        .expect("no fetch panics holding the lock")
                        .0;
                }
                state.total -= 1;
                *state.per_host.get_mut(&host).expect("counted above") -= 1;
                drop(state);
                self.inner.fetch(url)
            }
        }

        // Twice as many hosts as the budget, and one host with two
        // distinct URLs at the front of the batch, where a pool without
        // per-host keying would start both at once.
        let hosts = 2 * DEFAULT_IN_FLIGHT;
        let mut builder = SimWeb::builder();
        for i in 0..hosts {
            builder = builder.page(&format!("h{i}.example"), Some(icon(&format!("h{i}"))));
        }
        let web = builder.build();
        let mut raws = vec![
            "https://h0.example/a".to_string(),
            "https://h0.example/b".to_string(),
        ];
        raws.extend((1..hosts).map(|i| format!("https://h{i}.example/")));
        let entries: Vec<(Asn, &str)> = raws
            .iter()
            .enumerate()
            .map(|(i, raw)| (Asn::new(64500 + i as u32), raw.as_str()))
            .collect();

        let probe = ConcurrencyProbe {
            inner: SimWebClient::browser(&web),
            state: StdMutex::new(InFlight::default()),
            filled: Condvar::new(),
            deadline: Instant::now() + Duration::from_secs(5),
        };
        let scraper = Scraper::new(&probe);
        let report = scraper.crawl(entries.clone());
        let state = probe.state.lock().expect("no fetch panicked");
        assert_eq!(
            state.high_water, DEFAULT_IN_FLIGHT,
            "the crawl never had its whole budget in flight"
        );
        assert_eq!(
            state.per_host_high_water, 1,
            "two fetches were in flight on one host"
        );
        let reference = Scraper::new(SimWebClient::browser(&web));
        assert_eq!(report, fold_in_order(&reference, &entries));
        assert_eq!(scraper.cache_stats(), reference.cache_stats());
    }

    #[test]
    fn stats_accumulate_across_disjoint_batches() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let batch_a = vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(99), "www.gone.example"),
        ];
        let batch_b = vec![
            (Asn::new(174), "www.cogentco.com"),
            (Asn::new(97), "not a url at all"),
        ];
        let combined: Vec<_> = batch_a.iter().chain(&batch_b).cloned().collect();

        let mut summed = scraper.crawl(batch_a).stats;
        summed += scraper.crawl(batch_b).stats;
        // Disjoint URL sets → the funnel sums exactly.
        let fresh = Scraper::new(SimWebClient::browser(&web));
        assert_eq!(summed, fresh.crawl(combined).stats);
    }

    /// Pins the documented `+=` caveat: merging batches that *share* URLs
    /// overcounts the `unique_*` stages relative to a single crawl of the
    /// union, while the per-entry counters still sum exactly.
    #[test]
    fn overlapping_batches_overcount_the_funnel() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        // Both batches crawl limelight.com — the overlap.
        let batch_a = vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(99), "www.gone.example"),
        ];
        let batch_b = vec![
            (Asn::new(23), "www.limelight.com"),
            (Asn::new(174), "www.cogentco.com"),
        ];
        let union = vec![
            (Asn::new(22822), "www.limelight.com"),
            (Asn::new(99), "www.gone.example"),
            (Asn::new(23), "www.limelight.com"),
            (Asn::new(174), "www.cogentco.com"),
        ];

        let mut summed = scraper.crawl(batch_a).stats;
        summed += scraper.crawl(batch_b).stats;
        let single = Scraper::new(SimWebClient::browser(&web)).crawl(union).stats;

        // Per-entry counters sum exactly regardless of overlap…
        assert_eq!(summed.entries_with_website, single.entries_with_website);
        // …but every distinct-count stage double-counts the shared URL.
        assert_eq!(single.unique_urls, 3);
        assert_eq!(summed.unique_urls, 4);
        assert_eq!(single.reachable_urls, 2);
        assert_eq!(summed.reachable_urls, 3);
        assert_eq!(single.unique_favicons, 2);
        assert_eq!(summed.unique_favicons, 3);
    }

    #[test]
    fn whitespace_websites_are_skipped_silently() {
        let web = web();
        let scraper = Scraper::new(SimWebClient::browser(&web));
        let report = scraper.crawl(vec![(Asn::new(1), "   ")]);
        assert!(report.sites.is_empty());
        assert_eq!(report.stats.entries_with_website, 0);
        assert_eq!(report.stats.entries_with_invalid_url, 0);
    }
}
