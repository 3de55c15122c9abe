//! # borges-websim
//!
//! A deterministic hosted-web simulator — the substrate behind Borges's
//! web-based sibling inference (§4.3 of the paper).
//!
//! The paper scrapes the live web with Selenium in headless-browser mode so
//! that JavaScript-driven "refreshes and redirects" (R&R) resolve the same
//! way they do for a human visitor, and fetches favicons through Google's
//! favicon API. Neither resource is reachable here, so this crate provides
//! the closest synthetic equivalent that exercises the same code paths:
//!
//! * [`site`] — what a virtual host serves: a page with a favicon, a
//!   redirect (HTTP, meta-refresh or JavaScript), or nothing (dead site);
//! * [`hosting`] — [`hosting::SimWeb`], the host table of the whole
//!   simulated web;
//! * [`client`] — the [`client::WebClient`] trait and
//!   [`client::SimWebClient`], which follows redirect chains
//!   with loop/TTL guards. The client models the headless-browser
//!   distinction: a non-JS client does not follow JavaScript redirects,
//!   reproducing why the paper needed Selenium rather than plain HTTP;
//! * [`scraper`] — the bulk crawl engine producing final URLs and favicons
//!   for every PeeringDB `website` entry, with the funnel statistics §5.2
//!   reports;
//! * [`flaky`] — [`flaky::FlakyWebClient`], seeded per-host transport-fault
//!   episodes (timeouts, resets, 503/429) for chaos testing the crawl;
//! * [`retry`] — [`retry::RetryingWebClient`], the recovery stack
//!   (deterministic backoff, budgets, per-host circuit breakers) that
//!   absorbs recoverable faults and accounts for the rest. Each fetch
//!   backs off on a private clock of its own.
//!
//! Everything is deterministic; the "web" is a value you construct.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod faviconapi;
pub mod flaky;
pub mod hosting;
pub mod retry;
pub mod scraper;
pub mod site;
pub mod snapshot;

pub use client::{FetchOutcome, FetchResult, SimWebClient, WebClient, MAX_REDIRECTS};
pub use flaky::{FlakyWebClient, WEB_FAULT_KINDS};
pub use hosting::{SimWeb, SimWebBuilder};
pub use retry::RetryingWebClient;
pub use scraper::{
    CrawlEntry, ReportAssembler, Resolution, ScrapeReport, ScrapeStats, ScrapedSite, Scraper,
};
pub use site::{RedirectKind, SiteNode};
pub use snapshot::SnapshotWriter;
