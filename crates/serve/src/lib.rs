//! An embedded HTTP mapping service over a compiled Borges pipeline.
//!
//! The ROADMAP's serving milestone, in-process and dependency-free:
//! materialization is cheap enough (~1.6 ms for the medium world) that
//! per-request feature subsets can be answered live, so this crate puts
//! a small, careful HTTP/1.1 front on [`borges_core::Borges`] instead
//! of shipping periodic file dumps.
//!
//! - [`http`] — a defensive parser and deterministic response writer
//!   over `std::net`: every byte stream becomes a response or a clean
//!   4xx/5xx, never a panic or an unbounded read.
//! - [`world`] — the [`ServingWorld`](world::ServingWorld): one
//!   compiled pipeline plus a per-world LRU of materialized mappings,
//!   immutable behind an `Arc` so hot-swap is a pointer write.
//! - [`handlers`] — routing and the read-only endpoints (`/v1/map`,
//!   `/v1/org`, `/v1/evidence`, `/v1/coverage`, `/healthz`,
//!   `/metrics`), every body byte-deterministic.
//! - [`server`] — accept thread, bounded queue, fixed worker pool,
//!   `503` + `Retry-After` load shedding, zero-downtime reload, and a
//!   graceful drain; the ledger `shed + served == accepted` holds at
//!   quiescence.
//! - [`timeline`] — time-travel serving: a mounted
//!   `borges_timeline::Timeline` plus an epoch-keyed LRU of loaded
//!   worlds, behind `?at=`, `/v1/org/{asn}/history`, and
//!   `/v1/diff/{t1}/{t2}`.
//! - [`client`] — the loopback test client the integration tests,
//!   benches, and smoke checks drive the server with.
//!
//! Beyond its sockets, the serve crate reads files only through a
//! mounted timeline, whose epoch worlds load on demand. Reloads still
//! arrive as an injected [`server::Reloader`] closure, which is how
//! `borges serve` (the CLI face) ties `POST /v1/admin/reload` to an
//! incremental remap ([`borges_core::Borges::ingest`] over the serving
//! world's snapshot state) without this crate knowing about bundles.

#![deny(missing_docs)]

pub mod client;
pub mod flight;
pub mod handlers;
pub mod http;
pub mod server;
pub mod timeline;
pub mod world;

pub use client::{ClientResponse, ServeClient};
pub use flight::{FlightRecorder, LruOutcome, RequestObservation, ServeEvent};
pub use server::{RecordHook, Reloader, Server, ServerConfig, ServerHooks, ShutdownHandle};
pub use timeline::TimelineState;
pub use world::{MappingCache, ServingWorld};
