//! # borges-core
//!
//! Borges — *Better ORGanizations Entities mappingS* — the paper's
//! primary contribution: an AS-to-Organization mapping framework that
//! combines organization keys from WHOIS and PeeringDB (§4.1), few-shot
//! LLM extraction of sibling ASNs from free text (§4.2), and web-based
//! inference over redirect chains, domain similarity and favicons (§4.3).
//!
//! ## Architecture
//!
//! ```text
//!  WHOIS ───────────► orgkeys (OID_W) ─┐
//!  PeeringDB ───────► orgkeys (OID_P) ─┤
//!  PeeringDB text ──► ner (LLM, §4.2) ─┼─► pipeline ──► AsOrgMapping
//!  PeeringDB sites ─► scraper ─► web::rr (§4.3.2) ─┤
//!                               web::favicon (§4.3.3, LLM)
//! ```
//!
//! Each stage produces *merge evidence* (groups/edges of sibling ASNs);
//! [`pipeline::Borges`] reconciles any subset of it by union-find over
//! the WHOIS universe and materializes an [`mapping::AsOrgMapping`].
//! [`orgfactor`] scores mappings with the paper's Organization Factor
//! (θ, §5.4), [`evalsets`] reproduces the Table 4/5 accuracy audits, and
//! [`impact`] implements the §6 analyses (user populations, AS-Rank
//! transit growth, hypergiants, country footprints).
//!
//! ## Quick start
//!
//! ```
//! use borges_core::pipeline::{Borges, FeatureSet};
//! use borges_core::orgfactor::organization_factor;
//! use borges_llm::SimLlm;
//! use borges_synthnet::{GeneratorConfig, SyntheticInternet};
//! use borges_websim::SimWebClient;
//!
//! let world = SyntheticInternet::generate(&GeneratorConfig::tiny(42));
//! let llm = SimLlm::new(42); // paper-calibrated error rates
//! let borges = Borges::run(&world.whois, &world.pdb,
//!                          SimWebClient::browser(&world.web), &llm);
//!
//! let as2org = borges.baseline_as2org();
//! let full = borges.full();
//! let n = borges.universe().len();
//! assert!(organization_factor(&full, n) > organization_factor(&as2org, n));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocklists;
pub mod delta;
pub mod diff;
pub mod evalsets;
pub mod impact;
pub mod mapfile;
pub mod mapping;
pub mod ner;
pub mod orgfactor;
pub mod orgkeys;
pub mod pipeline;
pub mod unionfind;
pub mod web;
pub mod world;

pub use delta::{DeltaStats, SnapshotDelta, SnapshotState, SourceDelta, SourceFingerprints};
pub use mapping::{AsOrgMapping, ClusterId};
pub use orgfactor::organization_factor;
pub use pipeline::{
    Borges, CoverageReport, Feature, FeatureContribution, FeatureCoverage, FeatureSet,
};
pub use unionfind::{DenseUnionFind, UnionFind};
pub use world::{CompiledWorld, ServingExtras};
