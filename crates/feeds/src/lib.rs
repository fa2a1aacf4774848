//! Hardened ingest for the campaign's three external feeds.
//!
//! The paper's outage signals depend on three data sources the campaign
//! does not control: RouteViews-style RIB dumps, monthly geolocation
//! snapshots, and RIR delegation files. Three years of wartime collection
//! means gaps, partial exports, and registry lag — so ingest must degrade
//! per feed rather than fail the round. This crate layers that discipline
//! on top of the format crates' lossy paths: geo snapshots and delegation
//! files go through their `parse_lossy`, and BGP dumps are judged in one
//! pass over their lines with fbs-bgp's route-line grammar, without
//! building a RIB:
//!
//! * [`ingest`] — tolerance judgement: parse or check a delivered text
//!   lossily, quantify what was quarantined ([`FeedQuarantine`]), and
//!   accept or reject the delivery against record- and byte-level
//!   thresholds ([`LossyTolerance`]);
//! * [`health`] — the per-feed [`FeedHealth`] ledger: fresh / stale /
//!   missing / rejected counts and the current [`fbs_types::FeedStatus`];
//! * [`loader`] — [`FeedLoader`], a deterministic retry loop over an
//!   abstract [`FeedSource`] with an explicit backoff *budget* in virtual
//!   cost units (no wall clock, so replays are bit-identical). One loader
//!   serves a whole campaign and remembers each feed's last judged
//!   delivery, so a byte-identical repeat is judged once;
//! * [`quarantine`] — the deterministic, sorted quarantine report writer.
//!
//! Strict parsing remains the default elsewhere in the workspace; this
//! crate is the only place lossy acceptance decisions are made.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod ingest;
pub mod loader;
pub mod quarantine;

pub use health::FeedHealth;
pub use ingest::{
    ingest_bgp, ingest_delegations, ingest_geo, FeedQuarantine, IngestResult, LossyTolerance,
    TaggedQuarantine,
};
pub use loader::{FeedLoader, FeedOutcome, FeedSource, RetryPolicy};
pub use quarantine::render_report;
