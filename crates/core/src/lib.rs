//! Campaign orchestration: world → scan → signals → detection → reports.
//!
//! This crate is the public face of the reproduction. A [`Campaign`] takes
//! a simulated [`fbs_netsim::World`] (usually built by `fbs-scenarios`) and
//! replays the paper's entire measurement methodology against it:
//!
//! 1. monthly geolocation snapshots feed the **regional classifier**
//!    ([`classify`]) exactly as IPinfo dumps feed §4 of the paper;
//! 2. the per-round **signal pipeline** ([`pipeline`]) extracts `BGP ★`,
//!    `FBS ■` and `IPS ▲` per AS and per region, runs the moving-average
//!    detectors of `fbs-signals`, and simultaneously runs the Trinocular +
//!    IODA baseline for comparison;
//! 3. the assembled [`report::CampaignReport`] holds outage events,
//!    tracked time series, responsiveness statistics and classification
//!    tables — everything the bench binaries print as paper tables and
//!    figures.
//!
//! ```no_run
//! use fbs_core::{Campaign, CampaignConfig};
//! use fbs_netsim::WorldScale;
//!
//! # fn main() -> fbs_types::Result<()> {
//! let scenario = fbs_scenarios::ukraine(WorldScale::Small, 42);
//! let world = scenario.into_world().unwrap();
//! let campaign = Campaign::new(world, CampaignConfig::default())?;
//! let report = campaign.run()?;
//! println!("{} AS outage events", report.total_as_outages());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod classify;
pub mod config;
pub mod dataset;
pub mod methods;
pub mod pipeline;
pub mod report;
mod shard;

pub use checkpoint::{CheckpointPolicy, ResumeDiagnostics};
pub use classify::{classify_world_with_snapshots, ClassificationOutcome, RegionClassification};
pub use config::CampaignConfig;
pub use dataset::{availability_rows, export_all, ibr_rows, outage_rows, vantage_rows};
pub use pipeline::{Campaign, CampaignRunner};
pub use report::{
    CampaignReport, DisagreementSummary, EntitySeries, FeedLedger, IbrLedger, MonthlyRtt,
    ShardLedger, ShardRoundSummary, VantageLedger,
};
pub use shard::SHARD_RETRIES;
