//! Deterministic ground-truth world simulator.
//!
//! The paper's raw inputs — three years of wartime ICMP responsiveness,
//! RouteViews dumps, monthly IPinfo databases, RIPE delegation files and
//! Ukrenergo's power-outage calendar — cannot be re-collected. This crate
//! substitutes a *scriptable world*: a population of ASes and /24 blocks
//! with a home oblast, baseline responsiveness, diurnal behaviour and churn
//! trajectories, overlaid with scripted war events (cable cuts, BGP
//! withdrawals, rerouting, floods, seizures, strike campaigns against the
//! power grid) and vantage-point outages.
//!
//! Everything is a pure function of the configuration seed: the same
//! `(seed, round, block)` triple always yields the same truth, so every
//! experiment is exactly reproducible and the world never needs to be
//! stored — it is recomputed on the fly at ~50M block-rounds per second.
//!
//! Two consumption paths exist (see DESIGN.md):
//!
//! * the **wire path** — [`transport::WorldTransport`] answers real ICMP
//!   echo packets from `fbs-prober` according to per-round responder
//!   bitmaps ([`World::block_bitmap`]); used by tests, examples, and the
//!   `fault_injection` bench;
//! * the **oracle path** — [`World::block_truth`] returns the per-round
//!   responsive count and RTT directly; used by the longitudinal campaign
//!   where 13,069 rounds × tens of thousands of blocks would make packet
//!   simulation pointless work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod feedfaults;
pub mod geo;
pub mod ibr;
pub mod power;
pub mod rng;
pub mod script;
pub mod shardfaults;
pub mod spec;
pub mod transport;
pub mod vantage;
pub mod world;

pub use faults::{FaultIntensity, FaultPlan, FaultStats, FaultWindow, FaultyTransport};
pub use feedfaults::{FeedFaultIntensity, FeedFaultPlan, FeedFaultWindow};
pub use ibr::{block_volume, ibr_domain, IbrConfig, IbrDarkWindow};
pub use power::{PowerCalendar, StrikeEvent};
pub use rng::WorldRng;
pub use script::{EventKind, EventTarget, Script, ScriptedEvent};
pub use shardfaults::{shards_domain, ShardFaultKind, ShardFaultPlan, ShardFaultWindow};
pub use spec::{AsProfile, AsSpec, BlockSpec, WorldConfig, WorldScale};
pub use transport::WorldTransport;
pub use vantage::{VantageSpec, VantageTransport};
pub use world::{BlockTruth, World};
