//! The three benchmark workloads and how each builds its campaign.

use crate::trace::Tracer;
use fbs_core::{Campaign, CampaignConfig, CampaignRunner, CheckpointPolicy};
use fbs_netsim::{FeedFaultPlan, IbrConfig, VantageSpec, World, WorldScale};
use std::path::Path;

/// Snapshot cadence of the default checkpoint policy.
pub const SNAPSHOT_EVERY: u32 = 84;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale, three vantages plus the darknet, two worker threads,
    /// in memory; no feeds, no journal, no Trinocular.
    PaperRoster,
    /// Small scale, CLI-default config on one thread, checkpointed under
    /// the default policy, crashed between two snapshots and resumed.
    SmallDurable,
    /// Small scale, CLI-default config on one thread, in memory, with the
    /// feed layer on under clean delivery.
    SmallFeeds,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-roster" => Some(Workload::PaperRoster),
            "small-durable" => Some(Workload::SmallDurable),
            "small-feeds" => Some(Workload::SmallFeeds),
            _ => None,
        }
    }

    pub fn default_scale(self) -> WorldScale {
        match self {
            Workload::PaperRoster => WorldScale::Paper,
            Workload::SmallDurable | Workload::SmallFeeds => WorldScale::Small,
        }
    }

    /// Campaign length in rounds at `scale`. Fixed per workload, so the
    /// exported dataset (and its digest) depends on the seed alone, and
    /// at least 1,000 so one run's p99 has ten rounds beyond it.
    pub fn rounds(self, scale: WorldScale) -> u32 {
        match (self, scale) {
            (_, WorldScale::Tiny) => 200,
            (Workload::PaperRoster | Workload::SmallFeeds, _) => 1008,
            (Workload::SmallDurable, _) => 2016,
        }
    }

    /// The round after which the durable campaign is crashed: late in the
    /// run and strictly between two snapshots.
    pub fn crash_round(self, scale: WorldScale) -> u32 {
        let rounds = self.rounds(scale);
        let crash = rounds * 49 / 50;
        if crash.is_multiple_of(SNAPSHOT_EVERY) {
            crash - 1
        } else {
            crash
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::SmallDurable
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::PaperRoster => 2,
            Workload::SmallDurable | Workload::SmallFeeds => 1,
        }
    }

    pub fn config(self) -> CampaignConfig {
        let mut cfg = match self {
            Workload::PaperRoster => {
                let mut cfg = CampaignConfig::without_baseline();
                cfg.vantages = vec![
                    VantageSpec::new("kyiv"),
                    VantageSpec::new("warsaw"),
                    VantageSpec::new("frankfurt"),
                ];
                cfg.ibr = Some(IbrConfig::default());
                cfg
            }
            Workload::SmallDurable => CampaignConfig::default(),
            Workload::SmallFeeds => CampaignConfig {
                feed_plan: Some(FeedFaultPlan::none()),
                ..CampaignConfig::default()
            },
        };
        cfg.threads = self.threads();
        cfg
    }
}

/// Generates the workload's world from the seed: the scenario generator,
/// then the world constructor, each in its own span.
pub fn build_world(
    workload: Workload,
    scale: WorldScale,
    seed: u64,
    tr: &mut Tracer,
) -> fbs_types::Result<World> {
    let open = tr.enter("world_build", None);
    let scenario = tr.span("scenario", || {
        fbs_scenarios::ukraine_with_rounds(scale, seed, workload.rounds(scale))
    });
    let world = tr.span("world_new", || scenario.into_world());
    tr.exit(open);
    world
}

/// `Campaign::new` in its own span.
pub fn new_campaign(
    workload: Workload,
    world: World,
    tr: &mut Tracer,
) -> fbs_types::Result<Campaign> {
    tr.span("campaign_new", || Campaign::new(world, workload.config()))
}

/// The workload's runner constructor: in memory, or journaling into a
/// fresh checkpoint directory under the default policy.
pub fn new_runner<'a>(
    workload: Workload,
    campaign: &'a Campaign,
    ckpt: &Path,
    tr: &mut Tracer,
) -> fbs_types::Result<CampaignRunner<'a>> {
    tr.span("runner_build", || {
        if workload.durable() {
            campaign.runner_checkpointed(ckpt, CheckpointPolicy::default())
        } else {
            campaign.runner()
        }
    })
}
