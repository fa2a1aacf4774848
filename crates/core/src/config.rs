//! Campaign configuration.

use fbs_feeds::{LossyTolerance, RetryPolicy};
use fbs_netsim::{FaultPlan, FeedFaultPlan, IbrConfig, ShardFaultPlan, VantageSpec};
use fbs_prober::QualityConfig;
use fbs_regional::RegionalityConfig;
use fbs_signals::{EligibilityConfig, EntityId, Thresholds};
use fbs_trinocular::{IodaConfig, TrinocularConfig};
use serde::{Deserialize, Serialize};

/// Everything a campaign run can be tuned with; defaults follow the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// AS-level detection thresholds (Table 2 row 1).
    pub thresholds_as: Thresholds,
    /// Regional detection thresholds (Table 2 row 2).
    pub thresholds_region: Thresholds,
    /// FBS eligibility and IPS gating.
    pub eligibility: EligibilityConfig,
    /// Regionality classifier parameters (M = T_perc = 0.7).
    pub regionality: RegionalityConfig,
    /// Trinocular baseline parameters.
    pub trinocular: TrinocularConfig,
    /// IODA emulation parameters.
    pub ioda: IodaConfig,
    /// Whether to run the Trinocular/IODA baseline at all (costs a second
    /// pass worth of belief updates).
    pub run_baseline: bool,
    /// Entities whose full per-round signal series are retained for
    /// fine-grained figures (Status and its blocks by default).
    pub tracked: Vec<EntityId>,
    /// ASes whose per-month RTT aggregates are retained (Fig. 12).
    pub rtt_tracked: Vec<fbs_types::Asn>,
    /// Optional fault-injection schedule applied to the measurement path:
    /// per-window probe/reply loss, duplication, latency spikes and ICMP
    /// rate limiting, deterministically derived from the world seed.
    /// `None` = clean vantage (the default).
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// How round quality (`Ok`/`Degraded`/`Unusable`) is judged from the
    /// measurement loss a round suffered.
    #[serde(default)]
    pub quality: QualityConfig,
    /// Scanner re-probe budget per round (ZMap's `--retries`); raises the
    /// delivery rate under loss before a round is declared degraded.
    #[serde(default)]
    pub scan_retries: u32,
    /// Optional feed-fault schedule for the three metadata feeds (BGP RIB
    /// dumps, monthly geolocation snapshots, RIR delegation files).
    /// `None` disables the feed-delivery layer entirely: the pipeline
    /// consumes world truth directly, exactly as before the feed layer
    /// existed. `Some` — even of an empty plan — routes every feed
    /// through delivery, ingest and the staleness ledger.
    #[serde(default)]
    pub feed_plan: Option<FeedFaultPlan>,
    /// Lossy-parse acceptance thresholds for feed deliveries.
    #[serde(default)]
    pub feed_tolerance: LossyTolerance,
    /// Deterministic fetch retry/backoff budget per feed per round.
    #[serde(default)]
    pub feed_retry: RetryPolicy,
    /// The vantage roster. Empty (the default) scans through the paper's
    /// single vantage as an implicit one-vantage roster: the campaign-wide
    /// `fault_plan` on the plain `"faults"` RNG stream, no path latency,
    /// no ledger. Non-empty — even with one entry — switches the campaign
    /// into *vantage mode*: every listed vantage
    /// scans independently (its own fault plan, path latency and RNG
    /// domain), and detection consumes the per-block quorum fusion of
    /// their observations instead of any single wire.
    #[serde(default)]
    pub vantages: Vec<VantageSpec>,
    /// Optional passive background-radiation signal (Chocolatine-style).
    /// `None` (the default) disables the darknet entirely: no IBR is
    /// emitted or recorded, and output stays byte-identical to pre-IBR
    /// builds. `Some` observes
    /// per-AS IBR volume every round — including rounds where every
    /// active vantage is `Unusable` — and feeds the seasonal predictor.
    #[serde(default)]
    pub ibr: Option<IbrConfig>,
    /// Worker threads for the sharded round executor; overridable at run
    /// time via `FBS_THREADS`. The default is the machine's available
    /// parallelism. Output bytes are identical at any thread count —
    /// shards are keyed by block coordinates, not by scheduling — so this
    /// knob trades wall time only. `0` is rejected by [`validate`][Self::validate].
    /// It bounds the shard workers only: a checkpointed campaign also runs
    /// at most one snapshot writer thread, whatever this is set to.
    #[serde(default = "default_threads")]
    pub threads: usize,
    /// Optional scripted shard-fault schedule (panic / stall / jitter)
    /// exercising the shard supervisor. `None` (the default) keeps the
    /// executor transparent: no supervision ledger is journaled, and a
    /// genuine shard panic propagates exactly as the serial pipeline
    /// would. `Some` — even of an empty plan — turns on supervised mode:
    /// shard outcomes are journaled, lost shards degrade the round, and
    /// the report carries a [`ShardLedger`](crate::report::ShardLedger).
    #[serde(default)]
    pub shard_plan: Option<ShardFaultPlan>,
    /// Bounded retry budget per shard per round in supervised mode: a
    /// panicked or timed-out shard is re-run at most this many times
    /// before it is declared lost and its blocks degrade the round.
    #[serde(default = "default_shard_retries")]
    pub shard_retries: u32,
    /// Per-shard deadline in *virtual* nanoseconds, compared against the
    /// shard's deterministic cost model (blocks × per-block budget, plus
    /// any injected stall). Virtual time keeps the watchdog deterministic:
    /// a loaded CI machine never times a shard out spuriously.
    #[serde(default = "default_shard_deadline_ns")]
    pub shard_deadline_ns: u64,
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn default_shard_retries() -> u32 {
    2
}

fn default_shard_deadline_ns() -> u64 {
    1_000_000_000 // 1 virtual second; a clean shard costs microseconds
}

/// Resolves the effective worker-thread count from the configured value
/// and the `FBS_THREADS` environment override (passed in as a string so
/// callers and tests stay free of process-global env mutation).
///
/// An unset override keeps the configured value; an unparseable or zero
/// override is a typed configuration error naming the variable and the
/// offending text, never a panic.
pub fn resolve_threads(configured: usize, env_override: Option<&str>) -> fbs_types::Result<usize> {
    let Some(raw) = env_override else {
        return Ok(configured);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(fbs_types::FbsError::config(format!(
            "FBS_THREADS={raw:?}: thread count must be at least 1"
        ))),
        Ok(n) => Ok(n),
        Err(e) => Err(fbs_types::FbsError::config(format!(
            "FBS_THREADS={raw:?} is not a thread count: {e}"
        ))),
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        use fbs_types::{Asn, BlockId};
        let status_blocks =
            (0u8..4).map(|i| EntityId::Block(BlockId::from_octets(193, 151, 240 + i)));
        let kherson_ases: Vec<Asn> = fbs_scenarios::KHERSON_ROSTER
            .iter()
            .map(|a| a.asn())
            .collect();
        let mut tracked: Vec<EntityId> = status_blocks.collect();
        tracked.extend(kherson_ases.iter().map(|a| EntityId::As(*a)));
        CampaignConfig {
            thresholds_as: Thresholds::as_level(),
            thresholds_region: Thresholds::regional(),
            eligibility: EligibilityConfig::default(),
            regionality: RegionalityConfig::default(),
            trinocular: TrinocularConfig::default(),
            ioda: IodaConfig::default(),
            run_baseline: true,
            tracked,
            rtt_tracked: kherson_ases,
            fault_plan: None,
            quality: QualityConfig::default(),
            scan_retries: 0,
            feed_plan: None,
            feed_tolerance: LossyTolerance::default(),
            feed_retry: RetryPolicy::default(),
            vantages: Vec::new(),
            ibr: None,
            threads: default_threads(),
            shard_plan: None,
            shard_retries: default_shard_retries(),
            shard_deadline_ns: default_shard_deadline_ns(),
        }
    }
}

impl CampaignConfig {
    /// A configuration without the Trinocular/IODA baseline pass.
    pub fn without_baseline() -> Self {
        CampaignConfig {
            run_baseline: false,
            ..CampaignConfig::default()
        }
    }

    /// Validates every sub-configuration.
    pub fn validate(&self) -> fbs_types::Result<()> {
        self.thresholds_as.validate()?;
        self.thresholds_region.validate()?;
        self.regionality.validate()?;
        self.quality.validate()?;
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        self.feed_tolerance.validate()?;
        if let Some(plan) = &self.feed_plan {
            plan.validate()?;
        }
        let mut names = std::collections::BTreeSet::new();
        for spec in &self.vantages {
            spec.validate()?;
            if !names.insert(spec.name.as_str()) {
                return Err(fbs_types::FbsError::config(format!(
                    "duplicate vantage name {:?}: names key the fault RNG domains and must be unique",
                    spec.name
                )));
            }
        }
        if let Some(ibr) = &self.ibr {
            ibr.validate()?;
        }
        if self.threads == 0 {
            return Err(fbs_types::FbsError::config(
                "threads=0: the shard executor needs at least one worker".to_string(),
            ));
        }
        if let Some(plan) = &self.shard_plan {
            plan.validate()?;
        }
        Ok(())
    }

    /// Whether the shard supervisor runs in supervised (ledger-journaling)
    /// mode.
    pub fn shard_mode(&self) -> bool {
        self.shard_plan.is_some()
    }

    /// A configuration supervising shards under `plan`.
    pub fn with_shard_plan(plan: ShardFaultPlan) -> Self {
        CampaignConfig {
            shard_plan: Some(plan),
            ..CampaignConfig::default()
        }
    }

    /// A configuration observing passive background radiation with `ibr`.
    pub fn with_ibr(ibr: IbrConfig) -> Self {
        CampaignConfig {
            ibr: Some(ibr),
            ..CampaignConfig::default()
        }
    }

    /// A configuration scanning from the given vantage roster.
    pub fn with_vantages(vantages: Vec<VantageSpec>) -> Self {
        CampaignConfig {
            vantages,
            ..CampaignConfig::default()
        }
    }

    /// A configuration routing the metadata feeds through `plan`.
    pub fn with_feed_plan(plan: FeedFaultPlan) -> Self {
        CampaignConfig {
            feed_plan: Some(plan),
            ..CampaignConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tracks_status_and_roster() {
        let cfg = CampaignConfig::default();
        assert!(cfg.validate().is_ok());
        assert!(cfg.tracked.len() >= 38); // 4 blocks + 34 ASes
        assert!(cfg.tracked.contains(&EntityId::As(fbs_types::Asn(25482))));
        assert!(cfg.rtt_tracked.contains(&fbs_types::Asn(49465)));
        assert!(cfg.run_baseline);
        assert!(!CampaignConfig::without_baseline().run_baseline);
    }

    #[test]
    fn vantage_roster_defaults_empty_and_validates() {
        let cfg = CampaignConfig::default();
        assert!(cfg.vantages.is_empty(), "legacy single vantage by default");
        let multi = CampaignConfig::with_vantages(vec![
            VantageSpec::new("kyiv"),
            VantageSpec::new("frankfurt"),
        ]);
        assert!(multi.validate().is_ok());
        // Duplicate names collide in the fault-RNG domain: rejected.
        let dup =
            CampaignConfig::with_vantages(vec![VantageSpec::new("kyiv"), VantageSpec::new("kyiv")]);
        assert!(dup.validate().is_err());
        // A roster entry with an invalid per-vantage plan is rejected.
        let bad = CampaignConfig::with_vantages(vec![VantageSpec {
            fault_plan: Some(fbs_netsim::FaultPlan::constant(
                fbs_netsim::FaultIntensity {
                    reply_loss: 1.5,
                    ..fbs_netsim::FaultIntensity::default()
                },
            )),
            ..VantageSpec::new("sick")
        }]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn ibr_defaults_off_and_validates() {
        let cfg = CampaignConfig::default();
        assert!(cfg.ibr.is_none(), "passive signal must default off");
        assert!(CampaignConfig::with_ibr(IbrConfig::default())
            .validate()
            .is_ok());
        let bad = CampaignConfig::with_ibr(IbrConfig {
            rate_per_responder: -1.0,
            ..IbrConfig::default()
        });
        assert!(bad.validate().is_err());
        let bad = CampaignConfig::with_ibr(IbrConfig::with_dark_windows(vec![
            fbs_netsim::IbrDarkWindow { start: 5, end: 5 },
        ]));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn zero_threads_is_a_typed_config_error() {
        let cfg = CampaignConfig {
            threads: 0,
            ..CampaignConfig::default()
        };
        let err = cfg.validate().expect_err("threads=0 must not validate");
        assert!(
            matches!(err, fbs_types::FbsError::InvalidConfig { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("threads"), "{err}");
        let cfg = CampaignConfig::default();
        assert!(cfg.threads >= 1, "default follows available parallelism");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn fbs_threads_override_parses_or_errors_with_context() {
        assert_eq!(resolve_threads(4, None).unwrap(), 4);
        assert_eq!(resolve_threads(4, Some("8")).unwrap(), 8);
        assert_eq!(resolve_threads(4, Some(" 2 ")).unwrap(), 2);
        for bad in ["0", "-3", "eight", "4.0", ""] {
            let err = resolve_threads(4, Some(bad))
                .expect_err(&format!("FBS_THREADS={bad:?} must be rejected"));
            assert!(
                matches!(err, fbs_types::FbsError::InvalidConfig { .. }),
                "{err}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("FBS_THREADS") && msg.contains(bad),
                "error must name the variable and the offending text: {msg}"
            );
        }
    }

    #[test]
    fn shard_plan_defaults_off_and_validates() {
        let cfg = CampaignConfig::default();
        assert!(!cfg.shard_mode(), "supervised mode must default off");
        assert_eq!(cfg.shard_retries, 2);
        let with = CampaignConfig::with_shard_plan(ShardFaultPlan::none());
        assert!(with.shard_mode());
        assert!(with.validate().is_ok());
        let bad = CampaignConfig::with_shard_plan(ShardFaultPlan {
            windows: vec![fbs_netsim::ShardFaultWindow {
                name: "bad".into(),
                start_round: 0,
                end_round: 10,
                shards: Vec::new(),
                attempts: 1,
                probability: 2.0,
                kind: fbs_netsim::ShardFaultKind::Panic,
            }],
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn feed_layer_defaults_off_and_validates() {
        let cfg = CampaignConfig::default();
        assert!(cfg.feed_plan.is_none(), "feed layer must default off");
        let with = CampaignConfig::with_feed_plan(FeedFaultPlan::none());
        assert!(with.feed_plan.is_some());
        assert!(with.validate().is_ok());
        let bad = CampaignConfig {
            feed_tolerance: LossyTolerance {
                max_record_rate: 2.0,
                max_byte_rate: 0.1,
            },
            ..CampaignConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = CampaignConfig {
            feed_plan: Some(FeedFaultPlan {
                windows: vec![fbs_netsim::FeedFaultWindow::over_rounds(
                    "bad",
                    fbs_types::FeedKind::Bgp,
                    0..10,
                    fbs_netsim::FeedFaultIntensity {
                        drop: -0.5,
                        ..fbs_netsim::FeedFaultIntensity::default()
                    },
                )],
            }),
            ..CampaignConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
