//! Internet background radiation (IBR): the passive signal's source.
//!
//! Chocolatine (Guillot et al., arXiv 1906.04426) detects outages from
//! *unsolicited* traffic arriving at a darknet — scanning probes from
//! infected hosts and backscatter from spoofed-source floods — with no
//! active measurement at all. The volume a network radiates tracks its
//! live host population: when an AS loses power, connectivity or routing,
//! its contribution to the darknet goes quiet, and a seasonal predictor
//! over the per-AS volume sees the drop.
//!
//! This module is the simulator side of that story:
//!
//! * [`IbrConfig`] — the serde-loadable knob set: emission rate per
//!   responder, backscatter share, and scheduled *dark-darknet* windows
//!   (the collector itself failing — the passive path's own outage mode);
//! * [`volume_from_truth`] — the deterministic per-block emitter. Volume
//!   is driven by the responsive count of the block's
//!   [`World::block_truth`], so diurnal cycles, power blackouts, scripted
//!   war events and BGP withdrawals all modulate the radiation exactly as
//!   they modulate reachability — and an unrouted block radiates nothing
//!   (its packets cannot leave). It takes a truth already computed: the
//!   campaign's shard task evaluates each block's truth once per round and
//!   hands the same value to every vantage's scan and to the darknet.
//!   [`block_volume`] is the from-scratch form that evaluates the truth
//!   itself, and [`volume_with_gain`] the kernel under both, taking the
//!   block's stable [`block_gain`] drawn once per block.
//!
//! Determinism: every noise draw comes from the world RNG's **`"ibr"`
//! domain**, disjoint from `"faults"`, `"feeds"`, `"vantage-faults"` and
//! every other consumer, so enabling IBR never perturbs an existing run's
//! draws — IBR-disabled campaigns stay bit-identical.

use crate::rng::WorldRng;
use crate::world::{BlockTruth, World};
use fbs_types::Round;
use serde::{Deserialize, Serialize};

/// Salts decorrelating the IBR decision streams (the `0xFC..` range;
/// wire faults own `0xFA..`, feed faults `0xFB..`).
mod salt {
    /// Per-round volume jitter.
    pub const JITTER: u64 = 0xFC01;
    /// Stable per-block emission gain.
    pub const GAIN: u64 = 0xFC02;
    /// Backscatter burst arrival.
    pub const BURST: u64 = 0xFC03;
}

/// One scheduled window in which the darknet collector itself is dark:
/// no IBR is observed at all, for any AS. The passive path's analogue of
/// a vantage blackout — the predictor must *freeze*, not read silence as
/// a country-wide outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IbrDarkWindow {
    /// First dark round (inclusive).
    pub start: u32,
    /// First observed round after the window (exclusive).
    pub end: u32,
}

impl IbrDarkWindow {
    /// Whether the collector is dark at `round`.
    pub fn covers(&self, round: Round) -> bool {
        round.0 >= self.start && round.0 < self.end
    }
}

/// Configuration of the passive background-radiation signal.
///
/// The defaults model a modest /8-scale darknet: every live responder
/// contributes a couple dozen unsolicited packets per two-hour round, a
/// third of it bursty backscatter, with sub-Poisson jitter (the same
/// persistent-host argument that gives full-block scans their high SNR
/// applies to the infected population radiating the traffic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct IbrConfig {
    /// Mean unsolicited packets per live responder per round reaching the
    /// darknet (scanning worms, misconfiguration, backscatter combined).
    pub rate_per_responder: f64,
    /// Share of the volume that is backscatter: bursty, arriving in
    /// episodes rather than as a steady hum. Raises round-to-round
    /// variance without moving the mean.
    pub backscatter_share: f64,
    /// Scheduled collector outages. During a dark window no volume is
    /// observed for any AS; the round is recorded as *dark*, not as zero.
    pub dark_windows: Vec<IbrDarkWindow>,
}

impl Default for IbrConfig {
    fn default() -> Self {
        IbrConfig {
            rate_per_responder: 24.0,
            backscatter_share: 0.3,
            dark_windows: Vec::new(),
        }
    }
}

impl IbrConfig {
    /// A config with the collector dark over the given round windows.
    pub fn with_dark_windows(windows: Vec<IbrDarkWindow>) -> Self {
        IbrConfig {
            dark_windows: windows,
            ..IbrConfig::default()
        }
    }

    /// Validates rates and window shapes.
    pub fn validate(&self) -> fbs_types::Result<()> {
        if !self.rate_per_responder.is_finite() || self.rate_per_responder <= 0.0 {
            return Err(fbs_types::FbsError::config(format!(
                "ibr rate_per_responder={} must be finite and positive",
                self.rate_per_responder
            )));
        }
        if !(0.0..=1.0).contains(&self.backscatter_share) || !self.backscatter_share.is_finite() {
            return Err(fbs_types::FbsError::config(format!(
                "ibr backscatter_share={} outside 0..=1",
                self.backscatter_share
            )));
        }
        for w in &self.dark_windows {
            if w.start >= w.end {
                return Err(fbs_types::FbsError::config(format!(
                    "ibr dark window {}..{} is empty or inverted",
                    w.start, w.end
                )));
            }
        }
        Ok(())
    }

    /// Whether the darknet collector is dark at `round`.
    pub fn dark_at(&self, round: Round) -> bool {
        self.dark_windows.iter().any(|w| w.covers(round))
    }
}

/// Derives the IBR RNG domain from a world RNG. Disjoint from every other
/// domain: adding the passive signal never changes an existing draw.
pub fn ibr_domain(world_rng: WorldRng) -> WorldRng {
    world_rng.domain("ibr")
}

/// The unsolicited packet volume one block radiates toward the darknet at
/// `round`, evaluating its truth from scratch — deterministic in
/// `(seed, round, block)`. See [`volume_from_truth`].
pub fn block_volume(
    world: &World,
    cfg: &IbrConfig,
    rng: &WorldRng,
    round: Round,
    bi: usize,
) -> u64 {
    volume_from_truth(&world.block_truth(round, bi), cfg, rng, round, bi)
}

/// Block `bi`'s stable emission gain in [0.6, 1.4): infection density
/// and NAT depth vary per network but not per round. Deterministic in
/// `(seed, bi)`, so a caller that sweeps many rounds draws it once.
pub fn block_gain(rng: &WorldRng, bi: usize) -> f64 {
    0.6 + 0.8 * rng.uniform3(bi as u64, salt::GAIN, 0)
}

/// The unsolicited packet volume block `bi` radiates toward the darknet at
/// `round`, given its ground truth `truth` (`world.block_truth(round, bi)`)
/// — deterministic in `(seed, round, block)`. The composition of
/// [`block_gain`] and [`volume_with_gain`]; it reads no RTT.
pub fn volume_from_truth(
    truth: &BlockTruth,
    cfg: &IbrConfig,
    rng: &WorldRng,
    round: Round,
    bi: usize,
) -> u64 {
    volume_with_gain(truth, block_gain(rng, bi), cfg, rng, round, bi)
}

/// [`volume_from_truth`] with block `bi`'s emission gain already drawn:
/// `gain` is [`block_gain`]`(rng, bi)`. `truth.rtt_ns` is not read.
///
/// Shape: `responsive × rate × gain`, where `responsive` is the world's
/// ground-truth live count (already carrying diurnal seasonality, power
/// modulation and scripted events) and `gain` a stable per-block factor,
/// plus sub-Poisson jitter and an occasional backscatter burst. An
/// unrouted block contributes zero: its packets cannot reach the
/// collector.
pub fn volume_with_gain(
    truth: &BlockTruth,
    gain: f64,
    cfg: &IbrConfig,
    rng: &WorldRng,
    round: Round,
    bi: usize,
) -> u64 {
    if !truth.routed || truth.responsive == 0 {
        return 0;
    }
    let r = round.0 as u64;
    let b = bi as u64;
    let steady = truth.responsive as f64 * cfg.rate_per_responder * (1.0 - cfg.backscatter_share);
    // Backscatter arrives in episodes: the expected share is preserved,
    // but roughly every third round carries a triple burst.
    let burst = if rng.chance3(1.0 / 3.0, r, b, salt::BURST) {
        3.0
    } else {
        0.0
    };
    let back = truth.responsive as f64 * cfg.rate_per_responder * cfg.backscatter_share * burst;
    let mean = (steady + back) * gain;
    // Sub-Poisson jitter, like the scan-path responder counts: the same
    // hosts radiate round after round.
    let sd = 0.1 * mean.sqrt() + 0.01 * mean;
    let z = rng.normal3(r, b, salt::JITTER);
    (mean + z * sd).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{EventKind, EventTarget, Script, ScriptedEvent};
    use crate::spec::{AsProfile, AsSpec, BlockSpec, WorldConfig, WorldScale};
    use fbs_types::{Asn, Oblast, Prefix, CAMPAIGN_START};

    fn world(script: Script) -> World {
        let prefix: Prefix = "193.151.240.0/23".parse().unwrap();
        let ases = vec![AsSpec {
            asn: Asn(25482),
            name: "Status".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: vec![prefix],
            base_rtt_ns: 40_000_000,
            upstream: Asn(6849),
        }];
        let blocks = prefix
            .blocks()
            .map(|b| BlockSpec {
                block: b,
                owner: Asn(25482),
                home: Oblast::Kherson,
                base_responders: 40,
                geo_population: 200,
                response_prob: 0.85,
                diurnal: true,
                power_backup: 0.5,
                annual_decay: 0.9,
            })
            .collect();
        World::new(
            WorldConfig {
                seed: 11,
                scale: WorldScale::Tiny,
                rounds: 600,
                ases,
                blocks,
            },
            script,
            vec![],
        )
        .unwrap()
    }

    fn ts(days: i64) -> fbs_types::Timestamp {
        CAMPAIGN_START.plus_seconds(days * 86_400)
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(IbrConfig::default().validate().is_ok());
        let bad = IbrConfig {
            rate_per_responder: 0.0,
            ..IbrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = IbrConfig {
            backscatter_share: 1.5,
            ..IbrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = IbrConfig::with_dark_windows(vec![IbrDarkWindow { start: 10, end: 10 }]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn dark_windows_cover_their_rounds() {
        let cfg = IbrConfig::with_dark_windows(vec![IbrDarkWindow {
            start: 100,
            end: 140,
        }]);
        assert!(!cfg.dark_at(Round(99)));
        assert!(cfg.dark_at(Round(100)));
        assert!(cfg.dark_at(Round(139)));
        assert!(!cfg.dark_at(Round(140)));
        assert!(!IbrConfig::default().dark_at(Round(100)));
    }

    #[test]
    fn volume_is_deterministic_and_positive_for_live_blocks() {
        let w = world(Script::new());
        let cfg = IbrConfig::default();
        let rng = ibr_domain(w.rng());
        for r in [0u32, 7, 100, 599] {
            for bi in 0..w.blocks().len() {
                let a = block_volume(&w, &cfg, &rng, Round(r), bi);
                let b = block_volume(&w, &cfg, &rng, Round(r), bi);
                assert_eq!(a, b);
            }
        }
        assert!(block_volume(&w, &cfg, &rng, Round(6), 0) > 0);
    }

    #[test]
    fn ibr_domain_is_disjoint_from_other_consumers() {
        let rng = WorldRng::new(42);
        let ibr = ibr_domain(rng);
        assert_ne!(ibr.hash3(1, 2, 3), rng.domain("faults").hash3(1, 2, 3));
        assert_ne!(ibr.hash3(1, 2, 3), rng.domain("feeds").hash3(1, 2, 3));
        assert_ne!(
            ibr.hash3(1, 2, 3),
            rng.domain("vantage-faults").hash3(1, 2, 3)
        );
    }

    #[test]
    fn bgp_outage_silences_the_radiation() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "cable cut".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::BgpOutage,
            start: ts(10),
            end: Some(ts(13)),
        });
        let w = world(s);
        let cfg = IbrConfig::default();
        let rng = ibr_domain(w.rng());
        let before = Round(9 * 12);
        let during = Round(11 * 12);
        assert!(block_volume(&w, &cfg, &rng, before, 0) > 0);
        assert_eq!(block_volume(&w, &cfg, &rng, during, 0), 0);
    }

    #[test]
    fn volume_dips_at_night_with_diurnal_hosts() {
        let w = world(Script::new());
        let cfg = IbrConfig::default();
        let rng = ibr_domain(w.rng());
        // Average over many days to wash out burst noise: local night
        // (round ≡ 13 mod 12 is 00:00 UTC = 02:00 local) vs midday.
        let mut night = 0u64;
        let mut day = 0u64;
        for d in 0..40u32 {
            night += block_volume(&w, &cfg, &rng, Round(d * 12 + 1), 0);
            day += block_volume(&w, &cfg, &rng, Round(d * 12 + 6), 0);
        }
        assert!(night < day, "night {night} vs day {day}");
    }

    #[test]
    fn rate_scales_the_volume() {
        let w = world(Script::new());
        let rng = ibr_domain(w.rng());
        let lo = IbrConfig {
            rate_per_responder: 4.0,
            ..IbrConfig::default()
        };
        let hi = IbrConfig {
            rate_per_responder: 40.0,
            ..IbrConfig::default()
        };
        let sum = |cfg: &IbrConfig| -> u64 {
            (0..60)
                .map(|r| block_volume(&w, cfg, &rng, Round(r), 0))
                .sum()
        };
        assert!(sum(&hi) > 5 * sum(&lo));
    }
}
