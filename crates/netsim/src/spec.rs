//! World configuration: the AS and block population.

use fbs_types::{Asn, BlockId, Oblast, Prefix};
use serde::{Deserialize, Serialize};

/// Coarse world sizes. Scenario builders use these to scale the population
/// while preserving the paper's proportions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorldScale {
    /// A handful of ASes and blocks; unit/integration tests.
    Tiny,
    /// Hundreds of ASes, thousands of blocks; default for figures.
    Small,
    /// Paper-scale population (~2,000 ASes, ~40K blocks); slow but full.
    Paper,
}

impl WorldScale {
    /// Multiplier applied to per-oblast AS counts relative to `Paper`.
    pub fn as_fraction(self) -> f64 {
        match self {
            WorldScale::Tiny => 0.01,
            WorldScale::Small => 0.15,
            WorldScale::Paper => 1.0,
        }
    }
}

/// Behavioural archetype of an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsProfile {
    /// A small provider serving (mostly) one oblast: stable geolocation,
    /// fixed-line responsiveness, possibly PON/generator-backed.
    Regional,
    /// A national ISP: blocks spread across oblasts, dynamic addressing,
    /// high churn, mobile-like responsiveness.
    National,
    /// A foreign AS announcing UA-delegated space (or absorbing reassigned
    /// space, e.g. Amazon).
    Foreign,
}

/// One /24 block of the world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockSpec {
    /// The block.
    pub block: BlockId,
    /// Originating AS.
    pub owner: Asn,
    /// True home region at campaign start.
    pub home: Oblast,
    /// Responder-pool size at campaign start (ever-active addresses when
    /// fully healthy).
    pub base_responders: u16,
    /// Addresses of the block present in the geolocation database at
    /// campaign start (≥ responders; DB entries outnumber live hosts).
    pub geo_population: u16,
    /// Per-round response probability of a pool member under normal
    /// conditions.
    pub response_prob: f64,
    /// Whether the block's users exhibit day/night cycles.
    pub diurnal: bool,
    /// Fraction of responsiveness retained when the oblast's power is out
    /// (UPS/generator/PON coverage; 1.0 = immune, 0.0 = fully dependent).
    pub power_backup: f64,
    /// Annual responder-pool decay factor (the paper observes −18% replies
    /// over three years, faster on the frontline).
    pub annual_decay: f64,
}

impl BlockSpec {
    /// Responder-pool size `months` months into the campaign: the month's
    /// [`decay_factor`] applied by [`BlockSpec::pool_with`].
    pub fn responders_at(&self, months: u32) -> u16 {
        self.pool_with(decay_factor(self.annual_decay, months))
    }

    /// The responder pool under a decay `factor`: the base pool scaled and
    /// rounded.
    pub fn pool_with(&self, factor: f64) -> u16 {
        ((self.base_responders as f64) * factor).round() as u16
    }
}

/// The fraction of a responder pool left `months` months into the
/// campaign under an `annual_decay`.
pub fn decay_factor(annual_decay: f64, months: u32) -> f64 {
    annual_decay.powf(months as f64 / 12.0)
}

/// One AS of the world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsSpec {
    /// AS number.
    pub asn: Asn,
    /// Organization name.
    pub name: String,
    /// Behavioural profile.
    pub profile: AsProfile,
    /// Headquarters oblast (None = foreign).
    pub hq: Option<Oblast>,
    /// Announced prefixes (each covers its blocks).
    pub prefixes: Vec<Prefix>,
    /// Baseline round-trip time from the vantage point, nanoseconds.
    pub base_rtt_ns: u64,
    /// Transit AS on the default path (used for rerouting bookkeeping).
    pub upstream: Asn,
}

/// The full world configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Root seed; all randomness derives from it.
    pub seed: u64,
    /// Scale tag (informational; the population is explicit below).
    pub scale: WorldScale,
    /// Number of campaign rounds simulated (≤ `Round::campaign_total()`).
    pub rounds: u32,
    /// The AS population.
    pub ases: Vec<AsSpec>,
    /// The block population.
    pub blocks: Vec<BlockSpec>,
}

impl WorldConfig {
    /// Basic structural validation: owners exist, blocks covered by owner
    /// prefixes, probabilities in range.
    pub fn validate(&self) -> fbs_types::Result<()> {
        use std::collections::BTreeSet;
        let asns: BTreeSet<Asn> = self.ases.iter().map(|a| a.asn).collect();
        if asns.len() != self.ases.len() {
            return Err(fbs_types::FbsError::config("duplicate ASN in population"));
        }
        let mut seen_blocks = BTreeSet::new();
        for b in &self.blocks {
            if !asns.contains(&b.owner) {
                return Err(fbs_types::FbsError::config(format!(
                    "block {} owned by unknown {}",
                    b.block, b.owner
                )));
            }
            if !seen_blocks.insert(b.block) {
                return Err(fbs_types::FbsError::config(format!(
                    "duplicate block {}",
                    b.block
                )));
            }
            if !(0.0..=1.0).contains(&b.response_prob)
                || !(0.0..=1.0).contains(&b.power_backup)
                || !(0.0..=1.5).contains(&b.annual_decay)
            {
                return Err(fbs_types::FbsError::config(format!(
                    "block {} has out-of-range parameters",
                    b.block
                )));
            }
            if b.base_responders > 256 || b.geo_population > 256 {
                return Err(fbs_types::FbsError::config(format!(
                    "block {} exceeds 256 addresses",
                    b.block
                )));
            }
        }
        Ok(())
    }

    /// Blocks owned by `asn`, in block order.
    pub fn blocks_of(&self, asn: Asn) -> impl Iterator<Item = &BlockSpec> {
        self.blocks.iter().filter(move |b| b.owner == asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(c: u8, owner: u32) -> BlockSpec {
        BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: Asn(owner),
            home: Oblast::Kherson,
            base_responders: 30,
            geo_population: 180,
            response_prob: 0.85,
            diurnal: false,
            power_backup: 0.3,
            annual_decay: 0.9,
        }
    }

    fn as_spec(asn: u32) -> AsSpec {
        AsSpec {
            asn: Asn(asn),
            name: format!("AS{asn}"),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: vec!["10.0.0.0/16".parse().unwrap()],
            base_rtt_ns: 40_000_000,
            upstream: Asn(3356),
        }
    }

    #[test]
    fn validation_accepts_consistent_config() {
        let cfg = WorldConfig {
            seed: 1,
            scale: WorldScale::Tiny,
            rounds: 100,
            ases: vec![as_spec(1)],
            blocks: vec![block(0, 1), block(1, 1)],
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.blocks_of(Asn(1)).count(), 2);
        assert_eq!(cfg.blocks_of(Asn(2)).count(), 0);
    }

    #[test]
    fn validation_rejects_unknown_owner() {
        let cfg = WorldConfig {
            seed: 1,
            scale: WorldScale::Tiny,
            rounds: 100,
            ases: vec![as_spec(1)],
            blocks: vec![block(0, 2)],
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicates_and_bad_params() {
        let dup = WorldConfig {
            seed: 1,
            scale: WorldScale::Tiny,
            rounds: 100,
            ases: vec![as_spec(1)],
            blocks: vec![block(0, 1), block(0, 1)],
        };
        assert!(dup.validate().is_err());

        let mut bad = block(0, 1);
        bad.response_prob = 1.5;
        let cfg = WorldConfig {
            seed: 1,
            scale: WorldScale::Tiny,
            rounds: 100,
            ases: vec![as_spec(1)],
            blocks: vec![bad],
        };
        assert!(cfg.validate().is_err());

        let dup_as = WorldConfig {
            seed: 1,
            scale: WorldScale::Tiny,
            rounds: 100,
            ases: vec![as_spec(1), as_spec(1)],
            blocks: vec![],
        };
        assert!(dup_as.validate().is_err());
    }

    #[test]
    fn responder_decay() {
        let b = block(0, 1);
        assert_eq!(b.responders_at(0), 30);
        // 0.9^3 ≈ 0.729 → ~22 after 36 months.
        let late = b.responders_at(36);
        assert!((21..=23).contains(&late), "got {late}");
    }

    #[test]
    fn scale_fractions_ordered() {
        assert!(WorldScale::Tiny.as_fraction() < WorldScale::Small.as_fraction());
        assert!(WorldScale::Small.as_fraction() < WorldScale::Paper.as_fraction());
    }
}
