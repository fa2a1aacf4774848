//! Vantage points: named measurement origins with their own path model.
//!
//! The paper scans from one vantage; ROADMAP item 4 generalizes to N. A
//! [`VantageSpec`] describes one origin: a stable name (the world-RNG
//! domain key, so each vantage draws its faults from an independent but
//! fully deterministic stream), an additive path latency toward the
//! targets, and an optional per-vantage [`FaultPlan`] — vantage A can sit
//! behind a congested peering while vantage B stays clean, in the same
//! run, bit-identically reproducible.
//!
//! Two consumption paths mirror the world's own:
//!
//! * the **wire path** — [`VantageSpec::transport`] wraps a
//!   [`WorldTransport`] in a [`VantageTransport`] that adds the vantage's
//!   path latency to every probe's round trip;
//! * the **oracle path** — the campaign loop calls
//!   [`VantageSpec::fault_domain`] once and applies the vantage's plan to
//!   `World::block_truth` values directly.

use crate::faults::FaultPlan;
use crate::rng::WorldRng;
use crate::transport::WorldTransport;
use crate::world::World;
use fbs_prober::Transport;
use fbs_types::Round;
use serde::{Deserialize, Serialize};

/// One vantage point of a multi-vantage campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VantageSpec {
    /// Stable identifier: names the vantage in reports and keys its
    /// world-RNG fault domain, so adding or reordering *other* vantages
    /// never changes this one's draws.
    pub name: String,
    /// Extra one-way path latency from this vantage to the targets,
    /// nanoseconds, added to every observed RTT.
    #[serde(default)]
    pub path_rtt_ns: u64,
    /// Fault schedule specific to this vantage's path. `None` inherits
    /// the campaign-wide plan (or a clean path if there is none).
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
}

impl VantageSpec {
    /// A clean vantage with no extra latency.
    pub fn new(name: impl Into<String>) -> Self {
        VantageSpec {
            name: name.into(),
            path_rtt_ns: 0,
            fault_plan: None,
        }
    }

    /// Validates the spec: a non-empty name and a valid fault plan.
    pub fn validate(&self) -> fbs_types::Result<()> {
        if self.name.is_empty() {
            return Err(fbs_types::FbsError::config(
                "vantage name must be non-empty (it keys the fault RNG domain)",
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(|e| {
                fbs_types::FbsError::config(format!("vantage {:?}: {e}", self.name))
            })?;
        }
        Ok(())
    }

    /// The vantage's independent fault-RNG domain, derived from the world
    /// RNG and keyed by the vantage name. The implicit vantage of an empty
    /// roster uses the plain `"faults"` domain; these are disjoint from it
    /// and from each other.
    pub fn fault_domain(&self, world_rng: &WorldRng) -> WorldRng {
        // fbs-lint: allow(rng-domain-collision) name-keyed subdomain under the registered "vantage-faults" root; roster names are unique by construction
        world_rng.domain("vantage-faults").domain(&self.name)
    }

    /// A wire-path transport for `round` as seen from this vantage: the
    /// world answered through the vantage's extra path latency. Layer a
    /// [`crate::FaultyTransport`] on top (seeded from
    /// [`VantageSpec::fault_domain`]) for the vantage's own fault plan.
    pub fn transport<'a>(&self, world: &'a World, round: Round) -> VantageTransport<'a> {
        VantageTransport {
            inner: WorldTransport::new(world, round),
            path_rtt_ns: self.path_rtt_ns,
        }
    }
}

/// [`WorldTransport`] as seen from a specific vantage: every probe is
/// answered `path_rtt_ns` later than the world's own round-trip time.
///
/// The shift is applied on the send side (the probe "reaches the world"
/// after the path delay), so the echoed timestamp arithmetic in
/// `fbs-prober` measures `world RTT + path RTT` without this wrapper
/// keeping any queue of its own.
pub struct VantageTransport<'a> {
    inner: WorldTransport<'a>,
    path_rtt_ns: u64,
}

impl VantageTransport<'_> {
    /// Probes that reached no simulated host (passthrough counter).
    pub fn unanswered(&self) -> u64 {
        self.inner.unanswered
    }
}

impl Transport for VantageTransport<'_> {
    fn send(&mut self, bytes: &[u8], now_ns: u64) {
        self.inner
            .send(bytes, now_ns.saturating_add(self.path_rtt_ns));
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<(u64, Vec<u8>)>) {
        self.inner.recv(now_ns, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;
    use crate::spec::{AsProfile, AsSpec, BlockSpec, WorldConfig, WorldScale};
    use fbs_prober::{ScanConfig, Scanner, TargetSet};
    use fbs_types::{Asn, Oblast, Prefix};

    fn world() -> World {
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
                base_responders: 30,
                geo_population: 180,
                response_prob: 0.9,
                diurnal: false,
                power_backup: 0.5,
                annual_decay: 0.9,
            })
            .collect();
        World::new(
            WorldConfig {
                seed: 5,
                scale: WorldScale::Tiny,
                rounds: 60,
                ases,
                blocks,
            },
            Script::new(),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_empty_names() {
        assert!(VantageSpec::new("kyiv").validate().is_ok());
        assert!(VantageSpec::new("").validate().is_err());
    }

    #[test]
    fn fault_domains_are_independent_per_vantage() {
        let rng = WorldRng::new(7);
        let a = VantageSpec::new("a").fault_domain(&rng);
        let b = VantageSpec::new("b").fault_domain(&rng);
        let legacy = rng.domain("faults");
        assert_ne!(a.hash3(1, 2, 3), b.hash3(1, 2, 3));
        assert_ne!(a.hash3(1, 2, 3), legacy.hash3(1, 2, 3));
        // Same name, same draws: the domain is keyed by name alone.
        let a2 = VantageSpec::new("a").fault_domain(&rng);
        assert_eq!(a.hash3(1, 2, 3), a2.hash3(1, 2, 3));
    }

    #[test]
    fn path_latency_shows_up_in_measured_rtts() {
        let w = world();
        let targets = TargetSet::from_blocks(w.blocks().iter().map(|b| b.block).collect());
        let scanner = Scanner::new(ScanConfig {
            rate_pps: 1_000_000,
            ..ScanConfig::default()
        });
        let round = Round(3);

        let near = VantageSpec::new("near");
        let far = VantageSpec {
            path_rtt_ns: 25_000_000,
            ..VantageSpec::new("far")
        };
        let (obs_near, _) = scanner.scan_round(round, &targets, &mut near.transport(&w, round));
        let (obs_far, _) = scanner.scan_round(round, &targets, &mut far.transport(&w, round));

        // Same responders, shifted RTTs.
        for (a, b) in obs_near.blocks.iter().zip(obs_far.blocks.iter()) {
            assert_eq!(a.responders, b.responders);
            if let (Some(n), Some(f)) = (a.rtt.mean_ns(), b.rtt.mean_ns()) {
                assert_eq!(f, n + 25_000_000, "path latency must shift the RTT");
            }
        }
    }
}
