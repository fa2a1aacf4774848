//! The scenario generator: population + script + strikes → world.

use crate::regions::{params, NATIONAL_ISPS, REGION_PARAMS};
use crate::roster::{cable_cut_victims, Hq, KHERSON_ROSTER};
use crate::timeline;
use fbs_netsim::{
    AsProfile, AsSpec, BlockSpec, EventKind, EventTarget, Script, ScriptedEvent, StrikeEvent,
    World, WorldConfig, WorldRng, WorldScale,
};
use fbs_types::{Asn, BlockId, Oblast, Prefix, Round};

/// A fully-specified scenario, ready to become a [`World`].
pub struct Scenario {
    /// The population.
    pub config: WorldConfig,
    /// The war-event script.
    pub script: Script,
    /// The power-grid strike calendar.
    pub strikes: Vec<StrikeEvent>,
}

impl Scenario {
    /// Assembles the world.
    pub fn into_world(self) -> fbs_types::Result<World> {
        World::new(self.config, self.script, self.strikes)
    }

    /// Serializes the complete scenario (population, script, strikes) to
    /// JSON, so it can be archived, diffed or hand-edited and re-run.
    pub fn to_json(&self) -> String {
        let doc = ScenarioDoc {
            config: &self.config,
            events: self.script.events(),
            strikes: &self.strikes,
        };
        serde_json::to_string_pretty(&doc).expect("scenario serializes")
    }

    /// Parses a scenario back from [`Scenario::to_json`] output.
    pub fn from_json(text: &str) -> fbs_types::Result<Scenario> {
        let doc: ScenarioDocOwned = serde_json::from_str(text)
            .map_err(|e| fbs_types::FbsError::parse(format!("scenario JSON: {e}"), ""))?;
        let mut script = Script::new();
        for e in doc.events {
            script.push(e);
        }
        Ok(Scenario {
            config: doc.config,
            script,
            strikes: doc.strikes,
        })
    }
}

#[derive(serde::Serialize)]
struct ScenarioDoc<'a> {
    config: &'a WorldConfig,
    events: &'a [ScriptedEvent],
    strikes: &'a [StrikeEvent],
}

#[derive(serde::Deserialize)]
struct ScenarioDocOwned {
    config: WorldConfig,
    events: Vec<ScriptedEvent>,
    strikes: Vec<StrikeEvent>,
}

/// Builds the Ukraine 2022–2025 scenario over the full campaign window.
pub fn ukraine(scale: WorldScale, seed: u64) -> Scenario {
    ukraine_with_rounds(scale, seed, Round::campaign_total())
}

/// Hands out synthetic /24 space, skipping ranges reserved for explicitly
///-addressed ASes (Status, Kyivstar).
struct BlockAllocator {
    next: u32,
}

impl BlockAllocator {
    fn new() -> Self {
        // Synthetic space starts at 46.0.0.0; the explicit ranges
        // (176.8/16, 193.151/16) lie elsewhere.
        BlockAllocator {
            next: BlockId::from_octets(46, 0, 0).0,
        }
    }

    fn take(&mut self, n: u32) -> Vec<BlockId> {
        let start = self.next;
        self.next += n;
        (start..start + n).map(BlockId).collect()
    }
}

/// Builds the scenario with a custom round budget (tests use short runs).
pub fn ukraine_with_rounds(scale: WorldScale, seed: u64, rounds: u32) -> Scenario {
    let rng = WorldRng::new(seed).domain("scenario");
    let fraction = scale.as_fraction();
    let mut alloc = BlockAllocator::new();
    let mut ases: Vec<AsSpec> = Vec::new();
    let mut blocks: Vec<BlockSpec> = Vec::new();

    let scaled = |n: u32| -> u32 { ((n as f64 * fraction).round() as u32).max(1) };

    // --- 1. The Kherson roster, always present and exact in its regional
    // block counts (the oblast under the microscope). ---
    let roster_asns: Vec<u32> = KHERSON_ROSTER.iter().map(|a| a.asn).collect();
    for entry in &KHERSON_ROSTER {
        let profile = match entry.hq {
            Hq::Foreign(_) => AsProfile::Foreign,
            Hq::City(..) if entry.regional => AsProfile::Regional,
            Hq::City(..) if entry.total_24s >= 20 => AsProfile::National,
            Hq::City(..) => AsProfile::Regional,
        };
        // Regional Kherson providers keep exact counts; large non-regional
        // totals scale with the world.
        let (regional_n, total_n) = if entry.regional || entry.total_24s <= 20 {
            (entry.regional_24s, entry.total_24s)
        } else {
            (
                scaled(entry.regional_24s),
                scaled(entry.total_24s).max(scaled(entry.regional_24s) + 1),
            )
        };

        // Non-regional ASes whose Kherson-regional count equals their
        // total (Yanina, Brok-X, NTT, …) cannot be made non-regional with
        // every block in the oblast: the paper's borderline geolocation
        // for them is modeled by homing roughly half their blocks in
        // neighbouring space instead.
        let regional_n_eff = if !entry.regional && regional_n == total_n {
            (total_n / 2)
                .max(1)
                .min(total_n.saturating_sub(1))
                .max(if total_n == 1 { 0 } else { 1 })
        } else {
            regional_n
        };

        let block_ids: Vec<BlockId> = match entry.asn {
            // Status: the paper's four explicit blocks — three in Kherson,
            // one regional to Kyiv (193.151.243).
            25482 => "193.151.240.0/22"
                .parse::<Prefix>()
                .expect("static prefix")
                .blocks()
                .collect(),
            // Kyivstar: allocated from 176.8/16 so that the Fig. 2 block
            // 176.8.28 exists and is homed in Kherson.
            15895 => (0..total_n)
                .map(|i| BlockId(BlockId::from_octets(176, 8, 0).0 + i))
                .collect(),
            _ => alloc.take(total_n),
        };

        for (i, block) in block_ids.iter().enumerate() {
            let home = if entry.asn == 25482 {
                if i < 3 {
                    Oblast::Kherson
                } else {
                    Oblast::Kyiv
                }
            } else if entry.asn == 15895 {
                // Block 176.8.28 (index 28) must be Kherson; the first
                // `regional_n` synthetic slots are too, the rest spread.
                if i == 28 || i < regional_n as usize {
                    Oblast::Kherson
                } else {
                    spread_home(&rng, entry.asn, i)
                }
            } else if (i as u32) < regional_n_eff {
                Oblast::Kherson
            } else if entry.regional {
                entry.hq_oblast().unwrap_or(Oblast::Kyiv)
            } else {
                // Non-regional providers' remaining blocks are spread
                // across the country — that is what makes them
                // non-regional despite their Kherson presence.
                spread_home(&rng, entry.asn, i)
            };
            blocks.push(block_spec(&rng, *block, entry.asn, home, profile));
        }

        ases.push(AsSpec {
            asn: entry.asn(),
            name: entry.name.to_string(),
            profile,
            hq: entry.hq_oblast(),
            prefixes: if entry.asn == 25482 {
                vec!["193.151.240.0/22".parse().expect("static prefix")]
            } else {
                block_ids.iter().map(|b| Prefix::from_block(*b)).collect()
            },
            base_rtt_ns: base_rtt(&rng, entry.asn, profile),
            upstream: Asn(6939),
        });
    }

    // --- 2. Synthetic regional ASes for the other 25 oblasts. ---
    let mut next_asn = 400_000u32;
    for rp in &REGION_PARAMS {
        if rp.oblast == Oblast::Kherson {
            continue; // covered by the roster
        }
        let n_ases = scaled(rp.regional_ases_paper);
        let target_blocks = scaled((rp.blocks_paper as f64 * 0.8) as u32);
        let mut produced = 0u32;
        // Keep adding providers until both the AS count and the oblast's
        // block quota are met — the heavy tail alone undershoots.
        let mut i = 0u32;
        while i < n_ases || produced < target_blocks {
            let asn = next_asn;
            next_asn += 1;
            // Heavy-tailed block counts (paper: 2,024 ASes hold 35.2K
            // /24s, a mean near 17): many 1–3-block providers, a middle
            // class, and a few city-scale ISPs with up to ~120.
            let u = rng.uniform3(asn as u64, 0, 0);
            let n_blocks = if u < 0.5 {
                1 + rng.below3(3, asn as u64, 1, 0) as u32
            } else if u < 0.8 {
                4 + rng.below3(7, asn as u64, 1, 1) as u32
            } else if u < 0.95 {
                12 + rng.below3(28, asn as u64, 1, 2) as u32
            } else {
                40 + rng.below3(80, asn as u64, 1, 3) as u32
            };
            i += 1;
            let ids = alloc.take(n_blocks.min(64));
            produced += ids.len() as u32;
            for b in &ids {
                blocks.push(block_spec(&rng, *b, asn, rp.oblast, AsProfile::Regional));
            }
            ases.push(AsSpec {
                asn: Asn(asn),
                name: format!("{}-Net-{}", rp.oblast.name(), i),
                profile: AsProfile::Regional,
                hq: Some(rp.oblast),
                prefixes: ids.iter().map(|b| Prefix::from_block(*b)).collect(),
                base_rtt_ns: base_rtt(&rng, asn, AsProfile::Regional),
                upstream: Asn(6939),
            });
        }
    }

    // --- 3. Extra national ISPs (those not already in the roster). ---
    for (asn, name, blocks_paper, responsiveness) in NATIONAL_ISPS {
        if roster_asns.contains(&asn) {
            continue;
        }
        let n = scaled(blocks_paper);
        let ids = alloc.take(n);
        for (i, b) in ids.iter().enumerate() {
            let home = spread_home(&rng, asn, i);
            let mut spec = block_spec(&rng, *b, asn, home, AsProfile::National);
            // National responsiveness differs from the home oblast's.
            spec.base_responders = ((256.0 * responsiveness / 0.85) as u16).clamp(8, 250);
            blocks.push(spec);
        }
        ases.push(AsSpec {
            asn: Asn(asn),
            name: name.to_string(),
            profile: AsProfile::National,
            hq: Some(Oblast::Kyiv),
            prefixes: ids.iter().map(|b| Prefix::from_block(*b)).collect(),
            base_rtt_ns: base_rtt(&rng, asn, AsProfile::National),
            upstream: Asn(3356),
        });
    }

    // --- 4. The script: core paper events + background frontline noise. ---
    let mut script = Script::new();
    let rerouted: Vec<Asn> = KHERSON_ROSTER
        .iter()
        .filter(|a| a.rerouted)
        .map(|a| a.asn())
        .collect();
    let left_bank: Vec<Asn> = KHERSON_ROSTER
        .iter()
        .filter(|a| a.left_bank)
        .map(|a| a.asn())
        .collect();
    for e in timeline::core_events(&cable_cut_victims(), &rerouted, &left_bank) {
        script.push(e);
    }
    frontline_noise(&mut script, &rng, &ases, rounds);

    Scenario {
        config: WorldConfig {
            seed,
            scale,
            rounds,
            ases,
            blocks,
        },
        script,
        strikes: timeline::power_strikes(),
    }
}

/// Picks a national ISP block's home oblast, weighted by block counts.
fn spread_home(rng: &WorldRng, asn: u32, i: usize) -> Oblast {
    let total: u32 = REGION_PARAMS.iter().map(|p| p.blocks_paper).sum();
    let mut pick = rng.below3(total as u64, asn as u64, i as u64, 3) as u32;
    for p in &REGION_PARAMS {
        if pick < p.blocks_paper {
            return p.oblast;
        }
        pick -= p.blocks_paper;
    }
    Oblast::Kyiv
}

fn block_spec(
    rng: &WorldRng,
    block: BlockId,
    owner: u32,
    home: Oblast,
    profile: AsProfile,
) -> BlockSpec {
    let rp = params(home);
    let c = block.0 as u64;
    // Geo population first (192–255 DB entries per block — a stable block
    // must clear the 0.7 × 256 regional-share bar), then a responder pool
    // sized so responsive/population ≈ the oblast's share (Fig. 6).
    let geo_population = 192 + rng.below3(64, c, 1, 0) as u16;
    let base_responders = (((geo_population as f64) * rp.responsiveness / 0.85).round() as u16)
        .clamp(3, geo_population);
    // Decay: Fig. 1's change target net of scripted geo moves.
    let move_frac = timeline::scripted_move_fraction(home);
    let target3y = (1.0 + rp.change_pct / 100.0) / (1.0 - move_frac).max(0.05);
    let annual_decay = target3y.powf(1.0 / 3.0).clamp(0.5, 1.2);
    BlockSpec {
        block,
        owner: Asn(owner),
        home,
        base_responders,
        geo_population,
        response_prob: 0.80 + 0.12 * rng.uniform3(c, 2, 0),
        diurnal: rng.chance3(0.25, c, 3, 0),
        power_backup: {
            let base = match profile {
                // PON + generators keep regional fixed lines partly alive.
                AsProfile::Regional => 0.35 + 0.35 * rng.uniform3(c, 4, 0),
                AsProfile::National => 0.10 + 0.20 * rng.uniform3(c, 4, 0),
                AsProfile::Foreign => 0.9,
            };
            // Frontline operators harden hardest (paper §6: KS-IX sharing,
            // redundant links, emergency power, PON) — their outages come
            // from war damage, not the grid.
            if home.is_frontline() {
                (base + 0.3).min(0.9)
            } else {
                base
            }
        },
        annual_decay,
    }
}

fn base_rtt(rng: &WorldRng, asn: u32, profile: AsProfile) -> u64 {
    let jitter = rng.below3(15_000_000, asn as u64, 9, 0);
    match profile {
        AsProfile::Regional => 35_000_000 + jitter,
        AsProfile::National => 25_000_000 + jitter,
        AsProfile::Foreign => 15_000_000 + jitter,
    }
}

/// Frontline regions suffer recurring local disruptions through the whole
/// campaign (shelling, line cuts): roughly one partial-region event and a
/// chance of a single-AS outage per oblast-week. Non-frontline oblasts get
/// only sparse background noise.
fn frontline_noise(script: &mut Script, rng: &WorldRng, ases: &[AsSpec], rounds: u32) {
    let weeks = rounds / (7 * 12) + 1;
    for rp in &REGION_PARAMS {
        let frontline = rp.oblast.is_frontline();
        for week in 0..weeks {
            let o = rp.oblast.index() as u64;
            let p_event = if frontline { 0.45 } else { 0.03 };
            if rng.chance3(p_event, o, week as u64, 50) {
                let start_round = week * 84 + rng.below3(84, o, week as u64, 51) as u32;
                let dur = 2 + rng.below3(36, o, week as u64, 52) as u32;
                let scale = 0.3 + 0.45 * rng.uniform3(o, week as u64, 53);
                script.push(ScriptedEvent {
                    name: format!("frontline damage {} w{week}", rp.oblast.name()),
                    target: EventTarget::Region(rp.oblast),
                    kind: EventKind::IpsScale(scale),
                    start: Round(start_round.min(rounds.saturating_sub(1))).start(),
                    end: Some(Round((start_round + dur).min(rounds)).start()),
                });
            }
            let p_as_outage = if frontline { 0.25 } else { 0.04 };
            if rng.chance3(p_as_outage, o, week as u64, 60) {
                // A random AS headquartered here goes dark for a few hours.
                let local: Vec<&AsSpec> = ases.iter().filter(|a| a.hq == Some(rp.oblast)).collect();
                if !local.is_empty() {
                    let pick = rng.below3(local.len() as u64, o, week as u64, 61) as usize;
                    let start_round = week * 84 + rng.below3(84, o, week as u64, 62) as u32;
                    let dur = 1 + rng.below3(12, o, week as u64, 63) as u32;
                    script.push(ScriptedEvent {
                        name: format!("local outage {} w{week}", local[pick].name),
                        target: EventTarget::As(local[pick].asn),
                        kind: EventKind::BgpOutage,
                        start: Round(start_round.min(rounds.saturating_sub(1))).start(),
                        end: Some(Round((start_round + dur).min(rounds)).start()),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_builds_and_validates() {
        let scenario = ukraine_with_rounds(WorldScale::Tiny, 1, 600);
        assert!(scenario.config.validate().is_ok());
        let world = scenario.into_world().unwrap();
        assert!(world.blocks().len() > 100);
        assert!(world.config().ases.len() > 40);
    }

    #[test]
    fn roster_ases_present_with_exact_regional_blocks() {
        let scenario = ukraine_with_rounds(WorldScale::Tiny, 1, 600);
        let cfg = &scenario.config;
        // Status: 4 blocks, 3 in Kherson, 1 in Kyiv.
        let status: Vec<&BlockSpec> = cfg.blocks_of(Asn(25482)).collect();
        assert_eq!(status.len(), 4);
        let kherson = status.iter().filter(|b| b.home == Oblast::Kherson).count();
        assert_eq!(kherson, 3);
        assert_eq!(status.iter().filter(|b| b.home == Oblast::Kyiv).count(), 1);
        // All 13 regional roster ASes exist with exact counts.
        for entry in KHERSON_ROSTER.iter().filter(|a| a.regional) {
            let n = cfg.blocks_of(entry.asn()).count() as u32;
            assert_eq!(n, entry.total_24s, "{} block count", entry.name);
        }
    }

    #[test]
    fn kyivstar_has_fig2_block_in_kherson() {
        let scenario = ukraine_with_rounds(WorldScale::Small, 1, 600);
        let b = scenario
            .config
            .blocks
            .iter()
            .find(|b| b.block == BlockId::from_octets(176, 8, 28))
            .expect("Fig. 2 block exists");
        assert_eq!(b.owner, Asn(15895));
        assert_eq!(b.home, Oblast::Kherson);
    }

    #[test]
    fn every_oblast_is_populated() {
        let scenario = ukraine_with_rounds(WorldScale::Small, 1, 600);
        let world = scenario.into_world().unwrap();
        let by_oblast = world.blocks_by_oblast();
        for o in fbs_types::ALL_OBLASTS {
            assert!(
                by_oblast.get(&o).map(|v| v.len()).unwrap_or(0) > 0,
                "{o} has no blocks"
            );
        }
        // Kyiv dominates.
        assert!(by_oblast[&Oblast::Kyiv].len() > by_oblast[&Oblast::Kherson].len());
    }

    #[test]
    fn scales_are_ordered() {
        let tiny = ukraine_with_rounds(WorldScale::Tiny, 1, 120);
        let small = ukraine_with_rounds(WorldScale::Small, 1, 120);
        assert!(small.config.blocks.len() > 3 * tiny.config.blocks.len());
        assert!(small.config.ases.len() > tiny.config.ases.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ukraine_with_rounds(WorldScale::Tiny, 7, 240);
        let b = ukraine_with_rounds(WorldScale::Tiny, 7, 240);
        assert_eq!(a.config.blocks.len(), b.config.blocks.len());
        assert_eq!(a.config.ases.len(), b.config.ases.len());
        assert_eq!(a.script.events().len(), b.script.events().len());
        for (x, y) in a.config.blocks.iter().zip(&b.config.blocks) {
            assert_eq!(x, y);
        }
        // Different seed, different noise.
        let c = ukraine_with_rounds(WorldScale::Tiny, 8, 240);
        assert_ne!(
            a.script.events().len(),
            c.script.events().len(),
            "noise should differ across seeds (flaky only if counts collide)"
        );
    }

    #[test]
    fn kherson_blocks_have_low_responsiveness_share() {
        let scenario = ukraine_with_rounds(WorldScale::Small, 1, 120);
        let share = |o: Oblast| -> f64 {
            let blocks: Vec<&BlockSpec> = scenario
                .config
                .blocks
                .iter()
                .filter(|b| b.home == o && b.owner.0 >= 400_000)
                .collect();
            let resp: f64 = blocks.iter().map(|b| b.base_responders as f64 * 0.85).sum();
            let pop: f64 = blocks.iter().map(|b| b.geo_population as f64).sum();
            resp / pop
        };
        // Compare synthetic regional blocks of a healthy vs frontline oblast.
        assert!(share(Oblast::Kyiv) > 0.18);
        // Kherson's roster blocks aren't synthetic; use Luhansk instead.
        assert!(share(Oblast::Luhansk) < 0.12);
    }

    #[test]
    fn frontline_gets_more_noise_than_rear() {
        let scenario = ukraine_with_rounds(WorldScale::Tiny, 3, 12 * 7 * 20);
        let count = |needle: &str| {
            scenario
                .script
                .events()
                .iter()
                .filter(|e| e.name.contains(needle))
                .count()
        };
        let kherson_noise = count("frontline damage Kherson");
        let lviv_noise = count("frontline damage Lviv");
        assert!(
            kherson_noise > 2 * lviv_noise.max(1),
            "kherson {kherson_noise} vs lviv {lviv_noise}"
        );
    }

    #[test]
    fn scenario_json_roundtrip() {
        let a = ukraine_with_rounds(WorldScale::Tiny, 4, 240);
        let json = a.to_json();
        let b = Scenario::from_json(&json).expect("parses");
        // Structure is identical; floats may drift by an ulp through the
        // JSON text form, so compare fields semantically.
        assert_eq!(a.config.blocks.len(), b.config.blocks.len());
        assert_eq!(a.config.ases.len(), b.config.ases.len());
        assert_eq!(a.strikes.len(), b.strikes.len());
        assert_eq!(a.script.events().len(), b.script.events().len());
        for (x, y) in a.config.blocks.iter().zip(&b.config.blocks) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.owner, y.owner);
            assert_eq!(x.home, y.home);
            assert_eq!(x.base_responders, y.base_responders);
            assert_eq!(x.geo_population, y.geo_population);
            assert!((x.response_prob - y.response_prob).abs() < 1e-12);
            assert!((x.power_backup - y.power_backup).abs() < 1e-12);
        }
        // And the round-tripped scenario builds an equivalent world:
        // responsive counts match within the rounding of a sub-ulp
        // probability difference (i.e. exactly, for integer counts).
        let wa = a.into_world().unwrap();
        let wb = b.into_world().unwrap();
        for bi in (0..wa.blocks().len()).step_by(17) {
            let ta = wa.block_truth(Round(100), bi);
            let tb = wb.block_truth(Round(100), bi);
            assert_eq!(ta.routed, tb.routed);
            assert_eq!(ta.pool, tb.pool);
            assert!((ta.responsive as i64 - tb.responsive as i64).abs() <= 1);
        }
    }

    #[test]
    fn full_campaign_scenario_builds() {
        let scenario = ukraine(WorldScale::Tiny, 5);
        assert_eq!(scenario.config.rounds, Round::campaign_total());
        assert!(scenario.into_world().is_ok());
    }
}
