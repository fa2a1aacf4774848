//! The assembled world: truth queries, BGP log, data-source exports.
//!
//! Truth queries run tens of millions of times per campaign, so the world
//! precompiles its lookup structures at construction:
//!
//! * **per-block modifier timelines** — every scripted event is distributed
//!   to the blocks it touches (by block, AS, region or country), leaving
//!   each block with small sorted interval lists that answer "am I
//!   unreachable / scaled / rerouted at round r" with a binary search;
//! * **a per-round power bitmask** — one `u32` of oblast bits per round,
//!   so the blackout check is a single AND in the hot path;
//! * **a per-(month, block) responder-pool table** and **a per-block
//!   Trinocular address factor** — constants the queries would otherwise
//!   recompute on every call (a `powf` and a hash draw), each evaluated
//!   once with the same expression, so every value is bit-identical; the
//!   table's `powf` runs once per distinct decay and month.

use crate::power::{PowerCalendar, StrikeEvent};
use crate::rng::WorldRng;
use crate::script::{EventKind, EventTarget, Script};
use crate::spec::{decay_factor, BlockSpec, WorldConfig};
use fbs_bgp::EventLog;
use fbs_prober::ResponderBitmap;
use fbs_types::{Asn, BlockId, MonthId, Oblast, Result, Round};
use std::collections::BTreeMap;

/// Ground truth for one block at one round: a [`BlockState`] plus the
/// round-trip time, as composed by [`World::block_truth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTruth {
    /// Whether the block is reachable through BGP.
    pub routed: bool,
    /// Responder-pool size this month (the "ever-active" ground truth).
    pub pool: u16,
    /// Addresses that answer a probe this round.
    pub responsive: u32,
    /// Round-trip time to the block this round, nanoseconds; 0 when the
    /// block is unrouted or its pool is empty.
    pub rtt_ns: u64,
    /// Per-address response probability in effect (for Trinocular
    /// emulation, which probes addresses individually).
    pub response_prob: f64,
}

/// Ground truth for one block at one round without the round-trip time:
/// what [`World::block_state`] evaluates. Each field means what the
/// [`BlockTruth`] field of the same name does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockState {
    /// Whether the block is reachable through BGP.
    pub routed: bool,
    /// Responder-pool size this month.
    pub pool: u16,
    /// Addresses that answer a probe this round.
    pub responsive: u32,
    /// Per-address response probability in effect.
    pub response_prob: f64,
}

impl BlockState {
    /// The full truth: this state with round-trip time `rtt_ns`.
    pub fn with_rtt(self, rtt_ns: u64) -> BlockTruth {
        BlockTruth {
            routed: self.routed,
            pool: self.pool,
            responsive: self.responsive,
            rtt_ns,
            response_prob: self.response_prob,
        }
    }
}

/// Per-block compiled event effects.
#[derive(Debug, Clone, Default)]
struct BlockMods {
    /// Merged, sorted, non-overlapping unreachability intervals.
    down: Vec<(u32, u32)>,
    /// Responsiveness scale intervals, sorted by start (may overlap —
    /// factors multiply).
    scale: Vec<(u32, u32, f64)>,
    scale_max_len: u32,
    /// Reroute intervals `(start, end, extra rtt)`; the largest extra wins.
    reroute: Vec<(u32, u32, u64)>,
    reroute_max_len: u32,
    /// Night-hours-only scale intervals.
    night: Vec<(u32, u32, f64)>,
    night_max_len: u32,
}

impl BlockMods {
    fn finalize(&mut self) {
        // Union-merge the down intervals.
        self.down.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.down.len());
        for &(s, e) in &self.down {
            match merged.last_mut() {
                Some((_, le)) if s <= *le => *le = (*le).max(e),
                _ => merged.push((s, e)),
            }
        }
        self.down = merged;
        self.scale.sort_by_key(|&(s, ..)| s);
        self.scale_max_len = self.scale.iter().map(|&(s, e, _)| e - s).max().unwrap_or(0);
        self.reroute.sort_by_key(|&(s, ..)| s);
        self.reroute_max_len = self
            .reroute
            .iter()
            .map(|&(s, e, _)| e - s)
            .max()
            .unwrap_or(0);
        self.night.sort_by_key(|&(s, ..)| s);
        self.night_max_len = self.night.iter().map(|&(s, e, _)| e - s).max().unwrap_or(0);
    }

    #[inline]
    fn night_scale_at(&self, r: u32) -> f64 {
        if self.night.is_empty() {
            return 1.0;
        }
        let mut factor = 1.0;
        let hi = self.night.partition_point(|&(s, ..)| s <= r);
        let mut i = hi;
        while i > 0 {
            i -= 1;
            let (s, e, f) = self.night[i];
            if s + self.night_max_len < r {
                break;
            }
            if r >= s && r < e {
                factor *= f;
            }
        }
        factor
    }

    #[inline]
    fn is_down(&self, r: u32) -> bool {
        // Find the last interval starting at or before r.
        let idx = self.down.partition_point(|&(s, _)| s <= r);
        idx > 0 && r < self.down[idx - 1].1
    }

    #[inline]
    fn scale_at(&self, r: u32) -> f64 {
        if self.scale.is_empty() {
            return 1.0;
        }
        let mut factor = 1.0;
        let hi = self.scale.partition_point(|&(s, ..)| s <= r);
        let mut i = hi;
        while i > 0 {
            i -= 1;
            let (s, e, f) = self.scale[i];
            if s + self.scale_max_len < r {
                break;
            }
            if r >= s && r < e {
                factor *= f;
            }
        }
        factor
    }

    #[inline]
    fn reroute_extra(&self, r: u32) -> u64 {
        if self.reroute.is_empty() {
            return 0;
        }
        let mut best = 0u64;
        let hi = self.reroute.partition_point(|&(s, ..)| s <= r);
        let mut i = hi;
        while i > 0 {
            i -= 1;
            let (s, e, extra) = self.reroute[i];
            if s + self.reroute_max_len < r {
                break;
            }
            if r >= s && r < e {
                best = best.max(extra);
            }
        }
        best
    }
}

/// The simulated world. See the crate docs for the two consumption paths.
pub struct World {
    config: WorldConfig,
    script: Script,
    power: PowerCalendar,
    rng: WorldRng,
    /// Blocks sorted by block id; parallel to truth queries' `block_idx`.
    blocks: Vec<BlockSpec>,
    /// Per-block compiled modifiers.
    mods: Vec<BlockMods>,
    /// For each block, the owner's index in `config.ases`.
    owner_idx: Vec<usize>,
    /// ASN → index in `config.ases`.
    as_index: BTreeMap<Asn, usize>,
    /// Month index per round.
    month_of_round: Vec<u16>,
    /// Responder-pool size per month and block, month-major:
    /// `pools[m * blocks.len() + bi]` is `blocks[bi].responders_at(m)` for
    /// every month `m` the rounds span.
    pools: Vec<u16>,
    /// Per-block Trinocular address-intermittence factor, in [0.12, 0.5).
    trin_factor: Vec<f64>,
    /// Power-off oblast bitmask per round.
    power_mask: Vec<u32>,
    /// Vantage-offline flag per round.
    vantage_offline: Vec<bool>,
}

impl World {
    /// Assembles a world from its parts. Validates the configuration,
    /// compiles the script, and builds the fast-path indexes.
    pub fn new(config: WorldConfig, mut script: Script, strikes: Vec<StrikeEvent>) -> Result<Self> {
        config.validate()?;
        script.compile(config.rounds);
        let rng = WorldRng::new(config.seed);
        let power = PowerCalendar::new(rng.domain("power"), strikes);

        let mut blocks = config.blocks.clone();
        blocks.sort_by_key(|b| b.block);
        let as_index: BTreeMap<Asn, usize> = config
            .ases
            .iter()
            .enumerate()
            .map(|(i, a)| (a.asn, i))
            .collect();
        let owner_idx: Vec<usize> = blocks
            .iter()
            .map(|b| *as_index.get(&b.owner).expect("validated owner"))
            .collect();

        let first_month = MonthId::campaign_first();
        let month_of_round: Vec<u16> = (0..config.rounds)
            .map(|r| (Round(r).month().0 - first_month.0) as u16)
            .collect();

        // --- Per-block constants, each evaluated once with the expression
        // the truth queries read it through. ---
        // The pool's decay factor is one `powf` per distinct decay and
        // month, not per block: the scenarios share one decay across each
        // home oblast's blocks.
        let months = month_of_round.last().map_or(0, |&m| u32::from(m) + 1);
        let mut decays: BTreeMap<u64, usize> = BTreeMap::new();
        let mut factors: Vec<f64> = Vec::new();
        let block_decay: Vec<usize> = blocks
            .iter()
            .map(|b| {
                *decays.entry(b.annual_decay.to_bits()).or_insert_with(|| {
                    let first = factors.len();
                    factors.extend((0..months).map(|m| decay_factor(b.annual_decay, m)));
                    first
                })
            })
            .collect();
        let pools: Vec<u16> = (0..months as usize)
            .flat_map(|m| {
                let factors = &factors;
                blocks
                    .iter()
                    .zip(&block_decay)
                    .map(move |(b, &first)| b.pool_with(factors[first + m]))
            })
            .collect();
        let trin_factor: Vec<f64> = blocks
            .iter()
            .map(|b| 0.12 + 0.38 * rng.uniform3(b.block.0 as u64, 31, 7))
            .collect();

        // --- Compile per-block modifier timelines. ---
        let block_pos: BTreeMap<BlockId, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.block, i))
            .collect();
        let mut by_as: BTreeMap<Asn, Vec<usize>> = BTreeMap::new();
        let mut by_region: BTreeMap<Oblast, Vec<usize>> = BTreeMap::new();
        for (i, b) in blocks.iter().enumerate() {
            by_as.entry(b.owner).or_default().push(i);
            by_region.entry(b.home).or_default().push(i);
        }
        let mut mods: Vec<BlockMods> = vec![BlockMods::default(); blocks.len()];
        let all_indices: Vec<usize> = (0..blocks.len()).collect();
        let empty: Vec<usize> = Vec::new();
        let mut vantage_offline = vec![false; config.rounds as usize];
        for e in script.events() {
            let range = e.round_range(config.rounds);
            if range.is_empty() && !matches!(e.kind, EventKind::Decommission | EventKind::Activate)
            {
                continue;
            }
            let targets: &Vec<usize> = match e.target {
                EventTarget::Block(b) => {
                    if let Some(&i) = block_pos.get(&b) {
                        apply_event(&mut mods[i], e, &range, config.rounds);
                    }
                    continue;
                }
                EventTarget::As(a) => by_as.get(&a).unwrap_or(&empty),
                EventTarget::Region(o) => by_region.get(&o).unwrap_or(&empty),
                EventTarget::Country => {
                    if matches!(e.kind, EventKind::VantageOutage) {
                        for r in range.clone() {
                            vantage_offline[r as usize] = true;
                        }
                        continue;
                    }
                    &all_indices
                }
            };
            for &i in targets {
                apply_event(&mut mods[i], e, &range, config.rounds);
            }
        }
        for m in &mut mods {
            m.finalize();
        }

        // --- Power bitmask per round. ---
        let mut power_mask = vec![0u32; config.rounds as usize];
        for (r, mask) in power_mask.iter_mut().enumerate() {
            let round = Round(r as u32);
            for o in fbs_types::ALL_OBLASTS {
                if power.is_off(o, round) {
                    *mask |= 1 << o.index();
                }
            }
        }

        Ok(World {
            config,
            script,
            power,
            rng,
            blocks,
            mods,
            owner_idx,
            as_index,
            month_of_round,
            pools,
            trin_factor,
            power_mask,
            vantage_offline,
        })
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The compiled event script.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// The power calendar.
    pub fn power(&self) -> &PowerCalendar {
        &self.power
    }

    /// Number of simulated rounds.
    pub fn rounds(&self) -> u32 {
        self.config.rounds
    }

    /// Blocks in truth-query order (sorted by block id).
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    /// Index of a block id in truth-query order.
    pub fn block_index(&self, block: BlockId) -> Option<usize> {
        self.blocks.binary_search_by_key(&block, |b| b.block).ok()
    }

    /// The AS spec for an ASN.
    pub fn as_spec(&self, asn: Asn) -> Option<&crate::spec::AsSpec> {
        self.as_index.get(&asn).map(|&i| &self.config.ases[i])
    }

    /// Whether the vantage point can measure at all this round.
    pub fn vantage_online(&self, round: Round) -> bool {
        !self
            .vantage_offline
            .get(round.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Month index (0-based from campaign start) of a round.
    pub fn month_index(&self, round: Round) -> u32 {
        self.month_of_round[round.0 as usize] as u32
    }

    /// The rounds of `month` clamped to this world's simulated span.
    pub fn month_rounds(&self, month: MonthId) -> std::ops::Range<u32> {
        let r = month.campaign_rounds();
        r.start.min(self.config.rounds)..r.end.min(self.config.rounds)
    }

    /// Whether the oblast's grid is down at `round` (precomputed).
    #[inline]
    pub fn power_off(&self, oblast: Oblast, round: Round) -> bool {
        self.power_mask[round.0 as usize] & (1 << oblast.index()) != 0
    }

    /// Block `bi`'s responder-pool size in `round`'s month (precomputed).
    #[inline]
    fn pool(&self, round: Round, bi: usize) -> u16 {
        self.pools[usize::from(self.month_of_round[round.0 as usize]) * self.blocks.len() + bi]
    }

    /// Whether the block is unreachable (BGP-style) at `round`.
    #[inline]
    pub fn block_down(&self, round: Round, bi: usize) -> bool {
        self.mods[bi].is_down(round.0)
    }

    /// The per-address response probability for a block at a round, after
    /// all modifiers (script scaling, diurnal cycle, power state).
    pub fn response_prob(&self, round: Round, bi: usize) -> f64 {
        let b = &self.blocks[bi];
        let mut p = b.response_prob * self.mods[bi].scale_at(round.0);
        // Ukraine is UTC+2 (ignoring DST): quiet hours 01:00–07:00.
        let local_hour = (round.hour() as u32 + 2) % 24;
        let night = (1..7).contains(&local_hour);
        if night {
            if b.diurnal {
                // Ambient day/night usage cycle: a visible dip, but above
                // the 80% detection bar for a steady provider.
                p *= 0.82;
            }
            p *= self.mods[bi].night_scale_at(round.0);
        }
        if self.power_off(b.home, round) {
            p *= b.power_backup;
        }
        p.clamp(0.0, 1.0)
    }

    /// Oracle-path truth: responsive count, routing state and RTT — the
    /// composition of [`Self::block_state`] and [`Self::truth_rtt_ns`].
    /// A caller that discards the RTT calls `block_state` alone and skips
    /// its draw; every draw is coordinate-addressed, so no other moves.
    pub fn block_truth(&self, round: Round, bi: usize) -> BlockTruth {
        let state = self.block_state(round, bi);
        state.with_rtt(self.truth_rtt_ns(&state, round, bi))
    }

    /// Oracle-path truth without the RTT: routing state, pool, responsive
    /// count and response probability.
    pub fn block_state(&self, round: Round, bi: usize) -> BlockState {
        let b = &self.blocks[bi];
        let routed = !self.block_down(round, bi);
        let pool = self.pool(round, bi);
        if !routed || pool == 0 {
            return BlockState {
                routed,
                pool,
                responsive: 0,
                response_prob: 0.0,
            };
        }
        let p = self.response_prob(round, bi);
        // Responsive counts are *persistent*, not i.i.d.: the same hosts
        // answer round after round, so round-to-round variance is far below
        // binomial (the paper measures an FBS signal-to-noise ratio near
        // 100, versus Trinocular's ~7.6). Model: expected count plus a
        // small sub-Poisson jitter.
        let mean = pool as f64 * p;
        let sd = 0.1 * mean.sqrt() + 0.005 * mean;
        let z = self.rng.normal3(round.0 as u64, b.block.0 as u64, 1);
        let responsive = (mean + z * sd).round().clamp(0.0, pool as f64) as u32;
        BlockState {
            routed,
            pool,
            responsive,
            response_prob: p,
        }
    }

    /// The RTT [`Self::block_truth`] reports for block `bi` in `state`
    /// (its [`Self::block_state`] at `round`): [`Self::rtt_ns`] when the
    /// block answers at all (routed, with a non-empty pool), else 0.
    pub fn truth_rtt_ns(&self, state: &BlockState, round: Round, bi: usize) -> u64 {
        if state.routed && state.pool > 0 {
            self.rtt_ns(round, bi)
        } else {
            0
        }
    }

    /// Round-trip time to a block this round (base + rerouting + jitter).
    pub fn rtt_ns(&self, round: Round, bi: usize) -> u64 {
        let b = &self.blocks[bi];
        let spec = &self.config.ases[self.owner_idx[bi]];
        let extra = self.mods[bi].reroute_extra(round.0);
        let jitter = self.rng.uniform3(round.0 as u64, b.block.0 as u64, 2);
        let base = spec.base_rtt_ns + extra;
        base + (base as f64 * 0.1 * jitter) as u64
    }

    /// The long-term per-address availability Trinocular observes for a
    /// block: the block's response probability damped by an address-level
    /// intermittence factor. Full-block scans see *any* response from 256
    /// targets; Trinocular probes single addresses, and real edge hosts
    /// answer only a minority of probes (the Trinocular paper's `A` sits
    /// mostly in 0.1–0.5) — which is exactly what makes its belief flap
    /// on sparse blocks (paper Fig. 27).
    pub fn trin_availability(&self, round: Round, bi: usize) -> f64 {
        (self.response_prob(round, bi) * self.trin_factor[bi]).clamp(0.0, 1.0)
    }

    /// Wire-path truth: the exact responder bitmap for a block this round.
    ///
    /// The responder pool occupies deterministically-chosen host octets
    /// (stable within a month); each pool member answers independently with
    /// the round's response probability. Consistent in expectation with
    /// [`Self::block_truth`], though sampled independently.
    pub fn block_bitmap(&self, round: Round, bi: usize) -> ResponderBitmap {
        let b = &self.blocks[bi];
        if self.block_down(round, bi) {
            return ResponderBitmap::EMPTY;
        }
        let month = self.month_index(round) as u64;
        let pool = self.pool(round, bi);
        let p = self.response_prob(round, bi);
        let mut bm = ResponderBitmap::EMPTY;
        let geo = self.rng.domain("hosts");
        for i in 0..pool {
            // Pool member i lives at a stable pseudorandom host octet.
            let host = geo.below3(254, b.block.0 as u64, month, i as u64) as u8 + 1;
            if self
                .rng
                .chance3(p, round.0 as u64, b.block.0 as u64, 1000 + i as u64)
            {
                bm.set(host);
            }
        }
        bm
    }

    /// Builds the RouteViews-style BGP event log for the whole campaign.
    ///
    /// One announcement per prefix at its owner's activation, withdrawals
    /// and re-announcements at every scripted AS-level transition, with AS
    /// paths reflecting active rerouting. (Block-level events model
    /// more-specific unreachability and do not surface in the collector's
    /// table, matching the paper's Status-block case.)
    pub fn bgp_log(&self) -> EventLog {
        let mut log = EventLog::new();
        let total = self.config.rounds;
        for spec in &self.config.ases {
            let transitions = self
                .script
                .bgp_transitions(EventTarget::As(spec.asn), total);
            for prefix in &spec.prefixes {
                for &(round, down) in &transitions {
                    if down {
                        if round > 0 {
                            log.withdraw(Round(round), *prefix);
                        }
                    } else {
                        let path = self.as_path(spec.asn, Round(round));
                        log.announce(Round(round), *prefix, path);
                    }
                }
            }
        }
        log
    }

    /// The AS path from the collector to `asn` at `round`, honouring
    /// scripted reroutes.
    pub fn as_path(&self, asn: Asn, round: Round) -> Vec<Asn> {
        let spec = match self.as_index.get(&asn) {
            Some(&i) => &self.config.ases[i],
            None => return vec![asn],
        };
        let targets = [EventTarget::As(asn), EventTarget::Country];
        match self.script.reroute(round.0, &targets) {
            Some((via, _)) => vec![Asn(3356), via, spec.upstream, asn],
            None => vec![Asn(3356), spec.upstream, asn],
        }
    }

    /// Ever-active ground truth for a block over a month: the pool size if
    /// the block had any active round, else zero. (With per-round response
    /// probabilities ≥ 0.3 and ~360 rounds per month, every pool member
    /// responds at least once with near certainty; see DESIGN.md.)
    pub fn ever_active(&self, month_rounds: std::ops::Range<u32>, bi: usize) -> u16 {
        let mut pool = 0;
        let mut any_active = false;
        for r in month_rounds {
            let round = Round(r);
            if !self.block_down(round, bi) {
                pool = self.pool(round, bi);
                if self.response_prob(round, bi) > 0.0 {
                    any_active = true;
                    break;
                }
            }
        }
        if any_active {
            pool
        } else {
            0
        }
    }

    /// Per-oblast block indexes (for regional aggregation).
    pub fn blocks_by_oblast(&self) -> BTreeMap<Oblast, Vec<usize>> {
        let mut out: BTreeMap<Oblast, Vec<usize>> = BTreeMap::new();
        for (i, b) in self.blocks.iter().enumerate() {
            out.entry(b.home).or_default().push(i);
        }
        out
    }

    /// Per-AS block indexes.
    pub fn blocks_by_as(&self) -> BTreeMap<Asn, Vec<usize>> {
        let mut out: BTreeMap<Asn, Vec<usize>> = BTreeMap::new();
        for (i, b) in self.blocks.iter().enumerate() {
            out.entry(b.owner).or_default().push(i);
        }
        out
    }

    /// The coordinate-addressable random source (for sibling generators).
    pub fn rng(&self) -> WorldRng {
        self.rng
    }
}

/// Applies one event to one block's modifier set.
fn apply_event(
    m: &mut BlockMods,
    e: &crate::script::ScriptedEvent,
    range: &std::ops::Range<u32>,
    total: u32,
) {
    match e.kind {
        EventKind::BgpOutage => m.down.push((range.start, range.end)),
        EventKind::Decommission => m.down.push((range.start, total)),
        EventKind::Activate => m.down.push((0, range.start)),
        EventKind::IpsScale(f) => m.scale.push((range.start, range.end, f)),
        EventKind::Reroute { extra_rtt_ns, .. } => {
            m.reroute.push((range.start, range.end, extra_rtt_ns))
        }
        EventKind::NightScale(f) => m.night.push((range.start, range.end, f)),
        EventKind::VantageOutage | EventKind::GeoMove { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{EventKind, ScriptedEvent};
    use crate::spec::{AsProfile, AsSpec, WorldScale};
    use fbs_types::{CivilDate, Prefix, CAMPAIGN_START};

    fn test_world(script: Script, strikes: Vec<StrikeEvent>) -> World {
        World::new(test_config(), script, strikes).unwrap()
    }

    fn test_config() -> WorldConfig {
        let ases = vec![
            AsSpec {
                asn: Asn(25482),
                name: "Status".into(),
                profile: AsProfile::Regional,
                hq: Some(Oblast::Kherson),
                prefixes: vec!["193.151.240.0/22".parse::<Prefix>().unwrap()],
                base_rtt_ns: 40_000_000,
                upstream: Asn(6849),
            },
            AsSpec {
                asn: Asn(15895),
                name: "Kyivstar".into(),
                profile: AsProfile::National,
                hq: Some(Oblast::Kyiv),
                prefixes: vec!["176.8.0.0/22".parse::<Prefix>().unwrap()],
                base_rtt_ns: 30_000_000,
                upstream: Asn(3356),
            },
        ];
        let mut blocks = Vec::new();
        for (i, p) in ases[0].prefixes[0].blocks().enumerate() {
            blocks.push(BlockSpec {
                block: p,
                owner: Asn(25482),
                home: Oblast::Kherson,
                base_responders: 40,
                geo_population: 240,
                response_prob: 0.85,
                diurnal: i == 0,
                power_backup: 0.6,
                annual_decay: 0.8,
            });
        }
        for p in ases[1].prefixes[0].blocks() {
            blocks.push(BlockSpec {
                block: p,
                owner: Asn(15895),
                home: Oblast::Kyiv,
                base_responders: 60,
                geo_population: 256,
                response_prob: 0.7,
                diurnal: false,
                power_backup: 0.2,
                annual_decay: 0.95,
            });
        }
        WorldConfig {
            seed: 99,
            scale: WorldScale::Tiny,
            rounds: 2400, // 200 days
            ases,
            blocks,
        }
    }

    fn ts(days: i64) -> fbs_types::Timestamp {
        CAMPAIGN_START.plus_seconds(days * 86_400)
    }

    fn sbi(w: &World, i: u8) -> usize {
        w.block_index(BlockId::from_octets(193, 151, 240 + i))
            .unwrap()
    }

    fn kbi(w: &World, i: u8) -> usize {
        w.block_index(BlockId::from_octets(176, 8, i)).unwrap()
    }

    /// The precomputed constants against the expressions they replace: the
    /// pool table against `BlockSpec::responders_at` for every month and
    /// block, and `block_truth`, `trin_availability` and `ever_active`
    /// against from-scratch references (the `powf` pool and the inline hash
    /// draws) at every round of a world with down, scale, night, reroute
    /// and power-cut modifiers and a pool that decays to zero; and the
    /// darknet kernel fed a precomputed gain against `volume_from_truth`.
    #[test]
    fn tables_match_a_from_scratch_oracle() {
        use crate::ibr::{block_gain, ibr_domain, volume_from_truth, volume_with_gain, IbrConfig};
        let event = |target, kind, from: i64, to: i64| ScriptedEvent {
            name: "modifier".into(),
            target,
            kind,
            start: ts(from),
            end: Some(ts(to)),
        };
        let mut s = Script::new();
        s.push(event(
            EventTarget::As(Asn(25482)),
            EventKind::BgpOutage,
            10,
            13,
        ));
        s.push(event(
            EventTarget::Region(Oblast::Kyiv),
            EventKind::IpsScale(0.4),
            20,
            40,
        ));
        s.push(event(
            EventTarget::Block(BlockId::from_octets(193, 151, 241)),
            EventKind::NightScale(0.3),
            30,
            90,
        ));
        s.push(event(
            EventTarget::As(Asn(15895)),
            EventKind::Reroute {
                via: Asn(12389),
                extra_rtt_ns: 60_000_000,
            },
            50,
            120,
        ));
        let strikes = vec![StrikeEvent {
            date: CivilDate::new(2022, 3, 10),
            severity: 1.0,
            recovery_days: 40,
        }];
        // One block's pool decays from 1 to 0 in the second month: routed
        // with an empty pool, it answers nothing and carries no RTT.
        let mut config = test_config();
        config.blocks[7].base_responders = 1;
        config.blocks[7].annual_decay = 0.01;
        let w = World::new(config, s, strikes).unwrap();
        let n = w.blocks().len();

        // (a) The pool table, entry by entry.
        let months = w.month_index(Round(w.rounds() - 1)) + 1;
        assert!(months >= 6, "{months} months");
        assert_eq!(w.pools.len(), months as usize * n);
        for m in 0..months {
            for (bi, b) in w.blocks().iter().enumerate() {
                assert_eq!(
                    w.pools[m as usize * n + bi],
                    b.responders_at(m),
                    "month {m}, block {bi}"
                );
            }
        }

        // (b) Truth and Trinocular availability at every round.
        let reference_truth = |round: Round, bi: usize| -> BlockTruth {
            let b = &w.blocks()[bi];
            let routed = !w.block_down(round, bi);
            let pool = b.responders_at(w.month_index(round));
            if !routed || pool == 0 {
                return BlockTruth {
                    routed,
                    pool,
                    responsive: 0,
                    rtt_ns: 0,
                    response_prob: 0.0,
                };
            }
            let p = w.response_prob(round, bi);
            let mean = pool as f64 * p;
            let sd = 0.1 * mean.sqrt() + 0.005 * mean;
            let z = w.rng().normal3(round.0 as u64, b.block.0 as u64, 1);
            BlockTruth {
                routed,
                pool,
                responsive: (mean + z * sd).round().clamp(0.0, pool as f64) as u32,
                rtt_ns: w.rtt_ns(round, bi),
                response_prob: p,
            }
        };
        let reference_trin = |round: Round, bi: usize| -> f64 {
            let f = 0.12 + 0.38 * w.rng().uniform3(w.blocks()[bi].block.0 as u64, 31, 7);
            (w.response_prob(round, bi) * f).clamp(0.0, 1.0)
        };
        let cfg = IbrConfig::default();
        let ibr_rng = ibr_domain(w.rng());
        let gains: Vec<f64> = (0..n).map(|bi| block_gain(&ibr_rng, bi)).collect();
        // (unrouted, scaled, night-scaled, rerouted, powered off, radiating,
        // routed with an empty pool)
        let mut seen = [0usize; 7];
        for r in 0..w.rounds() {
            let round = Round(r);
            for (bi, &gain) in gains.iter().enumerate() {
                let truth = w.block_truth(round, bi);
                assert_eq!(truth, reference_truth(round, bi), "round {r}, block {bi}");
                let state = w.block_state(round, bi);
                assert_eq!(state.with_rtt(truth.rtt_ns), truth);
                assert_eq!(
                    w.trin_availability(round, bi).to_bits(),
                    reference_trin(round, bi).to_bits(),
                    "round {r}, block {bi}"
                );
                // (c) The darknet kernel with the block's gain drawn once.
                let volume = volume_with_gain(&truth, gain, &cfg, &ibr_rng, round, bi);
                assert_eq!(volume, volume_from_truth(&truth, &cfg, &ibr_rng, round, bi));
                let m = &w.mods[bi];
                seen[0] += usize::from(!truth.routed);
                seen[1] += usize::from(m.scale_at(r) != 1.0);
                seen[2] += usize::from(m.night_scale_at(r) != 1.0);
                seen[3] += usize::from(m.reroute_extra(r) != 0);
                seen[4] += usize::from(w.power_off(w.blocks()[bi].home, round));
                seen[5] += usize::from(volume != 0);
                seen[6] += usize::from(truth.routed && truth.pool == 0);
            }
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "unrouted, scaled, night, rerouted, power off, radiating, empty pool: {seen:?}"
        );

        // `ever_active` over each month, against the `powf` pool.
        for m in 0..months {
            let rounds = w.month_rounds(MonthId(MonthId::campaign_first().0 + m));
            for (bi, b) in w.blocks().iter().enumerate() {
                let live = rounds
                    .clone()
                    .find(|&r| !w.block_down(Round(r), bi) && w.response_prob(Round(r), bi) > 0.0);
                let want = live.map_or(0, |r| b.responders_at(w.month_index(Round(r))));
                assert_eq!(
                    w.ever_active(rounds.clone(), bi),
                    want,
                    "month {m}, block {bi}"
                );
            }
        }
    }

    #[test]
    fn healthy_world_responds() {
        let w = test_world(Script::new(), vec![]);
        assert_eq!(w.blocks().len(), 8);
        let t = w.block_truth(Round(100), sbi(&w, 0));
        assert!(t.routed);
        assert_eq!(t.pool, 40);
        assert!(t.responsive > 20, "responsive {}", t.responsive);
        assert!(t.rtt_ns >= 40_000_000 && t.rtt_ns < 50_000_000);
    }

    #[test]
    fn truth_is_deterministic() {
        let a = test_world(Script::new(), vec![]);
        let b = test_world(Script::new(), vec![]);
        for r in [0u32, 7, 100, 2399] {
            for bi in 0..8 {
                assert_eq!(a.block_truth(Round(r), bi), b.block_truth(Round(r), bi));
                assert_eq!(a.block_bitmap(Round(r), bi), b.block_bitmap(Round(r), bi));
            }
        }
    }

    #[test]
    fn bgp_outage_silences_blocks() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "cable cut".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::BgpOutage,
            start: ts(10),
            end: Some(ts(13)),
        });
        let w = test_world(s, vec![]);
        let during = Round(10 * 12 + 5);
        let t = w.block_truth(during, sbi(&w, 0));
        assert!(!t.routed);
        assert_eq!(t.responsive, 0);
        assert!(w.block_bitmap(during, sbi(&w, 0)).is_empty());
        // The other AS is unaffected.
        let other = w.block_truth(during, kbi(&w, 0));
        assert!(other.routed);
        assert!(other.responsive > 0);
        // After the window, service returns.
        let after = w.block_truth(Round(13 * 12 + 12), sbi(&w, 0));
        assert!(after.routed);
        assert!(after.responsive > 0);
    }

    #[test]
    fn block_level_event_hits_only_that_block() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "one block dark".into(),
            target: EventTarget::Block(BlockId::from_octets(193, 151, 241)),
            kind: EventKind::IpsScale(0.0),
            start: ts(5),
            end: Some(ts(6)),
        });
        let w = test_world(s, vec![]);
        let during = Round(5 * 12 + 6);
        assert_eq!(w.block_truth(during, sbi(&w, 1)).responsive, 0);
        assert!(
            w.block_truth(during, sbi(&w, 1)).routed,
            "IPS-scale keeps BGP up"
        );
        assert!(w.block_truth(during, sbi(&w, 0)).responsive > 0);
    }

    #[test]
    fn ips_scale_reduces_without_unrouting() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "seizure".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::IpsScale(0.1),
            start: ts(20),
            end: Some(ts(22)),
        });
        let w = test_world(s, vec![]);
        let during = Round(20 * 12 + 6);
        let t = w.block_truth(during, sbi(&w, 1));
        assert!(t.routed);
        assert!(
            t.responsive < 15,
            "scaled responsiveness should collapse, got {}",
            t.responsive
        );
    }

    #[test]
    fn overlapping_scales_multiply() {
        let mut s = Script::new();
        for target in [
            EventTarget::As(Asn(25482)),
            EventTarget::Region(Oblast::Kherson),
        ] {
            s.push(ScriptedEvent {
                name: "overlap".into(),
                target,
                kind: EventKind::IpsScale(0.5),
                start: ts(30),
                end: Some(ts(31)),
            });
        }
        let w = test_world(s, vec![]);
        let p_during = w.response_prob(Round(30 * 12 + 6), sbi(&w, 0));
        let p_before = w.response_prob(Round(29 * 12 + 6), sbi(&w, 0));
        assert!((p_during - p_before * 0.25).abs() < 1e-9);
    }

    #[test]
    fn diurnal_blocks_dip_at_night() {
        let w = test_world(Script::new(), vec![]);
        // The first Status block is diurnal. Quiet hours are 01:00–07:00
        // local (UTC+2), i.e. 23:00–05:00 UTC.
        let night_p = w.response_prob(Round(13), sbi(&w, 0)); // 00:00 UTC = 02:00 local
        let day_p = w.response_prob(Round(6), sbi(&w, 0)); // 10:00 UTC = noon local
        assert!(night_p < day_p, "night {night_p} vs day {day_p}");
        // Non-diurnal block is flat.
        assert_eq!(
            w.response_prob(Round(13), sbi(&w, 1)),
            w.response_prob(Round(6), sbi(&w, 1))
        );
    }

    #[test]
    fn power_outage_hits_unbacked_blocks_harder() {
        let strikes = vec![StrikeEvent {
            date: CivilDate::new(2022, 3, 10),
            severity: 1.0,
            recovery_days: 40,
        }];
        let w = test_world(Script::new(), strikes);
        // Find a round where both oblasts are off.
        let mut found = false;
        for r in 0..w.rounds() {
            let round = Round(r);
            if w.power_off(Oblast::Kherson, round) && w.power_off(Oblast::Kyiv, round) {
                let status = w.response_prob(round, sbi(&w, 1)); // backup 0.6
                let kyivstar = w.response_prob(round, kbi(&w, 0)); // backup 0.2
                assert!(status > kyivstar);
                found = true;
                break;
            }
        }
        assert!(found, "no overlapping blackout round found");
    }

    #[test]
    fn power_mask_matches_calendar() {
        let strikes = vec![StrikeEvent {
            date: CivilDate::new(2022, 3, 10),
            severity: 0.8,
            recovery_days: 20,
        }];
        let w = test_world(Script::new(), strikes);
        for r in (0..w.rounds()).step_by(37) {
            let round = Round(r);
            for o in [Oblast::Kherson, Oblast::Kyiv, Oblast::Crimea] {
                assert_eq!(w.power_off(o, round), w.power().is_off(o, round));
            }
        }
    }

    #[test]
    fn bgp_log_replays_to_expected_visibility() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "cable cut".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::BgpOutage,
            start: ts(10),
            end: Some(ts(13)),
        });
        let w = test_world(s, vec![]);
        let mut rp = w.bgp_log().replayer();
        assert!(rp.advance_to(Round(0)).is_visible(Asn(25482)));
        assert!(rp.rib().is_visible(Asn(15895)));
        assert!(!rp.advance_to(Round(121)).is_visible(Asn(25482)));
        assert!(rp.rib().is_visible(Asn(15895)));
        assert!(rp.advance_to(Round(157)).is_visible(Asn(25482)));
        // Routed block counts follow prefix size.
        assert_eq!(rp.rib().routed_blocks_of(Asn(25482)), 4);
    }

    #[test]
    fn reroute_changes_path_and_rtt() {
        let mut s = Script::new();
        let rostelecom = Asn(12389);
        s.push(ScriptedEvent {
            name: "occupation rerouting".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::Reroute {
                via: rostelecom,
                extra_rtt_ns: 60_000_000,
            },
            start: ts(60),
            end: Some(ts(100)),
        });
        let w = test_world(s, vec![]);
        let before = w.rtt_ns(Round(100), sbi(&w, 0));
        let during = w.rtt_ns(Round(70 * 12), sbi(&w, 0));
        assert!(
            during > before + 40_000_000,
            "during {during} before {before}"
        );
        let path = w.as_path(Asn(25482), Round(70 * 12));
        assert!(path.contains(&rostelecom));
        assert_eq!(*path.last().unwrap(), Asn(25482));
        let path_before = w.as_path(Asn(25482), Round(100));
        assert!(!path_before.contains(&rostelecom));
    }

    #[test]
    fn vantage_outage_flag() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "vantage down".into(),
            target: EventTarget::Country,
            kind: EventKind::VantageOutage,
            start: ts(5),
            end: Some(ts(6)),
        });
        let w = test_world(s, vec![]);
        assert!(w.vantage_online(Round(0)));
        assert!(!w.vantage_online(Round(5 * 12 + 1)));
        assert!(w.vantage_online(Round(6 * 12 + 1)));
    }

    #[test]
    fn ever_active_tracks_pool_and_outages() {
        let mut s = Script::new();
        // AS down for an entire month (April 2022).
        s.push(ScriptedEvent {
            name: "long outage".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::BgpOutage,
            start: CivilDate::new(2022, 4, 1).midnight(),
            end: Some(CivilDate::new(2022, 5, 1).midnight()),
        });
        let w = test_world(s, vec![]);
        let april = MonthId::new(2022, 4).campaign_rounds();
        assert_eq!(w.ever_active(april.clone(), sbi(&w, 0)), 0);
        // Kyivstar block unaffected: full pool.
        assert_eq!(w.ever_active(april, kbi(&w, 0)), 60);
        // March (partially pre-outage) still counts for Status.
        let march = MonthId::new(2022, 3).campaign_rounds();
        assert_eq!(w.ever_active(march, sbi(&w, 0)), 40);
    }

    #[test]
    fn bitmap_hosts_stable_within_month() {
        let w = test_world(Script::new(), vec![]);
        // Rounds of the same month share the pool's host octets: the
        // union over many rounds approaches the pool size, not 254.
        // (Rounds 0..300 all fall in March 2022.)
        let mut union = fbs_prober::ResponderBitmap::EMPTY;
        for r in 0..300 {
            union.union_with(&w.block_bitmap(Round(r), sbi(&w, 0)));
        }
        let count = union.count();
        assert!(count <= 40, "union {count} exceeds pool");
        assert!(count >= 35, "union {count} too small for p=0.85");
    }

    #[test]
    fn grouping_indexes() {
        let w = test_world(Script::new(), vec![]);
        let by_oblast = w.blocks_by_oblast();
        assert_eq!(by_oblast[&Oblast::Kherson].len(), 4);
        assert_eq!(by_oblast[&Oblast::Kyiv].len(), 4);
        let by_as = w.blocks_by_as();
        assert_eq!(by_as[&Asn(25482)].len(), 4);
        assert!(w.block_index(BlockId::from_octets(193, 151, 240)).is_some());
        assert!(w.block_index(BlockId::from_octets(9, 9, 9)).is_none());
        assert!(w.as_spec(Asn(25482)).is_some());
        assert!(w.as_spec(Asn(1)).is_none());
    }

    #[test]
    fn decommission_and_activation_intervals() {
        let mut s = Script::new();
        s.push(ScriptedEvent {
            name: "gone".into(),
            target: EventTarget::As(Asn(25482)),
            kind: EventKind::Decommission,
            start: ts(100),
            end: None,
        });
        s.push(ScriptedEvent {
            name: "born".into(),
            target: EventTarget::As(Asn(15895)),
            kind: EventKind::Activate,
            start: ts(50),
            end: None,
        });
        let w = test_world(s, vec![]);
        assert!(!w.block_down(Round(100 * 12 - 1), sbi(&w, 0)));
        assert!(w.block_down(Round(100 * 12), sbi(&w, 0)));
        assert!(w.block_down(Round(2399), sbi(&w, 0)));
        assert!(w.block_down(Round(0), kbi(&w, 0)));
        assert!(!w.block_down(Round(50 * 12), kbi(&w, 0)));
    }
}
