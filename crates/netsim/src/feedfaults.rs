//! Feed-fault injection: hostile deliveries for the metadata feeds.
//!
//! The campaign's three external feeds — RouteViews RIB dumps, monthly
//! geolocation snapshots and RIR delegation files — failed in practice in
//! ways the wire faults of [`crate::faults`] never model: mirrors went
//! dark for days, transfers truncated mid-file, archives delivered
//! corrupted lines, and monthly snapshots arrived late or not at all.
//! This module supplies that hostility for the simulator:
//!
//! * [`FeedFaultIntensity`] — per-feed fault probabilities;
//! * [`FeedFaultWindow`] / [`FeedFaultPlan`] — serde-loadable schedules
//!   ("the BGP mirror is dark over rounds 200..260");
//! * [`deliver`] — the deterministic delivery function: given the pristine
//!   feed text for a round, returns what the fetch attempt actually sees
//!   (`None` = the attempt failed outright);
//! * pristine-text generators ([`bgp_dump_text`], [`geo_feed_text`],
//!   [`delegations_feed_text`]) deriving each feed's canonical serialized
//!   form from world truth, and [`BgpDumps`], the same BGP dumps as a
//!   forward stream that re-renders only when the table changed.
//!
//! Determinism follows the same discipline as the wire faults: every
//! decision is a pure hash of `(round, line, fault salt)` under the world
//! RNG's `"feeds"` domain (further split per feed kind), so identical
//! seed + plan ⇒ byte-identical deliveries, independent of call order.
//!
//! Corruption is applied **per line and never adds or removes newlines**,
//! so line numbers in a lossy parse's quarantine map one-to-one onto the
//! pristine text — the pipeline uses that to know *which* records a
//! partially-accepted dump lost. Truncation only removes a suffix (and
//! half of the new last line), which preserves the numbering of every
//! surviving line.

use crate::geo;
use crate::rng::WorldRng;
use crate::world::World;
use fbs_bgp::events::Replayer;
use fbs_delegations::{DelegationFile, DelegationRecord, DelegationStatus};
use fbs_types::{CivilDate, FeedKind, MonthId, Round};
use serde::{Deserialize, Serialize};

/// Salts decorrelating the per-fault decision streams (feeds use the
/// `0xFBxx` range; wire faults own `0xFAxx`).
mod salt {
    pub const DROP: u64 = 0xFB01;
    pub const CORRUPT: u64 = 0xFB02;
    pub const MANGLE: u64 = 0xFB03;
    pub const TRUNCATE: u64 = 0xFB04;
}

/// Per-feed fault probabilities active during one window.
///
/// The default is the null intensity, under which [`deliver`] forwards
/// the pristine text untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FeedFaultIntensity {
    /// Probability the whole delivery is dropped for the round: every
    /// fetch attempt fails (mirror dark, archive missing the file).
    pub drop: f64,
    /// Per-line probability a record is corrupted in the delivered text.
    pub corrupt_records: f64,
    /// Probability the delivery is truncated mid-file (a broken transfer:
    /// the tail is gone and the cut line is left half-written).
    pub truncate: f64,
    /// Number of leading fetch attempts that time out before one
    /// succeeds (delayed delivery). With the default retry budget of
    /// three attempts, `1` or `2` is recovered by retries; `3+` makes the
    /// round's delivery effectively absent.
    pub delay_attempts: u32,
}

impl Default for FeedFaultIntensity {
    fn default() -> Self {
        FeedFaultIntensity {
            drop: 0.0,
            corrupt_records: 0.0,
            truncate: 0.0,
            delay_attempts: 0,
        }
    }
}

impl FeedFaultIntensity {
    /// Whether every fault is off (deliveries pass through untouched).
    pub fn is_null(&self) -> bool {
        self.drop == 0.0
            && self.corrupt_records == 0.0
            && self.truncate == 0.0
            && self.delay_attempts == 0
    }

    /// Validates that every probability lies in `0..=1`.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for (name, p) in [
            ("drop", self.drop),
            ("corrupt_records", self.corrupt_records),
            ("truncate", self.truncate),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(fbs_types::FbsError::config(format!(
                    "feed fault probability {name}={p} outside 0..=1"
                )));
            }
        }
        Ok(())
    }

    /// Elementwise worst-case combination (overlapping windows).
    pub fn combine(&self, other: &FeedFaultIntensity) -> FeedFaultIntensity {
        FeedFaultIntensity {
            drop: self.drop.max(other.drop),
            corrupt_records: self.corrupt_records.max(other.corrupt_records),
            truncate: self.truncate.max(other.truncate),
            delay_attempts: self.delay_attempts.max(other.delay_attempts),
        }
    }
}

/// One scheduled feed-fault window: an intensity active for one feed over
/// a round range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedFaultWindow {
    /// Human-readable label ("march-mirror-outage").
    pub name: String,
    /// Which feed the window afflicts.
    pub feed: FeedKind,
    /// First affected round (inclusive).
    pub start: u32,
    /// First unaffected round; `None` = until the campaign ends.
    pub end: Option<u32>,
    /// The faults active during the window.
    pub intensity: FeedFaultIntensity,
}

impl FeedFaultWindow {
    /// Builds a window covering a round range.
    pub fn over_rounds(
        name: impl Into<String>,
        feed: FeedKind,
        rounds: std::ops::Range<u32>,
        intensity: FeedFaultIntensity,
    ) -> Self {
        FeedFaultWindow {
            name: name.into(),
            feed,
            start: rounds.start,
            end: Some(rounds.end),
            intensity,
        }
    }

    /// Whether the window covers `round`.
    pub fn covers(&self, round: Round) -> bool {
        round.0 >= self.start && self.end.is_none_or(|e| round.0 < e)
    }
}

/// A serde-loadable schedule of feed faults over the campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FeedFaultPlan {
    /// Scheduled windows of feed hostility.
    pub windows: Vec<FeedFaultWindow>,
}

impl FeedFaultPlan {
    /// A plan with no feed faults at all.
    pub fn none() -> Self {
        FeedFaultPlan::default()
    }

    /// Whether the plan injects nothing anywhere.
    pub fn is_null(&self) -> bool {
        self.windows.iter().all(|w| w.intensity.is_null())
    }

    /// Validates every window.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for w in &self.windows {
            w.intensity.validate().map_err(|e| {
                fbs_types::FbsError::config(format!("feed fault window {:?}: {e}", w.name))
            })?;
        }
        Ok(())
    }

    /// The combined intensity afflicting `kind` at `round` (worst case
    /// over covering windows).
    pub fn intensity_at(&self, kind: FeedKind, round: Round) -> FeedFaultIntensity {
        let mut acc = FeedFaultIntensity::default();
        for w in &self.windows {
            if w.feed == kind && w.covers(round) {
                acc = acc.combine(&w.intensity);
            }
        }
        acc
    }
}

/// Derives the feed-fault RNG domain from a world RNG, mirroring
/// [`crate::FaultyTransport::fault_domain`]: feed draws never correlate
/// with world truth or wire-fault draws.
pub fn feed_domain(world_rng: WorldRng) -> WorldRng {
    world_rng.domain("feeds")
}

/// One fetch attempt through the fault plan: what the mirror serves for
/// `kind` at `round`, given the pristine `text`.
///
/// `rng` must be the feed domain (see [`feed_domain`]). Returns `None`
/// when this attempt fails outright (dropped round or delayed delivery);
/// otherwise the delivered text, possibly truncated and/or corrupted.
/// The payload mutation is keyed on the round alone — retrying fetches
/// the **same bytes**, exactly as a real mirror would serve them.
pub fn deliver(
    plan: &FeedFaultPlan,
    rng: &WorldRng,
    kind: FeedKind,
    round: Round,
    attempt: u32,
    text: &str,
) -> Option<String> {
    let i = plan.intensity_at(kind, round);
    if i.is_null() {
        return Some(text.to_string());
    }
    // fbs-lint: allow(rng-domain-collision) kind-keyed subdomain under the registered "feeds" root; FeedKind names are a closed enum set
    let rng = rng.domain(kind.name());
    let r = round.0 as u64;
    if i.drop > 0.0 && rng.chance3(i.drop, r, 0, salt::DROP) {
        return None; // mirror dark for the round: all attempts fail
    }
    if attempt < i.delay_attempts {
        return None; // delayed delivery: the first attempts time out
    }
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if i.truncate > 0.0 && rng.chance3(i.truncate, r, 0, salt::TRUNCATE) {
        // Keep a prefix (10–90% of the lines) and leave the cut line
        // half-written, as a broken transfer would.
        let frac = 0.1 + 0.8 * rng.uniform3(r, 1, salt::TRUNCATE);
        let keep = ((lines.len() as f64 * frac) as usize)
            .max(1)
            .min(lines.len());
        lines.truncate(keep);
        if let Some(last) = lines.last_mut() {
            let cut = floor_char_boundary(last, last.len() / 2);
            last.truncate(cut);
        }
    }
    if i.corrupt_records > 0.0 {
        for (idx, line) in lines.iter_mut().enumerate() {
            let lineno = idx as u64 + 1;
            if line.is_empty() || !rng.chance3(i.corrupt_records, r, lineno, salt::CORRUPT) {
                continue;
            }
            *line = mangle_line(line, &rng, r, lineno);
        }
    }
    let mut out = lines.join("\n");
    if text.ends_with('\n') && !out.is_empty() {
        out.push('\n');
    }
    Some(out)
}

/// Deterministically mangles one line. Every style keeps the line a
/// single line (no `\n` added or removed), so quarantine line numbers in
/// the delivered text map onto the pristine text.
fn mangle_line(line: &str, rng: &WorldRng, round: u64, lineno: u64) -> String {
    match rng.below3(4, round, lineno, salt::MANGLE) {
        // Field separators swapped: the shape survives, the parse fails.
        0 => line.replace('|', ";"),
        // Leading garbage fused onto the record.
        1 => format!("?corrupt?{line}"),
        // The line cut in half mid-field.
        2 => {
            let cut = floor_char_boundary(line, line.len() / 2);
            line[..cut].to_string()
        }
        // The record replaced wholesale by hash noise.
        _ => format!("{:016x}", rng.hash3(round, lineno, salt::MANGLE ^ 0xEE)),
    }
}

/// Largest char boundary at or below `at` (stable substitute for the
/// unstable `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, at: usize) -> usize {
    let mut i = at.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// The pristine BGP RIB dump text for `round`: the world's scripted BGP
/// event log replayed to the round and serialized canonically.
///
/// Replays from round 0 on every call; a caller walking rounds in order
/// keeps a [`BgpDumps`] stream instead.
pub fn bgp_dump_text(world: &World, round: Round) -> String {
    BgpDumps::new(world).at(round).to_owned()
}

/// The pristine BGP dump stream of one world: a single replay of its
/// event log, walked forward round by round.
///
/// Most rounds apply no event, so the table and its dump are the previous
/// round's; the stream re-renders only when events were applied since the
/// last render.
#[derive(Debug)]
pub struct BgpDumps {
    replayer: Replayer,
    /// The dump of the table as it stood after `rendered` events.
    text: String,
    /// Events applied when `text` was rendered; `None` before the first.
    rendered: Option<usize>,
}

impl BgpDumps {
    /// A stream at the start of the world's event log.
    pub fn new(world: &World) -> Self {
        BgpDumps {
            replayer: world.bgp_log().replayer(),
            text: String::new(),
            rendered: None,
        }
    }

    /// The dump text for `round`, equal to [`bgp_dump_text`]`(world, round)`.
    ///
    /// Rounds must be non-decreasing across calls (the replayer cannot
    /// rewind).
    pub fn at(&mut self, round: Round) -> &str {
        self.replayer.advance_to(round);
        let applied = self.replayer.applied();
        if self.rendered != Some(applied) {
            self.text = fbs_bgp::dump::to_string(self.replayer.rib());
            self.rendered = Some(applied);
        }
        &self.text
    }
}

/// The pristine geolocation feed text for `month`.
pub fn geo_feed_text(world: &World, month: MonthId) -> String {
    fbs_geodb::text::to_string(&geo::geo_snapshot(world, month))
}

/// The pristine delegation file text: one IPv4 record per world block,
/// all delegated before the campaign (the world's blocks are its target
/// population by construction).
pub fn delegations_feed_text(world: &World) -> String {
    let date = CivilDate::new(2021, 12, 1);
    let records: Vec<DelegationRecord> = world
        .blocks()
        .iter()
        .map(|b| {
            DelegationRecord::ipv4(
                "UA",
                b.block.network(),
                256,
                date,
                DelegationStatus::Allocated,
            )
        })
        .collect();
    fbs_delegations::serialize_file(&DelegationFile::new("ripencc", date, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{EventKind, EventTarget, Script, ScriptedEvent};
    use crate::spec::{AsProfile, AsSpec, BlockSpec, WorldConfig, WorldScale};
    use crate::world::World;
    use fbs_types::{Asn, BlockId, Oblast, Prefix};

    fn tiny_world(seed: u64, script: Script) -> World {
        let asn = Asn(77);
        let blocks: Vec<BlockSpec> = (0..4u8)
            .map(|c| BlockSpec {
                block: BlockId::from_octets(10, 7, c),
                owner: asn,
                home: Oblast::Kyiv,
                base_responders: 100,
                geo_population: 200,
                response_prob: 0.9,
                diurnal: false,
                power_backup: 1.0,
                annual_decay: 1.0,
            })
            .collect();
        let config = WorldConfig {
            seed,
            scale: WorldScale::Tiny,
            rounds: 60,
            ases: vec![AsSpec {
                asn,
                name: "feedsim".into(),
                profile: AsProfile::Regional,
                hq: Some(Oblast::Kyiv),
                prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
                base_rtt_ns: 30_000_000,
                upstream: Asn(1),
            }],
            blocks,
        };
        World::new(config, script, vec![]).expect("valid config")
    }

    fn corrupt_window(feed: FeedKind, p: f64) -> FeedFaultPlan {
        FeedFaultPlan {
            windows: vec![FeedFaultWindow::over_rounds(
                "test",
                feed,
                0..60,
                FeedFaultIntensity {
                    corrupt_records: p,
                    ..FeedFaultIntensity::default()
                },
            )],
        }
    }

    #[test]
    fn null_plan_passes_text_through_unchanged() {
        let rng = feed_domain(WorldRng::new(5));
        let text = "10.0.0.0/24|65000\n10.0.1.0/24|65001\n";
        let got = deliver(
            &FeedFaultPlan::none(),
            &rng,
            FeedKind::Bgp,
            Round(3),
            0,
            text,
        );
        assert_eq!(got.as_deref(), Some(text));
        // A plan whose windows miss the round is equally transparent.
        let far = FeedFaultPlan {
            windows: vec![FeedFaultWindow::over_rounds(
                "later",
                FeedKind::Bgp,
                50..60,
                FeedFaultIntensity {
                    drop: 1.0,
                    ..FeedFaultIntensity::default()
                },
            )],
        };
        assert_eq!(
            deliver(&far, &rng, FeedKind::Bgp, Round(3), 0, text).as_deref(),
            Some(text)
        );
        // And so is a window targeting a different feed.
        assert_eq!(
            deliver(&far, &rng, FeedKind::Geo, Round(55), 0, text).as_deref(),
            Some(text)
        );
    }

    #[test]
    fn dropped_rounds_fail_every_attempt() {
        let rng = feed_domain(WorldRng::new(5));
        let plan = FeedFaultPlan {
            windows: vec![FeedFaultWindow::over_rounds(
                "dark",
                FeedKind::Bgp,
                10..20,
                FeedFaultIntensity {
                    drop: 1.0,
                    ..FeedFaultIntensity::default()
                },
            )],
        };
        for attempt in 0..5 {
            assert_eq!(
                deliver(&plan, &rng, FeedKind::Bgp, Round(12), attempt, "x\n"),
                None
            );
        }
        assert!(deliver(&plan, &rng, FeedKind::Bgp, Round(20), 0, "x\n").is_some());
    }

    #[test]
    fn delayed_delivery_recovers_on_retry() {
        let rng = feed_domain(WorldRng::new(5));
        let plan = FeedFaultPlan {
            windows: vec![FeedFaultWindow::over_rounds(
                "slow",
                FeedKind::Geo,
                0..60,
                FeedFaultIntensity {
                    delay_attempts: 2,
                    ..FeedFaultIntensity::default()
                },
            )],
        };
        let text = "geo|2022-03\n";
        assert_eq!(deliver(&plan, &rng, FeedKind::Geo, Round(1), 0, text), None);
        assert_eq!(deliver(&plan, &rng, FeedKind::Geo, Round(1), 1, text), None);
        assert_eq!(
            deliver(&plan, &rng, FeedKind::Geo, Round(1), 2, text).as_deref(),
            Some(text)
        );
    }

    #[test]
    fn corruption_preserves_line_structure_and_is_deterministic() {
        let rng = feed_domain(WorldRng::new(9));
        let plan = corrupt_window(FeedKind::Bgp, 0.5);
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("10.0.{}.0/24|65000\n", i % 256));
        }
        let a = deliver(&plan, &rng, FeedKind::Bgp, Round(7), 0, &text).unwrap();
        let b = deliver(&plan, &rng, FeedKind::Bgp, Round(7), 0, &text).unwrap();
        assert_eq!(a, b, "same coordinates must serve the same bytes");
        // Retries see the same payload: the mangle is keyed on the round.
        let c = deliver(&plan, &rng, FeedKind::Bgp, Round(7), 3, &text).unwrap();
        assert_eq!(a, c);
        assert_eq!(
            a.lines().count(),
            text.lines().count(),
            "no lines added or removed"
        );
        let changed = a
            .lines()
            .zip(text.lines())
            .filter(|(got, want)| got != want)
            .count();
        assert!(
            changed > 50,
            "p=0.5 over 200 lines must mangle many: {changed}"
        );
        // A different round draws different corruption.
        let d = deliver(&plan, &rng, FeedKind::Bgp, Round(8), 0, &text).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn truncation_keeps_a_prefix_with_a_half_written_cut_line() {
        let rng = feed_domain(WorldRng::new(11));
        let plan = FeedFaultPlan {
            windows: vec![FeedFaultWindow::over_rounds(
                "broken-transfer",
                FeedKind::Bgp,
                0..60,
                FeedFaultIntensity {
                    truncate: 1.0,
                    ..FeedFaultIntensity::default()
                },
            )],
        };
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("10.1.{}.0/24|65000\n", i % 256));
        }
        let got = deliver(&plan, &rng, FeedKind::Bgp, Round(4), 0, &text).unwrap();
        let kept = got.lines().count();
        assert!(kept < 100, "tail must be gone: kept {kept}");
        assert!(kept >= 1);
        // Surviving full lines are byte-identical to the pristine prefix.
        for (g, w) in got.lines().take(kept - 1).zip(text.lines()) {
            assert_eq!(g, w);
        }
        let last = got.lines().last().unwrap();
        let pristine = text.lines().nth(kept - 1).unwrap();
        assert!(
            pristine.starts_with(last),
            "cut line must be a prefix of the original"
        );
        assert!(last.len() < pristine.len());
    }

    #[test]
    fn per_feed_domains_decorrelate() {
        let rng = feed_domain(WorldRng::new(21));
        let plan = FeedFaultPlan {
            windows: FeedKind::ALL
                .iter()
                .map(|k| {
                    FeedFaultWindow::over_rounds(
                        "half-drop",
                        *k,
                        0..60,
                        FeedFaultIntensity {
                            drop: 0.5,
                            ..FeedFaultIntensity::default()
                        },
                    )
                })
                .collect(),
        };
        // Over many rounds the three feeds must not drop in lockstep.
        let pattern = |kind| {
            (0..60u32)
                .map(|r| deliver(&plan, &rng, kind, Round(r), 0, "x\n").is_some())
                .collect::<Vec<_>>()
        };
        let bgp = pattern(FeedKind::Bgp);
        let geo = pattern(FeedKind::Geo);
        assert_ne!(bgp, geo, "feed kinds must draw decorrelated faults");
    }

    #[test]
    fn plan_validation_and_combination() {
        let bad = FeedFaultPlan {
            windows: vec![FeedFaultWindow::over_rounds(
                "bad",
                FeedKind::Bgp,
                0..10,
                FeedFaultIntensity {
                    drop: 1.5,
                    ..FeedFaultIntensity::default()
                },
            )],
        };
        assert!(bad.validate().is_err());
        assert!(FeedFaultPlan::none().validate().is_ok());
        assert!(FeedFaultPlan::none().is_null());
        // Overlapping windows combine worst-case.
        let plan = FeedFaultPlan {
            windows: vec![
                FeedFaultWindow::over_rounds(
                    "a",
                    FeedKind::Bgp,
                    0..20,
                    FeedFaultIntensity {
                        drop: 0.1,
                        delay_attempts: 2,
                        ..FeedFaultIntensity::default()
                    },
                ),
                FeedFaultWindow::over_rounds(
                    "b",
                    FeedKind::Bgp,
                    10..30,
                    FeedFaultIntensity {
                        drop: 0.4,
                        corrupt_records: 0.05,
                        ..FeedFaultIntensity::default()
                    },
                ),
            ],
        };
        let i = plan.intensity_at(FeedKind::Bgp, Round(15));
        assert_eq!(i.drop, 0.4);
        assert_eq!(i.corrupt_records, 0.05);
        assert_eq!(i.delay_attempts, 2);
        assert!(plan.intensity_at(FeedKind::Geo, Round(15)).is_null());
        // Open-ended windows run to the end of the campaign.
        let open = FeedFaultWindow {
            name: "forever".into(),
            feed: FeedKind::Geo,
            start: 5,
            end: None,
            intensity: FeedFaultIntensity {
                drop: 1.0,
                ..FeedFaultIntensity::default()
            },
        };
        assert!(!open.covers(Round(4)));
        assert!(open.covers(Round(4000)));
    }

    #[test]
    fn pristine_texts_parse_cleanly_and_deterministically() {
        let w = tiny_world(3, Script::new());
        let bgp = bgp_dump_text(&w, Round(10));
        assert_eq!(bgp, bgp_dump_text(&w, Round(10)));
        let (rib, quarantined) = fbs_bgp::dump::parse_lossy(&bgp);
        assert!(quarantined.is_empty(), "{quarantined:?}");
        assert_eq!(rib.num_routes(), 4);

        let month = MonthId::new(2022, 2);
        let geo = geo_feed_text(&w, month);
        let (snap, quarantined) = fbs_geodb::text::parse_lossy(&geo);
        assert!(quarantined.is_empty(), "{quarantined:?}");
        assert_eq!(snap.num_blocks(), 4);

        let dele = delegations_feed_text(&w);
        let (file, quarantined) = fbs_delegations::parse_lossy(&dele);
        assert!(quarantined.is_empty(), "{quarantined:?}");
        assert_eq!(file.records.len(), 4);
        assert!(file.records.iter().all(|r| r.status.is_delegated()));
    }

    #[test]
    fn dump_stream_matches_the_from_scratch_render_every_round() {
        // Two BGP outages of the one AS: four table changes (a withdraw
        // and a re-announce each) between long unchanged stretches.
        let mut script = Script::new();
        for (start, end) in [(10, 14), (30, 31)] {
            script.push(ScriptedEvent {
                name: "outage".into(),
                target: EventTarget::As(Asn(77)),
                kind: EventKind::BgpOutage,
                start: Round(start).start(),
                end: Some(Round(end).start()),
            });
        }
        let w = tiny_world(3, script);
        let mut stream = BgpDumps::new(&w);
        let mut dumps: Vec<String> = Vec::new();
        for r in 0..w.rounds() {
            let want = bgp_dump_text(&w, Round(r));
            assert_eq!(stream.at(Round(r)), want, "round {r}");
            if dumps.last() != Some(&want) {
                dumps.push(want);
            }
        }
        assert_eq!(dumps.len(), 5, "the log changes the table four times");
    }
}
