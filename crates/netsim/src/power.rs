//! The power grid: strike campaigns and rolling blackouts.
//!
//! Ukrenergo's energy map (paper §3.2) reports per-day stabilization
//! outages; the paper counts 1,951 hours without electricity in 2024 and
//! correlates them with Internet outages (r = 0.725 in non-frontline
//! regions). This module models the grid as a calendar of scripted strike
//! events, each inducing a recovery period of rolling blackouts whose daily
//! depth decays as repairs progress. Blackout windows rotate through the
//! day per oblast — the "stabilization schedule" — so Internet effects show
//! the same staggered structure as the real reports.
//!
//! The Crimean peninsula (Crimea, Sevastopol) is attached to the Russian
//! grid since 2014 and never participates (the paper uses exactly this to
//! show the winter outages are power-driven).

use crate::rng::WorldRng;
use fbs_types::{CivilDate, Oblast, Round};
use serde::{Deserialize, Serialize};

/// One strike campaign day against the grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrikeEvent {
    /// Day of the attack.
    pub date: CivilDate,
    /// Severity in `0..=1`: fraction of the worst-case blackout depth.
    pub severity: f64,
    /// Days until the grid fully recovers.
    pub recovery_days: u32,
}

/// The compiled blackout calendar.
#[derive(Debug, Clone)]
pub struct PowerCalendar {
    rng: WorldRng,
    strikes: Vec<StrikeEvent>,
    /// Oblasts participating in the Ukrainian grid.
    affected: Vec<Oblast>,
}

/// Deepest modeled blackout: 16 of 24 hours (paper Fig. 10 shows up to
/// 18-hour days at the peak).
const MAX_DAILY_HOURS: f64 = 16.0;

impl PowerCalendar {
    /// Builds a calendar from strike events. `rng` should be the world's
    /// `"power"` domain.
    pub fn new(rng: WorldRng, mut strikes: Vec<StrikeEvent>) -> Self {
        strikes.sort_by_key(|s| s.date);
        PowerCalendar {
            rng,
            strikes,
            affected: fbs_types::ALL_OBLASTS
                .iter()
                .copied()
                .filter(|o| !o.is_crimean_peninsula())
                .collect(),
        }
    }

    /// The scripted strikes (sorted by date).
    pub fn strikes(&self) -> &[StrikeEvent] {
        &self.strikes
    }

    /// Blackout *rounds* (two-hour slots) for an oblast on a date, `0..=8`.
    fn off_slots(&self, oblast: Oblast, date: CivilDate) -> u32 {
        if oblast.is_crimean_peninsula() {
            return 0;
        }
        let day_index = date.to_epoch_days() as u64;
        let mut hours = 0.0f64;
        for s in &self.strikes {
            let delta = date.to_epoch_days() - s.date.to_epoch_days();
            if delta < 0 || delta >= s.recovery_days as i64 {
                continue;
            }
            let progress = delta as f64 / s.recovery_days as f64;
            // Repairs accelerate: deep outages early, long shallow tail.
            let depth = s.severity * MAX_DAILY_HOURS * (1.0 - progress).powf(1.5);
            // Stabilization schedules rotate across oblasts: on a given day
            // only part of the country is scheduled off, more of it while
            // the damage is fresh.
            let participation = (0.25 + 0.6 * s.severity * (1.0 - progress)).min(0.85);
            if !self
                .rng
                .chance3(participation, oblast.index() as u64, day_index, 31)
            {
                continue;
            }
            // Per-oblast modulation ±40%: strikes hit regions unevenly.
            let wobble = 0.6 + 0.8 * self.rng.uniform3(oblast.index() as u64, day_index, 17);
            hours += depth * wobble;
        }
        ((hours / 2.0).round() as u32).min(8)
    }

    /// Blackout hours for an oblast on a date (multiples of two hours, the
    /// scheduling resolution).
    pub fn daily_hours(&self, oblast: Oblast, date: CivilDate) -> f64 {
        self.off_slots(oblast, date) as f64 * 2.0
    }

    /// Whether a date falls in the *emergency phase* right after a strike
    /// (first three days): shutdowns are then simultaneous country-wide
    /// rather than scheduled per-oblast.
    pub fn emergency_phase(&self, date: CivilDate) -> bool {
        self.strikes.iter().any(|s| {
            let delta = date.to_epoch_days() - s.date.to_epoch_days();
            (0..3).contains(&delta) && s.severity >= 0.5
        })
    }

    /// Whether the oblast's power is out during the given round.
    ///
    /// The day's blackout slots form a contiguous rotating window. In
    /// normal stabilization mode the window's start rotates per oblast;
    /// during the emergency phase after a major strike the whole country
    /// sheds load simultaneously.
    pub fn is_off(&self, oblast: Oblast, round: Round) -> bool {
        let date = round.date();
        let slots = self.off_slots(oblast, date);
        if slots == 0 {
            return false;
        }
        let day_index = date.to_epoch_days() as u64;
        let oblast_coord = if self.emergency_phase(date) {
            99 // shared coordinate: synchronized shutdown
        } else {
            oblast.index() as u64
        };
        let start = self.rng.below3(12, oblast_coord, day_index, 23) as u32;
        let slot = round.hour() as u32 / 2;
        (slot + 12 - start) % 12 < slots
    }

    /// A day's per-oblast hours (index = [`Oblast::index`]).
    pub fn day_row(&self, date: CivilDate) -> [f64; Oblast::COUNT] {
        let mut row = [0.0; Oblast::COUNT];
        for o in &self.affected {
            row[o.index()] = self.daily_hours(*o, date);
        }
        row
    }

    /// The Ukrenergo-style report: per-day average hours across affected
    /// oblasts, restricted to days where more than half of the oblasts are
    /// affected (as the public dataset is), over an inclusive date range.
    pub fn ukrenergo_report(&self, from: CivilDate, to: CivilDate) -> Vec<(CivilDate, f64)> {
        let mut out = Vec::new();
        let mut d = from;
        while d <= to {
            let row = self.day_row(d);
            let affected = row.iter().filter(|&&h| h > 0.0).count();
            if affected * 2 > Oblast::COUNT {
                let mean: f64 = row.iter().sum::<f64>() / self.affected.len() as f64;
                out.push((d, mean));
            }
            d = d.plus_days(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_types::CAMPAIGN_START;

    fn calendar() -> PowerCalendar {
        PowerCalendar::new(
            WorldRng::new(42).domain("power"),
            vec![StrikeEvent {
                date: CivilDate::new(2022, 10, 10),
                severity: 0.9,
                recovery_days: 30,
            }],
        )
    }

    #[test]
    fn no_blackouts_before_strike() {
        let c = calendar();
        for o in fbs_types::ALL_OBLASTS {
            assert_eq!(c.daily_hours(o, CivilDate::new(2022, 9, 1)), 0.0);
        }
    }

    #[test]
    fn blackouts_decay_over_recovery() {
        let c = calendar();
        let early: f64 = c.day_row(CivilDate::new(2022, 10, 11)).iter().sum();
        let late: f64 = c.day_row(CivilDate::new(2022, 11, 5)).iter().sum();
        let after: f64 = c.day_row(CivilDate::new(2022, 11, 20)).iter().sum();
        assert!(early > 0.0);
        assert!(late < early, "late {late} should be below early {early}");
        assert_eq!(after, 0.0);
    }

    #[test]
    fn crimea_never_blacked_out() {
        let c = calendar();
        // Across the whole recovery window: Crimea stays dark-free while
        // mainland oblasts accumulate blackout hours (the rotating schedule
        // spares individual oblasts on individual days).
        let mut kyiv = 0.0;
        for day in 0..30 {
            let date = CivilDate::new(2022, 10, 10).plus_days(day);
            assert_eq!(c.daily_hours(Oblast::Crimea, date), 0.0);
            assert_eq!(c.daily_hours(Oblast::Sevastopol, date), 0.0);
            kyiv += c.daily_hours(Oblast::Kyiv, date);
        }
        assert!(kyiv > 0.0);
    }

    #[test]
    fn round_level_off_matches_daily_hours() {
        let c = calendar();
        let date = CivilDate::new(2022, 10, 12);
        for o in [Oblast::Kyiv, Oblast::Lviv, Oblast::Kherson] {
            // Count off rounds among the 12 rounds of this date.
            let mut off = 0;
            for r in Round::campaign_rounds() {
                if r.date() == date && c.is_off(o, r) {
                    off += 1;
                }
            }
            assert_eq!(off as f64 * 2.0, c.daily_hours(o, date));
        }
    }

    #[test]
    fn blackout_window_is_contiguous_modulo_day() {
        let c = calendar();
        let date = CivilDate::new(2022, 10, 12);
        // Collect the off-pattern across the date's 12 slots.
        let rounds: Vec<Round> = Round::campaign_rounds()
            .filter(|r| r.date() == date)
            .collect();
        assert_eq!(rounds.len(), 12);
        let pattern: Vec<bool> = rounds.iter().map(|r| c.is_off(Oblast::Kyiv, *r)).collect();
        // Count transitions in the circular pattern: a single contiguous
        // window has exactly 2 (or 0 if all-on/all-off).
        let transitions = (0..12)
            .filter(|&i| pattern[i] != pattern[(i + 1) % 12])
            .count();
        assert!(transitions == 2 || transitions == 0, "pattern {pattern:?}");
    }

    #[test]
    fn ukrenergo_report_filters_majority_days() {
        let c = calendar();
        let report = c.ukrenergo_report(CivilDate::new(2022, 10, 1), CivilDate::new(2022, 12, 1));
        assert!(!report.is_empty());
        // Every reported day is within the recovery window.
        for (d, mean) in &report {
            assert!(*d >= CivilDate::new(2022, 10, 10));
            assert!(*d < CivilDate::new(2022, 11, 10));
            assert!(*mean > 0.0);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = calendar();
        let b = calendar();
        let date = CivilDate::new(2022, 10, 15);
        for o in fbs_types::ALL_OBLASTS {
            assert_eq!(a.daily_hours(o, date), b.daily_hours(o, date));
        }
        let r = Round::containing(CAMPAIGN_START.plus_seconds(200 * 86_400)).unwrap();
        assert_eq!(a.is_off(Oblast::Sumy, r), b.is_off(Oblast::Sumy, r));
    }

    #[test]
    fn overlapping_strikes_accumulate() {
        let c = PowerCalendar::new(
            WorldRng::new(1).domain("power"),
            vec![
                StrikeEvent {
                    date: CivilDate::new(2024, 3, 22),
                    severity: 0.5,
                    recovery_days: 20,
                },
                StrikeEvent {
                    date: CivilDate::new(2024, 3, 29),
                    severity: 0.5,
                    recovery_days: 20,
                },
            ],
        );
        let single: f64 = c.day_row(CivilDate::new(2024, 3, 23)).iter().sum();
        let double: f64 = c.day_row(CivilDate::new(2024, 3, 30)).iter().sum();
        assert!(double > single, "double {double} vs single {single}");
    }
}
