//! The campaign clock: civil dates, two-hour probing rounds, and month ids.
//!
//! The paper's campaign probes every two hours from 2022-03-02 22:00 UTC
//! until 2025-02-24; RouteViews dumps share the two-hour cadence and the
//! geolocation database is snapshotted monthly. This module provides exact
//! calendar math for those three granularities without external crates
//! (civil-date conversion uses Howard Hinnant's `days_from_civil`
//! algorithm).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds per probing round (two hours).
pub const ROUND_SECONDS: i64 = 7200;

/// Probing rounds per day.
pub const ROUNDS_PER_DAY: u32 = 12;

/// Campaign start: 2022-03-02 22:00 UTC, the 7th day of the invasion.
pub const CAMPAIGN_START: Timestamp = Timestamp(1_646_258_400);

/// Campaign end analyzed in the paper: 2025-02-24 00:00 UTC.
pub const CAMPAIGN_END: Timestamp = Timestamp(1_740_355_200);

/// A calendar date (proleptic Gregorian, UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CivilDate {
    /// Full year, e.g. 2022.
    pub year: i32,
    /// Month `1..=12`.
    pub month: u8,
    /// Day of month `1..=31`.
    pub day: u8,
}

impl CivilDate {
    /// Creates a date; panics if the month/day are out of range.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        let d = CivilDate { year, month, day };
        assert!(
            day >= 1 && day <= d.days_in_month(),
            "day {day} out of range for {year}-{month:02}"
        );
        d
    }

    /// Whether `year` is a leap year.
    pub fn is_leap_year(year: i32) -> bool {
        year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
    }

    /// Days in this date's month.
    pub fn days_in_month(self) -> u8 {
        match self.month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if Self::is_leap_year(self.year) {
                    29
                } else {
                    28
                }
            }
            _ => unreachable!("month validated on construction"),
        }
    }

    /// Days since 1970-01-01 (Hinnant's `days_from_civil`).
    pub fn to_epoch_days(self) -> i64 {
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`Self::to_epoch_days`] (Hinnant's `civil_from_days`).
    pub fn from_epoch_days(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        CivilDate {
            year: (y + if m <= 2 { 1 } else { 0 }) as i32,
            month: m as u8,
            day: d as u8,
        }
    }

    /// Weekday with Monday = 0 .. Sunday = 6.
    pub fn weekday(self) -> u8 {
        // 1970-01-01 was a Thursday (weekday 3).
        ((self.to_epoch_days() + 3).rem_euclid(7)) as u8
    }

    /// Midnight UTC of this date.
    pub fn midnight(self) -> Timestamp {
        Timestamp(self.to_epoch_days() * 86_400)
    }

    /// Timestamp at the given hour/minute of this date.
    pub fn at(self, hour: u8, minute: u8) -> Timestamp {
        assert!(hour < 24 && minute < 60, "invalid time {hour}:{minute}");
        Timestamp(self.to_epoch_days() * 86_400 + hour as i64 * 3600 + minute as i64 * 60)
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn plus_days(self, n: i64) -> Self {
        Self::from_epoch_days(self.to_epoch_days() + n)
    }

    /// Month id of this date.
    pub fn month_id(self) -> MonthId {
        MonthId::new(self.year, self.month)
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Seconds since the Unix epoch, UTC.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The calendar date containing this instant.
    pub fn date(self) -> CivilDate {
        CivilDate::from_epoch_days(self.0.div_euclid(86_400))
    }

    /// Hour of day, `0..24`.
    pub fn hour(self) -> u8 {
        (self.0.rem_euclid(86_400) / 3600) as u8
    }

    /// Seconds elapsed since `earlier` (negative if `self` is earlier).
    pub fn seconds_since(self, earlier: Timestamp) -> i64 {
        self.0 - earlier.0
    }

    /// This instant plus `secs` seconds.
    pub fn plus_seconds(self, secs: i64) -> Timestamp {
        Timestamp(self.0 + secs)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let rem = self.0.rem_euclid(86_400);
        write!(f, "{} {:02}:{:02}Z", d, rem / 3600, (rem % 3600) / 60)
    }
}

/// Index of a two-hour probing round since [`CAMPAIGN_START`].
///
/// Round 0 spans 2022-03-02 22:00–23:59 UTC. Rounds align with RouteViews'
/// two-hour BGP snapshot cadence.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Round(pub u32);

impl Round {
    /// The instant this round's probing window opens.
    pub fn start(self) -> Timestamp {
        Timestamp(CAMPAIGN_START.0 + self.0 as i64 * ROUND_SECONDS)
    }

    /// The round containing `ts`; `None` before the campaign start.
    pub fn containing(ts: Timestamp) -> Option<Round> {
        let delta = ts.0 - CAMPAIGN_START.0;
        if delta < 0 {
            None
        } else {
            Some(Round((delta / ROUND_SECONDS) as u32))
        }
    }

    /// First round whose window opens at or after `ts`.
    pub fn first_at_or_after(ts: Timestamp) -> Round {
        let delta = ts.0 - CAMPAIGN_START.0;
        if delta <= 0 {
            Round(0)
        } else {
            Round(((delta + ROUND_SECONDS - 1) / ROUND_SECONDS) as u32)
        }
    }

    /// Calendar date of the round's start.
    pub fn date(self) -> CivilDate {
        self.start().date()
    }

    /// Month id of the round's start.
    pub fn month(self) -> MonthId {
        self.date().month_id()
    }

    /// Hour of day at which the round starts (`0..24`).
    pub fn hour(self) -> u8 {
        self.start().hour()
    }

    /// The next round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Total rounds in the analyzed campaign window.
    pub fn campaign_total() -> u32 {
        ((CAMPAIGN_END.0 - CAMPAIGN_START.0) / ROUND_SECONDS) as u32
    }

    /// Iterator over all campaign rounds `[0, campaign_total)`.
    pub fn campaign_rounds() -> impl Iterator<Item = Round> {
        (0..Self::campaign_total()).map(Round)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {} ({})", self.0, self.start())
    }
}

/// A calendar month, encoded as `year * 12 + month - 1`.
///
/// Monthly granularity drives geolocation snapshots, FBS eligibility
/// (ever-active addresses per month) and regional classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct MonthId(pub u32);

impl MonthId {
    /// Creates a month id from a year and 1-based month.
    pub fn new(year: i32, month: u8) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(year >= 0, "negative years unsupported");
        MonthId(year as u32 * 12 + (month as u32 - 1))
    }

    /// Full year.
    pub fn year(self) -> i32 {
        (self.0 / 12) as i32
    }

    /// 1-based month.
    pub fn month(self) -> u8 {
        (self.0 % 12 + 1) as u8
    }

    /// First day of the month.
    pub fn first_date(self) -> CivilDate {
        CivilDate::new(self.year(), self.month(), 1)
    }

    /// The next month.
    pub fn next(self) -> MonthId {
        MonthId(self.0 + 1)
    }

    /// The previous month; panics at the epoch of year 0.
    pub fn prev(self) -> MonthId {
        MonthId(self.0 - 1)
    }

    /// Months from `self` (inclusive) to `end` (inclusive).
    pub fn range_inclusive(self, end: MonthId) -> impl Iterator<Item = MonthId> {
        (self.0..=end.0).map(MonthId)
    }

    /// Month of the campaign start (March 2022).
    pub fn campaign_first() -> MonthId {
        CAMPAIGN_START.date().month_id()
    }

    /// Month of the campaign end (February 2025).
    pub fn campaign_last() -> MonthId {
        CAMPAIGN_END.date().month_id()
    }

    /// Rounds whose start falls inside this month, clamped to the campaign.
    pub fn campaign_rounds(self) -> std::ops::Range<u32> {
        let start_ts = self.first_date().midnight();
        let end_ts = self.next().first_date().midnight();
        let total = Round::campaign_total();
        let lo = Round::first_at_or_after(start_ts).0.min(total);
        let hi = Round::first_at_or_after(end_ts).0.min(total);
        lo..hi
    }
}

impl fmt::Display for MonthId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year(), self.month())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_start_constant_matches_date_math() {
        assert_eq!(CivilDate::new(2022, 3, 2).at(22, 0), CAMPAIGN_START);
        assert_eq!(CivilDate::new(2025, 2, 24).midnight(), CAMPAIGN_END);
    }

    #[test]
    fn civil_roundtrip_across_leap_years() {
        let dates = [
            CivilDate::new(1970, 1, 1),
            CivilDate::new(2000, 2, 29),
            CivilDate::new(2022, 2, 24),
            CivilDate::new(2024, 2, 29),
            CivilDate::new(2024, 12, 31),
            CivilDate::new(2100, 3, 1),
        ];
        for d in dates {
            assert_eq!(CivilDate::from_epoch_days(d.to_epoch_days()), d);
        }
        assert_eq!(CivilDate::new(1970, 1, 1).to_epoch_days(), 0);
    }

    #[test]
    fn leap_year_rules() {
        assert!(CivilDate::is_leap_year(2024));
        assert!(!CivilDate::is_leap_year(2023));
        assert!(!CivilDate::is_leap_year(2100));
        assert!(CivilDate::is_leap_year(2000));
        assert_eq!(CivilDate::new(2024, 2, 1).days_in_month(), 29);
        assert_eq!(CivilDate::new(2023, 2, 1).days_in_month(), 28);
    }

    #[test]
    fn weekday_known_values() {
        // 2022-02-24 (invasion start) was a Thursday.
        assert_eq!(CivilDate::new(2022, 2, 24).weekday(), 3);
        // 2022-11-11 (Kherson liberation) was a Friday.
        assert_eq!(CivilDate::new(2022, 11, 11).weekday(), 4);
        // 1970-01-01 was a Thursday.
        assert_eq!(CivilDate::new(1970, 1, 1).weekday(), 3);
    }

    #[test]
    fn round_zero_is_campaign_start() {
        assert_eq!(Round(0).start(), CAMPAIGN_START);
        assert_eq!(Round(0).hour(), 22);
        assert_eq!(Round(1).start().0 - Round(0).start().0, ROUND_SECONDS);
        assert_eq!(Round::containing(CAMPAIGN_START), Some(Round(0)));
        assert_eq!(
            Round::containing(CAMPAIGN_START.plus_seconds(7199)),
            Some(Round(0))
        );
        assert_eq!(
            Round::containing(CAMPAIGN_START.plus_seconds(7200)),
            Some(Round(1))
        );
        assert_eq!(Round::containing(Timestamp(CAMPAIGN_START.0 - 1)), None);
    }

    #[test]
    fn campaign_total_is_about_three_years() {
        let total = Round::campaign_total();
        // 2022-03-02 22:00 to 2025-02-24 00:00 is 1089 days + 2 hours.
        assert_eq!(total, 1089 * 12 + 1);
    }

    #[test]
    fn month_id_roundtrip() {
        let m = MonthId::new(2022, 3);
        assert_eq!(m.year(), 2022);
        assert_eq!(m.month(), 3);
        assert_eq!(m.next(), MonthId::new(2022, 4));
        assert_eq!(MonthId::new(2023, 1).prev(), MonthId::new(2022, 12));
        assert_eq!(m.to_string(), "2022-03");
    }

    #[test]
    fn campaign_month_bounds() {
        assert_eq!(MonthId::campaign_first(), MonthId::new(2022, 3));
        assert_eq!(MonthId::campaign_last(), MonthId::new(2025, 2));
    }

    #[test]
    fn first_month_rounds_start_at_zero() {
        let r = MonthId::new(2022, 3).campaign_rounds();
        assert_eq!(r.start, 0);
        // March 2022: rounds from 2022-03-02 22:00 through 2022-03-31 23:59.
        let last_round = Round(r.end - 1);
        assert_eq!(last_round.date(), CivilDate::new(2022, 3, 31));
        let first_april = Round(r.end);
        assert_eq!(first_april.date(), CivilDate::new(2022, 4, 1));
    }

    #[test]
    fn month_before_campaign_has_no_rounds() {
        let r = MonthId::new(2022, 1).campaign_rounds();
        assert!(r.is_empty());
        // Months after the campaign end are also empty.
        let r = MonthId::new(2025, 3).campaign_rounds();
        assert!(r.is_empty());
    }

    #[test]
    fn last_month_rounds_clamped_to_campaign_end() {
        let r = MonthId::new(2025, 2).campaign_rounds();
        assert_eq!(r.end, Round::campaign_total());
        let last = Round(r.end - 1);
        assert_eq!(last.date(), CivilDate::new(2025, 2, 23));
    }

    #[test]
    fn full_month_has_expected_round_count() {
        // April 2022 is fully inside the campaign: 30 days * 12 rounds.
        let r = MonthId::new(2022, 4).campaign_rounds();
        assert_eq!(r.end - r.start, 30 * 12);
    }

    #[test]
    fn timestamp_display() {
        assert_eq!(CAMPAIGN_START.to_string(), "2022-03-02 22:00Z");
    }

    #[test]
    fn plus_days_crosses_month_boundary() {
        let d = CivilDate::new(2022, 4, 30).plus_days(1);
        assert_eq!(d, CivilDate::new(2022, 5, 1));
        let d = CivilDate::new(2024, 3, 1).plus_days(-1);
        assert_eq!(d, CivilDate::new(2024, 2, 29));
    }
}
